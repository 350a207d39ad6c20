//! Layer normalization.

use super::Exec;
use crate::graph::NodeId;
use crate::init::Initializer;
use crate::params::{ParamId, ParamStore};
use rotom_rng::rngs::StdRng;

/// Row-wise layer normalization with learned scale and shift.
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Register a layer norm over `dim`-wide rows.
    pub fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, dim: usize) -> Self {
        let gamma = store.alloc(format!("{name}.gamma"), 1, dim, Initializer::Ones, rng);
        let beta = store.alloc(format!("{name}.beta"), 1, dim, Initializer::Zeros, rng);
        Self {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Normalize each row of `x`.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: NodeId, store: &ParamStore) -> NodeId {
        ex.norm(x, self.gamma, self.beta, self.eps, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;
    use crate::tensor::Tensor;
    use rotom_rng::SeedableRng;

    #[test]
    fn normalized_rows_have_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, &mut rng, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0],
            2,
            4,
        ));
        let y = ln.forward(&mut tape, x, &store);
        for r in 0..2 {
            let row = tape.value(y).row_slice(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }
}
