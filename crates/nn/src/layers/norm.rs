//! Layer normalization.

use crate::graph::{NodeId, Tape};
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
    pub fn forward(&self, tape: &mut Tape, x: NodeId, store: &ParamStore) -> NodeId {
        let g = tape.param(self.gamma, store);
        let b = tape.param(self.beta, store);
        tape.layer_norm(x, g, b, self.eps)
    }

    /// Forward-only row-wise normalization of a `rows × dim` buffer into
    /// `out`, bit-identical to the tape's `layer_norm` op. Layer norm is
    /// per-row, so this also serves row bands directly.
    pub fn infer_forward(&self, x: &[f32], rows: usize, store: &ParamStore, out: &mut [f32]) {
        let g = store.value(self.gamma);
        let b = store.value(self.beta);
        crate::kernels::layernorm_fwd(x, g.data(), b.data(), self.eps, rows, g.cols(), out, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
