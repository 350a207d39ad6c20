//! Fully connected layer.

use super::Exec;
use crate::graph::NodeId;
use crate::init::Initializer;
use crate::kernels::Act;
use crate::params::{ParamId, ParamStore};
use rotom_rng::rngs::StdRng;

/// `y = x W + b` with Xavier-initialized `W` and zero-initialized `b`.
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
}

impl Linear {
    /// Register a `in_dim -> out_dim` linear layer (with bias).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        Self::with_bias(store, rng, name, in_dim, out_dim, true)
    }

    /// Register a linear layer, optionally without bias.
    pub fn with_bias(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.alloc(
            format!("{name}.w"),
            in_dim,
            out_dim,
            Initializer::XavierUniform,
            rng,
        );
        let b = bias.then(|| store.alloc(format!("{name}.b"), 1, out_dim, Initializer::Zeros, rng));
        Self { w, b }
    }

    /// The weight and (optional) bias parameter ids.
    pub fn params(&self) -> (ParamId, Option<ParamId>) {
        (self.w, self.b)
    }

    /// Apply the layer to an `m x in_dim` node.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: NodeId, store: &ParamStore) -> NodeId {
        let full_rows = ex.value(x).rows();
        self.forward_band(ex, x, full_rows, Act::None, store)
    }

    /// `act(x·W + b)` for `x`, a row band of a `full_rows`-row input: the
    /// GEMM dispatches on `full_rows` (see [`Exec::matmul_band`]), so the
    /// band's rows are bit-identical to the same rows of the all-rows band.
    pub(crate) fn forward_band<E: Exec>(
        &self,
        ex: &mut E,
        x: NodeId,
        full_rows: usize,
        act: Act,
        store: &ParamStore,
    ) -> NodeId {
        ex.linear(x, self.w, self.b, full_rows, act, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;
    use crate::tensor::Tensor;
    use rotom_rng::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 7);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(3, 4));
        let y = lin.forward(&mut tape, x, &store);
        assert_eq!((tape.value(y).rows(), tape.value(y).cols()), (3, 7));
    }

    #[test]
    fn bias_free_layer_maps_zero_to_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::with_bias(&mut store, &mut rng, "l", 4, 4, false);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(1, 4));
        let y = lin.forward(&mut tape, x, &store);
        assert!(tape.value(y).data().iter().all(|&v| v == 0.0));
    }
}
