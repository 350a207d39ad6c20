//! Gated recurrent unit, used by the DeepMatcher baseline.

use super::linear::Linear;
use crate::graph::{NodeId, Tape};
use crate::params::ParamStore;
use crate::tensor::Tensor;
use rotom_rng::rngs::StdRng;

/// A single-direction GRU over a `T x in_dim` sequence.
pub struct Gru {
    /// Input projections for update / reset / candidate gates.
    wz: Linear,
    wr: Linear,
    wh: Linear,
    /// Hidden projections (bias folded into the input projections).
    uz: Linear,
    ur: Linear,
    uh: Linear,
    hidden: usize,
}

impl Gru {
    /// Register a GRU with the given input and hidden widths.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        let lin = |store: &mut ParamStore, rng: &mut StdRng, suffix: &str, i: usize, bias: bool| {
            Linear::with_bias(store, rng, &format!("{name}.{suffix}"), i, hidden, bias)
        };
        Self {
            wz: lin(store, rng, "wz", in_dim, true),
            wr: lin(store, rng, "wr", in_dim, true),
            wh: lin(store, rng, "wh", in_dim, true),
            uz: lin(store, rng, "uz", hidden, false),
            ur: lin(store, rng, "ur", hidden, false),
            uh: lin(store, rng, "uh", hidden, false),
            hidden,
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Run the GRU over the rows of `x` (`T x in_dim`), returning all hidden
    /// states stacked as `T x hidden`.
    pub fn forward(&self, tape: &mut Tape, x: NodeId, store: &ParamStore) -> NodeId {
        let t_len = tape.value(x).rows();
        let mut h = tape.input(Tensor::zeros(1, self.hidden));
        let mut states = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let xt = tape.slice_rows(x, t, 1);
            // z_t = sigmoid(W_z x_t + U_z h)
            let zx = self.wz.forward(tape, xt, store);
            let zh = self.uz.forward(tape, h, store);
            let z = tape.add(zx, zh);
            let z = tape.sigmoid(z);
            // r_t = sigmoid(W_r x_t + U_r h)
            let rx = self.wr.forward(tape, xt, store);
            let rh = self.ur.forward(tape, h, store);
            let r = tape.add(rx, rh);
            let r = tape.sigmoid(r);
            // h~ = tanh(W_h x_t + U_h (r ⊙ h))
            let rh_gated = tape.mul(r, h);
            let cx = self.wh.forward(tape, xt, store);
            let ch = self.uh.forward(tape, rh_gated, store);
            let cand = tape.add(cx, ch);
            let cand = tape.tanh(cand);
            // h = (1 - z) ⊙ h + z ⊙ h~
            let neg_z = tape.scale(z, -1.0);
            let one_minus_z = tape.add_const(neg_z, 1.0);
            let keep = tape.mul(one_minus_z, h);
            let update = tape.mul(z, cand);
            h = tape.add(keep, update);
            states.push(h);
        }
        tape.concat_rows(&states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;

    #[test]
    fn gru_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, &mut rng, "gru", 6, 10);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::full(4, 6, 0.3));
        let all = gru.forward(&mut tape, x, &store);
        assert_eq!((tape.value(all).rows(), tape.value(all).cols()), (4, 10));
    }

    #[test]
    fn gru_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let gru = Gru::new(&mut store, &mut rng, "gru", 4, 5);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::full(3, 4, 0.5));
        let states = gru.forward(&mut tape, x, &store);
        let loss = tape.sum_all(states);
        store.zero_grad();
        tape.backward(loss, &mut store);
        assert!(
            store.grad_norm() > 0.0,
            "no gradient reached GRU parameters"
        );
    }
}
