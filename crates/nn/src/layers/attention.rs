//! Multi-head scaled dot-product attention.

use super::linear::Linear;
use super::Exec;
use crate::graph::{AttnMask, NodeId};
use crate::kernels::Act;
use crate::params::ParamStore;
use rotom_rng::rngs::StdRng;

/// Multi-head attention with separate Q/K/V/O projections.
///
/// Heads are realized by column-slicing the projected Q/K/V, computing
/// per-head attention, and concatenating — exact, with no reshape machinery.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// Register an attention block. `d_model` must be divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        d_model: usize,
        heads: usize,
    ) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must be divisible by heads");
        Self {
            wq: Linear::new(store, rng, &format!("{name}.wq"), d_model, d_model),
            wk: Linear::new(store, rng, &format!("{name}.wk"), d_model, d_model),
            wv: Linear::new(store, rng, &format!("{name}.wv"), d_model, d_model),
            wo: Linear::new(store, rng, &format!("{name}.wo"), d_model, d_model),
            heads,
            d_model,
        }
    }

    /// Attend queries (`Tq x d`) to keys/values (`Tk x d`).
    ///
    /// `mask`, if given, is an additive `Tq x Tk` mask (0 visible / -1e9
    /// hidden) shared across heads.
    pub fn forward<E: Exec>(
        &self,
        ex: &mut E,
        q_in: NodeId,
        kv_in: NodeId,
        mask: Option<&AttnMask>,
        store: &ParamStore,
    ) -> NodeId {
        let full_tq = ex.value(q_in).rows();
        self.forward_band(ex, q_in, full_tq, Kv::Rows(kv_in), mask, store)
    }

    /// The K and V projections of `kv_in`, for attending to the same rows
    /// many times: decoding projects the fixed encoder memory once per
    /// generation and reuses it at every step.
    pub(crate) fn project_kv<E: Exec>(&self, ex: &mut E, kv_in: NodeId, store: &ParamStore) -> Kv {
        let (k, v) = self.kv(ex, kv_in, store);
        Kv::Projected(k, v)
    }

    fn kv<E: Exec>(&self, ex: &mut E, kv_in: NodeId, store: &ParamStore) -> (NodeId, NodeId) {
        let k = self.wk.forward(ex, kv_in, store);
        let v = self.wv.forward(ex, kv_in, store);
        (k, v)
    }

    /// Attend `q_in`, a row band of a `full_tq`-row query input, to every
    /// row of `kv`. Every GEMM on a band operand (the Q and output
    /// projections, each head's scores and context) dispatches on
    /// `full_tq`, so the band's rows are bit-identical to the same rows of
    /// [`forward`](Self::forward), which is the all-rows band. `mask`, if
    /// given, holds the band's rows of the additive mask.
    pub(crate) fn forward_band<E: Exec>(
        &self,
        ex: &mut E,
        q_in: NodeId,
        full_tq: usize,
        kv: Kv,
        mask: Option<&AttnMask>,
        store: &ParamStore,
    ) -> NodeId {
        let dk = self.d_model / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let q = self.wq.forward_band(ex, q_in, full_tq, Act::None, store);
        let (k, v) = match kv {
            Kv::Rows(x) => self.kv(ex, x, store),
            Kv::Projected(k, v) => (k, v),
        };
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qs = ex.slice_cols(q, h * dk, dk);
            let ks = ex.slice_cols(k, h * dk, dk);
            let vs = ex.slice_cols(v, h * dk, dk);
            let scores = ex.matmul_tb_band(qs, ks, full_tq);
            let scores = ex.scale(scores, scale);
            let attn = ex.masked_softmax(scores, mask);
            head_outputs.push(ex.matmul_band(attn, vs, full_tq));
        }
        let concat = ex.concat_cols(&head_outputs);
        self.wo.forward_band(ex, concat, full_tq, Act::None, store)
    }
}

/// The keys and values an attention block reads.
#[derive(Debug, Clone, Copy)]
pub enum Kv {
    /// The rows to project into K and V inside the block (after the Q
    /// projection).
    Rows(NodeId),
    /// K and V already projected (see `MultiHeadAttention::project_kv`).
    Projected(NodeId, NodeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;
    use crate::layers::transformer::causal_mask;
    use crate::tensor::Tensor;
    use rotom_rng::SeedableRng;

    #[test]
    fn self_attention_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", 8, 2);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::full(5, 8, 0.1));
        let y = attn.forward(&mut tape, x, x, None, &store);
        assert_eq!((tape.value(y).rows(), tape.value(y).cols()), (5, 8));
    }

    #[test]
    fn causal_mask_blocks_future() {
        // With a causal mask, position 0's output must not change when later
        // positions change.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", 8, 2);
        let run = |x: Tensor, store: &ParamStore| {
            let mut tape = Tape::new();
            let xin = tape.input(x);
            let mask = causal_mask(3, 3);
            let y = attn.forward(&mut tape, xin, xin, Some(&mask), store);
            tape.value(y).row_slice(0).to_vec()
        };
        let mut a = vec![0.1f32; 24];
        let base = run(Tensor::from_vec(a.clone(), 3, 8), &store);
        for v in &mut a[8..] {
            *v = 0.9;
        }
        let perturbed = run(Tensor::from_vec(a, 3, 8), &store);
        for (b, p) in base.iter().zip(&perturbed) {
            assert!((b - p).abs() < 1e-6, "future token leaked into position 0");
        }
    }
}
