//! Multi-head scaled dot-product attention.

use super::linear::Linear;
use crate::graph::{AttnMask, NodeId, Tape};
use crate::infer::InferScratch;
use crate::kernels::{self, Act};
use crate::params::ParamStore;
use crate::pool::RotomPool;
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
    pub fn forward(
        &self,
        tape: &mut Tape,
        q_in: NodeId,
        kv_in: NodeId,
        mask: Option<&AttnMask>,
        store: &ParamStore,
    ) -> NodeId {
        let full_tq = tape.value(q_in).rows();
        self.forward_band(tape, q_in, full_tq, kv_in, mask, store)
    }

    /// Attend `q_in`, the leading row band of a `full_tq`-row query input,
    /// to all of `kv_in`. Every GEMM on a band operand (the Q and output
    /// projections, each head's scores and context) dispatches on
    /// `full_tq`, so the band's rows are bit-identical to the same rows of
    /// [`forward`](Self::forward), which is the all-rows band. `mask`, if
    /// given, holds the band's rows of the additive mask.
    pub fn forward_band(
        &self,
        tape: &mut Tape,
        q_in: NodeId,
        full_tq: usize,
        kv_in: NodeId,
        mask: Option<&AttnMask>,
        store: &ParamStore,
    ) -> NodeId {
        let dk = self.d_model / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let q = self.wq.forward_band(tape, q_in, full_tq, store);
        let k = self.wk.forward(tape, kv_in, store);
        let v = self.wv.forward(tape, kv_in, store);
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qs = tape.slice_cols(q, h * dk, dk);
            let ks = tape.slice_cols(k, h * dk, dk);
            let vs = tape.slice_cols(v, h * dk, dk);
            let scores = tape.matmul_tb_band(qs, ks, full_tq);
            let scores = tape.scale(scores, scale);
            let attn = tape.masked_softmax(scores, mask);
            head_outputs.push(tape.matmul_band(attn, vs, full_tq));
        }
        let concat = tape.concat_cols(&head_outputs);
        self.wo.forward_band(tape, concat, full_tq, store)
    }

    /// Model width (for sizing inference workspaces).
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Project the K and V operands of `kv_in` (`tk × d`) into caller
    /// buffers (`tk × d` each) for [`infer_forward`](Self::infer_forward).
    /// Cross-attention during autoregressive decoding projects the fixed
    /// encoder memory once per generation and reuses it at every step.
    pub fn infer_project_kv(
        &self,
        kv_in: &[f32],
        tk: usize,
        store: &ParamStore,
        pool: &RotomPool,
        k_out: &mut [f32],
        v_out: &mut [f32],
    ) {
        self.wk
            .infer_forward(kv_in, tk, tk, Act::None, store, pool, k_out);
        self.wv
            .infer_forward(kv_in, tk, tk, Act::None, store, pool, v_out);
    }

    /// Forward-only attention of a `tq`-row band of a `full_tq`-row query
    /// input over `tk` keys/values, into `out` (`tq × d`); a full pass is
    /// the band `0..full_tq`. `k`/`v` are the projections from
    /// [`infer_project_kv`](Self::infer_project_kv) (every query row attends
    /// to every key, so they always cover all `tk` rows); `mask`, if given,
    /// holds the band's rows of the additive `full_tq × tk` mask.
    ///
    /// Bit-identical to the same rows of [`forward`](Self::forward):
    /// identical projection GEMM dispatch, per-head slicing layouts, scalar
    /// reduction orders, and softmax formula.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_forward(
        &self,
        q_in: &[f32],
        full_tq: usize,
        tq: usize,
        k: &[f32],
        v: &[f32],
        tk: usize,
        mask: Option<&[f32]>,
        store: &ParamStore,
        pool: &RotomPool,
        scratch: &mut InferScratch,
        out: &mut [f32],
    ) {
        let d = self.d_model;
        let dk = d / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let mut q = scratch.take(tq * d);
        self.wq
            .infer_forward(q_in, full_tq, tq, Act::None, store, pool, &mut q);
        let mut concat = scratch.take(tq * d);
        let mut qs = scratch.take(tq * dk);
        let mut ks = scratch.take(tk * dk);
        let mut vs = scratch.take(tk * dk);
        let mut scores = scratch.take(tq * tk);
        let mut attn = scratch.take(tq * tk);
        let mut head_out = scratch.take(tq * dk);
        for h in 0..self.heads {
            slice_cols(&q, tq, d, h * dk, dk, &mut qs);
            slice_cols(k, tk, d, h * dk, dk, &mut ks);
            slice_cols(v, tk, d, h * dk, dk, &mut vs);
            kernels::matmul_transpose_b_into(
                &qs,
                &ks,
                None,
                full_tq,
                tq,
                dk,
                tk,
                pool,
                &mut scores,
            );
            kernels::scale_fwd(&mut scores, scale);
            kernels::softmax_fwd(&scores, mask, tq, tk, &mut attn);
            kernels::matmul_into(&attn, &vs, None, full_tq, tq, tk, dk, pool, &mut head_out);
            place_cols(&mut concat, tq, d, h * dk, dk, &head_out);
        }
        self.wo
            .infer_forward(&concat, full_tq, tq, Act::None, store, pool, out);
        for buf in [q, concat, qs, ks, vs, scores, attn, head_out] {
            scratch.put(buf);
        }
    }
}

/// Copy columns `c0..c0+width` of a `rows × src_cols` matrix into a dense
/// `rows × width` buffer — the value layout of the tape's `slice_cols`.
fn slice_cols(src: &[f32], rows: usize, src_cols: usize, c0: usize, width: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), rows * width);
    for i in 0..rows {
        dst[i * width..(i + 1) * width]
            .copy_from_slice(&src[i * src_cols + c0..i * src_cols + c0 + width]);
    }
}

/// Inverse of [`slice_cols`]: write a dense `rows × width` block into
/// columns `c0..c0+width` of a `rows × dst_cols` buffer — the value layout
/// of the tape's `concat_cols`.
fn place_cols(dst: &mut [f32], rows: usize, dst_cols: usize, c0: usize, width: usize, src: &[f32]) {
    debug_assert_eq!(src.len(), rows * width);
    for i in 0..rows {
        dst[i * dst_cols + c0..i * dst_cols + c0 + width]
            .copy_from_slice(&src[i * width..(i + 1) * width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn infer_forward_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let d = 8;
        let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", d, 2);
        let pool = RotomPool::new(1);
        for &(tq, tk, masked) in &[
            (1usize, 1usize, false),
            (5, 5, true),
            (3, 7, false),
            (9, 4, false),
        ] {
            let qx: Vec<f32> = (0..tq * d)
                .map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.07)
                .collect();
            let kx: Vec<f32> = (0..tk * d)
                .map(|i| ((i * 29 % 19) as f32 - 9.0) * 0.05)
                .collect();
            let mask = masked.then(|| causal_mask(tq, tk));
            let mut tape = Tape::new();
            let qn = tape.input(Tensor::from_vec(qx.clone(), tq, d));
            let kn = tape.input(Tensor::from_vec(kx.clone(), tk, d));
            let y = attn.forward(&mut tape, qn, kn, mask.as_ref(), &store);
            let expect = tape.value(y).data().to_vec();

            let mut scratch = InferScratch::new();
            let mut k = vec![0.0f32; tk * d];
            let mut v = vec![0.0f32; tk * d];
            attn.infer_project_kv(&kx, tk, &store, &pool, &mut k, &mut v);
            // Every band, including the full pass `0..tq`, matches the same
            // rows of the tape forward.
            let mut bands = vec![(0, tq)];
            bands.extend((0..tq).map(|row| kernels::band_rows(tq, row)));
            for (start, len) in bands {
                let mut got = vec![0.0f32; len * d];
                attn.infer_forward(
                    &qx[start * d..(start + len) * d],
                    tq,
                    len,
                    &k,
                    &v,
                    tk,
                    mask.as_ref()
                        .map(|m| &m.data()[start * tk..(start + len) * tk]),
                    &store,
                    &pool,
                    &mut scratch,
                    &mut got,
                );
                assert_eq!(
                    &expect[start * d..(start + len) * d],
                    &got[..],
                    "tq={tq} tk={tk} masked={masked} band={start}+{len}"
                );
            }
        }
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
