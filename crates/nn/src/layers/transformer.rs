//! Transformer encoder / decoder stacks.
//!
//! These are the building blocks of both the target classifier ("TinyLm", the
//! stand-in for RoBERTa/DistilBERT) and the InvDA seq2seq model (the stand-in
//! for T5). Pre-norm residual blocks are used for training stability at small
//! scale.

use super::attention::{Kv, MultiHeadAttention};
use super::embedding::Embedding;
use super::linear::Linear;
use super::norm::LayerNorm;
use super::{Exec, FwdCtx};
use crate::graph::{AttnMask, NodeId};
use crate::kernels::{self, Act};
use crate::params::ParamStore;
use crate::tensor::Tensor;
use rotom_rng::rngs::StdRng;
use std::ops::Range;

/// Hyper-parameters shared by encoder and decoder stacks.
#[derive(Debug, Clone)]
pub struct TransformerConfig {
    /// Vocabulary size (token embedding rows).
    pub vocab: usize,
    /// Model width.
    pub d_model: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Number of layers.
    pub layers: usize,
    /// Maximum sequence length (positional embedding rows).
    pub max_len: usize,
}

impl TransformerConfig {
    /// A small configuration suitable for unit tests.
    pub fn tiny(vocab: usize) -> Self {
        Self {
            vocab,
            d_model: 32,
            heads: 2,
            d_ff: 64,
            layers: 2,
            max_len: 64,
        }
    }
}

/// Additive causal mask of shape `tq x tk`: position `i` may attend to
/// keys `0..=i + (tk - tq)`.
pub fn causal_mask(tq: usize, tk: usize) -> AttnMask {
    let offset = tk - tq;
    let mut m = Tensor::zeros(tq, tk);
    for i in 0..tq {
        for j in (i + offset + 1)..tk {
            *m.at_mut(i, j) = -1e9;
        }
    }
    m
}

/// Position-wise feed-forward block: `Linear -> GELU -> Linear`.
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
}

impl FeedForward {
    /// Register a `d_model -> d_ff -> d_model` block.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        d_model: usize,
        d_ff: usize,
    ) -> Self {
        Self {
            l1: Linear::new(store, rng, &format!("{name}.ff1"), d_model, d_ff),
            l2: Linear::new(store, rng, &format!("{name}.ff2"), d_ff, d_model),
        }
    }

    /// Apply the block.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: NodeId, store: &ParamStore) -> NodeId {
        let full_rows = ex.value(x).rows();
        self.forward_band(ex, x, full_rows, store)
    }

    /// Apply the block to `x`, a row band of a `full_rows`-row input. Both
    /// GEMMs dispatch on `full_rows`, so the band's rows are bit-identical to
    /// the same rows of [`forward`](Self::forward), which is the all-rows
    /// band.
    pub(crate) fn forward_band<E: Exec>(
        &self,
        ex: &mut E,
        x: NodeId,
        full_rows: usize,
        store: &ParamStore,
    ) -> NodeId {
        let h = self.l1.forward_band(ex, x, full_rows, Act::Gelu, store);
        self.l2.forward_band(ex, h, full_rows, Act::None, store)
    }
}

/// Pre-norm Transformer encoder layer.
pub struct EncoderLayer {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ff: FeedForward,
    ln2: LayerNorm,
}

impl EncoderLayer {
    /// Register one encoder layer.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        cfg: &TransformerConfig,
    ) -> Self {
        Self {
            attn: MultiHeadAttention::new(
                store,
                rng,
                &format!("{name}.attn"),
                cfg.d_model,
                cfg.heads,
            ),
            ln1: LayerNorm::new(store, rng, &format!("{name}.ln1"), cfg.d_model),
            ff: FeedForward::new(store, rng, &format!("{name}.ff"), cfg.d_model, cfg.d_ff),
            ln2: LayerNorm::new(store, rng, &format!("{name}.ln2"), cfg.d_model),
        }
    }

    /// Apply the layer to a `T x d` node.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: NodeId, ctx: &mut FwdCtx<'_>) -> NodeId {
        let t = ex.value(x).rows();
        self.forward_band(ex, x, 0..t, ctx)
    }

    /// Apply the layer to the full `t × d` node `x`, computing only output
    /// `rows` (a [`kernels::band_rows`] band, or `0..t` for
    /// [`forward`](Self::forward)). The first layer norm and the K/V
    /// projections cover all `t` rows, because every query row attends to
    /// every key; the Q projection, attention, output projection, both
    /// residuals, the second norm, the feed-forward block and both dropouts
    /// run on the band. Every GEMM on a band operand dispatches on `t`, and
    /// each dropout draws its full `t × d` mask and applies the band's rows
    /// (a leading band, when dropout is on), so the band's values, the
    /// gradients of a loss that reads only those rows, and the RNG stream
    /// are bit-identical to the full pass.
    pub(crate) fn forward_band<E: Exec>(
        &self,
        ex: &mut E,
        x: NodeId,
        rows: Range<usize>,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let t = ex.value(x).rows();
        let n1 = self.ln1.forward(ex, x, ctx.store);
        // The query band is cut before the K/V projections, so backward
        // sums `n1`'s gradient in the full pass's order: V, K, then Q.
        let q_in = band(ex, n1, &rows);
        let a = self
            .attn
            .forward_band(ex, q_in, t, Kv::Rows(n1), None, ctx.store);
        let a = ex.dropout(a, t, ctx);
        let xb = band(ex, x, &rows);
        let x = ex.add(xb, a);
        let n2 = self.ln2.forward(ex, x, ctx.store);
        let f = self.ff.forward_band(ex, n2, t, ctx.store);
        let f = ex.dropout(f, t, ctx);
        ex.add(x, f)
    }
}

/// Pre-norm Transformer decoder layer with cross-attention.
pub struct DecoderLayer {
    self_attn: MultiHeadAttention,
    ln1: LayerNorm,
    cross_attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff: FeedForward,
    ln3: LayerNorm,
}

impl DecoderLayer {
    /// Register one decoder layer.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        cfg: &TransformerConfig,
    ) -> Self {
        Self {
            self_attn: MultiHeadAttention::new(
                store,
                rng,
                &format!("{name}.self"),
                cfg.d_model,
                cfg.heads,
            ),
            ln1: LayerNorm::new(store, rng, &format!("{name}.ln1"), cfg.d_model),
            cross_attn: MultiHeadAttention::new(
                store,
                rng,
                &format!("{name}.cross"),
                cfg.d_model,
                cfg.heads,
            ),
            ln2: LayerNorm::new(store, rng, &format!("{name}.ln2"), cfg.d_model),
            ff: FeedForward::new(store, rng, &format!("{name}.ff"), cfg.d_model, cfg.d_ff),
            ln3: LayerNorm::new(store, rng, &format!("{name}.ln3"), cfg.d_model),
        }
    }

    /// Apply the layer. `x` is the `Tq x d` decoder state, `memory` the
    /// encoder output, `self_mask` the causal mask.
    pub fn forward<E: Exec>(
        &self,
        ex: &mut E,
        x: NodeId,
        memory: NodeId,
        self_mask: &AttnMask,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let t = ex.value(x).rows();
        self.forward_band(ex, x, 0..t, Kv::Rows(memory), self_mask, ctx)
    }

    /// Apply the layer to the full `t × d` decoder state `x`, computing only
    /// output `rows`, with [`EncoderLayer::forward_band`]'s band rule: the
    /// first norm and the self-attention K/V cover all `t` rows, everything
    /// else runs on the band. `memory` is the encoder output, or its
    /// cross-attention K/V projected once per generation;
    /// `self_mask` holds the band's rows of the `t × t` causal mask.
    pub(crate) fn forward_band<E: Exec>(
        &self,
        ex: &mut E,
        x: NodeId,
        rows: Range<usize>,
        memory: Kv,
        self_mask: &AttnMask,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let t = ex.value(x).rows();
        let n1 = self.ln1.forward(ex, x, ctx.store);
        let q_in = band(ex, n1, &rows);
        let a = self
            .self_attn
            .forward_band(ex, q_in, t, Kv::Rows(n1), Some(self_mask), ctx.store);
        let a = ex.dropout(a, t, ctx);
        let xb = band(ex, x, &rows);
        let x = ex.add(xb, a);
        let n2 = self.ln2.forward(ex, x, ctx.store);
        let c = self
            .cross_attn
            .forward_band(ex, n2, t, memory, None, ctx.store);
        let c = ex.dropout(c, t, ctx);
        let x = ex.add(x, c);
        let n3 = self.ln3.forward(ex, x, ctx.store);
        let f = self.ff.forward_band(ex, n3, t, ctx.store);
        let f = ex.dropout(f, t, ctx);
        ex.add(x, f)
    }
}

/// Rows `rows` of the `t`-row node `x`: `x` itself when they are all of it.
fn band<E: Exec>(ex: &mut E, x: NodeId, rows: &Range<usize>) -> NodeId {
    if rows.len() == ex.value(x).rows() {
        x
    } else {
        ex.slice_rows(x, rows.start, rows.len())
    }
}

/// Token + positional embeddings of `ids` (already truncated to `max_len`).
fn embed_positions<E: Exec>(
    ex: &mut E,
    tok: &Embedding,
    pos: &Embedding,
    ids: &[usize],
    store: &ParamStore,
) -> NodeId {
    let positions: Vec<usize> = (0..ids.len()).collect();
    let te = tok.forward(ex, store, ids);
    let pe = pos.forward(ex, store, &positions);
    ex.add(te, pe)
}

/// Token + positional embedding followed by a stack of encoder layers and a
/// final layer norm.
pub struct TransformerEncoder {
    tok: Embedding,
    pos: Embedding,
    layers: Vec<EncoderLayer>,
    ln_f: LayerNorm,
    cfg: TransformerConfig,
}

impl TransformerEncoder {
    /// Register the full encoder stack.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        cfg: TransformerConfig,
    ) -> Self {
        let tok = Embedding::new(store, rng, &format!("{name}.tok"), cfg.vocab, cfg.d_model);
        let pos = Embedding::new(store, rng, &format!("{name}.pos"), cfg.max_len, cfg.d_model);
        let layers = (0..cfg.layers)
            .map(|i| EncoderLayer::new(store, rng, &format!("{name}.enc{i}"), &cfg))
            .collect();
        let ln_f = LayerNorm::new(store, rng, &format!("{name}.lnf"), cfg.d_model);
        Self {
            tok,
            pos,
            layers,
            ln_f,
            cfg,
        }
    }

    /// Encode `ids` (truncated to `max_len`) into a `T x d` node. Each
    /// `(table, feature_ids)` pair in `extras` (BERT-style segment ids,
    /// duplicate-token flags, …) is looked up and added to the token +
    /// position embeddings; plain callers pass `&[]`. Feature id slices must
    /// be at least as long as `ids`.
    pub fn forward<E: Exec>(
        &self,
        ex: &mut E,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        self.forward_band(ex, ids, extras, |t| t, ctx)
    }

    /// Embed `ids` and run the stack, computing only output rows
    /// `0..band(t)` of the last layer and the final norm (`t` is the
    /// truncated length); [`forward`](Self::forward) is the all-rows
    /// band `band(t) == t`. Every earlier layer runs all `t` rows,
    /// because its output feeds every position of the next attention. A
    /// stack without layers computes every row, which the \[CLS\] slice then
    /// reads the same way.
    fn forward_band<E: Exec>(
        &self,
        ex: &mut E,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        band: impl FnOnce(usize) -> usize,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let t = ids.len().min(self.cfg.max_len);
        let mut x = embed_positions(ex, &self.tok, &self.pos, &ids[..t], ctx.store);
        for (table, feats) in extras {
            assert!(feats.len() >= t, "feature ids shorter than input");
            let fe = table.forward(ex, ctx.store, &feats[..t]);
            x = ex.add(x, fe);
        }
        x = ex.dropout(x, t, ctx);
        let len = band(t);
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let rows = if i == last { 0..len } else { 0..t };
            x = layer.forward_band(ex, x, rows, ctx);
        }
        self.ln_f.forward(ex, x, ctx.store)
    }

    /// Encode (see [`forward`](Self::forward) for `extras`) and return the
    /// first-token (\[CLS\]) representation as `1 x d`.
    ///
    /// The last encoder layer and the final norm run only on the
    /// `kernels::band_rows(t, 0)` band (at most [`kernels::MR`] rows); every
    /// earlier layer runs all `t` rows, because its output feeds every
    /// position of the next attention. The \[CLS\] row, every gradient
    /// backward computes from it, and the dropout RNG stream are
    /// bit-identical to `slice_rows(forward(..), 0, 1)`: see
    /// `EncoderLayer::forward_band`.
    pub fn encode_cls<E: Exec>(
        &self,
        ex: &mut E,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let band = |t| kernels::band_rows(t, 0).1;
        let h = self.forward_band(ex, ids, extras, band, ctx);
        ex.slice_rows(h, 0, 1)
    }
}

/// Decoder stack with output projection tied to its own token embedding.
pub struct TransformerDecoder {
    tok: Embedding,
    pos: Embedding,
    layers: Vec<DecoderLayer>,
    ln_f: LayerNorm,
    proj: Linear,
    cfg: TransformerConfig,
}

impl TransformerDecoder {
    /// Register the full decoder stack.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        cfg: TransformerConfig,
    ) -> Self {
        let tok = Embedding::new(store, rng, &format!("{name}.tok"), cfg.vocab, cfg.d_model);
        let pos = Embedding::new(store, rng, &format!("{name}.pos"), cfg.max_len, cfg.d_model);
        let layers = (0..cfg.layers)
            .map(|i| DecoderLayer::new(store, rng, &format!("{name}.dec{i}"), &cfg))
            .collect();
        let ln_f = LayerNorm::new(store, rng, &format!("{name}.lnf"), cfg.d_model);
        let proj = Linear::new(store, rng, &format!("{name}.proj"), cfg.d_model, cfg.vocab);
        Self {
            tok,
            pos,
            layers,
            ln_f,
            proj,
            cfg,
        }
    }

    /// Decode `ids` against encoder `memory`, returning `T x vocab` logits
    /// (next-token prediction per position, causal).
    pub fn forward<E: Exec>(
        &self,
        ex: &mut E,
        ids: &[usize],
        memory: NodeId,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        self.forward_band(ex, ids, |_| Kv::Rows(memory), |t| t, ctx)
    }

    /// Each layer's cross-attention K/V projections of `memory`. During
    /// autoregressive decoding the encoder memory is fixed, so these are
    /// identical at every step: project once, keep the handles, and pass
    /// them to [`last_logits`](Self::last_logits).
    pub fn project_memory<E: Exec>(
        &self,
        ex: &mut E,
        memory: NodeId,
        store: &ParamStore,
    ) -> Vec<Kv> {
        let project = |l: &DecoderLayer| l.cross_attn.project_kv(ex, memory, store);
        self.layers.iter().map(project).collect()
    }

    /// Decode the prefix `ids` and return only the LAST position's logits
    /// (`1 × vocab`), the row every sampling step consumes. `memory` is
    /// [`project_memory`](Self::project_memory)'s output. All but the final
    /// layer run in full (their outputs feed every later position), while
    /// the final layer, the final norm and the vocabulary projection run on
    /// the last row's [`kernels::band_rows`] band; the row is bit-identical
    /// to that row of [`forward`](Self::forward) under [`FwdCtx::eval`].
    pub fn last_logits<E: Exec>(
        &self,
        ex: &mut E,
        ids: &[usize],
        memory: &[Kv],
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let band = |t| kernels::band_rows(t, t - 1).1;
        let logits = self.forward_band(ex, ids, |i| memory[i], band, ctx);
        let rows = ex.value(logits).rows();
        ex.slice_rows(logits, rows - 1, 1)
    }

    /// Embed `ids` and run the stack, computing only the trailing rows
    /// `t - band(t)..t` of the last layer, the final norm and the
    /// projection. `memory(i)` is layer `i`'s cross-attention input. A
    /// stack without layers computes every row.
    fn forward_band<E: Exec>(
        &self,
        ex: &mut E,
        ids: &[usize],
        memory: impl Fn(usize) -> Kv,
        band: impl FnOnce(usize) -> usize,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let t = ids.len().min(self.cfg.max_len);
        let x = embed_positions(ex, &self.tok, &self.pos, &ids[..t], ctx.store);
        let mut x = ex.dropout(x, t, ctx);
        let len = band(t);
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let rows = if i == last { t - len..t } else { 0..t };
            // The rows end at row `t`, so these are their rows of the
            // `t × t` causal mask.
            let mask = causal_mask(rows.len(), t);
            x = layer.forward_band(ex, x, rows, memory(i), &mask, ctx);
        }
        let x = self.ln_f.forward(ex, x, ctx.store);
        self.proj.forward_band(ex, x, t, Act::None, ctx.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;
    use rotom_rng::SeedableRng;

    #[test]
    fn encoder_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&store);
        let h = enc.forward(&mut tape, &[1, 2, 3, 4], &[], &mut ctx);
        assert_eq!((tape.value(h).rows(), tape.value(h).cols()), (4, 32));
        let cls = enc.encode_cls(&mut tape, &[1, 2, 3, 4], &[], &mut ctx);
        assert_eq!((tape.value(cls).rows(), tape.value(cls).cols()), (1, 32));
    }

    #[test]
    fn encoder_truncates_to_max_len() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mut cfg = TransformerConfig::tiny(50);
        cfg.max_len = 8;
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&store);
        let ids: Vec<usize> = (0..20).map(|i| i % 50).collect();
        let h = enc.forward(&mut tape, &ids, &[], &mut ctx);
        assert_eq!(tape.value(h).rows(), 8);
    }

    #[test]
    fn decoder_logit_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg.clone());
        let dec = TransformerDecoder::new(&mut store, &mut rng, "dec", cfg);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&store);
        let mem = enc.forward(&mut tape, &[5, 6, 7], &[], &mut ctx);
        let logits = dec.forward(&mut tape, &[1, 2], mem, &mut ctx);
        assert_eq!(
            (tape.value(logits).rows(), tape.value(logits).cols()),
            (2, 50)
        );
    }

    #[test]
    fn causal_mask_shape_and_pattern() {
        let m = causal_mask(3, 3);
        assert_eq!(m.at(0, 1), -1e9);
        assert_eq!(m.at(1, 1), 0.0);
        assert_eq!(m.at(2, 0), 0.0);
        // Rectangular (incremental decoding): query may see all earlier keys.
        let m = causal_mask(1, 4);
        assert!(m.data().iter().all(|&v| v == 0.0));
    }
}
