//! Transformer encoder / decoder stacks.
//!
//! These are the building blocks of both the target classifier ("TinyLm", the
//! stand-in for RoBERTa/DistilBERT) and the InvDA seq2seq model (the stand-in
//! for T5). Pre-norm residual blocks are used for training stability at small
//! scale.

use super::attention::MultiHeadAttention;
use super::embedding::Embedding;
use super::linear::Linear;
use super::norm::LayerNorm;
use super::FwdCtx;
use crate::graph::{AttnMask, NodeId, Tape};
use crate::infer::InferScratch;
use crate::kernels::{self, Act};
use crate::params::ParamStore;
use crate::pool::RotomPool;
use crate::tensor::Tensor;
use rotom_rng::rngs::StdRng;

/// Hyper-parameters shared by encoder and decoder stacks.
#[derive(Debug, Clone, PartialEq)]
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
    /// Dropout probability used in training mode.
    pub dropout: f32,
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
            dropout: 0.1,
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
    pub fn forward(&self, tape: &mut Tape, x: NodeId, store: &ParamStore) -> NodeId {
        let h = self.l1.forward(tape, x, store);
        let h = tape.gelu(h);
        self.l2.forward(tape, h, store)
    }

    /// Forward-only application to a `rows`-row band of a `full_rows`-row
    /// input (`rows × d_model`) into `out`; a full pass is the band
    /// `0..full_rows`. Bit-identical to the same rows of
    /// [`forward`](Self::forward) (the GELU is fused into the first GEMM's
    /// epilogue, which applies the same per-element ops).
    #[allow(clippy::too_many_arguments)]
    pub fn infer_forward(
        &self,
        x: &[f32],
        full_rows: usize,
        rows: usize,
        store: &ParamStore,
        pool: &RotomPool,
        scratch: &mut InferScratch,
        out: &mut [f32],
    ) {
        let mut h = scratch.take(rows * self.l1.out_dim());
        self.l1
            .infer_forward(x, full_rows, rows, Act::Gelu, store, pool, &mut h);
        self.l2
            .infer_forward(&h, full_rows, rows, Act::None, store, pool, out);
        scratch.put(h);
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
    pub fn forward(&self, tape: &mut Tape, x: NodeId, ctx: &mut FwdCtx<'_>) -> NodeId {
        let n1 = self.ln1.forward(tape, x, ctx.store);
        let a = self.attn.forward(tape, n1, n1, None, ctx.store);
        let a = apply_dropout(tape, a, ctx);
        let x = tape.add(x, a);
        let n2 = self.ln2.forward(tape, x, ctx.store);
        let f = self.ff.forward(tape, n2, ctx.store);
        let f = apply_dropout(tape, f, ctx);
        tape.add(x, f)
    }

    /// Forward-only application: given the full `t × d` input `x`, compute
    /// the `band_len` output rows starting at `band_start` (a
    /// [`kernels::band_rows`] boundary, or `0` with `band_len == t` for a
    /// full pass) into `out_band`. The first layer norm and the K/V
    /// projections run over all rows because every query row attends to
    /// every key; everything after the attention is per-row. Bit-identical
    /// to the same rows of [`forward`](Self::forward) in eval mode (dropout
    /// at probability 0 is the identity and consumes no randomness).
    #[allow(clippy::too_many_arguments)]
    pub fn infer_forward(
        &self,
        x: &[f32],
        t: usize,
        band_start: usize,
        band_len: usize,
        store: &ParamStore,
        pool: &RotomPool,
        scratch: &mut InferScratch,
        out_band: &mut [f32],
    ) {
        let d = self.attn.d_model();
        let band = band_start * d..(band_start + band_len) * d;
        let mut n = scratch.take(t * d);
        let mut k = scratch.take(t * d);
        let mut v = scratch.take(t * d);
        let mut a = scratch.take(band_len * d);
        self.ln1.infer_forward(x, t, store, &mut n);
        self.attn
            .infer_project_kv(&n, t, store, pool, &mut k, &mut v);
        self.attn.infer_forward(
            &n[band.clone()],
            t,
            band_len,
            &k,
            &v,
            t,
            None,
            store,
            pool,
            scratch,
            &mut a,
        );
        // The residual stream accumulates in `out_band`, and the per-row
        // norms reuse the leading rows of `n`: fewer live buffers per step.
        kernels::add_fwd(&x[band], &a, out_band);
        let nb = &mut n[..band_len * d];
        self.ln2.infer_forward(out_band, band_len, store, nb);
        self.ff
            .infer_forward(nb, t, band_len, store, pool, scratch, &mut a);
        kernels::add_assign_fwd(out_band, &a);
        for buf in [n, k, v, a] {
            scratch.put(buf);
        }
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
    pub fn forward(
        &self,
        tape: &mut Tape,
        x: NodeId,
        memory: NodeId,
        self_mask: &AttnMask,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let n1 = self.ln1.forward(tape, x, ctx.store);
        let a = self
            .self_attn
            .forward(tape, n1, n1, Some(self_mask), ctx.store);
        let a = apply_dropout(tape, a, ctx);
        let x = tape.add(x, a);
        let n2 = self.ln2.forward(tape, x, ctx.store);
        let c = self.cross_attn.forward(tape, n2, memory, None, ctx.store);
        let c = apply_dropout(tape, c, ctx);
        let x = tape.add(x, c);
        let n3 = self.ln3.forward(tape, x, ctx.store);
        let f = self.ff.forward(tape, n3, ctx.store);
        let f = apply_dropout(tape, f, ctx);
        tape.add(x, f)
    }

    /// Forward-only application: given the full `t × d` input `x`, compute
    /// the `band_len` output rows starting at `band_start` (a
    /// [`kernels::band_rows`] boundary, or the full band `0..t`) into
    /// `out_band`. Cross-attention keys/values come precomputed
    /// (`cross_k`/`cross_v`, `mem_rows × d` each — see
    /// [`MultiHeadAttention::infer_project_kv`]); `self_mask_band` holds the
    /// band's rows of the full `t × t` causal mask. Bit-identical to the
    /// same rows of [`forward`](Self::forward) in eval mode.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_forward(
        &self,
        x: &[f32],
        t: usize,
        band_start: usize,
        band_len: usize,
        cross_k: &[f32],
        cross_v: &[f32],
        mem_rows: usize,
        self_mask_band: &[f32],
        store: &ParamStore,
        pool: &RotomPool,
        scratch: &mut InferScratch,
        out_band: &mut [f32],
    ) {
        let d = self.self_attn.d_model();
        let band = band_start * d..(band_start + band_len) * d;
        let mut n = scratch.take(t * d);
        let mut k = scratch.take(t * d);
        let mut v = scratch.take(t * d);
        let mut a = scratch.take(band_len * d);
        self.ln1.infer_forward(x, t, store, &mut n);
        self.self_attn
            .infer_project_kv(&n, t, store, pool, &mut k, &mut v);
        self.self_attn.infer_forward(
            &n[band.clone()],
            t,
            band_len,
            &k,
            &v,
            t,
            Some(self_mask_band),
            store,
            pool,
            scratch,
            &mut a,
        );
        // As in `EncoderLayer::infer_forward`: residuals accumulate in
        // `out_band`, per-row norms reuse the leading rows of `n`.
        kernels::add_fwd(&x[band], &a, out_band);
        let nb = &mut n[..band_len * d];
        self.ln2.infer_forward(out_band, band_len, store, nb);
        self.cross_attn.infer_forward(
            nb, t, band_len, cross_k, cross_v, mem_rows, None, store, pool, scratch, &mut a,
        );
        kernels::add_assign_fwd(out_band, &a);
        self.ln3.infer_forward(out_band, band_len, store, nb);
        self.ff
            .infer_forward(nb, t, band_len, store, pool, scratch, &mut a);
        kernels::add_assign_fwd(out_band, &a);
        for buf in [n, k, v, a] {
            scratch.put(buf);
        }
    }
}

fn apply_dropout(tape: &mut Tape, x: NodeId, ctx: &mut FwdCtx<'_>) -> NodeId {
    let n = tape.value(x).len();
    let mask = ctx.dropout_mask(n);
    tape.dropout(x, ctx.dropout, mask)
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

    /// Configuration used at construction.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Encode `ids` (truncated to `max_len`) into a `T x d` node.
    pub fn forward(&self, tape: &mut Tape, ids: &[usize], ctx: &mut FwdCtx<'_>) -> NodeId {
        self.forward_with(tape, ids, &[], ctx)
    }

    /// Encode with additional input-feature embeddings (BERT-style segment
    /// ids, duplicate-token flags, …): each `(table, feature_ids)` pair is
    /// looked up and added to the token + position embeddings. Feature id
    /// slices must be at least as long as `ids`.
    pub fn forward_with(
        &self,
        tape: &mut Tape,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let t = ids.len().min(self.cfg.max_len);
        let ids = &ids[..t];
        let positions: Vec<usize> = (0..t).collect();
        let te = self.tok.forward(tape, ctx.store, ids);
        let pe = self.pos.forward(tape, ctx.store, &positions);
        let mut x = tape.add(te, pe);
        for (table, feats) in extras {
            assert!(feats.len() >= t, "feature ids shorter than input");
            let fe = table.forward(tape, ctx.store, &feats[..t]);
            x = tape.add(x, fe);
        }
        x = apply_dropout(tape, x, ctx);
        for layer in &self.layers {
            x = layer.forward(tape, x, ctx);
        }
        self.ln_f.forward(tape, x, ctx.store)
    }

    /// Encode and return the first-token (\[CLS\]) representation as `1 x d`.
    pub fn encode_cls(&self, tape: &mut Tape, ids: &[usize], ctx: &mut FwdCtx<'_>) -> NodeId {
        let h = self.forward(tape, ids, ctx);
        tape.slice_rows(h, 0, 1)
    }

    /// [`encode_cls`](Self::encode_cls) with extra input features.
    pub fn encode_cls_with(
        &self,
        tape: &mut Tape,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let h = self.forward_with(tape, ids, extras, ctx);
        tape.slice_rows(h, 0, 1)
    }

    /// Sum token + positional (+ extra feature) embeddings into a fresh
    /// `t × d` buffer, exactly as the tape forward does in eval mode.
    fn infer_embed(
        &self,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        store: &ParamStore,
        scratch: &mut InferScratch,
    ) -> (Vec<f32>, usize) {
        let d = self.cfg.d_model;
        let t = ids.len().min(self.cfg.max_len);
        let ids = &ids[..t];
        let mut x = scratch.take(t * d);
        self.tok.infer_gather(store, ids, &mut x);
        // Positions are 0..t, so the gather is the table's leading rows.
        kernels::add_assign_fwd(&mut x, &store.value(self.pos.table()).data()[..t * d]);
        let mut fe = scratch.take(t * d);
        for (table, feats) in extras {
            assert!(feats.len() >= t, "feature ids shorter than input");
            table.infer_gather(store, &feats[..t], &mut fe);
            kernels::add_assign_fwd(&mut x, &fe);
        }
        scratch.put(fe);
        (x, t)
    }

    /// Embed `ids` and run the stack tape-free, computing only the row band
    /// `band(t)` of the last layer and the final norm (`t` is the truncated
    /// length). Every earlier layer runs the full band `0..t`, because its
    /// output feeds every position of the next attention. Returns the
    /// normed `len × d` band (a `scratch` buffer) and `t`.
    fn infer_band(
        &self,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        band: impl FnOnce(usize) -> (usize, usize),
        store: &ParamStore,
        pool: &RotomPool,
        scratch: &mut InferScratch,
    ) -> (Vec<f32>, usize) {
        let d = self.cfg.d_model;
        let (mut x, t) = self.infer_embed(ids, extras, store, scratch);
        let (start, len) = band(t);
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let (s, l) = if i == last { (start, len) } else { (0, t) };
            let mut y = scratch.take(l * d);
            layer.infer_forward(&x, t, s, l, store, pool, scratch, &mut y);
            scratch.put(std::mem::replace(&mut x, y));
        }
        let rows: &[f32] = if self.layers.is_empty() {
            &x[start * d..(start + len) * d]
        } else {
            &x
        };
        let mut out = scratch.take(len * d);
        self.ln_f.infer_forward(rows, len, store, &mut out);
        scratch.put(x);
        (out, t)
    }

    /// Forward-only, tape-free encoding of `ids` (truncated to `max_len`):
    /// returns the `t × d` hidden states and `t`. Bit-identical to
    /// [`forward_with`](Self::forward_with) under [`FwdCtx::eval`]. The
    /// returned buffer comes from `scratch`; hand it back with
    /// [`InferScratch::put`] when done.
    pub fn infer_forward_with(
        &self,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        store: &ParamStore,
        pool: &RotomPool,
        scratch: &mut InferScratch,
    ) -> (Vec<f32>, usize) {
        self.infer_band(ids, extras, |t| (0, t), store, pool, scratch)
    }

    /// Forward-only \[CLS\] encoding into `cls_out` (`d_model` floats),
    /// bit-identical to [`encode_cls_with`](Self::encode_cls_with) under
    /// [`FwdCtx::eval`]. Only the final layer is band-restricted to the
    /// leading rows.
    pub fn infer_encode_cls_with(
        &self,
        ids: &[usize],
        extras: &[(&Embedding, &[usize])],
        store: &ParamStore,
        pool: &RotomPool,
        scratch: &mut InferScratch,
        cls_out: &mut [f32],
    ) {
        let band = |t| kernels::band_rows(t, 0);
        let (normed, _) = self.infer_band(ids, extras, band, store, pool, scratch);
        cls_out.copy_from_slice(&normed[..self.cfg.d_model]);
        scratch.put(normed);
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

    /// Configuration used at construction.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// Decode `ids` against encoder `memory`, returning `T x vocab` logits
    /// (next-token prediction per position, causal).
    pub fn forward(
        &self,
        tape: &mut Tape,
        ids: &[usize],
        memory: NodeId,
        ctx: &mut FwdCtx<'_>,
    ) -> NodeId {
        let t = ids.len().min(self.cfg.max_len);
        let ids = &ids[..t];
        let positions: Vec<usize> = (0..t).collect();
        let te = self.tok.forward(tape, ctx.store, ids);
        let pe = self.pos.forward(tape, ctx.store, &positions);
        let mut x = tape.add(te, pe);
        x = apply_dropout(tape, x, ctx);
        let mask = causal_mask(t, t);
        for layer in &self.layers {
            x = layer.forward(tape, x, memory, &mask, ctx);
        }
        let x = self.ln_f.forward(tape, x, ctx.store);
        self.proj.forward(tape, x, ctx.store)
    }

    /// Precompute each layer's cross-attention K/V projections of `memory`
    /// (`mem_rows × d`). During autoregressive decoding the encoder memory
    /// is fixed, so these projections are identical at every step — caching
    /// them is a pure reuse of bit-identical values.
    pub fn infer_prepare(
        &self,
        memory: &[f32],
        mem_rows: usize,
        store: &ParamStore,
        pool: &RotomPool,
    ) -> DecoderKvCache {
        let d = self.cfg.d_model;
        let per_layer = self
            .layers
            .iter()
            .map(|layer| {
                let mut k = vec![0.0f32; mem_rows * d];
                let mut v = vec![0.0f32; mem_rows * d];
                layer
                    .cross_attn
                    .infer_project_kv(memory, mem_rows, store, pool, &mut k, &mut v);
                (k, v)
            })
            .collect();
        DecoderKvCache {
            per_layer,
            mem_rows,
        }
    }

    /// Forward-only decode of the prefix `ids` returning only the LAST
    /// position's logits (`vocab` floats) — the row every sampling and beam
    /// step consumes. Bit-identical to that row of
    /// [`forward`](Self::forward) under [`FwdCtx::eval`]: all but the final
    /// layer run in full (their outputs feed every later position), while
    /// the final layer, final norm, and the vocab projection — by far the
    /// widest GEMM — replay only the last row's band.
    pub fn infer_last_logits(
        &self,
        ids: &[usize],
        cache: &DecoderKvCache,
        store: &ParamStore,
        pool: &RotomPool,
        scratch: &mut InferScratch,
        logits_out: &mut [f32],
    ) {
        let d = self.cfg.d_model;
        let t = ids.len().min(self.cfg.max_len);
        let ids = &ids[..t];
        let mut x = scratch.take(t * d);
        self.tok.infer_gather(store, ids, &mut x);
        kernels::add_assign_fwd(&mut x, &store.value(self.pos.table()).data()[..t * d]);
        let mut mask = scratch.take(t * t);
        mask.fill(0.0);
        for i in 0..t {
            for j in (i + 1)..t {
                mask[i * t + j] = -1e9;
            }
        }
        let (band_start, band_len) = kernels::band_rows(t, t - 1);
        let last = self.layers.len().saturating_sub(1);
        for (li, layer) in self.layers.iter().enumerate() {
            let (s, l) = if li == last {
                (band_start, band_len)
            } else {
                (0, t)
            };
            let (ck, cv) = &cache.per_layer[li];
            let mut y = scratch.take(l * d);
            layer.infer_forward(
                &x,
                t,
                s,
                l,
                ck,
                cv,
                cache.mem_rows,
                &mask[s * t..(s + l) * t],
                store,
                pool,
                scratch,
                &mut y,
            );
            scratch.put(std::mem::replace(&mut x, y));
        }
        let band: &[f32] = if self.layers.is_empty() {
            &x[band_start * d..(band_start + band_len) * d]
        } else {
            &x
        };
        let mut normed = scratch.take(band_len * d);
        self.ln_f.infer_forward(band, band_len, store, &mut normed);
        let vocab = self.cfg.vocab;
        let mut proj_band = scratch.take(band_len * vocab);
        self.proj
            .infer_forward(&normed, t, band_len, Act::None, store, pool, &mut proj_band);
        let last_row = t - 1 - band_start;
        logits_out.copy_from_slice(&proj_band[last_row * vocab..(last_row + 1) * vocab]);
        for buf in [x, mask, normed, proj_band] {
            scratch.put(buf);
        }
    }
}

/// Per-layer cross-attention K/V projections of a fixed encoder memory,
/// built by [`TransformerDecoder::infer_prepare`] and reused across the
/// steps of one generation.
pub struct DecoderKvCache {
    per_layer: Vec<(Vec<f32>, Vec<f32>)>,
    mem_rows: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;

    #[test]
    fn encoder_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&store);
        let h = enc.forward(&mut tape, &[1, 2, 3, 4], &mut ctx);
        assert_eq!((tape.value(h).rows(), tape.value(h).cols()), (4, 32));
        let cls = enc.encode_cls(&mut tape, &[1, 2, 3, 4], &mut ctx);
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
        let h = enc.forward(&mut tape, &ids, &mut ctx);
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
        let mem = enc.forward(&mut tape, &[5, 6, 7], &mut ctx);
        let logits = dec.forward(&mut tape, &[1, 2], mem, &mut ctx);
        assert_eq!(
            (tape.value(logits).rows(), tape.value(logits).cols()),
            (2, 50)
        );
    }

    #[test]
    fn encoder_infer_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
        let mut scratch = InferScratch::new();
        for threads in [1usize, 8] {
            let pool = RotomPool::new(threads);
            for ids in [
                vec![1usize],
                vec![4, 9, 2],
                (0..23).map(|i| i % 50).collect(),
            ] {
                let mut tape = Tape::new();
                let mut ctx = FwdCtx::eval(&store);
                let h = enc.forward(&mut tape, &ids, &mut ctx);
                let expect = tape.value(h).data().to_vec();
                let cls = enc.encode_cls(&mut tape, &ids, &mut ctx);
                let expect_cls = tape.value(cls).data().to_vec();

                let (got, t) = enc.infer_forward_with(&ids, &[], &store, &pool, &mut scratch);
                assert_eq!(t, ids.len());
                assert_eq!(expect, got, "full ids={ids:?} threads={threads}");
                scratch.put(got);

                let mut got_cls = vec![0.0f32; 32];
                enc.infer_encode_cls_with(&ids, &[], &store, &pool, &mut scratch, &mut got_cls);
                assert_eq!(expect_cls, got_cls, "cls ids={ids:?} threads={threads}");
            }
        }
    }

    #[test]
    fn decoder_infer_last_logits_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::tiny(50);
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg.clone());
        let dec = TransformerDecoder::new(&mut store, &mut rng, "dec", cfg);
        let src: Vec<usize> = vec![5, 6, 7, 8, 9];
        let mut scratch = InferScratch::new();
        for threads in [1usize, 8] {
            let pool = RotomPool::new(threads);
            let (memory, mem_rows) = enc.infer_forward_with(&src, &[], &store, &pool, &mut scratch);
            let cache = dec.infer_prepare(&memory, mem_rows, &store, &pool);
            for prefix_len in [1usize, 2, 5, 9] {
                let prefix: Vec<usize> = (0..prefix_len).map(|i| (i * 3 + 1) % 50).collect();
                let mut tape = Tape::new();
                let mut ctx = FwdCtx::eval(&store);
                let mem = enc.forward(&mut tape, &src, &mut ctx);
                let logits = dec.forward(&mut tape, &prefix, mem, &mut ctx);
                let expect = tape.value(logits).row_slice(prefix_len - 1).to_vec();

                let mut got = vec![0.0f32; 50];
                dec.infer_last_logits(&prefix, &cache, &store, &pool, &mut scratch, &mut got);
                assert_eq!(expect, got, "prefix_len={prefix_len} threads={threads}");
            }
            scratch.put(memory);
        }
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
