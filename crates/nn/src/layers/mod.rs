//! Neural network layers, written once over an executor.
//!
//! Every layer owns [`ParamId`]s registered in a shared [`ParamStore`] and
//! exposes a `forward` that is generic over an [`Exec`]: the autodiff
//! [`Tape`] records nodes for backward, and the forward-only
//! [`InferTape`](crate::infer::InferTape) computes the same values straight
//! into recycled buffers. Both run the one layer definition, so the two
//! planes agree by construction. Layers are stateless between calls; all
//! trainable state lives in the store.

mod attention;
mod embedding;
mod linear;
mod norm;
mod rnn;
mod transformer;

pub use attention::{Kv, MultiHeadAttention};
pub use embedding::Embedding;
pub use linear::Linear;
pub use norm::LayerNorm;
pub use rnn::Gru;
pub use transformer::{
    causal_mask, DecoderLayer, EncoderLayer, FeedForward, TransformerConfig, TransformerDecoder,
    TransformerEncoder,
};

#[cfg(doc)]
use crate::graph::Tape;
use crate::graph::{AttnMask, NodeId};
use crate::kernels::Act;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use rotom_rng::rngs::StdRng;

/// Per-forward context: parameter store plus (optionally) a dropout source.
///
/// When `rng` is `None` the forward pass is deterministic (evaluation mode);
/// dropout layers become identity.
pub struct FwdCtx<'a> {
    /// Parameter store the layers read weights from.
    pub store: &'a ParamStore,
    /// Dropout probability applied inside layers that support it.
    pub dropout: f32,
    /// RNG for dropout masks; `None` disables dropout (eval mode).
    pub rng: Option<&'a mut StdRng>,
}

impl<'a> FwdCtx<'a> {
    /// Evaluation-mode context (no dropout).
    pub fn eval(store: &'a ParamStore) -> Self {
        Self {
            store,
            dropout: 0.0,
            rng: None,
        }
    }

    /// Training-mode context with dropout probability `p`.
    pub fn train(store: &'a ParamStore, p: f32, rng: &'a mut StdRng) -> Self {
        Self {
            store,
            dropout: p,
            rng: Some(rng),
        }
    }

    /// The dropout probability and RNG a dropout site draws its mask from
    /// (see [`Exec::dropout`]), or `None` in eval mode or when `p == 0`.
    pub(crate) fn dropout_source(&mut self) -> Option<(f32, &mut StdRng)> {
        if self.dropout <= 0.0 {
            return None;
        }
        let p = self.dropout;
        self.rng.as_deref_mut().map(|rng| (p, rng))
    }
}

/// The ops a layer forward runs, implemented by the [`Tape`] (which records
/// each op for backward) and the forward-only
/// [`InferTape`](crate::infer::InferTape). Both compute every value with the
/// same [`kernels`](crate::kernels) and dispatch every GEMM on the same
/// `full_m` (see [`Tape::matmul_band`]), so one layer definition gives
/// bit-identical values on either executor.
pub trait Exec {
    /// Value of a node.
    fn value(&self, x: NodeId) -> &Tensor;
    /// Gather the rows `ids` of embedding table `table`.
    fn embed(&mut self, table: ParamId, store: &ParamStore, ids: &[usize]) -> NodeId;
    /// Elementwise `a + b`.
    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId;
    /// `act(x·w + b)` for `x`, a row band of a `full_rows`-row input. The
    /// tape records `param → matmul_band → add_row → gelu`; the inference
    /// executor runs the fused bias+activation GEMM.
    fn linear(
        &mut self,
        x: NodeId,
        w: ParamId,
        b: Option<ParamId>,
        full_rows: usize,
        act: Act,
        store: &ParamStore,
    ) -> NodeId;
    /// Row-wise layer norm with the learned scale `g` and shift `b` rows.
    fn norm(&mut self, x: NodeId, g: ParamId, b: ParamId, eps: f32, store: &ParamStore) -> NodeId;
    /// Rows `start..start + len` of `x`.
    fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> NodeId;
    /// Columns `start..start + len` of `x`.
    fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId;
    /// Concatenate nodes along columns.
    fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId;
    /// `a·b` for `a`, a row band of a `full_m`-row operand.
    fn matmul_band(&mut self, a: NodeId, b: NodeId, full_m: usize) -> NodeId;
    /// `a·bᵀ` with [`matmul_band`](Self::matmul_band)'s `full_m` rule.
    fn matmul_tb_band(&mut self, a: NodeId, b: NodeId, full_m: usize) -> NodeId;
    /// `a · c` elementwise.
    fn scale(&mut self, a: NodeId, c: f32) -> NodeId;
    /// Row-wise softmax with an optional additive mask of `a`'s shape.
    fn masked_softmax(&mut self, a: NodeId, mask: Option<&AttnMask>) -> NodeId;
    /// Dropout from `ctx`'s source on `x`, the leading row band of a
    /// `full_rows`-row activation: the mask is drawn for all `full_rows`
    /// rows, so a band consumes the RNG stream as the full pass does and its
    /// rows get the same bits. The identity in eval mode.
    fn dropout(&mut self, x: NodeId, full_rows: usize, ctx: &mut FwdCtx<'_>) -> NodeId;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;

    #[test]
    fn eval_ctx_never_produces_masks() {
        let store = ParamStore::new();
        let mut ctx = FwdCtx::eval(&store);
        assert!(ctx.dropout_source().is_none());
    }

    #[test]
    fn zero_dropout_train_ctx_skips_masks() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = FwdCtx::train(&store, 0.0, &mut rng);
        assert!(ctx.dropout_source().is_none());
    }
}
