//! Neural network layers built on the autodiff [`Tape`](crate::graph::Tape).
//!
//! Every layer owns [`ParamId`](crate::params::ParamId)s registered in a
//! shared [`ParamStore`](crate::params::ParamStore) and exposes a `forward`
//! that appends nodes to a caller-provided tape. Layers are stateless between
//! calls; all trainable state lives in the store.

mod attention;
mod embedding;
mod linear;
mod norm;
mod rnn;
mod transformer;

pub use attention::MultiHeadAttention;
pub use embedding::Embedding;
pub use linear::Linear;
pub use norm::LayerNorm;
pub use rnn::Gru;
pub use transformer::{
    causal_mask, DecoderKvCache, DecoderLayer, EncoderLayer, FeedForward, TransformerConfig,
    TransformerDecoder, TransformerEncoder,
};

use rotom_rng::rngs::StdRng;

/// Per-forward context: parameter store plus (optionally) a dropout source.
///
/// When `rng` is `None` the forward pass is deterministic (evaluation mode);
/// dropout layers become identity.
pub struct FwdCtx<'a> {
    /// Parameter store the layers read weights from.
    pub store: &'a crate::params::ParamStore,
    /// Dropout probability applied inside layers that support it.
    pub dropout: f32,
    /// RNG for dropout masks; `None` disables dropout (eval mode).
    pub rng: Option<&'a mut StdRng>,
}

impl<'a> FwdCtx<'a> {
    /// Evaluation-mode context (no dropout).
    pub fn eval(store: &'a crate::params::ParamStore) -> Self {
        Self {
            store,
            dropout: 0.0,
            rng: None,
        }
    }

    /// Training-mode context with dropout probability `p`.
    pub fn train(store: &'a crate::params::ParamStore, p: f32, rng: &'a mut StdRng) -> Self {
        Self {
            store,
            dropout: p,
            rng: Some(rng),
        }
    }

    /// The dropout probability and RNG a dropout site draws its mask from
    /// (see [`Tape::dropout`](crate::graph::Tape::dropout)), or `None` in
    /// eval mode or when `p == 0`.
    pub fn dropout_source(&mut self) -> Option<(f32, &mut StdRng)> {
        if self.dropout <= 0.0 {
            return None;
        }
        let p = self.dropout;
        self.rng.as_deref_mut().map(|rng| (p, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
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
