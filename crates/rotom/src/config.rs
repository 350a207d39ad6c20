//! Top-level configuration for Rotom runs.

use rotom_augment::InvDaConfig;
use rotom_meta::MetaConfig;
use rotom_nn::TransformerConfig;

/// Target-model (TinyLm) hyper-parameters.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward width.
    pub d_ff: usize,
    /// Encoder layers.
    pub layers: usize,
    /// Maximum sequence length (including \[CLS\]).
    pub max_len: usize,
    /// Vocabulary budget.
    pub vocab_size: usize,
    /// Masked-LM pre-training epochs over the unlabeled corpus (the
    /// "pre-trained LM" stand-in; 0 disables).
    pub pretrain_epochs: usize,
    /// Matched-view (NSP-style) pair pre-training epochs, used for pair
    /// tasks such as entity matching (0 disables).
    pub pair_pretrain_epochs: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            d_model: 32,
            heads: 4,
            d_ff: 64,
            layers: 2,
            max_len: 48,
            vocab_size: 4096,
            pretrain_epochs: 2,
            pair_pretrain_epochs: 8,
        }
    }
}

impl ModelConfig {
    /// The encoder configuration derived from this model config.
    pub fn encoder(&self, vocab: usize) -> TransformerConfig {
        TransformerConfig {
            vocab,
            d_model: self.d_model,
            heads: self.heads,
            d_ff: self.d_ff,
            layers: self.layers,
            max_len: self.max_len,
        }
    }

    /// A minimal configuration for unit tests.
    pub fn test_tiny() -> Self {
        Self {
            d_model: 16,
            heads: 2,
            d_ff: 32,
            layers: 1,
            max_len: 24,
            vocab_size: 512,
            pretrain_epochs: 1,
            pair_pretrain_epochs: 1,
        }
    }
}

/// Fine-tuning hyper-parameters (paper §6.1: batch 32, lr 3e-5, ≤40 epochs —
/// scaled to the CPU-sized stand-in models).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// MixDA Beta(α, α) interpolation parameter.
    pub mixda_alpha: f32,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 6,
            batch_size: 16,
            lr: 5e-4,
            mixda_alpha: 0.8,
            seed: 0,
        }
    }
}

/// Everything a full Rotom run needs.
#[derive(Debug, Clone, Default)]
pub struct RotomConfig {
    /// Target-model configuration.
    pub model: ModelConfig,
    /// Fine-tuning configuration.
    pub train: TrainConfig,
    /// Meta-learning configuration (Rotom / Rotom+SSL methods).
    pub meta: MetaConfig,
    /// InvDA configuration.
    pub invda: InvDaConfig,
}

impl RotomConfig {
    /// Small-but-realistic defaults for the benchmark harness.
    pub fn bench_small() -> Self {
        let mut cfg = Self::default();
        cfg.model.d_model = 24;
        cfg.model.heads = 4;
        cfg.model.d_ff = 48;
        cfg.model.layers = 1;
        cfg.model.max_len = 40;
        cfg.model.pretrain_epochs = 1;
        cfg.train.epochs = 4;
        cfg.meta.batch_size = 12;
        cfg.invda.d_model = 24;
        cfg.invda.heads = 4;
        cfg.invda.d_ff = 48;
        cfg.invda.layers = 1;
        cfg.invda.epochs = 3;
        cfg.invda.max_len = 40;
        cfg.invda.max_gen_len = 36;
        cfg.invda.max_unique = 4;
        cfg
    }

    /// Minimal configuration for unit tests.
    pub fn test_tiny() -> Self {
        let mut cfg = Self {
            model: ModelConfig::test_tiny(),
            invda: InvDaConfig::test_tiny(),
            ..Self::default()
        };
        cfg.train.epochs = 2;
        cfg.train.batch_size = 8;
        cfg.meta.batch_size = 6;
        cfg.meta.val_batch_size = 8;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_config_propagates() {
        let m = ModelConfig::default();
        let enc = m.encoder(1234);
        assert_eq!(enc.vocab, 1234);
        assert_eq!(enc.d_model, m.d_model);
    }
}
