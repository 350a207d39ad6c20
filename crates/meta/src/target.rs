//! The target-model interface the meta-trainer drives.
//!
//! Algorithm 2 treats the target model `M` as a black box that can (a) score
//! sequences, (b) compute weighted batch losses with gradients, and (c) have
//! its parameters manipulated as flat vectors for the virtual step
//! `M' = M − η∇M` and the finite-difference probes `M± = M ± ε∇M'`.
//! Any sequence classifier implementing [`MetaTarget`] (the TinyLm stand-in
//! for RoBERTa/DistilBERT, the GRU baselines, …) can be meta-trained.

use rotom_rng::rngs::StdRng;

/// One weighted training item: input sequence, (soft) target distribution,
/// and the example weight assigned by the weighting model.
#[derive(Debug)]
pub struct WeightedItem {
    /// Input token sequence (the augmented sequence `x̂`).
    pub tokens: Vec<String>,
    /// Soft target distribution over classes (one-hot for hard labels,
    /// sharpened guesses for unlabeled examples).
    pub target: Vec<f32>,
    /// Example weight (normalized within the batch by the caller).
    pub weight: f32,
}

impl WeightedItem {
    /// Item with a hard label and unit weight.
    pub fn hard(tokens: Vec<String>, label: usize, num_classes: usize) -> Self {
        Self {
            tokens,
            target: rotom_nn::one_hot_rows(&[label], num_classes),
            weight: 1.0,
        }
    }
}

/// A sequence classifier trainable by Rotom's meta-learning loop.
///
/// `Sync` is required so the trainer can score candidate examples across the
/// worker pool (forward passes are `&self` and side-effect free).
pub trait MetaTarget: Sync {
    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// `p_M(x)`: class distribution under the current parameters
    /// (evaluation mode, no side effects).
    fn predict_proba(&self, tokens: &[String]) -> Vec<f32>;

    /// Compute the weighted mean cross-entropy over `items`, backpropagate,
    /// and leave gradients in the parameter store (zeroing it first).
    /// Returns the loss value. `train` toggles dropout.
    fn weighted_loss_backward(
        &mut self,
        items: &[WeightedItem],
        train: bool,
        rng: &mut StdRng,
    ) -> f32;

    /// Forward-only per-example cross-entropy losses (evaluation mode).
    fn per_example_losses(&self, items: &[WeightedItem]) -> Vec<f32>;

    /// Flat snapshot of all trainable parameters.
    fn flat_params(&self) -> Vec<f32>;

    /// Overwrite all trainable parameters from a flat snapshot.
    fn set_flat_params(&mut self, flat: &[f32]);

    /// `params += alpha * delta` over the flat view.
    fn add_scaled(&mut self, delta: &[f32], alpha: f32);

    /// Flat view of the current gradients.
    fn flat_grads(&self) -> Vec<f32>;

    /// Apply one optimizer step from the gradients currently stored.
    fn optimizer_step(&mut self);

    /// The learning rate used by [`optimizer_step`](Self::optimizer_step)
    /// (Algorithm 2's `η` for the virtual step).
    fn learning_rate(&self) -> f32;

    /// L2 norm of the current gradients, for numeric-health monitoring.
    /// The default derives it from [`flat_grads`](Self::flat_grads);
    /// implementers with a cheaper store-level norm should override.
    fn grad_l2(&self) -> f32 {
        self.flat_grads().iter().map(|&g| g * g).sum::<f32>().sqrt()
    }
}
