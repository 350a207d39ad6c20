//! The filtering model `M_F` (paper §4.1).
//!
//! A lightweight single-layer perceptron over hand-crafted features:
//!
//! ```text
//! M_F(x, x̂, y) = softmax(W_F · concat(onehot(y), p_M(x) · log(p_M(x)/p_M(x̂))) + b_F)
//! ```
//!
//! The element-wise KL features let the filter learn to drop augmentations
//! whose predicted distribution drifts too far from the original's; the
//! one-hot label lets it calibrate per class. Because the filter's binary
//! decision is not differentiable, it is trained with the REINFORCE
//! estimator (Eq. 3): the log-probability of the realized keep decisions is
//! scaled by the (constant) validation loss.

use rotom_nn::{
    Adam, CheckpointError, Exec, Initializer, ParamId, ParamStore, StateBag, Tape, Tensor,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};

/// Filtering model: perceptron over `2·|V|` features with 2 outputs
/// (drop / keep).
pub struct FilterModel {
    store: ParamStore,
    w: ParamId,
    b: ParamId,
    num_classes: usize,
    opt: Adam,
}

impl FilterModel {
    /// Create a filter for a `num_classes`-way task.
    pub fn new(num_classes: usize, lr: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let w = store.alloc(
            "filter.w",
            2 * num_classes,
            2,
            Initializer::Uniform(0.1),
            &mut rng,
        );
        let b = store.alloc("filter.b", 1, 2, Initializer::Zeros, &mut rng);
        Self {
            store,
            w,
            b,
            num_classes,
            opt: Adam::new(lr),
        }
    }

    /// Feature vector `concat(onehot(y), p_M(x) · log(p_M(x)/p_M(x̂)))`.
    ///
    /// `target` may be a soft distribution (unlabeled guesses); probabilities
    /// are clamped away from zero for numerical stability.
    pub fn features(target: &[f32], p_orig: &[f32], p_aug: &[f32]) -> Vec<f32> {
        let k = target.len();
        debug_assert_eq!(p_orig.len(), k);
        debug_assert_eq!(p_aug.len(), k);
        let mut feat = Vec::with_capacity(2 * k);
        feat.extend_from_slice(target);
        for i in 0..k {
            let p = p_orig[i].max(1e-6);
            let q = p_aug[i].max(1e-6);
            feat.push(p * (p / q).ln());
        }
        feat
    }

    /// Probability that the example passes the filter.
    pub fn prob_keep(&self, features: &[f32]) -> f32 {
        assert_eq!(
            features.len(),
            2 * self.num_classes,
            "feature width mismatch"
        );
        let logits = self.logits(features);
        let p = rotom_nn::softmax_slice(&logits);
        p[1]
    }

    fn logits(&self, features: &[f32]) -> Vec<f32> {
        // Forward-only scoring on the inference plane: one fused
        // GEMM+bias call, no tape nodes and no input clone. The tiny shape
        // dispatches to the same naive kernel the tape's matmul would pick,
        // so values are bit-identical to the graph path used in
        // `reinforce_update`.
        let w = self.store.value(self.w);
        let mut out = vec![0.0f32; 2];
        rotom_nn::kernels::matmul_bias_act_into(
            features,
            w.data(),
            None,
            Some(self.store.value(self.b).data()),
            rotom_nn::kernels::Act::None,
            1,
            1,
            2 * self.num_classes,
            2,
            rotom_nn::RotomPool::global(),
            &mut out,
        );
        out
    }

    /// Sample the binary keep decision (explore-and-exploit: the output is a
    /// draw from the filter's distribution, not a hard argmax).
    pub fn sample_keep(&self, features: &[f32], rng: &mut StdRng) -> bool {
        rng.random_bool(self.prob_keep(features).clamp(0.0, 1.0) as f64)
    }

    /// REINFORCE update (Eq. 3): descend
    /// `∇_{M_F}(Lossval · Σ_{kept e} log p(M_F(e)=1))`,
    /// where `Lossval` is a constant baseline-free reward signal.
    ///
    /// `kept_features` are the feature vectors of the examples that passed
    /// the filter and formed the training batch.
    pub fn reinforce_update(&mut self, kept_features: &[Vec<f32>], loss_val: f32) {
        if kept_features.is_empty() {
            return;
        }
        // The parameter nodes are built once, ahead of the first item's.
        let (w, b, store) = (self.w, self.b, &self.store);
        let mut params = None;
        let batch = Tape::batch(kept_features, |tape, feat| {
            let (wn, bn) =
                *params.get_or_insert_with(|| (tape.param(w, store), tape.param(b, store)));
            let x = tape.input(Tensor::row(feat.clone()));
            let z = tape.matmul(x, wn);
            let z = tape.add_row(z, bn);
            let lp = tape.log_softmax(z);
            // log p(keep) = log-softmax at index 1.
            tape.slice_cols(lp, 1, 1)
        });
        batch.backward(&mut self.store, |tape, log_probs| {
            let total = tape.sum_nodes(log_probs);
            tape.scale(total, loss_val)
        });
        // Observed after backward, before the Adam step mutates the store —
        // reads gradients only, so training is unchanged by telemetry.
        if rotom_nn::telemetry::enabled() {
            use rotom_nn::telemetry::Value;
            let grad_norm = self.store.grad_norm() as f64;
            rotom_nn::telemetry::emit(
                "meta",
                "filter.reinforce",
                &[
                    ("kept", Value::U64(kept_features.len() as u64)),
                    ("reward", Value::F64(loss_val as f64)),
                    ("grad_norm", Value::F64(grad_norm)),
                ],
            );
        }
        self.opt.step(&mut self.store);
    }

    /// Save the filter's full training state (parameters + optimizer) into a
    /// checkpoint bag under `prefix`.
    pub(crate) fn save_state(&self, bag: &mut StateBag, prefix: &str) {
        rotom_nn::checkpoint::save_params_adam(bag, prefix, &self.store, &self.opt);
    }

    /// Restore state saved by [`save_state`](Self::save_state).
    pub(crate) fn load_state(
        &mut self,
        bag: &StateBag,
        prefix: &str,
    ) -> Result<(), CheckpointError> {
        rotom_nn::checkpoint::load_params_adam(bag, prefix, &mut self.store, &mut self.opt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(k: usize) -> Vec<f32> {
        vec![1.0 / k as f32; k]
    }

    #[test]
    fn features_shape_and_zero_kl_for_identical() {
        let y = vec![1.0, 0.0];
        let p = vec![0.7, 0.3];
        let f = FilterModel::features(&y, &p, &p);
        assert_eq!(f.len(), 4);
        assert_eq!(&f[..2], &[1.0, 0.0]);
        assert!(f[2].abs() < 1e-5 && f[3].abs() < 1e-5);
    }

    #[test]
    fn kl_features_positive_total_for_divergent() {
        let y = vec![0.0, 1.0];
        let f = FilterModel::features(&y, &[0.9, 0.1], &[0.1, 0.9]);
        let kl: f32 = f[2] + f[3];
        assert!(kl > 0.0, "total KL must be positive, got {kl}");
    }

    #[test]
    fn prob_keep_in_unit_interval() {
        let m = FilterModel::new(2, 1e-2, 0);
        let f = FilterModel::features(&uniform(2), &uniform(2), &[0.9, 0.1]);
        let p = m.prob_keep(&f);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn reinforce_moves_keep_probability() {
        // With a *positive* validation loss, gradient descent on
        // Lossval·Σ log p(keep) decreases log p(keep) for the kept features:
        // keeping these examples led to high validation loss, so keep less.
        let mut m = FilterModel::new(2, 0.05, 1);
        let feat = FilterModel::features(&[1.0, 0.0], &[0.9, 0.1], &[0.2, 0.8]);
        let before = m.prob_keep(&feat);
        for _ in 0..20 {
            m.reinforce_update(std::slice::from_ref(&feat), 2.0);
        }
        let after = m.prob_keep(&feat);
        assert!(after < before, "keep prob should fall: {before} -> {after}");
    }
}
