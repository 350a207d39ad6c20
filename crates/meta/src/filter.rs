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
    recycle_tape, take_pooled_tape, Adam, CheckpointError, Initializer, ParamId, ParamStore,
    StateBag, Tensor,
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
        let mut tape = take_pooled_tape();
        let wn = tape.param(self.w, &self.store);
        let bn = tape.param(self.b, &self.store);
        let mut log_probs = Vec::with_capacity(kept_features.len());
        for feat in kept_features {
            let x = tape.input(Tensor::row(feat.clone()));
            let z = tape.matmul(x, wn);
            let z = tape.add_row(z, bn);
            let lp = tape.log_softmax(z);
            // log p(keep) = log-softmax at index 1.
            log_probs.push(tape.slice_cols(lp, 1, 1));
        }
        let total = tape.sum_nodes(&log_probs);
        let objective = tape.scale(total, loss_val);
        self.store.zero_grad();
        tape.backward(objective, &mut self.store);
        recycle_tape(tape);
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
    pub fn save_state(&self, bag: &mut StateBag, prefix: &str) {
        bag.put_f32s(format!("{prefix}.params"), self.store.flat_values());
        self.opt.save_state(bag, &format!("{prefix}.adam"));
    }

    /// Restore state saved by [`save_state`](Self::save_state).
    pub fn load_state(&mut self, bag: &StateBag, prefix: &str) -> Result<(), CheckpointError> {
        let params = bag.get_f32s(&format!("{prefix}.params"))?;
        if params.len() != self.store.num_scalars() {
            return Err(CheckpointError::Mismatch(format!(
                "filter {prefix:?}: {} parameters vs checkpoint {}",
                self.store.num_scalars(),
                params.len()
            )));
        }
        self.store.set_flat(params);
        self.opt
            .load_state(bag, &format!("{prefix}.adam"), &self.store)
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
            m.reinforce_update(&[feat.clone()], 2.0);
        }
        let after = m.prob_keep(&feat);
        assert!(after < before, "keep prob should fall: {before} -> {after}");
    }
}
