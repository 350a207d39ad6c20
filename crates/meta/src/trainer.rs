//! The meta-training loop (paper Algorithm 2, plus the §5 SSL extension).
//!
//! Each step alternates two phases:
//!
//! 1. **Target update** — assemble a batch of augmented examples, drop the
//!    ones rejected by the filtering model (sampled, explore-and-exploit),
//!    weight the rest with the weighting model, and descend the weighted
//!    training loss.
//! 2. **Policy update** — take the virtual step `M' = M − η∇M Losstrain`,
//!    measure `Lossval` at `M'`, then update the filtering model by
//!    REINFORCE (Eq. 3) and the weighting model by the finite-difference
//!    second-order estimate (Eq. 4) using probes `M± = M ± ε∇M'Lossval`.
//!
//! With SSL enabled, a batch of unlabeled examples with sharpened guessed
//! labels joins every training batch; unlabeled examples bypass the filter
//! (to avoid amplifying class imbalance) but are weighted like any other.
//!
//! **Implementation note (REINFORCE baseline).** Eq. 3 uses the raw
//! validation loss as the reward signal; since a loss is always positive,
//! the raw estimator would uniformly suppress keep-probabilities. Like most
//! REINFORCE implementations we subtract a running-mean baseline, so
//! keeping a batch is reinforced exactly when it achieves a
//! *better-than-recent-average* validation loss. This is a pure
//! variance-reduction change: the estimator stays unbiased.

use crate::filter::FilterModel;
use crate::sharpen::guess_label;
use crate::target::{MetaTarget, WeightedItem};
use crate::weight::{l2_distance, WeightModel};
use rotom_nn::faultpoint::{self, FaultKind};
use rotom_nn::telemetry::{self, Value};
use rotom_nn::{
    one_hot_rows, CheckpointError, Halt, HealthMonitor, RotomPool, StateBag, TransformerConfig,
    Verdict,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::example::{AugExample, Example};
use rotom_text::vocab::Vocab;
use std::collections::VecDeque;

/// Semi-supervised learning options (§5).
#[derive(Debug, Clone)]
pub struct SslConfig {
    /// Temperature for `sharpen_v1` (paper default 0.5).
    pub temperature: f32,
    /// Confidence threshold for `sharpen_v2` / pseudo-labeling.
    pub threshold: f32,
    /// Minimum model confidence for an unlabeled example to enter the batch
    /// at all; below it the example is skipped this step (FixMatch-style
    /// gating — unconfident guesses are pure noise early in training).
    pub min_confidence: f32,
}

impl Default for SslConfig {
    fn default() -> Self {
        Self {
            temperature: 0.5,
            threshold: 0.8,
            min_confidence: 0.6,
        }
    }
}

/// Ablation switches for the meta-learning framework (used by the ablation
/// benchmark to quantify each component's contribution).
#[derive(Debug, Clone, Default)]
pub struct AblationConfig {
    /// Disable the filtering model (keep every augmented example).
    pub disable_filter: bool,
    /// Disable the weighting model (uniform weights, no Eq.-4 updates).
    pub disable_weighting: bool,
    /// Drop the additive L2 uncertainty term from Eq. 2.
    pub disable_l2: bool,
}

/// Learning rate of the weighting model.
const WEIGHT_LR: f32 = 1e-3;

/// Meta-trainer hyper-parameters.
#[derive(Debug, Clone)]
pub struct MetaConfig {
    /// Training batch size (paper: 32).
    pub batch_size: usize,
    /// Validation batch size.
    pub val_batch_size: usize,
    /// Finite-difference probe scale ε (paper: 0.01).
    pub epsilon: f32,
    /// Learning rate of the filtering model.
    pub filter_lr: f32,
    /// Enable the SSL extension.
    pub ssl: Option<SslConfig>,
    /// Component ablations (all off by default).
    pub ablation: AblationConfig,
    /// RNG seed for batch sampling and filter exploration.
    pub seed: u64,
}

impl Default for MetaConfig {
    fn default() -> Self {
        Self {
            batch_size: 16,
            val_batch_size: 16,
            epsilon: 0.01,
            filter_lr: 1e-2,
            ssl: None,
            ablation: AblationConfig::default(),
            seed: 0,
        }
    }
}

/// Statistics from one meta-training epoch.
#[derive(Debug, Default)]
pub struct EpochStats {
    /// Mean weighted training loss across steps.
    pub train_loss: f32,
    /// Mean validation loss at the virtual step across steps.
    pub val_loss: f32,
    /// Mean filter keep-rate.
    pub keep_rate: f32,
    /// Mean (raw) example weight.
    pub mean_weight: f32,
    /// Number of optimizer steps taken.
    pub steps: usize,
}

/// The Rotom meta-trainer: owns the filtering and weighting policy models
/// and drives Algorithm 2 over any [`MetaTarget`].
pub struct MetaTrainer {
    /// Filtering model `M_F`.
    pub filter: FilterModel,
    /// Weighting model `M_W`.
    pub weight: WeightModel,
    cfg: MetaConfig,
    rng: StdRng,
    /// Running-mean baseline for the REINFORCE reward.
    val_baseline: f32,
    baseline_initialized: bool,
}

impl MetaTrainer {
    /// Create a meta-trainer. `vocab`/`enc_cfg` configure the weighting
    /// model's LM encoder ("the same LM architecture as the target model").
    pub fn new(
        num_classes: usize,
        vocab: Vocab,
        enc_cfg: TransformerConfig,
        cfg: MetaConfig,
    ) -> Self {
        let filter = FilterModel::new(num_classes, cfg.filter_lr, cfg.seed ^ 0xf11);
        let weight = WeightModel::new(vocab, enc_cfg, WEIGHT_LR, cfg.seed ^ 0x3e1);
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x7a9);
        Self {
            filter,
            weight,
            cfg,
            rng,
            val_baseline: 0.0,
            baseline_initialized: false,
        }
    }

    /// Run one epoch of Algorithm 2.
    ///
    /// * `train_aug` — this epoch's pool of augmented examples (identity +
    ///   simple DA + InvDA candidates, assembled by the caller).
    /// * `val` — validation examples (may alias the training set to save
    ///   labeling budget, as the paper does for EM/EDT).
    /// * `unlabeled_aug` — `(x, x̂)` pairs of unlabeled sequences for SSL;
    ///   ignored unless `cfg.ssl` is set.
    pub fn train_epoch<T: MetaTarget>(
        &mut self,
        target: &mut T,
        train_aug: &[AugExample],
        val: &[Example],
        unlabeled_aug: &[(Vec<String>, Vec<String>)],
    ) -> EpochStats {
        match self.train_epoch_guarded(target, train_aug, val, unlabeled_aug, None) {
            Ok(stats) => stats,
            // Without a guard no step can be ruled divergent.
            Err(halt) => unreachable!("unguarded epoch halted: {halt}"),
        }
    }

    /// [`train_epoch`](Self::train_epoch) with an optional numeric-health
    /// guard. With a guard, every optimizer step is checked (loss/grad
    /// finiteness, loss-spike window, armed faultpoints) *before* it is
    /// applied; a divergent step stops the epoch with a [`Halt`] so the
    /// driver can roll back to its last good checkpoint. With `None` the
    /// behavior (and the per-step allocation profile) is bit-identical to
    /// the unguarded loop.
    pub fn train_epoch_guarded<T: MetaTarget>(
        &mut self,
        target: &mut T,
        train_aug: &[AugExample],
        val: &[Example],
        unlabeled_aug: &[(Vec<String>, Vec<String>)],
        mut guard: Option<&mut HealthMonitor>,
    ) -> Result<EpochStats, Halt> {
        assert!(!train_aug.is_empty(), "empty augmented pool");
        assert!(!val.is_empty(), "empty validation set");
        let k = target.num_classes();
        let b = self.cfg.batch_size;
        let workers = RotomPool::global();
        let mut order: Vec<usize> = (0..train_aug.len()).collect();
        self.rng.shuffle(&mut order);

        let mut stats = EpochStats::default();
        let mut cursor = 0usize;
        while cursor < order.len() {
            // ----------------------------------------------------------
            // Batch assembly with filtering (+ refill on aggressive drops).
            // ----------------------------------------------------------
            let mut items: Vec<WeightedItem> = Vec::with_capacity(2 * b);
            let mut l2_terms: Vec<f32> = Vec::with_capacity(2 * b);
            let mut kept_features: Vec<Vec<f32>> = Vec::new();
            let mut keep_probs_sum = 0.0f32;
            let mut seen = 0usize;
            // Windowed prefetch of candidate scores. The target is read-only
            // while a batch is being assembled (the phase-1 step comes
            // after), so scoring one window ahead across the worker pool
            // yields exactly the values the serial loop would compute, in
            // the same order. Scores left over when the batch closes are
            // discarded — the optimizer step invalidates them. An entry
            // whose augmentation left it unchanged is scored once:
            // `predict_proba` is a pure function of the tokens and the
            // parameters, so the copy is the value a second call returns.
            let mut scored: VecDeque<(Vec<f32>, Vec<f32>)> = VecDeque::new();
            let mut scored_to = cursor;
            while items.len() < b && cursor < order.len() {
                if scored.is_empty() {
                    let window = &order[scored_to..(scored_to + b).min(order.len())];
                    let t: &T = target;
                    scored.extend(workers.map(window.len(), |j| {
                        let e = &train_aug[window[j]];
                        let p_orig = t.predict_proba(&e.orig);
                        let p_aug = if e.aug == e.orig {
                            p_orig.clone()
                        } else {
                            t.predict_proba(&e.aug)
                        };
                        (p_orig, p_aug)
                    }));
                    scored_to += window.len();
                }
                let e = &train_aug[order[cursor]];
                cursor += 1;
                seen += 1;
                let (p_orig, p_aug) = scored.pop_front().expect("prefetch window drained");
                let y = one_hot_rows(&[e.label], k);
                let feat = FilterModel::features(&y, &p_orig, &p_aug);
                keep_probs_sum += self.filter.prob_keep(&feat);
                if !self.cfg.ablation.disable_filter
                    && !self.filter.sample_keep(&feat, &mut self.rng)
                {
                    continue;
                }
                let l2 = if self.cfg.ablation.disable_l2 {
                    0.0
                } else {
                    l2_distance(&p_aug, &y)
                };
                l2_terms.push(l2);
                kept_features.push(feat);
                items.push(WeightedItem {
                    tokens: e.aug.clone(),
                    target: y,
                    weight: 1.0,
                });
            }
            if items.is_empty() {
                continue;
            }
            let keep_rate = if seen > 0 {
                keep_probs_sum / seen as f32
            } else {
                1.0
            };

            // ----------------------------------------------------------
            // SSL: append a batch of unlabeled examples with guessed labels
            // (no filtering, to avoid class imbalance).
            // ----------------------------------------------------------
            if let Some(ssl) = &self.cfg.ssl {
                if !unlabeled_aug.is_empty() {
                    let n_unl = items.len();
                    let mut attempts = 0;
                    let mut added = 0;
                    while added < n_unl && attempts < 3 * n_unl {
                        attempts += 1;
                        let (x, x_hat) =
                            &unlabeled_aug[self.rng.random_range(0..unlabeled_aug.len())];
                        let p_x = target.predict_proba(x);
                        // Confidence gate: unconfident guesses are skipped
                        // this step (the weighting model handles the rest).
                        if p_x[rotom_nn::argmax(&p_x)] < ssl.min_confidence {
                            continue;
                        }
                        let guessed = guess_label(&p_x, ssl.temperature, ssl.threshold);
                        let p_aug = target.predict_proba(x_hat);
                        let l2 = if self.cfg.ablation.disable_l2 {
                            0.0
                        } else {
                            l2_distance(&p_aug, &guessed)
                        };
                        l2_terms.push(l2);
                        items.push(WeightedItem {
                            tokens: x_hat.clone(),
                            target: guessed,
                            weight: 1.0,
                        });
                        added += 1;
                    }
                }
            }

            // ----------------------------------------------------------
            // Weighting (M_W forward; weights enter phase 1 as constants).
            // ----------------------------------------------------------
            let weight_batch = if self.cfg.ablation.disable_weighting {
                None
            } else {
                let weight_inputs: Vec<(&[String], f32)> = items
                    .iter()
                    .zip(&l2_terms)
                    .map(|(it, &l2)| (it.tokens.as_slice(), l2))
                    .collect();
                let batch = self.weight.forward_batch(&weight_inputs);
                let normalized = batch.normalized();
                for (it, &w) in items.iter_mut().zip(&normalized) {
                    it.weight = w;
                }
                stats.mean_weight += batch.raw.iter().sum::<f32>() / batch.raw.len() as f32;
                Some(batch)
            };
            if self.cfg.ablation.disable_weighting {
                stats.mean_weight += 1.0;
            }

            // ----------------------------------------------------------
            // Phase 1: update the target model on the weighted batch.
            // ----------------------------------------------------------
            let train_loss = target.weighted_loss_backward(&items, true, &mut self.rng);
            if let Some(monitor) = guard.as_deref_mut() {
                guard_step(monitor, target, train_loss)?;
            }
            let g = target.flat_grads();
            target.optimizer_step();

            // ----------------------------------------------------------
            // Phase 2: virtual step, validation loss, policy updates.
            // ----------------------------------------------------------
            let eta = target.learning_rate();
            let val_batch: Vec<WeightedItem> =
                sample_items(val, self.cfg.val_batch_size, k, &mut self.rng);
            // M' = M − η·∇M Losstrain, where M is the post-phase-1
            // parameters (the paper's overloaded notation).
            let (val_loss, v) = virtual_step_grad(target, &g, eta, &val_batch, &mut self.rng);

            if let Some(weight_batch) = weight_batch {
                let eps = self.cfg.epsilon;
                let (c_plus, c_minus) = probe_losses(target, &v, eps, &items);
                self.weight
                    .update_finite_difference(weight_batch, &c_plus, &c_minus, eta, eps);
            }

            // REINFORCE with a running-mean baseline (see module docs).
            let reward = if self.baseline_initialized {
                val_loss - self.val_baseline
            } else {
                0.0
            };
            if self.baseline_initialized {
                self.val_baseline = 0.9 * self.val_baseline + 0.1 * val_loss;
            } else {
                self.val_baseline = val_loss;
                self.baseline_initialized = true;
            }
            if !self.cfg.ablation.disable_filter {
                self.filter.reinforce_update(&kept_features, reward);
            }

            stats.train_loss += train_loss;
            stats.val_loss += val_loss;
            stats.keep_rate += keep_rate;
            stats.steps += 1;

            // ----------------------------------------------------------
            // Telemetry: one `step` record for the phase-1 target update
            // and one `meta` record for this batch's policy decisions.
            // Pure observation of values already computed above — consumes
            // no RNG, so runs are bit-identical with telemetry on or off.
            // ----------------------------------------------------------
            if telemetry::enabled() {
                let grad_norm = g.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt();
                telemetry::emit(
                    "step",
                    "meta.target_step",
                    &[
                        ("loss", Value::F64(train_loss as f64)),
                        ("lr", Value::F64(eta as f64)),
                        ("grad_norm", Value::F64(grad_norm)),
                        ("examples", Value::U64(items.len() as u64)),
                    ],
                );
                // 8-bucket sketch of the normalized M_W weights over [0, 2)
                // (mean-1 normalization centers them at bucket 3|4).
                let mut hist = [0u64; 8];
                let mut w_min = f32::INFINITY;
                let mut w_max = f32::NEG_INFINITY;
                let mut w_sum = 0.0f64;
                for it in &items {
                    let w = it.weight;
                    w_min = w_min.min(w);
                    w_max = w_max.max(w);
                    w_sum += w as f64;
                    let bucket = ((w / 0.25) as usize).min(7);
                    hist[bucket] += 1;
                }
                telemetry::emit(
                    "meta",
                    "meta.decision",
                    &[
                        ("keep_rate", Value::F64(keep_rate as f64)),
                        ("kept", Value::U64(kept_features.len() as u64)),
                        ("seen", Value::U64(seen as u64)),
                        ("val_loss", Value::F64(val_loss as f64)),
                        ("baseline", Value::F64(self.val_baseline as f64)),
                        ("reward", Value::F64(reward as f64)),
                        ("w_mean", Value::F64(w_sum / items.len() as f64)),
                        ("w_min", Value::F64(w_min as f64)),
                        ("w_max", Value::F64(w_max as f64)),
                        ("w_hist_0", Value::U64(hist[0])),
                        ("w_hist_1", Value::U64(hist[1])),
                        ("w_hist_2", Value::U64(hist[2])),
                        ("w_hist_3", Value::U64(hist[3])),
                        ("w_hist_4", Value::U64(hist[4])),
                        ("w_hist_5", Value::U64(hist[5])),
                        ("w_hist_6", Value::U64(hist[6])),
                        ("w_hist_7", Value::U64(hist[7])),
                    ],
                );
            }
        }
        if stats.steps > 0 {
            let n = stats.steps as f32;
            stats.train_loss /= n;
            stats.val_loss /= n;
            stats.keep_rate /= n;
            stats.mean_weight /= n;
        }
        Ok(stats)
    }

    /// Save the meta-trainer's full training state — both policy models
    /// (parameters + optimizers), the sampling RNG stream, and the REINFORCE
    /// baseline — into a checkpoint bag under `prefix`.
    pub fn save_state(&self, bag: &mut StateBag, prefix: &str) {
        self.filter.save_state(bag, &format!("{prefix}.filter"));
        self.weight.save_state(bag, &format!("{prefix}.weight"));
        bag.put_rng(format!("{prefix}.rng"), &self.rng);
        bag.put_f32(format!("{prefix}.baseline"), self.val_baseline);
        bag.put_u64(
            format!("{prefix}.baseline_init"),
            self.baseline_initialized as u64,
        );
    }

    /// Restore state saved by [`save_state`](Self::save_state). A resumed
    /// trainer continues bit-identically to one that never stopped.
    pub fn load_state(&mut self, bag: &StateBag, prefix: &str) -> Result<(), CheckpointError> {
        self.filter.load_state(bag, &format!("{prefix}.filter"))?;
        self.weight.load_state(bag, &format!("{prefix}.weight"))?;
        self.rng = bag.get_rng(&format!("{prefix}.rng"))?;
        self.val_baseline = bag.get_f32(&format!("{prefix}.baseline"))?;
        self.baseline_initialized = bag.get_u64(&format!("{prefix}.baseline_init"))? != 0;
        Ok(())
    }
}

/// Guard one optimizer step of any [`MetaTarget`] training loop: advance the
/// monitor's step counter, fire armed faultpoints (simulated kill, injected
/// NaN loss/gradient), and judge the step's numeric health *before* the
/// caller applies the update. Shared by the meta-trainer and the plain
/// fine-tuning loops so every training path gets identical protection.
///
/// A [`FaultKind::NanGrad`] injection corrupts the target's parameters with
/// NaNs (modeling a NaN update that reached the weights) — detection is
/// same-step, and the driver is expected to restore from its last good
/// checkpoint.
pub fn guard_step<T: MetaTarget + ?Sized>(
    monitor: &mut HealthMonitor,
    target: &mut T,
    loss: f32,
) -> Result<(), Halt> {
    let step = monitor.begin_step();
    faultpoint::maybe_kill(step);
    let mut loss = loss;
    let mut grad_norm = target.grad_l2();
    if faultpoint::fires(FaultKind::NanLoss, step) {
        loss = f32::NAN;
    }
    if faultpoint::fires(FaultKind::NanGrad, step) {
        let n = target.flat_params().len();
        target.add_scaled(&vec![f32::NAN; n], 1.0);
        grad_norm = f32::NAN;
    }
    match monitor.observe(loss, grad_norm) {
        Verdict::Healthy => Ok(()),
        Verdict::Diverged(reason) => Err(Halt { step, reason }),
    }
}

/// Algorithm 2's virtual step (paper line 8): move `target` to
/// `M' = M − η·g`, backpropagate the validation loss of `val` there (no
/// dropout), and restore `M`. Returns `Lossval` at `M'` and `∇M' Lossval`.
pub fn virtual_step_grad<T: MetaTarget + ?Sized>(
    target: &mut T,
    g: &[f32],
    eta: f32,
    val: &[WeightedItem],
    rng: &mut StdRng,
) -> (f32, Vec<f32>) {
    target.add_scaled(g, -eta);
    let loss = target.weighted_loss_backward(val, false, rng);
    let v = target.flat_grads();
    target.add_scaled(g, eta);
    (loss, v)
}

/// The finite-difference probes `M± = M ± ε·v` of Eq. 4: per-example losses
/// of `items` under `M+` and under `M−`, with `M` restored after.
pub fn probe_losses<T: MetaTarget + ?Sized>(
    target: &mut T,
    v: &[f32],
    eps: f32,
    items: &[WeightedItem],
) -> (Vec<f32>, Vec<f32>) {
    target.add_scaled(v, eps);
    let c_plus = target.per_example_losses(items);
    target.add_scaled(v, -2.0 * eps);
    let c_minus = target.per_example_losses(items);
    target.add_scaled(v, eps);
    (c_plus, c_minus)
}

fn sample_items(pool: &[Example], n: usize, k: usize, rng: &mut StdRng) -> Vec<WeightedItem> {
    let n = n.min(pool.len()).max(1);
    (0..n)
        .map(|_| {
            let e = &pool[rng.random_range(0..pool.len())];
            WeightedItem::hard(e.tokens.clone(), e.label, k)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A hand-rolled bag-of-words logistic-regression target with manual
    /// gradients — small enough to verify the full meta loop end-to-end.
    struct BowTarget {
        vocab: HashMap<String, usize>,
        w: Vec<f32>,     // V x K
        grads: Vec<f32>, // V x K
        k: usize,
        lr: f32,
    }

    impl BowTarget {
        fn new(words: &[&str], k: usize, lr: f32) -> Self {
            let vocab: HashMap<String, usize> = words
                .iter()
                .enumerate()
                .map(|(i, w)| (w.to_string(), i))
                .collect();
            let v = vocab.len();
            Self {
                vocab,
                w: vec![0.0; v * k],
                grads: vec![0.0; v * k],
                k,
                lr,
            }
        }

        fn feats(&self, tokens: &[String]) -> Vec<f32> {
            let mut f = vec![0.0f32; self.vocab.len()];
            for t in tokens {
                if let Some(&i) = self.vocab.get(t) {
                    f[i] += 1.0;
                }
            }
            f
        }

        fn logits(&self, f: &[f32]) -> Vec<f32> {
            let mut z = vec![0.0f32; self.k];
            for (i, &fi) in f.iter().enumerate() {
                if fi != 0.0 {
                    for (zc, &wc) in z.iter_mut().zip(&self.w[i * self.k..(i + 1) * self.k]) {
                        *zc += fi * wc;
                    }
                }
            }
            z
        }
    }

    impl MetaTarget for BowTarget {
        fn num_classes(&self) -> usize {
            self.k
        }
        fn predict_proba(&self, tokens: &[String]) -> Vec<f32> {
            rotom_nn::softmax_slice(&self.logits(&self.feats(tokens)))
        }
        fn weighted_loss_backward(
            &mut self,
            items: &[WeightedItem],
            _train: bool,
            _rng: &mut StdRng,
        ) -> f32 {
            self.grads.fill(0.0);
            let mut loss = 0.0f32;
            let n = items.len() as f32;
            for it in items {
                let f = self.feats(&it.tokens);
                let p = rotom_nn::softmax_slice(&self.logits(&f));
                for (&t, &pc) in it.target.iter().zip(&p) {
                    if t > 0.0 {
                        loss -= it.weight * t * pc.max(1e-9).ln() / n;
                    }
                }
                for (i, &fi) in f.iter().enumerate() {
                    if fi != 0.0 {
                        let row = &mut self.grads[i * self.k..(i + 1) * self.k];
                        for ((g, &pc), &t) in row.iter_mut().zip(&p).zip(&it.target) {
                            *g += it.weight * fi * (pc - t) / n;
                        }
                    }
                }
            }
            loss
        }
        fn per_example_losses(&self, items: &[WeightedItem]) -> Vec<f32> {
            items
                .iter()
                .map(|it| {
                    let p = self.predict_proba(&it.tokens);
                    -(0..self.k)
                        .map(|c| it.target[c] * p[c].max(1e-9).ln())
                        .sum::<f32>()
                })
                .collect()
        }
        fn flat_params(&self) -> Vec<f32> {
            self.w.clone()
        }
        fn set_flat_params(&mut self, flat: &[f32]) {
            self.w.copy_from_slice(flat);
        }
        fn add_scaled(&mut self, delta: &[f32], alpha: f32) {
            for (w, &d) in self.w.iter_mut().zip(delta) {
                *w += alpha * d;
            }
        }
        fn flat_grads(&self) -> Vec<f32> {
            self.grads.clone()
        }
        fn optimizer_step(&mut self) {
            let lr = self.lr;
            let g = self.grads.clone();
            self.add_scaled(&g, -lr);
        }
        fn learning_rate(&self) -> f32 {
            self.lr
        }
    }

    fn toy_data() -> (Vec<Example>, Vec<AugExample>) {
        // Two classes separated by "good"/"bad"; a minority of poisoned
        // augmentations flip a positive example's token to "bad" while
        // keeping the label (the classic label-corrupting DA failure of
        // Example 1.1 in the paper).
        let mk = |s: &str, y: usize| Example::new(s.split(' ').map(String::from).collect(), y);
        let train: Vec<Example> = (0..16)
            .map(|i| {
                if i % 2 == 0 {
                    mk("the plot is good stuff", 1)
                } else {
                    mk("the plot is bad stuff", 0)
                }
            })
            .collect();
        let mut aug: Vec<AugExample> = train.iter().map(AugExample::identity).collect();
        // Corrupted augmentations: label says positive, text says bad.
        for _ in 0..5 {
            aug.push(AugExample {
                orig: mk("the plot is good stuff", 1).tokens,
                aug: mk("the plot is bad stuff", 1).tokens,
                label: 1,
            });
        }
        (train, aug)
    }

    fn words() -> Vec<&'static str> {
        vec!["the", "plot", "is", "good", "bad", "stuff"]
    }

    fn trainer(ssl: bool) -> MetaTrainer {
        let seqs: Vec<Vec<String>> = vec![words().iter().map(|s| s.to_string()).collect()];
        let refs: Vec<&[String]> = seqs.iter().map(|s| s.as_slice()).collect();
        // 32 is below the 104 fixed entries: a character-level vocabulary.
        let vocab = Vocab::build(refs, 32);
        let enc = TransformerConfig {
            vocab: 0,
            d_model: 16,
            heads: 2,
            d_ff: 32,
            layers: 1,
            max_len: 12,
        };
        let cfg = MetaConfig {
            batch_size: 4,
            val_batch_size: 8,
            filter_lr: 5e-2,
            ssl: ssl.then(SslConfig::default),
            ..Default::default()
        };
        MetaTrainer::new(2, vocab, enc, cfg)
    }

    #[test]
    fn meta_training_learns_despite_poisoned_augmentations() {
        // ~24% of the pool carries a corrupted label on text identical to
        // the clean negatives. The filter sees the corruption through its
        // KL features (the augmented text's predicted distribution diverges
        // from the original's) and the validation loss provides the reward
        // signal; the target must still classify both classes cleanly.
        let (train, aug) = toy_data();
        let mut target = BowTarget::new(&words(), 2, 0.5);
        let mut t = trainer(false);
        let mut last = EpochStats::default();
        for _ in 0..30 {
            last = t.train_epoch(&mut target, &aug, &train, &[]);
        }
        assert!(last.steps > 0);
        let p_good = target.predict_proba(&train[0].tokens);
        let p_bad = target.predict_proba(&train[1].tokens);
        assert!(p_good[1] > 0.7, "positive example scored {p_good:?}");
        assert!(p_bad[0] > 0.6, "negative example scored {p_bad:?}");
    }

    #[test]
    fn epoch_stats_are_populated() {
        let (train, aug) = toy_data();
        let mut target = BowTarget::new(&words(), 2, 0.2);
        let mut t = trainer(false);
        let stats = t.train_epoch(&mut target, &aug, &train, &[]);
        assert!(stats.steps >= 2);
        assert!(stats.train_loss > 0.0);
        assert!(stats.val_loss > 0.0);
        assert!((0.0..=1.0).contains(&stats.keep_rate));
        assert!(stats.mean_weight > 0.0);
    }

    #[test]
    fn ssl_consumes_unlabeled_pairs() {
        let (train, aug) = toy_data();
        let mk = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let unlabeled: Vec<(Vec<String>, Vec<String>)> = vec![
            (mk("the plot is good stuff"), mk("plot is good stuff")),
            (mk("the plot is bad stuff"), mk("the plot bad stuff")),
        ];
        let mut target = BowTarget::new(&words(), 2, 0.2);
        let mut t = trainer(true);
        // Must not panic and must still learn.
        for _ in 0..12 {
            t.train_epoch(&mut target, &aug, &train, &unlabeled);
        }
        let p_good = target.predict_proba(&mk("the plot is good stuff"));
        assert!(p_good[1] > 0.6);
    }

    #[test]
    fn ablations_disable_components() {
        let (train, aug) = toy_data();
        let mut target = BowTarget::new(&words(), 2, 0.2);
        let mut t = trainer(false);
        t.cfg.ablation = AblationConfig {
            disable_filter: true,
            disable_weighting: true,
            disable_l2: true,
        };
        let stats = t.train_epoch(&mut target, &aug, &train, &[]);
        // No filtering: every example enters a batch, so with batch 4 and a
        // 21-example pool we get at least 5 full steps.
        assert!(stats.steps >= 5, "steps {}", stats.steps);
        // Uniform weights (mean_weight accumulates exactly 1 per step).
        assert!((stats.mean_weight - 1.0).abs() < 1e-6);
    }

    #[test]
    fn guarded_epoch_with_healthy_run_matches_unguarded() {
        let (train, aug) = toy_data();
        let mut target_a = BowTarget::new(&words(), 2, 0.2);
        let mut target_b = BowTarget::new(&words(), 2, 0.2);
        let mut ta = trainer(false);
        let mut tb = trainer(false);
        let mut monitor = rotom_nn::HealthMonitor::new();
        for _ in 0..3 {
            let _ = ta.train_epoch(&mut target_a, &aug, &train, &[]);
            let _ = tb
                .train_epoch_guarded(&mut target_b, &aug, &train, &[], Some(&mut monitor))
                .unwrap();
        }
        assert_eq!(target_a.flat_params(), target_b.flat_params());
        assert!(monitor.step() > 0);
        assert!(monitor.events().is_empty());
    }

    #[test]
    fn state_roundtrip_resumes_bit_identically() {
        let (train, aug) = toy_data();
        // Uninterrupted reference: 4 epochs straight through.
        let mut target_a = BowTarget::new(&words(), 2, 0.2);
        let mut ta = trainer(false);
        for _ in 0..4 {
            let _ = ta.train_epoch(&mut target_a, &aug, &train, &[]);
        }
        // Checkpointed run: 2 epochs, full-state save through the text
        // format, restore into a *fresh* trainer, 2 more epochs.
        let mut target_b = BowTarget::new(&words(), 2, 0.2);
        let mut tb = trainer(false);
        for _ in 0..2 {
            let _ = tb.train_epoch(&mut target_b, &aug, &train, &[]);
        }
        let mut bag = StateBag::new();
        tb.save_state(&mut bag, "meta");
        bag.put_f32s("target", target_b.flat_params());
        let bag = StateBag::parse(&bag.serialize()).unwrap();
        let mut tc = trainer(false);
        tc.load_state(&bag, "meta").unwrap();
        let mut target_c = BowTarget::new(&words(), 2, 0.2);
        target_c.set_flat_params(bag.get_f32s("target").unwrap());
        for _ in 0..2 {
            let _ = tc.train_epoch(&mut target_c, &aug, &train, &[]);
        }
        assert_eq!(target_a.flat_params(), target_c.flat_params());
        assert_eq!(ta.val_baseline.to_bits(), tc.val_baseline.to_bits());
    }

    #[test]
    fn injected_nan_grad_halts_guarded_epoch() {
        let (train, aug) = toy_data();
        let mut target = BowTarget::new(&words(), 2, 0.2);
        let mut t = trainer(false);
        let mut monitor = rotom_nn::HealthMonitor::new();
        rotom_nn::faultpoint::arm("nan_grad@step=2").unwrap();
        let result = t.train_epoch_guarded(&mut target, &aug, &train, &[], Some(&mut monitor));
        rotom_nn::faultpoint::clear();
        let halt = result.unwrap_err();
        assert_eq!(halt.step, 2);
        assert!(halt.reason.contains("non-finite"), "{}", halt.reason);
        // The injected fault corrupted the parameters — exactly what the
        // driver's rollback must repair.
        assert!(target.flat_params().iter().any(|v| v.is_nan()));
    }

    #[test]
    fn parameters_restored_after_probes() {
        let (train, aug) = toy_data();
        let mut target = BowTarget::new(&words(), 2, 0.2);
        let mut t = trainer(false);
        let _ = t.train_epoch(&mut target, &aug, &train, &[]);
        // After an epoch, run a forward pass and record params; another
        // forward must not change them (probe arithmetic is balanced).
        let before = target.flat_params();
        let _ = target.predict_proba(&train[0].tokens);
        assert_eq!(before, target.flat_params());
    }
}
