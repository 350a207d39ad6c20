//! Hu et al. (NeurIPS'19): "Learning data manipulation for augmentation and
//! weighting".
//!
//! Two components, evaluated separately in the paper's Table 11:
//!
//! * **Learned DA** — an augmentation operator that modifies *at most one
//!   token*, replacing it with a token drawn from a learned substitution
//!   distribution; the distribution is trained with the validation loss as a
//!   REINFORCE reward.
//! * **Learned weighting** — per-example weights optimized so that the
//!   weighted update descends the validation loss (we reuse the same
//!   finite-difference probe machinery the Rotom weighting model uses, but
//!   over a *per-example weight table* instead of an LM — matching Hu et
//!   al.'s direct parameterization).
//!
//! The experimental contrast with Rotom (paper §6.5) is architectural: the
//! learned operator can only make single-token edits (far less diverse than
//! InvDA) and the weighting has no filtering stage.

use rotom::{evaluate, RotomConfig, RunResult, TinyLm};
use rotom_datasets::TaskDataset;
use rotom_meta::{MetaTarget, WeightedItem};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::example::Example;
use std::time::Instant;

/// Which Hu et al. component is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuVariant {
    /// Learned single-token augmentation only.
    LearnedDa,
    /// Learned augmentation + learned example weighting.
    LearnedDaPlusWeighting,
}

impl HuVariant {
    /// Table-11 row label.
    pub fn name(self) -> &'static str {
        match self {
            HuVariant::LearnedDa => "Hu et al. +Learned DA",
            HuVariant::LearnedDaPlusWeighting => "Hu et al. +Weighting",
        }
    }
}

/// A learned single-token substitution operator.
pub struct LearnedDaOp {
    /// Candidate substitution tokens (the corpus content vocabulary).
    candidates: Vec<String>,
    /// Logits of the substitution distribution.
    logits: Vec<f32>,
    lr: f32,
}

impl LearnedDaOp {
    /// Initialize a uniform substitution distribution over the corpus
    /// content tokens (capped for tractability).
    pub fn new(corpus: &[Vec<String>], cap: usize, lr: f32) -> Self {
        let mut seen = std::collections::HashMap::new();
        for seq in corpus {
            for tok in seq {
                if !rotom_text::token::is_special(tok) {
                    *seen.entry(tok.clone()).or_insert(0usize) += 1;
                }
            }
        }
        let mut ranked: Vec<(String, usize)> = seen.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let candidates: Vec<String> = ranked.into_iter().take(cap).map(|(t, _)| t).collect();
        let logits = vec![0.0f32; candidates.len()];
        Self {
            candidates,
            logits,
            lr,
        }
    }

    fn sample_token(&self, rng: &mut StdRng) -> (usize, String) {
        let probs = rotom_nn::softmax_slice(&self.logits);
        let mut r = rng.random_range(0.0..1.0f32);
        for (i, &p) in probs.iter().enumerate() {
            if r < p {
                return (i, self.candidates[i].clone());
            }
            r -= p;
        }
        let last = self.candidates.len() - 1;
        (last, self.candidates[last].clone())
    }

    /// Apply: replace one uniformly chosen non-special token with a sampled
    /// candidate. Returns the augmented tokens and the sampled candidate
    /// index (for the REINFORCE update).
    pub fn apply(&self, tokens: &[String], rng: &mut StdRng) -> (Vec<String>, Option<usize>) {
        let eligible: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !rotom_text::token::is_special(t))
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() || self.candidates.is_empty() {
            return (tokens.to_vec(), None);
        }
        let pos = eligible[rng.random_range(0..eligible.len())];
        let (ci, tok) = self.sample_token(rng);
        let mut out = tokens.to_vec();
        out[pos] = tok;
        (out, Some(ci))
    }

    /// REINFORCE update: reward > 0 reinforces the sampled candidates.
    pub fn update(&mut self, used: &[usize], reward: f32) {
        if used.is_empty() {
            return;
        }
        let probs = rotom_nn::softmax_slice(&self.logits);
        for &ci in used {
            // ∇ log softmax_ci = e_ci − probs; apply only the dominant term
            // plus a uniform pull-down (exact for single samples).
            for (j, l) in self.logits.iter_mut().enumerate() {
                let indicator = if j == ci { 1.0 } else { 0.0 };
                *l += self.lr * reward * (indicator - probs[j]);
            }
        }
    }
}

/// Run the Hu et al. baseline on a task.
pub fn run_hu(
    task: &TaskDataset,
    train: &[Example],
    valid: &[Example],
    variant: HuVariant,
    cfg: &RotomConfig,
    seed: u64,
) -> RunResult {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x40);
    let mut corpus: Vec<Vec<String>> = task.unlabeled.clone();
    corpus.extend(train.iter().map(|e| e.tokens.clone()));
    let mut model = TinyLm::from_corpus(&corpus, task.num_classes, &cfg.model, cfg.train.lr, seed);
    model.pretrain_mlm(
        &corpus.iter().take(200).cloned().collect::<Vec<_>>(),
        cfg.train.batch_size,
    );

    let mut op = LearnedDaOp::new(&corpus, 256, 0.1);
    // Per-example weight logits (Hu et al.'s direct parameterization).
    let mut weight_logits = vec![0.0f32; train.len()];
    let weighting = variant == HuVariant::LearnedDaPlusWeighting;
    let k = task.num_classes;

    let start = Instant::now();
    let mut best = (f32::NEG_INFINITY, model.flat_params());
    let mut val_curve = Vec::with_capacity(cfg.train.epochs);
    let mut prev_val = f32::INFINITY;
    for _ in 0..cfg.train.epochs {
        let mut order: Vec<usize> = (0..train.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut used_candidates = Vec::new();
        for chunk in order.chunks(cfg.train.batch_size) {
            let weights = rotom_nn::softmax_slice(&weight_logits);
            let mean_w: f32 = 1.0 / train.len() as f32;
            let items: Vec<WeightedItem> = chunk
                .iter()
                .flat_map(|&i| {
                    let e = &train[i];
                    let w = if weighting {
                        (weights[i] / mean_w).min(4.0)
                    } else {
                        1.0
                    };
                    let (aug, ci) = op.apply(&e.tokens, &mut rng);
                    if let Some(ci) = ci {
                        used_candidates.push(ci);
                    }
                    let mut orig = WeightedItem::hard(e.tokens.clone(), e.label, k);
                    orig.weight = w;
                    let mut aug_item = WeightedItem::hard(aug, e.label, k);
                    aug_item.weight = w;
                    [orig, aug_item]
                })
                .collect();
            model.weighted_loss_backward(&items, true, &mut rng);
            let g = model.flat_grads();
            model.optimizer_step();

            if weighting {
                // Probe the validation alignment of each example (same
                // finite-difference trick as Rotom, applied to the raw
                // per-example weight table).
                let eta = model.learning_rate();
                model.add_scaled(&g, -eta);
                let val_items: Vec<WeightedItem> = valid
                    .iter()
                    .take(cfg.meta.val_batch_size)
                    .map(|e| WeightedItem::hard(e.tokens.clone(), e.label, k))
                    .collect();
                model.weighted_loss_backward(&val_items, false, &mut rng);
                let v = model.flat_grads();
                model.add_scaled(&g, eta);
                let eps = cfg.meta.epsilon;
                let probe_items: Vec<WeightedItem> = chunk
                    .iter()
                    .map(|&i| WeightedItem::hard(train[i].tokens.clone(), train[i].label, k))
                    .collect();
                model.add_scaled(&v, eps);
                let c_plus = model.per_example_losses(&probe_items);
                model.add_scaled(&v, -2.0 * eps);
                let c_minus = model.per_example_losses(&probe_items);
                model.add_scaled(&v, eps);
                for (j, &i) in chunk.iter().enumerate() {
                    // Positive (c+ − c−) ⇒ up-weighting descends Lossval.
                    weight_logits[i] += 0.5 * (c_plus[j] - c_minus[j]) / (2.0 * eps) * eta;
                }
            }
        }
        // Validation-driven REINFORCE for the DA operator.
        let (val_acc, val_f1) = evaluate(&model, valid);
        let val_metric = match task.kind {
            rotom_datasets::TaskKind::TextClassification => val_acc,
            _ => val_f1.f1.max(val_acc * 0.5),
        };
        let val_loss = 1.0 - val_metric;
        let reward = prev_val - val_loss; // improvement
        prev_val = val_loss;
        op.update(&used_candidates, reward);
        val_curve.push(val_metric);
        if val_metric > best.0 {
            best = (val_metric, model.flat_params());
        }
    }
    model.set_flat_params(&best.1);
    let train_seconds = start.elapsed().as_secs_f32();

    let (acc, f1) = evaluate(&model, &task.test);
    RunResult {
        method: variant.name().to_string(),
        dataset: task.name.clone(),
        accuracy: acc,
        prf1: f1,
        train_seconds,
        train_size: train.len(),
        val_curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};

    fn task() -> TaskDataset {
        let cfg = TextClsConfig {
            train_pool: 60,
            test: 40,
            unlabeled: 40,
            seed: 8,
        };
        textcls::generate(TextClsFlavor::Sst2, &cfg)
    }

    #[test]
    fn learned_op_changes_at_most_one_token() {
        let corpus = vec![vec!["a".to_string(), "b".to_string(), "c".to_string()]];
        let op = LearnedDaOp::new(&corpus, 10, 0.1);
        let mut rng = StdRng::seed_from_u64(0);
        let tokens: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let (aug, _) = op.apply(&tokens, &mut rng);
        let diff = aug.iter().zip(&tokens).filter(|(a, b)| a != b).count();
        assert!(diff <= 1);
        assert_eq!(aug.len(), tokens.len());
    }

    #[test]
    fn reinforce_shifts_distribution() {
        let corpus = vec![vec!["a".to_string(), "b".to_string()]];
        let mut op = LearnedDaOp::new(&corpus, 10, 0.5);
        for _ in 0..10 {
            op.update(&[0], 1.0);
        }
        let probs = rotom_nn::softmax_slice(&op.logits);
        assert!(probs[0] > probs[1], "{probs:?}");
    }

    #[test]
    fn hu_variants_run() {
        let task = task();
        let train = task.sample_train(20, 1);
        let mut cfg = RotomConfig::test_tiny();
        cfg.train.epochs = 2;
        for variant in [HuVariant::LearnedDa, HuVariant::LearnedDaPlusWeighting] {
            let r = run_hu(&task, &train, &train, variant, &cfg, 2);
            assert!((0.0..=1.0).contains(&r.accuracy), "{}", r.method);
        }
    }
}
