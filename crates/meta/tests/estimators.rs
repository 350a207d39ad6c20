//! Validation of the two meta-gradient estimators against ground truth.
//!
//! 1. **DARTS finite differences (Eq. 4).** The weighting model `M_W` is
//!    trained by an approximation of `∇M_W Lossval(M − η∇M Losstrain)`. On a
//!    tiny logistic-regression target where the full objective
//!    `F(θ_W) = Lossval(M − η∇M Losstrain(M, w̃(θ_W)))` can be evaluated
//!    exactly, brute-force central differences of `F` give the true gradient
//!    and [`WeightModel::estimate_meta_grad`] must track its direction and
//!    scale.
//! 2. **REINFORCE (Eq. 3).** On a bandit-sized filtering problem with a known
//!    optimum (one helpful augmentation, one poisonous one), the filter must
//!    learn to keep the former and drop the latter.

use rotom_meta::{FilterModel, WeightModel};
use rotom_nn::TransformerConfig;
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::tokenize;
use rotom_text::vocab::Vocab;

// ---------------------------------------------------------------------------
// A tiny, fully transparent target model: logistic regression over
// bag-of-words counts. Every gradient below is hand-derived, so the only
// approximation under test is the meta-estimator itself.
// ---------------------------------------------------------------------------

const WORDS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
const K: usize = 2;

fn feats(tokens: &[String]) -> Vec<f32> {
    let mut f = vec![0.0f32; WORDS.len()];
    for t in tokens {
        if let Some(j) = WORDS.iter().position(|w| w == t) {
            f[j] += 1.0;
        }
    }
    f
}

fn probs(m: &[f32], x: &[f32]) -> Vec<f32> {
    let logits: Vec<f32> = (0..K)
        .map(|k| x.iter().enumerate().map(|(j, &v)| v * m[j * K + k]).sum())
        .collect();
    rotom_nn::softmax_slice(&logits)
}

fn ce(m: &[f32], x: &[f32], y: usize) -> f32 {
    -probs(m, x)[y].max(1e-9).ln()
}

/// Mean weighted cross-entropy and its gradient w.r.t. the target params.
fn weighted_loss_grad(m: &[f32], batch: &[(Vec<f32>, usize)], weights: &[f32]) -> Vec<f32> {
    let n = batch.len() as f32;
    let mut g = vec![0.0f32; m.len()];
    for ((x, y), &w) in batch.iter().zip(weights) {
        let p = probs(m, x);
        for (j, &xj) in x.iter().enumerate() {
            for k in 0..K {
                let indicator = if k == *y { 1.0 } else { 0.0 };
                g[j * K + k] += w * xj * (p[k] - indicator) / n;
            }
        }
    }
    g
}

fn mean_val_loss(m: &[f32], val: &[(Vec<f32>, usize)]) -> f32 {
    val.iter().map(|(x, y)| ce(m, x, *y)).sum::<f32>() / val.len() as f32
}

fn val_grad(m: &[f32], val: &[(Vec<f32>, usize)]) -> Vec<f32> {
    weighted_loss_grad(m, val, &vec![1.0; val.len()])
}

fn tiny_weight_model() -> (WeightModel, Vec<(Vec<String>, f32)>) {
    let corpus: Vec<Vec<String>> = vec![tokenize(
        "alpha beta gamma delta epsilon zeta alpha beta gamma",
    )];
    let refs: Vec<&[String]> = corpus.iter().map(|s| s.as_slice()).collect();
    // 32 is below the 104 fixed entries: a character-level vocabulary.
    let vocab = Vocab::build(refs, 32);
    let cfg = TransformerConfig {
        vocab: 0,
        d_model: 8,
        heads: 2,
        d_ff: 16,
        layers: 1,
        max_len: 8,
    };
    let wm = WeightModel::new(vocab, cfg, 1e-3, 7);
    let items: Vec<(Vec<String>, f32)> = vec![
        (tokenize("alpha beta"), 0.1),
        (tokenize("gamma delta gamma"), 0.4),
        (tokenize("epsilon zeta"), 0.2),
        (tokenize("beta delta zeta"), 0.3),
    ];
    (wm, items)
}

/// Labeled feature vectors: `(features, class)`.
type Labeled = Vec<(Vec<f32>, usize)>;

fn darts_fixture() -> (Vec<f32>, Labeled, Labeled) {
    let mut rng = StdRng::seed_from_u64(0xD1);
    let m0: Vec<f32> = (0..WORDS.len() * K)
        .map(|_| rng.random_range(-0.5f32..=0.5))
        .collect();
    // Train batch aligned with the four weight-model items above.
    let train: Labeled = vec![
        (feats(&tokenize("alpha beta")), 0),
        (feats(&tokenize("gamma delta gamma")), 1),
        (feats(&tokenize("epsilon zeta")), 0),
        (feats(&tokenize("beta delta zeta")), 1),
    ];
    let val: Labeled = vec![
        (feats(&tokenize("alpha alpha beta")), 0),
        (feats(&tokenize("gamma delta")), 1),
        (feats(&tokenize("epsilon epsilon")), 0),
        (feats(&tokenize("zeta delta")), 1),
    ];
    (m0, train, val)
}

/// The full meta-objective `F(θ_W)`: weight the train batch with `M_W(θ)`,
/// take one exact SGD step on the target, return the validation loss.
fn meta_objective(
    wm: &mut WeightModel,
    theta: &[f32],
    items: &[(Vec<String>, f32)],
    m0: &[f32],
    train: &[(Vec<f32>, usize)],
    val: &[(Vec<f32>, usize)],
    eta: f32,
) -> f32 {
    wm.set_flat_params(theta);
    let item_refs: Vec<(&[String], f32)> =
        items.iter().map(|(t, l2)| (t.as_slice(), *l2)).collect();
    let weights = wm.forward_batch(&item_refs).normalized();
    let g = weighted_loss_grad(m0, train, &weights);
    let m1: Vec<f32> = m0.iter().zip(&g).map(|(p, gi)| p - eta * gi).collect();
    mean_val_loss(&m1, val)
}

#[test]
fn darts_estimate_tracks_exact_meta_gradient() {
    let (mut wm, items) = tiny_weight_model();
    let (m0, train, val) = darts_fixture();
    let eta = 0.5; // exaggerated target lr keeps F's variation above f32 noise
    let eps = 0.01; // probe scale, as in MetaConfig::epsilon
    let theta0 = wm.flat_params();

    // --- Eq.-4 estimate, mirroring trainer.rs phase 2 exactly ---
    let item_refs: Vec<(&[String], f32)> =
        items.iter().map(|(t, l2)| (t.as_slice(), *l2)).collect();
    let batch = wm.forward_batch(&item_refs);
    let weights = batch.normalized();
    let g = weighted_loss_grad(&m0, &train, &weights);
    let m1: Vec<f32> = m0.iter().zip(&g).map(|(p, gi)| p - eta * gi).collect();
    let v = val_grad(&m1, &val);
    let m_plus: Vec<f32> = m0.iter().zip(&v).map(|(p, vi)| p + eps * vi).collect();
    let m_minus: Vec<f32> = m0.iter().zip(&v).map(|(p, vi)| p - eps * vi).collect();
    let c_plus: Vec<f32> = train.iter().map(|(x, y)| ce(&m_plus, x, *y)).collect();
    let c_minus: Vec<f32> = train.iter().map(|(x, y)| ce(&m_minus, x, *y)).collect();
    let estimate = wm.estimate_meta_grad(batch, &c_plus, &c_minus, eta, eps);
    assert_eq!(estimate.len(), theta0.len());

    // The in-graph objective sums (rather than averages) the per-example
    // terms, so the estimate carries an extra factor of the batch size
    // relative to the mean-loss objective F.
    let n = items.len() as f32;
    let estimate: Vec<f32> = estimate.iter().map(|e| e / n).collect();

    // --- Brute-force ground truth: central differences of F over θ_W ---
    let delta = 2e-3f32;
    let stride = 3; // every 3rd coordinate: ~270 of ~800, plenty for cosine
    let mut exact_s = Vec::new();
    let mut est_s = Vec::new();
    let mut k = 0;
    while k < theta0.len() {
        let mut th = theta0.clone();
        th[k] = theta0[k] + delta;
        let fp = meta_objective(&mut wm, &th, &items, &m0, &train, &val, eta);
        th[k] = theta0[k] - delta;
        let fm = meta_objective(&mut wm, &th, &items, &m0, &train, &val, eta);
        exact_s.push((fp - fm) / (2.0 * delta));
        est_s.push(estimate[k]);
        k += stride;
    }
    wm.set_flat_params(&theta0);

    // Direction: strong positive cosine similarity between the estimated and
    // exact meta-gradients over the sampled coordinates.
    let dot: f32 = exact_s.iter().zip(&est_s).map(|(a, b)| a * b).sum();
    let na: f32 = exact_s.iter().map(|a| a * a).sum::<f32>().sqrt();
    let nb: f32 = est_s.iter().map(|b| b * b).sum::<f32>().sqrt();
    assert!(
        na > 0.0 && nb > 0.0,
        "degenerate gradients: |exact|={na} |est|={nb}"
    );
    let cosine = dot / (na * nb);
    assert!(
        cosine > 0.7,
        "DARTS estimate diverges from exact meta-gradient: cosine {cosine:.3}"
    );

    // Magnitude: the norms agree within an order of magnitude (the estimate
    // replaces one second derivative with a finite difference, so exact
    // equality is not expected).
    let ratio = nb / na;
    assert!(
        (0.2..=5.0).contains(&ratio),
        "estimate magnitude off: |est|/|exact| = {ratio:.3}"
    );

    // Sign agreement on the coordinates that matter: among the sampled
    // coordinates with above-median exact magnitude, at least 80% of the
    // estimated entries point the same way.
    let mut mags: Vec<f32> = exact_s.iter().map(|a| a.abs()).collect();
    mags.sort_by(f32::total_cmp);
    let median = mags[mags.len() / 2];
    let (mut agree, mut total) = (0usize, 0usize);
    for (a, b) in exact_s.iter().zip(&est_s) {
        if a.abs() >= median && a.abs() > 0.0 {
            total += 1;
            if a.signum() == b.signum() {
                agree += 1;
            }
        }
    }
    assert!(total > 20, "too few significant coordinates: {total}");
    let frac = agree as f32 / total as f32;
    assert!(
        frac >= 0.8,
        "sign agreement {frac:.2} ({agree}/{total}) below 0.8"
    );
}

// ---------------------------------------------------------------------------
// REINFORCE on a two-armed filtering bandit with a known optimum.
// ---------------------------------------------------------------------------

#[test]
fn reinforce_solves_filtering_bandit() {
    // Arm "good": an augmentation close to the original (small KL features)
    // whose inclusion lowers the validation loss by 0.2. Arm "bad": a
    // distribution-shifting augmentation whose inclusion raises it by 1.0.
    // The optimal policy keeps good and drops bad; expected loss 0.3 − 0.2 =
    // 0.1 vs ~0.7 for the uniform policy.
    let f_good = FilterModel::features(&[1.0, 0.0], &[0.8, 0.2], &[0.7, 0.3]);
    let f_bad = FilterModel::features(&[0.0, 1.0], &[0.9, 0.1], &[0.1, 0.9]);

    let mut filter = FilterModel::new(2, 0.05, 11);
    let mut rng = StdRng::seed_from_u64(42);
    let mut baseline = 0.0f32;
    let mut baseline_ready = false;

    for _ in 0..400 {
        let mut kept = Vec::new();
        let mut loss = 0.3f32;
        if filter.sample_keep(&f_good, &mut rng) {
            kept.push(f_good.clone());
            loss -= 0.2;
        }
        if filter.sample_keep(&f_bad, &mut rng) {
            kept.push(f_bad.clone());
            loss += 1.0;
        }
        // Same running-mean baseline scheme as MetaTrainer.
        let reward = if baseline_ready { loss - baseline } else { 0.0 };
        if baseline_ready {
            baseline = 0.9 * baseline + 0.1 * loss;
        } else {
            baseline = loss;
            baseline_ready = true;
        }
        filter.reinforce_update(&kept, reward);
    }

    let p_good = filter.prob_keep(&f_good);
    let p_bad = filter.prob_keep(&f_bad);
    assert!(
        p_good > 0.8,
        "filter should keep the helpful augmentation: p_keep = {p_good:.3}"
    );
    assert!(
        p_bad < 0.2,
        "filter should drop the poisonous augmentation: p_keep = {p_bad:.3}"
    );
    // Known-optimum check: the learned policy's expected loss approaches the
    // optimal 0.1 and beats the uniform policy's 0.7.
    let expected = 0.3 - 0.2 * p_good + 1.0 * p_bad;
    assert!(
        expected < 0.3,
        "learned policy expected loss {expected:.3} not close to optimum 0.1"
    );
}
