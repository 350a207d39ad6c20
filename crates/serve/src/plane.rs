//! Serving planes: one hot-swappable model slot per task family.
//!
//! A [`TaskPlane`] owns one [`TinyLm`] behind an `RwLock` and maps it to one
//! scoring endpoint (`/match`, `/clean`, `/classify`). Scoring takes the
//! read lock and runs the tape-free [`TinyLm::score_batch`]; a hot swap
//! ([`TaskPlane::swap`]) takes the write lock and loads a checkpoint into
//! the live model. The lock is what makes swap-under-load sound at the
//! *request* granularity — a batch holds the read lock for its entire
//! forward pass, so every response is computed wholly under the old or
//! wholly under the new weights, never a torn mix. Below the lock, the
//! existing generation machinery makes the swap itself cheap and safe:
//!
//! * every parameter write during the checkpoint load bumps that entry's
//!   generation and detaches a **fresh [`ParamPacks`](rotom_nn::ParamPacks) slot**
//!   (`rotom_nn::params`), so packed GEMM panels are re-packed lazily under
//!   the new weights and never mix generations;
//! * the model's [`ScoreCache`](rotom_nn::ScoreCache), keyed on the store's
//!   monotone `generation_sum`, self-invalidates wholesale on the first
//!   lookup after the swap — a cached score can never cross a swap.
//!
//! Each plane carries a `swaps` counter updated under the same write lock;
//! responses echo it (with the parameter `generation_sum`) so clients — and
//! the concurrent-swap test — can attribute every score to one exact
//! parameter state.

use rotom::{ModelConfig, TinyLm};
use rotom_datasets::{
    edt::{self, EdtConfig, EdtFlavor},
    em::{self, EmConfig, EmFlavor},
    textcls::{self, TextClsConfig, TextClsFlavor},
    TaskKind,
};
use rotom_nn::{CheckpointError, RotomPool};
use std::path::Path;
use std::sync::RwLock;

/// The scoring endpoints the server exposes, one per Rotom task family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/match` — entity matching (binary: match / no-match).
    Match,
    /// `/clean` — error detection (binary: clean / dirty).
    Clean,
    /// `/classify` — text classification (k classes).
    Classify,
}

impl Endpoint {
    /// All endpoints, in route order.
    pub const ALL: [Endpoint; 3] = [Endpoint::Match, Endpoint::Clean, Endpoint::Classify];

    /// The HTTP route (`/match`, `/clean`, `/classify`).
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Match => "/match",
            Endpoint::Clean => "/clean",
            Endpoint::Classify => "/classify",
        }
    }

    /// The endpoint name without the slash (used in JSON payloads).
    pub fn name(self) -> &'static str {
        &self.path()[1..]
    }

    /// Parse an endpoint name (`"match"`, `"clean"`, `"classify"`).
    pub fn from_name(name: &str) -> Option<Endpoint> {
        Endpoint::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The task family this endpoint serves.
    pub fn task_kind(self) -> TaskKind {
        match self {
            Endpoint::Match => TaskKind::EntityMatching,
            Endpoint::Clean => TaskKind::ErrorDetection,
            Endpoint::Classify => TaskKind::TextClassification,
        }
    }
}

/// Everything guarded by a plane's lock: the model and the swap counter
/// (updated together, under the write lock, so a reader always sees a
/// matched pair).
struct Slot {
    model: TinyLm,
    swaps: u64,
}

/// One batch's scores, stamped with the exact parameter state that produced
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredBatch {
    /// Per-input class probabilities, input order preserved.
    pub scores: Vec<Vec<f32>>,
    /// The plane's swap counter at scoring time (0 = boot weights).
    pub generation: u64,
    /// The parameter store's monotone generation fingerprint.
    pub param_generation: u64,
}

/// Outcome of a successful hot swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapInfo {
    /// The plane's swap counter after the swap.
    pub generation: u64,
    /// The parameter fingerprint after the swap (strictly greater than any
    /// fingerprint scored under the old weights).
    pub param_generation: u64,
}

/// A hot-swappable model slot serving one endpoint.
pub struct TaskPlane {
    endpoint: Endpoint,
    model_name: String,
    num_classes: usize,
    slot: RwLock<Slot>,
}

impl TaskPlane {
    /// Wrap `model` as the serving slot for `endpoint`.
    pub fn new(endpoint: Endpoint, model_name: impl Into<String>, model: TinyLm) -> Self {
        let num_classes = model.num_classes();
        Self {
            endpoint,
            model_name: model_name.into(),
            num_classes,
            slot: RwLock::new(Slot { model, swaps: 0 }),
        }
    }

    /// The endpoint this plane serves.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// Name of the model/dataset the plane was built for (payload metadata).
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Number of classes in every score row.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Score a batch on the tape-free inference plane under the read lock.
    /// The swap counter and parameter fingerprint are captured under the
    /// same lock, so they describe exactly the weights that produced the
    /// scores.
    ///
    /// Two serve-side faultpoints fire here (before the lock, so a stalled
    /// batch never blocks a hot swap): `slow_score` stalls the batch for
    /// its argument in milliseconds (default 200 — long enough to trip a
    /// test-sized wedge timeout), `score_panic` panics. Both are one-shot
    /// and armed only via [`rotom_nn::faultpoint::arm_global`]/`ROTOM_FAULT`;
    /// the disarmed check is one relaxed atomic load.
    pub fn score(&self, inputs: &[Vec<String>], pool: &RotomPool) -> ScoredBatch {
        use rotom_nn::faultpoint::{self, FaultKind};
        if let Some(ms) = faultpoint::fire_global(FaultKind::SlowScore) {
            std::thread::sleep(std::time::Duration::from_millis(if ms == 0 {
                200
            } else {
                ms
            }));
        }
        if faultpoint::fire_global(FaultKind::ScorePanic).is_some() {
            panic!("injected score_panic faultpoint");
        }
        let slot = self.slot.read().unwrap_or_else(|e| e.into_inner());
        ScoredBatch {
            scores: slot.model.score_batch(inputs, pool),
            generation: slot.swaps,
            param_generation: slot.model.generation_sum(),
        }
    }

    /// Load a StateBag v2 (or legacy v1) checkpoint into the live model
    /// under the write lock. In-flight batches drain first; batches queued
    /// behind the swap score wholly under the new weights.
    pub fn swap(&self, checkpoint: impl AsRef<Path>) -> Result<SwapInfo, CheckpointError> {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        slot.model.load_checkpoint(checkpoint)?;
        slot.swaps += 1;
        Ok(SwapInfo {
            generation: slot.swaps,
            param_generation: slot.model.generation_sum(),
        })
    }

    /// Enable (capacity > 0) or disable the model's score cache.
    pub fn set_score_cache(&self, capacity: usize) {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        slot.model.set_score_cache(capacity);
    }

    /// Select the inference GEMM tier (f32 or quantized i8) for this plane's
    /// model. Taken under the write lock, so in-flight batches drain first
    /// and later batches score wholly under the new tier; the model's score
    /// cache self-invalidates because the tier is folded into its
    /// fingerprint.
    pub fn set_quant_mode(&self, mode: rotom_nn::QuantMode) {
        let mut slot = self.slot.write().unwrap_or_else(|e| e.into_inner());
        slot.model.set_quant_mode(mode);
    }

    /// The plane's active inference GEMM tier.
    pub fn quant_mode(&self) -> rotom_nn::QuantMode {
        let slot = self.slot.read().unwrap_or_else(|e| e.into_inner());
        slot.model.quant_mode()
    }

    /// Score-cache statistics `(hits, misses, evictions, entries)`, if the
    /// cache is enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64, u64, usize)> {
        let slot = self.slot.read().unwrap_or_else(|e| e.into_inner());
        slot.model.score_cache().map(|c| {
            let (h, m) = c.hit_miss();
            (h, m, c.evictions(), c.len())
        })
    }
}

/// The model configuration demo planes are built with: small enough to boot
/// in well under a second per plane, wide enough that batched scoring is
/// real work.
pub fn demo_model_config() -> ModelConfig {
    ModelConfig {
        d_model: 32,
        heads: 4,
        d_ff: 64,
        layers: 1,
        max_len: 48,
        vocab_size: 2048,
        // Construction-time only; the demo server boots with randomly
        // initialized (but seed-deterministic) weights and expects real
        // weights to arrive via `/admin/swap`.
        pretrain_epochs: 0,
        pair_pretrain_epochs: 0,
        ..ModelConfig::default()
    }
}

/// Build a deterministic demo model for one task family: a synthetic task
/// corpus from `rotom_datasets` fixes the vocabulary, and `seed` fixes the
/// initial weights. Two calls with the same arguments produce bit-identical
/// models — the property the serving equivalence tests lean on — and a
/// checkpoint saved from one loads into the other. Returns the model and
/// the synthetic dataset's name.
pub fn demo_model(kind: TaskKind, cfg: &ModelConfig, seed: u64) -> (TinyLm, String) {
    let (corpus, num_classes, name) = match kind {
        TaskKind::EntityMatching => {
            let data = em::generate(
                EmFlavor::AbtBuy,
                &EmConfig {
                    num_entities: 120,
                    train_pairs: 160,
                    test_pairs: 20,
                    seed,
                    ..EmConfig::default()
                },
            )
            .to_task();
            (plane_corpus(&data), data.num_classes, data.name)
        }
        TaskKind::ErrorDetection => {
            let data = edt::generate(
                EdtFlavor::Beers,
                &EdtConfig {
                    rows: Some(80),
                    seed,
                    ..EdtConfig::default()
                },
            )
            .to_task();
            (plane_corpus(&data), data.num_classes, data.name)
        }
        TaskKind::TextClassification => {
            let data = textcls::generate(
                TextClsFlavor::Sst2,
                &TextClsConfig {
                    train_pool: 160,
                    test: 20,
                    unlabeled: 40,
                    seed,
                },
            );
            (plane_corpus(&data), data.num_classes, data.name)
        }
    };
    (
        TinyLm::from_corpus(&corpus, num_classes, cfg, 5e-4, seed),
        name,
    )
}

/// The vocabulary-building corpus for a task: labeled pool + unlabeled
/// sequences.
fn plane_corpus(task: &rotom_datasets::TaskDataset) -> Vec<Vec<String>> {
    task.train_pool
        .iter()
        .map(|e| e.tokens.clone())
        .chain(task.unlabeled.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_names_roundtrip() {
        for e in Endpoint::ALL {
            assert_eq!(Endpoint::from_name(e.name()), Some(e));
            assert_eq!(e.path(), format!("/{}", e.name()));
        }
        assert_eq!(Endpoint::from_name("nope"), None);
    }

    #[test]
    fn demo_models_are_seed_deterministic() {
        let cfg = demo_model_config();
        let (a, name_a) = demo_model(TaskKind::TextClassification, &cfg, 3);
        let (b, name_b) = demo_model(TaskKind::TextClassification, &cfg, 3);
        assert_eq!(name_a, name_b);
        assert_eq!(a.snapshot(), b.snapshot());
        let (c, _) = demo_model(TaskKind::TextClassification, &cfg, 4);
        assert_ne!(a.snapshot(), c.snapshot());
    }

    #[test]
    fn plane_scores_and_stamps_generations() {
        let cfg = demo_model_config();
        let (model, name) = demo_model(TaskKind::TextClassification, &cfg, 1);
        let plane = TaskPlane::new(Endpoint::Classify, name, model);
        let pool = RotomPool::new(2);
        let inputs = vec![rotom_text::tokenize("a fine movie")];
        let out = plane.score(&inputs, &pool);
        assert_eq!(out.scores.len(), 1);
        assert_eq!(out.scores[0].len(), plane.num_classes());
        assert_eq!(out.generation, 0);
        assert!((out.scores[0].iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn swap_reloads_weights_and_bumps_generation() {
        let cfg = demo_model_config();
        let (model, name) = demo_model(TaskKind::TextClassification, &cfg, 1);
        // A second identically-seeded model plays the "trained elsewhere"
        // role: perturb it so the checkpoints differ.
        let (mut other, _) = demo_model(TaskKind::TextClassification, &cfg, 1);
        let dir = std::env::temp_dir().join("rotom_serve_plane_swap");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt_a = dir.join("a.ckpt");
        let ckpt_b = dir.join("b.ckpt");
        other.save_checkpoint(&ckpt_a).unwrap();
        use rotom_meta::MetaTarget;
        let delta = vec![0.01f32; other.flat_params().len()];
        other.add_scaled(&delta, 1.0);
        other.save_checkpoint(&ckpt_b).unwrap();

        let plane = TaskPlane::new(Endpoint::Classify, name, model);
        let pool = RotomPool::new(1);
        let inputs = vec![rotom_text::tokenize("a fine movie")];
        let before = plane.score(&inputs, &pool);
        let info = plane.swap(&ckpt_b).unwrap();
        assert_eq!(info.generation, 1);
        assert!(info.param_generation > before.param_generation);
        let after = plane.score(&inputs, &pool);
        assert_ne!(before.scores, after.scores, "weights actually changed");
        // Swapping back restores the original scores bit-exactly.
        plane.swap(&ckpt_a).unwrap();
        assert_eq!(plane.score(&inputs, &pool).scores, before.scores);
        let _ = std::fs::remove_file(ckpt_a);
        let _ = std::fs::remove_file(ckpt_b);
    }

    #[test]
    fn swap_rejects_mismatched_checkpoint() {
        let cfg = demo_model_config();
        let (model, name) = demo_model(TaskKind::TextClassification, &cfg, 1);
        let plane = TaskPlane::new(Endpoint::Classify, name, model);
        let dir = std::env::temp_dir().join("rotom_serve_plane_badswap");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.ckpt");
        std::fs::write(&bad, "not a checkpoint\n").unwrap();
        assert!(plane.swap(&bad).is_err());
        let inputs = vec![rotom_text::tokenize("a fine movie")];
        let gen = plane.score(&inputs, &RotomPool::new(1)).generation;
        assert_eq!(gen, 0, "failed swap must not bump the generation");
        let _ = std::fs::remove_file(bad);
    }
}
