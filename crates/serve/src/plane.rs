//! Serving planes: one hot-swappable model slot per task family.
//!
//! A [`TaskPlane`] owns one [`TinyLm`] behind an `RwLock` and maps it to one
//! scoring endpoint (`/match`, `/clean`, `/classify`). Scoring takes the
//! read lock and runs the tape-free [`TinyLm::score_batch`]; a hot swap
//! (`TaskPlane::swap`) takes the write lock and loads a checkpoint into
//! the live model. The lock is what makes swap-under-load sound at the
//! *request* granularity — a batch holds the read lock for its entire
//! forward pass, so every response is computed wholly under the old or
//! wholly under the new weights, never a torn mix. Every parameter write
//! during the checkpoint load bumps that entry's generation and detaches a
//! **fresh [`ParamPacks`](rotom_nn::ParamPacks) slot** (`rotom_nn::params`),
//! so packed GEMM panels are re-packed lazily under the new weights and
//! never mix generations.
//!
//! The plane is also the only owner of score memoization: an optional LRU
//! score cache sits in the slot beside the model. A batch looks every
//! input up serially, scores only the misses, and stores their rows, so
//! the hit and miss counts depend on the inputs alone, never on how the
//! pool schedules the misses. A successful swap clears the entries under
//! the write lock, so a cached score never crosses a swap; a rejected
//! checkpoint writes nothing into the model, so it keeps them.
//!
//! Each plane carries a `swaps` counter updated under the same write lock;
//! responses echo it (with the parameter `generation_sum`) so clients — and
//! the concurrent-swap test — can attribute every score to one exact
//! parameter state.

use crate::cache::ScoreCache;
use crate::metrics::CacheStats;
use rotom::{ModelConfig, TinyLm};
use rotom_datasets::{
    edt::{self, EdtConfig, EdtFlavor},
    em::{self, EmConfig, EmFlavor},
    textcls::{self, TextClsConfig, TextClsFlavor},
    TaskKind,
};
use rotom_nn::{CheckpointError, RotomPool};
use std::path::Path;
use std::sync::{Mutex, PoisonError, RwLock};

/// The scoring endpoints the server exposes, one per Rotom task family.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    pub(crate) fn from_name(name: &str) -> Option<Endpoint> {
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

/// Everything guarded by a plane's lock: the model, the swap counter and
/// the score cache (updated together, under the write lock, so a reader
/// always sees a matched set). Readers share the cache through its mutex.
struct Slot {
    model: TinyLm,
    swaps: u64,
    cache: Option<Mutex<ScoreCache>>,
}

/// One batch's scores, stamped with the exact parameter state that produced
/// them.
#[derive(Debug)]
pub struct ScoredBatch {
    /// Per-input class probabilities, input order preserved.
    pub scores: Vec<Vec<f32>>,
    /// The plane's swap counter at scoring time (0 = boot weights).
    pub generation: u64,
    /// The parameter store's monotone generation fingerprint.
    pub param_generation: u64,
}

/// Outcome of a successful hot swap.
#[derive(Debug)]
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
    slot: RwLock<Slot>,
}

impl TaskPlane {
    /// Wrap `model` as the serving slot for `endpoint`.
    pub fn new(endpoint: Endpoint, model_name: impl Into<String>, model: TinyLm) -> Self {
        Self {
            endpoint,
            model_name: model_name.into(),
            slot: RwLock::new(Slot {
                model,
                swaps: 0,
                cache: None,
            }),
        }
    }

    /// The endpoint this plane serves.
    pub(crate) fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// Name of the model/dataset the plane was built for (payload metadata).
    pub(crate) fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Score a batch on the tape-free inference plane under the read lock,
    /// serving repeats from the score cache when it is enabled. The swap
    /// counter and parameter fingerprint are captured under the same lock,
    /// so they describe exactly the weights that produced the scores.
    ///
    /// Two serve-side faultpoints fire here (before the lock, so a stalled
    /// batch never blocks a hot swap): `slow_score` stalls the batch for
    /// its argument in milliseconds (default 200 — long enough to trip a
    /// test-sized wedge timeout), `score_panic` panics. Both are one-shot
    /// and armed only via [`rotom_nn::faultpoint::arm_global`]/`ROTOM_FAULT`;
    /// the disarmed check is one relaxed atomic load.
    pub fn score<S: AsRef<[String]> + Sync>(&self, inputs: &[S], pool: &RotomPool) -> ScoredBatch {
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
        let slot = self.slot.read().unwrap_or_else(PoisonError::into_inner);
        let scores = match &slot.cache {
            Some(cache) => score_cached(&slot.model, cache, inputs, pool),
            None => slot.model.score_batch(inputs, pool),
        };
        ScoredBatch {
            scores,
            generation: slot.swaps,
            param_generation: slot.model.generation_sum(),
        }
    }

    /// Load a StateBag v2 checkpoint into the live model under the write
    /// lock, clearing the score cache's entries. In-flight batches drain
    /// first; batches queued behind the swap score wholly under the new
    /// weights.
    pub(crate) fn swap(&self, checkpoint: impl AsRef<Path>) -> Result<SwapInfo, CheckpointError> {
        let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        slot.model.load_checkpoint(checkpoint)?;
        if let Some(cache) = &mut slot.cache {
            cache
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        slot.swaps += 1;
        Ok(SwapInfo {
            generation: slot.swaps,
            param_generation: slot.model.generation_sum(),
        })
    }

    /// Replace the score cache with an empty one of `capacity` entries
    /// (counters from zero), or disable it (`capacity == 0`).
    pub fn set_score_cache(&self, capacity: usize) {
        let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
        slot.cache = (capacity > 0).then(|| Mutex::new(ScoreCache::with_capacity(capacity)));
    }

    /// Score-cache statistics `(hits, misses, evictions, entries)`, if the
    /// cache is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let slot = self.slot.read().unwrap_or_else(PoisonError::into_inner);
        slot.cache.as_ref().map(|c| lock(c).stats())
    }
}

fn lock(cache: &Mutex<ScoreCache>) -> std::sync::MutexGuard<'_, ScoreCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Score `inputs` through `cache`: look every input up in order, score the
/// misses in one [`TinyLm::score_batch`] pass, and store their rows. The
/// cache lock is not held while the misses are scored.
fn score_cached<S: AsRef<[String]>>(
    model: &TinyLm,
    cache: &Mutex<ScoreCache>,
    inputs: &[S],
    pool: &RotomPool,
) -> Vec<Vec<f32>> {
    let mut scores: Vec<Option<Vec<f32>>> = {
        let mut cache = lock(cache);
        inputs
            .iter()
            .map(|x| cache.lookup(x.as_ref()).map(<[f32]>::to_vec))
            .collect()
    };
    let missed: Vec<usize> = (0..inputs.len()).filter(|&i| scores[i].is_none()).collect();
    if !missed.is_empty() {
        let batch: Vec<&[String]> = missed.iter().map(|&i| inputs[i].as_ref()).collect();
        let fresh = model.score_batch(&batch, pool);
        let mut cache = lock(cache);
        for (&i, probs) in missed.iter().zip(fresh) {
            cache.insert(inputs[i].as_ref(), &probs);
            scores[i] = Some(probs);
        }
    }
    scores
        .into_iter()
        .map(|s| s.expect("every miss was scored"))
        .collect()
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
        let num_classes = model.num_classes();
        let plane = TaskPlane::new(Endpoint::Classify, name, model);
        let pool = RotomPool::new(2);
        let inputs = vec![rotom_text::tokenize("a fine movie")];
        let out = plane.score(&inputs, &pool);
        assert_eq!(out.scores.len(), 1);
        assert_eq!(out.scores[0].len(), num_classes);
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

    #[test]
    fn rejected_swap_changes_nothing() {
        // A checkpoint of the same vocabulary whose head has 5 classes: every
        // tensor before the head fits, the head does not.
        let cfg = demo_model_config();
        let (model, name) = demo_model(TaskKind::TextClassification, &cfg, 1);
        let five = TinyLm::new(model.vocab().clone(), 5, &cfg, 5e-4, 2);
        let dir = std::env::temp_dir().join("rotom_serve_plane_rejected_swap");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("five_classes.ckpt");
        five.save_checkpoint(&ckpt).unwrap();
        let plane = TaskPlane::new(Endpoint::Classify, name, model);
        plane.set_score_cache(8);
        let pool = RotomPool::new(1);
        let inputs = vec![rotom_text::tokenize("a fine movie")];
        let before = plane.score(&inputs, &pool);
        let stats = plane.cache_stats();
        assert!(matches!(
            plane.swap(&ckpt),
            Err(CheckpointError::Mismatch(m)) if m.contains("lm.head.w")
        ));
        assert_eq!(plane.cache_stats(), stats, "cache entries kept");
        // Rescore uncached too, so the model itself is checked, not a hit.
        plane.set_score_cache(0);
        let after = plane.score(&inputs, &pool);
        assert_eq!(bits(&after.scores), bits(&before.scores));
        assert_eq!(after.generation, before.generation);
        assert_eq!(after.param_generation, before.param_generation);
        let _ = std::fs::remove_file(ckpt);
    }

    fn bits(rows: &[Vec<f32>]) -> Vec<u32> {
        rows.iter().flatten().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn cache_counts_and_scores_are_pool_width_invariant() {
        let cfg = demo_model_config();
        let texts = [
            "a fine movie",
            "dull",
            "a fine movie",
            "so so",
            "dull",
            "a fine movie",
        ];
        let inputs: Vec<Vec<String>> = texts.iter().map(|t| rotom_text::tokenize(t)).collect();
        let (model, _) = demo_model(TaskKind::TextClassification, &cfg, 1);
        let uncached = bits(&model.score_batch(&inputs, &RotomPool::new(1)));
        let stats = [1usize, 8].map(|width| {
            let (model, name) = demo_model(TaskKind::TextClassification, &cfg, 1);
            let plane = TaskPlane::new(Endpoint::Classify, name, model);
            plane.set_score_cache(16);
            let pool = RotomPool::new(width);
            for pass in 0..3 {
                let scores = plane.score(&inputs, &pool).scores;
                assert_eq!(bits(&scores), uncached, "width {width}, pass {pass}");
            }
            plane.cache_stats().expect("cache enabled")
        });
        assert_eq!(stats[0], stats[1], "counts must not depend on the pool");
        // Every lookup of the first pass misses, duplicates included; the
        // two later passes hit on every input. Three distinct inputs.
        assert_eq!(stats[0], (12, 6, 0, 3));
    }

    #[test]
    fn swap_clears_cache_entries_but_keeps_counters() {
        let cfg = demo_model_config();
        let (model, name) = demo_model(TaskKind::TextClassification, &cfg, 1);
        let dir = std::env::temp_dir().join("rotom_serve_plane_cache_swap");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("same.ckpt");
        model.save_checkpoint(&ckpt).unwrap();
        let plane = TaskPlane::new(Endpoint::Classify, name, model);
        plane.set_score_cache(8);
        let pool = RotomPool::new(1);
        let inputs = vec![rotom_text::tokenize("a fine movie")];
        plane.score(&inputs, &pool);
        plane.score(&inputs, &pool);
        assert_eq!(plane.cache_stats(), Some((1, 1, 0, 1)));
        plane.swap(&ckpt).unwrap();
        assert_eq!(plane.cache_stats(), Some((1, 1, 0, 0)), "entries cleared");
        plane.score(&inputs, &pool);
        assert_eq!(plane.cache_stats(), Some((1, 2, 0, 1)), "rescored once");
        let _ = std::fs::remove_file(ckpt);
    }
}
