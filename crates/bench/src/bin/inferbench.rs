//! Inference-plane benchmark: scored examples/sec on the tape path vs the
//! tape-free path, InvDA decode tokens/sec, and the hit throughput of a
//! serving plane's score cache (`/classify`), written to `BENCH_infer.json`.
//!
//! The workload is batch-64 classifier scoring with an inference-scale
//! model (d_model 128, 1 layer): the tape baseline maps
//! [`TinyLm::predict_proba_tape`] over the batch with the same worker pool
//! the tape-free [`TinyLm::score_batch`] uses, so the comparison isolates
//! the execution plane (tape nodes + arena writes vs forward-only kernels
//! with the CLS band tail), not the parallelism. Decode throughput drives
//! [`InvDa::generate`] through the forward-only decoder. Measured at 1 and
//! 8 workers.
//!
//! Gates (`--check`): tape-free scoring and decode at least 0.8x the
//! checked-in `current` and 0.9x the `baseline`; tape-free speedup over the
//! tape path at least 2x.
//!
//!   cargo run --release --offline --bin inferbench [-- --check]

use rotom::config::RotomConfig;
use rotom::TinyLm;
use rotom_augment::InvDa;
use rotom_bench::record::{self, Args, Bench, Ratio, Ref, Row, Rule};
use rotom_bench::{time_best, Scale};
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;
use rotom_serve::{Endpoint, TaskPlane};

const USAGE: &str = "usage: inferbench [--check]";
const BATCH: usize = 64;

/// One measured child process: run the scoring and decode workloads at the
/// current `ROTOM_THREADS` setting.
fn run_child() -> Row {
    let data_cfg = TextClsConfig {
        train_pool: BATCH,
        test: 8,
        unlabeled: 24,
        seed: 11,
    };
    let task = textcls::generate(TextClsFlavor::Sst2, &data_cfg);
    let mut cfg = RotomConfig::bench_small();
    // Inference-scale classifier: wide enough that one batch pass dominates
    // the pool's per-dispatch cost (thread spawns are ~1ms, which would
    // otherwise swamp a d_model=24 batch and hide the plane difference).
    cfg.model.d_model = 128;
    cfg.model.heads = 8;
    cfg.model.d_ff = 256;
    cfg.model.layers = 1;
    cfg.model.max_len = 48;
    // Scoring throughput does not depend on trained weights; skip the
    // pretraining phases so the child spends its time in the measured loop.
    cfg.model.pretrain_epochs = 0;
    cfg.model.pair_pretrain_epochs = 0;
    cfg.invda.epochs = 1;
    let batch: Vec<Vec<String>> = task.train_pool.iter().map(|e| e.tokens.clone()).collect();
    let model = TinyLm::from_corpus(&batch, task.num_classes, &cfg.model, 5e-4, 7);

    let pool = RotomPool::global();
    let quick = Scale::from_env(Scale::Full) == Scale::Quick;
    let passes = if quick { 3 } else { 9 };

    // Tape baseline: the pre-inference-plane scoring path, fanned out over
    // the same pool `score_batch` uses. `predict_proba_tape` runs the
    // full-rows tape forward, not training's [CLS] band: the ratio measures
    // the inference plane against the tape's full pass. A tape twin that ran
    // the band too would shrink the ratio with no change to the plane.
    let tape_s = time_best(passes, || {
        std::hint::black_box(pool.map(batch.len(), |i| model.predict_proba_tape(&batch[i])));
    });
    // Tape-free plane.
    let infer_s = time_best(passes, || {
        std::hint::black_box(model.score_batch(&batch, pool));
    });
    let tape_eps = batch.len() as f64 / tape_s;
    let infer_eps = batch.len() as f64 / infer_s;

    // InvDA decode: forward-only seq2seq generation, tokens emitted per
    // second. The RNG is reseeded per pass so the token count is the same
    // in every pass.
    let invda = InvDa::train(&task.unlabeled, cfg.invda, 5);
    let inputs: Vec<&[String]> = task.train_pool[..16]
        .iter()
        .map(|e| e.tokens.as_slice())
        .collect();
    let mut decode_tokens = 0usize;
    let decode_s = time_best(if quick { 2 } else { 3 }, || {
        let mut rng = StdRng::seed_from_u64(23);
        decode_tokens = 0;
        for toks in &inputs {
            decode_tokens += invda.generate(toks, &mut rng).len();
        }
    });
    assert!(decode_tokens > 0, "decode emitted no tokens");
    let decode_tok_s = decode_tokens as f64 / decode_s;

    // Score cache, through the serving plane that owns it: populate once,
    // then measure steady-state hit throughput. The plane looks inputs up
    // serially, so the counts are exact at any pool width: one miss per
    // input in the populate pass, then one hit per input per timed call.
    let plane = TaskPlane::new(Endpoint::Classify, task.name.clone(), model);
    plane.set_score_cache(4096);
    let uncached = std::hint::black_box(plane.score(&batch, pool).scores);
    let mut calls = 0u64;
    let cache_s = time_best(passes, || {
        calls += 1;
        std::hint::black_box(plane.score(&batch, pool));
    });
    let n = batch.len() as u64;
    let (hits, misses, evictions, _) = plane.cache_stats().expect("cache enabled");
    assert_eq!(
        (hits, misses, evictions),
        (calls * n, n, 0),
        "capacity 4096 holds the whole batch-{BATCH} working set"
    );
    let cache_hit_rate = hits as f64 / (hits + misses) as f64;
    let cache_eps = batch.len() as f64 / cache_s;

    // Eviction path: shrink the cache below the working set so every pass
    // churns through LRU eviction, and pin the capacity/eviction behavior
    // the steady-state row above never exercises. Scores stay bit-identical
    // to the uncached pass; this guards the bookkeeping, not the numbers.
    plane.set_score_cache(BATCH / 2);
    let bits =
        |rows: &[Vec<f32>]| -> Vec<u32> { rows.iter().flatten().map(|p| p.to_bits()).collect() };
    for _ in 0..2 {
        let scores = plane.score(&batch, pool).scores;
        assert_eq!(bits(&scores), bits(&uncached), "caching changed scores");
    }
    let (_, _, evictions, entries) = plane.cache_stats().expect("cache enabled");
    assert!(
        evictions > 0,
        "batch-{BATCH} through a {}-entry cache must evict",
        BATCH / 2
    );
    assert!(
        entries <= BATCH / 2,
        "cache must stay within capacity ({entries} entries)"
    );

    Row::new()
        .num("threads", pool.threads() as f64, 0)
        .num("tape_examples_per_sec", tape_eps, 2)
        .num("infer_examples_per_sec", infer_eps, 2)
        .num("speedup_vs_tape", infer_eps / tape_eps, 3)
        .num("decode_tokens_per_sec", decode_tok_s, 2)
        .num("cache_hit_examples_per_sec", cache_eps, 2)
        .num("cache_hit_rate", cache_hit_rate, 4)
}

fn main() {
    let args = Args::from_env(USAGE, &[]);
    Bench {
        file: "BENCH_infer.json",
        workload: "TinyLm batch-64 scoring (d_model=128, L=1) + InvDA decode (bench_small)".into(),
        current: record::per_thread_count("INFERBENCH", run_child),
        extra: Vec::new(),
        trajectory: &[
            Ratio::of("infer_ratio", "infer_examples_per_sec", 3),
            Ratio::of("decode_ratio", "decode_tokens_per_sec", 3),
        ],
        // The 0.8x-previous gates catch a step regression; the 0.9x-baseline
        // gates catch a slow slide that passes every per-PR step.
        rules: &[
            Rule::at_least("infer_examples_per_sec", 0.8, Ref::Previous),
            Rule::at_least("decode_tokens_per_sec", 0.8, Ref::Previous),
            Rule::at_least("speedup_vs_tape", 2.0, Ref::Absolute),
            Rule::at_least("infer_examples_per_sec", 0.9, Ref::Baseline),
            Rule::at_least("decode_tokens_per_sec", 0.9, Ref::Baseline),
        ],
    }
    .finish(args.check);
}
