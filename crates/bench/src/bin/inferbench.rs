//! Inference-plane benchmark: scored examples/sec on the tape path vs the
//! tape-free path, InvDA decode tokens/sec, and score-cache hit throughput,
//! written to `BENCH_infer.json`.
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
//! tape path at least 2x; the i8 tier at least 1.5x f32.
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
    let mut model = TinyLm::from_corpus(&batch, task.num_classes, &cfg.model, 5e-4, 7);
    assert!(model.score_cache().is_none(), "cache must start disabled");

    let pool = RotomPool::global();
    let quick = Scale::from_env(Scale::Full) == Scale::Quick;
    let passes = if quick { 3 } else { 9 };

    // Tape baseline: the pre-inference-plane scoring path, fanned out over
    // the same pool `score_batch` uses.
    let tape_s = time_best(passes, || {
        std::hint::black_box(pool.map(batch.len(), |i| model.predict_proba_tape(&batch[i])));
    });
    // Tape-free plane.
    let infer_s = time_best(passes, || {
        std::hint::black_box(model.score_batch(&batch, pool));
    });
    let tape_eps = batch.len() as f64 / tape_s;
    let infer_eps = batch.len() as f64 / infer_s;

    // Quantized i8 tier: same tape-free workload with the store flipped to
    // i8 GEMMs (measured while the cache is still disabled, so every pass
    // runs the full forward). Restored to f32 before the cache rows below.
    model.set_quant_mode(rotom_nn::QuantMode::I8);
    let quant_s = time_best(passes, || {
        std::hint::black_box(model.score_batch(&batch, pool));
    });
    model.set_quant_mode(rotom_nn::QuantMode::F32);
    let quant_eps = batch.len() as f64 / quant_s;

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

    // Score cache: populate once, then measure steady-state hit throughput.
    model.set_score_cache(4096);
    std::hint::black_box(model.score_batch(&batch, pool));
    let cache_s = time_best(passes, || {
        std::hint::black_box(model.score_batch(&batch, pool));
    });
    let (hits, misses) = model.score_cache().expect("cache enabled").hit_miss();
    assert!(hits > 0, "repeat scoring must hit the cache");
    assert_eq!(
        model.score_cache().expect("cache enabled").evictions(),
        0,
        "capacity 4096 holds the whole batch-64 working set"
    );
    let cache_hit_rate = hits as f64 / (hits + misses) as f64;
    let cache_eps = batch.len() as f64 / cache_s;

    // Eviction path: shrink the cache below the working set so every pass
    // churns through LRU eviction, and pin the capacity/eviction behavior
    // the steady-state row above never exercises (its 4096-entry cache
    // holds all 64 inputs). Scoring stays bit-identical either way; this
    // guards the bookkeeping, not the numbers.
    model.set_score_cache(BATCH / 2);
    let full = model.score_batch(&batch, pool);
    let evicting = model.score_batch(&batch, pool);
    assert_eq!(full, evicting, "eviction churn must not change scores");
    let cache = model.score_cache().expect("cache enabled");
    assert!(
        cache.evictions() > 0,
        "batch-64 through a {}-entry cache must evict",
        BATCH / 2
    );
    assert!(
        cache.len() <= BATCH / 2,
        "cache must stay within capacity ({} entries)",
        cache.len()
    );
    cache.emit_gauges();
    model.set_score_cache(0);

    Row::new()
        .num("threads", pool.threads() as f64, 0)
        .num("tape_examples_per_sec", tape_eps, 2)
        .num("infer_examples_per_sec", infer_eps, 2)
        .num("speedup_vs_tape", infer_eps / tape_eps, 3)
        .num("quant_examples_per_sec", quant_eps, 2)
        .num("quant_speedup_vs_f32", quant_eps / infer_eps, 3)
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
            Rule::at_least(
                "quant_examples_per_sec",
                1.5,
                Ref::Field("infer_examples_per_sec"),
            ),
            Rule::at_least("infer_examples_per_sec", 0.9, Ref::Baseline),
            Rule::at_least("decode_tokens_per_sec", 0.9, Ref::Baseline),
        ],
    }
    .finish(args.check);
}
