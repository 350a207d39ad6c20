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
//! [`InvDa::generate`] through the forward-only decoder.
//!
//! Because `ROTOM_THREADS` is read once per process, the parent re-executes
//! itself once per thread count (1 and 8) and aggregates the children's
//! results. The first run records its numbers as the `baseline` section;
//! later runs preserve the existing baseline and update `current`.
//!
//! Usage:
//!   cargo run --release --offline --bin inferbench            # regenerate
//!   cargo run --release --offline --bin inferbench -- --check # + fail on
//!     >20% throughput regression or tape-free speedup dropping below 2x

use rotom::config::RotomConfig;
use rotom::TinyLm;
use rotom_augment::InvDa;
use rotom_bench::time_best;
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;
use std::fmt::Write as _;

const THREAD_COUNTS: [usize; 2] = [1, 8];
const CHILD_ENV: &str = "INFERBENCH_CHILD";
const OUT_FILE: &str = "BENCH_infer.json";
const BATCH: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Sample {
    threads: usize,
    tape_eps: f64,
    infer_eps: f64,
    speedup: f64,
    quant_eps: f64,
    decode_tok_s: f64,
    cache_eps: f64,
    cache_hit_rate: f64,
}

/// One measured child process: run the scoring and decode workloads at the
/// current `ROTOM_THREADS` setting and print a parseable result line.
fn run_child() {
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
    let quick = std::env::var("ROTOM_BENCH_SCALE").as_deref() == Ok("quick");
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

    println!(
        "INFERBENCH threads={} tape_eps={:.2} infer_eps={:.2} speedup={:.3} quant_eps={:.2} decode_tok_s={:.2} cache_eps={:.2} cache_hit_rate={:.4}",
        pool.threads(),
        tape_eps,
        infer_eps,
        infer_eps / tape_eps,
        quant_eps,
        decode_tok_s,
        cache_eps,
        cache_hit_rate,
    );
}

/// Extract `key=value` from a child's result line.
fn field(line: &str, key: &str) -> f64 {
    let pat = format!("{key}=");
    let start = line.find(&pat).unwrap_or_else(|| panic!("missing {key}")) + pat.len();
    let rest = &line[start..];
    let end = rest.find(' ').unwrap_or(rest.len());
    rest[..end].parse().expect("numeric field")
}

/// Pull samples out of one JSON section (`"baseline"` or `"current"`) of a
/// previous `BENCH_infer.json`. Hand-rolled: the workspace carries no serde.
fn parse_section(json: &str, section: &str) -> Vec<Sample> {
    let key = format!("\"{section}\": [");
    let Some(start) = json.find(&key) else {
        return Vec::new();
    };
    let body = &json[start + key.len()..];
    let Some(end) = body.find(']') else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for obj in body[..end].split('}') {
        if !obj.contains("\"threads\"") {
            continue;
        }
        let num = |k: &str| -> Option<f64> {
            let pat = format!("\"{k}\": ");
            let s = obj.find(&pat)? + pat.len();
            let rest = &obj[s..];
            let e = rest
                .find(|c: char| c != '-' && c != '+' && c != '.' && c != 'e' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..e].parse().ok()
        };
        if let (Some(t), Some(tape), Some(infer), Some(dec), Some(cache), Some(rate)) = (
            num("threads"),
            num("tape_examples_per_sec"),
            num("infer_examples_per_sec"),
            num("decode_tokens_per_sec"),
            num("cache_hit_examples_per_sec"),
            num("cache_hit_rate"),
        ) {
            out.push(Sample {
                threads: t as usize,
                tape_eps: tape,
                infer_eps: infer,
                speedup: infer / tape,
                // Absent in pre-quant files; 0.0 marks "not measured" and
                // is skipped by the quant gates below.
                quant_eps: num("quant_examples_per_sec").unwrap_or(0.0),
                decode_tok_s: dec,
                cache_eps: cache,
                cache_hit_rate: rate,
            });
        }
    }
    out
}

fn write_section(json: &mut String, name: &str, samples: &[Sample]) {
    let _ = writeln!(json, "  \"{name}\": [");
    for (i, s) in samples.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"threads\": {}, \"tape_examples_per_sec\": {:.2}, \"infer_examples_per_sec\": {:.2}, \"speedup_vs_tape\": {:.3}, \"quant_examples_per_sec\": {:.2}, \"quant_speedup_vs_f32\": {:.3}, \"decode_tokens_per_sec\": {:.2}, \"cache_hit_examples_per_sec\": {:.2}, \"cache_hit_rate\": {:.4}}}",
            s.threads, s.tape_eps, s.infer_eps, s.speedup, s.quant_eps, s.quant_eps / s.infer_eps, s.decode_tok_s, s.cache_eps, s.cache_hit_rate
        );
        json.push_str(if i + 1 < samples.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
}

fn main() {
    if std::env::var(CHILD_ENV).is_ok() {
        run_child();
        return;
    }
    let check = std::env::args().any(|a| a == "--check");
    let exe = std::env::current_exe().expect("current_exe");

    let mut current = Vec::new();
    for &threads in &THREAD_COUNTS {
        let out = std::process::Command::new(&exe)
            .env(CHILD_ENV, "1")
            .env("ROTOM_THREADS", threads.to_string())
            .output()
            .expect("spawn inferbench child");
        assert!(
            out.status.success(),
            "child (threads={threads}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("INFERBENCH "))
            .expect("child result line");
        let sample = Sample {
            threads,
            tape_eps: field(line, "tape_eps"),
            infer_eps: field(line, "infer_eps"),
            speedup: field(line, "speedup"),
            quant_eps: field(line, "quant_eps"),
            decode_tok_s: field(line, "decode_tok_s"),
            cache_eps: field(line, "cache_eps"),
            cache_hit_rate: field(line, "cache_hit_rate"),
        };
        println!(
            "batch-{} scoring, {} thread(s): tape {:.0} ex/s | tape-free {:.0} ex/s ({:.2}x) | i8 {:.0} ex/s ({:.2}x f32) | cache hits {:.0} ex/s (rate {:.2}) | decode {:.0} tok/s",
            BATCH,
            sample.threads,
            sample.tape_eps,
            sample.infer_eps,
            sample.speedup,
            sample.quant_eps,
            sample.quant_eps / sample.infer_eps,
            sample.cache_eps,
            sample.cache_hit_rate,
            sample.decode_tok_s,
        );
        current.push(sample);
    }

    let old = std::fs::read_to_string(OUT_FILE).unwrap_or_default();
    let baseline = {
        let b = parse_section(&old, "baseline");
        if b.is_empty() {
            println!("no existing baseline; recording this run as the baseline");
            current.clone()
        } else {
            b
        }
    };

    // Regression gate (ci.sh): tape-free scoring must stay within 20% of the
    // previously checked-in current numbers, and the tape-free plane must
    // keep its >=2x advantage over the tape path at every thread count.
    if check {
        let prev = parse_section(&old, "current");
        let mut failed = false;
        for p in &prev {
            let Some(now) = current.iter().find(|s| s.threads == p.threads) else {
                continue;
            };
            if now.infer_eps < 0.8 * p.infer_eps {
                eprintln!(
                    "inferbench: examples/sec regression at {} thread(s): {:.0} -> {:.0} (>20%)",
                    p.threads, p.infer_eps, now.infer_eps
                );
                failed = true;
            }
            if now.decode_tok_s < 0.8 * p.decode_tok_s {
                eprintln!(
                    "inferbench: decode tokens/sec regression at {} thread(s): {:.0} -> {:.0} (>20%)",
                    p.threads, p.decode_tok_s, now.decode_tok_s
                );
                failed = true;
            }
        }
        for s in &current {
            if s.speedup < 2.0 {
                eprintln!(
                    "inferbench: tape-free speedup at {} thread(s) is {:.2}x (< 2x floor)",
                    s.threads, s.speedup
                );
                failed = true;
            }
            if s.quant_eps < 1.5 * s.infer_eps {
                eprintln!(
                    "inferbench: i8 quant speedup at {} thread(s) is {:.2}x over f32 (< 1.5x floor)",
                    s.threads,
                    s.quant_eps / s.infer_eps
                );
                failed = true;
            }
        }
        // Trajectory gate: long-horizon drift against the recorded baseline
        // must stay within 10%, even when each per-PR step passed the 20%
        // current-vs-previous gate above (slow slides compound silently
        // otherwise).
        for s in &current {
            let Some(b) = baseline.iter().find(|x| x.threads == s.threads) else {
                continue;
            };
            for (what, now, base) in [
                ("infer examples/sec", s.infer_eps, b.infer_eps),
                ("decode tokens/sec", s.decode_tok_s, b.decode_tok_s),
            ] {
                if now < 0.9 * base {
                    eprintln!(
                        "inferbench: {what} trajectory slide at {} thread(s): ratio {:.3} vs baseline (< 0.9)",
                        s.threads,
                        now / base
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    let mut json = String::from("{\n");
    json.push_str(
        "  \"workload\": \"TinyLm batch-64 scoring (d_model=128, L=1) + InvDA decode (bench_small)\",\n",
    );
    write_section(&mut json, "baseline", &baseline);
    write_section(&mut json, "current", &current);
    json.push_str("  \"trajectory\": [\n");
    for (i, s) in current.iter().enumerate() {
        let b = baseline
            .iter()
            .find(|x| x.threads == s.threads)
            .copied()
            .unwrap_or(*s);
        let _ = write!(
            json,
            "    {{\"threads\": {}, \"infer_ratio\": {:.3}, \"decode_ratio\": {:.3}}}",
            s.threads,
            s.infer_eps / b.infer_eps,
            s.decode_tok_s / b.decode_tok_s
        );
        json.push_str(if i + 1 < current.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(OUT_FILE, &json).expect("write BENCH_infer.json");
    println!("wrote {OUT_FILE}");
}
