//! Allocation-regression gates for the training hot loops.
//!
//! The shared counting global allocator (`rotom_bench::alloc`, installed in
//! this test binary) measures bytes allocated per steady-state step and
//! asserts the figure stays under a checked-in budget. Two budgets:
//!
//! * `bytes_per_step` — a `MetaTrainer` step on SST-2, whose sentences
//!   recur in a few shapes. The memory-plane work (tape arenas, pooled
//!   tapes, lazy packed-panel cache) took it from ~35 MB of transient
//!   allocation to well under 1 MB.
//! * `mixda_bytes_per_step` — a MixDA step (`TinyLm::mixda_loss_backward`
//!   plus the optimizer) on variable-length Abt-Buy pairs at the benchmark's
//!   shapes. Every measured batch brings token counts its tape has not
//!   seen, so this is the line that catches a tape arena whose free list
//!   misses on unseen lengths.
//!
//! The budgets live in `tests/golden/alloc_budget.txt` with built-in
//! headroom over the measured values. If a deliberate change shifts the
//! profile, regenerate with:
//!
//!   ROTOM_BLESS=1 cargo test --release --test alloc_budget
//!
//! and commit the file. Each run pins `ROTOM_THREADS=1` (the variable is
//! read once per process) so the count is machine-independent, and the
//! tests take turns: the allocator counts every thread. They share the
//! process-global tape pool, so whichever runs second finds warmer arenas
//! and reads up to ~10% lower; the headroom covers either order.

use rotom::config::ModelConfig;
use rotom::TinyLm;
use rotom_augment::{apply, DaContext, DaOp};
use rotom_bench::alloc;
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_datasets::{em, EmConfig, EmFlavor};
use rotom_meta::{MetaConfig, MetaTrainer};
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;
use rotom_text::example::AugExample;
use std::sync::Mutex;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const BUDGET_FILE: &str = "tests/golden/alloc_budget.txt";
/// Headroom multiplier applied when blessing: the budget is written as
/// `measured * HEADROOM`, absorbing harness noise and small legitimate
/// drift without letting a real regression (arena leak, cache thrash,
/// reintroduced clone) slip through.
const HEADROOM: f64 = 1.5;

fn blessing() -> bool {
    std::env::var("ROTOM_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// One measurement at a time: the allocator counts every thread.
static SERIAL: Mutex<()> = Mutex::new(());

fn budget_lines() -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(BUDGET_FILE).unwrap_or_default();
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?.to_string(), it.next()?.parse().ok()?))
        })
        .collect()
}

/// Write `key`'s budget as `measured * HEADROOM`, keeping the other lines.
fn bless(key: &str, measured: f64) {
    let budget = (measured * HEADROOM).ceil() as u64;
    let mut lines = budget_lines();
    lines.retain(|(k, _)| k != key);
    lines.push((key.to_string(), budget));
    lines.sort();
    let mut text = format!(
        "# Transient heap allocation budgets per steady-state training step,\n\
         # ROTOM_THREADS=1. bytes_per_step: MetaTrainer::train_epoch, TinyLm\n\
         # d_model=32 L=2, batch 16, SST-2 pool 32. mixda_bytes_per_step:\n\
         # TinyLm::mixda_loss_backward + step, d_model=32 L=2 max_len=72,\n\
         # batch 16, Abt-Buy pairs. Written as measured * {HEADROOM} by\n\
         # `ROTOM_BLESS=1 cargo test --release --test alloc_budget`.\n"
    );
    for (k, v) in &lines {
        text.push_str(&format!("{k} {v}\n"));
    }
    std::fs::write(BUDGET_FILE, text).expect("write alloc budget");
    println!("blessed {BUDGET_FILE} {key}: measured {measured:.0} -> budget {budget}");
}

/// Compare a measurement against its checked-in budget (or bless it).
fn check_budget(key: &str, measured: f64) {
    if blessing() {
        bless(key, measured);
        return;
    }
    let budget = budget_lines()
        .into_iter()
        .find_map(|(k, v)| (k == key).then_some(v))
        .unwrap_or_else(|| {
            panic!(
                "missing or unparseable `{key}` in {BUDGET_FILE}; regenerate with \
                 `ROTOM_BLESS=1 cargo test --release --test alloc_budget` and commit it"
            )
        });
    assert!(
        measured <= budget as f64,
        "{key}: a steady-state step allocated {measured:.0} bytes, over the \
         checked-in budget of {budget}. If this increase is intended, re-bless \
         with `ROTOM_BLESS=1 cargo test --release --test alloc_budget`."
    );
}

/// Run the trainbench workload (scaled down) and return bytes allocated per
/// steady-state step.
fn measure_bytes_per_step() -> f64 {
    // `ROTOM_THREADS` is read once at first pool use; pin it before any
    // rotom code runs so the measurement is single-threaded everywhere.
    std::env::set_var("ROTOM_THREADS", "1");

    let data_cfg = TextClsConfig {
        train_pool: 32,
        test: 8,
        unlabeled: 8,
        seed: 11,
    };
    let task = textcls::generate(TextClsFlavor::Sst2, &data_cfg);
    let mut model_cfg = ModelConfig::default();
    model_cfg.pretrain_epochs = 0;
    model_cfg.pair_pretrain_epochs = 0;
    let corpus: Vec<Vec<String>> = task.train_pool.iter().map(|e| e.tokens.clone()).collect();
    let mut target = TinyLm::from_corpus(&corpus, task.num_classes, &model_cfg, 5e-4, 7);
    let aug: Vec<AugExample> = task.train_pool.iter().map(AugExample::identity).collect();
    let meta_cfg = MetaConfig {
        batch_size: 16,
        val_batch_size: 16,
        seed: 3,
        ..Default::default()
    };
    let enc_cfg = model_cfg.encoder(target.vocab().len());
    let mut trainer = MetaTrainer::new(task.num_classes, target.vocab().clone(), enc_cfg, meta_cfg);

    // Warm-up: grow arenas, pooled tapes, and optimizer state to steady
    // state before counting.
    for _ in 0..2 {
        trainer.train_epoch(&mut target, &aug, &task.train_pool, &[]);
    }

    let before = alloc::total_bytes();
    let mut steps = 0usize;
    for _ in 0..3 {
        let stats = trainer.train_epoch(&mut target, &aug, &task.train_pool, &[]);
        steps += stats.steps;
    }
    let bytes = alloc::total_bytes() - before;
    assert!(steps > 0, "no optimizer steps taken");
    bytes as f64 / steps as f64
}

/// One MixDA input: original tokens, augmented tokens, label.
type MixPair = (Vec<String>, Vec<String>, usize);

/// MixDA steps over variable-length Abt-Buy pairs at the benchmark shapes
/// (d_model 32, 4 heads, d_ff 64, 2 layers, max_len 72, batch 16); returns
/// bytes allocated per steady-state step, optimizer included.
fn measure_mixda_bytes_per_step() -> f64 {
    std::env::set_var("ROTOM_THREADS", "1");

    let em_cfg = EmConfig {
        num_entities: 160,
        train_pairs: 400,
        test_pairs: 200,
        seed: 0,
        ..EmConfig::default()
    };
    let task = em::generate(EmFlavor::AbtBuy, &em_cfg).to_task();
    let model_cfg = ModelConfig {
        d_model: 32,
        heads: 4,
        d_ff: 64,
        layers: 2,
        max_len: 72,
        pretrain_epochs: 0,
        pair_pretrain_epochs: 0,
        ..ModelConfig::default()
    };
    let corpus: Vec<Vec<String>> = task.train_pool.iter().map(|e| e.tokens.clone()).collect();
    let mut model = TinyLm::from_corpus(&corpus, task.num_classes, &model_cfg, 5e-4, 7);

    // Batches of (original, span-deleted, label) pairs, built up front so
    // only the training step is counted. Warm-up and measurement run on
    // different pairs: each measured batch brings token counts its tape
    // has not seen in that combination, as in a real epoch.
    let mut rng = StdRng::seed_from_u64(5);
    let da_ctx = DaContext::default();
    let batches: Vec<Vec<MixPair>> = task.train_pool[..384]
        .chunks(16)
        .map(|chunk| {
            chunk
                .iter()
                .map(|e| {
                    let aug = apply(DaOp::SpanDel, &e.tokens, &da_ctx, &mut rng);
                    (e.tokens.clone(), aug, e.label)
                })
                .collect()
        })
        .collect();
    let (warm, measured) = batches.split_at(8);
    let mut train = |batches: &[Vec<MixPair>]| {
        for pairs in batches {
            model.mixda_loss_backward(pairs, 0.8, &mut rng);
            model.step();
        }
    };

    // Warm-up: grow the pooled tape's arena and the optimizer state.
    train(warm);
    let before = alloc::total_bytes();
    train(measured);
    let bytes = alloc::total_bytes() - before;
    bytes as f64 / measured.len() as f64
}

#[test]
fn steady_state_step_allocation_stays_under_budget() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    check_budget("bytes_per_step", measure_bytes_per_step());
}

#[test]
fn mixda_step_allocation_stays_under_budget() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    check_budget("mixda_bytes_per_step", measure_mixda_bytes_per_step());
}
