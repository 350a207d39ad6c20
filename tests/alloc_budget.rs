//! Allocation-regression gate for the meta-training hot loop.
//!
//! The shared counting global allocator (`rotom_bench::alloc`, installed in
//! this test binary) measures bytes allocated per steady-state `MetaTrainer`
//! step and asserts the figure stays under a checked-in budget. The memory-plane work (tape arenas,
//! pooled tapes, lazy packed-panel cache) took the step from ~35 MB of
//! transient allocation down to well under 1 MB; this test keeps it there.
//!
//! The budget lives in `tests/golden/alloc_budget.txt` with built-in
//! headroom over the measured value. If a deliberate change shifts the
//! profile, regenerate with:
//!
//!   ROTOM_BLESS=1 cargo test --release --test alloc_budget
//!
//! and commit the file. The run pins `ROTOM_THREADS=1` (the variable is
//! read once per process) so the count is machine-independent.

use rotom::config::ModelConfig;
use rotom::TinyLm;
use rotom_bench::alloc;
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_meta::{MetaConfig, MetaTrainer};
use rotom_text::example::AugExample;

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

fn read_budget() -> Option<u64> {
    let text = std::fs::read_to_string(BUDGET_FILE).ok()?;
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            match (it.next(), it.next()) {
                (Some("bytes_per_step"), Some(v)) => v.parse().ok(),
                _ => None,
            }
        })
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

#[test]
fn steady_state_step_allocation_stays_under_budget() {
    let measured = measure_bytes_per_step();

    if blessing() {
        let budget = (measured * HEADROOM).ceil() as u64;
        let text = format!(
            "# Transient heap allocation budget for one steady-state meta-training\n\
             # step (MetaTrainer::train_epoch, TinyLm d_model=32 L=2, batch 16,\n\
             # pool 32, ROTOM_THREADS=1). Written as measured * {HEADROOM} by\n\
             # `ROTOM_BLESS=1 cargo test --release --test alloc_budget`.\n\
             bytes_per_step {budget}\n"
        );
        std::fs::write(BUDGET_FILE, text).expect("write alloc budget");
        println!("blessed {BUDGET_FILE}: measured {measured:.0} -> budget {budget}");
        return;
    }

    let budget = read_budget().unwrap_or_else(|| {
        panic!(
            "missing or unparseable {BUDGET_FILE}; regenerate with \
             `ROTOM_BLESS=1 cargo test --release --test alloc_budget` and commit it"
        )
    });
    assert!(
        measured <= budget as f64,
        "steady-state step allocated {measured:.0} bytes, over the checked-in \
         budget of {budget}. If this increase is intended, re-bless with \
         `ROTOM_BLESS=1 cargo test --release --test alloc_budget`."
    );
}
