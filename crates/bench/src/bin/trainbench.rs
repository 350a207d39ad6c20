//! End-to-end meta-training step benchmark: steps/sec and bytes allocated
//! per steady-state step, written to `BENCH_train.json`.
//!
//! The workload is one Rotom Algorithm-2 step driven by [`MetaTrainer`] over
//! a TinyLm target (the hot loop of every pipeline run): batch assembly with
//! windowed prefetch scoring, weighting-model forward, phase-1 weighted
//! backward + optimizer step, phase-2 virtual step, validation backward and
//! the two finite-difference probes, at 1 and 8 workers.
//!
//! Gate (`--check`): steps/sec at least 0.8x the checked-in `current`.
//!
//!   cargo run --release --offline --bin trainbench [-- --check]

use rotom::config::ModelConfig;
use rotom::TinyLm;
use rotom_bench::record::{self, Args, Bench, Ratio, Ref, Row, Rule};
use rotom_bench::{alloc, best_rate, Scale};
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_meta::{MetaConfig, MetaTrainer};
use rotom_text::example::AugExample;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: trainbench [--check]";

/// One measured child process: run the meta-training hot loop at the current
/// `ROTOM_THREADS` setting.
fn run_child() -> Row {
    // Deterministic small-but-realistic task: the default TinyLm encoder
    // (d_model 32, 2 layers) over a synthetic sentiment task; the augmented
    // pool is identity augmentations so no InvDA model is involved.
    let data_cfg = TextClsConfig {
        train_pool: 64,
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

    let quick = Scale::from_env(Scale::Full) == Scale::Quick;
    let (warmup_epochs, blocks, epochs_per_block) = if quick { (1, 1, 2) } else { (2, 5, 3) };

    // Steps/sec of the fastest block (see `best_rate`). Its untimed first
    // pass is the warmup (`warmup_epochs` epochs); every later pass is one
    // block. Bytes/step is taken over the timed blocks (allocation is
    // deterministic).
    let mut epochs = warmup_epochs;
    let mut log: Vec<(usize, u64)> = Vec::with_capacity(blocks + 1);
    let steps_per_sec = best_rate(blocks, || {
        let bytes_before = alloc::total_bytes();
        let steps: usize = (0..epochs)
            .map(|_| {
                trainer
                    .train_epoch(&mut target, &aug, &task.train_pool, &[])
                    .steps
            })
            .sum();
        log.push((steps, alloc::total_bytes() - bytes_before));
        epochs = epochs_per_block;
        steps as f64
    });
    let timed = &log[1..];
    let steps: usize = timed.iter().map(|&(s, _)| s).sum();
    let bytes: u64 = timed.iter().map(|&(_, b)| b).sum();
    assert!(steps > 0, "no optimizer steps taken");

    Row::new()
        .num("threads", rotom_nn::RotomPool::global().threads() as f64, 0)
        .num("steps_per_sec", steps_per_sec, 4)
        .num("bytes_per_step", bytes as f64 / steps as f64, 1)
}

fn main() {
    let args = Args::from_env(USAGE, &[]);
    Bench {
        file: "BENCH_train.json",
        workload: "MetaTrainer::train_epoch, TinyLm d_model=32 L=2, batch 16, pool 64".into(),
        current: record::per_thread_count("TRAINBENCH", run_child),
        extra: Vec::new(),
        trajectory: &[
            Ratio::of("steps_per_sec_ratio", "steps_per_sec", 3),
            Ratio::inverse("bytes_reduction", "bytes_per_step", 2),
        ],
        rules: &[Rule::at_least("steps_per_sec", 0.8, Ref::Previous)],
    }
    .finish(args.check);
}
