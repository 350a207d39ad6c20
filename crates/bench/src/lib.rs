//! `rotom-bench` — the experiment harness regenerating every table and
//! figure of the paper's evaluation (§6), plus the perf bins.
//!
//! Each `benches/*.rs` target (all `harness = false`) prints one table or
//! figure in the same row/series layout the paper uses. Absolute numbers
//! differ (CPU-sized stand-in models over synthetic benchmarks); the
//! *shape* — which method wins, by roughly what factor, where the
//! crossovers fall — is the reproduction target (see EXPERIMENTS.md).
//!
//! Scale is controlled by the `ROTOM_BENCH_SCALE` environment variable:
//! `quick` (default; single-digit minutes per table on one CPU core) or
//! `full` (closer to the paper's budgets; tens of minutes). `ROTOM_SEEDS`
//! overrides the number of repetitions (paper: 5). Both follow the
//! [`rotom_nn::env`] rule: a value that does not parse warns once and
//! falls back to the default.
//!
//! The perf bins (`perfsmoke`, `trainbench`, `inferbench`, `servebench`,
//! `blockbench`) each write one `BENCH_*.json` through [`record`], which
//! owns the file format, the child-per-thread-count driver, the `--check`
//! gate and the command line; [`alloc`] is their counting allocator. They
//! read `ROTOM_BENCH_SCALE` too, but default to full-size measurement.

#![warn(missing_docs)]

use rotom::pipeline::{prepare_base, run_method_with_base, PretrainedBase};
use rotom::{mean_std, Method, RotomConfig, RunResult};
use rotom_augment::InvDa;
use rotom_datasets::{EdtConfig, EmConfig, TaskDataset, TaskKind, TextClsConfig};

pub mod alloc;
pub mod record;

/// Harness scale.
#[derive(Debug, PartialEq)]
pub enum Scale {
    /// CI-sized: small pools, 1 seed.
    Quick,
    /// Paper-shaped: larger pools, more seeds.
    Full,
}

impl Scale {
    /// Read the scale from `ROTOM_BENCH_SCALE` (`quick` or `full`), or
    /// `default` when it is unset or invalid (see [`rotom_nn::env`]).
    pub fn from_env(default: Scale) -> Self {
        rotom_nn::env::read("ROTOM_BENCH_SCALE", Scale::parse).unwrap_or(default)
    }

    fn parse(v: &str) -> Result<Scale, String> {
        if v.eq_ignore_ascii_case("quick") {
            Ok(Scale::Quick)
        } else if v.eq_ignore_ascii_case("full") {
            Ok(Scale::Full)
        } else {
            Err("expected quick or full".to_string())
        }
    }
}

/// All knobs of one benchmark campaign.
#[derive(Debug)]
pub struct Suite {
    /// Scale the suite was built at.
    pub scale: Scale,
    /// Number of seeds (paper: 5).
    pub seeds: u64,
    /// EM generator config.
    pub em: EmConfig,
    /// EDT generator config.
    pub edt: EdtConfig,
    /// TextCLS generator config.
    pub textcls: TextClsConfig,
    /// Rotom training config.
    pub rotom: RotomConfig,
    /// Labeled train+valid budgets for the EM experiments (paper: 300–750).
    pub em_budgets: Vec<usize>,
    /// Labeled-cell budgets for the EDT experiments (paper: 50–200).
    pub edt_budgets: Vec<usize>,
    /// Train/valid sizes for the TextCLS experiments (paper: 100/300/500).
    pub textcls_sizes: Vec<usize>,
}

impl Suite {
    /// Build the suite for a scale.
    pub(crate) fn new(scale: Scale) -> Self {
        let seeds = rotom_nn::env::read("ROTOM_SEEDS", |v| match v.parse::<u64>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err("expected a positive integer".to_string()),
        })
        .unwrap_or(match scale {
            Scale::Quick => 1,
            Scale::Full => 3,
        });
        let mut rotom = RotomConfig::bench_small();
        match scale {
            Scale::Quick => Self {
                scale,
                seeds,
                em: EmConfig {
                    num_entities: 160,
                    train_pairs: 400,
                    test_pairs: 200,
                    ..Default::default()
                },
                edt: EdtConfig {
                    rows: Some(120),
                    ..Default::default()
                },
                textcls: TextClsConfig {
                    train_pool: 400,
                    test: 200,
                    unlabeled: 200,
                    ..Default::default()
                },
                rotom: {
                    rotom.train.epochs = 3;
                    rotom
                },
                em_budgets: vec![120, 240],
                edt_budgets: vec![50, 200],
                textcls_sizes: vec![100, 200],
            },
            Scale::Full => Self {
                scale,
                seeds,
                em: EmConfig {
                    num_entities: 400,
                    train_pairs: 1000,
                    test_pairs: 400,
                    ..Default::default()
                },
                edt: EdtConfig::default(),
                textcls: TextClsConfig::default(),
                rotom: {
                    rotom.train.epochs = 5;
                    rotom
                },
                em_budgets: vec![300, 450, 600, 750],
                edt_budgets: vec![50, 100, 150, 200],
                textcls_sizes: vec![100, 300, 500],
            },
        }
    }

    /// Suite at the scale selected by the environment (default `quick`).
    pub fn from_env() -> Self {
        Self::new(Scale::from_env(Scale::Quick))
    }

    /// The headline EM budget (largest in the sweep — the "≤750" of
    /// Table 8).
    pub fn em_headline_budget(&self) -> usize {
        *self.em_budgets.last().unwrap()
    }

    /// Per-domain training configuration (different sequence lengths, model
    /// sizes, and fine-tuning schedules suit the three task families; the
    /// paper likewise varies LM and epoch count per domain).
    pub fn rotom_for(&self, kind: TaskKind) -> RotomConfig {
        let mut cfg = self.rotom.clone();
        cfg.model.d_model = 32;
        cfg.model.heads = 4;
        cfg.model.d_ff = 64;
        cfg.model.layers = 2;
        match kind {
            TaskKind::EntityMatching => {
                cfg.model.max_len = 72;
                cfg.model.pretrain_epochs = 1;
                cfg.model.pair_pretrain_epochs = 30;
                cfg.train.epochs = 5;
                cfg.train.lr = 5e-4;
                cfg.invda.max_len = 72;
                cfg.invda.max_gen_len = 64;
            }
            TaskKind::ErrorDetection => {
                cfg.model.max_len = 40;
                cfg.model.pretrain_epochs = 1;
                cfg.model.pair_pretrain_epochs = 0;
                cfg.train.epochs = 12;
                cfg.train.lr = 3e-3;
            }
            TaskKind::TextClassification => {
                cfg.model.max_len = 32;
                cfg.model.pretrain_epochs = 2;
                cfg.model.pair_pretrain_epochs = 0;
                cfg.train.epochs = 5;
                cfg.train.lr = 1e-3;
            }
        }
        cfg
    }

    /// Prepare the per-dataset shared state: the domain config, the
    /// pre-trained TinyLm base, and the InvDA operator — all shared across
    /// methods, budgets, and seeds (the paper reuses the same pre-trained
    /// RoBERTa and per-task InvDA the same way).
    pub fn prepare(&self, task: &TaskDataset, seed: u64) -> TaskContext {
        let cfg = self.rotom_for(task.kind);
        let base = prepare_base(task, &cfg, seed);
        let corpus = task.sample_unlabeled(300, seed);
        let corpus = if corpus.is_empty() {
            task.train_pool
                .iter()
                .map(|e| e.tokens.clone())
                .take(200)
                .collect()
        } else {
            corpus
        };
        let invda = InvDa::train(&corpus, cfg.invda.clone(), seed);
        TaskContext { cfg, base, invda }
    }

    /// Run a method over `seeds` repetitions and average the headline
    /// metric.
    pub fn run_avg(
        &self,
        task: &TaskDataset,
        budget: usize,
        method: Method,
        ctx: &TaskContext,
        balanced: bool,
    ) -> AvgResult {
        let mut metrics = Vec::new();
        let mut seconds = Vec::new();
        let mut results = Vec::new();
        for seed in 0..self.seeds {
            let train = if balanced {
                task.sample_train_balanced(budget, seed)
            } else {
                task.sample_train(budget, seed)
            };
            let r = run_method_with_base(
                task,
                &train,
                &train,
                method,
                &ctx.cfg,
                Some(&ctx.invda),
                Some(&ctx.base),
                seed,
            );
            metrics.push(r.headline(task.kind));
            seconds.push(r.train_seconds);
            results.push(r);
        }
        let (mean, std) = mean_std(&metrics);
        let (sec_mean, _) = mean_std(&seconds);
        AvgResult {
            mean,
            std,
            seconds: sec_mean,
            results,
        }
    }
}

/// Shared per-dataset state: domain config, pre-trained base, and InvDA.
pub struct TaskContext {
    /// Domain-tuned configuration.
    pub cfg: RotomConfig,
    /// Pre-trained TinyLm checkpoint.
    pub base: PretrainedBase,
    /// Trained InvDA operator.
    pub invda: InvDa,
}

/// Seed-averaged outcome of one (dataset, method, budget) cell.
#[derive(Debug)]
pub struct AvgResult {
    /// Mean headline metric across seeds.
    pub mean: f32,
    /// Standard deviation across seeds.
    pub std: f32,
    /// Mean training seconds.
    pub seconds: f32,
    /// Underlying per-seed results.
    pub results: Vec<RunResult>,
}

/// Render a fixed-width table: header row + body rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a metric with the paper's percentage convention (e.g. `78.03`).
pub fn pct(v: f32) -> String {
    format!("{:.2}", v * 100.0)
}

/// Best (minimum) wall time for `f` over `runs` timed passes, in seconds
/// (one untimed warmup): [`best_rate`] with one unit of work per pass.
pub fn time_best(runs: usize, mut f: impl FnMut()) -> f64 {
    1.0 / best_rate(runs, || {
        f();
        1.0
    })
}

/// Best (maximum) rate of `f` over `runs` timed passes, in the units of
/// work each pass returns per second (one untimed warmup). The best pass is
/// the robust estimator on a shared machine: interference from co-tenants
/// only ever adds time, so the fastest pass is the closest observation of
/// the code's real cost, where a median swings by tens of percent from run
/// to run.
pub fn best_rate(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    f();
    (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            let units = f();
            units / t.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_is_small() {
        let s = Suite::new(Scale::Quick);
        assert!(s.em.train_pairs <= 500);
        assert_eq!(s.em_headline_budget(), 240);
    }

    #[test]
    fn scale_parser_rejects_typos() {
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("FULL"), Ok(Scale::Full));
        assert!(Scale::parse("fast").is_err());
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.7803), "78.03");
    }

    #[test]
    fn per_domain_configs_differ_where_it_matters() {
        let s = Suite::new(Scale::Quick);
        let em = s.rotom_for(TaskKind::EntityMatching);
        let edt = s.rotom_for(TaskKind::ErrorDetection);
        let txt = s.rotom_for(TaskKind::TextClassification);
        // EM needs pair pre-training and long sequences; the others don't.
        assert!(em.model.pair_pretrain_epochs > 0);
        assert_eq!(edt.model.pair_pretrain_epochs, 0);
        assert_eq!(txt.model.pair_pretrain_epochs, 0);
        assert!(em.model.max_len > edt.model.max_len);
        assert!(edt.model.max_len > txt.model.max_len);
    }

    #[test]
    fn full_scale_is_larger() {
        let q = Suite::new(Scale::Quick);
        let f = Suite::new(Scale::Full);
        assert!(f.em.train_pairs > q.em.train_pairs);
        assert!(f.em_budgets.last() > q.em_budgets.last());
    }
}
