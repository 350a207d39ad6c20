//! Operator grid search — the hyper-parameter-search baseline Rotom's
//! meta-learning replaces.
//!
//! Pre-Rotom practice (§2.3, §6.6): "enumerate and pick the best-performing
//! single DA operator", or worse, try operator *pairs* — the paper puts the
//! pair grid at a 22× training-cost overhead. This module implements both
//! grids faithfully: train one model per configuration, select by validation
//! metric, report the winner and the total cost, so Figure 4's cost
//! comparison can be measured rather than asserted.

use rotom::pipeline::{run_method_with_base, PretrainedBase};
use rotom::{Method, RotomConfig, RunResult};
use rotom_augment::{apply, DaContext, DaOp};
use rotom_datasets::{TaskDataset, TaskKind};
use rotom_text::example::Example;
use std::time::Instant;

/// Which grid to search.
#[derive(Debug)]
pub enum Grid {
    /// One operator at a time (the common practice the paper cites).
    Single,
    /// Ordered pairs of token/span-level operators (the 22× grid of §6.6).
    Pairs,
}

/// Outcome of a grid search.
#[derive(Debug)]
pub struct GridSearchResult {
    /// The winning configuration's test result.
    pub best: RunResult,
    /// Human-readable description of the winning operators.
    pub best_ops: String,
    /// Number of configurations trained.
    pub configurations: usize,
    /// Total wall-clock seconds across all configurations.
    pub total_seconds: f32,
}

fn applicable_ops(kind: TaskKind, grid: Grid) -> Vec<Vec<DaOp>> {
    let singles: Vec<DaOp> = match kind {
        TaskKind::EntityMatching => DaOp::ALL.to_vec(),
        TaskKind::ErrorDetection => {
            let mut v = DaOp::TEXT_LEVEL.to_vec();
            v.push(DaOp::ColShuffle);
            v.push(DaOp::ColDel);
            v
        }
        TaskKind::TextClassification => DaOp::TEXT_LEVEL.to_vec(),
    };
    match grid {
        Grid::Single => singles.into_iter().map(|o| vec![o]).collect(),
        Grid::Pairs => {
            // The paper counts ordered combinations of 2 token-/span-level
            // operators.
            let base = DaOp::TEXT_LEVEL;
            let mut out = Vec::new();
            for &a in &base {
                for &b in &base {
                    out.push(vec![a, b]);
                }
            }
            out
        }
    }
}

/// Train one model per grid configuration (each epoch augments every
/// example with the configuration's operator sequence, MixDA-free plain
/// training on original + augmented examples), select by validation metric.
pub fn grid_search(
    task: &TaskDataset,
    train: &[Example],
    valid: &[Example],
    grid: Grid,
    cfg: &RotomConfig,
    base: Option<&PretrainedBase>,
    seed: u64,
) -> GridSearchResult {
    let configs = applicable_ops(task.kind, grid);
    let start = Instant::now();
    let mut best: Option<(f32, RunResult, String)> = None;
    let da_ctx = DaContext::default();
    for (ci, ops) in configs.iter().enumerate() {
        // Materialize the augmented training set for this configuration.
        let mut augmented = train.to_vec();
        let mut rng = rotom_rng::SeedableRng::seed_from_u64(seed ^ (ci as u64) << 20);
        for e in train {
            let mut t = e.tokens.clone();
            for &op in ops {
                t = apply(op, &t, &da_ctx, &mut rng);
            }
            augmented.push(Example::new(t, e.label));
        }
        let r = run_method_with_base(
            task,
            &augmented,
            valid,
            Method::Baseline,
            cfg,
            None,
            base,
            seed,
        );
        let val_metric = r.headline(task.kind);
        let label = ops.iter().map(|o| o.name()).collect::<Vec<_>>().join("+");
        if best.as_ref().is_none_or(|(m, _, _)| val_metric > *m) {
            best = Some((val_metric, r, label));
        }
    }
    let (_, mut best_run, best_ops) = best.expect("non-empty grid");
    best_run.method = format!("GridSearch[{best_ops}]");
    GridSearchResult {
        best: best_run,
        best_ops,
        configurations: configs.len(),
        total_seconds: start.elapsed().as_secs_f32(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};

    #[test]
    fn grid_sizes_match_paper_arithmetic() {
        // 6 token/span-level operators → 36 ordered pairs; the paper's "22x"
        // compares the pair grid (plus re-training) against a single run and
        // our count reproduces the combinatorial blow-up it refers to.
        assert_eq!(
            applicable_ops(TaskKind::TextClassification, Grid::Pairs).len(),
            36
        );
        assert_eq!(
            applicable_ops(TaskKind::TextClassification, Grid::Single).len(),
            6
        );
        assert_eq!(
            applicable_ops(TaskKind::EntityMatching, Grid::Single).len(),
            9
        );
    }

    #[test]
    fn single_grid_runs_and_reports_cost() {
        let dcfg = TextClsConfig {
            train_pool: 40,
            test: 30,
            unlabeled: 20,
            seed: 6,
        };
        let task = textcls::generate(TextClsFlavor::Sst2, &dcfg);
        let train = task.sample_train(20, 0);
        let mut cfg = RotomConfig::test_tiny();
        cfg.train.epochs = 1;
        let result = grid_search(&task, &train, &train, Grid::Single, &cfg, None, 0);
        assert_eq!(result.configurations, 6);
        assert!(result.total_seconds > 0.0);
        assert!(result.best.method.starts_with("GridSearch["));
    }
}
