//! Table 11 — Rotom vs Hu et al. '19 and Kumar et al. '20, each under that
//! work's own sampling regime:
//!
//! * Hu et al.: 40 training examples per class, 5 per class for validation.
//!   Paper datasets: IMDB / SST-5 / TREC. IMDB's long reviews exceed the
//!   stand-in max length, so SST-2 substitutes (same binary sentiment
//!   semantics; noted in DESIGN.md).
//! * Kumar et al.: a uniform 1% sample of the training set, 5 per class for
//!   validation. Datasets: SNIPS / SST-2 / TREC.

use rotom::{Method, RunResult};
use rotom_baselines::{run_hu, run_kumar, HuVariant, KumarVariant};
use rotom_bench::{Cell, Grid, GridRow, Scale, Suite, Variant};
use rotom_datasets::textcls::{self, TextClsFlavor};
use rotom_datasets::{TaskDataset, TaskKind};
use rotom_text::example::Example;

const METHODS: [Method; 4] = [
    Method::Baseline,
    Method::MixDa,
    Method::InvDa,
    Method::Rotom,
];

/// A competing work's row: its label and its run on (task, train, valid).
type Rival<'a> = (
    &'static str,
    &'a dyn Fn(&TaskDataset, &[Example], &[Example]) -> RunResult,
);

/// One panel: the LM methods on `flavors` through the cell runner, then
/// the competing work's variants on the same samples; every row is
/// compared with TinyLm's.
fn panel(
    suite: &Suite,
    title: &str,
    flavors: [TextClsFlavor; 3],
    variant: Variant,
    ctx_seed: u64,
    budget: impl Fn(&TaskDataset) -> usize,
    rivals: [Rival; 2],
) {
    let tasks: Vec<TaskDataset> = (flavors.iter())
        .map(|&f| textcls::generate(f, &suite.textcls))
        .collect();
    let names: Vec<String> = tasks.iter().map(|t| t.name.clone()).collect();
    let budget = &budget;
    let cells: Vec<Cell> = (METHODS.iter())
        .flat_map(|&m| {
            tasks
                .iter()
                .map(move |t| Cell::new(&t.name, budget(t), m, ctx_seed))
        })
        .map(|c| c.with(variant.clone()))
        .collect();
    let results = suite.run(&cells);
    let mut grid = Grid::new(title, &["Method"], &names, false);
    for (&m, row) in METHODS.iter().zip(results.chunks(tasks.len())) {
        grid.rows.push(GridRow::method(m, row));
    }
    for (name, run) in rivals {
        let accs = tasks.iter().zip(&cells).map(|(task, cell)| {
            let (train, valid) = cell.sample(task, 0);
            run(task, &train, &valid).accuracy
        });
        grid.rows
            .push(GridRow::new(vec![name.into()], accs.collect()));
    }
    for row in &mut grid.rows[1..] {
        row.vs = Some(0);
    }
    grid.print();
}

fn main() {
    let suite = Suite::from_env();
    println!(
        "Table 11: Rotom vs Hu et al. '19 and Kumar et al. '20 ({:?} scale)",
        suite.scale
    );
    let cfg = suite.rotom_for(TaskKind::TextClassification);
    use TextClsFlavor::{Snips, Sst2, Sst5, Trec};

    // Panel A — Hu et al. regime: 40 per class (quick scale: 20).
    let per_class = match suite.scale {
        Scale::Quick => 20,
        Scale::Full => 40,
    };
    use HuVariant::{LearnedDa, LearnedDaPlusWeighting};
    panel(
        &suite,
        &format!(
            "Table 11a: Hu et al. regime ({per_class}/class; paper's IMDB → SST-2, see DESIGN.md)"
        ),
        [Sst2, Sst5, Trec],
        Variant::PerClass,
        13,
        |_| per_class,
        [
            (LearnedDa.name(), &|t, train, valid| {
                run_hu(t, train, valid, LearnedDa, &cfg, 0)
            }),
            (LearnedDaPlusWeighting.name(), &|t, train, valid| {
                run_hu(t, train, valid, LearnedDaPlusWeighting, &cfg, 0)
            }),
        ],
    );

    // Panel B — Kumar et al. regime: "1%" of the original large pools ≈ a
    // few dozen examples; at least 2 per class so every label is present.
    use KumarVariant::{CgBart, CgBert};
    panel(
        &suite,
        "Table 11b: Kumar et al. regime (1% samples)",
        [Snips, Sst2, Trec],
        Variant::OnePercent,
        17,
        |t| (t.train_pool.len() / 10).max(t.num_classes * 2),
        [
            (CgBart.name(), &|t, train, valid| {
                run_kumar(t, train, valid, CgBart, &cfg, 0)
            }),
            (CgBert.name(), &|t, train, valid| {
                run_kumar(t, train, valid, CgBert, &cfg, 0)
            }),
        ],
    );
}
