//! Table 8 — F1 scores on the 5 EM datasets (plus 3 dirty variants) with at
//! most `em_headline_budget` training+validation examples.
//!
//! Rows follow the paper: DeepMatcher (full data), DM+TinyLm, TinyLm
//! baseline, Brunner et al., MixDA, InvDA, Rotom, Rotom+SSL.

use rotom::Method;
use rotom_baselines::deepmatcher::{DeepMatcher, DmConfig, DmEncoder};
use rotom_baselines::run_brunner;
use rotom_bench::{Cell, Grid, GridRow, Suite};
use rotom_datasets::em::{self, EmConfig, EmFlavor};
use rotom_datasets::TaskKind;

fn main() {
    let suite = Suite::from_env();
    let budget = suite.em_headline_budget();
    println!(
        "Table 8: EM F1 with at most {budget} train+valid examples ({:?} scale, {} seed(s))",
        suite.scale, suite.seeds
    );

    // Column per dataset: 5 clean + 3 dirty.
    let dirty = EmConfig {
        dirty: true,
        ..suite.em.clone()
    };
    let datasets: Vec<_> = (EmFlavor::ALL.iter().map(|&f| em::generate(f, &suite.em)))
        .chain(
            EmFlavor::WITH_DIRTY
                .iter()
                .map(|&f| em::generate(f, &dirty)),
        )
        .collect();
    let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
    let mut grid = Grid::new("Table 8: EM F1 (x100)", &["Method"], &names, false);

    // DeepMatcher trained on the FULL train pool (the paper's DM row uses
    // the full datasets) and the low-resource DM+TinyLm variant.
    for (label, encoder, full_data) in [
        ("DM (full)", DmEncoder::Gru, true),
        ("DM+TinyLm", DmEncoder::TinyLm, false),
    ] {
        let f1s = datasets.iter().map(|data| {
            let n = if full_data {
                data.train_pairs.len()
            } else {
                budget.min(data.train_pairs.len())
            };
            let idx: Vec<usize> = (0..n).collect();
            let cfg = DmConfig {
                epochs: if full_data { 12 } else { 6 },
                encoder,
                ..Default::default()
            };
            DeepMatcher::train(data, &idx, cfg, 0).evaluate(data).f1
        });
        grid.rows
            .push(GridRow::new(vec![label.into()], f1s.collect()));
    }

    // Brunner et al.: alternative serialization, baseline fine-tuning.
    let cfg = suite.rotom_for(TaskKind::EntityMatching);
    let f1s = datasets
        .iter()
        .map(|d| run_brunner(d, budget, &cfg, 0).prf1.f1);
    grid.rows
        .push(GridRow::new(vec!["Brunner et al.".into()], f1s.collect()));

    // The five LM methods over the [COL]/[VAL] serialization.
    let cells: Vec<Cell> = (Method::ALL.iter())
        .flat_map(|&m| names.iter().map(move |n| Cell::new(n, budget, m, 7)))
        .collect();
    let results = suite.run(&cells);
    for (&m, row) in Method::ALL.iter().zip(results.chunks(names.len())) {
        grid.rows.push(GridRow::method(m, row));
    }
    grid.print();
}
