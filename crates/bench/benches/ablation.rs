//! Ablation study (beyond the paper, per DESIGN.md): quantify each
//! meta-learning component by disabling it — the filtering model, the
//! weighting model, and the L2 uncertainty term of Eq. 2 — on one dataset
//! per domain.

use rotom::{AblationConfig, Method};
use rotom_bench::{Cell, Grid, GridRow, Suite, Variant};
use rotom_datasets::{
    edt::{self, EdtFlavor},
    em::{self, EmFlavor},
    textcls::{self, TextClsFlavor},
};

fn main() {
    let suite = Suite::from_env();
    println!(
        "Ablation: Rotom components on one dataset per domain ({:?} scale)",
        suite.scale
    );

    let columns = [
        (em::generate(EmFlavor::WalmartAmazon, &suite.em).name, 240),
        (edt::generate(EdtFlavor::Beers, &suite.edt).name, 200),
        (
            textcls::generate(TextClsFlavor::Trec, &suite.textcls).name,
            100,
        ),
    ];

    let off = |disable_filter, disable_weighting, disable_l2| AblationConfig {
        disable_filter,
        disable_weighting,
        disable_l2,
    };
    let variants = [
        ("Rotom (full)", off(false, false, false)),
        ("- filtering", off(true, false, false)),
        ("- weighting", off(false, true, false)),
        ("- L2 term", off(false, false, true)),
        ("- both models", off(true, true, true)),
    ];

    let cells: Vec<Cell> = (variants.iter())
        .flat_map(|(_, ablation)| {
            columns.iter().map(|(name, budget)| {
                Cell::new(name, *budget, Method::Rotom, 41)
                    .with(Variant::Ablation(ablation.clone()))
            })
        })
        .collect();
    let results = suite.run(&cells);

    let names: Vec<String> = columns.iter().map(|(n, _)| n.clone()).collect();
    let title = "Ablation: headline metric (x100)";
    let mut grid = Grid::new(title, &["Variant"], &names, false);
    for ((label, _), row) in variants.iter().zip(results.chunks(columns.len())) {
        let means = row.iter().map(|c| c.mean).collect();
        grid.rows.push(GridRow::new(vec![label.to_string()], means));
    }
    grid.print();
}
