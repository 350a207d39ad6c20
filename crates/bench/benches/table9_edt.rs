//! Table 9 — F1 scores on the 5 error-detection datasets.
//!
//! Raha is given 20 labeled tuples; the LM methods get at most 200 labeled
//! cells (strictly fewer labels than Raha on wide tables). Training sets are
//! class-balanced between clean and dirty cells (§6.2).

use rotom::Method;
use rotom_baselines::run_raha;
use rotom_bench::{Cell, Grid, GridRow, Suite};
use rotom_datasets::edt::{self, EdtFlavor};

fn main() {
    let suite = Suite::from_env();
    let budget = *suite.edt_budgets.last().unwrap();
    println!(
        "Table 9: EDT F1 with Raha @ 20 tuples vs LM methods @ {budget} cells ({:?} scale)",
        suite.scale
    );

    let datasets: Vec<_> = EdtFlavor::ALL
        .iter()
        .map(|&f| edt::generate(f, &suite.edt))
        .collect();
    let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
    let mut grid = Grid::new(
        "Table 9: Error-detection F1 (x100)",
        &["Method"],
        &names,
        true,
    );

    // Raha with 20 labeled tuples.
    let raha = datasets.iter().map(|d| run_raha(d, 20, 0).prf1.f1);
    grid.rows
        .push(GridRow::new(vec!["Raha (20-tpl)".into()], raha.collect()));

    // LM methods with ≤ `budget` labeled cells (balanced clean/dirty).
    let cells: Vec<Cell> = (Method::ALL.iter())
        .flat_map(|&m| names.iter().map(move |n| Cell::new(n, budget, m, 9)))
        .collect();
    let results = suite.run(&cells);
    for (&m, row) in Method::ALL.iter().zip(results.chunks(names.len())) {
        grid.rows.push(GridRow::method(m, row));
    }
    grid.print();
}
