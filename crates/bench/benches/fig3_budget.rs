//! Figure 3 — F1 vs labeling budget, for EM (upper panel, budgets 300–750 in
//! the paper) and EDT (lower panel, 50–200 labeled cells), comparing the
//! five methods (plus Raha's 20-tuple horizontal line for EDT).
//!
//! Output: one series block per dataset, one row per budget — the series the
//! paper plots.

use rotom::Method;
use rotom_baselines::run_raha;
use rotom_bench::{Cell, Grid, GridRow, Suite};
use rotom_datasets::edt::{self, EdtFlavor};
use rotom_datasets::em::{self, EmFlavor};

/// One dataset's series: a row per budget, a column per method, then
/// `extra` (Raha's line) on every row.
fn series(suite: &Suite, title: &str, name: &str, budgets: &[usize], ctx_seed: u64, extra: &[f32]) {
    let mut columns: Vec<String> = Method::ALL.iter().map(|m| m.name().to_string()).collect();
    if !extra.is_empty() {
        columns.push("Raha(20-tpl)".to_string());
    }
    let cells: Vec<Cell> = (budgets.iter())
        .flat_map(|&b| Method::ALL.map(|m| Cell::new(name, b, m, ctx_seed)))
        .collect();
    let results = suite.run(&cells);
    let mut grid = Grid::new(title, &["Budget"], &columns, false);
    for (budget, row) in budgets.iter().zip(results.chunks(Method::ALL.len())) {
        let values = row.iter().map(|c| c.mean).chain(extra.iter().copied());
        grid.rows
            .push(GridRow::new(vec![budget.to_string()], values.collect()));
    }
    grid.print();
}

fn main() {
    let suite = Suite::from_env();
    println!(
        "Figure 3: F1 vs labeling budget ({:?} scale; EM budgets {:?}, EDT budgets {:?})",
        suite.scale, suite.em_budgets, suite.edt_budgets
    );

    // In quick mode sweep a representative subset of datasets; full mode
    // sweeps all ten like the paper.
    let (em_flavors, edt_flavors): (Vec<EmFlavor>, Vec<EdtFlavor>) = match suite.scale {
        rotom_bench::Scale::Quick => (
            vec![EmFlavor::AbtBuy, EmFlavor::DblpAcm],
            vec![EdtFlavor::Beers, EdtFlavor::Movies],
        ),
        rotom_bench::Scale::Full => (EmFlavor::ALL.to_vec(), EdtFlavor::ALL.to_vec()),
    };

    // Upper panel: EM.
    for flavor in em_flavors {
        let name = em::generate(flavor, &suite.em).name;
        let title = format!("Figure 3 (EM): {name} — F1 vs budget");
        series(&suite, &title, &name, &suite.em_budgets, 23, &[]);
    }

    // Lower panel: EDT (+ the Raha 20-tuple reference line).
    for flavor in edt_flavors {
        let data = edt::generate(flavor, &suite.edt);
        let raha_f1 = run_raha(&data, 20, 0).prf1.f1;
        let title = format!("Figure 3 (EDT): {} — F1 vs budget", data.name);
        series(
            &suite,
            &title,
            &data.name,
            &suite.edt_budgets,
            29,
            &[raha_f1],
        );
    }
}
