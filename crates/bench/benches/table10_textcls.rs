//! Table 10 — accuracy on the 8 TextCLS datasets, varying the train/valid
//! sample size (paper: 100/300/500), for the five methods. The AVG column
//! reports the mean accuracy and the delta against the baseline at the same
//! size (the paper's "(+x.xx)" annotation).

use rotom::Method;
use rotom_bench::{label, Cell, Grid, GridRow, Suite};
use rotom_datasets::textcls::{self, TextClsFlavor};

fn main() {
    let suite = Suite::from_env();
    let sizes = &suite.textcls_sizes;
    println!(
        "Table 10: TextCLS accuracy at sizes {sizes:?} ({:?} scale, {} seed(s))",
        suite.scale, suite.seeds
    );

    let names: Vec<String> = TextClsFlavor::ALL
        .iter()
        .map(|&f| textcls::generate(f, &suite.textcls).name)
        .collect();
    let keys: Vec<(Method, usize)> = (Method::ALL.iter())
        .flat_map(|&m| sizes.iter().map(move |&s| (m, s)))
        .collect();
    let cells: Vec<Cell> = (keys.iter())
        .flat_map(|&(m, s)| names.iter().map(move |n| Cell::new(n, s, m, 11)))
        .collect();
    let results = suite.run(&cells);

    let title = "Table 10: TextCLS accuracy (x100)";
    let mut grid = Grid::new(title, &["Method", "Size"], &names, true);
    for (&(m, size), row) in keys.iter().zip(results.chunks(names.len())) {
        let means = row.iter().map(|c| c.mean).collect();
        grid.rows
            .push(GridRow::new(vec![label(m).into(), size.to_string()], means));
    }
    // Each method's AVG is compared with the baseline's at the same size.
    for (i, row) in grid.rows.iter_mut().enumerate().skip(sizes.len()) {
        row.vs = Some(i % sizes.len());
    }
    grid.print();
}
