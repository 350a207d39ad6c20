//! Figure 4 — training time per domain (EM, EDT, TextCLS) for the baseline,
//! MixDA/InvDA, Rotom, and Rotom+SSL, averaged over the domain's datasets at
//! each labeling budget.
//!
//! The reproduction target is the *relative overhead*: the paper reports
//! Rotom at ~5.6× MixDA on average (max 9.8×), far below the 22× cost of a
//! grid search over operator pairs, with Rotom+SSL within 30% of Rotom.

use rotom::Method;
use rotom_bench::{print_table, Cell, Suite};
use rotom_datasets::edt::{self, EdtFlavor};
use rotom_datasets::em::{self, EmFlavor};
use rotom_datasets::textcls::{self, TextClsFlavor};

fn main() {
    let suite = Suite::from_env();
    println!(
        "Figure 4: training time (seconds) per domain and method ({:?} scale)",
        suite.scale
    );

    let quick = suite.scale == rotom_bench::Scale::Quick;
    let em: Vec<String> = (EmFlavor::ALL.iter())
        .filter(|&&f| !quick || matches!(f, EmFlavor::DblpAcm))
        .map(|&f| em::generate(f, &suite.em).name)
        .collect();
    let edt: Vec<String> = (EdtFlavor::ALL.iter())
        .filter(|&&f| !quick || matches!(f, EdtFlavor::Beers))
        .map(|&f| edt::generate(f, &suite.edt).name)
        .collect();
    let textcls: Vec<String> = (TextClsFlavor::ALL.iter())
        .filter(|&&f| !quick || matches!(f, TextClsFlavor::Trec))
        .map(|&f| textcls::generate(f, &suite.textcls).name)
        .collect();
    let domains = [
        ("EM", em, suite.em_budgets.clone()),
        ("EDT", edt, suite.edt_budgets.clone()),
        (
            "TextCLS",
            textcls,
            suite.textcls_sizes.iter().map(|&s| 2 * s).collect(),
        ),
    ];

    let header: Vec<String> = std::iter::once("Budget".to_string())
        .chain(Method::ALL.iter().map(|m| m.name().to_string()))
        .chain(std::iter::once("Rotom/MixDA".to_string()))
        .collect();

    for (domain, names, budgets) in domains {
        let cells: Vec<Cell> = (budgets.iter())
            .flat_map(|&b| Method::ALL.map(|m| (b, m)))
            .flat_map(|(b, m)| names.iter().map(move |n| Cell::new(n, b, m, 31)))
            .collect();
        let results = suite.run(&cells);
        let per_budget = results.chunks(Method::ALL.len() * names.len());
        let rows: Vec<Vec<String>> = (budgets.iter().zip(per_budget))
            .map(|(budget, cells)| {
                // Mean seconds over the domain's datasets, per method.
                let times: Vec<f32> = (cells.chunks(names.len()))
                    .map(|c| c.iter().map(|r| r.seconds).sum::<f32>() / names.len() as f32)
                    .collect();
                let mut row = vec![budget.to_string()];
                row.extend(times.iter().map(|secs| format!("{secs:.2}")));
                // Overhead ratio: Rotom vs MixDA (index 3 vs 1).
                let ratio = if times[1] > 0.0 {
                    times[3] / times[1]
                } else {
                    0.0
                };
                row.push(format!("{ratio:.1}x"));
                row
            })
            .collect();
        let title = format!("Figure 4: {domain} training time (s)");
        print_table(&title, &header, &rows);
    }
}
