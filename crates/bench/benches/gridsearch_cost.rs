//! Grid-search cost comparison (§6.6): the paper argues Rotom's ~5.6× meta
//! overhead is cheap next to the 22× cost of enumerating operator pairs.
//! This harness measures all four costs directly on one dataset per domain:
//! a single MixDA run, the single-operator grid, the operator-pair grid, and
//! Rotom — plus each strategy's resulting test metric.

use rotom::Method;
use rotom_baselines::gridsearch::{grid_search, Grid};
use rotom_bench::{pct, print_table, Cell, Suite};
use rotom_datasets::{
    edt::{self, EdtFlavor},
    em::{self, EmFlavor},
    textcls::{self, TextClsFlavor},
};

fn main() {
    let suite = Suite::from_env();
    println!("Grid-search cost vs Rotom ({:?} scale)", suite.scale);

    let tasks = [
        (
            em::generate(EmFlavor::WalmartAmazon, &suite.em).to_task(),
            240,
        ),
        (edt::generate(EdtFlavor::Beers, &suite.edt).to_task(), 200),
        (textcls::generate(TextClsFlavor::Trec, &suite.textcls), 100),
    ];

    let header: Vec<String> = vec![
        "Dataset".into(),
        "Strategy".into(),
        "Metric".into(),
        "Time(s)".into(),
        "vs MixDA".into(),
    ];
    let mut rows = Vec::new();

    for (task, budget) in tasks {
        // The operator grids take the prepared base too, so this bench
        // prepares the context itself and runs its two cells on it.
        let ctx = suite.prepare(&task, 47);
        let cell = |method| Cell::new(&task.name, budget, method, 47);
        let mixda = suite.run_cell(&task, &ctx, &cell(Method::MixDa));
        let rotom = suite.run_cell(&task, &ctx, &cell(Method::Rotom));
        let (train, _) = cell(Method::MixDa).sample(&task, 0);
        let [single, pairs] = [Grid::Single, Grid::Pairs]
            .map(|grid| grid_search(&task, &train, &train, grid, &ctx.cfg, Some(&ctx.base), 0));

        let ratio = |t: f32| {
            if mixda.seconds > 0.0 {
                format!("{:.1}x", t / mixda.seconds)
            } else {
                "-".into()
            }
        };
        rows.push(vec![
            task.name.clone(),
            "MixDA (1 run)".into(),
            pct(mixda.mean),
            format!("{:.1}", mixda.seconds),
            "1.0x".into(),
        ]);
        for (name, grid) in [("single", &single), ("pairs", &pairs)] {
            rows.push(vec![
                String::new(),
                format!("Grid {name} ({} cfgs)", grid.configurations),
                pct(grid.best.headline(task.kind)),
                format!("{:.1}", grid.total_seconds),
                ratio(grid.total_seconds),
            ]);
        }
        rows.push(vec![
            String::new(),
            "Rotom".into(),
            pct(rotom.mean),
            format!("{:.1}", rotom.seconds),
            ratio(rotom.seconds),
        ]);
    }

    print_table(
        "Grid-search cost: metric and wall-clock vs a single MixDA run",
        &header,
        &rows,
    );
    println!(
        "\nPaper's claim (§6.6): Rotom ≈ 5.6x a single DA run on average (max 9.8x),\n\
         while enumerating operator pairs costs ≈ 22x — and Rotom needs no search."
    );
}
