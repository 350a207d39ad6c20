//! `rotom-bench` — the experiment harness regenerating every table and
//! figure of the paper's evaluation (§6), plus the perf bins.
//!
//! Each `benches/*.rs` target (all `harness = false`) prints one table or
//! figure in the same row/series layout the paper uses. Absolute numbers
//! differ (CPU-sized stand-in models over synthetic benchmarks); the
//! *shape* — which method wins, by roughly what factor, where the
//! crossovers fall — is the reproduction target (see EXPERIMENTS.md).
//!
//! A bench is a spec and a renderer. The spec lists its LM [`Cell`]s
//! (dataset, budget, method, context seed, [`Variant`]); [`Suite::run`]
//! prepares each distinct (dataset, context seed) once and returns one
//! seed-averaged [`AvgResult`] per cell; [`Grid`] prints the method ×
//! dataset blocks of Tables 8–11 and the ablation (AVG column, "(+x.xx)"
//! deltas, the "TinyLm" label). The non-LM baselines (DeepMatcher,
//! Brunner, Raha, Hu, Kumar, the operator grids) are called directly by
//! their bench. [`Suite::dataset`] is the one name → dataset lookup, shared
//! with `rotom_cli`.
//!
//! Scale is controlled by the `ROTOM_BENCH_SCALE` environment variable:
//! `quick` (default; single-digit minutes per table on one CPU core) or
//! `full` (closer to the paper's budgets; tens of minutes). `ROTOM_SEEDS`
//! overrides the number of run seeds every cell averages over (paper: 5).
//! Both follow the [`rotom_nn::env`] rule: a value that does not parse
//! warns once and falls back to the default.
//!
//! The perf bins (`perfsmoke`, `trainbench`, `inferbench`, `servebench`,
//! `blockbench`) each write one `BENCH_*.json` through [`record`], which
//! owns the file format, the child-per-thread-count driver, the `--check`
//! gate and the command line; [`alloc`] is their counting allocator. They
//! read `ROTOM_BENCH_SCALE` too, but default to full-size measurement.

#![warn(missing_docs)]

use rotom::pipeline::{prepare_base, run_method_with_base, PretrainedBase};
use rotom::{mean_std, AblationConfig, Method, RotomConfig, RunResult};
use rotom_augment::InvDa;
use rotom_datasets::task::sample_without_replacement;
use rotom_datasets::{
    edt, em, textcls, EdtConfig, EdtFlavor, EmConfig, EmFlavor, TaskDataset, TaskKind,
    TextClsConfig, TextClsFlavor,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;
use rotom_text::example::Example;

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

    /// The dataset a cell or the command line names, generated at this
    /// suite's scale. Names are the generators' own (`Abt-Buy`, `beers`,
    /// `SST-2`) in any case, with `-dirty` appended for the dirty EM
    /// variants; `None` for a name no generator knows.
    pub fn dataset(&self, name: &str) -> Option<TaskDataset> {
        let lower = name.to_lowercase();
        let (base, dirty) = match lower.strip_suffix("-dirty") {
            Some(base) => (base, true),
            None => (lower.as_str(), false),
        };
        let em = |f| {
            let cfg = EmConfig {
                dirty,
                ..self.em.clone()
            };
            Some(em::generate(f, &cfg).to_task())
        };
        let edt = |f| (!dirty).then(|| edt::generate(f, &self.edt).to_task());
        let text = |f| (!dirty).then(|| textcls::generate(f, &self.textcls));
        match base {
            "abt-buy" => em(EmFlavor::AbtBuy),
            "amazon-google" => em(EmFlavor::AmazonGoogle),
            "dblp-acm" => em(EmFlavor::DblpAcm),
            "dblp-scholar" => em(EmFlavor::DblpScholar),
            "walmart-amazon" => em(EmFlavor::WalmartAmazon),
            "beers" => edt(EdtFlavor::Beers),
            "hospital" => edt(EdtFlavor::Hospital),
            "movies" => edt(EdtFlavor::Movies),
            "rayyan" => edt(EdtFlavor::Rayyan),
            "tax" => edt(EdtFlavor::Tax),
            "ag" => text(TextClsFlavor::Ag),
            "am-2" => text(TextClsFlavor::Am2),
            "am-5" => text(TextClsFlavor::Am5),
            "atis" => text(TextClsFlavor::Atis),
            "snips" => text(TextClsFlavor::Snips),
            "sst-2" => text(TextClsFlavor::Sst2),
            "sst-5" => text(TextClsFlavor::Sst5),
            "trec" => text(TextClsFlavor::Trec),
            _ => None,
        }
    }

    /// Run every cell over the run seeds `0..seeds`, preparing each distinct
    /// (dataset, context seed) once. Results come back in cell order.
    ///
    /// # Panics
    ///
    /// On a dataset name [`Suite::dataset`] does not know.
    pub fn run(&self, cells: &[Cell]) -> Vec<AvgResult> {
        let (keys, slots) = contexts(cells);
        let prepared: Vec<(TaskDataset, TaskContext)> = keys
            .iter()
            .map(|&(name, seed)| {
                let task = self
                    .dataset(name)
                    .unwrap_or_else(|| panic!("unknown dataset '{name}'"));
                let ctx = self.prepare(&task, seed);
                (task, ctx)
            })
            .collect();
        cells
            .iter()
            .zip(slots)
            .map(|(cell, i)| self.run_cell(&prepared[i].0, &prepared[i].1, cell))
            .collect()
    }

    /// Run one cell over the run seeds on a context already prepared for
    /// it: [`Suite::run`] without the preparation, for a bench that also
    /// hands the context to a non-LM baseline.
    pub fn run_cell(&self, task: &TaskDataset, ctx: &TaskContext, cell: &Cell) -> AvgResult {
        let mut cfg = ctx.cfg.clone();
        if let Variant::Ablation(ablation) = &cell.variant {
            cfg.meta.ablation = ablation.clone();
        }
        let results: Vec<RunResult> = (0..self.seeds)
            .map(|seed| {
                let (train, valid) = cell.sample(task, seed);
                run_method_with_base(
                    task,
                    &train,
                    &valid,
                    cell.method,
                    &cfg,
                    Some(&ctx.invda),
                    Some(&ctx.base),
                    seed,
                )
            })
            .collect();
        let metrics: Vec<f32> = results.iter().map(|r| r.headline(task.kind)).collect();
        let seconds: Vec<f32> = results.iter().map(|r| r.train_seconds).collect();
        let (mean, std) = mean_std(&metrics);
        AvgResult {
            mean,
            std,
            seconds: mean_std(&seconds).0,
            results,
        }
    }
}

/// The distinct (dataset, context seed) pairs `cells` need, in first-use
/// order, and the index of each cell's pair.
fn contexts(cells: &[Cell]) -> (Vec<(&str, u64)>, Vec<usize>) {
    let mut keys: Vec<(&str, u64)> = Vec::new();
    let slots = cells
        .iter()
        .map(|cell| {
            let key = (cell.dataset.as_str(), cell.ctx_seed);
            match keys.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    keys.push(key);
                    keys.len() - 1
                }
            }
        })
        .collect();
    (keys, slots)
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

/// One cell of a paper table: an LM method trained on a dataset with a
/// labeling budget, over the base and InvDA operator its context seed
/// prepares ([`Suite::prepare`]).
#[derive(Clone, Debug)]
pub struct Cell {
    /// Dataset name, as [`Suite::dataset`] reads it.
    dataset: String,
    /// Labeled examples (per class for [`Variant::PerClass`]).
    budget: usize,
    /// Method trained.
    method: Method,
    /// Seed of the shared per-dataset preparation.
    ctx_seed: u64,
    /// How the cell departs from the main protocol.
    variant: Variant,
}

/// How a [`Cell`] departs from the main protocol.
#[derive(Clone, Debug)]
pub enum Variant {
    /// The main protocol (Tables 8–10, Figures 3–4): `budget` examples
    /// drawn with the run seed, class-balanced for error detection (§6.2),
    /// that double as the validation set.
    Main,
    /// The main protocol with parts of Algorithm 2 switched off.
    Ablation(AblationConfig),
    /// Hu et al.'s regime (Table 11a): `budget` training examples per class
    /// and 5 per class for validation, one draw for every run seed.
    PerClass,
    /// Kumar et al.'s regime (Table 11b): `budget` uniform training examples
    /// (1% of the pool) and 5 per class for validation, one draw for every
    /// run seed.
    OnePercent,
}

impl Cell {
    /// A main-protocol cell.
    pub fn new(dataset: &str, budget: usize, method: Method, ctx_seed: u64) -> Self {
        Self {
            dataset: dataset.to_string(),
            budget,
            method,
            ctx_seed,
            variant: Variant::Main,
        }
    }

    /// The cell under another variant.
    pub fn with(self, variant: Variant) -> Self {
        Self { variant, ..self }
    }

    /// The labeled (train, valid) examples of run seed `seed`.
    pub fn sample(&self, task: &TaskDataset, seed: u64) -> (Vec<Example>, Vec<Example>) {
        match self.variant {
            Variant::PerClass => (
                per_class_sample(task, self.budget, 1),
                per_class_sample(task, 5, 2),
            ),
            Variant::OnePercent => (
                task.sample_train(self.budget, 3),
                per_class_sample(task, 5, 4),
            ),
            Variant::Main | Variant::Ablation(_) => {
                let train = if task.kind == TaskKind::ErrorDetection {
                    task.sample_train_balanced(self.budget, seed)
                } else {
                    task.sample_train(self.budget, seed)
                };
                (train.clone(), train)
            }
        }
    }
}

/// `n` examples per class of the train pool.
fn per_class_sample(task: &TaskDataset, n: usize, seed: u64) -> Vec<Example> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for c in 0..task.num_classes {
        let pool: Vec<Example> = task
            .train_pool
            .iter()
            .filter(|e| e.label == c)
            .cloned()
            .collect();
        out.extend(sample_without_replacement(&pool, n, &mut rng));
    }
    out
}

/// Seed-averaged outcome of one [`Cell`].
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

/// A method × dataset block of a paper table: key cells, one metric per
/// column (printed x100), and the row mean under "AVG" when `avg` is set.
pub struct Grid {
    /// Block title.
    title: String,
    /// Key and column headers ("AVG" is appended when `avg` is set).
    header: Vec<String>,
    /// Body rows, in print order.
    pub rows: Vec<GridRow>,
    /// Append each row's mean over its columns.
    avg: bool,
}

/// One row of a [`Grid`].
pub struct GridRow {
    /// Leading label cells.
    keys: Vec<String>,
    /// One metric per column, as a fraction.
    values: Vec<f32>,
    /// The row this one is compared with: the difference follows the AVG
    /// as "(+x.xx)" when the grid has one, else every cell.
    pub vs: Option<usize>,
}

/// A method's row label in the paper's tables, where plain fine-tuning
/// reads "TinyLm".
pub fn label(method: Method) -> &'static str {
    match method {
        Method::Baseline => "TinyLm",
        m => m.name(),
    }
}

impl GridRow {
    /// A row keyed by `keys`, compared with no other.
    pub fn new(keys: Vec<String>, values: Vec<f32>) -> Self {
        Self {
            keys,
            values,
            vs: None,
        }
    }

    /// A method's row over its cells' seed means.
    pub fn method(method: Method, cells: &[AvgResult]) -> Self {
        Self::new(
            vec![label(method).to_string()],
            cells.iter().map(|c| c.mean).collect(),
        )
    }
}

impl Grid {
    /// A grid with key headers `keys` then one column per name in
    /// `columns`, and no rows yet.
    pub fn new(title: &str, keys: &[&str], columns: &[String], avg: bool) -> Self {
        let mut header: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        header.extend(columns.iter().cloned());
        Self {
            title: title.to_string(),
            header,
            rows: Vec::new(),
            avg,
        }
    }

    /// The block as [`print_table`] lays it out.
    pub fn render(&self) -> String {
        let avg = |values: &[f32]| values.iter().sum::<f32>() / values.len() as f32;
        let cell = |v: f32, vs: Option<f32>| match vs {
            None => pct(v),
            Some(b) => {
                let d = v - b;
                format!("{} ({}{})", pct(v), if d >= 0.0 { "+" } else { "" }, pct(d))
            }
        };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                let vs = row.vs.map(|i| &self.rows[i].values);
                let mut out = row.keys.clone();
                if self.avg {
                    out.extend(row.values.iter().map(|&v| pct(v)));
                    out.push(cell(avg(&row.values), vs.map(|b| avg(b))));
                } else {
                    out.extend(
                        (row.values.iter().enumerate()).map(|(j, &v)| cell(v, vs.map(|b| b[j]))),
                    );
                }
                out
            })
            .collect();
        let mut header = self.header.clone();
        if self.avg {
            header.push("AVG".to_string());
        }
        format_table(&self.title, &header, &rows)
    }

    /// Print [`Grid::render`].
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Render a fixed-width table: title line, header row, rule, body rows.
fn format_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
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
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)));
    let mut out = format!("\n=== {title} ===\n{}\n{rule}\n", fmt_row(header));
    for row in rows {
        out += &fmt_row(row);
        out.push('\n');
    }
    out
}

/// Print a fixed-width table: title line, header row, rule, body rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    print!("{}", format_table(title, header, rows));
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
    fn grid_renders_a_table10_block() {
        let key = |m: Method, size: &str| vec![label(m).to_string(), size.to_string()];
        let mut grid = Grid::new(
            "T",
            &["Method", "Size"],
            &["AG".into(), "TREC".into()],
            true,
        );
        grid.rows = vec![
            GridRow::new(key(Method::Baseline, "100"), vec![0.5, 0.7]),
            GridRow::new(key(Method::Baseline, "200"), vec![0.9, 0.8]),
            GridRow::new(key(Method::Rotom, "100"), vec![0.75, 0.75]),
            GridRow::new(key(Method::Rotom, "200"), vec![0.8, 0.8]),
        ];
        (grid.rows[2].vs, grid.rows[3].vs) = (Some(0), Some(1));
        assert_eq!(
            grid.render(),
            "\n=== T ===\n\
             Method  Size     AG   TREC             AVG\n\
             ------------------------------------------\n\
             TinyLm   100  50.00  70.00           60.00\n\
             TinyLm   200  90.00  80.00           85.00\n \
             Rotom   100  75.00  75.00  75.00 (+15.00)\n \
             Rotom   200  80.00  80.00   80.00 (-5.00)\n"
        );
        // Without an AVG column the delta follows every cell (Table 11).
        grid.avg = false;
        assert!(grid.render().contains("80.00 (-10.00)  80.00 (+0.00)"));
    }

    #[test]
    fn cells_sharing_dataset_and_context_seed_share_one_preparation() {
        let cells = [
            Cell::new("Abt-Buy", 120, Method::Baseline, 7),
            Cell::new("beers", 200, Method::Rotom, 7),
            Cell::new("Abt-Buy", 240, Method::Rotom, 7).with(Variant::PerClass),
            Cell::new("Abt-Buy", 120, Method::Baseline, 23),
        ];
        let (keys, slots) = contexts(&cells);
        assert_eq!(keys, [("Abt-Buy", 7), ("beers", 7), ("Abt-Buy", 23)]);
        assert_eq!(slots, [0, 1, 0, 2]);
    }

    #[test]
    fn dataset_lookup_round_trips_every_generator_name() {
        let s = Suite::new(Scale::Quick);
        let dirty = EmConfig {
            dirty: true,
            ..s.em.clone()
        };
        let names = (EmFlavor::ALL.iter().map(|&f| em::generate(f, &s.em).name))
            .chain(
                EmFlavor::WITH_DIRTY
                    .iter()
                    .map(|&f| em::generate(f, &dirty).name),
            )
            .chain(
                EdtFlavor::ALL
                    .iter()
                    .map(|&f| edt::generate(f, &s.edt).name),
            )
            .chain(
                TextClsFlavor::ALL
                    .iter()
                    .map(|&f| textcls::generate(f, &s.textcls).name),
            );
        for name in names {
            assert_eq!(s.dataset(&name.to_lowercase()).map(|t| t.name), Some(name));
        }
        for unknown in ["imdb", "beers-dirty", ""] {
            assert!(s.dataset(unknown).is_none(), "{unknown}");
        }
    }

    #[test]
    fn full_scale_is_larger() {
        let q = Suite::new(Scale::Quick);
        let f = Suite::new(Scale::Full);
        assert!(f.em.train_pairs > q.em.train_pairs);
        assert!(f.em_budgets.last() > q.em_budgets.last());
    }
}
