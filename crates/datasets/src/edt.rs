//! Synthetic error-detection (data cleaning) benchmark generators.
//!
//! Five dirty spreadsheets mirroring the Raha benchmark suite used in the
//! paper (beers, hospital, movies, rayyan, tax). Each generator produces a
//! clean table from a domain grammar, then injects cell errors from the Raha
//! taxonomy: typos, format breaks, missing-value placeholders, out-of-domain
//! values, and violated functional dependencies. The ground-truth error mask
//! is kept per cell.
//!
//! Per the paper (§6.2): 20 uniformly sampled tuples form the test set, and
//! training sets of 50–200 cells are class-balanced between clean and dirty.

use crate::perturb::{break_phone, phone, pick, squash, typo, zip};
use crate::task::{TaskDataset, TaskKind};
use crate::words::*;
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::example::Example;
use rotom_text::serialize::{serialize_cell, serialize_cell_in_context, Record};

/// The five EDT flavors (Table 6, right half).
#[derive(Debug, Clone, Copy)]
pub enum EdtFlavor {
    /// Craft beer catalogue.
    Beers,
    /// Hospital quality measures.
    Hospital,
    /// Movie metadata.
    Movies,
    /// Medical article screening (Rayyan).
    Rayyan,
    /// Personal tax records.
    Tax,
}

impl EdtFlavor {
    /// All flavors in Table 6 order.
    pub const ALL: [EdtFlavor; 5] = [
        EdtFlavor::Beers,
        EdtFlavor::Hospital,
        EdtFlavor::Movies,
        EdtFlavor::Rayyan,
        EdtFlavor::Tax,
    ];

    /// Canonical dataset name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EdtFlavor::Beers => "beers",
            EdtFlavor::Hospital => "hospital",
            EdtFlavor::Movies => "movies",
            EdtFlavor::Rayyan => "rayyan",
            EdtFlavor::Tax => "tax",
        }
    }

    /// Default number of rows (scaled-down versions of Table 6's table
    /// sizes).
    pub(crate) fn default_rows(self) -> usize {
        match self {
            EdtFlavor::Beers => 240,
            EdtFlavor::Hospital => 200,
            EdtFlavor::Movies => 300,
            EdtFlavor::Rayyan => 200,
            EdtFlavor::Tax => 400,
        }
    }
}

/// Error-injection taxonomy (Raha's four error types).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorKind {
    /// Character-level typo.
    Typo,
    /// Formatting broken (squashed whitespace, mangled phone, wrong digits).
    Format,
    /// Missing-value placeholder.
    Missing,
    /// Value from the wrong domain (violates the column's pattern or an FD).
    Violation,
}

/// Generator configuration.
#[derive(Debug)]
pub struct EdtConfig {
    /// Number of rows in the table (`None` → flavor default).
    pub rows: Option<usize>,
    /// Use context-dependent serialization (whole row + cell) instead of the
    /// context-independent form. The paper uses context-independent for these
    /// datasets.
    pub context: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EdtConfig {
    fn default() -> Self {
        Self {
            rows: None,
            context: false,
            seed: 7,
        }
    }
}

/// A generated dirty table with ground truth.
#[derive(Debug)]
pub struct EdtDataset {
    /// Dataset name.
    pub name: String,
    /// Flavor this dataset was generated from.
    pub flavor: EdtFlavor,
    /// Column names.
    pub columns: Vec<String>,
    /// Table rows (dirty).
    pub rows: Vec<Record>,
    /// Per-row, per-column error mask (true = cell is erroneous).
    pub mask: Vec<Vec<bool>>,
    /// Kind of each injected error (aligned with `mask`; `None` when clean).
    pub kinds: Vec<Vec<Option<ErrorKind>>>,
    /// Indices of the held-out test tuples.
    pub test_rows: Vec<usize>,
    /// Whether serialization includes row context.
    pub context: bool,
}

impl EdtDataset {
    /// Number of injected errors.
    pub fn num_errors(&self) -> usize {
        self.mask.iter().flatten().filter(|&&b| b).count()
    }

    /// Serialize a single cell per the configured mode.
    fn cell_example(&self, row: usize, col: usize) -> Example {
        let attr = &self.columns[col];
        let r = &self.rows[row];
        let tokens = if self.context {
            serialize_cell_in_context(r, attr)
        } else {
            serialize_cell(attr, r.get(attr).unwrap_or(""))
        };
        Example::new(tokens, self.mask[row][col] as usize)
    }

    /// Convert to the common sequence-classification form. The train pool is
    /// every cell of every non-test row (experiments then sample a
    /// class-balanced subset); the test set is every cell of the 20 test
    /// rows; the unlabeled corpus is all cell serializations.
    pub fn to_task(&self) -> TaskDataset {
        let is_test: Vec<bool> = {
            let mut v = vec![false; self.rows.len()];
            for &r in &self.test_rows {
                v[r] = true;
            }
            v
        };
        let mut train_pool = Vec::new();
        let mut test = Vec::new();
        for (r, &held_out) in is_test.iter().enumerate() {
            for c in 0..self.columns.len() {
                let ex = self.cell_example(r, c);
                if held_out {
                    test.push(ex);
                } else {
                    train_pool.push(ex);
                }
            }
        }
        let unlabeled = train_pool.iter().map(|e| e.tokens.clone()).collect();
        TaskDataset {
            name: self.name.clone(),
            kind: TaskKind::ErrorDetection,
            num_classes: 2,
            train_pool,
            test,
            unlabeled,
        }
    }
}

// ---------------------------------------------------------------------------
// Clean-row generators
// ---------------------------------------------------------------------------

fn columns(flavor: EdtFlavor) -> Vec<String> {
    let cols: &[&str] = match flavor {
        EdtFlavor::Beers => &[
            "id",
            "beer_name",
            "style",
            "abv",
            "ibu",
            "brewery",
            "city",
            "state",
        ],
        EdtFlavor::Hospital => &[
            "provider", "name", "address", "city", "state", "zip", "phone", "measure",
        ],
        EdtFlavor::Movies => &[
            "id", "name", "year", "director", "genre", "duration", "rating",
        ],
        EdtFlavor::Rayyan => &["id", "title", "journal", "year", "pages", "issn"],
        EdtFlavor::Tax => &[
            "fname", "lname", "gender", "area", "phone", "city", "state", "zip", "salary", "rate",
        ],
    };
    cols.iter().map(|s| s.to_string()).collect()
}

fn clean_row(flavor: EdtFlavor, i: usize, rng: &mut StdRng) -> Record {
    match flavor {
        EdtFlavor::Beers => Record::new(vec![
            ("id".to_string(), format!("{}", 1000 + i)),
            (
                "beer_name".to_string(),
                format!("{} {}", pick(BEER_ADJS, rng), pick(BEER_NOUNS, rng)),
            ),
            ("style".to_string(), pick(BEER_STYLES, rng).to_string()),
            (
                "abv".to_string(),
                format!("{:.1}", rng.random_range(3.5..12.0f32)),
            ),
            (
                "ibu".to_string(),
                format!("{}", rng.random_range(10..110u32)),
            ),
            (
                "brewery".to_string(),
                format!("{} {}", pick(BEER_NOUNS, rng), pick(BREWERY_SUFFIXES, rng)),
            ),
            ("city".to_string(), pick(CITIES, rng).to_string()),
            ("state".to_string(), pick(STATES, rng).to_string()),
        ]),
        EdtFlavor::Hospital => Record::new(vec![
            ("provider".to_string(), format!("{}", 10000 + i)),
            (
                "name".to_string(),
                format!("{} general hospital", pick(CITIES, rng)),
            ),
            (
                "address".to_string(),
                format!(
                    "{} {} {}",
                    rng.random_range(1..9999u32),
                    pick(STREET_NAMES, rng),
                    pick(STREET_SUFFIXES, rng)
                ),
            ),
            ("city".to_string(), pick(CITIES, rng).to_string()),
            ("state".to_string(), pick(STATES, rng).to_string()),
            ("zip".to_string(), zip(rng)),
            ("phone".to_string(), phone(rng, true)),
            ("measure".to_string(), pick(MEASURES, rng).to_string()),
        ]),
        EdtFlavor::Movies => Record::new(vec![
            ("id".to_string(), format!("tt{:06}", 100000 + i)),
            (
                "name".to_string(),
                format!("the {} {}", pick(MOVIE_WORDS, rng), pick(MOVIE_WORDS, rng)),
            ),
            (
                "year".to_string(),
                format!("{}", rng.random_range(1960..2021u32)),
            ),
            (
                "director".to_string(),
                format!("{} {}", pick(FIRST_NAMES, rng), pick(LAST_NAMES, rng)),
            ),
            ("genre".to_string(), pick(GENRES, rng).to_string()),
            (
                "duration".to_string(),
                format!("{} min", rng.random_range(70..200u32)),
            ),
            (
                "rating".to_string(),
                format!("{:.1}", rng.random_range(2.0..9.9f32)),
            ),
        ]),
        EdtFlavor::Rayyan => Record::new(vec![
            ("id".to_string(), format!("{}", 2000 + i)),
            (
                "title".to_string(),
                format!(
                    "{} {} in {}",
                    pick(TITLE_WORDS, rng),
                    pick(TITLE_WORDS, rng),
                    pick(MEDICAL_FIELDS, rng)
                ),
            ),
            (
                "journal".to_string(),
                format!(
                    "{} of {}",
                    pick(JOURNAL_WORDS, rng),
                    pick(MEDICAL_FIELDS, rng)
                ),
            ),
            (
                "year".to_string(),
                format!("{}", rng.random_range(1990..2021u32)),
            ),
            ("pages".to_string(), {
                let a = rng.random_range(1..800u32);
                format!("{a}-{}", a + rng.random_range(2..20u32))
            }),
            (
                "issn".to_string(),
                format!(
                    "{:04}-{:04}",
                    rng.random_range(1000..9999u32),
                    rng.random_range(1000..9999u32)
                ),
            ),
        ]),
        EdtFlavor::Tax => {
            // FD: area code is a function of (city, state); rate of salary band.
            let city_i = rng.random_range(0..CITIES.len());
            let salary = rng.random_range(20..200u32) * 1000;
            let rate = match salary {
                s if s < 50000 => "0.12",
                s if s < 100000 => "0.22",
                s if s < 150000 => "0.30",
                _ => "0.35",
            };
            Record::new(vec![
                ("fname".to_string(), pick(FIRST_NAMES, rng).to_string()),
                ("lname".to_string(), pick(LAST_NAMES, rng).to_string()),
                (
                    "gender".to_string(),
                    if rng.random_bool(0.5) {
                        "m".into()
                    } else {
                        "f".into()
                    },
                ),
                ("area".to_string(), format!("{}", 200 + (city_i * 7) % 700)),
                ("phone".to_string(), phone(rng, false)),
                ("city".to_string(), CITIES[city_i].to_string()),
                (
                    "state".to_string(),
                    STATES[city_i % STATES.len()].to_string(),
                ),
                ("zip".to_string(), zip(rng)),
                ("salary".to_string(), format!("{salary}")),
                ("rate".to_string(), rate.to_string()),
            ])
        }
    }
}

// ---------------------------------------------------------------------------
// Error injection
// ---------------------------------------------------------------------------

fn inject(flavor: EdtFlavor, row: &mut Record, col: usize, rng: &mut StdRng) -> ErrorKind {
    let (attr, value) = row.attrs[col].clone();
    let kind = match rng.random_range(0..4u8) {
        0 => ErrorKind::Typo,
        1 => ErrorKind::Format,
        2 => ErrorKind::Missing,
        _ => ErrorKind::Violation,
    };
    let new_value = match kind {
        ErrorKind::Typo => {
            let t = typo(&value, rng);
            if t == value {
                format!("{value}x")
            } else {
                t
            }
        }
        ErrorKind::Format => {
            if attr == "phone" {
                break_phone(&value, rng)
            } else if value.contains(' ') {
                squash(&value)
            } else {
                // Upper-case a value in an all-lowercase column.
                format!("{}{}", value.to_uppercase(), rng.random_range(0..10u8))
            }
        }
        ErrorKind::Missing => (*pick(&["", "n/a", "null", "-", "unknown"], rng)).to_string(),
        ErrorKind::Violation => out_of_domain(flavor, &attr, rng),
    };
    row.attrs[col].1 = new_value;
    kind
}

/// A value from the wrong domain for the column: breaks the column's value
/// pattern (and, for `tax.rate`, the salary→rate FD).
fn out_of_domain(flavor: EdtFlavor, attr: &str, rng: &mut StdRng) -> String {
    match attr {
        "year" => format!("{}", rng.random_range(2200..3000u32)),
        "abv" => format!("{:.1}", rng.random_range(40.0..95.0f32)),
        "ibu" => format!("{}", rng.random_range(500..2000u32)),
        "rating" => format!("{:.1}", rng.random_range(15.0..99.0f32)),
        "duration" => format!("{} min", rng.random_range(900..5000u32)),
        "rate" => "0.99".to_string(),
        "salary" => format!("{}", rng.random_range(1..20u32)),
        "state" => pick(CITIES, rng).to_string(),
        "zip" => format!("{}", rng.random_range(1..999u32)),
        "gender" => format!("{}", rng.random_range(0..9u8)),
        _ => {
            // Swap in a value from an unrelated column's domain.
            match flavor {
                EdtFlavor::Beers => pick(GENRES, rng).to_string(),
                EdtFlavor::Hospital => pick(BEER_STYLES, rng).to_string(),
                EdtFlavor::Movies => pick(MEASURES, rng).to_string(),
                EdtFlavor::Rayyan => pick(BEER_NOUNS, rng).to_string(),
                EdtFlavor::Tax => pick(MOVIE_WORDS, rng).to_string(),
            }
        }
    }
}

/// Fraction of cells that receive an injected error.
const ERROR_RATE: f32 = 0.18;
/// Number of tuples held out for the test set (paper: 20).
const TEST_TUPLES: usize = 20;

/// Generate an EDT dataset for `flavor` under `cfg`.
pub fn generate(flavor: EdtFlavor, cfg: &EdtConfig) -> EdtDataset {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (flavor.name().len() as u64) << 8 ^ flavor as u64);
    let n_rows = cfg.rows.unwrap_or_else(|| flavor.default_rows());
    let cols = columns(flavor);
    let mut rows: Vec<Record> = (0..n_rows)
        .map(|i| clean_row(flavor, i, &mut rng))
        .collect();
    let mut mask = vec![vec![false; cols.len()]; n_rows];
    let mut kinds = vec![vec![None; cols.len()]; n_rows];

    let total_cells = n_rows * cols.len();
    let n_errors = (total_cells as f32 * ERROR_RATE).round() as usize;
    let mut cells: Vec<(usize, usize)> = (0..n_rows)
        .flat_map(|r| (0..cols.len()).map(move |c| (r, c)))
        .collect();
    rng.shuffle(&mut cells);
    for &(r, c) in cells.iter().take(n_errors) {
        let kind = inject(flavor, &mut rows[r], c, &mut rng);
        mask[r][c] = true;
        kinds[r][c] = Some(kind);
    }

    let mut row_ids: Vec<usize> = (0..n_rows).collect();
    rng.shuffle(&mut row_ids);
    let test_rows = row_ids[..TEST_TUPLES.min(n_rows)].to_vec();

    EdtDataset {
        name: flavor.name().to_string(),
        flavor,
        columns: cols,
        rows,
        mask,
        kinds,
        test_rows,
        context: cfg.context,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_count_matches_rate() {
        let cfg = EdtConfig::default();
        let d = generate(EdtFlavor::Beers, &cfg);
        let total = d.rows.len() * d.columns.len();
        let expected = (total as f32 * ERROR_RATE).round() as usize;
        assert_eq!(d.num_errors(), expected);
    }

    #[test]
    fn mask_aligns_with_injected_cells() {
        let d = generate(EdtFlavor::Movies, &EdtConfig::default());
        for r in 0..d.rows.len() {
            for c in 0..d.columns.len() {
                assert_eq!(d.mask[r][c], d.kinds[r][c].is_some());
            }
        }
    }

    #[test]
    fn test_rows_are_distinct_and_sized() {
        let d = generate(EdtFlavor::Tax, &EdtConfig::default());
        assert_eq!(d.test_rows.len(), 20);
        let mut sorted = d.test_rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    #[test]
    fn task_split_partitions_cells() {
        let d = generate(EdtFlavor::Rayyan, &EdtConfig::default());
        let t = d.to_task();
        let total = d.rows.len() * d.columns.len();
        assert_eq!(t.train_pool.len() + t.test.len(), total);
        assert_eq!(t.test.len(), 20 * d.columns.len());
    }

    #[test]
    fn context_serialization_includes_sep() {
        let cfg = EdtConfig {
            context: true,
            ..Default::default()
        };
        let d = generate(EdtFlavor::Hospital, &cfg);
        let t = d.to_task();
        assert!(t.train_pool[0].tokens.contains(&"[SEP]".to_string()));
    }

    #[test]
    fn context_independent_has_no_sep() {
        let d = generate(EdtFlavor::Hospital, &EdtConfig::default());
        let t = d.to_task();
        assert!(!t.train_pool[0].tokens.contains(&"[SEP]".to_string()));
    }

    #[test]
    fn tax_fd_holds_on_clean_cells() {
        let d = generate(EdtFlavor::Tax, &EdtConfig::default());
        for (r, row) in d.rows.iter().enumerate() {
            let sal_col = d.columns.iter().position(|c| c == "salary").unwrap();
            let rate_col = d.columns.iter().position(|c| c == "rate").unwrap();
            if d.mask[r][sal_col] || d.mask[r][rate_col] {
                continue;
            }
            let salary: u32 = row.get("salary").unwrap().parse().unwrap();
            let rate = row.get("rate").unwrap();
            let expected = match salary {
                s if s < 50000 => "0.12",
                s if s < 100000 => "0.22",
                s if s < 150000 => "0.30",
                _ => "0.35",
            };
            assert_eq!(rate, expected, "FD violated on clean row {r}");
        }
    }

    #[test]
    fn all_flavors_generate() {
        let cfg = EdtConfig {
            rows: Some(40),
            ..Default::default()
        };
        for flavor in EdtFlavor::ALL {
            assert!(generate(flavor, &cfg).num_errors() > 0, "{flavor:?}");
        }
    }
}
