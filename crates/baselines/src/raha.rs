//! Raha-style error detection (Mahdavi et al., SIGMOD'19).
//!
//! Raha is "the SOTA error detection system based on ensemble learning":
//! it runs a battery of unsupervised error-detection strategies over every
//! column, turns their votes into per-cell feature vectors, and trains
//! per-column classifiers from a small set of user-labeled *tuples*
//! (20 in the paper's configuration).
//!
//! Our reproduction keeps that shape: six detector families (frequency,
//! pattern, length, numeric-range, missing-value, whitespace-format) feed a
//! per-column logistic regression trained on the labeled tuples' cells, with
//! an ensemble-vote fallback for columns whose labeled cells are single-class.

use rotom::metrics::{prf1, PrF1};
use rotom_datasets::edt::EdtDataset;
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use std::collections::HashMap;

const MISSING_TOKENS: [&str; 5] = ["", "n/a", "null", "-", "unknown"];

/// Per-column statistics backing the unsupervised detectors.
struct ColumnStats {
    value_counts: HashMap<String, usize>,
    pattern_counts: HashMap<String, usize>,
    mean_len: f32,
    std_len: f32,
    numeric_rate: f32,
    mean_num: f32,
    std_num: f32,
    whitespace_rate: f32,
    n: usize,
}

/// Character-class signature: digits → `d`, letters → `a`, whitespace → `s`,
/// everything else verbatim. Collapses repeats ("(866) 246" → "(d) d").
fn pattern_of(value: &str) -> String {
    let mut out = String::new();
    let mut last = '\0';
    for c in value.chars() {
        let cls = if c.is_ascii_digit() {
            'd'
        } else if c.is_alphabetic() {
            'a'
        } else if c.is_whitespace() {
            's'
        } else {
            c
        };
        if cls != last {
            out.push(cls);
            last = cls;
        }
    }
    out
}

impl ColumnStats {
    fn build(values: &[&str]) -> Self {
        let n = values.len().max(1);
        let mut value_counts = HashMap::new();
        let mut pattern_counts = HashMap::new();
        let mut lens = Vec::with_capacity(n);
        let mut nums = Vec::new();
        let mut ws = 0usize;
        for &v in values {
            *value_counts.entry(v.to_string()).or_insert(0) += 1;
            *pattern_counts.entry(pattern_of(v)).or_insert(0) += 1;
            lens.push(v.len() as f32);
            if let Ok(x) = v.parse::<f32>() {
                nums.push(x);
            }
            if v.contains(' ') {
                ws += 1;
            }
        }
        let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len().max(1) as f32;
        let std = |xs: &[f32], m: f32| {
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / xs.len().max(1) as f32).sqrt()
        };
        let mean_len = mean(&lens);
        let std_len = std(&lens, mean_len).max(1e-3);
        let mean_num = mean(&nums);
        let std_num = std(&nums, mean_num).max(1e-3);
        Self {
            value_counts,
            pattern_counts,
            mean_len,
            std_len,
            numeric_rate: nums.len() as f32 / n as f32,
            mean_num,
            std_num,
            whitespace_rate: ws as f32 / n as f32,
            n,
        }
    }

    /// Detector feature vector for one cell value.
    fn features(&self, value: &str) -> Vec<f32> {
        let freq = *self.value_counts.get(value).unwrap_or(&0) as f32 / self.n as f32;
        let pat_freq =
            *self.pattern_counts.get(&pattern_of(value)).unwrap_or(&0) as f32 / self.n as f32;
        let len_z = ((value.len() as f32 - self.mean_len) / self.std_len)
            .abs()
            .min(10.0);
        let is_num = value.parse::<f32>().is_ok();
        let num_z = match value.parse::<f32>() {
            Ok(x) if self.numeric_rate > 0.5 => {
                ((x - self.mean_num) / self.std_num).abs().min(10.0)
            }
            _ => 0.0,
        };
        let num_mismatch = if self.numeric_rate > 0.8 && !is_num {
            1.0
        } else {
            0.0
        };
        let missing = MISSING_TOKENS.contains(&value.to_lowercase().as_str()) as u8 as f32;
        let ws_mismatch = {
            let has = value.contains(' ');
            if (self.whitespace_rate > 0.8 && !has) || (self.whitespace_rate < 0.2 && has) {
                1.0
            } else {
                0.0
            }
        };
        let has_upper = value.chars().any(|c| c.is_ascii_uppercase()) as u8 as f32;
        vec![
            1.0,
            freq,
            pat_freq,
            len_z / 10.0,
            num_z / 10.0,
            num_mismatch,
            missing,
            ws_mismatch,
            has_upper,
        ]
    }

    /// Unsupervised ensemble vote: count detectors flagging the cell.
    fn votes(&self, value: &str) -> usize {
        let f = self.features(value);
        let mut v = 0;
        if f[1] < 1.5 / self.n as f32 {
            v += 1; // rare value
        }
        if f[2] < 0.1 {
            v += 1; // rare pattern
        }
        if f[3] > 0.3 {
            v += 1; // length outlier
        }
        if f[4] > 0.3 {
            v += 1; // numeric outlier
        }
        v += (f[5] + f[6] + f[7]) as usize; // hard violations
        v
    }
}

/// Per-column logistic regression over the detector features.
struct LogReg {
    w: Vec<f32>,
    usable: bool,
    fallback_positive: bool,
}

impl LogReg {
    fn train(xs: &[Vec<f32>], ys: &[bool], rng: &mut StdRng) -> Self {
        let pos = ys.iter().filter(|&&y| y).count();
        if pos == 0 || pos == ys.len() {
            // Single-class labels: fall back to the unsupervised ensemble.
            return Self {
                w: Vec::new(),
                usable: false,
                fallback_positive: pos > 0,
            };
        }
        let d = xs[0].len();
        let mut w: Vec<f32> = (0..d).map(|_| rng.random_range(-0.01..0.01)).collect();
        let lr = 0.5f32;
        for _ in 0..300 {
            let mut grad = vec![0.0f32; d];
            for (x, &y) in xs.iter().zip(ys) {
                let z: f32 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - y as u8 as f32;
                for (g, &xi) in grad.iter_mut().zip(x) {
                    *g += err * xi / xs.len() as f32;
                }
            }
            for (wi, g) in w.iter_mut().zip(&grad) {
                *wi -= lr * g;
            }
        }
        Self {
            w,
            usable: true,
            fallback_positive: false,
        }
    }

    fn predict(&self, x: &[f32], votes: usize) -> bool {
        if !self.usable {
            // Ensemble vote threshold, biased by the single observed class.
            return if self.fallback_positive {
                votes >= 1
            } else {
                votes >= 2
            };
        }
        let z: f32 = x.iter().zip(&self.w).map(|(a, b)| a * b).sum();
        z > 0.0
    }
}

/// A trained Raha instance.
pub struct Raha {
    stats: Vec<ColumnStats>,
    models: Vec<LogReg>,
}

/// Result of a Raha run.
#[derive(Debug)]
pub struct RahaResult {
    /// Positive-class (dirty) metrics over the test cells.
    pub prf1: PrF1,
    /// Number of labeled tuples consumed.
    pub labeled_tuples: usize,
}

impl Raha {
    /// Train on `labeled_tuples` uniformly sampled non-test rows (Raha's
    /// interactive tuple labeling, batched).
    pub fn train(data: &EdtDataset, labeled_tuples: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let stats: Vec<ColumnStats> = (0..data.columns.len())
            .map(|c| {
                let values: Vec<&str> = data
                    .rows
                    .iter()
                    .map(|r| r.get(&data.columns[c]).unwrap_or(""))
                    .collect();
                ColumnStats::build(&values)
            })
            .collect();

        let mut candidates: Vec<usize> = (0..data.rows.len())
            .filter(|r| !data.test_rows.contains(r))
            .collect();
        rng.shuffle(&mut candidates);
        let labeled = &candidates[..labeled_tuples.min(candidates.len())];

        let models: Vec<LogReg> = (0..data.columns.len())
            .map(|c| {
                let mut xs = Vec::with_capacity(labeled.len());
                let mut ys = Vec::with_capacity(labeled.len());
                for &r in labeled {
                    let value = data.rows[r].get(&data.columns[c]).unwrap_or("");
                    xs.push(stats[c].features(value));
                    ys.push(data.mask[r][c]);
                }
                LogReg::train(&xs, &ys, &mut rng)
            })
            .collect();
        Self { stats, models }
    }

    /// Predict whether the cell at `(row, col)` is erroneous.
    pub fn predict(&self, data: &EdtDataset, row: usize, col: usize) -> bool {
        let value = data.rows[row].get(&data.columns[col]).unwrap_or("");
        let x = self.stats[col].features(value);
        let votes = self.stats[col].votes(value);
        self.models[col].predict(&x, votes)
    }

    /// Evaluate on the held-out test tuples.
    pub fn evaluate(&self, data: &EdtDataset) -> PrF1 {
        let mut pred = Vec::new();
        let mut gold = Vec::new();
        for &r in &data.test_rows {
            for c in 0..data.columns.len() {
                pred.push(self.predict(data, r, c) as usize);
                gold.push(data.mask[r][c] as usize);
            }
        }
        prf1(&pred, &gold, 1)
    }
}

/// Convenience: train + evaluate in one call (the Table 9 "Raha (20-tpl)"
/// row).
pub fn run_raha(data: &EdtDataset, labeled_tuples: usize, seed: u64) -> RahaResult {
    let raha = Raha::train(data, labeled_tuples, seed);
    RahaResult {
        prf1: raha.evaluate(data),
        labeled_tuples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_datasets::edt::{generate, EdtConfig, EdtFlavor};

    #[test]
    fn pattern_signature_collapses() {
        assert_eq!(pattern_of("(866) 246-6453"), "(d)sd-d");
        assert_eq!(pattern_of("abc"), "a");
        assert_eq!(pattern_of("12.5"), "d.d");
    }

    #[test]
    fn raha_beats_chance_on_beers() {
        let data = generate(EdtFlavor::Beers, &EdtConfig::default());
        let result = run_raha(&data, 20, 0);
        assert!(result.prf1.f1 > 0.4, "Raha F1 too low: {:?}", result.prf1);
    }

    #[test]
    fn raha_runs_on_all_flavors() {
        let cfg = EdtConfig {
            rows: Some(80),
            ..Default::default()
        };
        for flavor in EdtFlavor::ALL {
            let data = generate(flavor, &cfg);
            let result = run_raha(&data, 20, 1);
            assert!(result.prf1.f1 >= 0.0, "{}", data.name);
        }
    }

    #[test]
    fn more_labels_do_not_hurt_much() {
        let data = generate(EdtFlavor::Hospital, &EdtConfig::default());
        let few = run_raha(&data, 5, 2).prf1.f1;
        let many = run_raha(&data, 40, 2).prf1.f1;
        assert!(many + 0.15 >= few, "labels hurt: {few} -> {many}");
    }
}
