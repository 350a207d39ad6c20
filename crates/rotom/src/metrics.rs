//! Evaluation metrics: accuracy and per-class precision / recall / F1.

/// Binary-classification counts for the positive class.
#[derive(Debug, PartialEq)]
pub struct PrF1 {
    /// Precision of the positive class.
    pub precision: f32,
    /// Recall of the positive class.
    pub recall: f32,
    /// F1 of the positive class.
    pub f1: f32,
}

/// Accuracy over (prediction, gold) pairs.
///
/// # Panics
/// If the slices differ in length (a prediction/gold misalignment upstream);
/// the message names both lengths.
pub fn accuracy(pred: &[usize], gold: &[usize]) -> f32 {
    assert_eq!(
        pred.len(),
        gold.len(),
        "accuracy: {} predictions vs {} gold labels — the slices must align 1:1",
        pred.len(),
        gold.len()
    );
    if pred.is_empty() {
        return 0.0;
    }
    let correct = pred.iter().zip(gold).filter(|(a, b)| a == b).count();
    correct as f32 / pred.len() as f32
}

/// Precision/recall/F1 of class `positive` (the paper reports the positive
/// class's F1 for EM — "match" — and EDT — "dirty").
///
/// **All-negative-gold convention:** when no gold label equals `positive`
/// and no prediction does either (tp = fp = fn = 0), precision, recall, and
/// F1 are all reported as 0.0 — even though every prediction is correct.
/// There is simply no positive-class evidence to score, and 0.0 (rather
/// than a flattering 1.0 or a poisonous NaN) keeps the golden-run snapshots
/// stable. Accuracy is the metric that credits
/// those runs.
///
/// # Panics
/// If the slices differ in length; the message names both lengths.
pub fn prf1(pred: &[usize], gold: &[usize], positive: usize) -> PrF1 {
    assert_eq!(
        pred.len(),
        gold.len(),
        "prf1: {} predictions vs {} gold labels — the slices must align 1:1",
        pred.len(),
        gold.len()
    );
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for (&p, &g) in pred.iter().zip(gold) {
        match (p == positive, g == positive) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f32 / (tp + fp) as f32
    };
    let recall = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f32 / (tp + fn_) as f32
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    PrF1 {
        precision,
        recall,
        f1,
    }
}

/// An ordered list of named scalar metrics with a plain-text serialization,
/// used by the golden-run regression suite (`tests/golden.rs`) to snapshot
/// final run metrics and compare them against checked-in blessed values.
///
/// The format is one `key value` pair per line, values printed with six
/// decimal places. Keys must match exactly (and in order) on comparison;
/// values compare within an absolute tolerance so cross-machine FMA rounding
/// differences in the kernels don't flip the suite.
#[derive(Debug, Default)]
pub struct MetricsSnapshot {
    /// `(key, value)` pairs in serialization order.
    pub entries: Vec<(String, f32)>,
}

impl MetricsSnapshot {
    /// Empty snapshot.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Append one named metric.
    pub(crate) fn push(&mut self, key: impl Into<String>, value: f32) {
        let key = key.into();
        debug_assert!(
            !key.contains(char::is_whitespace),
            "snapshot keys must be whitespace-free: {key:?}"
        );
        self.entries.push((key, value));
    }

    /// Serialize as `key value` lines.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            out.push_str(&format!("{k} {v:.6}\n"));
        }
        out
    }

    /// Parse the [`to_text`](Self::to_text) format. Blank lines and `#`
    /// comments are ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut snap = Self::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts
                .next()
                .ok_or_else(|| format!("line {}: empty", lineno + 1))?;
            let value: f32 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing value", lineno + 1))?
                .parse()
                .map_err(|e| format!("line {}: bad value: {e}", lineno + 1))?;
            if parts.next().is_some() {
                return Err(format!("line {}: trailing tokens", lineno + 1));
            }
            snap.push(key, value);
        }
        Ok(snap)
    }

    /// Compare against `expected`: keys must match exactly and in order,
    /// values within `tol` absolute. Returns a list of human-readable
    /// mismatch descriptions (empty = match).
    pub fn diff(&self, expected: &MetricsSnapshot, tol: f32) -> Vec<String> {
        let mut errors = Vec::new();
        if self.entries.len() != expected.entries.len() {
            errors.push(format!(
                "entry count mismatch: got {}, expected {}",
                self.entries.len(),
                expected.entries.len()
            ));
        }
        for (i, ((gk, gv), (ek, ev))) in self.entries.iter().zip(&expected.entries).enumerate() {
            if gk != ek {
                errors.push(format!("key {i}: got {gk:?}, expected {ek:?}"));
            } else if (gv - ev).abs() > tol {
                errors.push(format!(
                    "{gk}: got {gv:.6}, expected {ev:.6} (|diff| {:.6} > tol {tol})",
                    (gv - ev).abs()
                ));
            }
        }
        errors
    }
}

/// Mean and (sample) standard deviation of a slice.
pub fn mean_std(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f32>() / values.len() as f32;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / (values.len() - 1) as f32;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[1, 0, 1], &[1, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn perfect_f1() {
        let m = prf1(&[1, 0, 1, 0], &[1, 0, 1, 0], 1);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn known_prf1() {
        // tp=1 (idx0), fp=1 (idx1), fn=1 (idx3)
        let m = prf1(&[1, 1, 0, 0], &[1, 0, 0, 1], 1);
        assert!((m.precision - 0.5).abs() < 1e-6);
        assert!((m.recall - 0.5).abs() < 1e-6);
        assert!((m.f1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_no_positives() {
        let m = prf1(&[0, 0], &[0, 0], 1);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn all_negative_gold_scores_zero_even_when_predictions_are_perfect() {
        // The documented convention: with no positive-class evidence at all
        // (tp = fp = fn = 0), P = R = F1 = 0.0 despite 100% accuracy.
        let pred = [0, 0, 0, 0];
        let gold = [0, 0, 0, 0];
        let m = prf1(&pred, &gold, 1);
        assert_eq!(
            m,
            PrF1 {
                precision: 0.0,
                recall: 0.0,
                f1: 0.0
            }
        );
        assert_eq!(accuracy(&pred, &gold), 1.0);
    }

    #[test]
    fn length_mismatch_panics_name_both_lengths() {
        let acc = std::panic::catch_unwind(|| accuracy(&[1, 0, 1], &[1, 0])).unwrap_err();
        let msg = acc.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains("3 predictions") && msg.contains("2 gold"),
            "{msg}"
        );
        let pr = std::panic::catch_unwind(|| prf1(&[1], &[1, 0], 1)).unwrap_err();
        let msg = pr.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains("1 predictions") && msg.contains("2 gold"),
            "{msg}"
        );
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert!((s - 2f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut s = MetricsSnapshot::new();
        s.push("f1", 0.8125);
        s.push("curve_0", 0.5);
        let text = s.to_text();
        let parsed = MetricsSnapshot::parse(&text).unwrap();
        assert!(parsed.diff(&s, 1e-6).is_empty());
    }

    #[test]
    fn snapshot_parse_skips_comments_and_blanks() {
        let parsed = MetricsSnapshot::parse("# header\n\nacc 0.75\n").unwrap();
        assert_eq!(parsed.entries, vec![("acc".to_string(), 0.75)]);
    }

    #[test]
    fn snapshot_parse_rejects_garbage() {
        assert!(MetricsSnapshot::parse("acc").is_err());
        assert!(MetricsSnapshot::parse("acc zero").is_err());
        assert!(MetricsSnapshot::parse("acc 0.5 extra").is_err());
    }

    #[test]
    fn snapshot_diff_reports_mismatches() {
        let mut a = MetricsSnapshot::new();
        a.push("f1", 0.8);
        let mut b = MetricsSnapshot::new();
        b.push("f1", 0.9);
        assert!(a.diff(&b, 0.05).len() == 1);
        assert!(a.diff(&b, 0.2).is_empty());
        let mut c = MetricsSnapshot::new();
        c.push("acc", 0.8);
        assert!(!a.diff(&c, 0.5).is_empty(), "key mismatch must be flagged");
    }
}
