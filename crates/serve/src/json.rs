//! JSON for the serving plane's request/response bodies.
//!
//! The codec itself is [`rotom_nn::json`], re-exported here: a total,
//! depth-bounded recursive parser that keeps each number's raw source text,
//! and the string escaper. This module adds only the score-matrix helpers
//! serving needs. Scores are written with Rust's shortest-round-trip float
//! formatting and re-parsed directly as `f32`, so a score that crosses the
//! wire equals the in-process score bit for bit — the property the serving
//! equivalence suite pins.

use std::fmt::Write as _;

pub use rotom_nn::json::{parse, push_quoted, quote, Json, MAX_DEPTH};

/// Append an `f32` in shortest-round-trip form (`{:?}`), the encoding whose
/// direct re-parse as `f32` is bit-identical. Non-finite values become
/// `null` (JSON has no NaN/Inf) — scoring outputs are softmax probabilities,
/// so this is a never-taken guard, not a lossy path.
pub(crate) fn push_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Render a score matrix as a JSON array of arrays of `f32`.
pub fn render_scores(scores: &[Vec<f32>]) -> String {
    let mut out = String::with_capacity(16 * scores.len());
    out.push('[');
    for (i, row) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f32(&mut out, v);
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Parse a score matrix rendered by [`render_scores`] back into `f32` rows
/// (each number parsed directly as `f32`; used by tests and benchmarks to
/// assert wire round-trips are bit-identical).
pub fn parse_scores(value: &Json) -> Result<Vec<Vec<f32>>, String> {
    let rows = value.as_arr().ok_or("scores must be an array")?;
    rows.iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| "score row must be an array".to_string())?
                .iter()
                .map(|v| {
                    v.as_f32()
                        .ok_or_else(|| "score must be a number".to_string())
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_wire_roundtrip_is_bit_identical() {
        let rows = vec![
            vec![
                0.1f32,
                1.0 / 3.0,
                f32::MIN_POSITIVE,
                1e-40, /* subnormal */
            ],
            vec![0.999_999_94f32, std::f32::consts::E],
        ];
        let text = render_scores(&rows);
        let parsed = parse_scores(&parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.len(), rows.len());
        for (a, b) in rows.iter().zip(&parsed) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
            }
        }
    }
}
