//! Record serialization (paper §2.1).
//!
//! Data entries are serialized into token sequences with `[COL]`/`[VAL]`
//! markers; entity pairs and (row, cell) contexts are joined with `[SEP]`.

use crate::token::{COL, SEP, VAL};
use crate::tokenizer::tokenize;

/// A data entry: an ordered set of (attribute, value) pairs.
#[derive(Debug, Clone)]
pub struct Record {
    /// Attribute name/value pairs in schema order.
    pub attrs: Vec<(String, String)>,
}

impl Record {
    /// Build a record from (attribute, value) pairs.
    pub fn new<S: Into<String>>(attrs: Vec<(S, S)>) -> Self {
        Self {
            attrs: attrs
                .into_iter()
                .map(|(a, v)| (a.into(), v.into()))
                .collect(),
        }
    }

    /// Value of the named attribute, if present.
    pub fn get(&self, attr: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v.as_str())
    }
}

/// Serialize one record: `[COL] a1 [VAL] v1 [COL] a2 [VAL] v2 …`.
pub fn serialize_record(r: &Record) -> Vec<String> {
    let mut out = Vec::new();
    for (attr, value) in &r.attrs {
        out.push(COL.to_string());
        out.extend(tokenize(attr));
        out.push(VAL.to_string());
        out.extend(tokenize(value));
    }
    out
}

/// Serialize an entity pair: `ser(a) [SEP] ser(b)` (entity matching input).
pub fn serialize_pair(a: &Record, b: &Record) -> Vec<String> {
    let mut out = serialize_record(a);
    out.push(SEP.to_string());
    out.extend(serialize_record(b));
    out
}

/// Serialize a single cell context-independently: `[COL] attr [VAL] value`.
pub fn serialize_cell(attr: &str, value: &str) -> Vec<String> {
    let mut out = vec![COL.to_string()];
    out.extend(tokenize(attr));
    out.push(VAL.to_string());
    out.extend(tokenize(value));
    out
}

/// Serialize a cell with its row as context: `ser(row) [SEP] [COL] attr [VAL]
/// value` (context-dependent error detection).
pub fn serialize_cell_in_context(row: &Record, attr: &str) -> Vec<String> {
    let mut out = serialize_record(row);
    out.push(SEP.to_string());
    out.extend(serialize_cell(attr, row.get(attr).unwrap_or("")));
    out
}

/// Structural view of a serialized sequence: the token index ranges of each
/// `[VAL]` span, and of each full column ([COL]..next [COL]/[SEP]/end).
///
/// DA operators use this to transform values without breaking the markers.
#[derive(Debug)]
pub struct Structure {
    /// `(start, end)` half-open ranges of value tokens (marker excluded).
    pub value_spans: Vec<(usize, usize)>,
    /// `(start, end)` half-open ranges covering whole `[COL] … ` groups.
    pub col_spans: Vec<(usize, usize)>,
    /// Index of the `[SEP]` that splits two entities, if any.
    pub sep_index: Option<usize>,
}

/// Parse the `[COL]`/`[VAL]`/`[SEP]` structure of a serialized sequence.
///
/// Sequences without markers (plain text classification) yield a single value
/// span covering everything.
pub fn parse_structure(tokens: &[String]) -> Structure {
    let mut value_spans = Vec::new();
    let mut col_spans = Vec::new();
    let mut sep_index = None;
    let mut col_start: Option<usize> = None;
    let mut val_start: Option<usize> = None;

    let close_val = |val_start: &mut Option<usize>, end: usize, spans: &mut Vec<(usize, usize)>| {
        if let Some(s) = val_start.take() {
            if end > s {
                spans.push((s, end));
            }
        }
    };

    for (i, tok) in tokens.iter().enumerate() {
        match tok.as_str() {
            COL => {
                close_val(&mut val_start, i, &mut value_spans);
                if let Some(s) = col_start.take() {
                    col_spans.push((s, i));
                }
                col_start = Some(i);
            }
            VAL => {
                close_val(&mut val_start, i, &mut value_spans);
                val_start = Some(i + 1);
            }
            SEP => {
                close_val(&mut val_start, i, &mut value_spans);
                if let Some(s) = col_start.take() {
                    col_spans.push((s, i));
                }
                if sep_index.is_none() {
                    sep_index = Some(i);
                }
            }
            _ => {}
        }
    }
    close_val(&mut val_start, tokens.len(), &mut value_spans);
    if let Some(s) = col_start.take() {
        col_spans.push((s, tokens.len()));
    }
    if value_spans.is_empty() && !tokens.is_empty() && col_spans.is_empty() {
        value_spans.push((0, tokens.len()));
    }
    Structure {
        value_spans,
        col_spans,
        sep_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn google() -> Record {
        Record::new(vec![("Name", "Google LLC"), ("phone", "(866) 246-6453")])
    }

    #[test]
    fn serialize_record_layout() {
        let toks = serialize_record(&google());
        assert_eq!(toks[0], COL);
        assert_eq!(toks[1], "name");
        assert_eq!(toks[2], VAL);
        assert!(toks.contains(&"google".to_string()));
    }

    #[test]
    fn serialize_pair_has_one_sep() {
        let toks = serialize_pair(&google(), &google());
        assert_eq!(toks.iter().filter(|t| *t == SEP).count(), 1);
    }

    #[test]
    fn cell_in_context_appends_cell() {
        let row = google();
        let toks = serialize_cell_in_context(&row, "phone");
        let s = parse_structure(&toks);
        assert!(s.sep_index.is_some());
        // Cell serialization repeats the attr after the [SEP].
        let sep = s.sep_index.unwrap();
        assert_eq!(toks[sep + 1], COL);
    }

    #[test]
    fn structure_of_record() {
        let toks = serialize_record(&google());
        let s = parse_structure(&toks);
        assert_eq!(s.col_spans.len(), 2);
        assert_eq!(s.value_spans.len(), 2);
        assert!(s.sep_index.is_none());
        // Value spans exclude the markers.
        let (vs, ve) = s.value_spans[0];
        assert_eq!(&toks[vs..ve], &["google", "llc"]);
    }

    #[test]
    fn structure_of_plain_text() {
        let toks: Vec<String> = ["where", "is", "it"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let s = parse_structure(&toks);
        assert_eq!(s.value_spans, vec![(0, 3)]);
        assert!(s.col_spans.is_empty());
    }

    #[test]
    fn record_get() {
        let r = google();
        assert_eq!(r.get("Name"), Some("Google LLC"));
        assert_eq!(r.get("city"), None);
    }
}
