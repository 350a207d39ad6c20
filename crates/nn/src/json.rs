//! Minimal recursive JSON: the workspace's one codec.
//!
//! The workspace carries no serde (offline policy). This module serves both
//! JSON readers and writers in the workspace: the serving plane's
//! request/response bodies (nested arrays such as
//! `{"inputs": [["tok", …], …]}`) and the telemetry JSONL records
//! ([`crate::telemetry::render_record`] / [`crate::telemetry::parse_line`]).
//! Three properties matter more than generality:
//!
//! * **Total on untrusted input** — the parser never panics and bounds
//!   recursion at [`MAX_DEPTH`]; byte volume is bounded by the caller (the
//!   HTTP body cap, one JSONL line).
//! * **Strict grammar** — numbers must match JSON's
//!   `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, a `\u` escape takes
//!   exactly four hex digits, and raw control characters inside strings are
//!   rejected, so every reader agrees on what is a document.
//! * **Bit-exact number round-trips** — numbers are kept as their *raw
//!   source text* ([`Json::Num`]) and parsed to `f32`/`f64` only on demand.
//!   Floats are written with Rust's shortest-round-trip formatting (`{:?}`)
//!   and re-parsed directly at their own width, so a score that crosses the
//!   wire equals the in-process score bit for bit — the property the
//!   serving equivalence suite pins.

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (see module docs).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number parsed as `f32` directly from its source text (no `f64`
    /// intermediate, so shortest-repr `f32` text round-trips exactly).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `u64` (rejects signs, fractions, exponents).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (surrounding whitespace allowed, trailing
/// bytes rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes after document at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    let bytes = s.as_bytes();
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(s, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' after key {key:?}"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let value = parse_value(s, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(s, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(s, pos)?)),
        Some(b'n') if s[*pos..].starts_with("null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(b't') if s[*pos..].starts_with("true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if s[*pos..].starts_with("false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(_) => {
            let start = *pos;
            let len = number_len(&bytes[start..])
                .ok_or_else(|| format!("invalid value at offset {start}"))?;
            *pos += len;
            Ok(Json::Num(s[start..*pos].to_string()))
        }
        None => Err("unexpected end of document".to_string()),
    }
}

/// Byte length of the JSON number that `b` starts with
/// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`), or `None` when it
/// starts with none. The caller rejects whatever follows the number if it
/// is not a separator, so `01` and `1.2.3` fail there.
fn number_len(b: &[u8]) -> Option<usize> {
    let digits = |from: usize| b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let mut i = usize::from(b.first() == Some(&b'-'));
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => i += digits(i),
        _ => return None,
    }
    if b.get(i) == Some(&b'.') {
        let n = digits(i + 1);
        if n == 0 {
            return None;
        }
        i += 1 + n;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let n = digits(i);
        if n == 0 {
            return None;
        }
        i += n;
    }
    Some(i)
}

/// Parse a JSON string literal starting at `*pos` (must be a `"`).
fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = s.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    let mut chars = s[*pos..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((j, 'u')) => {
                    // Checked first: `from_str_radix` alone accepts a sign.
                    let hex = s
                        .get(*pos + j + 1..*pos + j + 5)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or("\\u escape needs four hex digits")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    // Surrogate pairs are not needed (the writer escapes only
                    // control characters); lone surrogates are rejected by
                    // from_u32.
                    out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            c if (c as u32) < 0x20 => {
                return Err("raw control character in string".to_string());
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

/// Render a JSON string literal (quoted, escaped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Append [`quote`]`(s)` to `out` without an intermediate allocation.
pub fn push_quoted(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_request_shape() {
        let doc = parse(r#"{"inputs": [["a", "b"], ["c"]], "n": 2}"#).unwrap();
        let inputs = doc.get("inputs").unwrap().as_arr().unwrap();
        assert_eq!(inputs.len(), 2);
        assert_eq!(inputs[0].as_arr().unwrap()[1].as_str(), Some("b"));
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1} extra",
            "\"unterminated",
            "nul",
            "+-3",
            "--1",
            "1.2.3",
            "{\"a\":}",
            // Outside JSON's number grammar.
            "+1",
            ".5",
            "1.",
            "01",
            "[+1]",
            "-",
            "1e",
            "1e+",
            "-.5",
            "0x10",
            // `\u` takes exactly four hex digits.
            "\"\\u+041\"",
            "\"\\u04\"",
            "\"\\u004g\"",
            // Raw control characters must be escaped.
            "\"a\u{1}b\"",
            "\"tab\there\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn accepts_every_number_form_in_the_grammar() {
        for (text, value) in [
            ("-0", -0.0f64),
            ("0.0", 0.0),
            ("1E+5", 1e5),
            ("-1.5e-3", -1.5e-3),
            ("1e-40", 1e-40),
            ("123", 123.0),
        ] {
            let doc = parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(doc, Json::Num(text.to_string()));
            assert_eq!(
                doc.as_f64().map(f64::to_bits),
                Some(value.to_bits()),
                "{text:?}"
            );
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "a \"quoted\"\nline\twith \\ and ✓ \u{1}\u{8}\u{c}";
        let doc = parse(&quote(original)).unwrap();
        assert_eq!(doc.as_str(), Some(original));
        let escaped = parse(r#""\b\f\/\u0041\u00e9""#).unwrap();
        assert_eq!(escaped.as_str(), Some("\u{8}\u{c}/Aé"));
    }

    #[test]
    fn numbers_keep_raw_text() {
        let doc = parse("[1e3, -0.5, 7]").unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr[0], Json::Num("1e3".to_string()));
        assert_eq!(arr[1].as_f64(), Some(-0.5));
        assert_eq!(arr[2].as_u64(), Some(7));
        assert_eq!(arr[0].as_u64(), None, "u64 accessor stays strict");
    }
}
