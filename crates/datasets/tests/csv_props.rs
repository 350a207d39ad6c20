//! Property/fuzz tests for the CSV reader (`rotom_datasets::csv`): tables
//! written by `write_row` parse back exactly, with LF or CRLF row ends and
//! at any chunk size, and whatever text arrives (truncated at any char
//! boundary, mutated byte- or char-wise, heavy in quotes, CRs and embedded
//! newlines) `parse_table`, `table_chunks` and `parse_row` return a value or
//! a typed `CsvError` and never panic. Hand-rolled property loops in the
//! style of `http_props` and `json_props` (offline build: no proptest);
//! failures print the case seed.

use rotom_datasets::csv::{parse_row, parse_table, table_chunks, write_row, CsvError};
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngExt, SeedableRng};

const CASES: u64 = 64;

/// Characters that exercise the grammar: separators, quotes, line breaks
/// and multi-byte characters.
const POOL: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    ',',
    '"',
    '\n',
    '\r',
    'é',
    '✓',
    '\u{10348}',
];

/// Generator: a field without a bare CR (the writer does not quote CRs, so
/// a CR-free field is what round-trips).
fn random_field(rng: &mut StdRng) -> String {
    let n = rng.random_range(0..8usize);
    (0..n)
        .map(|_| loop {
            let c = POOL[rng.random_range(0..POOL.len())];
            if c != '\r' {
                break c;
            }
        })
        .collect()
}

/// Generator: a header of 1-4 columns and 0-5 rows of that width.
fn random_table(rng: &mut StdRng) -> (Vec<String>, Vec<Vec<String>>) {
    let width = rng.random_range(1..5usize);
    let row = |rng: &mut StdRng| (0..width).map(|_| random_field(rng)).collect::<Vec<_>>();
    let header = row(rng);
    let rows = (0..rng.random_range(0..6usize)).map(|_| row(rng)).collect();
    (header, rows)
}

/// The table as CSV text with `eol` after every row.
fn render(header: &[String], rows: &[Vec<String>], eol: &str) -> String {
    let mut text = String::new();
    for row in std::iter::once(header).chain(rows.iter().map(Vec::as_slice)) {
        let fields: Vec<&str> = row.iter().map(String::as_str).collect();
        text.push_str(&write_row(&fields));
        text.push_str(eol);
    }
    text
}

/// Every chunk of `table_chunks`, or its first error.
fn chunked(text: &str, chunk_rows: usize) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows = Vec::new();
    for chunk in table_chunks(text, chunk_rows)? {
        rows.extend(chunk?);
    }
    Ok(rows)
}

/// All three readers on `text`: a panic in any fails with `label`, and the
/// streaming reader must agree with `parse_table`.
fn assert_total(label: &str, text: &str) {
    let outcome = std::panic::catch_unwind(|| {
        let _ = parse_row(text);
        let table = parse_table(text);
        for chunk_rows in [1, 3] {
            let streamed = chunked(text, chunk_rows);
            match (&table, &streamed) {
                (Ok((_, rows)), Ok(got)) => assert_eq!(rows, got),
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("parse_table {table:?} vs table_chunks {streamed:?}"),
            }
        }
    });
    if outcome.is_err() {
        panic!("{label}: a reader panicked or disagreed on {text:?}");
    }
}

#[test]
fn written_tables_parse_back_with_lf_or_crlf() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xc5f1, case));
        let (header, rows) = random_table(&mut rng);
        for eol in ["\n", "\r\n"] {
            let text = render(&header, &rows, eol);
            let parsed =
                parse_table(&text).unwrap_or_else(|e| panic!("case {case}: {e}: {text:?}"));
            assert_eq!(
                parsed,
                (header.clone(), rows.clone()),
                "case {case}: {text:?}"
            );
            let chunk_rows = rng.random_range(1..4usize);
            assert_eq!(chunked(&text, chunk_rows), Ok(rows.clone()), "case {case}");
        }
    }
}

#[test]
fn truncation_at_every_char_boundary_is_total() {
    for case in 0..CASES / 2 {
        let mut rng = StdRng::seed_from_u64(split_seed(0x7c07, case));
        let (header, rows) = random_table(&mut rng);
        let eol = if rng.random_bool(0.5) { "\n" } else { "\r\n" };
        let text = render(&header, &rows, eol);
        for (cut, _) in text.char_indices().chain([(text.len(), ' ')]) {
            assert_total(&format!("case {case} prefix {cut}"), &text[..cut]);
        }
    }
}

#[test]
fn char_mutations_are_total() {
    for case in 0..CASES * 4 {
        let mut rng = StdRng::seed_from_u64(split_seed(0x3c4a, case));
        let (header, rows) = random_table(&mut rng);
        let mut chars: Vec<char> = render(&header, &rows, "\n").chars().collect();
        for _ in 0..rng.random_range(1..4usize) {
            let c = POOL[rng.random_range(0..POOL.len())];
            let at = rng.random_range(0..=chars.len());
            match rng.random_range(0..3u32) {
                0 if at < chars.len() => chars[at] = c,
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.insert(at, c),
            }
        }
        let text: String = chars.into_iter().collect();
        assert_total(&format!("case {case}"), &text);
    }
}

#[test]
fn byte_mutations_that_stay_utf8_are_total() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xb17e, case));
        let (header, rows) = random_table(&mut rng);
        let mut bytes = render(&header, &rows, "\r\n").into_bytes();
        for _ in 0..16 {
            let at = rng.random_range(0..bytes.len());
            let before = bytes[at];
            bytes[at] = rng.random_range(0..=255u8);
            match std::str::from_utf8(&bytes) {
                Ok(text) => assert_total(&format!("case {case} byte {at}"), text),
                Err(_) => bytes[at] = before,
            }
        }
    }
}

#[test]
fn quote_and_line_break_soup_is_total() {
    const SOUP: &[&str] = &["\"", "\"\"", ",", "\n", "\r\n", "\r", "a", "é"];
    for case in 0..CASES * 4 {
        let mut rng = StdRng::seed_from_u64(split_seed(0x50a9, case));
        let text: String = (0..rng.random_range(0..24usize))
            .map(|_| SOUP[rng.random_range(0..SOUP.len())])
            .collect();
        assert_total(&format!("case {case}"), &text);
    }
}
