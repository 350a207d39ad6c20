//! Dependency-free CSV reading and writing.
//!
//! Real benchmark suites ship as CSV; the chunked reader feeds such tables
//! into the blocking plane. The writer quotes per RFC 4180 (commas, quotes,
//! newlines); the reader accepts exactly what the writer emits.

use rotom_text::Record;

/// Quote a field when needed (RFC 4180).
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialize one CSV row.
pub fn write_row(fields: &[&str]) -> String {
    fields
        .iter()
        .map(|f| escape(f))
        .collect::<Vec<_>>()
        .join(",")
}

/// Error raised by [`parse_table`], carrying the 1-based physical line
/// number of the offending row.
#[derive(Debug, PartialEq)]
pub struct CsvError {
    /// 1-based line number where the malformed row starts.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "csv line {}: {}", self.line, self.msg)
    }
}

/// Incremental row reader: assembles one logical CSV row at a time from
/// physical lines (quoted fields may span lines), tracking 1-based line
/// numbers for error reporting. The shared core of [`parse_table`] and
/// [`table_chunks`].
struct RowReader<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> RowReader<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().enumerate(),
        }
    }

    /// Next logical row, or `None` at end of input. A row whose quoted
    /// field contains '\n' spans physical lines: the parser carries its
    /// quote state from one line to the next, so each character is read
    /// once however many lines the row spans.
    fn next_row(&mut self) -> Option<Result<Vec<String>, CsvError>> {
        let (i, first) = self.lines.next()?;
        let mut row = RowParser::default();
        let mut done = row.feed(first);
        while !done {
            match self.lines.next() {
                Some((_, next)) => done = row.feed(next),
                None => {
                    return Some(Err(CsvError {
                        line: i + 1,
                        msg: "unterminated quoted field".to_string(),
                    }))
                }
            }
        }
        Some(Ok(row.fields))
    }

    /// Next logical row validated against the header width, with its start
    /// line number for errors.
    fn next_data_row(&mut self, width: usize) -> Option<Result<Vec<String>, CsvError>> {
        // Recompute the start line from the enumerate cursor before reading.
        let start = self.lines.clone().next().map(|(i, _)| i + 1).unwrap_or(1);
        let row = match self.next_row()? {
            Ok(row) => row,
            Err(e) => return Some(Err(e)),
        };
        if row.len() != width {
            let kind = if row.len() < width {
                "ragged row"
            } else {
                "over-long row"
            };
            return Some(Err(CsvError {
                line: start,
                msg: format!(
                    "{kind}: {} fields where the header has {}",
                    row.len(),
                    width
                ),
            }));
        }
        Some(Ok(row))
    }
}

/// Parse a whole CSV table produced by the exporters: a header row followed
/// by data rows of exactly the header's width.
///
/// Unlike looping [`parse_row`] over `text.lines()`, this handles quoted
/// fields spanning physical lines and *rejects* malformed input with the
/// offending line number: unterminated quotes, ragged (short) rows, and
/// over-long rows all error instead of silently reading `""` for missing
/// cells or dropping extras.
///
/// The whole table is materialized; for bounded-memory ingestion of large
/// tables use [`table_chunks`], which shares this grammar.
pub fn parse_table(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>), CsvError> {
    let mut chunks = table_chunks(text, usize::MAX)?;
    let header = chunks.header().to_vec();
    let mut rows = Vec::new();
    for chunk in &mut chunks {
        rows.extend(chunk?);
    }
    Ok((header, rows))
}

/// Streaming chunked reader over a CSV table: the header is parsed eagerly,
/// then each iterator item yields up to `chunk_rows` validated data rows.
/// Identical grammar and errors to [`parse_table`], but peak memory is one
/// chunk — the ingestion shape the blocking pipeline consumes.
pub fn table_chunks(text: &str, chunk_rows: usize) -> Result<TableChunks<'_>, CsvError> {
    let mut reader = RowReader::new(text);
    let header = match reader.next_row() {
        Some(Ok(h)) => h,
        Some(Err(e)) => return Err(e),
        None => {
            return Err(CsvError {
                line: 1,
                msg: "empty input: missing header row".to_string(),
            })
        }
    };
    Ok(TableChunks {
        reader,
        header,
        chunk_rows: chunk_rows.max(1),
        failed: false,
    })
}

/// Iterator returned by [`table_chunks`].
pub struct TableChunks<'a> {
    reader: RowReader<'a>,
    header: Vec<String>,
    chunk_rows: usize,
    failed: bool,
}

impl TableChunks<'_> {
    /// The header row (column names).
    pub fn header(&self) -> &[String] {
        &self.header
    }
}

impl Iterator for TableChunks<'_> {
    type Item = Result<Vec<Vec<String>>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let mut rows = Vec::new();
        while rows.len() < self.chunk_rows {
            match self.reader.next_data_row(self.header.len()) {
                Some(Ok(row)) => rows.push(row),
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                None => break,
            }
        }
        if rows.is_empty() {
            None
        } else {
            Some(Ok(rows))
        }
    }
}

/// Interpret parsed rows as records: one attribute per header column, in
/// header order. The inverse of the exporters' row layout (modulo the
/// `label` column, which callers strip themselves when present).
pub fn rows_to_records(header: &[String], rows: &[Vec<String>]) -> Vec<Record> {
    rows.iter()
        .map(|row| Record {
            attrs: header
                .iter()
                .zip(row)
                .map(|(a, v)| (a.clone(), v.clone()))
                .collect(),
        })
        .collect()
}

/// Parse one CSV row produced by [`write_row`]. Returns `None` on malformed
/// quoting.
pub fn parse_row(line: &str) -> Option<Vec<String>> {
    let mut row = RowParser::default();
    row.feed(line).then_some(row.fields)
}

/// The row grammar as a resumable state machine, fed one physical line at
/// a time.
#[derive(Default)]
struct RowParser {
    fields: Vec<String>,
    cur: String,
    in_quotes: bool,
}

impl RowParser {
    /// Parse `line`, which continues the row after a '\n' when an earlier
    /// line ended inside a quoted field. Returns whether the row is
    /// complete; if not, the '\n' is kept in the open field.
    fn feed(&mut self, line: &str) -> bool {
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match (self.in_quotes, c) {
                (false, ',') => self.fields.push(std::mem::take(&mut self.cur)),
                (false, '"') if self.cur.is_empty() => self.in_quotes = true,
                (false, ch) => self.cur.push(ch),
                (true, '"') => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        self.cur.push('"');
                    } else {
                        self.in_quotes = false;
                    }
                }
                (true, ch) => self.cur.push(ch),
            }
        }
        if self.in_quotes {
            self.cur.push('\n');
            return false;
        }
        self.fields.push(std::mem::take(&mut self.cur));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `rows`-row, three-column table whose fields need quoting.
    fn sample_csv(rows: usize) -> String {
        let mut text = write_row(&["title", "note", "label"]);
        text.push('\n');
        for i in 0..rows {
            let title = format!("item {i}, \"v{}\"", i % 3);
            let note = if i % 4 == 0 { "two\nlines" } else { "" };
            text.push_str(&write_row(&[&title, note, &(i % 2).to_string()]));
            text.push('\n');
        }
        text
    }

    #[test]
    fn row_roundtrip_with_quoting() {
        let fields = ["plain", "has,comma", "has \"quote\"", "multi\nline", ""];
        let line = write_row(&fields);
        let parsed = parse_row(&line).unwrap();
        assert_eq!(parsed, fields);
    }

    #[test]
    fn malformed_quotes_rejected() {
        assert!(parse_row("\"unterminated").is_none());
    }

    #[test]
    fn parse_table_rejects_ragged_row_with_line_number() {
        let text = "a,b,c\n1,2,3\n4,5\n6,7,8\n";
        let err = parse_table(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("ragged row"), "{}", err.msg);
        assert!(err.msg.contains("2 fields"), "{}", err.msg);
        assert!(err.to_string().contains("line 3"), "{}", err);
    }

    #[test]
    fn parse_table_rejects_over_long_row_with_line_number() {
        let text = "a,b\n1,2\n3,4,5\n";
        let err = parse_table(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("over-long row"), "{}", err.msg);
    }

    #[test]
    fn parse_table_rejects_unterminated_quote_at_row_start_line() {
        let text = "a,b\n1,\"never closed\n2,3\n";
        let err = parse_table(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("unterminated"), "{}", err.msg);
    }

    #[test]
    fn parse_table_handles_quoted_newlines_and_empty_input() {
        let line = write_row(&["multi\nline", "x"]);
        let text = format!("h1,h2\n{line}\n");
        let (_, rows) = parse_table(&text).unwrap();
        assert_eq!(rows, vec![vec!["multi\nline".to_string(), "x".to_string()]]);

        let err = parse_table("").unwrap_err();
        assert!(err.msg.contains("missing header"), "{}", err.msg);
    }

    #[test]
    fn quoted_field_of_50k_lines_parses_in_one_pass() {
        let lines: Vec<String> = (0..50_000).map(|i| format!("line {i}, \"q\"")).collect();
        let field = lines.join("\n");
        let text = format!("note,id\n{}\n", write_row(&[&field, "7"]));
        let (header, rows) = parse_table(&text).unwrap();
        assert_eq!(header, ["note", "id"]);
        assert_eq!(rows, vec![vec![field, "7".to_string()]]);
    }

    #[test]
    fn table_chunks_matches_parse_table() {
        let csv = sample_csv(37);
        let (header, rows) = parse_table(&csv).unwrap();
        assert_eq!(rows.len(), 37);
        assert_eq!(rows[1][0], "item 1, \"v1\"");
        assert_eq!(rows[4][1], "two\nlines");
        for chunk_rows in [1, 5, 16, 1000] {
            let mut chunks = table_chunks(&csv, chunk_rows).unwrap();
            assert_eq!(chunks.header(), &header[..]);
            let mut streamed = Vec::new();
            let mut peak = 0usize;
            for c in &mut chunks {
                let c = c.unwrap();
                peak = peak.max(c.len());
                streamed.extend(c);
            }
            assert_eq!(streamed, rows, "chunk_rows={chunk_rows}");
            assert!(peak <= chunk_rows, "chunk_rows={chunk_rows} peak={peak}");
        }
    }

    #[test]
    fn table_chunks_reports_errors_and_fuses() {
        let text = "a,b,c\n1,2,3\n4,5\n6,7,8\n";
        let mut chunks = table_chunks(text, 1).unwrap();
        assert!(chunks.next().unwrap().is_ok());
        let err = chunks.next().unwrap().unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.msg.contains("ragged row"), "{}", err.msg);
        // The iterator fuses after an error.
        assert!(chunks.next().is_none());

        assert!(table_chunks("", 8).is_err(), "missing header must error");
    }

    #[test]
    fn rows_to_records_preserves_schema_order() {
        let header = vec!["title".to_string(), "price".to_string()];
        let rows = vec![vec!["ok go".to_string(), "9.99".to_string()]];
        let recs = rows_to_records(&header, &rows);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get("title"), Some("ok go"));
        assert_eq!(recs[0].get("price"), Some("9.99"));
        assert_eq!(recs[0].attrs[0].0, "title");
    }
}
