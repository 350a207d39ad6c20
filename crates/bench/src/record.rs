//! The perf bins' shared harness: the `BENCH_*.json` record format, the
//! child-per-thread-count driver, the `--check` gate and the command line.
//!
//! A BENCH file is one JSON object:
//!
//! ```text
//! {
//!   "workload": "<what was measured>",
//!   "baseline": [<rows>],    the first run's `current`, kept verbatim after
//!   "current": [<rows>],     this run
//!   "<extra>": [<rows>],     bin-specific sections (serve's `overload`, ...)
//!   "trajectory": [<rows>]   current-vs-baseline ratios, one per current row
//! }
//! ```
//!
//! with one row per line. A row is a flat object whose first field
//! identifies it (`threads`, or `size` for perfsmoke). Each value is kept as
//! its rendered text, and the parser accepts only text that renders
//! back byte for byte, so the number of decimals is fixed once, when a bin
//! builds the row, and derived fields (speedups) are stored as plain fields.
//! (The workspace carries no serde.)
//!
//! `--check` evaluates a bin's declarative [`Rule`] list against this run
//! and the checked-in file, reports every violation, and exits 1 without
//! rewriting the file. A rule whose reference (checked-in file, row or key)
//! is missing is itself a violation, so a gate never passes vacuously.

use std::process::Command;

/// Worker counts every perf bin measures at.
pub const THREAD_COUNTS: [usize; 2] = [1, 8];

/// One row of a BENCH section: `(key, rendered value)` fields in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Row(Vec<(String, String)>);

impl Row {
    /// An empty row; its first field becomes its identity.
    pub fn new() -> Row {
        Row::default()
    }

    /// Append a number rendered with `decimals` digits after the point.
    pub fn num(mut self, key: &str, value: f64, decimals: usize) -> Row {
        self.0
            .push((key.to_string(), format!("{value:.decimals$}")));
        self
    }

    /// Append a string value (no `"`, `\` or `, `: the format has no escapes).
    pub fn text(mut self, key: &str, value: &str) -> Row {
        assert!(
            !value.contains(['"', '\\']) && !value.contains(", "),
            "{key}: {value:?}"
        );
        self.0.push((key.to_string(), format!("\"{value}\"")));
        self
    }

    /// The numeric value of `key`; `None` when absent or a string.
    pub(crate) fn get(&self, key: &str) -> Option<f64> {
        let (_, v) = self.0.iter().find(|(k, _)| k == key)?;
        v.parse().ok()
    }

    /// The identifying first field as `key=value`, for messages.
    pub(crate) fn id(&self) -> String {
        self.0
            .first()
            .map_or_else(String::new, |(k, v)| format!("{k}={v}"))
    }

    fn same_id(&self, other: &Row) -> bool {
        self.0.first() == other.0.first()
    }

    /// The row as one JSON object.
    pub(crate) fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Parse one rendered row (a child's result line, or a line of a file).
    pub(crate) fn parse(text: &str) -> Result<Row, String> {
        let body = text.strip_prefix('{').and_then(|t| t.strip_suffix('}'));
        let mut row = Row::new();
        for field in body.ok_or("a row is one {...} object")?.split(", ") {
            let (key, value) = field
                .split_once(": ")
                .ok_or(format!("no `key: value` in `{field}`"))?;
            let key = unquote(key).ok_or(format!("unquoted key {key}"))?;
            let numeric = value.parse::<f64>().is_ok_and(f64::is_finite);
            if !numeric && unquote(value).is_none() {
                return Err(format!("`{key}` is neither a finite number nor a string"));
            }
            row.0.push((key.to_string(), value.to_string()));
        }
        Ok(row)
    }
}

/// `"text"` without its quotes, when `text` is exactly one quoted string.
fn unquote(text: &str) -> Option<&str> {
    let inner = text.strip_prefix('"')?.strip_suffix('"')?;
    (!inner.contains(['"', '\\'])).then_some(inner)
}

/// A whole `BENCH_*.json` file.
#[derive(Debug)]
pub(crate) struct BenchFile {
    /// What the bin measured.
    workload: String,
    /// `(name, rows)` in file order.
    sections: Vec<(String, Vec<Row>)>,
}

impl BenchFile {
    /// The rows of section `name`.
    fn section(&self, name: &str) -> Option<&[Row]> {
        let (_, rows) = self.sections.iter().find(|(n, _)| n == name)?;
        Some(rows)
    }

    /// The file's text.
    fn render(&self) -> String {
        let mut out = format!("{{\n  \"workload\": \"{}\"", self.workload);
        for (name, rows) in &self.sections {
            let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.render())).collect();
            out += &format!(",\n  \"{name}\": [\n{}\n  ]", rows.join(",\n"));
        }
        out + "\n}\n"
    }

    /// Parse a file's text. Only the exact layout [`BenchFile::render`]
    /// writes is accepted; errors name the line.
    fn parse(text: &str) -> Result<BenchFile, String> {
        let mut file = BenchFile {
            workload: String::new(),
            sections: Vec::new(),
        };
        for (n, line) in text.lines().enumerate() {
            let at = |e: String| format!("line {}: {e}", n + 1);
            let item = line.trim().trim_end_matches(',');
            if let Some(w) = item.strip_prefix("\"workload\": ") {
                file.workload = unquote(w)
                    .ok_or_else(|| at("bad workload".into()))?
                    .to_string();
            } else if let Some(name) = item.strip_suffix(": [").and_then(unquote) {
                if file.section(name).is_some() {
                    return Err(at(format!("duplicate section `{name}`")));
                }
                file.sections.push((name.to_string(), Vec::new()));
            } else if item.len() > 1 && item.starts_with('{') {
                let (_, rows) = file
                    .sections
                    .last_mut()
                    .ok_or_else(|| at("row outside a section".into()))?;
                rows.push(Row::parse(item).map_err(at)?);
            } else if !matches!(item, "{" | "}" | "]" | "") {
                return Err(at(format!("unexpected `{item}`")));
            }
        }
        let rendered = file.render();
        match rendered.lines().zip(text.lines()).position(|(a, b)| a != b) {
            Some(n) => Err(format!("line {}: not in the BENCH layout", n + 1)),
            None if rendered != text => Err("not in the BENCH layout (length)".into()),
            None => Ok(file),
        }
    }
}

/// What a [`Rule`] bounds a measured field by.
#[derive(Debug, Clone, Copy)]
pub enum Ref {
    /// The same row of the same section in the checked-in file.
    Previous,
    /// The same row of the checked-in file's `baseline`.
    Baseline,
    /// The rule's factor itself.
    Absolute,
    /// Another field of the same row.
    Field(&'static str),
}

/// One `--check` gate: `field` of every row of `section` must be at least
/// (or at most) `factor` times the reference value.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    section: &'static str,
    field: &'static str,
    floor: bool,
    factor: f64,
    of: Ref,
    row: Option<&'static str>,
    when_same: Option<&'static str>,
}

impl Rule {
    /// `field >= factor * reference` on every `current` row.
    pub const fn at_least(field: &'static str, factor: f64, of: Ref) -> Rule {
        let (section, floor, row, when_same) = ("current", true, None, None);
        Rule {
            section,
            field,
            floor,
            factor,
            of,
            row,
            when_same,
        }
    }

    /// `field <= factor * reference` on every `current` row.
    pub const fn at_most(field: &'static str, factor: f64, of: Ref) -> Rule {
        Rule {
            floor: false,
            ..Rule::at_least(field, factor, of)
        }
    }

    /// Gate the rows of `section` instead of `current`.
    pub const fn in_section(self, section: &'static str) -> Rule {
        Rule { section, ..self }
    }

    /// Gate only the row whose identifying value renders as `id` (a number
    /// as written, e.g. `"512"`, or a string without its quotes).
    pub const fn only_row(self, id: &'static str) -> Rule {
        Rule {
            row: Some(id),
            ..self
        }
    }

    /// Skip a row whose `key` differs from the reference row's (the two
    /// measured different workloads).
    pub const fn when_same(self, key: &'static str) -> Rule {
        Rule {
            when_same: Some(key),
            ..self
        }
    }

    /// The value `row`'s field is bounded by (before the factor), `None`
    /// when the rule skips the row, or why the row cannot be gated.
    fn reference(&self, row: &Row, old: Option<&BenchFile>) -> Result<Option<f64>, String> {
        let lacks = |r: &Row, whose: &str, key: &str| {
            r.get(key)
                .ok_or(format!("{whose} row {} lacks gated key {key}", row.id()))
        };
        let name = match self.of {
            Ref::Absolute => return Ok(Some(1.0)),
            Ref::Field(other) => return lacks(row, self.section, other).map(Some),
            Ref::Previous => self.section,
            Ref::Baseline => "baseline",
        };
        let old = old.ok_or("no checked-in file to gate against (run once without --check)")?;
        let rows = old
            .section(name)
            .ok_or(format!("checked-in file has no `{name}` section"))?;
        let id = row.id();
        let prev = rows.iter().find(|r| r.same_id(row));
        let prev = prev.ok_or(format!(
            "checked-in `{name}` has no row {id} (gated key {})",
            self.field
        ))?;
        let whose = format!("checked-in `{name}`");
        if let Some(key) = self.when_same {
            if lacks(prev, &whose, key)? != lacks(row, self.section, key)? {
                return Ok(None);
            }
        }
        lacks(prev, &whose, self.field).map(Some)
    }
}

/// Every violation of `rules` by `new` (this run's file) against `old` (the
/// checked-in file, `None` when there is none). Messages name `file`, the
/// row and the key.
fn violations(file: &str, rules: &[Rule], old: Option<&BenchFile>, new: &BenchFile) -> Vec<String> {
    let mut out = Vec::new();
    for rule in rules {
        let Some(rows) = new.section(rule.section) else {
            out.push(format!(
                "{file}: this run has no `{}` section",
                rule.section
            ));
            continue;
        };
        let gated = rows.iter().filter(|r| {
            rule.row.is_none() || r.0.first().map(|(_, v)| v.trim_matches('"')) == rule.row
        });
        for row in gated {
            let now = row.get(rule.field).ok_or(format!(
                "`{}` row {} lacks gated key {}",
                rule.section,
                row.id(),
                rule.field
            ));
            match now.and_then(|now| Ok((now, rule.reference(row, old)?))) {
                Err(e) => out.push(format!("{file}: {e}")),
                Ok((_, None)) => {}
                Ok((now, Some(base))) => {
                    let bound = rule.factor * base;
                    if (rule.floor && now < bound) || (!rule.floor && now > bound) {
                        let cmp = if rule.floor { "<" } else { ">" };
                        out.push(format!(
                            "{file}: `{}` row {}: {} {now} {cmp} {bound} ({} x {:?})",
                            rule.section,
                            row.id(),
                            rule.field,
                            rule.factor,
                            rule.of
                        ));
                    }
                }
            }
        }
    }
    out.dedup();
    out
}

/// One `trajectory` field: a current-vs-baseline ratio of `field`.
#[derive(Debug)]
pub struct Ratio {
    key: &'static str,
    field: &'static str,
    decimals: usize,
    inverse: bool,
}

impl Ratio {
    /// `key = current / baseline` (higher is better for `field`).
    pub const fn of(key: &'static str, field: &'static str, decimals: usize) -> Ratio {
        Ratio {
            key,
            field,
            decimals,
            inverse: false,
        }
    }

    /// `key = baseline / current` (lower is better for `field`).
    pub const fn inverse(key: &'static str, field: &'static str, decimals: usize) -> Ratio {
        Ratio {
            inverse: true,
            ..Ratio::of(key, field, decimals)
        }
    }
}

/// One perf bin's output: what it measured and how `--check` gates it.
pub struct Bench<'a> {
    /// Output path, relative to the working directory.
    pub file: &'a str,
    /// The `workload` line.
    pub workload: String,
    /// This run's rows, one per measured configuration.
    pub current: Vec<Row>,
    /// Bin-specific sections written between `current` and `trajectory`.
    pub extra: Vec<(&'a str, Vec<Row>)>,
    /// The `trajectory` fields.
    pub trajectory: &'a [Ratio],
    /// The `--check` gates.
    pub rules: &'a [Rule],
}

impl Bench<'_> {
    /// Print this run's rows, keep the checked-in `baseline` (or record this
    /// run as the baseline when there is none), gate under `check`, and
    /// write the file. A gate violation or an unreadable checked-in file
    /// exits 1 and leaves the file as it was.
    pub fn finish(self, check: bool) {
        let file = self.file;
        let old = match std::fs::read_to_string(file) {
            Ok(text) => Some(BenchFile::parse(&text).unwrap_or_else(|e| {
                fail(&format!(
                    "{file}: {e}; fix it, or delete it to record a fresh baseline"
                ))
            })),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => fail(&format!("{file}: {e}")),
        };
        let baseline = match old.as_ref().and_then(|o| o.section("baseline")) {
            Some(rows) => rows.to_vec(),
            None => {
                println!("no existing baseline; recording this run as the baseline");
                self.current.clone()
            }
        };
        let trajectory = self.current.iter().map(|now| {
            let base = baseline.iter().find(|b| b.same_id(now)).unwrap_or(now);
            self.trajectory
                .iter()
                .fold(Row(now.0[..1].to_vec()), |row, r| {
                    let cur = now.get(r.field).expect("trajectory field measured");
                    let base = base.get(r.field).unwrap_or(cur);
                    let (num, den) = if r.inverse { (base, cur) } else { (cur, base) };
                    row.num(r.key, num / den.max(1e-9), r.decimals)
                })
        });
        let trajectory: Vec<Row> = trajectory.collect();
        let mut sections = vec![("baseline", baseline), ("current", self.current)];
        sections.extend(self.extra);
        sections.push(("trajectory", trajectory));
        for (name, rows) in &sections[1..] {
            rows.iter().for_each(|r| println!("{name} {}", r.render()));
        }
        let sections = sections.into_iter().map(|(n, rows)| (n.to_string(), rows));
        let new = BenchFile {
            workload: self.workload,
            sections: sections.collect(),
        };
        if check {
            let found = violations(file, self.rules, old.as_ref(), &new);
            found.iter().for_each(|v| eprintln!("{v}"));
            if !found.is_empty() {
                fail(&format!(
                    "{file}: {} gate violation(s); file not rewritten",
                    found.len()
                ));
            }
        }
        std::fs::write(file, new.render()).unwrap_or_else(|e| fail(&format!("write {file}: {e}")));
        println!("wrote {file}");
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Run `measure` once per [`THREAD_COUNTS`] entry, each in a fresh process
/// (`ROTOM_THREADS` is read once per process), and return the rows in that
/// order. The bin re-executes itself with its own arguments and
/// `{tag}_CHILD` set; in that child this function prints `{tag} <row>` and
/// exits instead of returning.
pub fn per_thread_count(tag: &str, measure: impl FnOnce() -> Row) -> Vec<Row> {
    let child_env = format!("{tag}_CHILD");
    if std::env::var_os(&child_env).is_some() {
        println!("{tag} {}", measure().render());
        std::process::exit(0);
    }
    let exe = std::env::current_exe().expect("locate the running bench binary");
    let run = |threads: &usize| {
        let out = Command::new(&exe)
            .args(std::env::args_os().skip(1))
            .env(&child_env, "1")
            .env("ROTOM_THREADS", threads.to_string())
            .output()
            .unwrap_or_else(|e| panic!("spawn {tag} child: {e}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix(tag)?.strip_prefix(' '));
        match (out.status.success(), line.map(Row::parse)) {
            (true, Some(Ok(row))) if row.get("threads") == Some(*threads as f64) => row,
            _ => panic!(
                "{tag} child (threads={threads}) gave no result line:\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            ),
        }
    };
    THREAD_COUNTS.iter().map(run).collect()
}

/// A perf bin's command line: the shared `--check` flag plus the bin's own
/// positive-integer options (blockbench's `--records N`).
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// Gate this run (see [`Bench::finish`]).
    pub check: bool,
    values: Vec<(&'static str, usize)>,
}

impl Args {
    /// Parse `args` (without the program name). An unknown argument, or an
    /// option whose value is missing or not a positive integer, is an error.
    pub(crate) fn parse(args: &[String], options: &[&'static str]) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--check" {
                parsed.check = true;
                continue;
            }
            let Some(&name) = options.iter().find(|o| **o == arg) else {
                return Err(format!("unknown argument `{arg}`"));
            };
            let value = it.next().map_or("", String::as_str);
            match value.parse() {
                Ok(n) if n > 0 => parsed.values.push((name, n)),
                _ => return Err(format!("{name} expects a positive integer, got `{value}`")),
            }
        }
        Ok(parsed)
    }

    /// Parse the process arguments; on error print it with `usage` and exit 2.
    pub fn from_env(usage: &str, options: &[&'static str]) -> Args {
        let args: Vec<String> = std::env::args_os()
            .skip(1)
            .map(|a| a.to_string_lossy().into_owned())
            .collect();
        Args::parse(&args, options).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2)
        })
    }

    /// The last value given for option `name`.
    pub fn value(&self, name: &str) -> Option<usize> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(sections: &[(&str, Vec<Row>)]) -> BenchFile {
        BenchFile {
            workload: "w".into(),
            sections: sections
                .iter()
                .map(|(n, rows)| (n.to_string(), rows.clone()))
                .collect(),
        }
    }

    fn row(threads: usize, fields: &[(&str, f64)]) -> Row {
        fields.iter().fold(
            Row::new().num("threads", threads as f64, 0),
            |r, &(k, v)| r.num(k, v, 17),
        )
    }

    /// The smallest f64 above `x` (x > 0).
    fn up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    /// The largest f64 below `x` (x > 0).
    fn down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn checked_in_files_round_trip_byte_for_byte() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for name in ["train", "infer", "serve", "blocking", "compute"] {
            let path = format!("{root}/BENCH_{name}.json");
            let text = std::fs::read_to_string(&path).expect("checked-in BENCH file");
            let parsed = BenchFile::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
            let baseline = parsed.section("baseline").expect("baseline section");
            assert!(!baseline.is_empty(), "{path}: empty baseline");
            for r in baseline {
                assert!(
                    text.contains(&format!("    {}", r.render())),
                    "{path}: {}",
                    r.id()
                );
            }
            assert_eq!(parsed.render(), text, "{path}");
        }
    }

    #[test]
    fn rows_render_fixed_decimals_and_parse_back() {
        let r = Row::new()
            .num("threads", 8.0, 0)
            .num("rate", 2.0 / 3.0, 3)
            .text("op", "gelu_fwd");
        let text = r.render();
        assert_eq!(text, r#"{"threads": 8, "rate": 0.667, "op": "gelu_fwd"}"#);
        assert!(Row::parse("{}").is_err());
        assert_eq!(Row::parse(&text), Ok(r.clone()));
        assert_eq!(r.get("rate"), Some(0.667));
        assert_eq!(r.get("op"), None);
        assert_eq!(r.id(), "threads=8");
    }

    #[test]
    fn parser_rejects_anything_but_the_rendered_layout() {
        let good = file(&[(
            "current",
            vec![Row::new().num("threads", 1.0, 0).num("x", 2.0, 3)],
        )])
        .render();
        assert!(BenchFile::parse(&good).is_ok());
        for (from, to) in [
            ("2.000", "abc"),
            ("2.000", ""),
            ("2.000", "NaN"),
            ("\"x\"", "x"),
            ("\"x\": ", "\"x\":"),
            (", \"x\"", " \"x\""),
            ("\"w\"", "\"w\\\""),
            ("\"current\"", "current"),
            ("    {", "  {"),
            ("\n}\n", "\n}"),
            ("\n}\n", "\n}\n}\n"),
            ("  \"workload\": \"w\",\n", ""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert!(BenchFile::parse(&bad).is_err(), "accepted {bad:?}");
        }
        let dup = format!(
            "{}\n{}",
            &good[..good.len() - 3],
            &good[good.find("  \"current").unwrap()..]
        );
        assert!(
            BenchFile::parse(&dup).unwrap_err().contains("duplicate"),
            "{dup}"
        );
        let err = BenchFile::parse(&good.replace("2.000", "abc")).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
    }

    /// Each rule kind passes exactly at its threshold and fails one ulp past.
    #[test]
    fn every_rule_kind_fires_one_ulp_past_its_threshold() {
        let old = |v: f64| {
            file(&[
                ("baseline", vec![row(1, &[("x", v)])]),
                ("current", vec![row(1, &[("x", v)])]),
            ])
        };
        let new =
            |x: f64, other: f64| file(&[("current", vec![row(1, &[("x", x), ("y", other)])])]);
        let cases: [(Rule, f64, f64, f64); 6] = [
            // (rule, at-threshold value, one-ulp-past value, reference)
            (
                Rule::at_least("x", 0.8, Ref::Previous),
                0.8 * 120.0,
                down(0.8 * 120.0),
                120.0,
            ),
            (
                Rule::at_least("x", 0.9, Ref::Baseline),
                0.9 * 120.0,
                down(0.9 * 120.0),
                120.0,
            ),
            (
                Rule::at_most("x", 3.0, Ref::Previous),
                3.0 * 120.0,
                up(3.0 * 120.0),
                120.0,
            ),
            (
                Rule::at_least("x", 0.95, Ref::Absolute),
                0.95,
                down(0.95),
                120.0,
            ),
            (
                Rule::at_least("x", 1.5, Ref::Field("y")),
                1.5 * 120.0,
                down(1.5 * 120.0),
                120.0,
            ),
            (
                Rule::at_most("x", 4000.0, Ref::Field("y")),
                4000.0 * 120.0,
                up(4000.0 * 120.0),
                120.0,
            ),
        ];
        for (rule, at, past, reference) in cases {
            let prev = old(reference);
            let ok = violations("F", &[rule], Some(&prev), &new(at, reference));
            assert!(ok.is_empty(), "{rule:?} at threshold: {ok:?}");
            let bad = violations("F", &[rule], Some(&prev), &new(past, reference));
            assert_eq!(bad.len(), 1, "{rule:?} one ulp past: {bad:?}");
            assert!(
                bad[0].starts_with("F: `current` row threads=1: x "),
                "{}",
                bad[0]
            );
        }
    }

    #[test]
    fn missing_reference_row_fails_naming_file_row_and_key() {
        let rule = [Rule::at_least("steps_per_sec", 0.8, Ref::Previous)];
        let new = file(&[(
            "current",
            vec![
                row(1, &[("steps_per_sec", 100.0)]),
                row(8, &[("steps_per_sec", 90.0)]),
            ],
        )]);
        let old = file(&[("current", vec![row(1, &[("steps_per_sec", 100.0)])])]);
        let v = violations("BENCH_train.json", &rule, Some(&old), &new);
        assert_eq!(
            v,
            ["BENCH_train.json: checked-in `current` has no row threads=8 (gated key steps_per_sec)"]
        );
        // No checked-in file at all, or no such section: also a failure
        // (reported once, not once per row).
        let v = violations("F", &rule, None, &new);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("F: no checked-in file"), "{}", v[0]);
        let no_section = file(&[("baseline", vec![])]);
        let v = violations("F", &rule, Some(&no_section), &new);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("no `current` section"), "{}", v[0]);
    }

    #[test]
    fn reference_row_lacking_the_gated_key_fails() {
        let rule = [Rule::at_least("pairs_per_sec", 0.8, Ref::Previous)];
        let new = file(&[("current", vec![row(1, &[("pairs_per_sec", 5.0)])])]);
        let old = file(&[("current", vec![row(1, &[("recall", 1.0)])])]);
        let v = violations("BENCH_blocking.json", &rule, Some(&old), &new);
        assert_eq!(
            v,
            ["BENCH_blocking.json: checked-in `current` row threads=1 lacks gated key pairs_per_sec"]
        );
        // The measured row lacking the key fails too.
        let v = violations("F", &rule, Some(&new), &old);
        assert_eq!(
            v,
            ["F: `current` row threads=1 lacks gated key pairs_per_sec"]
        );
    }

    #[test]
    fn row_filter_and_when_same_select_what_is_compared() {
        let new = file(&[(
            "current",
            vec![
                row(64, &[("x", 1.0), ("records", 10.0)]),
                row(512, &[("x", 3.0), ("records", 20.0)]),
            ],
        )]);
        let only_512 = [Rule::at_least("x", 2.0, Ref::Absolute).only_row("512")];
        assert!(violations("F", &only_512, None, &new).is_empty());
        let all = [Rule::at_least("x", 2.0, Ref::Absolute)];
        assert_eq!(violations("F", &all, None, &new).len(), 1);
        let named = file(&[(
            "current",
            vec![
                Row::new().text("op", "gelu").num("x", 3.0, 1),
                Row::new().text("op", "softmax").num("x", 1.0, 1),
            ],
        )]);
        let only_gelu = [Rule::at_least("x", 2.0, Ref::Absolute).only_row("gelu")];
        assert!(violations("F", &only_gelu, None, &named).is_empty());
        let only_softmax = [Rule::at_least("x", 2.0, Ref::Absolute).only_row("softmax")];
        assert_eq!(violations("F", &only_softmax, None, &named).len(), 1);

        let old = file(&[(
            "current",
            vec![
                row(64, &[("x", 100.0), ("records", 10.0)]),
                row(512, &[("x", 100.0), ("records", 99.0)]),
            ],
        )]);
        let same = [Rule::at_least("x", 0.8, Ref::Previous).when_same("records")];
        let v = violations("F", &same, Some(&old), &new);
        assert_eq!(
            v.len(),
            1,
            "only the row with matching records is gated: {v:?}"
        );
        assert!(v[0].contains("row threads=64"), "{}", v[0]);
    }

    #[test]
    fn overload_rules_gate_their_own_section() {
        let rules = [
            Rule::at_least("shed", 1.0, Ref::Absolute).in_section("overload"),
            Rule::at_least("accepted", 1.0, Ref::Absolute).in_section("overload"),
        ];
        let new = file(&[(
            "overload",
            vec![row(1, &[("shed", 0.0), ("accepted", 5.0)])],
        )]);
        let v = violations("F", &rules, None, &new);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("`overload` row threads=1: shed 0"),
            "{}",
            v[0]
        );
    }

    #[test]
    fn args_accept_check_and_declared_options_only() {
        let args = |a: &[&str]| -> Vec<String> { a.iter().map(|s| s.to_string()).collect() };
        let opts = &["--records"];
        assert_eq!(Args::parse(&args(&[]), opts), Ok(Args::default()));
        let parsed = Args::parse(&args(&["--records", "2000", "--check"]), opts).unwrap();
        assert!(parsed.check);
        assert_eq!(parsed.value("--records"), Some(2000));
        for bad in [
            &["--chek"][..],
            &["check"],
            &["--records"],
            &["--records", "abc"],
            &["--records", "0"],
            &["--records", "-5"],
        ] {
            assert!(Args::parse(&args(bad), opts).is_err(), "accepted {bad:?}");
        }
        assert!(Args::parse(&args(&["--records", "5"]), &[]).is_err());
    }
}
