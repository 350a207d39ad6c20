//! Property/fuzz tests for the shared JSON codec (`rotom_nn::json`) and the
//! telemetry line reader built on it (`telemetry::parse_line`): generated
//! documents round-trip through `quote` and `parse`, every float the writers
//! emit re-parses bit for bit, and whatever bytes arrive — torn prefixes,
//! single-byte mutations, random garbage, over-deep nesting — both readers
//! return `Ok` or `Err` and never panic. Hand-rolled property loops in the
//! style of `http_props` (offline build: no proptest); failures print the
//! case seed.

use rotom_nn::json::{self, Json, MAX_DEPTH};
use rotom_nn::telemetry::{self, Value};
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngCore, RngExt, SeedableRng};

const CASES: u64 = 64;

/// Generator: a string mixing ASCII, escapes-to-be (quotes, backslashes,
/// control characters) and multi-byte characters.
fn random_string(rng: &mut StdRng) -> String {
    const POOL: &str = "azQ0 \"\\/\n\r\t\u{0}\u{1f}\u{8}\u{c}\u{7f}é✓\u{10348}[{:,";
    let pool: Vec<char> = POOL.chars().collect();
    let n = rng.random_range(0..12usize);
    (0..n)
        .map(|_| pool[rng.random_range(0..pool.len())])
        .collect()
}

/// Generator: number text inside JSON's grammar.
fn random_number(rng: &mut StdRng) -> String {
    let digits = |rng: &mut StdRng, first_nonzero: bool| -> String {
        let n = rng.random_range(1..6usize);
        (0..n)
            .map(|i| {
                let lo = if i == 0 && first_nonzero { 1 } else { 0 };
                (b'0' + rng.random_range(lo..10u8)) as char
            })
            .collect()
    };
    let mut s = String::new();
    if rng.random_bool(0.3) {
        s.push('-');
    }
    if rng.random_bool(0.2) {
        s.push('0');
    } else {
        s.push_str(&digits(rng, true));
    }
    if rng.random_bool(0.4) {
        s.push('.');
        s.push_str(&digits(rng, false));
    }
    if rng.random_bool(0.3) {
        s.push(['e', 'E'][rng.random_range(0..2usize)]);
        match rng.random_range(0..3u32) {
            0 => s.push('+'),
            1 => s.push('-'),
            _ => {}
        }
        s.push_str(&digits(rng, false));
    }
    s
}

/// Generator: a nested document at most `depth` containers deep.
fn random_doc(rng: &mut StdRng, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.random_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.random_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        4 => Json::Arr(
            (0..rng.random_range(0..4usize))
                .map(|_| random_doc(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.random_range(0..4usize))
                .map(|_| (random_string(rng), random_doc(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Render `doc` with random insignificant whitespace between tokens.
fn render(doc: &Json, rng: &mut StdRng, out: &mut String) {
    let ws = |rng: &mut StdRng, out: &mut String| {
        for _ in 0..rng.random_range(0..3usize) {
            out.push([' ', '\n', '\t', '\r'][rng.random_range(0..4usize)]);
        }
    };
    ws(rng, out);
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(raw) => out.push_str(raw),
        Json::Str(s) => json::push_quoted(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(&json::quote(k));
                ws(rng, out);
                out.push(':');
                render(v, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
    ws(rng, out);
}

/// A scoring request body as the server receives it.
fn scoring_body(rng: &mut StdRng) -> String {
    let rows: Vec<String> = (0..rng.random_range(1..4usize))
        .map(|_| {
            let toks: Vec<String> = (0..rng.random_range(1..5usize))
                .map(|_| json::quote(&random_string(rng)))
                .collect();
            format!("[{}]", toks.join(","))
        })
        .collect();
    format!("{{\"inputs\": [{}], \"n\": 2}}", rows.join(", "))
}

/// A telemetry line with one field of every value kind.
fn telemetry_line(rng: &mut StdRng) -> String {
    telemetry::render_record(
        rng.next_u64(),
        "step",
        "train.step",
        &[
            ("u", Value::U64(rng.next_u64())),
            ("i", Value::I64(-(rng.random_range(1..1_000_000i64)))),
            ("f", Value::F64(f64::from_bits(rng.next_u64()))),
            ("s", Value::Str(random_string(rng))),
            ("null", Value::Null),
        ],
    )
}

/// Both readers on `text`: a panic in either fails with `label`.
fn assert_total(label: &str, text: &str) {
    if std::panic::catch_unwind(|| {
        let _ = json::parse(text);
        let _ = telemetry::parse_line(text);
    })
    .is_err()
    {
        panic!("{label}: a parser panicked on {text:?}");
    }
}

#[test]
fn generated_documents_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0x1503, case));
        let doc = random_doc(&mut rng, 5);
        let mut text = String::new();
        render(&doc, &mut rng, &mut text);
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text:?}"));
        assert_eq!(parsed, doc, "case {case}: {text:?}");
        let s = random_string(&mut rng);
        assert_eq!(
            json::parse(&json::quote(&s)),
            Ok(Json::Str(s.clone())),
            "case {case}: {s:?}"
        );
    }
}

/// Every float the writers emit (`{:?}`: serve's `push_f32`, telemetry's
/// `F64` fields) parses back to the same bits.
#[test]
fn shortest_float_text_parses_back_bit_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xf10a, case));
        for _ in 0..64 {
            let word = rng.next_u64();
            let v32 = f32::from_bits(word as u32);
            if v32.is_finite() {
                let doc = json::parse(&format!("{v32:?}"))
                    .unwrap_or_else(|e| panic!("case {case}: {v32:?}: {e}"));
                assert_eq!(doc.as_f32().map(f32::to_bits), Some(v32.to_bits()));
            }
            let v64 = f64::from_bits(word);
            if v64.is_finite() {
                let line = telemetry::render_record(0, "gauge", "g", &[("v", Value::F64(v64))]);
                let rec = telemetry::parse_line(&line)
                    .unwrap_or_else(|e| panic!("case {case}: {line}: {e}"));
                match rec.field("v") {
                    Some(Value::F64(back)) => assert_eq!(back.to_bits(), v64.to_bits()),
                    other => panic!("case {case}: {line}: got {other:?}"),
                }
            }
        }
    }
}

/// Torn input: every strict prefix of a scoring body or telemetry line is
/// an error (both are objects, so the closing brace is missing), and
/// neither reader panics on any prefix.
#[test]
fn every_byte_prefix_is_a_clean_error() {
    for case in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(split_seed(0x70c5, case));
        for doc in [scoring_body(&mut rng), telemetry_line(&mut rng)] {
            assert!(json::parse(&doc).is_ok(), "case {case}: {doc:?}");
            let bytes = doc.as_bytes();
            for cut in 0..bytes.len() {
                let text = String::from_utf8_lossy(&bytes[..cut]);
                assert_total(&format!("case {case} prefix {cut}"), &text);
                assert!(
                    json::parse(&text).is_err(),
                    "case {case}: prefix {cut} parsed: {text:?}"
                );
            }
        }
    }
}

#[test]
fn every_single_byte_mutation_is_total() {
    for case in 0..4 {
        let mut rng = StdRng::seed_from_u64(split_seed(0x3118, case));
        for doc in [scoring_body(&mut rng), telemetry_line(&mut rng)] {
            let mut bytes = doc.into_bytes();
            for i in 0..bytes.len() {
                let orig = bytes[i];
                for b in 0..=255u8 {
                    bytes[i] = b;
                    let text = String::from_utf8_lossy(&bytes);
                    assert_total(&format!("case {case} byte {i} = {b:#04x}"), &text);
                }
                bytes[i] = orig;
            }
        }
    }
}

#[test]
fn random_bytes_never_panic() {
    const ALPHABET: &[u8] = b"{}[]:,\"\\/-+.eE0123456789 \ntrufalsn\x01\xff";
    for case in 0..CASES * 4 {
        let mut rng = StdRng::seed_from_u64(split_seed(0x6a4c, case));
        let n = rng.random_range(0..64usize);
        let bytes: Vec<u8> = (0..n)
            .map(|_| {
                if rng.random_bool(0.5) {
                    ALPHABET[rng.random_range(0..ALPHABET.len())]
                } else {
                    rng.random_range(0..=255u8)
                }
            })
            .collect();
        assert_total(&format!("case {case}"), &String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn nesting_one_level_past_max_depth_is_rejected() {
    for inner in ["1", "[]", "{}", "\"s\""] {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let wrap = |levels: usize| open.repeat(levels) + inner + &close.repeat(levels);
            assert!(
                json::parse(&wrap(MAX_DEPTH)).is_ok(),
                "{inner} at depth {MAX_DEPTH} in {open}"
            );
            assert!(
                json::parse(&wrap(MAX_DEPTH + 1)).is_err(),
                "{inner} at depth {} in {open}",
                MAX_DEPTH + 1
            );
            assert_total("deep", &wrap(MAX_DEPTH + 1));
        }
    }
}
