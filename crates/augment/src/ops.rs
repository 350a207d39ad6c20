//! The simple data-augmentation operators of Table 3.
//!
//! Every operator transforms a serialized token sequence while preserving the
//! `[COL]`/`[VAL]`/`[SEP]` structure: token- and span-level operators only
//! touch tokens inside value spans, attribute-level operators move or drop
//! whole `[COL] …` groups, and `entity_swap` exchanges the two sides of the
//! `[SEP]`.
//!
//! Destructive operators pick their target tokens uniformly. [`apply`] parses
//! that structure once and dispatches every operator from one `match`;
//! operators that differ in one step (replace or insert a synonym, the
//! shortest span, drop or swap a column) share one arm.

use rotom_rng::rngs::StdRng;
use rotom_rng::RngExt;
use rotom_text::serialize::parse_structure;
use rotom_text::thesaurus::Thesaurus;
use rotom_text::token::is_structural;

/// The simple DA operators of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DaOp {
    /// Sample and delete a token.
    TokenDel,
    /// Sample a token and replace it with a synonym.
    TokenRepl,
    /// Sample two tokens and swap them.
    TokenSwap,
    /// Sample a token and insert a synonym to its right.
    TokenInsert,
    /// Sample and delete a span of tokens.
    SpanDel,
    /// Sample a span of tokens and shuffle their order.
    SpanShuffle,
    /// Choose two columns/attributes and swap their order (EM / EDT only).
    ColShuffle,
    /// Choose a column/attribute and drop it entirely (EM / EDT only).
    ColDel,
    /// Swap the order of the two entity records (EM only).
    EntitySwap,
}

impl DaOp {
    /// All operators, in Table 3 order.
    pub const ALL: [DaOp; 9] = [
        DaOp::TokenDel,
        DaOp::TokenRepl,
        DaOp::TokenSwap,
        DaOp::TokenInsert,
        DaOp::SpanDel,
        DaOp::SpanShuffle,
        DaOp::ColShuffle,
        DaOp::ColDel,
        DaOp::EntitySwap,
    ];

    /// The token/span-level operators applicable to any task.
    pub const TEXT_LEVEL: [DaOp; 6] = [
        DaOp::TokenDel,
        DaOp::TokenRepl,
        DaOp::TokenSwap,
        DaOp::TokenInsert,
        DaOp::SpanDel,
        DaOp::SpanShuffle,
    ];

    /// Short snake_case name (matches Table 3).
    pub fn name(self) -> &'static str {
        match self {
            DaOp::TokenDel => "token_del",
            DaOp::TokenRepl => "token_repl",
            DaOp::TokenSwap => "token_swap",
            DaOp::TokenInsert => "token_insert",
            DaOp::SpanDel => "span_del",
            DaOp::SpanShuffle => "span_shuffle",
            DaOp::ColShuffle => "col_shuffle",
            DaOp::ColDel => "col_del",
            DaOp::EntitySwap => "entity_swap",
        }
    }
}

/// Shared context for applying DA operators.
pub struct DaContext {
    /// Synonym source for `token_repl` / `token_insert`.
    pub thesaurus: Thesaurus,
    /// Maximum span length for span-level operators.
    pub max_span: usize,
}

impl Default for DaContext {
    fn default() -> Self {
        Self {
            thesaurus: Thesaurus::builtin(),
            max_span: 4,
        }
    }
}

/// A uniform draw from `items`; `None` (and no draw) if it is empty.
fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[rng.random_range(0..items.len())])
}

/// A uniform index below `n` other than `i` (`n >= 2`): one draw over the
/// `n - 1` others.
fn other_than(i: usize, n: usize, rng: &mut StdRng) -> usize {
    let j = rng.random_range(0..n - 1);
    j + usize::from(j >= i)
}

/// Apply `op` to `tokens`, returning the transformed sequence.
///
/// Operators that cannot apply (e.g. `entity_swap` on a sequence without
/// `[SEP]`, or `token_repl` with no synonym-bearing token) return the input
/// unchanged — never panic.
pub fn apply(op: DaOp, tokens: &[String], ctx: &DaContext, rng: &mut StdRng) -> Vec<String> {
    let s = parse_structure(tokens);
    // Token-level operators touch only non-marker tokens of value spans; for
    // plain text that is every position.
    let values = || {
        s.value_spans
            .iter()
            .flat_map(|&(a, b)| a..b)
            .filter(|&i| !is_structural(&tokens[i]))
    };
    let mut out = tokens.to_vec();
    match op {
        DaOp::TokenDel => {
            if let Some(&i) = pick(&values().collect::<Vec<_>>(), rng) {
                out.remove(i);
            }
        }
        DaOp::TokenSwap => {
            let eligible: Vec<usize> = values().collect();
            if eligible.len() >= 2 {
                let i = rng.random_range(0..eligible.len());
                let j = other_than(i, eligible.len(), rng);
                out.swap(eligible[i], eligible[j]);
            }
        }
        DaOp::TokenRepl | DaOp::TokenInsert => {
            let eligible: Vec<usize> = values()
                .filter(|&i| ctx.thesaurus.has_synonym(&tokens[i]))
                .collect();
            if let Some(&i) = pick(&eligible, rng) {
                let syns = ctx.thesaurus.synonyms(&tokens[i]);
                let syn = syns[rng.random_range(0..syns.len())].to_string();
                if op == DaOp::TokenRepl {
                    out[i] = syn;
                } else {
                    out.insert(i + 1, syn);
                }
            }
        }
        DaOp::SpanDel | DaOp::SpanShuffle => {
            // A shuffle needs a run of at least two tokens to move anything.
            let min = if op == DaOp::SpanDel { 1 } else { 2 };
            let runs: Vec<&(usize, usize)> =
                s.value_spans.iter().filter(|(a, b)| b - a >= min).collect();
            if let Some(&&(a, b)) = pick(&runs, rng) {
                let span = rng.random_range(min..=ctx.max_span.clamp(min, b - a));
                let start = a + rng.random_range(0..=b - a - span);
                if op == DaOp::SpanDel {
                    out.drain(start..start + span);
                } else {
                    rng.shuffle(&mut out[start..start + span]);
                }
            }
        }
        DaOp::ColShuffle | DaOp::ColDel => {
            // The `[COL] …` groups of each entity, split at the `[SEP]`. Only
            // a segment of two or more columns qualifies: a swap needs two,
            // and a deletion must leave the segment one.
            let sep = s.sep_index.unwrap_or(tokens.len());
            let (left, right): (Vec<_>, Vec<_>) = s.col_spans.iter().partition(|c| c.0 < sep);
            let groups: Vec<Vec<&(usize, usize)>> =
                [left, right].into_iter().filter(|g| g.len() >= 2).collect();
            if let Some(g) = pick(&groups, rng) {
                let i = rng.random_range(0..g.len());
                if op == DaOp::ColDel {
                    out.drain(g[i].0..g[i].1);
                } else {
                    let j = other_than(i, g.len(), rng);
                    let (lo, hi) = (g[i.min(j)], g[i.max(j)]);
                    // lo mid hi -> mid hi lo -> hi mid lo, in place.
                    let region = &mut out[lo.0..hi.1];
                    region.rotate_left(lo.1 - lo.0);
                    region[..hi.1 - lo.1].rotate_left(hi.0 - lo.1);
                }
            }
        }
        DaOp::EntitySwap => {
            if let Some(sep) = s.sep_index {
                // left [SEP] right -> right left [SEP] -> right [SEP] left.
                out.rotate_left(sep + 1);
                out[tokens.len() - sep - 1..].rotate_right(1);
            }
        }
    }
    out
}

/// Apply `op` to every input, fanning out across `pool`.
///
/// Each example gets its own RNG seeded by `split_seed(base_seed, index)`,
/// so the result depends only on `(op, inputs, base_seed)` — bit-identical
/// at any worker count, including a 1-thread (serial) pool.
pub fn apply_batch(
    op: DaOp,
    inputs: &[&[String]],
    ctx: &DaContext,
    base_seed: u64,
    pool: &rotom_nn::RotomPool,
) -> Vec<Vec<String>> {
    use rotom_rng::SeedableRng;
    let out = pool.map(inputs.len(), |i| {
        let mut rng = StdRng::seed_from_u64(rotom_rng::split_seed(base_seed, i as u64));
        apply(op, inputs[i], ctx, &mut rng)
    });
    emit_aug_record(op.name(), inputs, &out);
    out
}

/// Emit one `aug` telemetry record for a finished augmentation batch:
/// batch size, how many outputs differ from their input, and the mean token
/// length delta. Pure observation of already-computed results — consumes no
/// RNG and never alters the outputs.
pub(crate) fn emit_aug_record(op_name: &str, inputs: &[&[String]], outputs: &[Vec<String>]) {
    use rotom_nn::telemetry::{self, Value};
    if !telemetry::enabled() || outputs.is_empty() {
        return;
    }
    let changed = inputs
        .iter()
        .zip(outputs)
        .filter(|(inp, out)| inp[..] != out[..])
        .count();
    let len_delta: i64 = inputs
        .iter()
        .zip(outputs)
        .map(|(inp, out)| out.len() as i64 - inp.len() as i64)
        .sum();
    telemetry::emit(
        "aug",
        op_name,
        &[
            ("n", Value::U64(outputs.len() as u64)),
            ("changed", Value::U64(changed as u64)),
            (
                "mean_len_delta",
                Value::F64(len_delta as f64 / outputs.len() as f64),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;
    use rotom_text::serialize::{serialize_pair, serialize_record, Record};
    use rotom_text::tokenizer::tokenize;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    fn record() -> Record {
        Record::new(vec![
            ("title", "effective timestamping in relational databases"),
            ("year", "1999"),
        ])
    }

    #[test]
    fn token_del_removes_exactly_one() {
        let toks = tokenize("where is the orange bowl");
        let out = apply(DaOp::TokenDel, &toks, &DaContext::default(), &mut rng());
        assert_eq!(out.len(), toks.len() - 1);
    }

    #[test]
    fn token_del_never_removes_markers() {
        let toks = serialize_record(&record());
        let markers = |t: &[String]| t.iter().filter(|x| is_structural(x)).count();
        let mut r = rng();
        for _ in 0..50 {
            let out = apply(DaOp::TokenDel, &toks, &DaContext::default(), &mut r);
            assert_eq!(markers(&out), markers(&toks));
        }
    }

    #[test]
    fn token_repl_substitutes_synonym() {
        let toks = tokenize("effective timestamping in relational databases");
        let ctx = DaContext::default();
        let mut r = rng();
        let out = apply(DaOp::TokenRepl, &toks, &ctx, &mut r);
        assert_eq!(out.len(), toks.len());
        let diff = out.iter().zip(&toks).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1, "{out:?}");
    }

    #[test]
    fn token_insert_grows_by_one() {
        let toks = tokenize("fast databases are good");
        let out = apply(DaOp::TokenInsert, &toks, &DaContext::default(), &mut rng());
        assert_eq!(out.len(), toks.len() + 1);
    }

    #[test]
    fn token_swap_is_permutation() {
        let toks = tokenize("a b c d e");
        let out = apply(DaOp::TokenSwap, &toks, &DaContext::default(), &mut rng());
        let mut a = toks.clone();
        let mut b = out.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_ne!(out, toks);
    }

    #[test]
    fn span_del_removes_contiguous_span() {
        let toks = tokenize("one two three four five six");
        let out = apply(DaOp::SpanDel, &toks, &DaContext::default(), &mut rng());
        assert!(out.len() < toks.len());
        // Remaining tokens appear in original order (subsequence check).
        let mut it = toks.iter();
        for t in &out {
            assert!(it.any(|x| x == t), "output not a subsequence");
        }
    }

    #[test]
    fn span_shuffle_preserves_multiset() {
        let toks = tokenize("one two three four five six");
        let out = apply(DaOp::SpanShuffle, &toks, &DaContext::default(), &mut rng());
        let mut a = toks.clone();
        let mut b = out.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn col_del_drops_one_column() {
        let toks = serialize_record(&record());
        let out = apply(DaOp::ColDel, &toks, &DaContext::default(), &mut rng());
        let cols = |t: &[String]| t.iter().filter(|x| *x == "[COL]").count();
        assert_eq!(cols(&out), cols(&toks) - 1);
    }

    #[test]
    fn col_shuffle_keeps_all_tokens() {
        let toks = serialize_record(&record());
        let out = apply(DaOp::ColShuffle, &toks, &DaContext::default(), &mut rng());
        let mut a = toks.clone();
        let mut b = out.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_ne!(out, toks);
    }

    #[test]
    fn entity_swap_is_involution() {
        let r1 = record();
        let r2 = Record::new(vec![("title", "efficient timestamps for database systems")]);
        let toks = serialize_pair(&r1, &r2);
        let once = apply(DaOp::EntitySwap, &toks, &DaContext::default(), &mut rng());
        let twice = apply(DaOp::EntitySwap, &once, &DaContext::default(), &mut rng());
        assert_ne!(once, toks);
        assert_eq!(twice, toks);
    }

    #[test]
    fn entity_swap_without_sep_is_identity() {
        let toks = tokenize("no separator here");
        let out = apply(DaOp::EntitySwap, &toks, &DaContext::default(), &mut rng());
        assert_eq!(out, toks);
    }

    /// FNV-1a fingerprint of every operator's output over structured, plain,
    /// degenerate and empty inputs across 200 seeds. One extra draw after
    /// each call is folded in, so a change in how many draws an operator
    /// consumes fails here even when its output does not change.
    #[test]
    fn operator_outputs_and_draws_are_pinned() {
        use rotom_rng::{fnv1a64, fnv1a64_extend, RngCore};
        let left = Record::new(vec![
            ("title", "effective timestamping in relational databases"),
            ("authors", "fast good systems"),
            ("year", "1999"),
        ]);
        let right = Record::new(vec![
            ("title", "efficient timestamps for database systems"),
            ("venue", "vldb"),
        ]);
        let inputs: Vec<Vec<String>> = vec![
            serialize_pair(&left, &right),
            tokenize("effective timestamping in relational databases are fast and good"),
            serialize_record(&left),
            tokenize("[COL] a [VAL]"),
            vec![],
            vec!["databases".to_string()],
        ];
        let ctx = DaContext::default();
        let mut h = fnv1a64(&[]);
        for op in DaOp::ALL {
            for toks in &inputs {
                for seed in 0..200u64 {
                    let mut r = StdRng::seed_from_u64(seed);
                    for t in apply(op, toks, &ctx, &mut r) {
                        h = fnv1a64_extend(h, t.as_bytes());
                        h = fnv1a64_extend(h, &[0xff]);
                    }
                    h = fnv1a64_extend(h, &[0xfe]);
                    h = fnv1a64_extend(h, &r.next_u64().to_le_bytes());
                }
            }
        }
        assert_eq!(h, 0x52db_f9a4_1c4a_c233);
    }

    #[test]
    fn ops_never_panic_on_tiny_inputs() {
        let mut r = rng();
        let cases: Vec<Vec<String>> = vec![
            vec![],
            vec!["x".to_string()],
            vec!["[COL]".to_string()],
            vec!["[SEP]".to_string()],
            tokenize("[COL] a [VAL]"),
        ];
        for toks in cases {
            for op in DaOp::ALL {
                let _ = apply(op, &toks, &DaContext::default(), &mut r);
            }
        }
    }
}
