//! The simple data-augmentation operators of Table 3.
//!
//! Every operator transforms a serialized token sequence while preserving the
//! `[COL]`/`[VAL]`/`[SEP]` structure: token- and span-level operators only
//! touch tokens inside value spans, attribute-level operators move or drop
//! whole `[COL] …` groups, and `entity_swap` exchanges the two sides of the
//! `[SEP]`.
//!
//! Destructive operators pick their target tokens uniformly.

use rotom_rng::rngs::StdRng;
use rotom_rng::RngExt;
use rotom_text::serialize::parse_structure;
use rotom_text::thesaurus::Thesaurus;
use rotom_text::token::{is_structural, SEP};

/// The simple DA operators of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A uniform draw over the eligible positions; `None` if there are none.
fn pick_position(eligible: &[usize], rng: &mut StdRng) -> Option<usize> {
    if eligible.is_empty() {
        return None;
    }
    Some(eligible[rng.random_range(0..eligible.len())])
}

/// Positions of tokens inside value spans (the only tokens destructive
/// operators may touch). For plain text this is every position.
fn value_positions(tokens: &[String]) -> Vec<usize> {
    let s = parse_structure(tokens);
    let mut out = Vec::new();
    for (a, b) in s.value_spans {
        out.extend((a..b).filter(|&i| !is_structural(&tokens[i])));
    }
    out
}

/// Apply `op` to `tokens`, returning the transformed sequence.
///
/// Operators that cannot apply (e.g. `entity_swap` on a sequence without
/// `[SEP]`, or `token_repl` with no synonym-bearing token) return the input
/// unchanged — never panic.
pub fn apply(op: DaOp, tokens: &[String], ctx: &DaContext, rng: &mut StdRng) -> Vec<String> {
    match op {
        DaOp::TokenDel => token_del(tokens, rng),
        DaOp::TokenRepl => token_repl(tokens, ctx, rng),
        DaOp::TokenSwap => token_swap(tokens, rng),
        DaOp::TokenInsert => token_insert(tokens, ctx, rng),
        DaOp::SpanDel => span_del(tokens, ctx, rng),
        DaOp::SpanShuffle => span_shuffle(tokens, ctx, rng),
        DaOp::ColShuffle => col_shuffle(tokens, rng),
        DaOp::ColDel => col_del(tokens, rng),
        DaOp::EntitySwap => entity_swap(tokens),
    }
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

fn token_del(tokens: &[String], rng: &mut StdRng) -> Vec<String> {
    let eligible = value_positions(tokens);
    match pick_position(&eligible, rng) {
        Some(i) => {
            let mut out = tokens.to_vec();
            out.remove(i);
            out
        }
        None => tokens.to_vec(),
    }
}

fn token_repl(tokens: &[String], ctx: &DaContext, rng: &mut StdRng) -> Vec<String> {
    let eligible: Vec<usize> = value_positions(tokens)
        .into_iter()
        .filter(|&i| ctx.thesaurus.has_synonym(&tokens[i]))
        .collect();
    match pick_position(&eligible, rng) {
        Some(i) => {
            let syns = ctx.thesaurus.synonyms(&tokens[i]);
            let syn = syns[rng.random_range(0..syns.len())].to_string();
            let mut out = tokens.to_vec();
            out[i] = syn;
            out
        }
        None => tokens.to_vec(),
    }
}

fn token_swap(tokens: &[String], rng: &mut StdRng) -> Vec<String> {
    let eligible = value_positions(tokens);
    if eligible.len() < 2 {
        return tokens.to_vec();
    }
    let a = match pick_position(&eligible, rng) {
        Some(i) => i,
        None => return tokens.to_vec(),
    };
    let others: Vec<usize> = eligible.into_iter().filter(|&i| i != a).collect();
    let b = others[rng.random_range(0..others.len())];
    let mut out = tokens.to_vec();
    out.swap(a, b);
    out
}

fn token_insert(tokens: &[String], ctx: &DaContext, rng: &mut StdRng) -> Vec<String> {
    let eligible: Vec<usize> = value_positions(tokens)
        .into_iter()
        .filter(|&i| ctx.thesaurus.has_synonym(&tokens[i]))
        .collect();
    match pick_position(&eligible, rng) {
        Some(i) => {
            let syns = ctx.thesaurus.synonyms(&tokens[i]);
            let syn = syns[rng.random_range(0..syns.len())].to_string();
            let mut out = tokens.to_vec();
            out.insert(i + 1, syn);
            out
        }
        None => tokens.to_vec(),
    }
}

/// Contiguous runs of eligible (value, non-structural) positions.
fn value_runs(tokens: &[String]) -> Vec<(usize, usize)> {
    let s = parse_structure(tokens);
    s.value_spans.into_iter().filter(|(a, b)| b > a).collect()
}

fn span_del(tokens: &[String], ctx: &DaContext, rng: &mut StdRng) -> Vec<String> {
    let runs = value_runs(tokens);
    if runs.is_empty() {
        return tokens.to_vec();
    }
    let (a, b) = runs[rng.random_range(0..runs.len())];
    let run_len = b - a;
    let span = rng.random_range(1..=ctx.max_span.min(run_len));
    let start = a + rng.random_range(0..=run_len - span);
    let mut out = tokens.to_vec();
    out.drain(start..start + span);
    out
}

fn span_shuffle(tokens: &[String], ctx: &DaContext, rng: &mut StdRng) -> Vec<String> {
    let runs: Vec<(usize, usize)> = value_runs(tokens)
        .into_iter()
        .filter(|(a, b)| b - a >= 2)
        .collect();
    if runs.is_empty() {
        return tokens.to_vec();
    }
    let (a, b) = runs[rng.random_range(0..runs.len())];
    let run_len = b - a;
    let span = rng.random_range(2..=ctx.max_span.min(run_len).max(2).min(run_len));
    let start = a + rng.random_range(0..=run_len - span);
    let mut out = tokens.to_vec();
    rng.shuffle(&mut out[start..start + span]);
    out
}

/// Groups of `[COL] …` spans per entity segment (split by `[SEP]`).
fn col_groups(tokens: &[String]) -> Vec<Vec<(usize, usize)>> {
    let s = parse_structure(tokens);
    let sep = s.sep_index.unwrap_or(tokens.len());
    let mut left = Vec::new();
    let mut right = Vec::new();
    for span in s.col_spans {
        if span.0 < sep {
            left.push(span);
        } else {
            right.push(span);
        }
    }
    let mut groups = Vec::new();
    if !left.is_empty() {
        groups.push(left);
    }
    if !right.is_empty() {
        groups.push(right);
    }
    groups
}

fn col_shuffle(tokens: &[String], rng: &mut StdRng) -> Vec<String> {
    let groups = col_groups(tokens);
    let eligible: Vec<&Vec<(usize, usize)>> = groups.iter().filter(|g| g.len() >= 2).collect();
    if eligible.is_empty() {
        return tokens.to_vec();
    }
    let group = eligible[rng.random_range(0..eligible.len())];
    let i = rng.random_range(0..group.len());
    let mut j = rng.random_range(0..group.len() - 1);
    if j >= i {
        j += 1;
    }
    let (lo, hi) = if group[i].0 < group[j].0 {
        (group[i], group[j])
    } else {
        (group[j], group[i])
    };
    let mut out = Vec::with_capacity(tokens.len());
    out.extend_from_slice(&tokens[..lo.0]);
    out.extend_from_slice(&tokens[hi.0..hi.1]);
    out.extend_from_slice(&tokens[lo.1..hi.0]);
    out.extend_from_slice(&tokens[lo.0..lo.1]);
    out.extend_from_slice(&tokens[hi.1..]);
    out
}

fn col_del(tokens: &[String], rng: &mut StdRng) -> Vec<String> {
    let groups = col_groups(tokens);
    // Only delete when the segment retains at least one column.
    let eligible: Vec<&Vec<(usize, usize)>> = groups.iter().filter(|g| g.len() >= 2).collect();
    if eligible.is_empty() {
        return tokens.to_vec();
    }
    let group = eligible[rng.random_range(0..eligible.len())];
    let (a, b) = group[rng.random_range(0..group.len())];
    let mut out = tokens.to_vec();
    out.drain(a..b);
    out
}

fn entity_swap(tokens: &[String]) -> Vec<String> {
    let s = parse_structure(tokens);
    match s.sep_index {
        Some(sep) => {
            let mut out = Vec::with_capacity(tokens.len());
            out.extend_from_slice(&tokens[sep + 1..]);
            out.push(SEP.to_string());
            out.extend_from_slice(&tokens[..sep]);
            out
        }
        None => tokens.to_vec(),
    }
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
