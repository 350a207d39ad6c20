//! Multi-operator corruption (the inner loop of Algorithm 1).
//!
//! InvDA's training data is built by corrupting original sequences with `n`
//! uniformly sampled simple DA operators; the seq2seq model then learns to
//! *invert* the corruption.

use crate::ops::{apply, DaContext, DaOp};
use rotom_rng::rngs::StdRng;
use rotom_rng::RngExt;

/// Apply `n` operators sampled uniformly from `ops` in sequence.
pub fn corrupt(
    tokens: &[String],
    ops: &[DaOp],
    n: usize,
    ctx: &DaContext,
    rng: &mut StdRng,
) -> Vec<String> {
    assert!(!ops.is_empty(), "corrupt requires at least one operator");
    let mut out = tokens.to_vec();
    for _ in 0..n {
        let op = ops[rng.random_range(0..ops.len())];
        out = apply(op, &out, ctx, rng);
    }
    out
}

/// Build the (corrupted → original) input/target pairs of Algorithm 1 for a
/// whole training corpus, `pairs_per_seq` pairs per sequence.
pub(crate) fn corruption_pairs(
    corpus: &[Vec<String>],
    ops: &[DaOp],
    n: usize,
    pairs_per_seq: usize,
    ctx: &DaContext,
    rng: &mut StdRng,
) -> Vec<(Vec<String>, Vec<String>)> {
    let mut out = Vec::with_capacity(corpus.len() * pairs_per_seq);
    for seq in corpus {
        for _ in 0..pairs_per_seq {
            let input = corrupt(seq, ops, n, ctx, rng);
            out.push((input, seq.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::SeedableRng;
    use rotom_text::tokenizer::tokenize;

    #[test]
    fn corruption_usually_changes_the_sequence() {
        let toks = tokenize("the quick brown fox jumps over the lazy dog");
        let ctx = DaContext::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut changed = 0;
        for _ in 0..20 {
            if corrupt(&toks, &DaOp::TEXT_LEVEL, 3, &ctx, &mut rng) != toks {
                changed += 1;
            }
        }
        assert!(changed >= 18);
    }

    #[test]
    fn pairs_target_is_original() {
        let corpus = vec![tokenize("alpha beta gamma delta")];
        let ctx = DaContext::default();
        let mut rng = StdRng::seed_from_u64(4);
        let pairs = corruption_pairs(&corpus, &DaOp::TEXT_LEVEL, 2, 3, &ctx, &mut rng);
        assert_eq!(pairs.len(), 3);
        for (_, target) in &pairs {
            assert_eq!(target, &corpus[0]);
        }
    }
}
