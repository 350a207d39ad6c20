//! Diversity measurement for augmented examples.
//!
//! The paper frames DA as a *diversity/quality trade-off* (§1, §3.2): simple
//! operators change ≤1 token (low diversity, high label fidelity) while
//! generation can drift arbitrarily far. These utilities quantify the
//! diversity side — token-level edit distance between an original and its
//! augmentations — and back the repository's claims about operator behaviour
//! (e.g. InvDA's edits are strictly larger than `token_repl`'s).

/// Levenshtein edit distance over token sequences.
pub(crate) fn token_edit_distance(a: &[String], b: &[String]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Single-row DP.
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ta) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, tb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ta != tb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Edit distance normalized by the longer sequence length (`0` identical,
/// `1` completely rewritten).
pub(crate) fn normalized_edit_distance(a: &[String], b: &[String]) -> f32 {
    let denom = a.len().max(b.len());
    if denom == 0 {
        return 0.0;
    }
    token_edit_distance(a, b) as f32 / denom as f32
}

/// Aggregate diversity of a set of augmentations of one original.
#[derive(Debug)]
pub struct DiversityStats {
    /// Mean normalized edit distance from the original.
    pub mean_edit: f32,
    /// Maximum normalized edit distance from the original.
    pub max_edit: f32,
    /// Fraction of pairwise-distinct augmentations.
    pub distinct_ratio: f32,
}

/// Measure the diversity of `variants` against `original`.
pub fn diversity(original: &[String], variants: &[Vec<String>]) -> DiversityStats {
    if variants.is_empty() {
        return DiversityStats {
            mean_edit: 0.0,
            max_edit: 0.0,
            distinct_ratio: 0.0,
        };
    }
    let dists: Vec<f32> = variants
        .iter()
        .map(|v| normalized_edit_distance(original, v))
        .collect();
    let mean_edit = dists.iter().sum::<f32>() / dists.len() as f32;
    let max_edit = dists.iter().copied().fold(0.0f32, f32::max);
    let mut distinct = 0usize;
    for (i, v) in variants.iter().enumerate() {
        if !variants[..i].contains(v) {
            distinct += 1;
        }
    }
    DiversityStats {
        mean_edit,
        max_edit,
        distinct_ratio: distinct as f32 / variants.len() as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{apply, DaContext, DaOp};
    use rotom_rng::rngs::StdRng;
    use rotom_rng::SeedableRng;
    use rotom_text::tokenize;

    #[test]
    fn edit_distance_basics() {
        let a = tokenize("a b c");
        let b = tokenize("a x c");
        assert_eq!(token_edit_distance(&a, &b), 1);
        assert_eq!(token_edit_distance(&a, &a), 0);
        assert_eq!(token_edit_distance(&a, &[]), 3);
        assert_eq!(token_edit_distance(&[], &a), 3);
    }

    #[test]
    fn edit_distance_insert_delete() {
        let a = tokenize("a b c d");
        let b = tokenize("a c d e");
        // delete b, insert e
        assert_eq!(token_edit_distance(&a, &b), 2);
    }

    #[test]
    fn normalized_range() {
        let a = tokenize("a b c");
        let b = tokenize("x y z");
        assert_eq!(normalized_edit_distance(&a, &b), 1.0);
        assert_eq!(normalized_edit_distance(&a, &a), 0.0);
    }

    #[test]
    fn single_token_ops_bounded_diversity() {
        // token_repl changes exactly one token: normalized distance 1/len.
        let original = tokenize("fast databases are good tools");
        let ctx = DaContext::default();
        let mut rng = StdRng::seed_from_u64(1);
        let variants: Vec<Vec<String>> = (0..10)
            .map(|_| apply(DaOp::TokenRepl, &original, &ctx, &mut rng))
            .collect();
        let stats = diversity(&original, &variants);
        assert!(
            stats.max_edit <= 1.0 / original.len() as f32 + 1e-6,
            "{stats:?}"
        );
    }

    #[test]
    fn distinct_ratio_counts_duplicates() {
        let original = tokenize("a b");
        let variants = vec![tokenize("a x"), tokenize("a x"), tokenize("y b")];
        let stats = diversity(&original, &variants);
        assert!((stats.distinct_ratio - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn empty_variants() {
        let stats = diversity(&tokenize("a"), &[]);
        assert_eq!(stats.mean_edit, 0.0);
    }
}
