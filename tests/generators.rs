//! Property and invariant tests over the dataset generators (the
//! ground-truth consistency half of DESIGN.md's invariant list).
//!
//! Hand-rolled property loops over seeded random cases (no `proptest`; the
//! workspace builds fully offline with zero external dependencies).

use rotom_datasets::edt::{self, EdtConfig, EdtFlavor};
use rotom_datasets::em::{self, jaccard, EmConfig, EmFlavor};
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngExt, SeedableRng};

const CASES: u64 = 8;

/// EM generators: sizes exact, matches lexically closer than
/// non-matches (the latent-entity invariant), across flavors and seeds.
#[test]
fn em_generator_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0x9e4_0001, case));
        let flavor = EmFlavor::ALL[rng.random_range(0..5usize)];
        let seed = rng.random_range(0..50u64);
        let cfg = EmConfig {
            num_entities: 40,
            train_pairs: 80,
            test_pairs: 30,
            seed,
            ..Default::default()
        };
        let d = em::generate(flavor, &cfg);
        assert_eq!(d.train_pairs.len(), 80, "case {case}");
        assert_eq!(d.test_pairs.len(), 30, "case {case}");
        let avg = |m: bool| {
            let v: Vec<f32> = d
                .train_pairs
                .iter()
                .filter(|p| p.is_match == m)
                .map(|p| jaccard(&p.left, &p.right))
                .collect();
            v.iter().sum::<f32>() / v.len().max(1) as f32
        };
        assert!(
            avg(true) > avg(false),
            "case {case} {}: matches not closer",
            d.name
        );
    }
}

/// EDT generators: the error mask matches the injected error count and
/// test rows never overlap, across flavors and seeds.
#[test]
fn edt_generator_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0x9e4_0002, case));
        let flavor = EdtFlavor::ALL[rng.random_range(0..5usize)];
        let seed = rng.random_range(0..50u64);
        let cfg = EdtConfig {
            rows: Some(50),
            seed,
            ..Default::default()
        };
        let d = edt::generate(flavor, &cfg);
        // The generator injects errors into a fixed 18% of cells.
        let expected = (50.0 * d.columns.len() as f32 * 0.18).round() as usize;
        assert_eq!(d.num_errors(), expected, "case {case}");
        let mut rows = d.test_rows.clone();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), d.test_rows.len(), "case {case}");
        // Kinds align with the mask everywhere.
        for r in 0..d.rows.len() {
            for c in 0..d.columns.len() {
                assert_eq!(d.mask[r][c], d.kinds[r][c].is_some(), "case {case}");
            }
        }
    }
}

/// TextCLS generators: labels in range, split sizes exact, sequences
/// non-empty.
#[test]
fn textcls_generator_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0x9e4_0003, case));
        let flavor = TextClsFlavor::ALL[rng.random_range(0..8usize)];
        let seed = rng.random_range(0..50u64);
        let cfg = TextClsConfig {
            train_pool: 60,
            test: 24,
            unlabeled: 12,
            seed,
        };
        let d = textcls::generate(flavor, &cfg);
        assert_eq!(d.train_pool.len(), 60, "case {case}");
        assert_eq!(d.test.len(), 24, "case {case}");
        assert_eq!(d.unlabeled.len(), 12, "case {case}");
        for e in d.train_pool.iter().chain(&d.test) {
            assert!(e.label < d.num_classes, "case {case}");
            assert!(!e.tokens.is_empty(), "case {case}");
        }
    }
}

#[test]
fn em_blocking_is_symmetric_in_threshold() {
    // Raising min_shared can only shrink the candidate set.
    let cfg = EmConfig {
        num_entities: 30,
        train_pairs: 50,
        test_pairs: 10,
        ..Default::default()
    };
    let d = em::generate(EmFlavor::AbtBuy, &cfg);
    let left: Vec<_> = d
        .train_pairs
        .iter()
        .take(20)
        .map(|p| p.left.clone())
        .collect();
    let right: Vec<_> = d
        .train_pairs
        .iter()
        .take(20)
        .map(|p| p.right.clone())
        .collect();
    let loose = em::block_candidates(&left, &right, 1);
    let strict = em::block_candidates(&left, &right, 3);
    assert!(strict.len() <= loose.len());
    for pair in &strict {
        assert!(loose.contains(pair));
    }
}

#[test]
fn dirty_variants_differ_from_clean() {
    let clean_cfg = EmConfig {
        num_entities: 30,
        train_pairs: 40,
        test_pairs: 10,
        ..Default::default()
    };
    let dirty_cfg = EmConfig {
        dirty: true,
        ..clean_cfg.clone()
    };
    let clean = em::generate(EmFlavor::DblpAcm, &clean_cfg);
    let dirty = em::generate(EmFlavor::DblpAcm, &dirty_cfg);
    assert_eq!(clean.name, "DBLP-ACM");
    assert_eq!(dirty.name, "DBLP-ACM-dirty");
    // Dirtying consumes RNG draws, so the shuffle (and hence the train/test
    // boundary) differs — but the overall label distribution is identical
    // (misplacement never changes labels).
    let positives = |d: &em::EmDataset| {
        d.train_pairs
            .iter()
            .chain(&d.test_pairs)
            .filter(|p| p.is_match)
            .count()
    };
    assert_eq!(positives(&clean), positives(&dirty));
    // And at least one record has a blanked (moved-out) attribute.
    let empties = dirty
        .train_pairs
        .iter()
        .flat_map(|p| p.left.attrs.iter().chain(&p.right.attrs))
        .filter(|(_, v)| v.is_empty())
        .count();
    assert!(empties > 0);
}
