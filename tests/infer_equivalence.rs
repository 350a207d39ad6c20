//! Inference-plane equivalence (telemetry off).
//!
//! The tape-free forward path (`TinyLm::predict_proba` / `score_batch`,
//! InvDA decoding) must match the tape-building forward **bit-for-bit**:
//! identical kernel dispatch decisions and identical scalar reduction
//! orders make the equality exact. Covered here: explicit 1- and 8-thread
//! pools, trained (non-init) weights, and batch vs serial scoring. The same
//! checks run with a live telemetry sink in
//! `infer_equivalence_telemetry.rs` — counters must be purely
//! observational. The model keeps no score cache; the serving plane's
//! cached scores are held to uncached ones in `rotom-serve`'s plane tests.

mod common;

use common::{corpus, trained_model};
use rotom::pipeline;
use rotom_nn::RotomPool;

#[test]
fn infer_matches_tape_cache_off() {
    common::check_equivalence(&trained_model());
}

#[test]
fn evaluation_is_pool_invariant_on_infer_plane() {
    let m = trained_model();
    let examples: Vec<rotom_text::example::Example> = corpus()
        .into_iter()
        .enumerate()
        .map(|(i, tokens)| rotom_text::example::Example::new(tokens, i % 2))
        .collect();
    let serial = pipeline::evaluate_with_pool(&m, &examples, &RotomPool::new(1));
    for threads in [2usize, 8] {
        let parallel = pipeline::evaluate_with_pool(&m, &examples, &RotomPool::new(threads));
        assert_eq!(serial, parallel, "threads={threads}");
    }
}
