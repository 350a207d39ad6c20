//! Inference-plane equivalence with a **live telemetry sink**.
//!
//! Telemetry must be purely observational: with a sink installed,
//! tape-free scoring still matches the tape forward bit-for-bit.
//! The sink is process-global and initialize-once, so this file holds a
//! single test function (the telemetry-off twin is `infer_equivalence.rs`).

mod common;

use rotom::telemetry;

#[test]
fn infer_matches_tape_with_telemetry_enabled() {
    assert!(
        telemetry::install_writer(Box::new(std::io::sink())),
        "sink must not be initialized before this test"
    );
    assert!(telemetry::enabled());

    common::check_equivalence(&common::trained_model());
}
