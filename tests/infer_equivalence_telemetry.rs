//! Inference-plane equivalence with a **live telemetry sink**.
//!
//! The score-cache gauges must be purely observational: with records being
//! captured, tape-free scoring still matches the tape forward bit-for-bit.
//! The sink is process-global and initialize-once, so this file holds a
//! single test function (the telemetry-off twin is `infer_equivalence.rs`).

mod common;

use rotom::telemetry;
use std::io::Write;
use std::sync::{Arc, Mutex};

struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn infer_matches_tape_with_telemetry_enabled() {
    let buf = Arc::new(Mutex::new(Vec::new()));
    assert!(
        telemetry::install_writer(Box::new(Capture(buf.clone()))),
        "sink must not be initialized before this test"
    );
    assert!(telemetry::enabled());

    let mut m = common::trained_model();
    common::check_equivalence(&m);
    m.set_score_cache(256);
    common::check_equivalence(&m);
    common::check_equivalence(&m);

    // The score-cache gauges must flow through the live sink without
    // perturbing the scores above.
    m.score_cache().unwrap().emit_gauges();
    let bytes = buf.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    assert!(
        text.contains("infer.score_cache"),
        "score-cache gauge missing from sink"
    );
    let cache_gauge = text
        .lines()
        .find(|l| l.contains("infer.score_cache"))
        .unwrap();
    assert!(
        cache_gauge.contains("\"evictions\""),
        "score-cache gauge must report the LRU eviction counter: {cache_gauge}"
    );
}
