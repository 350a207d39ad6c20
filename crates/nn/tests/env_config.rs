//! The `ROTOM_*` variables share one read rule (`rotom_nn::env`): unset or
//! blank is the silent default, and a value the variable rejects falls back
//! to the default with a one-time warning and a counted rejection — never a
//! silent ignore and never a panic.
//!
//! Each test owns one variable and nothing else in this binary reads it, so
//! the tests can run in parallel.

use rotom_nn::{env, faultpoint, FaultKind, ParamStore, QuantMode, RotomPool, ScoreCache};

fn detected_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[test]
fn rotom_threads_falls_back_to_detected_parallelism() {
    let var = "ROTOM_THREADS";
    std::env::set_var(var, " 3\n");
    assert_eq!(RotomPool::from_env().threads(), 3, "trimmed value parses");
    std::env::set_var(var, "");
    assert_eq!(RotomPool::from_env().threads(), detected_parallelism());
    assert_eq!(env::rejections(var), 0, "blank is silent");
    for (i, bad) in ["eight", "0", "-2"].into_iter().enumerate() {
        std::env::set_var(var, bad);
        assert_eq!(RotomPool::from_env().threads(), detected_parallelism());
        assert_eq!(env::rejections(var), i as u64 + 1, "{bad:?} is rejected");
    }
}

#[test]
fn rotom_quant_int8_falls_back_to_f32() {
    let var = "ROTOM_QUANT";
    for (value, mode) in [
        (" I8 ", QuantMode::I8),
        ("f32", QuantMode::F32),
        ("", QuantMode::F32),
    ] {
        std::env::set_var(var, value);
        assert_eq!(QuantMode::from_env(), mode, "{value:?}");
    }
    assert_eq!(env::rejections(var), 0, "i8, f32 and blank are silent");
    std::env::set_var(var, "int8");
    assert_eq!(QuantMode::from_env(), QuantMode::F32);
    assert_eq!(env::rejections(var), 1);
    // Every store reads the process default through the same rule.
    assert_eq!(ParamStore::new().quant_mode(), QuantMode::F32);
    assert_eq!(env::rejections(var), 2);
}

#[test]
fn rotom_score_cache_10k_falls_back_to_no_cache() {
    let var = "ROTOM_SCORE_CACHE";
    std::env::set_var(var, " 16 ");
    assert_eq!(ScoreCache::from_env().map(|c| c.capacity()), Some(16));
    for silent in ["0", ""] {
        std::env::set_var(var, silent);
        assert!(
            ScoreCache::from_env().is_none(),
            "{silent:?} disables caching"
        );
    }
    assert_eq!(env::rejections(var), 0, "0 and blank are silent");
    std::env::set_var(var, "10k");
    assert!(ScoreCache::from_env().is_none());
    assert_eq!(env::rejections(var), 1);
}

#[test]
fn invalid_rotom_fault_spec_warns_and_arms_nothing() {
    std::env::set_var("ROTOM_FAULT", "kill@epoch=3");
    // The first faultpoint checks read the spec: no panic, nothing armed in
    // the thread-local or the global plan.
    assert_eq!(faultpoint::armed(), 0);
    assert!(!faultpoint::fires(FaultKind::Kill, 3));
    assert_eq!(faultpoint::armed_global(), 0);
    assert_eq!(
        env::rejections("ROTOM_FAULT"),
        1,
        "the spec is read once for both plans"
    );
    // Programmatic arming still reports the parse error.
    assert!(faultpoint::arm("kill@epoch=3").is_err());
    assert!(faultpoint::arm_global("explode").is_err());
}
