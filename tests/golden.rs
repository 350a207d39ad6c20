//! Golden-run regression suite: fixed-seed tiny runs of every [`Method`]
//! variant across the three task families, compared against checked-in
//! metric snapshots in `tests/golden/*.txt`.
//!
//! Any change that alters a training trajectory — a kernel rewrite, an RNG
//! reordering, a new default — fails here loudly instead of silently
//! shifting results. When a change is *intended* to alter trajectories,
//! regenerate the snapshots with:
//!
//! ```text
//! ROTOM_BLESS=1 cargo test --test golden
//! ```
//!
//! and commit the updated files. Each metric is first compared within
//! `TOL` (absolute), which names the metrics that moved by more than
//! rounding; the training pipeline is bit-deterministic at any
//! `ROTOM_THREADS`.
//!
//! Each snapshot also pins its bits: a `# fnv1a64 <hex>` line holds the
//! FNV-1a hash of every snapshot value's `f32` bits (the metrics and the
//! validation curve), in snapshot order. Every run must reproduce that hash
//! exactly, so a kernel rewrite that moves any bit fails even when every
//! metric stays within `TOL`.

use rotom::pipeline::{prepare_base, run_method_with_base, Method};
use rotom::{MetricsSnapshot, RotomConfig, RunResult, TaskDataset};
use rotom_augment::{InvDa, InvDaConfig};
use rotom_datasets::edt::{self, EdtConfig, EdtFlavor};
use rotom_datasets::em::{self, EmConfig, EmFlavor};
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_rng::{fnv1a64, fnv1a64_extend};
use rotom_text::example::Example;
use std::path::PathBuf;

/// One seed for the whole suite: different seeds would just multiply runtime
/// without adding regression coverage.
const GOLD_SEED: u64 = 0x601d;

/// Absolute tolerance per metric for the readable diff that precedes the
/// bit pin.
const TOL: f32 = 0.05;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn blessing() -> bool {
    std::env::var("ROTOM_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn method_slug(method: Method) -> &'static str {
    match method {
        Method::Baseline => "baseline",
        Method::MixDa => "mixda",
        Method::InvDa => "invda",
        Method::Rotom => "rotom",
        Method::RotomSsl => "rotom_ssl",
    }
}

/// Prefix of the snapshot line that pins the run's bits.
const BITS_PIN: &str = "# fnv1a64 ";

/// FNV-1a over the snapshot's `f32` bits (little-endian), in entry order.
fn snapshot_bits(snap: &MetricsSnapshot) -> u64 {
    snap.entries.iter().fold(fnv1a64(&[]), |h, (_, v)| {
        fnv1a64_extend(h, &v.to_bits().to_le_bytes())
    })
}

/// Compare (or bless) one run's snapshot against `tests/golden/<name>.txt`.
fn check_against_golden(name: &str, result: &RunResult) {
    let snap = result.snapshot();
    let bits = snapshot_bits(&snap);
    let path = golden_dir().join(format!("{name}.txt"));
    if blessing() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        let text = format!("{}{BITS_PIN}{bits:016x}\n", snap.to_text());
        std::fs::write(&path, text).expect("write golden snapshot");
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             `ROTOM_BLESS=1 cargo test --test golden` and commit the files",
            path.display()
        )
    });
    let expected = MetricsSnapshot::parse(&text)
        .unwrap_or_else(|e| panic!("corrupt golden snapshot {}: {e}", path.display()));
    let errors = snap.diff(&expected, TOL);
    assert!(
        errors.is_empty(),
        "golden mismatch for {name} (tolerance {TOL}):\n  {}\nIf this change \
         is intended, re-bless with `ROTOM_BLESS=1 cargo test --test golden`.",
        errors.join("\n  ")
    );
    let pin = text
        .lines()
        .find_map(|l| l.strip_prefix(BITS_PIN))
        .unwrap_or_else(|| panic!("{} has no `{BITS_PIN}` line", path.display()));
    assert_eq!(
        format!("{bits:016x}"),
        pin,
        "golden bits moved for {name}: every metric is within {TOL} but not \
         bit-identical. If this change is intended, re-bless with \
         `ROTOM_BLESS=1 cargo test --test golden`."
    );
}

/// Run every method on one task with a shared pre-trained base and a shared
/// InvDA model (mirroring how the paper reuses one pre-trained LM), checking
/// each against its snapshot.
fn run_family(family: &str, task: &TaskDataset, train: &[Example], epochs: usize) {
    let mut cfg = RotomConfig::test_tiny();
    cfg.train.epochs = epochs;
    let base = prepare_base(task, &cfg, GOLD_SEED);
    let invda = InvDa::train(&task.unlabeled, InvDaConfig::test_tiny(), GOLD_SEED);
    for method in Method::ALL {
        let r = run_method_with_base(
            task,
            train,
            train,
            method,
            &cfg,
            Some(&invda),
            Some(&base),
            GOLD_SEED,
        );
        assert_eq!(
            r.val_curve.len(),
            cfg.train.epochs,
            "validation curve must have one point per epoch"
        );
        check_against_golden(&format!("{family}_{}", method_slug(method)), &r);
    }
}

#[test]
fn golden_entity_matching() {
    let gen = EmConfig {
        num_entities: 40,
        train_pairs: 80,
        test_pairs: 40,
        ..Default::default()
    };
    let task = em::generate(EmFlavor::DblpAcm, &gen).to_task();
    // Balanced sampling + extra epochs pull the tiny EM runs away from the
    // degenerate all-negative predictor, so the snapshots carry signal.
    let train = task.sample_train_balanced(48, GOLD_SEED);
    run_family("em", &task, &train, 4);
}

#[test]
fn golden_error_detection() {
    let gen = EdtConfig {
        rows: Some(60),
        ..Default::default()
    };
    let task = edt::generate(EdtFlavor::Hospital, &gen).to_task();
    let train = task.sample_train_balanced(40, GOLD_SEED);
    run_family("edt", &task, &train, 2);
}

#[test]
fn golden_text_classification() {
    let gen = TextClsConfig {
        train_pool: 60,
        test: 40,
        unlabeled: 40,
        seed: 9,
    };
    let task = textcls::generate(TextClsFlavor::Sst2, &gen);
    let train = task.sample_train(28, GOLD_SEED);
    run_family("textcls", &task, &train, 2);
}
