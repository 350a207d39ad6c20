//! End-to-end fault-injection tests for the fault-tolerant training
//! runtime (`rotom::runtime`): kill-and-resume bit-equivalence, NaN
//! rollback with graceful degradation, and torn-checkpoint detection.
//!
//! Faults are injected with `rotom_nn::faultpoint` (the API equivalent of
//! the `ROTOM_FAULT` env var). Faultpoints are thread-local and one-shot,
//! so tests arm them independently even when run in parallel.

use rotom::pipeline::{prepare_base, run_method_ft, run_method_with_base, PretrainedBase};
use rotom::runtime::{FtConfig, FtReport};
use rotom::{Method, RotomConfig, RunResult, TaskDataset};
use rotom_augment::InvDa;
use rotom_nn::faultpoint;
use rotom_nn::{CheckpointError, FaultKilled};
use rotom_text::example::Example;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const SEED: u64 = 11;

fn tmp_ckpt(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.ckpt"))
}

struct Fixture {
    task: TaskDataset,
    train: Vec<Example>,
    cfg: RotomConfig,
    invda: InvDa,
    base: PretrainedBase,
}

fn fixture(epochs: usize) -> Fixture {
    let gen = rotom_datasets::textcls::TextClsConfig {
        train_pool: 60,
        test: 40,
        unlabeled: 40,
        seed: 5,
    };
    let task =
        rotom_datasets::textcls::generate(rotom_datasets::textcls::TextClsFlavor::Sst2, &gen);
    let train = task.sample_train(24, 2);
    let mut cfg = RotomConfig::test_tiny();
    cfg.train.epochs = epochs;
    let invda = InvDa::train(&task.unlabeled, cfg.invda.clone(), 0);
    let base = prepare_base(&task, &cfg, 7);
    Fixture {
        task,
        train,
        cfg,
        invda,
        base,
    }
}

impl Fixture {
    fn run_plain(&self, method: Method) -> RunResult {
        run_method_with_base(
            &self.task,
            &self.train,
            &self.train,
            method,
            &self.cfg,
            Some(&self.invda),
            Some(&self.base),
            SEED,
        )
    }

    fn run_ft(&self, method: Method, ft: &FtConfig) -> (RunResult, FtReport) {
        run_method_ft(
            &self.task,
            &self.train,
            &self.train,
            method,
            &self.cfg,
            Some(&self.invda),
            Some(&self.base),
            SEED,
            ft,
        )
        .expect("fault-tolerant run failed")
    }
}

fn assert_bits_equal(a: &RunResult, b: &RunResult, ctx: &str) {
    assert_eq!(
        a.accuracy.to_bits(),
        b.accuracy.to_bits(),
        "{ctx}: accuracy"
    );
    assert_eq!(a.prf1.f1.to_bits(), b.prf1.f1.to_bits(), "{ctx}: f1");
    assert_eq!(
        a.val_curve.len(),
        b.val_curve.len(),
        "{ctx}: val_curve length"
    );
    for (i, (x, y)) in a.val_curve.iter().zip(&b.val_curve).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: val_curve[{i}]");
    }
}

#[test]
fn ft_runtime_without_faults_matches_plain_run_bit_for_bit() {
    let f = fixture(2);
    for method in [Method::Baseline, Method::Rotom] {
        let plain = f.run_plain(method);
        let path = tmp_ckpt(&format!("nofault_{}", method.name().replace('+', "_")));
        let _ = std::fs::remove_file(&path);
        let (ft_run, report) = f.run_ft(method, &FtConfig::with_checkpoint(&path));
        assert_bits_equal(&ft_run, &plain, method.name());
        assert_eq!(report.checkpoints_written, 2, "{}", method.name());
        assert!(report.events.is_empty(), "{}", method.name());
        assert!(report.resumed_from_epoch.is_none());
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted_run() {
    let f = fixture(3);
    for method in [Method::Baseline, Method::Rotom] {
        let name = method.name().replace('+', "_");
        let plain = f.run_plain(method);
        // Probe run to learn the per-epoch guarded step count.
        let (_, probe) = f.run_ft(method, &FtConfig::default());
        let per_epoch = probe.steps / 3;
        assert!(per_epoch > 0);

        // Kill the process (an unwinding panic) early in epoch 2, after the
        // epoch-1 checkpoint was written.
        let path = tmp_ckpt(&format!("kill_{name}"));
        let _ = std::fs::remove_file(&path);
        let kill_step = per_epoch + 1;
        faultpoint::clear();
        faultpoint::arm(&format!("kill@step={kill_step}")).unwrap();
        let killed = catch_unwind(AssertUnwindSafe(|| {
            f.run_ft(method, &FtConfig::with_checkpoint(&path))
        }));
        let payload = killed.expect_err("armed kill faultpoint must fire");
        let fault = payload
            .downcast_ref::<FaultKilled>()
            .expect("panic payload is the injected kill");
        assert_eq!(fault.step, kill_step, "{name}");
        assert!(path.exists(), "{name}: checkpoint survives the crash");

        // Resume from the checkpoint: the finished run must be
        // bit-identical to one that was never interrupted.
        faultpoint::clear();
        let (resumed, report) = f.run_ft(method, &FtConfig::resume_from(&path));
        assert_eq!(report.resumed_from_epoch, Some(1), "{name}");
        assert_bits_equal(&resumed, &plain, &format!("{name} resumed"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn injected_nan_grad_rolls_back_and_completes_with_finite_result() {
    let f = fixture(3);
    let (_, probe) = f.run_ft(Method::Baseline, &FtConfig::default());
    let per_epoch = probe.steps / 3;

    // Corrupt the gradients once, early in epoch 2: the guard must detect
    // the divergence, roll back to the epoch-1 state with a decayed LR, and
    // still finish all epochs.
    faultpoint::clear();
    faultpoint::arm(&format!("nan_grad@step={}", per_epoch + 1)).unwrap();
    let (run, report) = f.run_ft(Method::Baseline, &FtConfig::default());
    faultpoint::clear();

    assert!(!report.degraded);
    assert_eq!(report.resumed_from_epoch, None);
    let kinds: Vec<&str> = report.events.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(kinds, ["diverged", "rollback"], "{:?}", report.events);
    assert!(report.events[0].detail.contains("non-finite"));
    assert_eq!(run.val_curve.len(), 3);
    assert!(run.val_curve.iter().all(|v| v.is_finite()));
    assert!((0.0..=1.0).contains(&run.accuracy));
}

#[test]
fn persistent_nan_grad_exhausts_rollbacks_and_degrades_gracefully() {
    let f = fixture(3);
    let (_, probe) = f.run_ft(Method::Baseline, &FtConfig::default());
    let step = probe.steps / 3 + 1;

    // Re-arm the same fault once per retry (faultpoints are one-shot):
    // with the default budget of 3 rollbacks, the 4th firing degrades.
    let spec = format!("nan_grad@step={step}");
    faultpoint::clear();
    faultpoint::arm(&format!("{spec};{spec};{spec};{spec}")).unwrap();
    let (run, report) = f.run_ft(Method::Baseline, &FtConfig::default());
    faultpoint::clear();

    assert!(report.degraded);
    let kinds: Vec<&str> = report.events.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(
        kinds,
        [
            "diverged", "rollback", "diverged", "rollback", "diverged", "rollback", "diverged",
            "degraded"
        ],
        "{:?}",
        report.events
    );
    // Only epoch 1 completed; the run still ends on the finite best
    // snapshot instead of panicking or returning NaNs.
    assert_eq!(run.val_curve.len(), 1);
    assert!(run.val_curve[0].is_finite());
    assert!((0.0..=1.0).contains(&run.accuracy));
}

#[test]
fn torn_checkpoint_write_is_always_detected_on_resume() {
    let f = fixture(2);
    let path = tmp_ckpt("torn");
    let _ = std::fs::remove_file(&path);

    // Only one checkpoint write (epoch 2), and the armed fault tears it:
    // the file is cut mid-body with no atomic rename.
    let mut ft = FtConfig::with_checkpoint(&path);
    ft.every_epochs = 2;
    faultpoint::clear();
    faultpoint::arm("torn_checkpoint").unwrap();
    let (_, report) = f.run_ft(Method::Baseline, &ft);
    faultpoint::clear();
    assert_eq!(report.checkpoints_written, 1);
    assert!(path.exists());

    // The torn file must be rejected up front — never half-loaded.
    let err = run_method_ft(
        &f.task,
        &f.train,
        &f.train,
        Method::Baseline,
        &f.cfg,
        Some(&f.invda),
        Some(&f.base),
        SEED,
        &FtConfig::resume_from(&path),
    )
    .expect_err("torn checkpoint must not load");
    assert!(
        matches!(err, CheckpointError::Format(_)),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resuming_a_checkpoint_from_a_different_run_is_rejected() {
    let f = fixture(2);
    let path = tmp_ckpt("mismatch");
    let _ = std::fs::remove_file(&path);
    let (_, report) = f.run_ft(Method::Baseline, &FtConfig::with_checkpoint(&path));
    assert!(report.checkpoints_written > 0);

    // Same task, different seed: the run tag embedded in the checkpoint
    // must not match.
    let err = run_method_ft(
        &f.task,
        &f.train,
        &f.train,
        Method::Baseline,
        &f.cfg,
        Some(&f.invda),
        Some(&f.base),
        SEED + 1,
        &FtConfig::resume_from(&path),
    )
    .expect_err("mismatched run tag must be rejected");
    assert!(
        matches!(err, CheckpointError::Mismatch(_)),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

/// The section names of a Rotom run's checkpoint, read from the second
/// token of each serialized section line. Checkpoints written by earlier
/// builds must keep loading, so these names are part of the format.
#[test]
fn rotom_checkpoint_section_names_are_pinned() {
    let f = fixture(1);
    let path = tmp_ckpt("section_names");
    let _ = std::fs::remove_file(&path);
    let (_, report) = f.run_ft(Method::Rotom, &FtConfig::with_checkpoint(&path));
    assert_eq!(report.checkpoints_written, 1);
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Header first, integrity footer last; every line between is a section.
    let names: Vec<&str> = lines[1..lines.len() - 1]
        .iter()
        .map(|l| l.split(' ').nth(1).expect("section line has a name"))
        .collect();
    assert_eq!(
        names,
        [
            "run.tag",
            "run.epoch",
            "run.steps",
            "run.rollbacks",
            "loop.rng",
            "best.metric",
            "best.params",
            "curve",
            "model.params",
            "model.adam.t",
            "model.adam.m",
            "model.adam.v",
            "model.lr",
            "model.rng",
            "meta.filter.params",
            "meta.filter.adam.t",
            "meta.filter.adam.m",
            "meta.filter.adam.v",
            "meta.weight.params",
            "meta.weight.adam.t",
            "meta.weight.adam.m",
            "meta.weight.adam.v",
            "meta.rng",
            "meta.baseline",
            "meta.baseline_init",
        ]
    );
    let _ = std::fs::remove_file(&path);
}
