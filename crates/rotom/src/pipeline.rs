//! End-to-end training pipelines for the five compared methods (§6.1):
//! Baseline (plain LM fine-tuning), MixDA, InvDA, Rotom, and Rotom+SSL.
//!
//! All pipelines share the same skeleton: build a vocabulary from the task
//! corpus, MLM-pre-train the TinyLm encoder on unlabeled data (the
//! "pre-trained LM"), fine-tune with the method-specific recipe, select the
//! checkpoint with the best validation metric, and evaluate on the test set.

use crate::config::RotomConfig;
use crate::metrics::{accuracy, prf1, PrF1};
use crate::model::TinyLm;
use crate::runtime::{FtConfig, FtReport, FtSession};
use rotom_augment::{apply, apply_batch, DaContext, DaOp, InvDa};
use rotom_datasets::{TaskDataset, TaskKind};
use rotom_meta::{guard_step, MetaTarget, MetaTrainer, WeightedItem};
use rotom_nn::telemetry::{self, Value};
use rotom_nn::{argmax, CheckpointError, Halt, HealthMonitor, RotomPool, StateBag};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngCore, RngExt, SeedableRng};
use rotom_text::example::{AugExample, Example};
use rotom_text::vocab::Vocab;
use std::time::Instant;

/// The five methods compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Fine-tune the LM on the original examples only.
    Baseline,
    /// One simple DA operator applied with representation interpolation.
    MixDa,
    /// The seq2seq InvDA operator applied with the same interpolation.
    InvDa,
    /// Meta-learned filtering + weighting over original + MixDA + InvDA
    /// examples (Algorithm 2).
    Rotom,
    /// Rotom extended with semi-supervised consistency training (§5).
    RotomSsl,
}

impl Method {
    /// All methods in the order the paper's tables list them.
    pub const ALL: [Method; 5] = [
        Method::Baseline,
        Method::MixDa,
        Method::InvDa,
        Method::Rotom,
        Method::RotomSsl,
    ];

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::Baseline => "Baseline",
            Method::MixDa => "MixDA",
            Method::InvDa => "InvDA",
            Method::Rotom => "Rotom",
            Method::RotomSsl => "Rotom+SSL",
        }
    }
}

/// The single simple DA operator MixDA uses, "tuned as a hyper-parameter …
/// one operator that generally works well for each type of task".
pub fn default_op(kind: TaskKind) -> DaOp {
    match kind {
        TaskKind::EntityMatching => DaOp::SpanDel,
        TaskKind::ErrorDetection => DaOp::TokenDel,
        TaskKind::TextClassification => DaOp::TokenRepl,
    }
}

/// Result of one training run.
#[derive(Debug)]
pub struct RunResult {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Test accuracy.
    pub accuracy: f32,
    /// Positive-class precision/recall/F1 (meaningful for binary tasks).
    pub prf1: PrF1,
    /// Wall-clock training time in seconds (Figure 4).
    pub train_seconds: f32,
    /// Labeled examples used.
    pub train_size: usize,
    /// Per-epoch validation metric (F1 or accuracy per task kind), in epoch
    /// order — the "loss curve tail" snapshotted by the golden-run suite.
    pub val_curve: Vec<f32>,
}

impl RunResult {
    /// The headline metric the paper reports for this task kind: F1 for the
    /// binary EM/EDT tasks, accuracy for text classification.
    pub fn headline(&self, kind: TaskKind) -> f32 {
        match kind {
            TaskKind::TextClassification => self.accuracy,
            _ => self.prf1.f1,
        }
    }

    /// Deterministic metrics snapshot for golden-run comparison. Excludes
    /// wall-clock time (non-deterministic) and includes the per-epoch
    /// validation curve so trajectory changes are caught, not just final
    /// metrics.
    pub fn snapshot(&self) -> crate::metrics::MetricsSnapshot {
        let mut snap = crate::metrics::MetricsSnapshot::new();
        snap.push("accuracy", self.accuracy);
        snap.push("precision", self.prf1.precision);
        snap.push("recall", self.prf1.recall);
        snap.push("f1", self.prf1.f1);
        snap.push("train_size", self.train_size as f32);
        for (i, v) in self.val_curve.iter().enumerate() {
            snap.push(format!("val_curve_{i}"), *v);
        }
        snap
    }
}

/// A pre-trained TinyLm checkpoint shareable across methods and seeds (the
/// analogue of loading the same pre-trained RoBERTa for every fine-tuning
/// run). Built once per task with [`prepare_base`].
pub struct PretrainedBase {
    vocab: Vocab,
    params: Vec<f32>,
    num_classes: usize,
}

/// Build the task vocabulary, run MLM (and, for entity matching,
/// matched-view pair) pre-training, and snapshot the result.
pub fn prepare_base(task: &TaskDataset, cfg: &RotomConfig, seed: u64) -> PretrainedBase {
    let corpus: Vec<Vec<String>> = task
        .unlabeled
        .iter()
        .chain(task.train_pool.iter().map(|e| &e.tokens))
        .cloned()
        .collect();
    let mut model = TinyLm::from_corpus(&corpus, task.num_classes, &cfg.model, cfg.train.lr, seed);
    let pretrain_sample: Vec<Vec<String>> = corpus.iter().take(400).cloned().collect();
    model.pretrain_mlm(&pretrain_sample, cfg.train.batch_size);
    if task.kind == TaskKind::EntityMatching {
        let halves: Vec<Vec<String>> = pretrain_sample
            .iter()
            .flat_map(
                |seq| match seq.iter().position(|t| t == rotom_text::token::SEP) {
                    Some(i) => vec![seq[..i].to_vec(), seq[i + 1..].to_vec()],
                    None => vec![seq.clone()],
                },
            )
            .filter(|h| !h.is_empty())
            .take(300)
            .collect();
        model.pretrain_pairs(
            &halves,
            cfg.model.pair_pretrain_epochs,
            cfg.train.batch_size,
        );
        model.init_head_from_nsp();
    }
    PretrainedBase {
        vocab: model.vocab().clone(),
        params: model.snapshot(),
        num_classes: task.num_classes,
    }
}

impl PretrainedBase {
    /// Instantiate a fresh fine-tunable model from the checkpoint.
    pub fn instantiate(&self, cfg: &RotomConfig, seed: u64) -> TinyLm {
        let mut model = TinyLm::new(
            self.vocab.clone(),
            self.num_classes,
            &cfg.model,
            cfg.train.lr,
            seed,
        );
        model.restore(&self.params);
        model
    }
}

/// Evaluate a model on labeled examples, scoring examples across the global
/// worker pool. Prediction is eval-mode (consumes no RNG) and results come
/// back in input order, so the outcome is identical to a serial loop.
pub fn evaluate(model: &TinyLm, test: &[Example]) -> (f32, PrF1) {
    evaluate_with_pool(model, test, RotomPool::global())
}

/// [`evaluate`] with an explicit pool (tests pin worker counts with this).
pub fn evaluate_with_pool(model: &TinyLm, test: &[Example], pool: &RotomPool) -> (f32, PrF1) {
    let inputs: Vec<&[String]> = test.iter().map(|e| e.tokens.as_slice()).collect();
    // Argmax of the softmax rows, as `TinyLm::predict`.
    let scores = model.score_batch(&inputs, pool);
    let pred: Vec<usize> = scores.iter().map(|p| argmax(p)).collect();
    let gold: Vec<usize> = test.iter().map(|e| e.label).collect();
    (accuracy(&pred, &gold), prf1(&pred, &gold, 1))
}

fn valid_metric(model: &TinyLm, valid: &[Example], kind: TaskKind) -> f32 {
    let (acc, f1) = evaluate(model, valid);
    match kind {
        TaskKind::TextClassification => acc,
        // For the binary tasks prefer F1 but fall back to accuracy when the
        // tiny validation sample has no positives.
        _ => {
            if valid.iter().any(|e| e.label == 1) {
                f1.f1
            } else {
                acc
            }
        }
    }
}

/// Run `method` on `task` with the given labeled train/valid split.
///
/// `invda` is the (optionally pre-trained, shareable across methods) InvDA
/// operator; when `None` and the method needs it, one is trained on the
/// task's unlabeled corpus.
pub fn run_method(
    task: &TaskDataset,
    train: &[Example],
    valid: &[Example],
    method: Method,
    cfg: &RotomConfig,
    invda: Option<&InvDa>,
    seed: u64,
) -> RunResult {
    run_method_with_base(task, train, valid, method, cfg, invda, None, seed)
}

/// [`run_method`] with an optional shared pre-trained checkpoint; when
/// `base` is `None`, pre-training runs inside the call.
#[allow(clippy::too_many_arguments)]
pub fn run_method_with_base(
    task: &TaskDataset,
    train: &[Example],
    valid: &[Example],
    method: Method,
    cfg: &RotomConfig,
    invda: Option<&InvDa>,
    base: Option<&PretrainedBase>,
    seed: u64,
) -> RunResult {
    run_method_impl(task, train, valid, method, cfg, invda, base, seed, None)
        .expect("training without a fault-tolerant session cannot fail")
}

/// [`run_method_with_base`] under the fault-tolerant runtime: periodic
/// crash-safe checkpoints, resume, and numeric-health guarding with
/// rollback (see [`FtConfig`]).
///
/// A resumed run is **bit-identical** to an uninterrupted one: everything
/// before the epoch loop is recomputed deterministically from `seed`, and
/// every piece of mutable loop state (model parameters, Adam moments,
/// learning rate, RNG streams, meta models, best snapshot, validation
/// curve) is restored from the checkpoint.
///
/// Errors surface torn/corrupt/mismatched checkpoints and I/O failures;
/// health incidents are reported in the returned [`FtReport`] instead.
#[allow(clippy::too_many_arguments)]
pub fn run_method_ft(
    task: &TaskDataset,
    train: &[Example],
    valid: &[Example],
    method: Method,
    cfg: &RotomConfig,
    invda: Option<&InvDa>,
    base: Option<&PretrainedBase>,
    seed: u64,
    ft: &FtConfig,
) -> Result<(RunResult, FtReport), CheckpointError> {
    let resume_bag = match (&ft.checkpoint, ft.resume) {
        (Some(path), true) if path.exists() => Some(StateBag::load_path(path)?),
        _ => None,
    };
    let tag = run_tag(method, cfg, train.len(), seed);
    let mut session = FtSession::new(ft.clone(), tag, resume_bag);
    let result = run_method_impl(
        task,
        train,
        valid,
        method,
        cfg,
        invda,
        base,
        seed,
        Some(&mut session),
    )?;
    Ok((result, session.report))
}

/// Identity of a run, embedded in every checkpoint: a checkpoint written by
/// a run with a different method/seed/schedule is rejected on resume.
fn run_tag(method: Method, cfg: &RotomConfig, train_len: usize, seed: u64) -> Vec<u64> {
    vec![
        method as u64,
        seed,
        cfg.train.epochs as u64,
        cfg.train.batch_size as u64,
        train_len as u64,
    ]
}

/// Maximum unlabeled examples consumed by Rotom+SSL (paper: 10,000).
const MAX_UNLABELED: usize = 10_000;

#[allow(clippy::too_many_arguments)]
fn run_method_impl(
    task: &TaskDataset,
    train: &[Example],
    valid: &[Example],
    method: Method,
    cfg: &RotomConfig,
    invda: Option<&InvDa>,
    base: Option<&PretrainedBase>,
    seed: u64,
    ft: Option<&mut FtSession>,
) -> Result<RunResult, CheckpointError> {
    assert!(!train.is_empty(), "empty training set");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);

    // Corpus for on-demand InvDA / pre-training.
    let mut corpus: Vec<Vec<String>> = task.unlabeled.clone();
    corpus.extend(train.iter().map(|e| e.tokens.clone()));

    // InvDA (train on demand when not shared).
    let needs_invda = matches!(method, Method::InvDa | Method::Rotom | Method::RotomSsl);
    let local_invda;
    let invda = if needs_invda {
        match invda {
            Some(m) => Some(m),
            None => {
                local_invda = InvDa::train(&corpus, cfg.invda.clone(), seed ^ 0x1d);
                Some(&local_invda)
            }
        }
    } else {
        None
    };

    let local_base;
    let base = match base {
        Some(b) => b,
        None => {
            local_base = prepare_base(task, cfg, seed);
            &local_base
        }
    };
    let mut model = base.instantiate(cfg, seed);

    let start = Instant::now();
    let body = match method {
        Method::Baseline => EpochBody::Plain,
        Method::MixDa => EpochBody::Mixda(MixSource::SimpleOp),
        Method::InvDa => EpochBody::Mixda(MixSource::InvDa(invda.expect("invda required"))),
        Method::Rotom | Method::RotomSsl => {
            let ssl = method == Method::RotomSsl;
            let mut meta_cfg = cfg.meta.clone();
            meta_cfg.ssl = if ssl {
                Some(meta_cfg.ssl.unwrap_or_default())
            } else {
                None
            };
            let enc_cfg = cfg.model.encoder(model.vocab().len());
            let trainer =
                MetaTrainer::new(task.num_classes, model.vocab().clone(), enc_cfg, meta_cfg);
            let unlabeled: Vec<Vec<String>> = if ssl {
                task.sample_unlabeled(MAX_UNLABELED, cfg.train.seed)
            } else {
                Vec::new()
            };
            EpochBody::Rotom {
                task,
                invda: invda.expect("invda required"),
                trainer,
                unlabeled,
            }
        }
    };
    let val_curve = run_epoch_loop(&mut model, train, valid, task.kind, cfg, body, &mut rng, ft)?;
    let train_seconds = start.elapsed().as_secs_f32();

    let (acc, f1) = evaluate(&model, &task.test);
    Ok(RunResult {
        method: method.name().to_string(),
        dataset: task.name.clone(),
        accuracy: acc,
        prf1: f1,
        train_seconds,
        train_size: train.len(),
        val_curve,
    })
}

fn shuffled<'a>(items: &'a [Example], rng: &mut StdRng) -> Vec<&'a Example> {
    let mut refs: Vec<&Example> = items.iter().collect();
    rng.shuffle(&mut refs);
    refs
}

enum MixSource<'a> {
    SimpleOp,
    InvDa(&'a InvDa),
}

/// Method-specific state of one epoch-loop run. The loop skeleton
/// (shuffling, validation, checkpoint selection, fault tolerance) is shared
/// by [`run_epoch_loop`]; the body holds what differs per method.
#[allow(
    clippy::large_enum_variant,
    reason = "one body lives per run, on the stack; boxing the trainer buys nothing"
)]
enum EpochBody<'a> {
    /// Plain fine-tuning on the original examples.
    Plain,
    /// MixDA-style fine-tuning: λ-interpolation of the original and
    /// operator-augmented representations (simple op or InvDA).
    Mixda(MixSource<'a>),
    /// Rotom / Rotom+SSL: Algorithm 2 over a per-epoch augmented pool.
    Rotom {
        task: &'a TaskDataset,
        invda: &'a InvDa,
        trainer: MetaTrainer,
        unlabeled: Vec<Vec<String>>,
    },
}

/// Emit one `step` telemetry record for a finished backward pass, just
/// before the optimizer step is applied (gradients are still intact, so the
/// grad-norm is the one the update will consume). `step_start` is the
/// `Instant` captured at the top of the step when telemetry is enabled;
/// `None` means disabled and the function is a no-op. Reads model state
/// only — never consumes RNG, so runs are bit-identical either way.
fn emit_step_record(
    name: &str,
    model: &TinyLm,
    loss: f32,
    examples: usize,
    step_start: Option<std::time::Instant>,
) {
    let Some(start) = step_start else { return };
    let wall_us = start.elapsed().as_micros() as u64;
    let examples_per_sec = if wall_us > 0 {
        examples as f64 / (wall_us as f64 / 1e6)
    } else {
        0.0
    };
    telemetry::emit(
        "step",
        name,
        &[
            ("loss", Value::F64(loss as f64)),
            ("lr", Value::F64(model.learning_rate() as f64)),
            ("grad_norm", Value::F64(model.grad_l2() as f64)),
            ("examples", Value::U64(examples as u64)),
            ("wall_us", Value::U64(wall_us)),
            ("examples_per_sec", Value::F64(examples_per_sec)),
        ],
    );
}

/// Run one training epoch. With a guard, every optimizer step is health
/// checked (and subject to injected faults); `Err(Halt)` reports the first
/// divergent step without applying it.
#[allow(
    clippy::too_many_arguments,
    reason = "the epoch's model, data, config, body, RNG and guard are all distinct borrows"
)]
fn run_one_epoch(
    model: &mut TinyLm,
    train: &[Example],
    valid: &[Example],
    kind: TaskKind,
    cfg: &RotomConfig,
    body: &mut EpochBody<'_>,
    rng: &mut StdRng,
    mut guard: Option<&mut HealthMonitor>,
) -> Result<(), Halt> {
    match body {
        EpochBody::Plain => {
            let k = model.num_classes();
            for chunk in shuffled(train, rng).chunks(cfg.train.batch_size) {
                let step_start = telemetry::enabled().then(std::time::Instant::now);
                let items: Vec<WeightedItem> = chunk
                    .iter()
                    .map(|e| WeightedItem::hard(e.tokens.clone(), e.label, k))
                    .collect();
                let loss = model.weighted_loss_backward(&items, true, rng);
                if let Some(monitor) = guard.as_deref_mut() {
                    guard_step(monitor, model, loss)?;
                }
                emit_step_record("train.step", model, loss, chunk.len(), step_start);
                model.optimizer_step();
            }
        }
        EpochBody::Mixda(source) => {
            let op = default_op(kind);
            let da_ctx = DaContext::default();
            let workers = RotomPool::global();
            for chunk in shuffled(train, rng).chunks(cfg.train.batch_size) {
                let step_start = telemetry::enabled().then(std::time::Instant::now);
                // Augment the whole chunk across the pool. One base seed
                // drawn from the caller RNG is sharded per example inside
                // the batch APIs, so the output is independent of the
                // worker count.
                let aug_seed = rng.next_u64();
                let inputs: Vec<&[String]> = chunk.iter().map(|e| e.tokens.as_slice()).collect();
                let augs = match &source {
                    MixSource::SimpleOp => apply_batch(op, &inputs, &da_ctx, aug_seed, workers),
                    MixSource::InvDa(m) => m.augment_batch(&inputs, aug_seed, workers),
                };
                let pairs: Vec<(&[String], Vec<String>, usize)> = chunk
                    .iter()
                    .zip(augs)
                    .map(|(e, aug)| (e.tokens.as_slice(), aug, e.label))
                    .collect();
                let loss = model.mixda_loss_backward(&pairs, cfg.train.mixda_alpha, rng);
                if let Some(monitor) = guard.as_deref_mut() {
                    guard_step(monitor, model, loss)?;
                }
                emit_step_record("mixda.step", model, loss, chunk.len(), step_start);
                model.step();
            }
        }
        EpochBody::Rotom {
            task,
            invda,
            trainer,
            unlabeled,
        } => {
            let op = default_op(task.kind);
            let da_ctx = DaContext::default();
            let workers = RotomPool::global();
            // Per-epoch augmented pool: identity + one simple-DA variant +
            // one InvDA variant per training example. Both augmentation
            // families fan out across the worker pool; the base seeds drawn
            // from the caller RNG are sharded per example, keeping the pool
            // contents identical to a serial build at any `ROTOM_THREADS`.
            let inputs: Vec<&[String]> = train.iter().map(|e| e.tokens.as_slice()).collect();
            let simple_seed = rng.next_u64();
            let invda_seed = rng.next_u64();
            let simple_augs = apply_batch(op, &inputs, &da_ctx, simple_seed, workers);
            let invda_augs = invda.augment_batch(&inputs, invda_seed, workers);
            let mut pool: Vec<AugExample> = Vec::with_capacity(train.len() * 3);
            for ((e, simple), inv) in train.iter().zip(simple_augs).zip(invda_augs) {
                pool.push(AugExample::identity(e));
                pool.push(AugExample::from_example(e, simple));
                pool.push(AugExample::from_example(e, inv));
            }
            // Unlabeled (x, x̂) pairs for SSL: half simple-DA, half InvDA.
            // Same seed-sharding scheme, one worker task per unlabeled
            // sequence.
            let ssl_seed = rng.next_u64();
            let unlabeled_aug: Vec<(Vec<String>, Vec<String>)> =
                workers.map(unlabeled.len(), |i| {
                    let mut r = StdRng::seed_from_u64(rotom_rng::split_seed(ssl_seed, i as u64));
                    let x = &unlabeled[i];
                    let x_hat = if r.random_bool(0.5) {
                        apply(op, x, &da_ctx, &mut r)
                    } else {
                        invda.augment(x, &mut r)
                    };
                    (x.clone(), x_hat)
                });
            trainer.train_epoch_guarded(model, &pool, valid, &unlabeled_aug, guard)?;
        }
    }
    Ok(())
}

/// Capture the complete mutable state of the epoch loop into a [`StateBag`]:
/// enough that restoring it continues training bit-identically.
fn capture_state(
    session: &FtSession,
    epoch: usize,
    model: &TinyLm,
    body: &EpochBody<'_>,
    rng: &StdRng,
    best: &(f32, Vec<f32>),
    curve: &[f32],
) -> StateBag {
    let mut bag = StateBag::new();
    bag.put_u64s("run.tag", session.tag.clone());
    bag.put_u64("run.epoch", epoch as u64);
    bag.put_u64("run.steps", session.monitor.step());
    bag.put_u64("run.rollbacks", session.monitor.rollbacks() as u64);
    bag.put_rng("loop.rng", rng);
    bag.put_f32("best.metric", best.0);
    bag.put_f32s("best.params", best.1.clone());
    bag.put_f32s("curve", curve.to_vec());
    model.save_train_state(&mut bag, "model");
    if let EpochBody::Rotom { trainer, .. } = body {
        trainer.save_state(&mut bag, "meta");
    }
    bag
}

/// Inverse of [`capture_state`]. The rollback counter is deliberately *not*
/// restored here: a health rollback keeps its (incremented) count, while
/// crash resume restores it from the bag separately.
#[allow(clippy::too_many_arguments)]
fn restore_state(
    bag: &StateBag,
    session: &mut FtSession,
    model: &mut TinyLm,
    body: &mut EpochBody<'_>,
    rng: &mut StdRng,
    best: &mut (f32, Vec<f32>),
    curve: &mut Vec<f32>,
    epoch: &mut usize,
) -> Result<(), CheckpointError> {
    let tag = bag.get_u64s("run.tag")?;
    if tag != session.tag {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint belongs to a different run: tag {tag:?} vs expected {:?} \
             (method/seed/epochs/batch/train-size)",
            session.tag
        )));
    }
    model.load_train_state(bag, "model")?;
    if let EpochBody::Rotom { trainer, .. } = body {
        trainer.load_state(bag, "meta")?;
    }
    *epoch = bag.get_u64("run.epoch")? as usize;
    session.monitor.set_step(bag.get_u64("run.steps")?);
    *rng = bag.get_rng("loop.rng")?;
    best.0 = bag.get_f32("best.metric")?;
    best.1 = bag.get_f32s("best.params")?.to_vec();
    let model_params = bag.get_f32s("model.params")?.len();
    if best.1.len() != model_params {
        return Err(CheckpointError::Mismatch(format!(
            "best.params: {} values vs {} model parameters",
            best.1.len(),
            model_params
        )));
    }
    *curve = bag.get_f32s("curve")?.to_vec();
    Ok(())
}

/// The shared epoch loop: shuffle/train via [`run_one_epoch`], validate,
/// track the best checkpoint, and finish on the best parameters. Returns
/// the per-epoch validation-metric curve.
///
/// With a fault-tolerant session the loop additionally (a) restores itself
/// from a resume checkpoint, (b) captures the full loop state at every
/// epoch boundary (writing it out per [`FtConfig`]), and (c) reacts to
/// health halts by rolling back to the last good boundary with a decayed
/// learning rate — degrading to the best snapshot once the rollback budget
/// is exhausted. Without a session the behaviour (and every consumed RNG
/// draw) is identical to the plain loop.
#[allow(clippy::too_many_arguments)]
fn run_epoch_loop(
    model: &mut TinyLm,
    train: &[Example],
    valid: &[Example],
    kind: TaskKind,
    cfg: &RotomConfig,
    mut body: EpochBody<'_>,
    rng: &mut StdRng,
    mut ft: Option<&mut FtSession>,
) -> Result<Vec<f32>, CheckpointError> {
    let mut best = (f32::NEG_INFINITY, model.snapshot());
    let mut curve: Vec<f32> = Vec::with_capacity(cfg.train.epochs);
    let mut epoch = 0usize;

    if let Some(session) = ft.as_deref_mut() {
        if let Some(bag) = session.take_resume_bag() {
            restore_state(
                &bag, session, model, &mut body, rng, &mut best, &mut curve, &mut epoch,
            )?;
            session
                .monitor
                .set_rollbacks(bag.get_u64("run.rollbacks")? as u32);
            session.report.resumed_from_epoch = Some(epoch);
            session.last_good = Some(bag);
            telemetry::counter("ft.resume", 1);
        } else {
            // The pre-training state is the first rollback target, so a
            // divergence in epoch 0 also recovers.
            session.last_good = Some(capture_state(
                session, epoch, model, &body, rng, &best, &curve,
            ));
        }
    }

    while epoch < cfg.train.epochs {
        let epoch_span = telemetry::span("epoch");
        let epoch_start = telemetry::enabled().then(std::time::Instant::now);
        let outcome = run_one_epoch(
            model,
            train,
            valid,
            kind,
            cfg,
            &mut body,
            rng,
            ft.as_deref_mut().map(|s| &mut s.monitor),
        );
        drop(epoch_span);
        match outcome {
            Ok(()) => {
                let m = valid_metric(model, valid, kind);
                curve.push(m);
                if let Some(start) = epoch_start {
                    let secs = start.elapsed().as_secs_f64();
                    telemetry::gauge("epoch.valid_metric", m as f64);
                    telemetry::gauge(
                        "epoch.examples_per_sec",
                        if secs > 0.0 {
                            train.len() as f64 / secs
                        } else {
                            0.0
                        },
                    );
                    // Memory-plane gauges (ISSUE 3 arena): how many reset
                    // tapes are parked and how many floats they pin.
                    let (tapes, retained) = rotom_nn::pooled_tape_stats();
                    telemetry::gauge("arena.pooled_tapes", tapes as f64);
                    telemetry::gauge("arena.retained_floats", retained as f64);
                    telemetry::gauge(
                        "arena.tape_evictions",
                        rotom_nn::tape_eviction_count() as f64,
                    );
                    rotom_nn::kernels::profile::emit_gemm_gauges();
                }
                if m > best.0 {
                    best.0 = m;
                    model.snapshot_into(&mut best.1);
                }
                epoch += 1;
                if let Some(session) = ft.as_deref_mut() {
                    let bag = capture_state(session, epoch, model, &body, rng, &best, &curve);
                    session.on_epoch_end(epoch, &bag)?;
                    session.last_good = Some(bag);
                }
            }
            Err(halt) => {
                let session = ft
                    .as_deref_mut()
                    .expect("a health halt requires a fault-tolerant session");
                let bag = session
                    .last_good
                    .clone()
                    .expect("last-good state is captured before the first epoch");
                if session.monitor.can_rollback() {
                    restore_state(
                        &bag, session, model, &mut body, rng, &mut best, &mut curve, &mut epoch,
                    )?;
                    let scale = session
                        .monitor
                        .record_rollback(session.monitor.step(), halt.to_string());
                    model.scale_lr(scale);
                    session.last_good = Some(bag);
                    telemetry::counter("ft.rollback", 1);
                } else {
                    session.monitor.record_degraded(format!(
                        "rollback budget exhausted; finishing from best snapshot ({halt})"
                    ));
                    session.report.degraded = true;
                    break;
                }
            }
        }
    }
    model.restore(&best.1);
    if let Some(session) = ft {
        session.report.events = session.monitor.events().to_vec();
        session.report.steps = session.monitor.step();
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};

    fn tiny_task() -> TaskDataset {
        let cfg = TextClsConfig {
            train_pool: 60,
            test: 40,
            unlabeled: 40,
            seed: 5,
        };
        textcls::generate(TextClsFlavor::Sst2, &cfg)
    }

    #[test]
    fn baseline_beats_chance_on_tiny_sst2() {
        let task = tiny_task();
        let train = task.sample_train(40, 1);
        let mut cfg = RotomConfig::test_tiny();
        cfg.train.epochs = 6;
        cfg.train.lr = 1e-3;
        let r = run_method(&task, &train, &train, Method::Baseline, &cfg, None, 3);
        assert!(r.accuracy > 0.6, "accuracy {}", r.accuracy);
        assert!(r.train_seconds > 0.0);
    }

    #[test]
    fn all_methods_run_end_to_end() {
        let task = tiny_task();
        let train = task.sample_train(24, 2);
        let mut cfg = RotomConfig::test_tiny();
        cfg.train.epochs = 1;
        let corpus: Vec<Vec<String>> = task.unlabeled.clone();
        let invda = InvDa::train(&corpus, cfg.invda.clone(), 0);
        for method in Method::ALL {
            let r = run_method(&task, &train, &train, method, &cfg, Some(&invda), 4);
            assert_eq!(r.method, method.name());
            assert!(r.accuracy >= 0.0 && r.accuracy <= 1.0);
        }
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_serial() {
        let task = tiny_task();
        let cfg = RotomConfig::test_tiny();
        let base = prepare_base(&task, &cfg, 7);
        let model = base.instantiate(&cfg, 7);
        let serial = RotomPool::new(1);
        let (acc_ref, f1_ref) = evaluate_with_pool(&model, &task.test, &serial);
        for threads in [2, 3, 8] {
            let pool = RotomPool::new(threads);
            let (acc, f1) = evaluate_with_pool(&model, &task.test, &pool);
            assert_eq!(acc.to_bits(), acc_ref.to_bits(), "threads={threads}");
            assert_eq!(f1.f1.to_bits(), f1_ref.f1.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn default_ops_match_task_kinds() {
        assert_eq!(default_op(TaskKind::EntityMatching), DaOp::SpanDel);
        assert_eq!(default_op(TaskKind::ErrorDetection), DaOp::TokenDel);
        assert_eq!(default_op(TaskKind::TextClassification), DaOp::TokenRepl);
    }
}
