//! `em_rotom_train` and `em_mixda_train`: one Figure 4 cell (Abt-Buy at
//! quick scale, budget 240, validation = training set), trained with Rotom
//! or with MixDA from a pre-trained base.
//!
//! The untraced run calls `run_method_with_base`, the API users call. Its
//! internals are not public, so the traced run rebuilds the same epoch loop
//! from public calls, wraps the target model in [`Traced`], and must agree
//! with the untraced run bit for bit.

use crate::{metric, stats, time_setups, trace, Metric, Outcome, Run, ROOT, SETUPS};
use rotom::metrics::PrF1;
use rotom::pipeline::{default_op, evaluate, prepare_base, run_method_with_base, PretrainedBase};
use rotom::{Method, RotomConfig, TinyLm};
use rotom_augment::{apply_batch, DaContext, InvDa};
use rotom_datasets::{em, EmConfig, EmFlavor, TaskDataset};
use rotom_meta::{EpochStats, MetaTarget, MetaTrainer, WeightedItem};
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngCore, RngExt, SeedableRng};
use rotom_text::example::{AugExample, Example};
use std::collections::HashSet;
use std::time::Instant;

/// Labeled examples drawn from the pool; they double as the validation set.
const BUDGET: usize = 240;
/// Unlabeled sequences InvDA is trained on.
const INVDA_CORPUS: usize = 300;

/// Per-layer metrics of the traced training runs.
pub const LAYER: &[(&str, &str)] = &[
    ("setup.pretrain_s", "s"),
    ("setup.invda_train_s", "s"),
    ("pipeline.eval_s", "s"),
    ("augment.simple_s", "s"),
    ("augment.invda_s", "s"),
    ("augment.invda_inputs", "count"),
    ("augment.invda_hit_ratio", "ratio"),
    ("meta.epoch_s", "s"),
    ("meta.policy_self_s", "s"),
    ("meta.score_s", "s"),
    ("meta.score_calls", "count"),
    ("meta.virtual_step_s", "s"),
    ("meta.val_bwd_s", "s"),
    ("meta.probe_s", "s"),
    ("meta.probe_calls", "count"),
    ("meta.steps", "count"),
    ("meta.keep_rate", "ratio"),
    ("model.fwd_bwd_s", "s"),
    ("model.optimizer_s", "s"),
    ("model.alloc_mb_per_step", "MB"),
];

/// The quick-scale Abt-Buy generator settings.
fn em_config(seed: u64) -> EmConfig {
    EmConfig {
        num_entities: 160,
        train_pairs: 400,
        test_pairs: 200,
        seed,
        ..EmConfig::default()
    }
}

/// The quick-scale EM training configuration, copied here as constants so
/// that editing the paper-table harness never moves this workload.
pub fn train_config() -> RotomConfig {
    let mut cfg = RotomConfig::bench_small();
    cfg.model.d_model = 32;
    cfg.model.heads = 4;
    cfg.model.d_ff = 64;
    cfg.model.layers = 2;
    cfg.model.max_len = 72;
    cfg.model.pretrain_epochs = 1;
    cfg.model.pair_pretrain_epochs = 30;
    cfg.train.epochs = 5;
    cfg.train.lr = 5e-4;
    cfg.invda.max_len = 72;
    cfg.invda.max_gen_len = 64;
    cfg
}

/// What a training run needs before it starts: the pre-trained base, and
/// the InvDA operator when the method uses one.
struct Setup {
    base: PretrainedBase,
    invda: Option<InvDa>,
}

fn set_up(task: &TaskDataset, cfg: &RotomConfig, method: Method, seed: u64) -> Setup {
    let base = trace::span("setup.pretrain", || prepare_base(task, cfg, seed));
    let invda = (method == Method::Rotom).then(|| {
        let corpus = task.sample_unlabeled(INVDA_CORPUS, seed);
        trace::span("setup.invda_train", || {
            InvDa::train(&corpus, cfg.invda.clone(), seed)
        })
    });
    Setup { base, invda }
}

/// Everything a run's correctness rests on, as bits: accuracy,
/// precision/recall/F1 and the validation curve.
fn fingerprint(accuracy: f32, prf: &PrF1, curve: &[f32]) -> Vec<u32> {
    [accuracy, prf.precision, prf.recall, prf.f1]
        .iter()
        .chain(curve)
        .map(|v| v.to_bits())
        .collect()
}

pub fn run(method: Method, r: &Run) -> Outcome {
    let cfg = train_config();
    let task = em::generate(EmFlavor::AbtBuy, &em_config(r.seed)).to_task();
    let mut out = Outcome::default();

    // A traced run records its one set-up too.
    if r.trace {
        trace::enable();
    }
    let (setup_s, setup) = time_setups(if r.trace { 1 } else { SETUPS }, || {
        set_up(&task, &cfg, method, r.seed)
    });

    // Each rep trains on its own labeled sample: how long Rotom trains
    // depends on the data (its filter sets the step count), so a run with
    // several reps takes the median over samples instead of repeating one.
    let rep_seed = |k: usize| split_seed(r.seed, k as u64);
    let mut walls = Vec::new();
    let mut reps: Vec<(Vec<u32>, f32)> = Vec::new();
    let measure = Instant::now();
    while r.more(&walls, measure) {
        let k = reps.len();
        let train = task.sample_train(BUDGET, rep_seed(k));
        // Users pay first-epoch InvDA generation on every run, so each rep
        // starts from a cold cache.
        if let Some(m) = &setup.invda {
            m.clear_cache();
        }
        let t = Instant::now();
        let res = run_method_with_base(
            &task,
            &train,
            &train,
            method,
            &cfg,
            setup.invda.as_ref(),
            Some(&setup.base),
            rep_seed(k),
        );
        walls.push(t.elapsed().as_secs_f64());
        if let Some(m) = &setup.invda {
            let hit = hit_ratio(m.cache_len(), train.len() * cfg.train.epochs);
            let cold = cold_hit_ratio(&train, cfg.train.epochs);
            out.check(hit == cold, || {
                format!("rep {k}: InvDA hit ratio {hit}, {cold} expected from a cold cache")
            });
        }
        let f1 = res.prf1.f1;
        out.check((0.0..=1.0).contains(&f1), || {
            format!("rep {k}: test F1 {f1} out of range")
        });
        reps.push((fingerprint(res.accuracy, &res.prf1, &res.val_curve), f1));
    }
    out.attempted = reps.len() as u64;
    out.end_to_end(&setup_s, &walls);
    let f1s: Vec<f64> = reps.iter().map(|(_, f1)| *f1 as f64).collect();
    out.detail = vec![
        metric("train_s", "s", stats::median(&walls)),
        metric("test_f1", "ratio", stats::median(&f1s)),
    ];

    if r.trace {
        let train = task.sample_train(BUDGET, rep_seed(0));
        if let Some(m) = &setup.invda {
            m.clear_cache();
        }
        trace::set_rep(1);
        let t = Instant::now();
        let traced = trace::span(ROOT, || {
            traced_run(&task, &train, method, &cfg, &setup, rep_seed(0))
        });
        let traced_wall = t.elapsed().as_secs_f64();
        out.attempted += 1;
        out.check(traced.fingerprint == reps[0].0, || {
            "traced run differs from the untraced run (F1, precision/recall or val curve)".into()
        });
        if setup.invda.is_some() {
            let hit = hit_ratio(traced.invda_misses, traced.invda_inputs);
            let cold = cold_hit_ratio(&train, cfg.train.epochs);
            out.check(hit == cold, || {
                format!("traced InvDA hit ratio {hit}, {cold} expected from a cold cache")
            });
        }
        out.spans = trace::finish();
        if let Err(e) = check_forwarding(&setup.base, &cfg, &train, r.seed) {
            out.failures.push(e);
        }
        out.layer = layer_metrics(&out.spans, &traced);
        out.layer
            .push(metric("trace.overhead", "ratio", traced_wall / walls[0]));
    }
    out
}

/// Share of InvDA cache lookups that hit (0 when there were none). Only
/// misses add cache entries, so a run's misses are its cache growth.
fn hit_ratio(misses: usize, lookups: usize) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        1.0 - misses as f64 / lookups as f64
    }
}

/// The hit ratio of a run that starts from an empty cache: every epoch
/// looks up every training input, and only the first lookup of each
/// distinct input misses.
fn cold_hit_ratio(train: &[Example], epochs: usize) -> f64 {
    let distinct: HashSet<String> = train.iter().map(|e| e.tokens.join(" ")).collect();
    hit_ratio(distinct.len(), train.len() * epochs)
}

/// Counts the traced run observes besides its spans.
struct TracedRun {
    fingerprint: Vec<u32>,
    invda_inputs: usize,
    invda_misses: usize,
    epochs: Vec<EpochStats>,
}

fn layer_metrics(spans: &[trace::Span], run: &TracedRun) -> Vec<Metric> {
    let t = trace::by_name(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let steps: usize = run.epochs.iter().map(|s| s.steps).sum();
    let keep_rate = if run.epochs.is_empty() {
        0.0
    } else {
        run.epochs.iter().map(|s| s.keep_rate as f64).sum::<f64>() / run.epochs.len() as f64
    };
    let (fwd, opt) = (get("model.fwd_bwd"), get("model.optimizer"));
    let alloc_per_step = if opt.calls == 0 {
        0.0
    } else {
        (fwd.alloc_bytes + opt.alloc_bytes) as f64 / opt.calls as f64 / 1e6
    };
    let values = [
        get("setup.pretrain").total_s(),
        get("setup.invda_train").total_s(),
        get("pipeline.evaluate").total_s(),
        get("augment.simple").total_s(),
        get("augment.invda").total_s(),
        run.invda_inputs as f64,
        hit_ratio(run.invda_misses, run.invda_inputs),
        get("meta.epoch").total_s(),
        get("meta.epoch").self_s(),
        get("meta.score").total_s(),
        get("meta.score").calls as f64,
        get("meta.virtual_step").total_s(),
        get("meta.val_bwd").total_s(),
        get("meta.probe").total_s(),
        get("meta.probe").calls as f64,
        steps as f64,
        keep_rate,
        fwd.total_s(),
        opt.total_s(),
        alloc_per_step,
    ];
    LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, unit, v))
        .collect()
}

/// The EM validation metric `run_method_with_base` selects checkpoints by:
/// F1, or accuracy when the validation sample has no positives.
fn valid_metric(model: &TinyLm, valid: &[Example]) -> f32 {
    let (acc, prf) = evaluate(model, valid);
    if valid.iter().any(|e| e.label == 1) {
        prf.f1
    } else {
        acc
    }
}

/// `run_method_with_base` for Rotom or MixDA rebuilt from public calls, with
/// a span around each call into a layer. Consumes the RNG streams in the
/// same order, so it reproduces the untraced run bit for bit.
fn traced_run(
    task: &TaskDataset,
    train: &[Example],
    method: Method,
    cfg: &RotomConfig,
    setup: &Setup,
    seed: u64,
) -> TracedRun {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
    let model = trace::span("pipeline.instantiate", || setup.base.instantiate(cfg, seed));
    let mut target = Traced(model);
    let mut best = (
        f32::NEG_INFINITY,
        trace::span("pipeline.snapshot", || target.0.snapshot()),
    );
    let mut trainer = (method == Method::Rotom).then(|| {
        let mut meta_cfg = cfg.meta.clone();
        meta_cfg.ssl = None;
        let enc_cfg = cfg.model.encoder(target.0.vocab().len());
        MetaTrainer::new(
            task.num_classes,
            target.0.vocab().clone(),
            enc_cfg,
            meta_cfg,
        )
    });
    let op = default_op(task.kind);
    let da_ctx = DaContext::default();
    let workers = RotomPool::global();
    let mut run = TracedRun {
        fingerprint: Vec::new(),
        invda_inputs: 0,
        invda_misses: 0,
        epochs: Vec::new(),
    };
    let mut curve = Vec::with_capacity(cfg.train.epochs);
    for _ in 0..cfg.train.epochs {
        trace::span("epoch", || match (&mut trainer, &setup.invda) {
            (Some(trainer), Some(invda)) => {
                let inputs: Vec<&[String]> = train.iter().map(|e| e.tokens.as_slice()).collect();
                let simple_seed = rng.next_u64();
                let invda_seed = rng.next_u64();
                let simple = trace::span("augment.simple", || {
                    apply_batch(op, &inputs, &da_ctx, simple_seed, workers)
                });
                let cached = invda.cache_len();
                let inv = trace::span("augment.invda", || {
                    invda.augment_batch(&inputs, invda_seed, workers)
                });
                run.invda_inputs += inputs.len();
                run.invda_misses += invda.cache_len() - cached;
                let mut pool = Vec::with_capacity(train.len() * 3);
                for ((e, s), i) in train.iter().zip(simple).zip(inv) {
                    pool.push(AugExample::identity(e));
                    pool.push(AugExample::from_example(e, s));
                    pool.push(AugExample::from_example(e, i));
                }
                // The pipeline draws an SSL seed every epoch even without
                // unlabeled data.
                let _ssl_seed = rng.next_u64();
                let stats = trace::span("meta.epoch", || {
                    trainer.train_epoch(&mut target, &pool, train, &[])
                });
                run.epochs.push(stats);
            }
            _ => {
                let mut order: Vec<&Example> = train.iter().collect();
                for i in (1..order.len()).rev() {
                    let j = rng.random_range(0..=i);
                    order.swap(i, j);
                }
                for chunk in order.chunks(cfg.train.batch_size) {
                    let aug_seed = rng.next_u64();
                    let inputs: Vec<&[String]> =
                        chunk.iter().map(|e| e.tokens.as_slice()).collect();
                    let augs = trace::span("augment.simple", || {
                        apply_batch(op, &inputs, &da_ctx, aug_seed, workers)
                    });
                    let pairs: Vec<(Vec<String>, Vec<String>, usize)> = chunk
                        .iter()
                        .zip(augs)
                        .map(|(e, aug)| (e.tokens.clone(), aug, e.label))
                        .collect();
                    trace::span("model.fwd_bwd", || {
                        target
                            .0
                            .mixda_loss_backward(&pairs, cfg.train.mixda_alpha, &mut rng)
                    });
                    trace::span("model.optimizer", || target.0.step());
                }
            }
        });
        let m = trace::span("pipeline.evaluate", || valid_metric(&target.0, train));
        curve.push(m);
        if m > best.0 {
            best.0 = m;
            trace::span("pipeline.snapshot", || target.0.snapshot_into(&mut best.1));
        }
    }
    trace::span("pipeline.restore", || target.0.restore(&best.1));
    let (acc, prf) = trace::span("pipeline.evaluate", || evaluate(&target.0, &task.test));
    run.fingerprint = fingerprint(acc, &prf, &curve);
    run
}

/// A [`MetaTarget`] that forwards every method to the wrapped target, with
/// a span around each call the meta-trainer makes in its loop.
pub struct Traced<T>(pub T);

impl<T: MetaTarget> MetaTarget for Traced<T> {
    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn predict_proba(&self, tokens: &[String]) -> Vec<f32> {
        trace::span("meta.score", || self.0.predict_proba(tokens))
    }

    fn weighted_loss_backward(
        &mut self,
        items: &[WeightedItem],
        train: bool,
        rng: &mut StdRng,
    ) -> f32 {
        // Phase 1 trains on the weighted batch; the validation backward at
        // the virtual step runs in eval mode.
        let name = if train {
            "model.fwd_bwd"
        } else {
            "meta.val_bwd"
        };
        trace::span(name, || self.0.weighted_loss_backward(items, train, rng))
    }

    fn per_example_losses(&self, items: &[WeightedItem]) -> Vec<f32> {
        trace::span("meta.probe", || self.0.per_example_losses(items))
    }

    fn flat_params(&self) -> Vec<f32> {
        self.0.flat_params()
    }

    fn set_flat_params(&mut self, flat: &[f32]) {
        self.0.set_flat_params(flat)
    }

    fn add_scaled(&mut self, delta: &[f32], alpha: f32) {
        trace::span("meta.virtual_step", || self.0.add_scaled(delta, alpha))
    }

    fn flat_grads(&self) -> Vec<f32> {
        trace::span("meta.virtual_step", || self.0.flat_grads())
    }

    fn optimizer_step(&mut self) {
        trace::span("model.optimizer", || self.0.optimizer_step())
    }

    fn learning_rate(&self) -> f32 {
        self.0.learning_rate()
    }

    fn grad_l2(&self) -> f32 {
        self.0.grad_l2()
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Drive the same sequence of calls on `plain` and `Traced(traced)` and
/// report the first result that differs in any bit.
fn compare_forwarding<T: MetaTarget>(
    plain: &mut T,
    traced: &mut Traced<T>,
    items: &[WeightedItem],
    seed: u64,
) -> Result<(), String> {
    let same = |what: &str, a: Vec<u32>, b: Vec<u32>| {
        if a == b {
            Ok(())
        } else {
            Err(format!("Traced::{what} does not match the wrapped target"))
        }
    };
    let (mut ra, mut rb) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    same(
        "num_classes",
        vec![plain.num_classes() as u32],
        vec![traced.num_classes() as u32],
    )?;
    same(
        "learning_rate",
        vec![plain.learning_rate().to_bits()],
        vec![traced.learning_rate().to_bits()],
    )?;
    same(
        "predict_proba",
        bits(&plain.predict_proba(&items[0].tokens)),
        bits(&traced.predict_proba(&items[0].tokens)),
    )?;
    for train in [true, false] {
        same(
            "weighted_loss_backward",
            vec![plain
                .weighted_loss_backward(items, train, &mut ra)
                .to_bits()],
            vec![traced
                .weighted_loss_backward(items, train, &mut rb)
                .to_bits()],
        )?;
        same(
            "flat_grads",
            bits(&plain.flat_grads()),
            bits(&traced.flat_grads()),
        )?;
        same(
            "grad_l2",
            vec![plain.grad_l2().to_bits()],
            vec![traced.grad_l2().to_bits()],
        )?;
    }
    same(
        "per_example_losses",
        bits(&plain.per_example_losses(items)),
        bits(&traced.per_example_losses(items)),
    )?;
    let g = plain.flat_grads();
    plain.add_scaled(&g, -0.5);
    traced.add_scaled(&g, -0.5);
    same(
        "add_scaled",
        bits(&plain.flat_params()),
        bits(&traced.flat_params()),
    )?;
    plain.optimizer_step();
    traced.optimizer_step();
    same(
        "optimizer_step",
        bits(&plain.flat_params()),
        bits(&traced.flat_params()),
    )?;
    let restored: Vec<f32> = plain.flat_params().iter().map(|v| v * 0.5).collect();
    plain.set_flat_params(&restored);
    traced.set_flat_params(&restored);
    same(
        "set_flat_params",
        bits(&plain.flat_params()),
        bits(&traced.flat_params()),
    )
}

/// [`Traced`] over the benchmark's own model must behave exactly like the
/// model it wraps.
fn check_forwarding(
    base: &PretrainedBase,
    cfg: &RotomConfig,
    train: &[Example],
    seed: u64,
) -> Result<(), String> {
    let items: Vec<WeightedItem> = train
        .iter()
        .take(8)
        .map(|e| WeightedItem::hard(e.tokens.clone(), e.label, 2))
        .collect();
    let mut plain = base.instantiate(cfg, seed);
    let mut traced = Traced(base.instantiate(cfg, seed));
    compare_forwarding(&mut plain, &mut traced, &items, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A target whose `grad_l2` override differs from the trait default, so
    /// a wrapper that fell back to the default would be caught.
    struct Toy {
        w: Vec<f32>,
        g: Vec<f32>,
    }

    impl MetaTarget for Toy {
        fn num_classes(&self) -> usize {
            2
        }
        fn predict_proba(&self, tokens: &[String]) -> Vec<f32> {
            let z = self.w[0] * tokens.len() as f32;
            vec![1.0 / (1.0 + z.exp()), 1.0 - 1.0 / (1.0 + z.exp())]
        }
        fn weighted_loss_backward(
            &mut self,
            items: &[WeightedItem],
            _train: bool,
            rng: &mut StdRng,
        ) -> f32 {
            let noise = rng.random_range(0.0f32..1.0);
            self.g = self.w.iter().map(|w| w * noise).collect();
            items.len() as f32 * noise
        }
        fn per_example_losses(&self, items: &[WeightedItem]) -> Vec<f32> {
            items
                .iter()
                .map(|i| self.predict_proba(&i.tokens)[0])
                .collect()
        }
        fn flat_params(&self) -> Vec<f32> {
            self.w.clone()
        }
        fn set_flat_params(&mut self, flat: &[f32]) {
            self.w.copy_from_slice(flat)
        }
        fn add_scaled(&mut self, delta: &[f32], alpha: f32) {
            for (w, d) in self.w.iter_mut().zip(delta) {
                *w += alpha * d;
            }
        }
        fn flat_grads(&self) -> Vec<f32> {
            self.g.clone()
        }
        fn optimizer_step(&mut self) {
            let g = self.g.clone();
            self.add_scaled(&g, -0.1);
        }
        fn learning_rate(&self) -> f32 {
            0.1
        }
        fn grad_l2(&self) -> f32 {
            -1.0
        }
    }

    fn toy() -> Toy {
        Toy {
            w: vec![0.5, -0.25, 2.0],
            g: vec![0.0; 3],
        }
    }

    #[test]
    fn traced_forwards_every_method() {
        let items = vec![WeightedItem::hard(vec!["a".into(), "b".into()], 1, 2)];
        let (mut plain, mut traced) = (toy(), Traced(toy()));
        compare_forwarding(&mut plain, &mut traced, &items, 9).unwrap();
        // The override, not the trait default (which would be >= 0).
        assert_eq!(traced.grad_l2(), -1.0);
    }

    #[test]
    fn traced_calls_land_in_named_spans() {
        let items = vec![WeightedItem::hard(vec!["a".into()], 0, 2)];
        let mut t = Traced(toy());
        let mut rng = StdRng::seed_from_u64(1);
        trace::enable();
        trace::span(ROOT, || {
            t.predict_proba(&items[0].tokens);
            t.weighted_loss_backward(&items, true, &mut rng);
            t.weighted_loss_backward(&items, false, &mut rng);
            t.flat_grads();
            t.per_example_losses(&items);
            t.optimizer_step();
        });
        let names: Vec<&str> = trace::finish().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                ROOT,
                "meta.score",
                "model.fwd_bwd",
                "meta.val_bwd",
                "meta.virtual_step",
                "meta.probe",
                "model.optimizer"
            ]
        );
    }
}
