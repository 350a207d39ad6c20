//! Integration of the meta-learning framework with the real TinyLm target
//! (the unit tests drive it with a bag-of-words mock): Algorithm 2 must run
//! end-to-end through tape-based autodiff, the virtual step, probes, and
//! both policy updates — and still train a usable classifier from a pool
//! with corrupted augmentations.
//!
//! It also pins the bits that run leaves behind: the golden pins hash only
//! metrics, which an ulp-level change inside `M_F` or `M_W` that flips no
//! prediction cannot move. Both pins hold at any worker count
//! (`ROTOM_THREADS`), on the hosts the DeepMatcher parameter pin holds on.

use rotom::pipeline::evaluate;
use rotom::{MetaConfig, MetaTrainer, ModelConfig, TinyLm};
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_nn::StateBag;
use rotom_rng::{fnv1a64, fnv1a64_extend};
use rotom_text::example::AugExample;

/// FNV-1a-64 of the meta-trainer's serialized state: `M_F` and `M_W`
/// parameters, both Adam states, the sampling RNG and the REINFORCE
/// baseline.
const META_STATE_PIN: u64 = 0x97a0_f1f6_6e23_743c;
/// FNV-1a-64 over the bits of the target's trained parameters, in store
/// order.
const TARGET_PARAMS_PIN: u64 = 0x4851_1752_5fe9_7a14;

#[test]
fn algorithm2_with_tinylm_learns_through_poisoned_pool() {
    let data_cfg = TextClsConfig {
        train_pool: 80,
        test: 60,
        unlabeled: 40,
        seed: 21,
    };
    let task = textcls::generate(TextClsFlavor::Sst2, &data_cfg);
    let train = task.sample_train(40, 0);

    let mut mc = ModelConfig::test_tiny();
    mc.max_len = 20;
    let corpus: Vec<Vec<String>> = task.unlabeled.clone();
    let mut model = TinyLm::from_corpus(&corpus, 2, &mc, 2e-3, 1);
    model.pretrain_mlm(&corpus, 8);

    // Pool: identity examples plus 25% label-corrupted copies.
    let mut pool: Vec<AugExample> = train.iter().map(AugExample::identity).collect();
    for e in train.iter().take(10) {
        pool.push(AugExample {
            orig: e.tokens.clone(),
            aug: e.tokens.clone(),
            label: 1 - e.label,
        });
    }

    let enc = mc.encoder(model.vocab().len());
    let meta_cfg = MetaConfig {
        batch_size: 8,
        val_batch_size: 8,
        ..Default::default()
    };
    let mut trainer = MetaTrainer::new(2, model.vocab().clone(), enc, meta_cfg);
    let mut last_stats = None;
    for _ in 0..5 {
        last_stats = Some(trainer.train_epoch(&mut model, &pool, &train, &[]));
    }
    let stats = last_stats.unwrap();

    let mut bag = StateBag::new();
    trainer.save_state(&mut bag, "meta");
    let meta_bits = fnv1a64(bag.serialize().as_bytes());
    let target_bits = model.snapshot().iter().fold(fnv1a64(&[]), |h, x| {
        fnv1a64_extend(h, &x.to_bits().to_le_bytes())
    });
    assert_eq!(meta_bits, META_STATE_PIN, "meta state {meta_bits:#018x}");
    assert_eq!(
        target_bits, TARGET_PARAMS_PIN,
        "target parameters {target_bits:#018x}"
    );

    assert!(stats.steps > 0);
    assert!(stats.train_loss.is_finite());
    assert!((0.0..=1.0).contains(&stats.keep_rate));

    let (acc, _) = evaluate(&model, &task.test);
    // Observed accuracy at these fixed seeds is 0.7167 (43/60 test
    // examples). The 0.60 floor leaves a 7-example margin so benign numeric
    // drift (kernel rounding, optimizer tweaks) doesn't flip the test at a
    // seed boundary, while a collapse toward the ~0.5 majority predictor
    // still fails loudly.
    assert!(
        acc > 0.60,
        "accuracy {acc} too low after meta-training (expected ≈0.72 at these seeds)"
    );
}
