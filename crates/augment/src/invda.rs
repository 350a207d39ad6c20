//! InvDA — inverse data augmentation via a seq2seq model (paper §3).
//!
//! A Transformer encoder–decoder (the stand-in for the paper's fine-tuned
//! T5-base) is trained on (corrupted → original) pairs produced by
//! Algorithm 1 (`corrupt::corruption_pairs`): the model learns to
//! *invert* the effect of multiple simple DA operators. At augmentation time
//! it is applied to *original* sequences, yielding natural, diverse
//! augmentations whose edits go beyond what any single simple operator can
//! produce.
//!
//! Generation uses top-k sampling restricted to the top-p probability mass
//! (the paper uses k=120 over the top 98% mass) and caches up to
//! `max_unique` distinct variants per input, exactly as the released Rotom
//! implementation pre-computes and caches InvDA outputs.

use crate::corrupt::corruption_pairs;
use crate::ops::{DaContext, DaOp};
use rotom_nn::{
    one_hot_rows, with_infer_tape, Adam, Exec, FwdCtx, ParamStore, Tape, TransformerConfig,
    TransformerDecoder, TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::{fnv1a64, RngExt, SeedableRng};
use rotom_text::token::{BOS, EOS, PAD, UNK};
use rotom_text::vocab::Vocab;
use std::collections::HashMap;
use std::sync::Mutex;

/// Dropout during training.
const DROPOUT: f32 = 0.1;
/// Operators used for corruption (Algorithm 1's `D`).
const CORRUPT_OPS: &[DaOp] = &DaOp::TEXT_LEVEL;
/// Adam learning rate.
const LR: f32 = 1e-3;
/// Top-k cutoff for sampling (paper: 120).
const TOP_K: usize = 20;
/// Nucleus (top-p) mass for sampling (paper: 0.98).
const TOP_P: f32 = 0.98;
/// Vocabulary budget.
const VOCAB_SIZE: usize = 4096;

/// InvDA hyper-parameters.
#[derive(Debug, Clone)]
pub struct InvDaConfig {
    /// Width of the seq2seq model.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward width.
    pub d_ff: usize,
    /// Encoder/decoder layers.
    pub layers: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Number of corruption operators applied per pair (Algorithm 1's `n`).
    pub num_corruptions: usize,
    /// Corruption pairs generated per corpus sequence per epoch.
    pub pairs_per_seq: usize,
    /// Training epochs over the corruption pairs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Maximum distinct cached variants per input (paper: 50).
    pub max_unique: usize,
    /// Maximum generated length.
    pub max_gen_len: usize,
}

impl Default for InvDaConfig {
    fn default() -> Self {
        Self {
            d_model: 48,
            heads: 4,
            d_ff: 96,
            layers: 2,
            max_len: 64,
            num_corruptions: 3,
            pairs_per_seq: 2,
            epochs: 5,
            batch_size: 16,
            max_unique: 8,
            max_gen_len: 48,
        }
    }
}

impl InvDaConfig {
    /// A very small configuration for unit tests.
    pub fn test_tiny() -> Self {
        Self {
            d_model: 16,
            heads: 2,
            d_ff: 32,
            layers: 1,
            max_len: 24,
            epochs: 2,
            pairs_per_seq: 1,
            batch_size: 4,
            max_unique: 3,
            max_gen_len: 16,
            ..Self::default()
        }
    }
}

/// A trained InvDA seq2seq augmentation operator.
pub struct InvDa {
    store: ParamStore,
    encoder: TransformerEncoder,
    decoder: TransformerDecoder,
    vocab: Vocab,
    cfg: InvDaConfig,
    cache: Mutex<HashMap<String, Vec<Vec<String>>>>,
    /// Seed for per-key variant generation. Each cache entry is generated
    /// with an RNG derived from this seed and a stable hash of the key, so
    /// cache contents depend only on the model and the input — never on
    /// caller RNG state, call order, or thread count.
    cache_seed: u64,
    /// Mean training loss per epoch (for diagnostics / the training-time
    /// experiment).
    pub training_losses: Vec<f32>,
}

impl InvDa {
    /// Train InvDA on an (unlabeled) corpus of serialized token sequences
    /// following Algorithm 1.
    pub fn train(corpus: &[Vec<String>], cfg: InvDaConfig, seed: u64) -> Self {
        assert!(!corpus.is_empty(), "InvDA needs a non-empty corpus");
        let mut rng = StdRng::seed_from_u64(seed);
        let refs: Vec<&[String]> = corpus.iter().map(|s| s.as_slice()).collect();
        let vocab = Vocab::build(refs.iter().copied(), VOCAB_SIZE);
        let tcfg = TransformerConfig {
            vocab: vocab.len(),
            d_model: cfg.d_model,
            heads: cfg.heads,
            d_ff: cfg.d_ff,
            layers: cfg.layers,
            max_len: cfg.max_len,
        };
        let mut store = ParamStore::new();
        let encoder = TransformerEncoder::new(&mut store, &mut rng, "invda.enc", tcfg.clone());
        let decoder = TransformerDecoder::new(&mut store, &mut rng, "invda.dec", tcfg);
        let mut model = Self {
            store,
            encoder,
            decoder,
            vocab,
            cfg,
            cache: Mutex::new(HashMap::new()),
            cache_seed: rotom_rng::split_seed(seed, 0x1a5_cafe),
            training_losses: Vec::new(),
        };
        model.fit(corpus, &mut rng);
        model
    }

    fn fit(&mut self, corpus: &[Vec<String>], rng: &mut StdRng) {
        let da_ctx = DaContext::default();
        let mut opt = Adam::new(LR);
        let (bos, eos) = (self.vocab.special_id(BOS), self.vocab.special_id(EOS));
        for _epoch in 0..self.cfg.epochs {
            let mut pairs = corruption_pairs(
                corpus,
                CORRUPT_OPS,
                self.cfg.num_corruptions,
                self.cfg.pairs_per_seq,
                &da_ctx,
                rng,
            );
            rng.shuffle(&mut pairs);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in pairs.chunks(self.cfg.batch_size) {
                let batch = Tape::batch(chunk, |tape, (input, target)| {
                    let in_ids = self.clamp(self.vocab.encode(input));
                    // Reserve one slot for BOS/EOS on the decoder side.
                    let mut tgt_ids = self.vocab.encode(target);
                    tgt_ids.truncate(self.cfg.max_len - 1);
                    let mut dec_in = Vec::with_capacity(tgt_ids.len() + 1);
                    dec_in.push(bos);
                    dec_in.extend_from_slice(&tgt_ids);
                    let mut dec_tgt = tgt_ids.clone();
                    dec_tgt.push(eos);

                    let mut ctx = FwdCtx::train(&self.store, DROPOUT, rng);
                    let memory = self.encoder.forward(tape, &in_ids, &[], &mut ctx);
                    let logits = self.decoder.forward(tape, &dec_in, memory, &mut ctx);
                    let targets = one_hot_rows(&dec_tgt, self.vocab.len());
                    tape.cross_entropy(logits, &targets)
                });
                let loss = batch.backward_mean_clipped(&mut self.store);
                opt.step(&mut self.store);
                epoch_loss += loss.expect("non-empty batch");
                batches += 1;
            }
            self.training_losses
                .push(epoch_loss / batches.max(1) as f32);
        }
    }

    fn clamp(&self, mut ids: Vec<usize>) -> Vec<usize> {
        ids.truncate(self.cfg.max_len);
        if ids.is_empty() {
            ids.push(self.vocab.special_id(PAD));
        }
        ids
    }

    /// Generate one augmented variant of `tokens` by sampling from the
    /// decoder (no caching).
    ///
    /// Decoding runs on the forward-only [`InferTape`](rotom_nn::InferTape):
    /// the encoder memory and the per-layer cross-attention K/V projections
    /// are computed once per call and kept below a mark, and each step
    /// recomputes only the final decoder layer's last-row band plus that
    /// band's vocabulary projection, then truncates back to the mark. The
    /// logits are bit-identical to decoding through full tape forwards.
    pub fn generate(&self, tokens: &[String], rng: &mut StdRng) -> Vec<String> {
        let in_ids = self.clamp(self.vocab.encode(tokens));
        let bos = self.vocab.special_id(BOS);
        let eos = self.vocab.special_id(EOS);
        let pad = self.vocab.special_id(PAD);
        let unk = self.vocab.special_id(UNK);

        let out_ids = with_infer_tape(|it| {
            let mut ctx = FwdCtx::eval(&self.store);
            let memory = self.encoder.forward(it, &in_ids, &[], &mut ctx);
            let memory = self.decoder.project_memory(it, memory, &self.store);
            let step = it.mark();
            let mut out_ids: Vec<usize> = vec![bos];
            for _ in 0..self.cfg.max_gen_len {
                let logits = self.decoder.last_logits(it, &out_ids, &memory, &mut ctx);
                let logits = it.value(logits).data();
                let next = sample_top_k_top_p(logits, TOP_K, TOP_P, &[bos, pad], rng);
                it.truncate(step);
                if next == eos {
                    break;
                }
                out_ids.push(next);
                if out_ids.len() >= self.cfg.max_len {
                    break;
                }
            }
            out_ids
        });
        out_ids
            .into_iter()
            .skip(1)
            .filter(|&i| i != unk && i != pad)
            .map(|i| self.vocab.token(i).to_string())
            .collect()
    }

    /// Generate up to `n` *distinct* variants different from the input,
    /// retrying a bounded number of times (paper: up to 50 unique sequences).
    pub fn generate_unique(
        &self,
        tokens: &[String],
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = Vec::new();
        let mut attempts = 0;
        while out.len() < n && attempts < n * 4 {
            attempts += 1;
            let cand = self.generate(tokens, rng);
            if !cand.is_empty() && cand != tokens && !out.contains(&cand) {
                out.push(cand);
            }
        }
        out
    }

    /// The cached variant set for `tokens`, generating it on first use.
    ///
    /// Generation draws from an RNG derived from the model's `cache_seed`
    /// and a stable hash of the input, so the variant set for a given input
    /// is a pure function of the model — independent of caller RNG state,
    /// the order inputs are first seen, and (in the batch path) the worker
    /// that happens to compute it. Two workers racing on the same key
    /// compute identical variants, so the duplicated insert is harmless.
    fn variants_for(&self, tokens: &[String]) -> Vec<Vec<String>> {
        let key = tokens.join(" ");
        if let Some(variants) = self.cache.lock().unwrap().get(&key) {
            return variants.clone();
        }
        let mut gen_rng = StdRng::seed_from_u64(rotom_rng::split_seed(
            self.cache_seed,
            fnv1a64(key.as_bytes()),
        ));
        let variants = self.generate_unique(tokens, self.cfg.max_unique, &mut gen_rng);
        self.cache.lock().unwrap().insert(key, variants.clone());
        variants
    }

    /// Draw one augmentation from the per-input cache, populating it on first
    /// use (mirrors the paper's pre-compute-and-cache strategy: the training
    /// loop's per-epoch cost is then a cache lookup). The caller's RNG only
    /// selects among the cached variants; it never influences generation.
    pub fn augment(&self, tokens: &[String], rng: &mut StdRng) -> Vec<String> {
        let variants = self.variants_for(tokens);
        if variants.is_empty() {
            tokens.to_vec()
        } else {
            variants[rng.random_range(0..variants.len())].clone()
        }
    }

    /// Augment a whole batch, fanning the per-example generation out across
    /// `pool`. Each example's selection RNG is seeded by
    /// `split_seed(base_seed, index)`, and generation is keyed off the
    /// model's own cache seed, so the output is **bit-identical at any
    /// worker count** — including to a serial run with a 1-thread pool.
    pub fn augment_batch(
        &self,
        inputs: &[&[String]],
        base_seed: u64,
        pool: &rotom_nn::RotomPool,
    ) -> Vec<Vec<String>> {
        let out = pool.map(inputs.len(), |i| {
            let mut rng = StdRng::seed_from_u64(rotom_rng::split_seed(base_seed, i as u64));
            self.augment(inputs[i], &mut rng)
        });
        crate::ops::emit_aug_record("invda", inputs, &out);
        out
    }

    /// Number of inputs with cached variants.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }

    /// Drop all cached variants (used by benchmarks to re-measure the full
    /// generation fan-out; regular training never needs this).
    pub fn clear_cache(&self) {
        self.cache.lock().unwrap().clear();
    }
}

/// The sampling rank: probability descending, then id ascending (a total
/// order on softmax outputs, which are never NaN or `-0.0`).
fn rank_order(a: &(usize, f32), b: &(usize, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Top-k within top-p sampling (Holtzman et al.): restrict to the smallest
/// set of tokens covering probability mass `p`, intersect with the `k` most
/// likely, renormalize, sample. `banned` ids are excluded first.
///
/// Only the `k` most likely ids can be sampled, and the nucleus cut-off
/// only matters when it falls inside them, so the head is found by a
/// partial selection and only it is sorted: linear in the vocabulary where
/// a full sort is not.
fn sample_top_k_top_p(
    logits: &[f32],
    k: usize,
    p: f32,
    banned: &[usize],
    rng: &mut StdRng,
) -> usize {
    let probs = rotom_nn::softmax_slice(logits);
    let mut ranked: Vec<(usize, f32)> = probs
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| !banned.contains(i))
        .collect();
    let head = k.max(1);
    if head < ranked.len() {
        ranked.select_nth_unstable_by(head - 1, rank_order);
        ranked.truncate(head);
    }
    ranked.sort_unstable_by(rank_order);
    // Nucleus cut.
    let mut mass = 0.0f32;
    let mut cutoff = ranked.len();
    for (i, (_, pr)) in ranked.iter().enumerate() {
        mass += pr;
        if mass >= p {
            cutoff = i + 1;
            break;
        }
    }
    let pool = &ranked[..cutoff.min(k).max(1)];
    let total: f32 = pool.iter().map(|(_, pr)| pr).sum();
    let mut r = rng.random_range(0.0..total.max(f32::MIN_POSITIVE));
    for &(id, pr) in pool {
        if r < pr {
            return id;
        }
        r -= pr;
    }
    pool[pool.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::RngCore;
    use rotom_text::tokenizer::tokenize;

    fn tiny_corpus() -> Vec<Vec<String>> {
        vec![
            tokenize("where is the orange bowl"),
            tokenize("where is the super bowl held"),
            tokenize("what is the capital of france"),
            tokenize("who won the world cup"),
            tokenize("where is the eiffel tower"),
            tokenize("what time is the game tonight"),
        ]
    }

    #[test]
    fn training_reduces_loss() {
        let mut cfg = InvDaConfig::test_tiny();
        cfg.epochs = 6;
        let model = InvDa::train(&tiny_corpus(), cfg, 7);
        let first = model.training_losses[0];
        let last = *model.training_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn generation_yields_vocab_tokens() {
        let model = InvDa::train(&tiny_corpus(), InvDaConfig::test_tiny(), 8);
        let mut rng = StdRng::seed_from_u64(1);
        let out = model.generate(&tokenize("where is the orange bowl"), &mut rng);
        assert!(out.len() <= model.cfg.max_gen_len);
        for tok in &out {
            assert!(
                model.vocab.token(model.vocab.id(tok)) == tok,
                "token {tok} not in vocab"
            );
        }
    }

    #[test]
    fn unique_variants_are_distinct() {
        let model = InvDa::train(&tiny_corpus(), InvDaConfig::test_tiny(), 9);
        let mut rng = StdRng::seed_from_u64(2);
        let input = tokenize("where is the orange bowl");
        let variants = model.generate_unique(&input, 3, &mut rng);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v, &input);
            for w in &variants[i + 1..] {
                assert_ne!(v, w);
            }
        }
    }

    #[test]
    fn augment_caches() {
        let model = InvDa::train(&tiny_corpus(), InvDaConfig::test_tiny(), 10);
        let mut rng = StdRng::seed_from_u64(3);
        let input = tokenize("where is the orange bowl");
        assert_eq!(model.cache_len(), 0);
        let _ = model.augment(&input, &mut rng);
        assert_eq!(model.cache_len(), 1);
        let _ = model.augment(&input, &mut rng);
        assert_eq!(model.cache_len(), 1);
    }

    #[test]
    fn concurrent_augment_is_safe() {
        // The generation cache is shared behind a std Mutex; hitting
        // it from several threads must neither dead-lock nor duplicate cache
        // entries for the same key.
        let model = InvDa::train(&tiny_corpus(), InvDaConfig::test_tiny(), 11);
        let input = tokenize("where is the orange bowl");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let model = &model;
                let input = input.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..5 {
                        let out = model.augment(&input, &mut rng);
                        assert!(!out.is_empty() || input.is_empty());
                    }
                });
            }
        });
        assert_eq!(model.cache_len(), 1);
    }

    #[test]
    fn augment_batch_is_bit_identical_across_worker_counts() {
        // Explicit pools rather than ROTOM_THREADS, so the assertion holds
        // regardless of the environment this test runs under.
        let corpus = tiny_corpus();
        let model = InvDa::train(&corpus, InvDaConfig::test_tiny(), 13);
        let inputs: Vec<&[String]> = corpus.iter().map(|s| s.as_slice()).collect();
        let serial = model.augment_batch(&inputs, 99, &rotom_nn::RotomPool::new(1));
        assert_eq!(serial.len(), inputs.len());
        for threads in [2, 3, 8] {
            let parallel = model.augment_batch(&inputs, 99, &rotom_nn::RotomPool::new(threads));
            assert_eq!(serial, parallel, "threads={threads}");
        }
        // A cold cache must reproduce the same outputs: generation is keyed
        // off the model seed, not first-toucher RNG state.
        model.clear_cache();
        assert_eq!(model.cache_len(), 0);
        let regenerated = model.augment_batch(&inputs, 99, &rotom_nn::RotomPool::new(4));
        assert_eq!(serial, regenerated);
    }

    #[test]
    fn cache_contents_independent_of_first_caller() {
        // Two fresh models with the same training seed, first touched by
        // callers with different RNGs, must cache identical variant sets.
        let corpus = tiny_corpus();
        let a = InvDa::train(&corpus, InvDaConfig::test_tiny(), 14);
        let b = InvDa::train(&corpus, InvDaConfig::test_tiny(), 14);
        let input = tokenize("where is the orange bowl");
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(777);
        let _ = a.augment(&input, &mut rng_a);
        let _ = b.augment(&input, &mut rng_b);
        assert_eq!(a.variants_for(&input), b.variants_for(&input));
    }

    #[test]
    fn top_k_top_p_respects_ban_list() {
        let mut rng = StdRng::seed_from_u64(4);
        // Token 0 dominates but is banned.
        let logits = vec![10.0, 1.0, 0.5];
        for _ in 0..20 {
            let s = sample_top_k_top_p(&logits, 5, 0.98, &[0], &mut rng);
            assert_ne!(s, 0);
        }
    }

    /// The full-vocabulary sort this sampler replaced, kept as the
    /// reference: a stable sort by descending probability (ties keep id
    /// order), then the nucleus cut over the whole ranking.
    fn sample_full_sort(
        logits: &[f32],
        k: usize,
        p: f32,
        banned: &[usize],
        rng: &mut StdRng,
    ) -> usize {
        let probs = rotom_nn::softmax_slice(logits);
        let mut ranked: Vec<(usize, f32)> = probs
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| !banned.contains(i))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut mass = 0.0f32;
        let mut cutoff = ranked.len();
        for (i, (_, pr)) in ranked.iter().enumerate() {
            mass += pr;
            if mass >= p {
                cutoff = i + 1;
                break;
            }
        }
        let pool = &ranked[..cutoff.min(k).max(1)];
        let total: f32 = pool.iter().map(|(_, pr)| pr).sum();
        let mut r = rng.random_range(0.0..total.max(f32::MIN_POSITIVE));
        for &(id, pr) in pool {
            if r < pr {
                return id;
            }
            r -= pr;
        }
        pool[pool.len() - 1].0
    }

    #[test]
    fn partial_selection_samples_what_the_full_sort_sampled() {
        let v = 300;
        let mut gen = StdRng::seed_from_u64(0x1d5a);
        for case in 0..60u64 {
            // Logits on a coarse grid, so probabilities tie often; a few
            // cases are one plateau, where every id ties.
            let levels = if case % 10 == 0 {
                1
            } else {
                1 + case as usize % 7
            };
            let logits: Vec<f32> = (0..v)
                .map(|_| gen.random_range(0..levels) as f32 * 0.75)
                .collect();
            let banned: Vec<usize> = (0..case as usize % 4)
                .map(|_| gen.random_range(0..v))
                .collect();
            for k in [1, 5, 20, v] {
                for p in [0.5f32, 0.98, 1.0] {
                    let mut fast = StdRng::seed_from_u64(case);
                    let mut reference = StdRng::seed_from_u64(case);
                    for draw in 0..8 {
                        assert_eq!(
                            sample_top_k_top_p(&logits, k, p, &banned, &mut fast),
                            sample_full_sort(&logits, k, p, &banned, &mut reference),
                            "case {case} k {k} p {p} draw {draw}"
                        );
                    }
                    assert_eq!(fast.next_u64(), reference.next_u64(), "same draws consumed");
                }
            }
        }
    }
}
