//! InvDA — inverse data augmentation via a seq2seq model (paper §3).
//!
//! A Transformer encoder–decoder (the stand-in for the paper's fine-tuned
//! T5-base) is trained on (corrupted → original) pairs produced by
//! [Algorithm 1](crate::corrupt::corruption_pairs): the model learns to
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
    recycle_tape, take_pooled_tape, Adam, FwdCtx, ParamStore, TransformerConfig,
    TransformerDecoder, TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::token::{BOS, EOS, PAD, UNK};
use rotom_text::vocab::Vocab;
use std::collections::HashMap;
use std::sync::Mutex;

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
    /// Dropout during training.
    pub dropout: f32,
    /// Operators used for corruption (Algorithm 1's `D`).
    pub corrupt_ops: Vec<DaOp>,
    /// Number of corruption operators applied per pair (Algorithm 1's `n`).
    pub num_corruptions: usize,
    /// Corruption pairs generated per corpus sequence per epoch.
    pub pairs_per_seq: usize,
    /// Training epochs over the corruption pairs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Top-k cutoff for sampling (paper: 120).
    pub top_k: usize,
    /// Nucleus (top-p) mass for sampling (paper: 0.98).
    pub top_p: f32,
    /// Maximum distinct cached variants per input (paper: 50).
    pub max_unique: usize,
    /// Maximum generated length.
    pub max_gen_len: usize,
    /// Vocabulary budget.
    pub vocab_size: usize,
}

impl Default for InvDaConfig {
    fn default() -> Self {
        Self {
            d_model: 48,
            heads: 4,
            d_ff: 96,
            layers: 2,
            max_len: 64,
            dropout: 0.1,
            corrupt_ops: DaOp::TEXT_LEVEL.to_vec(),
            num_corruptions: 3,
            pairs_per_seq: 2,
            epochs: 5,
            batch_size: 16,
            lr: 1e-3,
            top_k: 20,
            top_p: 0.98,
            max_unique: 8,
            max_gen_len: 48,
            vocab_size: 4096,
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

/// FNV-1a over the key string: a stable hash (unlike `std`'s `RandomState`,
/// which is randomized per process) so cached variants are reproducible
/// across runs.
fn stable_key_hash(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in key.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl InvDa {
    /// Train InvDA on an (unlabeled) corpus of serialized token sequences
    /// following Algorithm 1.
    pub fn train(corpus: &[Vec<String>], cfg: InvDaConfig, seed: u64) -> Self {
        assert!(!corpus.is_empty(), "InvDA needs a non-empty corpus");
        let mut rng = StdRng::seed_from_u64(seed);
        let refs: Vec<&[String]> = corpus.iter().map(|s| s.as_slice()).collect();
        let vocab = Vocab::build(refs.iter().copied(), cfg.vocab_size);
        let tcfg = TransformerConfig {
            vocab: vocab.len(),
            d_model: cfg.d_model,
            heads: cfg.heads,
            d_ff: cfg.d_ff,
            layers: cfg.layers,
            max_len: cfg.max_len,
            dropout: cfg.dropout,
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
        let ctx = DaContext::default();
        let mut opt = Adam::new(self.cfg.lr);
        for _epoch in 0..self.cfg.epochs {
            let mut pairs = corruption_pairs(
                corpus,
                &self.cfg.corrupt_ops,
                self.cfg.num_corruptions,
                self.cfg.pairs_per_seq,
                &ctx,
                rng,
            );
            // Shuffle for SGD.
            for i in (1..pairs.len()).rev() {
                let j = rng.random_range(0..=i);
                pairs.swap(i, j);
            }
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in pairs.chunks(self.cfg.batch_size) {
                let loss = self.train_batch(chunk, rng, &mut opt);
                epoch_loss += loss;
                batches += 1;
            }
            self.training_losses
                .push(epoch_loss / batches.max(1) as f32);
        }
    }

    fn train_batch(
        &mut self,
        pairs: &[(Vec<String>, Vec<String>)],
        rng: &mut StdRng,
        opt: &mut Adam,
    ) -> f32 {
        let bos = self.vocab.special_id(BOS);
        let eos = self.vocab.special_id(EOS);
        let mut tape = take_pooled_tape();
        let mut losses = Vec::with_capacity(pairs.len());
        for (input, target) in pairs {
            let in_ids = self.clamp(self.vocab.encode(input));
            // Reserve one slot for BOS/EOS on the decoder side.
            let mut tgt_ids = self.vocab.encode(target);
            tgt_ids.truncate(self.cfg.max_len - 1);
            let mut dec_in = Vec::with_capacity(tgt_ids.len() + 1);
            dec_in.push(bos);
            dec_in.extend_from_slice(&tgt_ids);
            let mut dec_tgt = tgt_ids.clone();
            dec_tgt.push(eos);

            let mut ctx = FwdCtx::train(&self.store, self.cfg.dropout, rng);
            let memory = self.encoder.forward(&mut tape, &in_ids, &mut ctx);
            let logits = self.decoder.forward(&mut tape, &dec_in, memory, &mut ctx);
            let targets = one_hot_rows(&dec_tgt, self.vocab.len());
            losses.push(tape.cross_entropy(logits, &targets));
        }
        let loss = tape.mean_nodes(&losses);
        let value = tape.value(loss).item();
        self.store.zero_grad();
        tape.backward(loss, &mut self.store);
        recycle_tape(tape);
        self.store.clip_grad_norm(5.0);
        opt.step(&mut self.store);
        value
    }

    fn clamp(&self, mut ids: Vec<usize>) -> Vec<usize> {
        ids.truncate(self.cfg.max_len);
        if ids.is_empty() {
            ids.push(self.vocab.special_id(PAD));
        }
        ids
    }

    /// Vocabulary the model was trained with.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Generate one augmented variant of `tokens` by sampling from the
    /// decoder (no caching).
    ///
    /// Decoding runs on the tape-free inference plane: the encoder memory
    /// and the per-layer cross-attention K/V projections are computed once
    /// per call, and each step recomputes only the final decoder layer's
    /// last-row band plus a single-row vocabulary projection — bit-identical
    /// to decoding through full tape forwards.
    pub fn generate(&self, tokens: &[String], rng: &mut StdRng) -> Vec<String> {
        let in_ids = self.clamp(self.vocab.encode(tokens));
        let bos = self.vocab.special_id(BOS);
        let eos = self.vocab.special_id(EOS);
        let pad = self.vocab.special_id(PAD);
        let unk = self.vocab.special_id(UNK);

        let pool = rotom_nn::RotomPool::global();
        let out_ids = rotom_nn::with_infer_scratch(|scratch| {
            let (memory, mem_rows) =
                self.encoder
                    .infer_forward_with(&in_ids, &[], &self.store, pool, scratch);
            let kv = self
                .decoder
                .infer_prepare(&memory, mem_rows, &self.store, pool);
            let mut logits = vec![0.0f32; self.vocab.len()];
            let mut out_ids: Vec<usize> = vec![bos];
            for _ in 0..self.cfg.max_gen_len {
                self.decoder.infer_last_logits(
                    &out_ids,
                    &kv,
                    &self.store,
                    pool,
                    scratch,
                    &mut logits,
                );
                let next =
                    sample_top_k_top_p(&logits, self.cfg.top_k, self.cfg.top_p, &[bos, pad], rng);
                if next == eos {
                    break;
                }
                out_ids.push(next);
                if out_ids.len() >= self.cfg.max_len {
                    break;
                }
            }
            scratch.put(memory);
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
            stable_key_hash(&key),
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

/// One-hot encode a row of target ids into a flat `len x vocab` matrix.
fn one_hot_rows(ids: &[usize], vocab: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; ids.len() * vocab];
    for (r, &id) in ids.iter().enumerate() {
        out[r * vocab + id] = 1.0;
    }
    out
}

/// Top-k within top-p sampling (Holtzman et al.): restrict to the smallest
/// set of tokens covering probability mass `p`, intersect with the `k` most
/// likely, renormalize, sample. `banned` ids are excluded first.
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
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
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
}
