//! TinyLm — the target sequence classifier.
//!
//! The stand-in for RoBERTa / DistilBERT / BERT (paper §2.2): a Transformer
//! encoder whose `[CLS]` representation feeds a task-specific linear +
//! softmax head, optionally *pre-trained* with masked-token prediction on an
//! unlabeled task corpus before fine-tuning. The architecture is exactly
//! Figure 2, scaled to CPU.
//!
//! TinyLm implements [`MetaTarget`], so the same instance can be fine-tuned
//! plainly (Baseline / MixDA / InvDA methods) or driven by Rotom's
//! meta-trainer.

use crate::config::ModelConfig;
use rotom_augment::mixda::sample_lambda;
use rotom_meta::{MetaTarget, WeightedItem};
use rotom_nn::{
    kernels, recycle_tape, take_pooled_tape, with_infer_scratch, with_pooled_tape, Adam, Embedding,
    FwdCtx, Linear, NodeId, ParamStore, QuantMode, RotomPool, ScoreCache, Tape, TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::token::{CLS, MASK};
use rotom_text::vocab::Vocab;

/// The target model: Transformer encoder + classification head (+ MLM head
/// used only during pre-training).
pub struct TinyLm {
    store: ParamStore,
    encoder: TransformerEncoder,
    head: Linear,
    mlm_head: Linear,
    nsp_head: Linear,
    /// BERT-style segment embedding (0 before the [SEP], 1 after).
    seg_emb: Embedding,
    /// Duplicate-token flag embedding (1 when the source token appears on
    /// both sides of the [SEP]). See the module docs for why this input
    /// feature stands in for the pre-trained LM's cross-segment matching.
    dup_emb: Embedding,
    vocab: Vocab,
    cfg: ModelConfig,
    num_classes: usize,
    opt: Adam,
    lr: f32,
    rng: StdRng,
    /// Losses recorded during MLM pre-training (diagnostics).
    pub pretrain_losses: Vec<f32>,
    /// Optional memoization of tape-free logits (`ROTOM_SCORE_CACHE=<cap>`,
    /// or [`set_score_cache`](Self::set_score_cache)). Invalidated whenever
    /// any parameter changes, so hits are always bit-identical to recompute.
    score_cache: Option<ScoreCache>,
}

impl TinyLm {
    /// Build a model over `vocab` for a `num_classes`-way task.
    pub fn new(vocab: Vocab, num_classes: usize, cfg: &ModelConfig, lr: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let enc_cfg = cfg.encoder(vocab.len());
        let encoder = TransformerEncoder::new(&mut store, &mut rng, "lm.enc", enc_cfg);
        let head = Linear::new(&mut store, &mut rng, "lm.head", cfg.d_model, num_classes);
        let mlm_head = Linear::new(&mut store, &mut rng, "lm.mlm", cfg.d_model, vocab.len());
        let nsp_head = Linear::new(&mut store, &mut rng, "lm.nsp", cfg.d_model, 2);
        let seg_emb = Embedding::new(&mut store, &mut rng, "lm.seg", 2, cfg.d_model);
        let dup_emb = Embedding::new(&mut store, &mut rng, "lm.dup", 2, cfg.d_model);
        Self {
            store,
            encoder,
            head,
            mlm_head,
            nsp_head,
            seg_emb,
            dup_emb,
            vocab,
            cfg: cfg.clone(),
            num_classes,
            opt: Adam::new(lr),
            lr,
            rng,
            pretrain_losses: Vec::new(),
            score_cache: ScoreCache::from_env(),
        }
    }

    /// Build the vocabulary for a task corpus and construct the model.
    pub fn from_corpus(
        corpus: &[Vec<String>],
        num_classes: usize,
        cfg: &ModelConfig,
        lr: f32,
        seed: u64,
    ) -> Self {
        let refs: Vec<&[String]> = corpus.iter().map(|s| s.as_slice()).collect();
        let vocab = Vocab::build(refs, cfg.vocab_size);
        Self::new(vocab, num_classes, cfg, lr, seed)
    }

    /// The model's vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Encode tokens as `[CLS] + ids` (char-fallback), truncated to
    /// `max_len`, together with segment ids and duplicate-token flags.
    fn encode_input(&self, tokens: &[String]) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        use rotom_text::token::{is_structural, SEP};
        let (body_ids, src) = self.vocab.encode_fallback_map(tokens);
        // Per-source-token segment and duplicate flags.
        let sep_pos = tokens.iter().position(|t| t == SEP);
        let mut dup_flags = vec![0usize; tokens.len()];
        if let Some(sep) = sep_pos {
            use std::collections::HashSet;
            let left: HashSet<&str> = tokens[..sep]
                .iter()
                .filter(|t| !is_structural(t))
                .map(|t| t.as_str())
                .collect();
            let right: HashSet<&str> = tokens[sep + 1..]
                .iter()
                .filter(|t| !is_structural(t))
                .map(|t| t.as_str())
                .collect();
            for (i, t) in tokens.iter().enumerate() {
                if is_structural(t) {
                    continue;
                }
                let shared = left.contains(t.as_str()) && right.contains(t.as_str());
                dup_flags[i] = shared as usize;
            }
        }
        let mut ids = Vec::with_capacity(body_ids.len() + 1);
        let mut segs = Vec::with_capacity(body_ids.len() + 1);
        let mut dups = Vec::with_capacity(body_ids.len() + 1);
        ids.push(self.vocab.special_id(CLS));
        segs.push(0);
        dups.push(0);
        for (id, &s) in body_ids.into_iter().zip(&src) {
            ids.push(id);
            segs.push(match sep_pos {
                Some(sep) if s > sep => 1,
                _ => 0,
            });
            dups.push(dup_flags[s]);
        }
        ids.truncate(self.cfg.max_len);
        segs.truncate(self.cfg.max_len);
        dups.truncate(self.cfg.max_len);
        (ids, segs, dups)
    }

    fn cls_node(&self, tape: &mut Tape, tokens: &[String], ctx: &mut FwdCtx<'_>) -> NodeId {
        let (ids, segs, dups) = self.encode_input(tokens);
        let extras: [(&Embedding, &[usize]); 2] = [(&self.seg_emb, &segs), (&self.dup_emb, &dups)];
        self.encoder.encode_cls_with(tape, &ids, &extras, ctx)
    }

    /// Masked-LM pre-training over an unlabeled corpus (the "pre-trained LM"
    /// of §2.2): mask `mlm_rate` of the tokens (80% → `[MASK]`, 10% → random,
    /// 10% → unchanged, BERT-style) and predict the originals.
    pub fn pretrain_mlm(&mut self, corpus: &[Vec<String>], batch_size: usize) {
        if self.cfg.pretrain_epochs == 0 || corpus.is_empty() {
            return;
        }
        let mut opt = Adam::new(self.cfg.pretrain_lr);
        let mask_id = self.vocab.special_id(MASK);
        let vocab_len = self.vocab.len();
        for _ in 0..self.cfg.pretrain_epochs {
            let mut order: Vec<usize> = (0..corpus.len()).collect();
            for i in (1..order.len()).rev() {
                let j = self.rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch_size) {
                let mut tape = take_pooled_tape();
                let mut losses = Vec::new();
                for &ci in chunk {
                    let (ids, _segs, _dups) = self.encode_input(&corpus[ci]);
                    let mut masked = ids.clone();
                    let mut positions = Vec::new();
                    let mut targets = Vec::new();
                    for (pos, &orig) in ids.iter().enumerate().skip(1) {
                        if !self.rng.random_bool(self.cfg.mlm_rate as f64) {
                            continue;
                        }
                        positions.push(pos);
                        targets.push(orig);
                        let roll: f64 = self.rng.random_range(0.0..1.0);
                        masked[pos] = if roll < 0.8 {
                            mask_id
                        } else if roll < 0.9 {
                            self.rng.random_range(0..vocab_len)
                        } else {
                            orig
                        };
                    }
                    if positions.is_empty() {
                        continue;
                    }
                    let mut ctx = FwdCtx::eval(&self.store);
                    let h = self.encoder.forward(&mut tape, &masked, &mut ctx);
                    let rows: Vec<NodeId> = positions
                        .iter()
                        .map(|&p| tape.slice_rows(h, p, 1))
                        .collect();
                    let gathered = tape.concat_rows(&rows);
                    let logits = self.mlm_head.forward(&mut tape, gathered, &self.store);
                    let mut one_hot = vec![0.0f32; targets.len() * vocab_len];
                    for (r, &t) in targets.iter().enumerate() {
                        one_hot[r * vocab_len + t] = 1.0;
                    }
                    losses.push(tape.cross_entropy(logits, &one_hot));
                }
                if losses.is_empty() {
                    recycle_tape(tape);
                    continue;
                }
                let loss = tape.mean_nodes(&losses);
                epoch_loss += tape.value(loss).item();
                batches += 1;
                self.store.zero_grad();
                tape.backward(loss, &mut self.store);
                recycle_tape(tape);
                self.store.clip_grad_norm(5.0);
                opt.step(&mut self.store);
            }
            self.pretrain_losses
                .push(epoch_loss / batches.max(1) as f32);
        }
    }

    /// Self-supervised *matched-view* pre-training for pair tasks (the
    /// stand-in for the cross-sequence comparison ability a pre-trained
    /// BERT/RoBERTa brings to entity matching; cf. BERT's next-sentence
    /// prediction). From unlabeled record serializations, positives are
    /// `R [SEP] corrupt(R)` (a corrupted view of the same record) and
    /// negatives are `R [SEP] R'` for a random other record; a dedicated
    /// binary head is trained on the `[CLS]` representation. No task labels
    /// are consumed.
    pub fn pretrain_pairs(&mut self, records: &[Vec<String>], epochs: usize, batch_size: usize) {
        if epochs == 0 || records.len() < 2 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x9a17 ^ records.len() as u64);
        let mut opt = Adam::new(self.cfg.pretrain_lr);
        let da_ctx = rotom_augment::DaContext::default();
        let ops = [
            rotom_augment::DaOp::TokenDel,
            rotom_augment::DaOp::TokenSwap,
            rotom_augment::DaOp::SpanDel,
            rotom_augment::DaOp::ColDel,
            rotom_augment::DaOp::ColShuffle,
        ];
        for _ in 0..epochs {
            let mut order: Vec<usize> = (0..records.len()).collect();
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(batch_size) {
                let mut tape = take_pooled_tape();
                let mut losses = Vec::with_capacity(chunk.len());
                for &ri in chunk {
                    let left = &records[ri];
                    let positive = rng.random_bool(0.5);
                    let right = if positive {
                        rotom_augment::corrupt(left, &ops, 3, &da_ctx, &mut rng)
                    } else if rng.random_bool(0.7) {
                        // Hard negative: a *sibling* view — the same record
                        // with 25–50% of its content tokens swapped for
                        // random vocabulary tokens. Distinguishing this from
                        // the corrupted positive is only possible by
                        // comparing tokens across the [SEP], which is the
                        // capability EM fine-tuning needs.
                        let mut sib = rotom_augment::corrupt(left, &ops, 1, &da_ctx, &mut rng);
                        let content: Vec<usize> = sib
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| !rotom_text::token::is_special(t))
                            .map(|(i, _)| i)
                            .collect();
                        // Swap 1–3 content tokens for *plausible* tokens
                        // drawn from other records (same unigram
                        // distribution), mimicking sibling entities rather
                        // than random noise.
                        let n_swap = rng.random_range(1..=3usize).min(content.len().max(1));
                        for _ in 0..n_swap {
                            if content.is_empty() || records.len() < 2 {
                                break;
                            }
                            let pos = content[rng.random_range(0..content.len())];
                            let donor = &records[rng.random_range(0..records.len())];
                            let donor_content: Vec<&String> = donor
                                .iter()
                                .filter(|t| !rotom_text::token::is_special(t))
                                .collect();
                            if let Some(tok) =
                                donor_content.get(rng.random_range(0..donor_content.len().max(1)))
                            {
                                sib[pos] = (*tok).clone();
                            }
                        }
                        sib
                    } else {
                        let mut other = rng.random_range(0..records.len());
                        if other == ri {
                            other = (other + 1) % records.len();
                        }
                        records[other].clone()
                    };
                    let mut pair = left.clone();
                    pair.push(rotom_text::token::SEP.to_string());
                    pair.extend(right);
                    let cls = {
                        let mut ctx = FwdCtx::eval(&self.store);
                        self.cls_node(&mut tape, &pair, &mut ctx)
                    };
                    let logits = self.nsp_head.forward(&mut tape, cls, &self.store);
                    let target = if positive { [0.0, 1.0] } else { [1.0, 0.0] };
                    losses.push(tape.cross_entropy(logits, &target));
                }
                let loss = tape.mean_nodes(&losses);
                self.pretrain_losses.push(tape.value(loss).item());
                self.store.zero_grad();
                tape.backward(loss, &mut self.store);
                recycle_tape(tape);
                self.store.clip_grad_norm(5.0);
                opt.step(&mut self.store);
            }
        }
    }

    /// Initialize the task classification head from the matched-view
    /// pre-training head (binary tasks only). For entity matching the two
    /// heads share semantics — class 1 = "same entity" — so this transfers
    /// the pre-trained comparison circuit into the fine-tuning starting
    /// point, playing the role of RoBERTa's task-adjacent initialization.
    pub fn init_head_from_nsp(&mut self) {
        if self.num_classes != 2 {
            return;
        }
        let (nw, nb) = self.nsp_head.params();
        let (hw, hb) = self.head.params();
        let w = self.store.value(nw).clone();
        *self.store.value_mut(hw) = w;
        if let (Some(nb), Some(hb)) = (nb, hb) {
            let b = self.store.value(nb).clone();
            *self.store.value_mut(hb) = b;
        }
    }

    /// Predicted class for a sequence.
    pub fn predict(&self, tokens: &[String]) -> usize {
        rotom_nn::argmax(&self.predict_proba(tokens))
    }

    /// Enable (capacity > 0) or disable the score cache, replacing any
    /// environment-derived setting. Mainly for benchmarks and tests, which
    /// should not mutate process-wide environment variables.
    pub fn set_score_cache(&mut self, capacity: usize) {
        self.score_cache = (capacity > 0).then(|| ScoreCache::with_capacity(capacity));
    }

    /// The score cache, if enabled (telemetry / diagnostics).
    pub fn score_cache(&self) -> Option<&ScoreCache> {
        self.score_cache.as_ref()
    }

    /// Number of classes in the classification head's output.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Select the inference GEMM tier (f32 or quantized i8). Training is
    /// unaffected — the tape never consults the mode — and the f32 weights
    /// stay authoritative: quantized panels are derived lazily and
    /// invalidated by the same generation slots as the packed f32 panels.
    pub fn set_quant_mode(&mut self, mode: QuantMode) {
        self.store.set_quant_mode(mode);
    }

    /// The active inference GEMM tier.
    pub fn quant_mode(&self) -> QuantMode {
        self.store.quant_mode()
    }

    /// The parameter store's monotone generation fingerprint: the sum of
    /// every tensor's write-generation. Any parameter mutation — an
    /// optimizer step or a checkpoint load — strictly increases it, which
    /// is what lets score caches and serving planes attribute results to
    /// one exact parameter state.
    pub fn generation_sum(&self) -> u64 {
        self.store.generation_sum()
    }

    /// Score-cache fingerprint: the generation sum with the quant tier
    /// folded into the (practically unreachable) top bit, so switching
    /// between f32 and i8 inference invalidates cached scores exactly like
    /// a parameter write would.
    fn cache_fingerprint(&self) -> u64 {
        let quant_bit = (self.store.quant_mode() == QuantMode::I8) as u64;
        self.store.generation_sum() ^ (quant_bit << 63)
    }

    /// Tape-free class logits for a sequence — the inference plane's entry
    /// point. No graph nodes or gradient buffers are built; activations live
    /// in recycled per-thread workspaces and the forward GEMMs reuse the
    /// store's packed-panel weight cache read-only. Bit-identical to the
    /// tape forward in eval mode.
    fn infer_logits(&self, tokens: &[String]) -> Vec<f32> {
        let (ids, segs, dups) = self.encode_input(tokens);
        // Cache key: the full encoded input. `ids` alone is not sufficient
        // (segment/duplicate features are separate model inputs), so all
        // three streams are joined with an out-of-vocabulary separator.
        let key: Option<Vec<usize>> = self.score_cache.as_ref().map(|_| {
            let mut k = Vec::with_capacity(3 * ids.len() + 2);
            k.extend_from_slice(&ids);
            k.push(usize::MAX);
            k.extend_from_slice(&segs);
            k.push(usize::MAX);
            k.extend_from_slice(&dups);
            k
        });
        if let (Some(cache), Some(key)) = (&self.score_cache, &key) {
            if let Some(hit) = cache.lookup(self.cache_fingerprint(), key) {
                return hit;
            }
        }
        let pool = RotomPool::global();
        let logits = with_infer_scratch(|scratch| {
            let mut cls = scratch.take(self.cfg.d_model);
            let extras: [(&Embedding, &[usize]); 2] =
                [(&self.seg_emb, &segs), (&self.dup_emb, &dups)];
            self.encoder
                .infer_encode_cls_with(&ids, &extras, &self.store, pool, scratch, &mut cls);
            let mut logits = vec![0.0f32; self.num_classes];
            self.head.infer_forward(
                &cls,
                1,
                1,
                kernels::Act::None,
                &self.store,
                pool,
                &mut logits,
            );
            scratch.put(cls);
            logits
        });
        if let (Some(cache), Some(key)) = (&self.score_cache, &key) {
            cache.insert(self.cache_fingerprint(), key, &logits);
        }
        logits
    }

    /// Tape-free class probabilities for a whole batch, fanned out over
    /// `pool` (input order preserved). Equivalent to mapping
    /// [`predict_proba`](MetaTarget::predict_proba) but named to make the
    /// execution plane explicit at call sites.
    pub fn score_batch(&self, batch: &[Vec<String>], pool: &RotomPool) -> Vec<Vec<f32>> {
        pool.map(batch.len(), |i| {
            rotom_nn::softmax_slice(&self.infer_logits(&batch[i]))
        })
    }

    /// Class probabilities via the original tape-building forward. Kept for
    /// the inference-plane equivalence tests and benchmarks; regular callers
    /// should use [`predict_proba`](MetaTarget::predict_proba).
    pub fn predict_proba_tape(&self, tokens: &[String]) -> Vec<f32> {
        with_pooled_tape(|tape| {
            let mut ctx = FwdCtx::eval(&self.store);
            let cls = self.cls_node(tape, tokens, &mut ctx);
            let logits = self.head.forward(tape, cls, &self.store);
            rotom_nn::softmax_slice(tape.value(logits).row_slice(0))
        })
    }

    /// Per-example cross-entropy losses via the tape forward (equivalence
    /// baseline for [`MetaTarget::per_example_losses`]).
    pub fn per_example_losses_tape(&self, items: &[WeightedItem]) -> Vec<f32> {
        RotomPool::global().map(items.len(), |i| {
            let item = &items[i];
            with_pooled_tape(|tape| {
                let mut ctx = FwdCtx::eval(&self.store);
                let cls = self.cls_node(tape, &item.tokens, &mut ctx);
                let logits = self.head.forward(tape, cls, &self.store);
                let ce = tape.cross_entropy(logits, &item.target);
                tape.value(ce).item()
            })
        })
    }

    /// MixDA training step: interpolate the `[CLS]` representations of the
    /// original and augmented sequences with `λ ~ Beta(α, α)` folded to
    /// `[0.5, 1]`, classify the mix, and backpropagate. Returns the loss.
    pub fn mixda_loss_backward(
        &mut self,
        pairs: &[(Vec<String>, Vec<String>, usize)],
        alpha: f32,
        rng: &mut StdRng,
    ) -> f32 {
        let mut tape = take_pooled_tape();
        let mut losses = Vec::with_capacity(pairs.len());
        let dropout = self.cfg.dropout;
        for (orig, aug, label) in pairs {
            let lambda = sample_lambda(alpha, rng);
            let (h_orig, h_aug) = {
                let mut ctx = FwdCtx::train(&self.store, dropout, rng);
                let a = self.cls_node(&mut tape, orig, &mut ctx);
                let b = self.cls_node(&mut tape, aug, &mut ctx);
                (a, b)
            };
            let scaled_orig = tape.scale(h_orig, lambda);
            let scaled_aug = tape.scale(h_aug, 1.0 - lambda);
            let mixed = tape.add(scaled_orig, scaled_aug);
            let logits = self.head.forward(&mut tape, mixed, &self.store);
            let mut target = vec![0.0f32; self.num_classes];
            target[*label] = 1.0;
            losses.push(tape.cross_entropy(logits, &target));
        }
        let loss = tape.mean_nodes(&losses);
        let value = tape.value(loss).item();
        self.store.zero_grad();
        tape.backward(loss, &mut self.store);
        recycle_tape(tape);
        self.store.clip_grad_norm(5.0);
        value
    }

    /// Apply one optimizer step (after an explicit `*_loss_backward`).
    pub fn step(&mut self) {
        self.opt.step(&mut self.store);
    }

    /// Save all parameters to a checkpoint file (see
    /// [`rotom_nn::checkpoint`] for the format). The vocabulary and
    /// configuration are not stored; reconstruct the model with the same
    /// corpus/config/seed before [`load_checkpoint`](Self::load_checkpoint).
    pub fn save_checkpoint(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), rotom_nn::checkpoint::CheckpointError> {
        rotom_nn::checkpoint::save(&self.store, path)
    }

    /// Load parameters from a checkpoint written by
    /// [`save_checkpoint`](Self::save_checkpoint) into an identically
    /// constructed model.
    pub fn load_checkpoint(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), rotom_nn::checkpoint::CheckpointError> {
        rotom_nn::checkpoint::load(&mut self.store, path)
    }

    /// Save the model's full *training* state — parameters, optimizer
    /// moments, learning rate, and internal RNG stream — into a checkpoint
    /// bag under `prefix`. Together with
    /// [`load_train_state`](Self::load_train_state) on an identically
    /// constructed model, this makes fine-tuning resumable bit-identically.
    pub fn save_train_state(&self, bag: &mut rotom_nn::StateBag, prefix: &str) {
        bag.put_f32s(format!("{prefix}.params"), self.store.flat_values());
        self.opt.save_state(bag, &format!("{prefix}.adam"));
        bag.put_f32(format!("{prefix}.lr"), self.lr);
        bag.put_u64s(format!("{prefix}.rng"), self.rng.state().to_vec());
    }

    /// Restore state saved by [`save_train_state`](Self::save_train_state).
    pub fn load_train_state(
        &mut self,
        bag: &rotom_nn::StateBag,
        prefix: &str,
    ) -> Result<(), rotom_nn::CheckpointError> {
        let params = bag.get_f32s(&format!("{prefix}.params"))?;
        if params.len() != self.store.num_scalars() {
            return Err(rotom_nn::CheckpointError::Mismatch(format!(
                "model {prefix:?}: {} parameters vs checkpoint {}",
                self.store.num_scalars(),
                params.len()
            )));
        }
        self.store.set_flat(params);
        self.opt
            .load_state(bag, &format!("{prefix}.adam"), &self.store)?;
        self.lr = bag.get_f32(&format!("{prefix}.lr"))?;
        self.opt.set_lr(self.lr);
        let rng = bag.get_u64s(&format!("{prefix}.rng"))?;
        if rng.len() != 4 {
            return Err(rotom_nn::CheckpointError::Mismatch(format!(
                "{prefix}.rng: expected 4 state words, found {}",
                rng.len()
            )));
        }
        self.rng = StdRng::from_state([rng[0], rng[1], rng[2], rng[3]]);
        Ok(())
    }

    /// Scale the learning rate by `factor` (health-guard rollback decay),
    /// keeping the optimizer in sync.
    pub fn scale_lr(&mut self, factor: f32) {
        self.lr *= factor;
        self.opt.set_lr(self.lr);
    }

    /// Snapshot all trainable parameters (checkpoint selection).
    pub fn snapshot(&self) -> Vec<f32> {
        self.store.flat_values()
    }

    /// [`snapshot`](Self::snapshot) into a reusable buffer — the epoch loops
    /// overwrite one best-checkpoint buffer in place instead of allocating
    /// `O(|params|)` on every improvement.
    pub fn snapshot_into(&self, out: &mut Vec<f32>) {
        self.store.flat_values_into(out);
    }

    /// Restore a parameter snapshot.
    pub fn restore(&mut self, snap: &[f32]) {
        self.store.set_flat(snap);
    }
}

impl MetaTarget for TinyLm {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn predict_proba(&self, tokens: &[String]) -> Vec<f32> {
        rotom_nn::softmax_slice(&self.infer_logits(tokens))
    }

    fn weighted_loss_backward(
        &mut self,
        items: &[WeightedItem],
        train: bool,
        rng: &mut StdRng,
    ) -> f32 {
        assert!(!items.is_empty());
        let mut tape = take_pooled_tape();
        let mut losses = Vec::with_capacity(items.len());
        let dropout = if train { self.cfg.dropout } else { 0.0 };
        for item in items {
            let cls = {
                let mut ctx = if train {
                    FwdCtx::train(&self.store, dropout, rng)
                } else {
                    FwdCtx::eval(&self.store)
                };
                self.cls_node(&mut tape, &item.tokens, &mut ctx)
            };
            let logits = self.head.forward(&mut tape, cls, &self.store);
            let ce = tape.cross_entropy(logits, &item.target);
            losses.push(tape.scale(ce, item.weight));
        }
        let loss = tape.mean_nodes(&losses);
        let value = tape.value(loss).item();
        self.store.zero_grad();
        tape.backward(loss, &mut self.store);
        recycle_tape(tape);
        self.store.clip_grad_norm(5.0);
        value
    }

    fn per_example_losses(&self, items: &[WeightedItem]) -> Vec<f32> {
        // Forward-only and per-example independent: fan out across the pool
        // on the tape-free inference plane, then apply the tape's exact
        // cross-entropy arithmetic (shared softmax statistics, f64 target
        // accumulation) to the logits.
        RotomPool::global().map(items.len(), |i| {
            let item = &items[i];
            let logits = self.infer_logits(&item.tokens);
            let (max, sum) = with_infer_scratch(|scratch| {
                let mut probs = scratch.take(logits.len());
                let stats = kernels::softmax_row_fwd(&logits, None, &mut probs);
                scratch.put(probs);
                stats
            });
            let lse = sum.ln() + max;
            let mut loss = 0.0f64;
            for (j, &t) in item.target.iter().enumerate() {
                if t != 0.0 {
                    loss -= (t * (logits[j] - lse)) as f64;
                }
            }
            loss as f32
        })
    }

    fn flat_params(&self) -> Vec<f32> {
        self.store.flat_values()
    }

    fn set_flat_params(&mut self, flat: &[f32]) {
        self.store.set_flat(flat);
    }

    fn add_scaled(&mut self, delta: &[f32], alpha: f32) {
        self.store.add_scaled_flat(delta, alpha);
    }

    fn flat_grads(&self) -> Vec<f32> {
        self.store.flat_grads()
    }

    fn optimizer_step(&mut self) {
        self.opt.step(&mut self.store);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn grad_l2(&self) -> f32 {
        self.store.grad_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_text::tokenize;

    fn corpus() -> Vec<Vec<String>> {
        vec![
            tokenize("the quick brown fox jumps"),
            tokenize("a lazy dog sleeps all day"),
            tokenize("the brown dog jumps high"),
            tokenize("a quick fox runs away fast"),
        ]
    }

    fn model() -> TinyLm {
        TinyLm::from_corpus(&corpus(), 2, &ModelConfig::test_tiny(), 1e-3, 0)
    }

    #[test]
    fn predict_proba_is_distribution() {
        let m = model();
        let p = m.predict_proba(&tokenize("the quick fox"));
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn mlm_pretraining_reduces_loss() {
        let mut m = model();
        let mut big_corpus = Vec::new();
        for _ in 0..6 {
            big_corpus.extend(corpus());
        }
        let mut cfg = ModelConfig::test_tiny();
        cfg.pretrain_epochs = 5;
        m.cfg = cfg;
        m.pretrain_mlm(&big_corpus, 8);
        let first = m.pretrain_losses[0];
        let last = *m.pretrain_losses.last().unwrap();
        assert!(last < first, "MLM loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn fine_tuning_fits_toy_labels() {
        let mut m = model();
        let items: Vec<WeightedItem> = vec![
            WeightedItem::hard(tokenize("the quick brown fox jumps"), 0, 2),
            WeightedItem::hard(tokenize("a lazy dog sleeps all day"), 1, 2),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let first = m.weighted_loss_backward(&items, true, &mut rng);
        for _ in 0..40 {
            m.weighted_loss_backward(&items, true, &mut rng);
            m.optimizer_step();
        }
        let last = m.weighted_loss_backward(&items, false, &mut rng);
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert_eq!(m.predict(&tokenize("the quick brown fox jumps")), 0);
        assert_eq!(m.predict(&tokenize("a lazy dog sleeps all day")), 1);
    }

    #[test]
    fn mixda_step_runs_and_learns() {
        let mut m = model();
        let pairs = vec![
            (
                tokenize("the quick brown fox jumps"),
                tokenize("the quick fox jumps"),
                0,
            ),
            (
                tokenize("a lazy dog sleeps all day"),
                tokenize("a lazy dog sleeps"),
                1,
            ),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let first = m.mixda_loss_backward(&pairs, 0.8, &mut rng);
        for _ in 0..40 {
            m.mixda_loss_backward(&pairs, 0.8, &mut rng);
            m.step();
        }
        let last = m.mixda_loss_backward(&pairs, 0.8, &mut rng);
        assert!(last < first, "mixda loss {first} -> {last}");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = model();
        let snap = m.snapshot();
        let mut rng = StdRng::seed_from_u64(2);
        let items = vec![WeightedItem::hard(tokenize("the quick fox"), 0, 2)];
        m.weighted_loss_backward(&items, true, &mut rng);
        m.optimizer_step();
        assert_ne!(m.snapshot(), snap);
        m.restore(&snap);
        assert_eq!(m.snapshot(), snap);
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let m = model();
        let dir = std::env::temp_dir().join("rotom_tinylm_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        m.save_checkpoint(&path).unwrap();
        let mut other = model();
        // Same construction seed → same shapes; different values after a
        // training step.
        let mut rng = StdRng::seed_from_u64(9);
        let items = vec![WeightedItem::hard(tokenize("the quick fox"), 0, 2)];
        other.weighted_loss_backward(&items, true, &mut rng);
        other.optimizer_step();
        assert_ne!(other.snapshot(), m.snapshot());
        other.load_checkpoint(&path).unwrap();
        assert_eq!(other.snapshot(), m.snapshot());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn infer_plane_matches_tape_bitwise() {
        let mut m = model();
        // Train a few steps so weights are not at init.
        let items: Vec<WeightedItem> = vec![
            WeightedItem::hard(tokenize("the quick brown fox jumps"), 0, 2),
            WeightedItem::hard(tokenize("a lazy dog sleeps all day"), 1, 2),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..3 {
            m.weighted_loss_backward(&items, true, &mut rng);
            m.optimizer_step();
        }
        for text in [
            "the quick fox",
            "a lazy dog sleeps [SEP] a lazy dog sleeps",
            "brown",
        ] {
            let toks = tokenize(text);
            assert_eq!(
                m.predict_proba(&toks),
                m.predict_proba_tape(&toks),
                "{text}"
            );
        }
        assert_eq!(
            m.per_example_losses(&items),
            m.per_example_losses_tape(&items)
        );
    }

    #[test]
    fn score_cache_hits_are_bit_identical_and_invalidate_on_update() {
        let mut m = model();
        m.set_score_cache(64);
        let toks = tokenize("the quick brown fox jumps");
        let cold = m.predict_proba(&toks);
        let warm = m.predict_proba(&toks);
        assert_eq!(cold, warm);
        let (hits, misses) = m.score_cache().unwrap().hit_miss();
        assert_eq!((hits, misses), (1, 1));
        // A parameter update must invalidate: the next score recomputes.
        let items = vec![WeightedItem::hard(tokenize("the quick fox"), 0, 2)];
        let mut rng = StdRng::seed_from_u64(4);
        m.weighted_loss_backward(&items, true, &mut rng);
        m.optimizer_step();
        let updated = m.predict_proba(&toks);
        assert_eq!(updated, m.predict_proba_tape(&toks));
        let (_, misses_after) = m.score_cache().unwrap().hit_miss();
        assert!(misses_after > misses, "post-update score must be a miss");
    }

    #[test]
    fn score_batch_matches_serial_predictions() {
        let m = model();
        let batch: Vec<Vec<String>> = corpus();
        let pool = RotomPool::new(4);
        let scores = m.score_batch(&batch, &pool);
        for (toks, probs) in batch.iter().zip(&scores) {
            assert_eq!(probs, &m.predict_proba(toks));
        }
    }

    #[test]
    fn truncation_respects_max_len() {
        let m = model();
        let long: Vec<String> = (0..100).map(|i| format!("tok{i}")).collect();
        // Must not panic; positional table is max_len wide.
        let p = m.predict_proba(&long);
        assert_eq!(p.len(), 2);
    }
}
