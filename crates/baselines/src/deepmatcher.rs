//! DeepMatcher-style entity matching baselines (Mudgal et al., SIGMOD'18).
//!
//! DM is "a hybrid neural net consisting of RNN layers and the Attention
//! mechanism" trained directly on entity pairs (no pre-trained LM). We build
//! its hybrid variant: per-record GRU encodings with soft cross-record
//! attention, a symmetric comparison layer, and an MLP classifier.
//!
//! `DmEncoder::TinyLm` reproduces the paper's DM+RoBERTa ablation: the same
//! comparison head over the \[CLS\] encodings of a Transformer encoder.

use rotom::metrics::PrF1;
use rotom::ModelConfig;
use rotom_datasets::em::{EmDataset, LabeledPair};
use rotom_nn::{
    recycle_tape, take_pooled_tape, with_pooled_tape, Adam, Embedding, FwdCtx, Gru, Linear, NodeId,
    ParamStore, Tape, TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::serialize::serialize_record;
use rotom_text::vocab::Vocab;

/// Which sequence encoder the comparison head runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmEncoder {
    /// GRU + soft attention (classic DeepMatcher hybrid).
    Gru,
    /// Transformer \[CLS\] encoder (the DM+RoBERTa variant).
    TinyLm,
}

/// DeepMatcher configuration.
#[derive(Debug, Clone)]
pub struct DmConfig {
    /// Embedding / hidden width.
    pub hidden: usize,
    /// Max tokens per record.
    pub max_len: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Vocabulary budget.
    pub vocab_size: usize,
    /// Encoder variant.
    pub encoder: DmEncoder,
}

impl Default for DmConfig {
    fn default() -> Self {
        Self {
            hidden: 24,
            max_len: 24,
            epochs: 5,
            batch_size: 16,
            lr: 1e-3,
            vocab_size: 4096,
            encoder: DmEncoder::Gru,
        }
    }
}

enum EncoderImpl {
    Gru { emb: Embedding, gru: Gru },
    TinyLm(TransformerEncoder),
}

/// The DeepMatcher model.
pub struct DeepMatcher {
    store: ParamStore,
    encoder: EncoderImpl,
    attn_proj: Linear,
    compare: Linear,
    out: Linear,
    vocab: Vocab,
    cfg: DmConfig,
}

impl DeepMatcher {
    /// Train DeepMatcher on an EM dataset's training pairs.
    pub fn train(data: &EmDataset, train_idx: &[usize], cfg: DmConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<Vec<String>> = data
            .train_pairs
            .iter()
            .flat_map(|p| [serialize_record(&p.left), serialize_record(&p.right)])
            .collect();
        let refs: Vec<&[String]> = corpus.iter().map(|s| s.as_slice()).collect();
        let vocab = Vocab::build(refs, cfg.vocab_size);

        let mut store = ParamStore::new();
        let h = cfg.hidden;
        let encoder = match cfg.encoder {
            DmEncoder::Gru => EncoderImpl::Gru {
                emb: Embedding::new(&mut store, &mut rng, "dm.emb", vocab.len(), h),
                gru: Gru::new(&mut store, &mut rng, "dm.gru", h, h),
            },
            DmEncoder::TinyLm => {
                let mut mc = ModelConfig::default();
                mc.d_model = h;
                mc.heads = if h % 4 == 0 { 4 } else { 2 };
                mc.d_ff = 2 * h;
                mc.layers = 1;
                mc.max_len = cfg.max_len;
                EncoderImpl::TinyLm(TransformerEncoder::new(
                    &mut store,
                    &mut rng,
                    "dm.lm",
                    mc.encoder(vocab.len()),
                ))
            }
        };
        let attn_proj = Linear::new(&mut store, &mut rng, "dm.attn", h, h);
        let compare = Linear::new(&mut store, &mut rng, "dm.cmp", 4 * h, h);
        let out = Linear::new(&mut store, &mut rng, "dm.out", h, 2);
        let mut model = Self {
            store,
            encoder,
            attn_proj,
            compare,
            out,
            vocab,
            cfg,
        };
        model.fit(data, train_idx, &mut rng, seed);
        model
    }

    fn fit(&mut self, data: &EmDataset, train_idx: &[usize], rng: &mut StdRng, _seed: u64) {
        let mut opt = Adam::new(self.cfg.lr);
        let mut idx = train_idx.to_vec();
        for _ in 0..self.cfg.epochs {
            for i in (1..idx.len()).rev() {
                let j = rng.random_range(0..=i);
                idx.swap(i, j);
            }
            for chunk in idx.chunks(self.cfg.batch_size) {
                let mut tape = take_pooled_tape();
                let mut losses = Vec::with_capacity(chunk.len());
                for &pi in chunk {
                    let pair = &data.train_pairs[pi];
                    let logits = self.pair_logits(&mut tape, pair);
                    let target = if pair.is_match {
                        [0.0, 1.0]
                    } else {
                        [1.0, 0.0]
                    };
                    losses.push(tape.cross_entropy(logits, &target));
                }
                let loss = tape.mean_nodes(&losses);
                self.store.zero_grad();
                tape.backward(loss, &mut self.store);
                recycle_tape(tape);
                self.store.clip_grad_norm(5.0);
                opt.step(&mut self.store);
            }
        }
    }

    fn encode_record(&self, tape: &mut Tape, tokens: &[String]) -> (NodeId, NodeId) {
        let mut ids = self.vocab.encode(tokens);
        ids.truncate(self.cfg.max_len);
        if ids.is_empty() {
            ids.push(self.vocab.special_id(rotom_text::token::PAD));
        }
        match &self.encoder {
            EncoderImpl::Gru { emb, gru } => {
                let e = emb.forward(tape, &self.store, &ids);
                let states = gru.forward(tape, e, &self.store);
                // Mean-pooled summary: more robust than the last state for
                // the bag-of-attributes records EM serializes.
                let pooled = tape.mean_rows(states);
                (states, pooled)
            }
            EncoderImpl::TinyLm(enc) => {
                let mut ctx = FwdCtx::eval(&self.store);
                let states = enc.forward(tape, &ids, &mut ctx);
                let cls = tape.slice_rows(states, 0, 1);
                (states, cls)
            }
        }
    }

    fn pair_logits(&self, tape: &mut Tape, pair: &LabeledPair) -> NodeId {
        let left = serialize_record(&pair.left);
        let right = serialize_record(&pair.right);
        let (l_states, l_sum) = self.encode_record(tape, &left);
        let (r_states, _r_sum) = self.encode_record(tape, &right);
        // Soft attention of the left summary over the right states:
        // scores = proj(l_sum) · R^T, context = softmax(scores) · R.
        let q = self.attn_proj.forward(tape, l_sum, &self.store);
        let scores = tape.matmul_tb(q, r_states);
        let attn = tape.softmax(scores);
        let r_ctx = tape.matmul(attn, r_states);
        let _ = l_states;
        // Symmetric comparison features [l, r, |l−r| ≈ (l−r), l⊙r].
        let diff = tape.sub(l_sum, r_ctx);
        let prod = tape.mul(l_sum, r_ctx);
        let feats = tape.concat_cols(&[l_sum, r_ctx, diff, prod]);
        let hidden = self.compare.forward(tape, feats, &self.store);
        let hidden = tape.relu(hidden);
        self.out.forward(tape, hidden, &self.store)
    }

    /// Predict match (true) / no-match for a pair.
    pub fn predict(&self, pair: &LabeledPair) -> bool {
        with_pooled_tape(|tape| {
            let logits = self.pair_logits(tape, pair);
            let row = tape.value(logits).row_slice(0);
            row[1] > row[0]
        })
    }

    /// Positive-class F1 on the dataset's test pairs.
    pub fn evaluate(&self, data: &EmDataset) -> PrF1 {
        let pred: Vec<usize> = data
            .test_pairs
            .iter()
            .map(|p| self.predict(p) as usize)
            .collect();
        let gold: Vec<usize> = data
            .test_pairs
            .iter()
            .map(|p| p.is_match as usize)
            .collect();
        rotom::prf1(&pred, &gold, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_datasets::em::{generate, EmConfig, EmFlavor};

    fn quick_data() -> EmDataset {
        let cfg = EmConfig {
            num_entities: 120,
            train_pairs: 300,
            test_pairs: 80,
            ..Default::default()
        };
        generate(EmFlavor::DblpAcm, &cfg)
    }

    /// DM is data-hungry (the paper trains it on the *full* datasets); with
    /// a few hundred pairs and a dozen epochs it should clear chance-level
    /// F1 but stay far from the LM methods — exactly the Table 8 story.
    #[test]
    fn gru_variant_learns_to_match() {
        let data = quick_data();
        let idx: Vec<usize> = (0..data.train_pairs.len()).collect();
        let cfg = DmConfig {
            epochs: 12,
            hidden: 24,
            lr: 3e-3,
            ..Default::default()
        };
        let m = DeepMatcher::train(&data, &idx, cfg, 0);
        let f1 = m.evaluate(&data).f1;
        assert!(f1 > 0.4, "DM F1 too low: {f1}");
    }

    #[test]
    fn tinylm_variant_runs() {
        let data = quick_data();
        let idx: Vec<usize> = (0..80).collect();
        let cfg = DmConfig {
            epochs: 2,
            hidden: 16,
            encoder: DmEncoder::TinyLm,
            ..Default::default()
        };
        let m = DeepMatcher::train(&data, &idx, cfg, 1);
        let f1 = m.evaluate(&data).f1;
        assert!((0.0..=1.0).contains(&f1));
    }
}
