//! The weighting model `M_W` (paper §4.1).
//!
//! ```text
//! M_W(x, x̂, y) = sigmoid(L_W(LM_W(x̂))) + ‖p_M(x̂) − y‖₂
//! ```
//!
//! `LM_W` is a language-model encoder with the same architecture as the
//! target model (here the TinyLm Transformer), `L_W` a single linear head.
//! Only the augmented sequence `x̂` is encoded (the paper skips `x` "to save
//! half of the computation"). The additive L2 distance term keeps the model
//! useful before it stabilizes — early in training it mimics
//! uncertainty-based sampling — and no gradient flows through it.
//!
//! `M_W` is trained by descending the validation loss through a
//! finite-difference approximation of the second-order gradient (Eq. 4):
//! with probes `M± = M ± ε∇M'Lossval`,
//!
//! ```text
//! ∇M_W(Lossval) ≈ −η (∇M_W Losstrain(M+, M_W) − ∇M_W Losstrain(M−, M_W)) / 2ε
//! ```
//!
//! which needs only the per-example losses `c±_i` under the two probes plus
//! one backward pass through `M_W`.

use rotom_nn::{
    recycle_tape, take_pooled_tape, Adam, CheckpointError, FwdCtx, Linear, NodeId, ParamStore,
    StateBag, Tape, TransformerConfig, TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;
use rotom_text::vocab::Vocab;

/// Weighting model: Transformer encoder + scalar head.
pub struct WeightModel {
    store: ParamStore,
    encoder: TransformerEncoder,
    head: Linear,
    vocab: Vocab,
    opt: Adam,
}

/// An in-flight weighting pass over one batch: the tape holding the weight
/// sub-graphs, the weight nodes, and their numeric values.
pub struct WeightBatch {
    tape: Tape,
    nodes: Vec<NodeId>,
    /// Raw (unnormalized) weight values `sigmoid(L_W(LM_W(x̂))) + l2`.
    pub raw: Vec<f32>,
}

impl WeightBatch {
    /// Batch-normalized weights with mean 1 (`w_i · B / Σw`), the form used
    /// in the weighted training loss.
    pub fn normalized(&self) -> Vec<f32> {
        let sum: f32 = self.raw.iter().sum();
        if sum <= 0.0 {
            return vec![1.0; self.raw.len()];
        }
        let scale = self.raw.len() as f32 / sum;
        self.raw.iter().map(|w| w * scale).collect()
    }
}

impl WeightModel {
    /// Create a weighting model over `vocab` with the given encoder config.
    pub fn new(vocab: Vocab, mut cfg: TransformerConfig, lr: f32, seed: u64) -> Self {
        cfg.vocab = vocab.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let encoder = TransformerEncoder::new(&mut store, &mut rng, "weight.enc", cfg.clone());
        let head = Linear::new(&mut store, &mut rng, "weight.head", cfg.d_model, 1);
        Self {
            store,
            encoder,
            head,
            vocab,
            opt: Adam::new(lr),
        }
    }

    /// Forward the weighting model over a batch of `(x̂ tokens, l2_term)`
    /// pairs (tokens borrowed — batch assembly need not clone them),
    /// returning the live batch for a later
    /// [`update_finite_difference`](Self::update_finite_difference).
    pub fn forward_batch(&self, items: &[(&[String], f32)]) -> WeightBatch {
        let mut tape = take_pooled_tape();
        let mut nodes = Vec::with_capacity(items.len());
        let mut raw = Vec::with_capacity(items.len());
        for (tokens, l2) in items {
            let ids = self.encode(tokens);
            let mut ctx = FwdCtx::eval(&self.store);
            let cls = self.encoder.encode_cls(&mut tape, &ids, &mut ctx);
            let z = self.head.forward(&mut tape, cls, &self.store);
            let s = tape.sigmoid(z);
            // The L2 term is constant w.r.t. M_W (and w.r.t. M — the paper
            // blocks its gradient), so it enters as an additive constant.
            let w = tape.add_const(s, *l2);
            nodes.push(w);
            raw.push(tape.value(w).item());
        }
        WeightBatch { tape, nodes, raw }
    }

    /// Compute the Eq.-4 estimate of `∇M_W(Lossval)` for one batch and leave
    /// it in the store's gradient buffers, also returning it as a flat vector
    /// aligned with [`flat_params`](Self::flat_params). `c_plus`/`c_minus`
    /// are the per-example losses under the probes `M±`; `eta` is the target
    /// optimizer's learning rate, `eps` the probe scale.
    ///
    /// Exposed separately from [`update_finite_difference`] so tests can
    /// compare the approximation against brute-force finite differences of
    /// the true validation loss.
    ///
    /// [`update_finite_difference`]: Self::update_finite_difference
    pub fn estimate_meta_grad(
        &mut self,
        batch: WeightBatch,
        c_plus: &[f32],
        c_minus: &[f32],
        eta: f32,
        eps: f32,
    ) -> Vec<f32> {
        let WeightBatch {
            mut tape,
            nodes,
            raw,
        } = batch;
        assert_eq!(nodes.len(), c_plus.len());
        assert_eq!(nodes.len(), c_minus.len());
        // Normalized weights w̃_i = w_i / Σw (in-graph so the gradient sees
        // the normalization), then
        //   objective = −η/(2ε) · Σ_i (c+_i − c−_i) · w̃_i · B
        // whose gradient w.r.t. M_W equals the Eq.-4 estimate of ∇Lossval.
        let total = tape.sum_nodes(&nodes);
        let inv = tape.recip(total);
        let b = nodes.len() as f32;
        let mut terms = Vec::with_capacity(nodes.len());
        for (i, &w) in nodes.iter().enumerate() {
            let wn = tape.mul(w, inv);
            let coeff = (c_plus[i] - c_minus[i]) * b;
            terms.push(tape.scale(wn, coeff));
        }
        let sum = tape.sum_nodes(&terms);
        let objective = tape.scale(sum, -eta / (2.0 * eps));
        let _ = raw; // values already consumed by the caller
        self.store.zero_grad();
        tape.backward(objective, &mut self.store);
        recycle_tape(tape);
        self.store.flat_grads()
    }

    /// Eq.-4 update. Estimates `∇M_W(Lossval)` via
    /// [`estimate_meta_grad`](Self::estimate_meta_grad) and descends it
    /// (clipped) with the model's Adam optimizer.
    pub fn update_finite_difference(
        &mut self,
        batch: WeightBatch,
        c_plus: &[f32],
        c_minus: &[f32],
        eta: f32,
        eps: f32,
    ) {
        if batch.nodes.is_empty() {
            recycle_tape(batch.tape);
            return;
        }
        let n = batch.nodes.len();
        let _ = self.estimate_meta_grad(batch, c_plus, c_minus, eta, eps);
        // Observed before clipping mutates the gradients: the raw Eq.-4
        // meta-gradient magnitude is the interesting signal.
        if rotom_nn::telemetry::enabled() {
            use rotom_nn::telemetry::Value;
            rotom_nn::telemetry::emit(
                "meta",
                "weight.fd_update",
                &[
                    ("examples", Value::U64(n as u64)),
                    ("meta_grad_norm", Value::F64(self.store.grad_norm() as f64)),
                    ("eta", Value::F64(eta as f64)),
                    ("eps", Value::F64(eps as f64)),
                ],
            );
        }
        self.store.clip_grad_norm(5.0);
        self.opt.step(&mut self.store);
    }

    /// Flat vector of all trainable `M_W` parameters (for inspection and
    /// brute-force finite-difference tests).
    pub fn flat_params(&self) -> Vec<f32> {
        self.store.flat_values()
    }

    /// Overwrite all trainable `M_W` parameters from a flat vector produced
    /// by [`flat_params`](Self::flat_params).
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        self.store.set_flat(flat);
    }

    /// Save the weighting model's full training state (parameters +
    /// optimizer) into a checkpoint bag under `prefix`.
    pub fn save_state(&self, bag: &mut StateBag, prefix: &str) {
        bag.put_f32s(format!("{prefix}.params"), self.store.flat_values());
        self.opt.save_state(bag, &format!("{prefix}.adam"));
    }

    /// Restore state saved by [`save_state`](Self::save_state).
    pub fn load_state(&mut self, bag: &StateBag, prefix: &str) -> Result<(), CheckpointError> {
        let params = bag.get_f32s(&format!("{prefix}.params"))?;
        if params.len() != self.store.num_scalars() {
            return Err(CheckpointError::Mismatch(format!(
                "weight model {prefix:?}: {} parameters vs checkpoint {}",
                self.store.num_scalars(),
                params.len()
            )));
        }
        self.store.set_flat(params);
        self.opt
            .load_state(bag, &format!("{prefix}.adam"), &self.store)
    }

    fn encode(&self, tokens: &[String]) -> Vec<usize> {
        let mut ids = Vec::with_capacity(tokens.len() + 1);
        ids.push(self.vocab.special_id(rotom_text::token::CLS));
        ids.extend(self.vocab.encode_fallback(tokens));
        ids.truncate(64);
        ids
    }
}

/// `‖p − y‖₂`: the additive uncertainty term of Eq. 2.
pub fn l2_distance(p: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(p.len(), y.len());
    p.iter()
        .zip(y)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_text::tokenize;

    fn refs(items: &[(Vec<String>, f32)]) -> Vec<(&[String], f32)> {
        items.iter().map(|(t, l2)| (t.as_slice(), *l2)).collect()
    }

    fn toy_model() -> WeightModel {
        let seqs: Vec<Vec<String>> =
            vec![tokenize("good plot bad sound fine story extra words here")];
        let refs: Vec<&[String]> = seqs.iter().map(|s| s.as_slice()).collect();
        let vocab = Vocab::build(refs, 64);
        let cfg = TransformerConfig {
            vocab: 0,
            d_model: 16,
            heads: 2,
            d_ff: 32,
            layers: 1,
            max_len: 16,
            dropout: 0.0,
        };
        WeightModel::new(vocab, cfg, 5e-3, 0)
    }

    #[test]
    fn raw_weights_in_expected_range() {
        let m = toy_model();
        let tokens = tokenize("good plot");
        let w = m.forward_batch(&[(&tokens, 0.3)]).raw[0];
        // sigmoid ∈ (0,1) plus the l2 constant.
        assert!(w > 0.3 && w < 1.3, "weight {w}");
    }

    #[test]
    fn normalization_has_mean_one() {
        let m = toy_model();
        let items: Vec<(Vec<String>, f32)> = vec![
            (tokenize("good plot"), 0.1),
            (tokenize("bad sound"), 0.9),
            (tokenize("fine story"), 0.4),
        ];
        let batch = m.forward_batch(&refs(&items));
        let norm = batch.normalized();
        let mean: f32 = norm.iter().sum::<f32>() / norm.len() as f32;
        assert!((mean - 1.0).abs() < 1e-5);
    }

    #[test]
    fn l2_distance_basics() {
        assert_eq!(l2_distance(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((l2_distance(&[1.0, 0.0], &[0.0, 1.0]) - 2f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn finite_difference_update_shifts_weights() {
        // By Eq. 4, ∇_{w_i}Lossval = −η(c+_i − c−_i)/(2ε): an example whose
        // loss *rises* along the validation gradient (c+ > c−) has a
        // descending effect on the validation loss when up-weighted (training
        // on it pushes M against ∇Lossval). Example 0 (c+ − c− = 0.8) should
        // therefore gain weight relative to example 1 (c+ − c− = 0).
        let mut m = toy_model();
        let items: Vec<(Vec<String>, f32)> =
            vec![(tokenize("good plot"), 0.0), (tokenize("bad sound"), 0.0)];
        let before = m.forward_batch(&refs(&items)).normalized();
        for _ in 0..30 {
            let batch = m.forward_batch(&refs(&items));
            m.update_finite_difference(batch, &[1.0, 0.2], &[0.2, 0.2], 0.1, 0.01);
        }
        let after = m.forward_batch(&refs(&items)).normalized();
        assert!(
            after[0] - after[1] > before[0] - before[1],
            "example 0 should gain relative weight: {before:?} -> {after:?}"
        );
    }
}
