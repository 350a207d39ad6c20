//! Central-difference gradient checks for every layer in `rotom_nn::layers`
//! and for the composite losses the Rotom pipeline trains with.
//!
//! Each test builds a layer over a fixed random input, reduces its output to
//! a scalar via a fixed random linear functional `L(out) = Σ cᵢⱼ·outᵢⱼ`
//! (so every output coordinate contributes a distinct gradient path), and
//! compares tape gradients against numerical central differences for every
//! trainable parameter coordinate. Dropout is disabled throughout — gradcheck
//! requires a deterministic forward pass.

use rotom_nn::gradcheck::{check, GradCheckOpts};
use rotom_nn::{
    causal_mask, DecoderLayer, Embedding, EncoderLayer, FeedForward, FwdCtx, Gru, LayerNorm,
    Linear, MultiHeadAttention, NodeId, ParamStore, Tape, Tensor, TransformerConfig,
    TransformerDecoder, TransformerEncoder,
};
use rotom_rng::{rngs::StdRng, RngExt, SeedableRng};

fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize, scale: f32) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| rng.random_range(-scale..=scale))
        .collect();
    Tensor::from_vec(data, rows, cols)
}

/// Reduce `out` to a scalar with a fixed coefficient tensor so that every
/// output coordinate has a distinct, nonzero influence on the loss.
fn project(tape: &mut Tape, out: NodeId, coeff: &Tensor) -> NodeId {
    let c = tape.input(coeff.clone());
    let prod = tape.mul(out, c);
    tape.sum_all(prod)
}

fn default_opts() -> GradCheckOpts {
    GradCheckOpts::default()
}

/// Options for full transformer stacks. Embedding → LayerNorm → attention
/// compositions are far more curved than single layers, so the default
/// ε = 1e-2 leaves visible O(ε²) truncation error (empirically ~0.16 rel on
/// token embeddings); ε = 1.5e-3 trades it against f32 roundoff (~u·|L|/ε ≈
/// 2e-4 absolute), and the 0.1 floor keeps that roundoff from dominating
/// near-zero gradients.
fn deep_opts(eps: f32) -> GradCheckOpts {
    GradCheckOpts {
        eps,
        denom_floor: 0.1,
        ..Default::default()
    }
}

#[test]
fn gradcheck_linear() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, &mut rng, "lin", 4, 5);
    let x = rand_tensor(&mut rng, 3, 4, 1.0);
    let coeff = rand_tensor(&mut rng, 3, 5, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = lin.forward(&mut tape, xn, store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
    assert!(report.max_rel_err < 1e-2, "{:.3e}", report.max_rel_err);
}

#[test]
fn gradcheck_linear_without_bias() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    let mut store = ParamStore::new();
    let lin = Linear::with_bias(&mut store, &mut rng, "lin", 3, 4, false);
    let x = rand_tensor(&mut rng, 2, 3, 1.0);
    let coeff = rand_tensor(&mut rng, 2, 4, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = lin.forward(&mut tape, xn, store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_embedding_with_repeated_ids() {
    let mut rng = StdRng::seed_from_u64(0xA3);
    let mut store = ParamStore::new();
    let emb = Embedding::new(&mut store, &mut rng, "emb", 7, 5);
    // Repeats exercise gradient accumulation into the same table row.
    let ids = [0usize, 2, 2, 6, 2];
    let coeff = rand_tensor(&mut rng, ids.len(), 5, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let y = emb.forward(&mut tape, store, &ids);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_layer_norm() {
    let mut rng = StdRng::seed_from_u64(0xA4);
    let mut store = ParamStore::new();
    let ln = LayerNorm::new(&mut store, &mut rng, "ln", 6);
    let x = rand_tensor(&mut rng, 3, 6, 2.0);
    let coeff = rand_tensor(&mut rng, 3, 6, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = ln.forward(&mut tape, xn, store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_attention_unmasked() {
    let mut rng = StdRng::seed_from_u64(0xA5);
    let mut store = ParamStore::new();
    let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", 8, 2);
    let x = rand_tensor(&mut rng, 4, 8, 1.0);
    let coeff = rand_tensor(&mut rng, 4, 8, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = attn.forward(&mut tape, xn, xn, None, store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_attention_causal_masked() {
    let mut rng = StdRng::seed_from_u64(0xA6);
    let mut store = ParamStore::new();
    let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", 8, 2);
    let x = rand_tensor(&mut rng, 4, 8, 1.0);
    let coeff = rand_tensor(&mut rng, 4, 8, 1.0);
    let mask = causal_mask(4, 4);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = attn.forward(&mut tape, xn, xn, Some(&mask), store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_cross_attention() {
    let mut rng = StdRng::seed_from_u64(0xA7);
    let mut store = ParamStore::new();
    let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", 8, 2);
    let q = rand_tensor(&mut rng, 3, 8, 1.0);
    let kv = rand_tensor(&mut rng, 5, 8, 1.0);
    let coeff = rand_tensor(&mut rng, 3, 8, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let qn = tape.input(q.clone());
        let kvn = tape.input(kv.clone());
        let y = attn.forward(&mut tape, qn, kvn, None, store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_gru() {
    let mut rng = StdRng::seed_from_u64(0xA8);
    let mut store = ParamStore::new();
    let gru = Gru::new(&mut store, &mut rng, "gru", 3, 4);
    let x = rand_tensor(&mut rng, 3, 3, 1.0);
    let coeff = rand_tensor(&mut rng, 3, 4, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = gru.forward(&mut tape, xn, store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_feed_forward() {
    let mut rng = StdRng::seed_from_u64(0xA9);
    let mut store = ParamStore::new();
    let ff = FeedForward::new(&mut store, &mut rng, "ff", 6, 12);
    let x = rand_tensor(&mut rng, 3, 6, 1.0);
    let coeff = rand_tensor(&mut rng, 3, 6, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = ff.forward(&mut tape, xn, store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

/// Every forward here runs under `FwdCtx::eval`, which draws no dropout
/// mask, so each finite-difference probe sees the same function.
fn tiny_cfg(vocab: usize) -> TransformerConfig {
    TransformerConfig {
        vocab,
        d_model: 8,
        heads: 2,
        d_ff: 16,
        layers: 1,
        max_len: 8,
    }
}

#[test]
fn gradcheck_encoder_layer() {
    let mut rng = StdRng::seed_from_u64(0xAA);
    let mut store = ParamStore::new();
    let cfg = tiny_cfg(16);
    let layer = EncoderLayer::new(&mut store, &mut rng, "enc", &cfg);
    let x = rand_tensor(&mut rng, 4, 8, 1.0);
    let coeff = rand_tensor(&mut rng, 4, 8, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let mut ctx = FwdCtx::eval(store);
        let y = layer.forward(&mut tape, xn, &mut ctx);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_decoder_layer() {
    let mut rng = StdRng::seed_from_u64(0xAB);
    let mut store = ParamStore::new();
    let cfg = tiny_cfg(16);
    let layer = DecoderLayer::new(&mut store, &mut rng, "dec", &cfg);
    let x = rand_tensor(&mut rng, 3, 8, 1.0);
    let memory = rand_tensor(&mut rng, 5, 8, 1.0);
    let coeff = rand_tensor(&mut rng, 3, 8, 1.0);
    let mask = causal_mask(3, 3);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let mem = tape.input(memory.clone());
        let mut ctx = FwdCtx::eval(store);
        let y = layer.forward(&mut tape, xn, mem, &mask, &mut ctx);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_transformer_encoder_stack() {
    let mut rng = StdRng::seed_from_u64(0xAC);
    let mut store = ParamStore::new();
    let cfg = tiny_cfg(12);
    let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
    let ids = [1usize, 5, 5, 0, 11];
    let coeff = rand_tensor(&mut rng, ids.len(), 8, 1.0);
    let report = check(&mut store, &deep_opts(1.5e-3), |store, backward| {
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(store);
        let y = enc.forward(&mut tape, &ids, &[], &mut ctx);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

#[test]
fn gradcheck_transformer_decoder_stack() {
    let mut rng = StdRng::seed_from_u64(0xAD);
    let mut store = ParamStore::new();
    let cfg = tiny_cfg(12);
    let dec = TransformerDecoder::new(&mut store, &mut rng, "dec", cfg);
    let ids = [2usize, 7, 1, 9];
    let memory = rand_tensor(&mut rng, 5, 8, 1.0);
    // The decoder projects to vocab logits, so the functional is T x vocab.
    // Scale 0.5 keeps the loss magnitude (and with it f32 roundoff in the
    // finite differences) small enough for the 1e-2 tolerance.
    let coeff = rand_tensor(&mut rng, ids.len(), 12, 0.5);
    let report = check(&mut store, &deep_opts(1e-3), |store, backward| {
        let mut tape = Tape::new();
        let mem = tape.input(memory.clone());
        let mut ctx = FwdCtx::eval(store);
        let y = dec.forward(&mut tape, &ids, mem, &mut ctx);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

/// Composite loss 1: the classifier objective — encoder [CLS] state through
/// a linear head into softmax cross-entropy against a soft target.
#[test]
fn gradcheck_softmax_cross_entropy_head() {
    let mut rng = StdRng::seed_from_u64(0xAE);
    let mut store = ParamStore::new();
    let cfg = tiny_cfg(12);
    let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
    let head = Linear::new(&mut store, &mut rng, "head", 8, 3);
    let ids = [3usize, 1, 8, 8];
    let target = [0.2f32, 0.7, 0.1]; // soft labels exercise the full CE path
    let report = check(&mut store, &deep_opts(7e-4), |store, backward| {
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(store);
        let cls = enc.encode_cls(&mut tape, &ids, &[], &mut ctx);
        let logits = head.forward(&mut tape, cls, store);
        let loss = tape.cross_entropy(logits, &target);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

/// Composite loss 2: the square of the Rotom weighting term `‖p_M(x̂) − y‖₂`
/// (paper §4.2), built in-graph via softmax → sub → square → sum. Training
/// computes the distance itself outside the graph.
#[test]
fn gradcheck_l2_prediction_distance_term() {
    let mut rng = StdRng::seed_from_u64(0xAF);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, &mut rng, "head", 5, 3);
    let x = rand_tensor(&mut rng, 1, 5, 1.0);
    let y = Tensor::from_vec(vec![0.0, 1.0, 0.0], 1, 3);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let yn = tape.input(y.clone());
        let logits = lin.forward(&mut tape, xn, store);
        let p = tape.softmax(logits);
        let d = tape.sub(p, yn);
        let sq = tape.mul(d, d);
        let loss = tape.sum_all(sq);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
        }
        lv
    });
    report.assert_ok();
}

/// Negative control at the layer level: a corrupted analytic gradient must
/// push the report past tolerance, proving the harness has teeth.
#[test]
fn gradcheck_negative_control_flags_bad_layer_gradient() {
    let mut rng = StdRng::seed_from_u64(0xB0);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, &mut rng, "lin", 4, 4);
    let (w_id, _) = lin.params();
    let x = rand_tensor(&mut rng, 2, 4, 1.0);
    let coeff = rand_tensor(&mut rng, 2, 4, 1.0);
    let report = check(&mut store, &default_opts(), |store, backward| {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = lin.forward(&mut tape, xn, store);
        let loss = project(&mut tape, y, &coeff);
        let lv = tape.value(loss).item();
        if backward {
            tape.backward(loss, store);
            // Simulate a backward-pass bug: flip the sign of one coordinate.
            store.grad_mut(w_id).data_mut()[3] *= -1.0;
        }
        lv
    });
    assert!(
        !report.passed(),
        "gradcheck missed a sign-flipped gradient (max rel err {:.3e})",
        report.max_rel_err
    );
}
