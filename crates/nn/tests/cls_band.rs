//! The tape's \[CLS\] band must compute exactly what the full-rows forward
//! computes.
//!
//! `TransformerEncoder::encode_cls` runs the last encoder layer and the
//! final norm only on the leading `kernels::band_rows(t, 0)` rows. The
//! oracle here is the full-rows forward: `forward` (every row of every
//! layer) followed by `slice_rows(h, 0, 1)`. For every token count up to the
//! benchmark's `max_len`, in training and evaluation mode, with an
//! extra-feature embedding and several sequences per tape, the two must
//! agree bit for bit on the \[CLS\] values, the loss, every parameter
//! gradient and the dropout RNG's state afterwards.
//!
//! Shapes matter. A band that dispatched a GEMM on its own row count would
//! still round like the full pass wherever both counts pick the same tier:
//! at `d_model` 16 the full pass stays naive below 64 tokens, and at
//! `d_model` 64 even a four-row band is tiled. At the benchmark shapes the
//! FFN of a full pass is tiled from 16 tokens while its band is naive, and
//! the wide shape puts the full pass on the parallel fan-out at eight
//! workers. The pool is sized once per process, so CI runs this file once
//! per `ROTOM_THREADS` value.

use rotom_nn::{
    Embedding, Exec, FwdCtx, Initializer, ParamId, ParamStore, Tape, TransformerConfig,
    TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;

const VOCAB: usize = 50;
const CLASSES: usize = 3;
const MAX_LEN: usize = 72;
/// Sequences per tape: their graphs share the tape's arena and the
/// parameter leaves' gradient sums.
const SEQS: usize = 3;

struct Model {
    store: ParamStore,
    enc: TransformerEncoder,
    seg: Embedding,
    head: ParamId,
}

fn model(d_model: usize, heads: usize, d_ff: usize, layers: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let cfg = TransformerConfig {
        vocab: VOCAB,
        d_model,
        heads,
        d_ff,
        layers,
        max_len: MAX_LEN,
    };
    let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
    let seg = Embedding::new(&mut store, &mut rng, "seg", 2, d_model);
    let head = store.alloc(
        "head",
        d_model,
        CLASSES,
        Initializer::Uniform(0.5),
        &mut rng,
    );
    // Move every parameter off its initializer, so zero biases and unit
    // norm scales do not hide a difference.
    let theta: Vec<f32> = store
        .flat_values()
        .iter()
        .enumerate()
        .map(|(i, &v)| v + 0.02 * (i as f32 * 0.37).sin())
        .collect();
    store.set_flat(&theta);
    Model {
        store,
        enc,
        seg,
        head,
    }
}

/// Everything one batch computes, as bits.
#[derive(Debug, PartialEq)]
struct Bits {
    cls: Vec<u32>,
    loss: u32,
    param_grads: Vec<u32>,
    rng_after: [u64; 4],
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Forward `SEQS` sequences of lengths derived from `len` on one tape, take
/// the mean cross-entropy of a linear head on each \[CLS\] row, and run
/// backward. `band` picks `encode_cls` (true) or the full-rows oracle.
fn run(m: &mut Model, len: usize, train: bool, band: bool) -> Bits {
    let mut tape = Tape::new();
    let mut rng = StdRng::seed_from_u64(len as u64 * 2 + train as u64);
    let mut cls_bits = Vec::new();
    let mut losses = Vec::new();
    {
        let mut ctx = if train {
            FwdCtx::train(&m.store, 0.1, &mut rng)
        } else {
            FwdCtx::eval(&m.store)
        };
        for s in 0..SEQS {
            // The first sequence has `len` tokens; the others cycle through
            // other lengths, one of them past `max_len` (truncated).
            let n = [len, (len * 7 + 3) % (MAX_LEN + 4) + 1, MAX_LEN + 1 - len][s];
            let ids: Vec<usize> = (0..n).map(|i| (i * 11 + s * 5 + len) % VOCAB).collect();
            let segs: Vec<usize> = (0..n).map(|i| usize::from(i * 2 >= n)).collect();
            let extras = [(&m.seg, &segs[..])];
            let cls = if band {
                m.enc.encode_cls(&mut tape, &ids, &extras, &mut ctx)
            } else {
                let h = m.enc.forward(&mut tape, &ids, &extras, &mut ctx);
                tape.slice_rows(h, 0, 1)
            };
            cls_bits.extend(bits(tape.value(cls).data()));
            let w = tape.param(m.head, &m.store);
            let logits = tape.matmul(cls, w);
            let mut target = [0.0f32; CLASSES];
            target[(len + s) % CLASSES] = 1.0;
            losses.push(tape.cross_entropy(logits, &target));
        }
    }
    let loss = tape.mean_nodes(&losses);
    m.store.zero_grad();
    tape.backward(loss, &mut m.store);
    Bits {
        cls: cls_bits,
        loss: tape.value(loss).item().to_bits(),
        param_grads: bits(&m.store.flat_grads()),
        rng_after: rng.state(),
    }
}

fn check_shape(d_model: usize, heads: usize, d_ff: usize, layers: usize) {
    let mut m = model(d_model, heads, d_ff, layers, 17 + layers as u64);
    for len in 1..=MAX_LEN {
        for train in [false, true] {
            let want = run(&mut m, len, train, false);
            assert!(
                want.param_grads.iter().any(|&b| b != 0),
                "oracle produced no gradient"
            );
            let got = run(&mut m, len, train, true);
            assert_eq!(
                got, want,
                "d_model {d_model} heads {heads} d_ff {d_ff} layers {layers}: \
                 len {len} train {train} drifted from the full-rows forward"
            );
        }
    }
}

#[test]
fn cls_band_matches_full_rows_at_benchmark_shapes() {
    check_shape(32, 4, 64, 2);
}

#[test]
fn cls_band_matches_full_rows_with_one_layer() {
    check_shape(32, 4, 64, 1);
}

#[test]
fn cls_band_matches_full_rows_on_wide_parallel_shapes() {
    // 72 rows × 64 × 128 is past the parallel threshold, so at eight
    // workers the full pass fans the FFN out while the band runs serial.
    check_shape(64, 4, 128, 2);
}

#[test]
fn cls_band_matches_full_rows_on_naive_tier_shapes() {
    check_shape(16, 2, 32, 2);
}
