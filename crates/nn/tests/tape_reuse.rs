//! A reused tape must compute exactly what a fresh tape computes.
//!
//! The tape arena hands out buffers by size class, so a buffer often still
//! holds another shape's stale values: an op that read its output buffer
//! before writing it would change bits only on reuse. These tests replay
//! encoder forward+backward graphs whose token counts cycle up and down
//! through neighbouring size classes, on one pooled tape and across the
//! worker pool's pooled tapes, and require every node value captured, the
//! loss, the leaf gradients and every parameter gradient to match a fresh
//! tape bit for bit. The pool is sized once per process, so CI runs this
//! file once per `ROTOM_THREADS` value.

use rotom_nn::{
    recycle_tape, take_pooled_tape, with_pooled_tape, FwdCtx, Initializer, ParamId, ParamStore,
    RotomPool, Tape, Tensor, TransformerConfig, TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;

const VOCAB: usize = 50;
const CLASSES: usize = 3;

/// Token counts that straddle size-class boundaries (33/34/40 share or
/// neighbour classes at width 32) and reach the benchmark's `max_len` 72.
const LENGTHS: &[usize] = &[5, 17, 33, 34, 40, 72, 40, 34, 33, 17, 5, 72];

struct Model {
    store: ParamStore,
    enc: TransformerEncoder,
    head: ParamId,
}

/// The encoder at the benchmark's shapes (d_model 32, 2 layers, max_len 72).
fn model() -> Model {
    let mut rng = StdRng::seed_from_u64(9);
    let mut store = ParamStore::new();
    let mut cfg = TransformerConfig::tiny(VOCAB);
    cfg.heads = 4;
    cfg.max_len = 72;
    let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg);
    let head = store.alloc("head", 32, CLASSES, Initializer::Uniform(0.5), &mut rng);
    // Move every parameter off its initializer, so no zero-initialized bias
    // or LayerNorm shift leaves an all-zero buffer in the arena that would
    // hide a stale read.
    let theta: Vec<f32> = store
        .flat_values()
        .iter()
        .enumerate()
        .map(|(i, &v)| v + 0.01 * (i as f32).sin())
        .collect();
    store.set_flat(&theta);
    Model { store, enc, head }
}

/// Everything one graph computes, as bits.
#[derive(Debug, PartialEq)]
struct Bits {
    hidden: Vec<u32>,
    logits: Vec<u32>,
    loss: u32,
    input_grad: Vec<u32>,
    param_leaf_grad: Vec<u32>,
    param_grads: Vec<u32>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One training-mode forward (dropout on) and backward over `len` tokens.
fn run(tape: &mut Tape, len: usize, k: usize) -> Bits {
    let mut m = model();
    let ids: Vec<usize> = (0..len).map(|i| (i * 7 + k) % VOCAB).collect();
    let mut rng = StdRng::seed_from_u64(k as u64);
    let (h, w, shift, logits, loss) = {
        let mut ctx = FwdCtx::train(&m.store, 0.1, &mut rng);
        let h = m.enc.forward(tape, &ids, &mut ctx);
        let pooled = tape.mean_rows(h);
        let w = tape.param(m.head, &m.store);
        let logits = tape.matmul(pooled, w);
        let shift = tape.input(Tensor::from_vec(vec![0.1, -0.2, 0.3], 1, CLASSES));
        let logits = tape.add(logits, shift);
        let loss = tape.cross_entropy(logits, &[0.0, 1.0, 0.0]);
        (h, w, shift, logits, loss)
    };
    m.store.zero_grad();
    tape.backward(loss, &mut m.store);
    Bits {
        hidden: bits(tape.value(h).data()),
        logits: bits(tape.value(logits).data()),
        loss: tape.value(loss).item().to_bits(),
        input_grad: bits(tape.grad(shift).data()),
        param_leaf_grad: bits(tape.grad(w).data()),
        param_grads: bits(&m.store.flat_grads()),
    }
}

fn fresh(len: usize, k: usize) -> Bits {
    run(&mut Tape::new(), len, k)
}

#[test]
fn pooled_tape_replays_varying_lengths_bit_identically() {
    let mut tape = take_pooled_tape();
    for round in 0..2 {
        for (i, &len) in LENGTHS.iter().enumerate() {
            let k = round * LENGTHS.len() + i;
            let got = run(&mut tape, len, k);
            assert!(
                got.input_grad.iter().any(|&b| b != 0),
                "input gradient released"
            );
            assert!(
                got.param_leaf_grad.iter().any(|&b| b != 0),
                "param gradient released"
            );
            assert_eq!(
                got,
                fresh(len, k),
                "len {len} (graph {k}) drifted on a reused tape"
            );
            tape.reset();
        }
    }
    recycle_tape(tape);
}

#[test]
fn pool_workers_replay_varying_lengths_bit_identically() {
    let n = 2 * LENGTHS.len();
    // Two passes: the second finds the pooled tapes warm from the first,
    // each holding whatever mix of lengths its worker happened to run.
    for pass in 0..2 {
        let got = RotomPool::global().map(n, |k| {
            let len = LENGTHS[(k + pass) % LENGTHS.len()];
            (len, with_pooled_tape(|t| run(t, len, k)))
        });
        for (k, (len, g)) in got.into_iter().enumerate() {
            assert_eq!(
                g,
                fresh(len, k),
                "len {len} (graph {k}, pass {pass}) drifted"
            );
        }
    }
}
