//! `rotom-nn` — a minimal, self-contained neural network substrate.
//!
//! The Rotom paper builds on PyTorch + HuggingFace Transformers; this crate
//! is the from-scratch Rust replacement: dense `f32` tensors, a tape-based
//! reverse-mode autodiff engine, the layers needed for Transformer
//! encoders/decoders and GRUs, and the Adam optimizer.
//!
//! Two design choices are driven directly by Rotom's meta-learning algorithm
//! (Algorithm 2 of the paper):
//!
//! * **Flat parameter access** ([`ParamStore::flat_values`],
//!   [`ParamStore::add_scaled_flat`]) — the virtual update `M' = M − η∇M`
//!   and the finite-difference probes `M± = M ± ε∇M'` are direct flat-vector
//!   manipulations.
//! * **Parameter snapshots at node creation** — `param` nodes clone the
//!   current value, so mutating the store between building two graphs (as the
//!   probes do) never corrupts an existing tape.
//!
//! # Example
//!
//! ```
//! use rotom_nn::{ParamStore, Tape, Tensor, Initializer, Adam};
//! use rotom_rng::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut store = ParamStore::new();
//! let w = store.alloc("w", 2, 2, Initializer::XavierUniform, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! for _ in 0..100 {
//!     let mut tape = Tape::new();
//!     let x = tape.input(Tensor::from_vec(vec![1.0, -1.0], 1, 2));
//!     let wn = tape.param(w, &store);
//!     let logits = tape.matmul(x, wn);
//!     let loss = tape.cross_entropy(logits, &[1.0, 0.0]);
//!     store.zero_grad();
//!     tape.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! ```

#![warn(missing_docs)]

mod arena;
pub mod checkpoint;
pub mod env;
pub mod faultpoint;
pub mod gradcheck;
mod graph;
pub mod health;
pub mod infer;
mod init;
pub mod json;
pub mod kernels;
pub mod layers;
mod optim;
mod params;
pub mod pool;
pub mod telemetry;
mod tensor;
mod vmath;

pub use checkpoint::{CheckpointError, StateBag, StateEntry};
pub use faultpoint::{FaultKilled, FaultKind};
pub use graph::{
    pooled_tape_stats, tape_eviction_count, with_pooled_tape, AttnMask, NodeId, Tape, TapeBatch,
};
pub use health::{Halt, HealthConfig, HealthEvent, HealthMonitor, Verdict};
pub use infer::{with_infer_tape, InferTape};
pub use init::Initializer;
pub use layers::{
    causal_mask, DecoderLayer, Embedding, EncoderLayer, Exec, FeedForward, FwdCtx, Gru, Kv,
    LayerNorm, Linear, MultiHeadAttention, TransformerConfig, TransformerDecoder,
    TransformerEncoder,
};
pub use optim::Adam;
pub use params::{ParamId, ParamPacks, ParamStore};
pub use pool::RotomPool;
pub use tensor::Tensor;

/// Numerically stable softmax over a slice (out-of-graph helper for
/// inference-time probability computations).
pub fn softmax_slice(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut exps = logits.to_vec();
    kernels::exp_shifted(&mut exps, max);
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// One-hot rows: a flat `ids.len() × k` matrix whose row `r` is zero but
/// for a `1.0` at column `ids[r]`. The one builder of hard cross-entropy
/// targets: class labels, pseudo-labels, masked-token and decoder ids.
pub fn one_hot_rows(ids: &[usize], k: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; ids.len() * k];
    for (r, &id) in ids.iter().enumerate() {
        out[r * k + id] = 1.0;
    }
    out
}

/// Argmax index of a slice (first maximum wins). Panics on empty input.
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_slice_is_distribution() {
        let p = softmax_slice(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn argmax_first_max_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }
}
