//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a DAG of tensor operations as it is built; nodes are
//! appended in topological order, so a single reverse sweep computes all
//! gradients. Parameters live outside the tape in a
//! [`ParamStore`](crate::params::ParamStore): `param` nodes snapshot the
//! current value at construction time (so finite-difference probes that
//! mutate the store cannot corrupt an in-flight graph) and `backward`
//! accumulates gradients back into the store.
//!
//! # Memory plane
//!
//! Training replays the same graph shapes every step, so the tape recycles
//! its own memory instead of round-tripping through the allocator:
//!
//! * Every node value, gradient, and heavy op payload is drawn from a
//!   per-tape [`BufArena`] — a free list of size classes (exact up to 8
//!   floats, then four per octave), so a buffer freed by one sequence
//!   length serves the next batch's neighbouring lengths too. After
//!   [`Tape::reset`] returns those buffers, the next graph of similar
//!   shapes allocates next to nothing.
//! * [`Tape::backward`] returns each non-leaf gradient to the arena as
//!   soon as its rule has run, so later rules in the same sweep reuse it;
//!   only `input` and `param` gradients stay readable afterwards.
//! * Whole tapes are recycled through a global pool ([`Tape::batch`] for
//!   a training step, [`with_pooled_tape`] for a forward-only scope), so
//!   warm arenas carry across batches and across pool workers.
//! * `param` nodes capture the store's pack slot ([`ParamStore::packs`])
//!   alongside the value snapshot; forward matmuls and the `dA = dC·Bᵀ`
//!   backward contraction fill and reuse packed panels lazily, paying pack
//!   cost at most once per parameter generation — and only for GEMMs that
//!   actually dispatch to the tiled path.
//! * Backward accumulates in place: op rules write into arena buffers and
//!   donate them to the consumer via `add_grad_owned` instead of the old
//!   clone-then-add pattern.
//!
//! All of this is bit-transparent: dispatch thresholds and accumulation
//! orders are unchanged, so results are identical to the allocating paths.
//!
//! # Row bands
//!
//! A classifier loss reads only the \[CLS\] row of the last encoder layer,
//! so [`TransformerEncoder::encode_cls`](crate::TransformerEncoder::encode_cls)
//! builds that layer on the `kernels::band_rows(t, 0)` band (at most
//! [`kernels::MR`] rows) instead of all `t` rows, on this tape and on the
//! forward-only [`InferTape`](crate::InferTape) alike. [`Tape::matmul_band`] and [`Tape::matmul_tb_band`] take the leading
//! row band of a `full_m`-row operand and record `full_m` on the node: the
//! forward GEMM and both backward contractions (`dA`, and `dW = Aᵀ·dC`
//! through [`kernels::matmul_transpose_a_into`]) dispatch on it, so every
//! GEMM rounds as it would in the full-rows graph, where the rows outside
//! the band carry only zero gradients. The band's values, the gradients and
//! the dropout RNG stream are therefore bit-identical to the full pass, and
//! a full pass is the all-rows band of the same layer code.
//!
//! The op set is deliberately small — exactly what a Transformer
//! encoder/decoder, the Rotom filtering/weighting models, and the baseline
//! RNNs need. The Transformer ops (matmuls, `add`, `scale`, softmax, layer
//! norm, GELU) compute their values with the same [`kernels`] the
//! forward-only [`InferTape`](crate::InferTape) calls, and the layers run
//! one forward body on either executor (see [`Exec`](crate::Exec)), so the
//! two planes share one copy of every formula and every layer.

use crate::arena::BufArena;
use crate::kernels::{self, Act};
use crate::layers::{Exec, FwdCtx};
use crate::params::{ParamId, ParamPacks, ParamStore};
use crate::pool::RotomPool;
use crate::tensor::Tensor;
use crate::vmath;
use rotom_rng::RngExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy)]
pub struct NodeId(pub(crate) usize);

/// Additive attention mask: `0.0` for visible positions, `-1e9` for hidden.
pub type AttnMask = Tensor;

enum Op {
    /// Leaf holding a constant (input) value.
    Input,
    /// Leaf holding a snapshot of a parameter value, plus the store's pack
    /// slot for that snapshot's generation (direct panels for forward
    /// `A·B`, transposed for the backward `dC·Bᵀ` contraction). The `Arc`
    /// pins the slot the snapshot was taken from, so a later store update
    /// cannot invalidate it under an in-flight graph; panels fill lazily,
    /// only when a GEMM against this leaf takes the tiled path.
    Param {
        id: ParamId,
        packs: Arc<ParamPacks>,
    },
    /// Row-gather from an embedding table parameter.
    Embedding {
        table: ParamId,
        indices: Vec<usize>,
    },
    /// `a (m x k) * b (k x n)`, where `a` holds the leading `m` rows of a
    /// `full_m`-row operand (`m == full_m` for a full product); GEMMs
    /// dispatch on `full_m`, forward and backward.
    Matmul {
        a: NodeId,
        b: NodeId,
        full_m: usize,
    },
    /// `a (m x k) * b^T (n x k)`, with `Matmul`'s `full_m` rule.
    MatmulTb {
        a: NodeId,
        b: NodeId,
        full_m: usize,
    },
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    /// Broadcast add of a `1 x n` row to every row of an `m x n` matrix.
    AddRow(NodeId, NodeId),
    Scale(NodeId, f32),
    AddConst(NodeId),
    Relu(NodeId),
    /// GELU (tanh approximation); `t` caches the forward `tanh` values so
    /// the backward rule skips the libm call (bit-identical reuse).
    Gelu {
        a: NodeId,
        t: Vec<f32>,
    },
    Tanh(NodeId),
    Sigmoid(NodeId),
    /// Row-wise softmax (the additive mask, if any, is folded into the
    /// forward value and not needed by the backward rule).
    Softmax(NodeId),
    /// Row-wise log-softmax.
    LogSoftmax(NodeId),
    /// Row-wise layer normalization; `gamma`/`beta` are `1 x n` nodes.
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        /// Cached per-row (mean, inv_std) from the forward pass.
        cache: Vec<(f32, f32)>,
    },
    /// Inverted dropout; `mask` holds `0` or `1/(1-p)` per element.
    Dropout {
        x: NodeId,
        mask: Vec<f32>,
    },
    ConcatCols(Vec<NodeId>),
    ConcatRows(Vec<NodeId>),
    SliceCols {
        x: NodeId,
        start: usize,
        len: usize,
    },
    SliceRows {
        x: NodeId,
        start: usize,
        len: usize,
    },
    /// Mean over rows: `m x n -> 1 x n`.
    MeanRows(NodeId),
    /// Sum of equal-shaped nodes.
    SumNodes(Vec<NodeId>),
    /// Mean cross-entropy over rows of logits against soft targets.
    CrossEntropy {
        logits: NodeId,
        /// Row-major `m x C` soft target distribution.
        targets: Vec<f32>,
        /// Cached softmax of logits (reused by the backward rule).
        probs: Vec<f32>,
    },
    /// Sum of all elements: `m x n -> 1 x 1`.
    SumAll(NodeId),
    /// Elementwise reciprocal `1 / x`.
    Recip(NodeId),
}

struct Node {
    op: Op,
    value: Tensor,
    grad: Option<Tensor>,
}

/// Retained-capacity cap per tape arena (8M floats, 32 MB). At the
/// benchmark's EM shapes (d_model 32, max_len 72) one batch's tape peaks at
/// 2.3–5.4M floats in use, InvDA training's decoder tapes being the
/// largest; releasing non-leaf gradients during [`Tape::backward`] keeps
/// that under the cap, so a warm tape serves a batch almost entirely from
/// its arena. The cap keeps a pathological one-off graph from pinning
/// memory forever.
const ARENA_CAP_FLOATS: usize = 8 << 20;

/// A gradient tape. Create one per forward pass (typically per batch) — or
/// better, reuse one via [`with_pooled_tape`] so its arena stays warm.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    arena: BufArena<ARENA_CAP_FLOATS>,
    /// Recycled `Vec<usize>` payloads (embedding indices).
    ids_pool: Vec<Vec<usize>>,
    /// Recycled `Vec<NodeId>` payloads (concat/sum fan-ins).
    nids_pool: Vec<Vec<NodeId>>,
    /// Recycled layer-norm (mean, inv_std) caches.
    ln_pool: Vec<Vec<(f32, f32)>>,
}

/// Small-vec pools keep at most this many spares each.
const SMALL_POOL_CAP: usize = 64;

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: Vec::with_capacity(256),
            ..Self::default()
        }
    }

    /// Clear all nodes while retaining their buffers in the tape's arena, so
    /// the next graph of the same shapes allocates nothing. Node handles from
    /// before the reset must not be reused.
    pub fn reset(&mut self) {
        // Disjoint-field borrows: the drain holds `self.nodes`, recycling
        // touches only `self.arena` / the small pools.
        for node in self.nodes.drain(..) {
            let Node { op, value, grad } = node;
            self.arena.put(value.into_vec());
            if let Some(g) = grad {
                self.arena.put(g.into_vec());
            }
            match op {
                Op::Embedding { mut indices, .. } if self.ids_pool.len() < SMALL_POOL_CAP => {
                    indices.clear();
                    self.ids_pool.push(indices);
                }
                Op::Dropout { mask, .. } => self.arena.put(mask),
                Op::Gelu { t, .. } => self.arena.put(t),
                Op::LayerNorm { mut cache, .. } if self.ln_pool.len() < SMALL_POOL_CAP => {
                    cache.clear();
                    self.ln_pool.push(cache);
                }
                Op::CrossEntropy { targets, probs, .. } => {
                    self.arena.put(targets);
                    self.arena.put(probs);
                }
                Op::ConcatCols(mut v) | Op::ConcatRows(mut v) | Op::SumNodes(mut v)
                    if self.nids_pool.len() < SMALL_POOL_CAP =>
                {
                    v.clear();
                    self.nids_pool.push(v);
                }
                _ => {}
            }
        }
    }

    fn push(&mut self, op: Op, value: Tensor) -> NodeId {
        self.nodes.push(Node {
            op,
            value,
            grad: None,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Gradient of a leaf ([`input`](Self::input) or [`param`](Self::param)
    /// node) after [`backward`](Self::backward); zeros if the node did not
    /// participate. The sweep releases every other node's gradient once its
    /// rule has run, so for those this also reads zeros.
    pub fn grad(&self, id: NodeId) -> Tensor {
        match &self.nodes[id.0].grad {
            Some(g) => g.clone(),
            None => Tensor::zeros(self.nodes[id.0].value.rows(), self.nodes[id.0].value.cols()),
        }
    }

    #[inline]
    fn shape(&self, id: NodeId) -> (usize, usize) {
        let v = &self.nodes[id.0].value;
        (v.rows(), v.cols())
    }

    /// Elementwise map of a node's value into an arena tensor.
    fn map_into(&mut self, a: NodeId, f: impl Fn(f32) -> f32) -> Tensor {
        let (r, c) = self.shape(a);
        let mut out = self.arena.take_dirty(r * c);
        for (o, &x) in out.iter_mut().zip(self.nodes[a.0].value.data()) {
            *o = f(x);
        }
        Tensor::from_vec(out, r, c)
    }

    /// Elementwise zip of two equal-shaped node values into an arena tensor.
    fn zip_into(&mut self, a: NodeId, b: NodeId, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let (r, c) = self.shape(a);
        assert_eq!((r, c), self.shape(b), "zip shape mismatch");
        let mut out = self.arena.take_dirty(r * c);
        for ((o, &x), &y) in out
            .iter_mut()
            .zip(self.nodes[a.0].value.data())
            .zip(self.nodes[b.0].value.data())
        {
            *o = f(x, y);
        }
        Tensor::from_vec(out, r, c)
    }

    /// Recycled `Vec<NodeId>` holding a copy of `parts`.
    fn nid_list(&mut self, parts: &[NodeId]) -> Vec<NodeId> {
        let mut v = self.nids_pool.pop().unwrap_or_default();
        v.extend_from_slice(parts);
        v
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Constant input leaf.
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(Op::Input, value)
    }

    /// Parameter leaf: snapshots the current value from the store, along
    /// with the store's pack slot for this generation (used by
    /// [`matmul`](Self::matmul) and the matmul backward rules). Cloning the
    /// slot is a refcount bump — no panels are built here.
    pub fn param(&mut self, id: ParamId, store: &ParamStore) -> NodeId {
        let (r, c) = {
            let v = store.value(id);
            (v.rows(), v.cols())
        };
        let mut buf = self.arena.take_dirty(r * c);
        buf.copy_from_slice(store.value(id).data());
        let packs = store.packs(id);
        self.push(Op::Param { id, packs }, Tensor::from_vec(buf, r, c))
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// `a * b` (matrix product). When `b` is a parameter node and the shape
    /// dispatches to the tiled path, runs on the generation's cached panels
    /// (bit-identical to packing on the fly).
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let full_m = self.shape(a).0;
        self.matmul_band(a, b, full_m)
    }

    /// `a * b^T` without materializing the transpose.
    pub fn matmul_tb(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let full_m = self.shape(a).0;
        self.matmul_tb_band(a, b, full_m)
    }

    /// Elementwise `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip_into(a, b, |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise `a ⊙ b`.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip_into(a, b, |x, y| x * y);
        self.push(Op::Mul(a, b), v)
    }

    /// Add a `1 x n` row vector node to every row of an `m x n` node.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let (m, n) = self.shape(a);
        let (rr, rc) = self.shape(row);
        assert_eq!(rr, 1, "add_row expects a 1 x n row vector");
        assert_eq!(n, rc, "add_row width mismatch");
        let mut out = self.arena.take_dirty(m * n);
        {
            let av = self.nodes[a.0].value.data();
            let rv = self.nodes[row.0].value.data();
            for i in 0..m {
                for ((o, &x), &s) in out[i * n..(i + 1) * n]
                    .iter_mut()
                    .zip(&av[i * n..(i + 1) * n])
                    .zip(rv)
                {
                    *o = x + s;
                }
            }
        }
        self.push(Op::AddRow(a, row), Tensor::from_vec(out, m, n))
    }

    /// `a + c` elementwise for a constant `c`.
    pub fn add_const(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.map_into(a, |x| x + c);
        self.push(Op::AddConst(a), v)
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.map_into(a, |x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// GELU (tanh approximation). The forward `tanh` values are cached on
    /// the node for the backward rule — the expensive libm call is paid
    /// once, and reusing the identical value keeps gradients bit-identical
    /// to recomputation.
    pub(crate) fn gelu(&mut self, a: NodeId) -> NodeId {
        let (m, n) = self.shape(a);
        let mut t = self.arena.take_dirty(m * n);
        let mut out = self.arena.take_dirty(m * n);
        kernels::gelu_fwd(self.nodes[a.0].value.data(), &mut out, Some(&mut t));
        self.push(Op::Gelu { a, t }, Tensor::from_vec(out, m, n))
    }

    /// Hyperbolic tangent (the port of glibc's `tanhf`).
    pub(crate) fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.map_into(a, vmath::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Logistic sigmoid (over the port of glibc's `expf`).
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.map_into(a, |x| 1.0 / (1.0 + vmath::exp(-x)));
        self.push(Op::Sigmoid(a), v)
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: NodeId) -> NodeId {
        self.masked_softmax(a, None)
    }

    /// Row-wise log-softmax: `lse = sum.ln() + max` from the softmax row
    /// kernel's `(max, sum)`, as [`kernels::cross_entropy_row`] takes it.
    pub fn log_softmax(&mut self, a: NodeId) -> NodeId {
        let (m, n) = self.shape(a);
        let mut out = self.arena.take_dirty(m * n);
        {
            let x = &self.nodes[a.0].value;
            for i in 0..m {
                let row = x.row_slice(i);
                let o = &mut out[i * n..(i + 1) * n];
                let (max, sum) = kernels::softmax_row_fwd(row, None, o);
                let lse = sum.ln() + max;
                for (o, &v) in o.iter_mut().zip(row) {
                    *o = v - lse;
                }
            }
        }
        self.push(Op::LogSoftmax(a), Tensor::from_vec(out, m, n))
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Concatenate nodes along rows (all must share the column count).
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let cols = self.shape(parts[0]).1;
        let total: usize = parts.iter().map(|&p| self.shape(p).0).sum();
        let mut out = self.arena.take_dirty(total * cols);
        let mut off = 0;
        for &p in parts {
            let v = &self.nodes[p.0].value;
            assert_eq!(v.cols(), cols, "concat_rows col mismatch");
            out[off..off + v.len()].copy_from_slice(v.data());
            off += v.len();
        }
        let op = Op::ConcatRows(self.nid_list(parts));
        self.push(op, Tensor::from_vec(out, total, cols))
    }

    /// Mean over rows: `m x n -> 1 x n`.
    pub fn mean_rows(&mut self, x: NodeId) -> NodeId {
        let (rows, n) = self.shape(x);
        let m = rows as f32;
        let mut out = self.arena.take_zeroed(n);
        {
            let v = &self.nodes[x.0].value;
            for r in 0..rows {
                for (o, &s) in out.iter_mut().zip(v.row_slice(r)) {
                    *o += s / m;
                }
            }
        }
        self.push(Op::MeanRows(x), Tensor::from_vec(out, 1, n))
    }

    /// Elementwise sum of equal-shaped nodes.
    pub fn sum_nodes(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let (m, n) = self.shape(parts[0]);
        let mut out = self.arena.take_dirty(m * n);
        out.copy_from_slice(self.nodes[parts[0].0].value.data());
        let mut acc = Tensor::from_vec(out, m, n);
        for &p in &parts[1..] {
            acc.add_assign_from(&self.nodes[p.0].value);
        }
        let op = Op::SumNodes(self.nid_list(parts));
        self.push(op, acc)
    }

    /// Mean of equal-shaped nodes (convenience over sum + scale).
    pub fn mean_nodes(&mut self, parts: &[NodeId]) -> NodeId {
        let s = self.sum_nodes(parts);
        self.scale(s, 1.0 / parts.len() as f32)
    }

    /// Sum of all elements as a `1x1` node.
    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        let s = self.value(x).sum();
        let mut buf = self.arena.take_dirty(1);
        buf[0] = s;
        self.push(Op::SumAll(x), Tensor::from_vec(buf, 1, 1))
    }

    /// Elementwise reciprocal `1 / x` (used for in-graph weight
    /// normalization; inputs must be nonzero).
    pub fn recip(&mut self, x: NodeId) -> NodeId {
        let v = self.map_into(x, |a| 1.0 / a);
        self.push(Op::Recip(x), v)
    }

    /// Mean cross-entropy over logit rows against (soft) target rows.
    ///
    /// `targets` is row-major `m x C` and each row should be a probability
    /// distribution (one-hot for hard labels). The row softmax is computed
    /// once: its (max, sum) statistics give the log-sum-exp for the loss and
    /// the cached probabilities feed the backward rule.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[f32]) -> NodeId {
        let (m, c) = self.shape(logits);
        assert_eq!(targets.len(), m * c, "target shape mismatch");
        let mut probs = self.arena.take_dirty(m * c);
        let mut loss = 0.0f64;
        {
            let lv = &self.nodes[logits.0].value;
            for i in 0..m {
                let span = i * c..(i + 1) * c;
                kernels::cross_entropy_row(
                    lv.row_slice(i),
                    &targets[span.clone()],
                    &mut probs[span],
                    &mut loss,
                );
            }
        }
        let mut tbuf = self.arena.take_dirty(m * c);
        tbuf.copy_from_slice(targets);
        let mut vbuf = self.arena.take_dirty(1);
        vbuf[0] = (loss / m as f64) as f32;
        self.push(
            Op::CrossEntropy {
                logits,
                targets: tbuf,
                probs,
            },
            Tensor::from_vec(vbuf, 1, 1),
        )
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Reverse sweep from `loss` (must be `1x1`), accumulating parameter
    /// gradients into `store`. Gradients add onto whatever is already in the
    /// store, so call [`ParamStore::zero_grad`] first for a fresh pass.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        assert_eq!(self.value(loss).len(), 1, "backward target must be scalar");
        let mut seed = self.arena.take_dirty(1);
        seed[0] = 1.0;
        self.nodes[loss.0].grad = Some(Tensor::from_vec(seed, 1, 1));
        for i in (0..=loss.0).rev() {
            let grad = match self.nodes[i].grad.take() {
                Some(g) => g,
                None => continue,
            };
            self.accumulate(i, &grad, store);
            // Leaf gradients stay readable after the sweep; every other
            // gradient has been consumed and goes back to the arena, where
            // the rules still to run draw their buffers.
            match self.nodes[i].op {
                Op::Input | Op::Param { .. } => self.nodes[i].grad = Some(grad),
                _ => self.arena.put(grad.into_vec()),
            }
        }
    }

    /// `grad(id) += delta`, copying `delta` into an arena buffer when the
    /// node has no gradient yet.
    fn add_grad(&mut self, id: NodeId, delta: &Tensor) {
        if let Some(g) = &mut self.nodes[id.0].grad {
            g.add_assign_from(delta);
            return;
        }
        let mut buf = self.arena.take_dirty(delta.len());
        buf.copy_from_slice(delta.data());
        self.nodes[id.0].grad = Some(Tensor::from_vec(buf, delta.rows(), delta.cols()));
    }

    /// `grad(id) += delta`, donating `delta`'s buffer: it becomes the
    /// gradient when none exists yet, otherwise it is accumulated and
    /// recycled into the arena.
    fn add_grad_owned(&mut self, id: NodeId, delta: Tensor) {
        let node = &mut self.nodes[id.0];
        if let Some(g) = &mut node.grad {
            g.add_assign_from(&delta);
        } else {
            node.grad = Some(delta);
            return;
        }
        self.arena.put(delta.into_vec());
    }

    fn accumulate(&mut self, i: usize, grad: &Tensor, store: &mut ParamStore) {
        // Take op temporarily to appease the borrow checker; values of other
        // nodes are read through `self.nodes[..]`.
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Input);
        match &op {
            Op::Input => {}
            Op::Param { id, .. } => {
                store.grad_mut(*id).add_assign_from(grad);
            }
            Op::Embedding { table, indices } => {
                let g = store.grad_mut(*table);
                for (r, &idx) in indices.iter().enumerate() {
                    let src = grad.row_slice(r);
                    for (d, &s) in g.row_slice_mut(idx).iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
            Op::Matmul { a, b, full_m } => {
                // dA = dC * B^T ; dB = A^T * dC — both transpose-free, and
                // dA runs on the prepacked transposed panels when B is a
                // parameter. Both dispatch on the full row count.
                let full_m = *full_m;
                let (m, n) = (grad.rows(), grad.cols());
                let k = self.nodes[a.0].value.cols();
                let mut da = self.arena.take_dirty(m * k);
                let mut db = self.arena.take_dirty(k * n);
                {
                    let av = self.nodes[a.0].value.data();
                    let bn = &self.nodes[b.0];
                    let bv = bn.value.data();
                    let pool = RotomPool::global();
                    let pt = match &bn.op {
                        Op::Param { packs, .. } => packs.transposed(&bn.value, full_m),
                        _ => None,
                    };
                    let g = grad.data();
                    kernels::matmul_transpose_b_into(g, bv, pt, full_m, m, n, k, pool, &mut da);
                    kernels::matmul_transpose_a_into(av, g, full_m, m, k, n, pool, &mut db);
                }
                self.add_grad_owned(*a, Tensor::from_vec(da, m, k));
                self.add_grad_owned(*b, Tensor::from_vec(db, k, n));
            }
            Op::MatmulTb { a, b, full_m } => {
                // C = A * B^T ; dA = dC * B ; dB = dC^T * A
                let full_m = *full_m;
                let (m, n) = (grad.rows(), grad.cols());
                let k = self.nodes[a.0].value.cols();
                let mut da = self.arena.take_dirty(m * k);
                let mut db = self.arena.take_dirty(n * k);
                {
                    let av = self.nodes[a.0].value.data();
                    let bn = &self.nodes[b.0];
                    let bv = bn.value.data();
                    let pool = RotomPool::global();
                    let pk = match &bn.op {
                        Op::Param { packs, .. } => packs.direct(&bn.value, full_m),
                        _ => None,
                    };
                    let g = grad.data();
                    kernels::matmul_into(g, bv, pk, full_m, m, n, k, pool, &mut da);
                    kernels::matmul_transpose_a_into(g, av, full_m, m, n, k, pool, &mut db);
                }
                self.add_grad_owned(*a, Tensor::from_vec(da, m, k));
                self.add_grad_owned(*b, Tensor::from_vec(db, n, k));
            }
            Op::Add(a, b) => {
                self.add_grad(*a, grad);
                self.add_grad(*b, grad);
            }
            Op::Sub(a, b) => {
                self.add_grad(*a, grad);
                let mut neg = self.arena.take_dirty(grad.len());
                for (o, &g) in neg.iter_mut().zip(grad.data()) {
                    *o = -g;
                }
                self.add_grad_owned(*b, Tensor::from_vec(neg, grad.rows(), grad.cols()));
            }
            Op::Mul(a, b) => {
                let (m, n) = (grad.rows(), grad.cols());
                let mut da = self.arena.take_dirty(m * n);
                let mut db = self.arena.take_dirty(m * n);
                {
                    let av = self.nodes[a.0].value.data();
                    let bv = self.nodes[b.0].value.data();
                    for ((o, &g), &y) in da.iter_mut().zip(grad.data()).zip(bv) {
                        *o = g * y;
                    }
                    for ((o, &g), &x) in db.iter_mut().zip(grad.data()).zip(av) {
                        *o = g * x;
                    }
                }
                self.add_grad_owned(*a, Tensor::from_vec(da, m, n));
                self.add_grad_owned(*b, Tensor::from_vec(db, m, n));
            }
            Op::AddRow(a, row) => {
                self.add_grad(*a, grad);
                let n = grad.cols();
                let mut rg = self.arena.take_zeroed(n);
                for r in 0..grad.rows() {
                    for (o, &g) in rg.iter_mut().zip(grad.row_slice(r)) {
                        *o += g;
                    }
                }
                self.add_grad_owned(*row, Tensor::from_vec(rg, 1, n));
            }
            Op::Scale(a, c) => {
                let c = *c;
                let mut da = self.arena.take_dirty(grad.len());
                for (o, &g) in da.iter_mut().zip(grad.data()) {
                    *o = g * c;
                }
                self.add_grad_owned(*a, Tensor::from_vec(da, grad.rows(), grad.cols()));
            }
            Op::AddConst(a) => {
                self.add_grad(*a, grad);
            }
            Op::Relu(a) => {
                let da = self.bwd_zip(grad, a, |g, x| if x > 0.0 { g } else { 0.0 });
                self.add_grad_owned(*a, da);
            }
            Op::Gelu { a, t } => {
                // Reuses the forward-pass tanh cache `t`: the derivative
                // sees the identical tanh bits it would recompute.
                let mut da = self.arena.take_dirty(grad.len());
                {
                    let av = self.nodes[a.0].value.data();
                    for (((d, &g), &x), &th) in da.iter_mut().zip(grad.data()).zip(av).zip(t.iter())
                    {
                        *d = g * kernels::gelu_grad(x, th);
                    }
                }
                self.add_grad_owned(*a, Tensor::from_vec(da, grad.rows(), grad.cols()));
            }
            Op::Tanh(a) => {
                let da = self.bwd_zip_out(grad, i, |g, t| g * (1.0 - t * t));
                self.add_grad_owned(*a, da);
            }
            Op::Sigmoid(a) => {
                let da = self.bwd_zip_out(grad, i, |g, s| g * s * (1.0 - s));
                self.add_grad_owned(*a, da);
            }
            Op::Softmax(a) => {
                // dX_j = y_j * (g_j - Σ_k g_k y_k), row-wise.
                let (m, n) = (grad.rows(), grad.cols());
                let mut da = self.arena.take_dirty(m * n);
                {
                    let y = &self.nodes[i].value;
                    for r in 0..m {
                        let yr = y.row_slice(r);
                        let gr = grad.row_slice(r);
                        let dot: f32 = yr.iter().zip(gr).map(|(&yv, &gv)| yv * gv).sum();
                        for ((d, &yv), &gv) in da[r * n..(r + 1) * n].iter_mut().zip(yr).zip(gr) {
                            *d = yv * (gv - dot);
                        }
                    }
                }
                self.add_grad_owned(*a, Tensor::from_vec(da, m, n));
            }
            Op::LogSoftmax(a) => {
                // dX_j = g_j - softmax_j * Σ_k g_k, row-wise.
                let (m, n) = (grad.rows(), grad.cols());
                let mut da = self.arena.take_dirty(m * n);
                {
                    let y = &self.nodes[i].value;
                    for r in 0..m {
                        let yr = y.row_slice(r);
                        let gr = grad.row_slice(r);
                        let gsum: f32 = gr.iter().sum();
                        for ((d, &yv), &gv) in da[r * n..(r + 1) * n].iter_mut().zip(yr).zip(gr) {
                            *d = gv - vmath::exp(yv) * gsum;
                        }
                    }
                }
                self.add_grad_owned(*a, Tensor::from_vec(da, m, n));
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                cache,
            } => {
                let (m, nc) = (grad.rows(), grad.cols());
                let n = nc as f32;
                let mut dx = self.arena.take_dirty(m * nc);
                let mut dgamma = self.arena.take_zeroed(nc);
                let mut dbeta = self.arena.take_zeroed(nc);
                {
                    let xv = &self.nodes[x.0].value;
                    let gv = self.nodes[gamma.0].value.data();
                    for r in 0..m {
                        let (mean, inv_std) = cache[r];
                        let xr = xv.row_slice(r);
                        let gr = grad.row_slice(r);
                        // xhat_j = (x_j - mean) * inv_std
                        // dxhat_j = g_j * gamma_j
                        let mut sum_dxhat = 0.0f32;
                        let mut sum_dxhat_xhat = 0.0f32;
                        for j in 0..xr.len() {
                            let xhat = (xr[j] - mean) * inv_std;
                            let dxhat = gr[j] * gv[j];
                            sum_dxhat += dxhat;
                            sum_dxhat_xhat += dxhat * xhat;
                            dgamma[j] += gr[j] * xhat;
                            dbeta[j] += gr[j];
                        }
                        for j in 0..xr.len() {
                            let xhat = (xr[j] - mean) * inv_std;
                            let dxhat = gr[j] * gv[j];
                            dx[r * nc + j] =
                                inv_std * (dxhat - sum_dxhat / n - xhat * sum_dxhat_xhat / n);
                        }
                    }
                }
                self.add_grad_owned(*x, Tensor::from_vec(dx, m, nc));
                self.add_grad_owned(*gamma, Tensor::from_vec(dgamma, 1, nc));
                self.add_grad_owned(*beta, Tensor::from_vec(dbeta, 1, nc));
            }
            Op::Dropout { x, mask } => {
                let mut da = self.arena.take_dirty(grad.len());
                for ((o, &g), &mv) in da.iter_mut().zip(grad.data()).zip(mask) {
                    *o = g * mv;
                }
                self.add_grad_owned(*x, Tensor::from_vec(da, grad.rows(), grad.cols()));
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                let rows = grad.rows();
                for &p in parts {
                    let w = self.nodes[p.0].value.cols();
                    let mut dp = self.arena.take_dirty(rows * w);
                    for r in 0..rows {
                        dp[r * w..(r + 1) * w].copy_from_slice(&grad.row_slice(r)[off..off + w]);
                    }
                    self.add_grad_owned(p, Tensor::from_vec(dp, rows, w));
                    off += w;
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                let cols = grad.cols();
                for &p in parts {
                    let h = self.nodes[p.0].value.rows();
                    let mut dp = self.arena.take_dirty(h * cols);
                    dp.copy_from_slice(&grad.data()[off * cols..(off + h) * cols]);
                    self.add_grad_owned(p, Tensor::from_vec(dp, h, cols));
                    off += h;
                }
            }
            Op::SliceCols { x, start, len } => {
                let (m, n) = self.shape(*x);
                let mut dx = self.arena.take_zeroed(m * n);
                for r in 0..m {
                    dx[r * n + start..r * n + start + len].copy_from_slice(grad.row_slice(r));
                }
                self.add_grad_owned(*x, Tensor::from_vec(dx, m, n));
            }
            Op::SliceRows { x, start, len } => {
                let (m, n) = self.shape(*x);
                let mut dx = self.arena.take_zeroed(m * n);
                dx[start * n..(start + len) * n].copy_from_slice(grad.data());
                self.add_grad_owned(*x, Tensor::from_vec(dx, m, n));
            }
            Op::MeanRows(x) => {
                let (rows, n) = self.shape(*x);
                let m = rows as f32;
                let mut dx = self.arena.take_dirty(rows * n);
                for r in 0..rows {
                    for (d, &g) in dx[r * n..(r + 1) * n].iter_mut().zip(grad.data()) {
                        *d = g / m;
                    }
                }
                self.add_grad_owned(*x, Tensor::from_vec(dx, rows, n));
            }
            Op::SumNodes(parts) => {
                for &p in parts {
                    self.add_grad(p, grad);
                }
            }
            Op::SumAll(x) => {
                let g = grad.item();
                let (m, n) = self.shape(*x);
                let mut dx = self.arena.take_dirty(m * n);
                dx.fill(g);
                self.add_grad_owned(*x, Tensor::from_vec(dx, m, n));
            }
            Op::Recip(x) => {
                // d(1/x)/dx = -1/x², and 1/x is this node's cached value.
                let dx = self.bwd_zip_out(grad, i, |g, inv| -g * inv * inv);
                self.add_grad_owned(*x, dx);
            }
            Op::CrossEntropy {
                logits,
                targets,
                probs,
            } => {
                let g = grad.item();
                let (m, c) = self.shape(*logits);
                let scale = g / m as f32;
                let mut dl = self.arena.take_dirty(m * c);
                for ((o, &p), &t) in dl.iter_mut().zip(probs.iter()).zip(targets.iter()) {
                    *o = (p - t) * scale;
                }
                self.add_grad_owned(*logits, Tensor::from_vec(dl, m, c));
            }
        }
        self.nodes[i].op = op;
    }

    /// `f(grad, input_value)` elementwise into an arena tensor.
    fn bwd_zip(&mut self, grad: &Tensor, a: &NodeId, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = self.arena.take_dirty(grad.len());
        for ((o, &g), &x) in out
            .iter_mut()
            .zip(grad.data())
            .zip(self.nodes[a.0].value.data())
        {
            *o = f(g, x);
        }
        Tensor::from_vec(out, grad.rows(), grad.cols())
    }

    /// `f(grad, output_value_of_node_i)` elementwise into an arena tensor.
    fn bwd_zip_out(&mut self, grad: &Tensor, i: usize, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = self.arena.take_dirty(grad.len());
        for ((o, &g), &y) in out
            .iter_mut()
            .zip(grad.data())
            .zip(self.nodes[i].value.data())
        {
            *o = f(g, y);
        }
        Tensor::from_vec(out, grad.rows(), grad.cols())
    }
}

/// The ops the layers share with the [`InferTape`](crate::InferTape): each
/// records its node for backward.
impl Exec for Tape {
    fn value(&self, x: NodeId) -> &Tensor {
        Tape::value(self, x)
    }

    fn embed(&mut self, table: ParamId, store: &ParamStore, ids: &[usize]) -> NodeId {
        let t = store.value(table);
        let d = t.cols();
        let mut out = self.arena.take_dirty(ids.len() * d);
        for (r, &i) in ids.iter().enumerate() {
            out[r * d..(r + 1) * d].copy_from_slice(t.row_slice(i));
        }
        let mut indices = self.ids_pool.pop().unwrap_or_default();
        indices.extend_from_slice(ids);
        let value = Tensor::from_vec(out, ids.len(), d);
        self.push(Op::Embedding { table, indices }, value)
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (r, c) = self.shape(a);
        assert_eq!((r, c), self.shape(b), "add shape mismatch");
        let mut out = self.arena.take_dirty(r * c);
        let (av, bv) = (self.nodes[a.0].value.data(), self.nodes[b.0].value.data());
        kernels::add_fwd(av, bv, &mut out);
        self.push(Op::Add(a, b), Tensor::from_vec(out, r, c))
    }

    fn linear(
        &mut self,
        x: NodeId,
        w: ParamId,
        b: Option<ParamId>,
        full_rows: usize,
        act: Act,
        store: &ParamStore,
    ) -> NodeId {
        let w = self.param(w, store);
        let mut y = self.matmul_band(x, w, full_rows);
        if let Some(b) = b {
            let b = self.param(b, store);
            y = self.add_row(y, b);
        }
        match act {
            Act::None => y,
            Act::Gelu => self.gelu(y),
        }
    }

    fn norm(&mut self, x: NodeId, g: ParamId, b: ParamId, eps: f32, store: &ParamStore) -> NodeId {
        let (gamma, beta) = (self.param(g, store), self.param(b, store));
        let (m, nc) = self.shape(x);
        assert_eq!(self.shape(gamma), (1, nc));
        assert_eq!(self.shape(beta), (1, nc));
        let mut out = self.arena.take_dirty(m * nc);
        let mut cache = self.ln_pool.pop().unwrap_or_default();
        cache.resize(m, (0.0, 0.0));
        kernels::layernorm_fwd(
            self.nodes[x.0].value.data(),
            self.nodes[gamma.0].value.data(),
            self.nodes[beta.0].value.data(),
            eps,
            m,
            nc,
            &mut out,
            Some(&mut cache),
        );
        let op = Op::LayerNorm {
            x,
            gamma,
            beta,
            cache,
        };
        self.push(op, Tensor::from_vec(out, m, nc))
    }

    fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let (m, n) = self.shape(x);
        assert!(start + len <= m, "slice_rows out of bounds");
        let mut out = self.arena.take_dirty(len * n);
        out.copy_from_slice(&self.nodes[x.0].value.data()[start * n..(start + len) * n]);
        let op = Op::SliceRows { x, start, len };
        self.push(op, Tensor::from_vec(out, len, n))
    }

    fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let (m, n) = self.shape(x);
        assert!(start + len <= n, "slice_cols out of bounds");
        let mut out = self.arena.take_dirty(m * len);
        let v = &self.nodes[x.0].value;
        for r in 0..m {
            out[r * len..(r + 1) * len].copy_from_slice(&v.row_slice(r)[start..start + len]);
        }
        let op = Op::SliceCols { x, start, len };
        self.push(op, Tensor::from_vec(out, m, len))
    }

    fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let rows = self.shape(parts[0]).0;
        let total: usize = parts.iter().map(|&p| self.shape(p).1).sum();
        let mut out = self.arena.take_dirty(rows * total);
        let mut off = 0;
        for &p in parts {
            let v = &self.nodes[p.0].value;
            assert_eq!(v.rows(), rows, "concat_cols row mismatch");
            let w = v.cols();
            for r in 0..rows {
                out[r * total + off..r * total + off + w].copy_from_slice(v.row_slice(r));
            }
            off += w;
        }
        let op = Op::ConcatCols(self.nid_list(parts));
        self.push(op, Tensor::from_vec(out, rows, total))
    }

    /// Records `full_m` on the node: every GEMM of the node, forward and
    /// backward, dispatches on it, so the band's rows (and, when the other
    /// rows get no gradient, the weight gradient) are bit-identical to the
    /// full-rows product's. A parameter operand runs on its generation's
    /// cached panels at or above the tiled threshold.
    fn matmul_band(&mut self, a: NodeId, b: NodeId, full_m: usize) -> NodeId {
        let (m, k) = self.shape(a);
        let (k2, n) = self.shape(b);
        assert_eq!(k, k2, "matmul shape mismatch: {m}x{k} * {k2}x{n}");
        assert!(
            m <= full_m,
            "band of {m} rows exceeds its {full_m} full rows"
        );
        let mut out = self.arena.take_dirty(m * n);
        let (av, bn) = (self.nodes[a.0].value.data(), &self.nodes[b.0]);
        let pk = match &bn.op {
            Op::Param { packs, .. } => packs.direct(&bn.value, full_m),
            _ => None,
        };
        let pool = RotomPool::global();
        kernels::matmul_into(av, bn.value.data(), pk, full_m, m, k, n, pool, &mut out);
        self.push(Op::Matmul { a, b, full_m }, Tensor::from_vec(out, m, n))
    }

    fn matmul_tb_band(&mut self, a: NodeId, b: NodeId, full_m: usize) -> NodeId {
        let (m, k) = self.shape(a);
        let (n, k2) = self.shape(b);
        assert_eq!(k, k2, "matmul_tb shape mismatch: {m}x{k} * ({n}x{k2})^T");
        assert!(
            m <= full_m,
            "band of {m} rows exceeds its {full_m} full rows"
        );
        let mut out = self.arena.take_dirty(m * n);
        let (av, bv) = (self.nodes[a.0].value.data(), self.nodes[b.0].value.data());
        let pool = RotomPool::global();
        kernels::matmul_transpose_b_into(av, bv, None, full_m, m, k, n, pool, &mut out);
        self.push(Op::MatmulTb { a, b, full_m }, Tensor::from_vec(out, m, n))
    }

    fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let (r, cols) = self.shape(a);
        let mut out = self.arena.take_dirty(r * cols);
        out.copy_from_slice(self.nodes[a.0].value.data());
        kernels::scale_fwd(&mut out, c);
        self.push(Op::Scale(a, c), Tensor::from_vec(out, r, cols))
    }

    fn masked_softmax(&mut self, a: NodeId, mask: Option<&AttnMask>) -> NodeId {
        let (m, n) = self.shape(a);
        if let Some(mk) = mask {
            assert_eq!((mk.rows(), mk.cols()), (m, n), "mask shape mismatch");
        }
        let mut out = self.arena.take_dirty(m * n);
        let x = self.nodes[a.0].value.data();
        kernels::softmax_fwd(x, mask.map(|mk| mk.data()), m, n, &mut out);
        self.push(Op::Softmax(a), Tensor::from_vec(out, m, n))
    }

    /// Inverted dropout with keep-probability `1 - p`: draws the
    /// `full_rows`-row activation's Bernoulli(1-p) bits from the context's
    /// RNG in element order, straight into the arena mask (`1/(1-p)` kept,
    /// `0` dropped), and discards the draws past `x`'s elements.
    fn dropout(&mut self, x: NodeId, full_rows: usize, ctx: &mut FwdCtx<'_>) -> NodeId {
        let (m, n) = self.shape(x);
        let Some((p, rng)) = ctx.dropout_source() else {
            return x;
        };
        let keep = 1.0 - p;
        let mut mask = self.arena.take_dirty(m * n);
        for o in mask.iter_mut() {
            *o = if rng.random_bool(keep as f64) {
                1.0 / keep
            } else {
                0.0
            };
        }
        for _ in m * n..full_rows * n {
            rng.random_bool(keep as f64);
        }
        let mut data = self.arena.take_dirty(m * n);
        for ((o, &v), &mv) in data.iter_mut().zip(self.nodes[x.0].value.data()).zip(&mask) {
            *o = v * mv;
        }
        self.push(Op::Dropout { x, mask }, Tensor::from_vec(data, m, n))
    }
}

// ---------------------------------------------------------------------------
// Global tape pool
// ---------------------------------------------------------------------------

/// Spare reset tapes kept globally (bounded so transient fan-outs cannot pin
/// unbounded arena memory).
const MAX_POOLED_TAPES: usize = 16;

/// Total arena floats the pooled tapes may pin together (128 MB). Each tape
/// is already capped individually ([`ARENA_CAP_FLOATS`]); this bounds the
/// pool as a whole so a burst of large-graph tapes cannot park
/// `MAX_POOLED_TAPES` worst-case arenas at once.
const MAX_POOLED_RETAINED_FLOATS: usize = 32 << 20;

static TAPE_POOL: Mutex<Vec<Tape>> = Mutex::new(Vec::new());

/// Tapes dropped (not pooled) on recycling because the pool was full or its
/// retained-floats budget was exhausted.
static TAPE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Whether a tape retaining `incoming` floats must be dropped rather than
/// pooled, given the pool's current occupancy.
fn tape_should_evict(pool_len: usize, pooled_retained: usize, incoming: usize) -> bool {
    pool_len >= MAX_POOLED_TAPES || pooled_retained + incoming > MAX_POOLED_RETAINED_FLOATS
}

/// Cumulative count of tapes the pool dropped instead of keeping (process
/// lifetime). Exposed as the `arena.tape_evictions` gauge.
pub fn tape_eviction_count() -> u64 {
    TAPE_EVICTIONS.load(Ordering::Relaxed)
}

/// Run `f` with a tape from the global pool, recycling it afterwards. The
/// warm arena makes repeated same-shape graphs allocation-free; results are
/// bit-identical to using a fresh [`Tape::new`].
pub fn with_pooled_tape<R>(f: impl FnOnce(&mut Tape) -> R) -> R {
    let mut pooled = TapeBatch::take(Vec::new());
    f(&mut pooled.tape)
}

/// A pooled tape holding the node [`Tape::batch`] built for each item,
/// ended by one backward. Dropping it resets the tape and returns it to the
/// pool, or drops it (counted in [`tape_eviction_count`]) beyond the pool's
/// size or retained-floats budget.
pub struct TapeBatch {
    tape: Tape,
    nodes: Vec<NodeId>,
}

impl Tape {
    /// Build one node per item on a pooled tape, in input order: the one
    /// home of a training step's tape.
    pub fn batch<I: IntoIterator>(
        items: I,
        mut build: impl FnMut(&mut Tape, I::Item) -> NodeId,
    ) -> TapeBatch {
        let items = items.into_iter();
        let mut batch = TapeBatch::take(Vec::with_capacity(items.size_hint().0));
        for item in items {
            batch.nodes.push(build(&mut batch.tape, item));
        }
        batch
    }
}

impl TapeBatch {
    fn take(nodes: Vec<NodeId>) -> Self {
        let tape = TAPE_POOL.lock().unwrap().pop().unwrap_or_default();
        Self { tape, nodes }
    }

    /// The epilogue every training loop shares: average the nodes, zero
    /// `store`'s gradients, backpropagate, and clip the gradient L2 norm to
    /// 5. Returns the mean loss, or `None`, with `store` untouched, when the
    /// batch has no node. The caller applies its own optimizer step.
    pub fn backward_mean_clipped(self, store: &mut ParamStore) -> Option<f32> {
        if self.nodes.is_empty() {
            return None;
        }
        let loss = self.backward(store, |tape, nodes| tape.mean_nodes(nodes));
        store.clip_grad_norm(5.0);
        Some(loss)
    }

    /// Zero `store`'s gradients and backpropagate the scalar `objective`
    /// builds from the batch's nodes. Returns the objective's value.
    pub fn backward(
        mut self,
        store: &mut ParamStore,
        objective: impl FnOnce(&mut Tape, &[NodeId]) -> NodeId,
    ) -> f32 {
        let loss = objective(&mut self.tape, &self.nodes);
        let value = self.tape.value(loss).item();
        store.zero_grad();
        self.tape.backward(loss, store);
        value
    }
}

impl Drop for TapeBatch {
    fn drop(&mut self) {
        let mut tape = std::mem::take(&mut self.tape);
        tape.reset();
        // `drop` must not panic; every pool update leaves the pool valid.
        let mut pool = TAPE_POOL.lock().unwrap_or_else(PoisonError::into_inner);
        let pooled_retained: usize = pool.iter().map(|t| t.arena.retained()).sum();
        if tape_should_evict(pool.len(), pooled_retained, tape.arena.retained()) {
            TAPE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
            return;
        }
        pool.push(tape);
    }
}

/// Snapshot of the global tape pool for the telemetry plane:
/// `(pooled_tapes, retained_floats)` — how many reset tapes are parked and
/// how many arena floats they pin in total. Read-only; never blocks writers
/// beyond one short lock.
pub fn pooled_tape_stats() -> (usize, usize) {
    let pool = TAPE_POOL.lock().unwrap();
    let retained: usize = pool.iter().map(|t| t.arena.retained()).sum();
    (pool.len(), retained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use rotom_rng::rngs::StdRng;
    use rotom_rng::SeedableRng;

    #[test]
    fn tape_eviction_policy_bounds_count_and_retention() {
        assert!(!tape_should_evict(0, 0, 0));
        assert!(!tape_should_evict(
            MAX_POOLED_TAPES - 1,
            0,
            ARENA_CAP_FLOATS
        ));
        assert!(tape_should_evict(MAX_POOLED_TAPES, 0, 0));
        assert!(tape_should_evict(1, MAX_POOLED_RETAINED_FLOATS, 1));
        assert!(!tape_should_evict(1, MAX_POOLED_RETAINED_FLOATS - 8, 8));
    }

    #[test]
    fn tape_evictions_are_counted() {
        // Overfill the global pool; once it is at capacity, further
        // recycles must be dropped and counted. Bounded loop instead of a
        // fixed count: concurrent tests may pop tapes between our pushes.
        let before = tape_eviction_count();
        for _ in 0..1000 {
            drop(TapeBatch {
                tape: Tape::new(),
                nodes: Vec::new(),
            });
            if tape_eviction_count() > before {
                return;
            }
        }
        panic!("recycling 1000 tapes never evicted (pool cap {MAX_POOLED_TAPES})");
    }

    /// `backward_mean_clipped` is the hand-rolled mean/zero/backward/clip
    /// epilogue bit for bit, and an empty batch leaves the store untouched.
    #[test]
    fn batch_backward_mean_clipped_matches_hand_rolled_epilogue() {
        let fresh_store = || {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(4);
            let w = store.alloc("w", 3, 2, Initializer::Uniform(2.0), &mut rng);
            (store, w)
        };
        let (mut store, w) = fresh_store();
        let (mut want, _) = fresh_store();
        let rows = [[1.0, -2.0, 0.5], [3.0, 0.25, -1.0], [-0.5, 4.0, 2.0]];
        let build = |tape: &mut Tape, x: &[f32; 3], store: &ParamStore| {
            let xn = tape.input(Tensor::from_vec(x.to_vec(), 1, 3));
            let wn = tape.param(w, store);
            let z = tape.matmul(xn, wn);
            tape.cross_entropy(z, &[0.0, 1.0])
        };

        let mut tape = Tape::new();
        let losses: Vec<NodeId> = rows.iter().map(|x| build(&mut tape, x, &store)).collect();
        let mean = tape.mean_nodes(&losses);
        want.zero_grad();
        tape.backward(mean, &mut want);
        want.clip_grad_norm(5.0);

        let batch = Tape::batch(&rows, |tape, x| build(tape, x, &store));
        let got = batch.backward_mean_clipped(&mut store);
        assert_eq!(
            got.map(f32::to_bits),
            Some(tape.value(mean).item().to_bits())
        );
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(store.flat_grads()), bits(want.flat_grads()));

        let before = bits(store.flat_grads());
        let empty = Tape::batch(&rows[..0], |tape, x| build(tape, x, &store));
        assert_eq!(empty.backward_mean_clipped(&mut store), None);
        assert_eq!(bits(store.flat_grads()), before);
    }

    #[test]
    fn matmul_forward_backward() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let w = store.alloc("w", 2, 2, Initializer::Uniform(1.0), &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![1.0, 2.0], 1, 2));
        let wp = tape.param(w, &store);
        let y = tape.matmul(x, wp);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);
        // d loss / d W = x^T * ones = [[1,1],[2,2]]
        assert_eq!(store.grad(w).data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn cross_entropy_matches_log_softmax_nll() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let logits = tape.input(Tensor::from_vec(vec![0.3, -1.2, 2.0], 1, 3));
        let ce = tape.cross_entropy(logits, &[0.0, 0.0, 1.0]);
        let ls = tape.log_softmax(logits);
        let expected = -tape.value(ls).at(0, 2);
        assert!((tape.value(ce).item() - expected).abs() < 1e-5);
        tape.backward(ce, &mut store);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], 2, 3));
        let s = tape.softmax(x);
        for r in 0..2 {
            let sum: f32 = tape.value(s).row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_softmax_zeroes_hidden_positions() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![1.0, 2.0, 3.0], 1, 3));
        let mask = Tensor::from_vec(vec![0.0, -1e9, 0.0], 1, 3);
        let s = tape.masked_softmax(x, Some(&mask));
        assert!(tape.value(s).at(0, 1) < 1e-6);
        let sum: f32 = tape.value(s).row_slice(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    /// Numerical gradient check across a composite graph touching most ops.
    #[test]
    fn gradcheck_composite() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let w1 = store.alloc("w1", 3, 4, Initializer::Uniform(0.6), &mut rng);
        let b1 = store.alloc("b1", 1, 4, Initializer::Uniform(0.3), &mut rng);
        let gamma = store.alloc("g", 1, 4, Initializer::Ones, &mut rng);
        let beta = store.alloc("b", 1, 4, Initializer::Zeros, &mut rng);
        let w2 = store.alloc("w2", 4, 3, Initializer::Uniform(0.6), &mut rng);

        let xin = Tensor::from_vec(vec![0.5, -0.3, 0.8, 0.1, 0.9, -0.2], 2, 3);
        let targets = vec![1.0, 0.0, 0.0, 0.0, 0.5, 0.5];

        let run = |store: &mut ParamStore, backward: bool| -> f32 {
            let mut tape = Tape::new();
            let x = tape.input(xin.clone());
            let w1n = tape.param(w1, store);
            let b1n = tape.param(b1, store);
            let w2n = tape.param(w2, store);
            let h = tape.matmul(x, w1n);
            let h = tape.add_row(h, b1n);
            let h = tape.gelu(h);
            let h = tape.norm(h, gamma, beta, 1e-5, store);
            let logits = tape.matmul(h, w2n);
            let loss = tape.cross_entropy(logits, &targets);
            let lv = tape.value(loss).item();
            if backward {
                store.zero_grad();
                tape.backward(loss, store);
            }
            lv
        };

        let _ = run(&mut store, true);
        let analytic = store.flat_grads();
        let theta = store.flat_values();
        let eps = 1e-3f32;
        let mut checked = 0;
        for k in (0..theta.len()).step_by(7) {
            let mut tp = theta.clone();
            tp[k] += eps;
            store.set_flat(&tp);
            let lp = run(&mut store, false);
            tp[k] -= 2.0 * eps;
            store.set_flat(&tp);
            let lm = run(&mut store, false);
            store.set_flat(&theta);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic[k];
            let denom = a.abs().max(numeric.abs()).max(1e-3);
            assert!(
                ((a - numeric) / denom).abs() < 0.05,
                "grad mismatch at {k}: analytic {a} vs numeric {numeric}"
            );
            checked += 1;
        }
        assert!(checked > 3);
    }

    /// Generic finite-difference check for a graph built over a single
    /// parameter tensor.
    fn gradcheck_param(rows: usize, cols: usize, build: impl Fn(&mut Tape, NodeId) -> NodeId) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut store = ParamStore::new();
        let w = store.alloc("w", rows, cols, Initializer::Uniform(0.7), &mut rng);
        let run = |store: &mut ParamStore, backward: bool| -> f32 {
            let mut tape = Tape::new();
            let wn = tape.param(w, store);
            let out = build(&mut tape, wn);
            let loss = if tape.value(out).len() == 1 {
                out
            } else {
                tape.sum_all(out)
            };
            let v = tape.value(loss).item();
            if backward {
                store.zero_grad();
                tape.backward(loss, store);
            }
            v
        };
        let _ = run(&mut store, true);
        let analytic = store.flat_grads();
        let theta = store.flat_values();
        let eps = 1e-3f32;
        for k in 0..theta.len() {
            let mut tp = theta.clone();
            tp[k] += eps;
            store.set_flat(&tp);
            let lp = run(&mut store, false);
            tp[k] -= 2.0 * eps;
            store.set_flat(&tp);
            let lm = run(&mut store, false);
            store.set_flat(&theta);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[k] - numeric).abs() < 0.02 + 0.05 * numeric.abs(),
                "grad mismatch at {k}: {} vs {numeric}",
                analytic[k]
            );
        }
    }

    #[test]
    fn gradcheck_concat_and_slice() {
        gradcheck_param(2, 3, |t, w| {
            let a = t.slice_cols(w, 0, 2);
            let b = t.slice_cols(w, 1, 2);
            let c = t.concat_cols(&[a, b]);
            let r = t.slice_rows(c, 1, 1);
            t.tanh(r)
        });
    }

    #[test]
    fn gradcheck_mean_rows_and_sigmoid() {
        gradcheck_param(3, 2, |t, w| {
            let m = t.mean_rows(w);
            t.sigmoid(m)
        });
    }

    #[test]
    fn gradcheck_log_softmax() {
        gradcheck_param(2, 3, |t, w| {
            let ls = t.log_softmax(w);
            let picked = t.slice_cols(ls, 1, 1);
            t.sum_all(picked)
        });
    }

    #[test]
    fn gradcheck_softmax_through_matmul() {
        gradcheck_param(2, 2, |t, w| {
            let s = t.softmax(w);
            let y = t.matmul(s, w);
            t.relu(y)
        });
    }

    /// Pins the cross-entropy backward rule to the softmax probabilities
    /// cached by the single-pass forward (soft targets exercise every prob).
    #[test]
    fn gradcheck_cross_entropy_soft_targets() {
        gradcheck_param(3, 4, |t, w| {
            let x = t.input(Tensor::from_vec(
                vec![
                    0.4, -0.6, 1.1, 0.2, -0.9, 0.7, 0.3, -0.2, 0.8, -1.0, 0.5, 0.6,
                ],
                3,
                4,
            ));
            let logits = t.mul(x, w);
            t.cross_entropy(
                logits,
                &[
                    0.7, 0.1, 0.1, 0.1, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.5, 0.5,
                ],
            )
        });
    }

    #[test]
    fn gradcheck_sub_mul_chain() {
        gradcheck_param(1, 3, |t, w| {
            let a = t.scale(w, 2.0);
            let b = t.add_const(w, 0.3);
            let d = t.sub(a, b);
            let m = t.mul(d, w);
            t.gelu(m)
        });
    }

    #[test]
    fn gradcheck_concat_rows() {
        gradcheck_param(2, 2, |t, w| {
            let a = t.relu(w);
            let b = t.tanh(w);
            t.concat_rows(&[a, b])
        });
    }

    #[test]
    fn dropout_train_scales_kept_values() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![2.0; 64], 1, 64));
        let mut rng = StdRng::seed_from_u64(3);
        let y = tape.dropout(x, 1, &mut FwdCtx::train(&store, 0.5, &mut rng));
        let ys = tape.value(y).data().to_vec();
        assert!(ys.iter().all(|&v| v == 0.0 || v == 4.0), "{ys:?}");
        assert!(ys.contains(&0.0) && ys.contains(&4.0));
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);
        let want: Vec<f32> = ys.iter().map(|&v| v / 2.0).collect();
        assert_eq!(tape.grad(x).data(), &want[..]);
    }

    #[test]
    fn dropout_mask_has_expected_density() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![1.0; 4000], 1, 4000));
        let (store, mut rng) = (ParamStore::new(), StdRng::seed_from_u64(1));
        let y = tape.dropout(x, 1, &mut FwdCtx::train(&store, 0.25, &mut rng));
        let kept = tape.value(y).data().iter().filter(|&&v| v != 0.0).count();
        // Keep probability 0.75: expect ~3000 ± noise.
        assert!((2800..3200).contains(&kept), "kept {kept}");
    }

    #[test]
    fn recip_value_and_gradient() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![2.0, 4.0], 1, 2));
        let y = tape.recip(x);
        assert_eq!(tape.value(y).data(), &[0.5, 0.25]);
        let loss = tape.sum_all(y);
        tape.backward(loss, &mut store);
        // d(1/x)/dx = -1/x^2
        assert_eq!(tape.grad(x).data(), &[-0.25, -0.0625]);
    }

    #[test]
    fn embedding_scatter_adds() {
        let mut store = ParamStore::new();
        let table = store.push("emb", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2));
        let mut tape = Tape::new();
        let e = tape.embed(table, &store, &[0, 1, 0]);
        assert_eq!(tape.value(e).rows(), 3);
        let loss = tape.sum_all(e);
        tape.backward(loss, &mut store);
        // Row 0 gathered twice -> grad 2, row 1 once -> grad 1.
        assert_eq!(store.grad(table).data(), &[2.0, 2.0, 1.0, 1.0]);
    }

    /// A reused (reset) tape must reproduce a fresh tape's loss and
    /// gradients bit-for-bit — the arena is an allocation strategy, not a
    /// numerics change.
    #[test]
    fn reused_tape_is_bit_identical_to_fresh() {
        let mut rng = StdRng::seed_from_u64(123);
        let mut store = ParamStore::new();
        let w1 = store.alloc("w1", 8, 16, Initializer::Uniform(0.5), &mut rng);
        let w2 = store.alloc("w2", 16, 4, Initializer::Uniform(0.5), &mut rng);
        let xin: Vec<f32> = (0..48).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect();
        let targets = {
            let mut t = vec![0.0f32; 6 * 4];
            for r in 0..6 {
                t[r * 4 + r % 4] = 1.0;
            }
            t
        };
        let run = |tape: &mut Tape, store: &mut ParamStore| -> (f32, Vec<f32>) {
            let x = tape.input(Tensor::from_vec(xin.clone(), 6, 8));
            let w1n = tape.param(w1, store);
            let w2n = tape.param(w2, store);
            let h = tape.matmul(x, w1n);
            let h = tape.relu(h);
            let logits = tape.matmul(h, w2n);
            let loss = tape.cross_entropy(logits, &targets);
            let lv = tape.value(loss).item();
            store.zero_grad();
            tape.backward(loss, store);
            (lv, store.flat_grads())
        };
        let mut fresh = Tape::new();
        let (l0, g0) = run(&mut fresh, &mut store);
        let mut reused = Tape::new();
        for _ in 0..3 {
            let (l1, g1) = run(&mut reused, &mut store);
            assert_eq!(l0.to_bits(), l1.to_bits(), "loss drifted across reuse");
            assert_eq!(g0, g1, "gradients drifted across reuse");
            let nodes_before = reused.nodes.len();
            reused.reset();
            assert!(reused.nodes.is_empty());
            assert!(nodes_before > 0);
        }
        // And through the global pool helpers.
        let (l2, g2) = with_pooled_tape(|t| run(t, &mut store));
        assert_eq!(l0.to_bits(), l2.to_bits());
        assert_eq!(g0, g2);
    }

    /// `backward` keeps `input` and `param` gradients readable and returns
    /// every other gradient to the arena during the sweep.
    #[test]
    fn backward_keeps_leaf_gradients_and_releases_the_rest() {
        let mut store = ParamStore::new();
        let w = store.push("w", Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], 2, 2));
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![2.0, 3.0], 1, 2));
        let wn = tape.param(w, &store);
        let y = tape.matmul(x, wn);
        let z = tape.scale(y, 2.0);
        let loss = tape.sum_all(z);
        tape.backward(loss, &mut store);
        // d loss/dx = 2 · (row sums of W); d loss/dW = 2 · xᵀ · ones.
        assert_eq!(tape.grad(x).data(), &[-2.0, 7.0]);
        assert_eq!(tape.grad(wn).data(), &[4.0, 4.0, 6.0, 6.0]);
        assert_eq!(store.grad(w).data(), tape.grad(wn).data());
        for released in [y, z, loss] {
            assert!(tape.nodes[released.0].grad.is_none());
        }
        // The released buffers went back to the arena.
        assert!(tape.arena.retained() > 0);
    }
}
