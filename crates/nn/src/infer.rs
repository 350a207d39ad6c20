//! Forward-only inference plane: the [`InferTape`] executor.
//!
//! Evaluation, M_F scoring, the M± probe losses and InvDA decoding never
//! need the [`Tape`](crate::graph::Tape)'s parameter snapshots, backward
//! caches or gradient slots. [`InferTape`] runs the same layer code (every
//! layer's forward is generic over [`Exec`]) without them: each op writes
//! its value into a buffer from a size-classed free list and returns a
//! handle, and linear layers run the fused bias+activation GEMM over the
//! store's packed panels, read-only. Both executors compute every value
//! with the same [`kernels`] and dispatch every GEMM on the same `full_m`,
//! so the two planes are bit-identical by construction (golden runs pin
//! evaluation accuracies and InvDA generations; see the "Inference plane"
//! section of DESIGN.md).

use crate::arena::BufArena;
use crate::graph::{AttnMask, NodeId};
use crate::kernels::{self, Act};
use crate::layers::{Exec, FwdCtx};
use crate::params::{ParamId, ParamStore};
use crate::pool::RotomPool;
use crate::tensor::Tensor;
use std::sync::{Mutex, PoisonError};

/// Cap on float capacity retained by one [`InferTape`]'s free list (4M
/// floats = 16 MiB): buffers beyond the cap are dropped on return instead of
/// pooled.
const INFER_CAP_FLOATS: usize = 4 << 20;

/// Number of [`InferTape`]s the global pool retains.
const MAX_POOLED_INFER_TAPES: usize = 8;

/// Forward-only executor: handle-addressed activation buffers, no backward
/// state. Every op takes a buffer of exactly its output's size with stale
/// contents and fully overwrites it. Handles stay valid until
/// [`truncate`](Self::truncate): a decode loop keeps the encoder memory and
/// the cross-attention K/V below a [`mark`](Self::mark) and truncates each
/// step back to it.
#[derive(Default)]
pub struct InferTape {
    values: Vec<Tensor>,
    arena: BufArena<INFER_CAP_FLOATS>,
}

impl InferTape {
    /// An empty executor.
    pub fn new() -> Self {
        Self::default()
    }

    /// A mark to [`truncate`](Self::truncate) back to: every handle issued
    /// before it stays valid.
    pub fn mark(&self) -> usize {
        self.values.len()
    }

    /// Return every buffer issued since `mark` to the free list; their
    /// handles must not be used again.
    pub fn truncate(&mut self, mark: usize) {
        for v in self.values.drain(mark..) {
            self.arena.put(v.into_vec());
        }
    }

    fn push(&mut self, value: Vec<f32>, rows: usize, cols: usize) -> NodeId {
        self.values.push(Tensor::from_vec(value, rows, cols));
        NodeId(self.values.len() - 1)
    }

    fn shape(&self, x: NodeId) -> (usize, usize) {
        let v = &self.values[x.0];
        (v.rows(), v.cols())
    }
}

impl Exec for InferTape {
    fn value(&self, x: NodeId) -> &Tensor {
        &self.values[x.0]
    }

    fn embed(&mut self, table: ParamId, store: &ParamStore, ids: &[usize]) -> NodeId {
        let table = store.value(table);
        let d = table.cols();
        let mut out = self.arena.take_dirty(ids.len() * d);
        for (r, &id) in ids.iter().enumerate() {
            out[r * d..(r + 1) * d].copy_from_slice(table.row_slice(id));
        }
        self.push(out, ids.len(), d)
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, n) = self.shape(a);
        let mut out = self.arena.take_dirty(m * n);
        kernels::add_fwd(self.values[a.0].data(), self.values[b.0].data(), &mut out);
        self.push(out, m, n)
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
        let (m, k) = self.shape(x);
        let wv = store.value(w);
        let n = wv.cols();
        // Panels exactly where the tape's `matmul_band` uses them.
        let packs = store.packs(w);
        let pk = packs.direct(wv, full_rows);
        let bias = b.map(|b| store.value(b).data());
        let mut out = self.arena.take_dirty(m * n);
        let (xv, w, pool) = (self.values[x.0].data(), wv.data(), RotomPool::global());
        kernels::matmul_bias_act_into(xv, w, pk, bias, act, full_rows, m, k, n, pool, &mut out);
        self.push(out, m, n)
    }

    fn norm(&mut self, x: NodeId, g: ParamId, b: ParamId, eps: f32, store: &ParamStore) -> NodeId {
        let (m, n) = self.shape(x);
        let (g, b) = (store.value(g).data(), store.value(b).data());
        let mut out = self.arena.take_dirty(m * n);
        kernels::layernorm_fwd(self.values[x.0].data(), g, b, eps, m, n, &mut out, None);
        self.push(out, m, n)
    }

    fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let n = self.shape(x).1;
        let mut out = self.arena.take_dirty(len * n);
        out.copy_from_slice(&self.values[x.0].data()[start * n..(start + len) * n]);
        self.push(out, len, n)
    }

    fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let m = self.shape(x).0;
        let mut out = self.arena.take_dirty(m * len);
        let v = &self.values[x.0];
        for r in 0..m {
            out[r * len..(r + 1) * len].copy_from_slice(&v.row_slice(r)[start..start + len]);
        }
        self.push(out, m, len)
    }

    fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let m = self.shape(parts[0]).0;
        let total: usize = parts.iter().map(|&p| self.shape(p).1).sum();
        let mut out = self.arena.take_dirty(m * total);
        let mut off = 0;
        for &p in parts {
            let (v, w) = (&self.values[p.0], self.shape(p).1);
            for r in 0..m {
                out[r * total + off..r * total + off + w].copy_from_slice(v.row_slice(r));
            }
            off += w;
        }
        self.push(out, m, total)
    }

    fn matmul_band(&mut self, a: NodeId, b: NodeId, full_m: usize) -> NodeId {
        let ((m, k), n) = (self.shape(a), self.shape(b).1);
        let mut out = self.arena.take_dirty(m * n);
        let (av, bv) = (self.values[a.0].data(), self.values[b.0].data());
        kernels::matmul_into(av, bv, None, full_m, m, k, n, RotomPool::global(), &mut out);
        self.push(out, m, n)
    }

    fn matmul_tb_band(&mut self, a: NodeId, b: NodeId, full_m: usize) -> NodeId {
        let ((m, k), n) = (self.shape(a), self.shape(b).0);
        let mut out = self.arena.take_dirty(m * n);
        let (av, bv) = (self.values[a.0].data(), self.values[b.0].data());
        let pool = RotomPool::global();
        kernels::matmul_transpose_b_into(av, bv, None, full_m, m, k, n, pool, &mut out);
        self.push(out, m, n)
    }

    fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let (m, n) = self.shape(a);
        let mut out = self.arena.take_dirty(m * n);
        out.copy_from_slice(self.values[a.0].data());
        kernels::scale_fwd(&mut out, c);
        self.push(out, m, n)
    }

    fn masked_softmax(&mut self, a: NodeId, mask: Option<&AttnMask>) -> NodeId {
        let (m, n) = self.shape(a);
        let mut out = self.arena.take_dirty(m * n);
        let mask = mask.map(Tensor::data);
        kernels::softmax_fwd(self.values[a.0].data(), mask, m, n, &mut out);
        self.push(out, m, n)
    }

    fn dropout(&mut self, x: NodeId, _full_rows: usize, ctx: &mut FwdCtx<'_>) -> NodeId {
        assert!(
            ctx.dropout_source().is_none(),
            "the inference executor runs forward passes in eval mode"
        );
        x
    }
}

/// Process-global free list of [`InferTape`]s. Pool workers are scoped
/// threads (fresh per call), so thread-locals never see reuse; a global free
/// list, the same shape as the pooled-tape list, carries warm arenas across
/// batches and across pool invocations.
static INFER_TAPE_POOL: Mutex<Vec<InferTape>> = Mutex::new(Vec::new());

/// Run `f` with a pooled [`InferTape`], then truncate it and return it to
/// the global pool (up to a small retention cap), so concurrent pool
/// workers each get a warm private arena and steady-state scoring allocates
/// next to nothing.
pub fn with_infer_tape<R>(f: impl FnOnce(&mut InferTape) -> R) -> R {
    // Every update of the pool is a single push or pop, so a poisoned lock
    // still guards a valid list.
    let lock = || {
        INFER_TAPE_POOL
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    };
    let mut it = lock().pop().unwrap_or_default();
    let out = f(&mut it);
    it.truncate(0);
    let mut pool = lock();
    if pool.len() < MAX_POOLED_INFER_TAPES {
        pool.push(it);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_recycles_buffers_and_keeps_earlier_handles() {
        let mut store = ParamStore::new();
        let table = store.push(
            "t",
            Tensor::from_vec((0..12).map(|i| i as f32).collect(), 4, 3),
        );
        let mut it = InferTape::new();
        let kept = it.embed(table, &store, &[2]);
        let mark = it.mark();
        let a = it.embed(table, &store, &[0, 1]);
        let ptr = it.value(a).data().as_ptr();
        it.truncate(mark);
        let b = it.embed(table, &store, &[3, 3]);
        assert_eq!(it.value(b).data().as_ptr(), ptr, "same buffer handed back");
        assert_eq!(it.value(kept).data(), &[6.0, 7.0, 8.0]);
        assert_eq!(it.value(b).data(), &[9.0, 10.0, 11.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn pooled_tape_comes_back_empty() {
        let mut store = ParamStore::new();
        let table = store.push("t", Tensor::zeros(2, 8));
        let rows = with_infer_tape(|it| {
            let x = it.embed(table, &store, &[0, 1, 1]);
            it.value(x).rows()
        });
        assert_eq!(rows, 3);
        with_infer_tape(|it| assert_eq!(it.mark(), 0));
    }
}
