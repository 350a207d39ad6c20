//! Forward-only inference plane: recycled activation workspaces.
//!
//! The autodiff [`Tape`](crate::graph::Tape) pays for node bookkeeping and
//! gradient-buffer reservation on every op — bookkeeping that forward-only
//! work (evaluation, M_F candidate scoring, InvDA decoding) never uses. The
//! inference plane executes the same arithmetic as the tape's forward pass
//! — **bit-for-bit** — but straight into preallocated `Vec<f32>`
//! workspaces:
//!
//! * [`InferScratch`] — a size-classed free list of activation buffers
//!   (the tape arena's pool type). A forward pass takes buffers, runs the
//!   forward kernels in [`kernels`](crate::kernels), and returns them;
//!   steady-state scoring performs no heap allocation.
//! * [`with_infer_scratch`] — a process-global pool of `InferScratch`
//!   instances (mirroring the pooled-tape free list), so concurrent pool
//!   workers each grab a private workspace and recycle it across batches.
//!
//! Bit-identity with the tape forward is a hard invariant, not a tolerance:
//! golden runs pin evaluation accuracies and InvDA generations. It holds by
//! construction: the tape ops compute their values with the same forward
//! kernels the layers' `infer_forward` methods call, and those methods
//! replicate the tape's GEMM dispatch decisions (see the "Inference plane"
//! section of DESIGN.md). Each `infer_forward` computes a row band of a
//! pass; a full pass is the band that covers every row.

use crate::arena::BufArena;
use std::sync::Mutex;

/// Cap on float capacity retained inside one [`InferScratch`] free list (4M
/// floats = 16 MiB): buffers beyond the cap are dropped on return instead of
/// pooled.
const SCRATCH_CAP_FLOATS: usize = 4 << 20;

/// Number of [`InferScratch`] instances the global pool retains.
const MAX_POOLED_SCRATCH: usize = 8;

/// Free list of activation buffers for forward-only passes.
///
/// `take(len)` hands out a buffer of exactly `len` elements with
/// **unspecified contents** — every inference kernel fully overwrites its
/// output, so no clearing pass is paid. `put` returns a buffer for reuse.
/// Buffers live in the same size-classed pool as the tape arena, so a
/// steady-state scoring loop hits the free list for every buffer even as
/// sequence lengths vary.
#[derive(Default)]
pub struct InferScratch {
    pool: BufArena<SCRATCH_CAP_FLOATS>,
}

impl InferScratch {
    /// Create an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a buffer of exactly `len` elements. Contents are unspecified
    /// (previous activations); the caller must fully overwrite them.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.pool.take_dirty(len)
    }

    /// Return a buffer to the free list (dropped once the retained-capacity
    /// cap is reached).
    pub fn put(&mut self, v: Vec<f32>) {
        self.pool.put(v);
    }

    /// Float capacity currently held on the free list (diagnostics).
    pub fn retained_floats(&self) -> usize {
        self.pool.retained()
    }
}

/// Process-global free list of [`InferScratch`] instances. Pool workers are
/// scoped threads (fresh per call), so thread-locals never see reuse; a
/// global free list — the same shape as the pooled-tape list — carries
/// workspaces across batches and across pool invocations.
static SCRATCH_POOL: Mutex<Vec<InferScratch>> = Mutex::new(Vec::new());

/// Run `f` with a recycled [`InferScratch`], returning the workspace to the
/// global pool afterwards (up to a small retention cap).
pub fn with_infer_scratch<R>(f: impl FnOnce(&mut InferScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL.lock().unwrap().pop().unwrap_or_default();
    let out = f(&mut scratch);
    let mut pool = SCRATCH_POOL.lock().unwrap();
    if pool.len() < MAX_POOLED_SCRATCH {
        pool.push(scratch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_recycles_buffers() {
        let mut s = InferScratch::new();
        let mut a = s.take(16);
        a[0] = 42.0;
        let ptr = a.as_ptr();
        s.put(a);
        assert_eq!(s.retained_floats(), 16);
        let b = s.take(16);
        assert_eq!(b.as_ptr(), ptr, "same buffer handed back");
        assert_eq!(s.retained_floats(), 0);
        // A nearby length in the same size class reuses the buffer too.
        s.put(b);
        let c = s.take(15);
        assert_eq!((c.len(), c.as_ptr()), (15, ptr));
    }

    #[test]
    fn scratch_pool_round_trips() {
        let out = with_infer_scratch(|s| {
            let v = s.take(32);
            let len = v.len();
            s.put(v);
            len
        });
        assert_eq!(out, 32);
    }
}
