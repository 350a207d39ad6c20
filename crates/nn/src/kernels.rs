//! Cache-blocked, register-tiled matmul kernels with row-parallel dispatch,
//! plus the elementwise forward kernels every forward pass runs.
//!
//! One f32 GEMM entry point per operand layout backs both the autodiff tape
//! and the tape-free inference plane:
//!
//! * [`matmul_into`] — `C = A·B`,
//! * [`matmul_transpose_b_into`] — `C = A·Bᵀ` (attention scores; the
//!   `dA = dC·Bᵀ` backward contraction),
//! * [`matmul_transpose_a_into`] — `C = Aᵀ·G` (the weight-gradient
//!   contraction in backward passes),
//!
//! plus the fused forward epilogues [`matmul_bias_act_into`] (f32) and
//! [`matmul_bias_act_i8_into`] (quantized tier). [`matmul_naive`] and
//! [`matmul_transpose_b_naive`] are the test oracles.
//!
//! # Bands
//!
//! The `A·B` and `A·Bᵀ` entries compute a *row band* of a `full_m`-row
//! product: the caller passes the band's rows of `A` and the full logical
//! row count. Naive-vs-tiled dispatch is decided on `full_m·k·n`, so a band
//! takes the same kernel as the same rows of the full call, and the
//! serial-vs-parallel fan-out is decided on the rows actually computed,
//! which is safe because the parallel path splits on `MR`-row boundaries.
//! A band from [`band_rows`] is therefore bit-identical to the same rows of
//! the full product, and a full pass is simply the band that covers every
//! row (`m == full_m`).
//!
//! The forward kernels ([`softmax_fwd`], [`layernorm_fwd`], [`gelu_fwd`],
//! [`add_fwd`], [`scale_fwd`]) compute the tape ops' values too, so the tape
//! and the inference plane share one copy of every formula.
//!
//! # Kernel structure
//!
//! The core is an `MR×NR` register micro-kernel: an `MR`-row by `NR`-column
//! tile of `C` is held in accumulator registers across the *entire* `k`
//! extent, so each output element is loaded and stored exactly once instead
//! of once per `k` step — the naive i-k-j loop's dominant cost. Per `k` step
//! the micro-kernel reads one `NR`-wide vector of `B` (shared by all `MR`
//! rows) and `MR` scalars of `A`. The loop is tile-column outer: each
//! `NR`-wide strip of `B` is packed once into a contiguous `k×NR` panel and
//! swept down all row blocks while it sits in L1 (without the pack, large
//! `n` re-streams the strided strip from L2 for every row block).
//!
//! The core is generic over how the right-hand operand is stored (`BSrc`):
//! row-major, **transposed** (panels are packed straight from the strided
//! columns of the stored matrix, so `A·Bᵀ` and `Aᵀ·G` never materialize a
//! transpose), or **prepacked** ([`PackedB`] — the panels were built earlier
//! and are reused across calls; parameter matrices cache them across a whole
//! optimizer step, see `params.rs`). Panel contents are identical across the
//! three sources, so the choice never changes results.
//!
//! # SIMD dispatch
//!
//! On x86-64 the full-tile micro-kernel has an AVX2+FMA variant selected
//! once per process by runtime feature detection (the workspace compiles
//! against baseline x86-64, so the intrinsics path is how wide vectors are
//! reached without `-C target-cpu`). Detection is process-global, so every
//! invocation — serial or parallel, any thread — takes the same code path.
//!
//! # Determinism
//!
//! Every kernel — naive reference, serial tiled, parallel tiled at any
//! worker count, cold-packed or prepacked — accumulates each output element
//! with a **single accumulator in strictly increasing `k` order**. Tiling
//! only reorders *which elements* are computed when, never the summation
//! order *within* an element, and the parallel path splits work on `MR`-row
//! boundaries with each row block computed by the same serial code. Serial
//! and parallel tiled results are therefore bit-identical at every
//! `ROTOM_THREADS` setting; tests assert this. The naive reference shares
//! the summation order but may differ from the tiled path in final rounding
//! when the FMA variant is active (fused multiply-add rounds once per step),
//! which is why cross-kernel tests compare within 1e-4 while
//! cross-thread-count and cross-storage tests compare bits.
//!
//! Shapes below [`SMALL_FLOPS`] multiply-adds skip tiling (tiny meta-model
//! updates would pay more in tile-edge handling than they save), and shapes
//! below [`PAR_MIN_FLOPS`] skip the thread fan-out.
//!
//! # Allocation
//!
//! Every entry point writes into a caller-provided buffer (the tape arena
//! feeds it recycled ones), and all transient pack/transpose scratch comes
//! from a small thread-local pool, so a steady-state GEMM performs no heap
//! allocation.

use crate::pool::RotomPool;
use std::cell::RefCell;

/// Rows of `C` per register tile.
pub const MR: usize = 4;
/// Columns of `C` per register tile — two 8-wide AVX vectors in the FMA
/// micro-kernel (the scalar fallback walks the same width).
pub const NR: usize = 16;
/// Below this many multiply-adds (`m·k·n`), use the plain i-k-j kernel.
pub const SMALL_FLOPS: usize = 32 * 32 * 32;
/// Below this many multiply-adds, never fan out across threads.
pub const PAR_MIN_FLOPS: usize = 64 * 64 * 64;

// ---------------------------------------------------------------------------
// Dispatch profiling (telemetry)
// ---------------------------------------------------------------------------

/// GEMM dispatch-path counters for the telemetry plane.
///
/// Each public GEMM entry point bumps one process-global counter for the
/// path it chose (naive, tiled serial, tiled parallel). Counting is gated on
/// [`crate::telemetry::enabled`], so the disabled path costs one branch per GEMM
/// call and no atomic traffic; counts are cumulative and read out as gauges
/// (typically once per epoch via [`profile::emit_gemm_gauges`]).
pub mod profile {
    use crate::telemetry::{self, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static NAIVE: AtomicU64 = AtomicU64::new(0);
    pub(super) static TILED_SERIAL: AtomicU64 = AtomicU64::new(0);
    pub(super) static TILED_PARALLEL: AtomicU64 = AtomicU64::new(0);
    // Quantized i8 GEMM dispatches. Unlike the tiers above this counter is
    // bumped unconditionally (one relaxed fetch_add per GEMM, negligible
    // next to the GEMM itself) so `/metrics` can report the quant tier
    // without requiring telemetry to be on.
    pub(super) static QUANT_I8: AtomicU64 = AtomicU64::new(0);

    // Forward-kernel tier counters (tape ops and the tape-free forward alike):
    // per elementwise kernel family, one counter for the SIMD tier and one
    // for the scalar fallback, plus one for the fused GEMM+bias+activation
    // entry point.
    pub(super) static SOFTMAX_SIMD: AtomicU64 = AtomicU64::new(0);
    pub(super) static SOFTMAX_SCALAR: AtomicU64 = AtomicU64::new(0);
    pub(super) static LAYERNORM_SIMD: AtomicU64 = AtomicU64::new(0);
    pub(super) static LAYERNORM_SCALAR: AtomicU64 = AtomicU64::new(0);
    pub(super) static GELU_SIMD: AtomicU64 = AtomicU64::new(0);
    pub(super) static GELU_SCALAR: AtomicU64 = AtomicU64::new(0);
    pub(super) static FUSED_BIAS_ACT: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(super) fn bump(counter: &AtomicU64) {
        if telemetry::enabled() {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cumulative `(naive, tiled_serial, tiled_parallel)` dispatch counts
    /// since process start (all zero unless telemetry is enabled).
    pub fn gemm_counters() -> (u64, u64, u64) {
        (
            NAIVE.load(Ordering::Relaxed),
            TILED_SERIAL.load(Ordering::Relaxed),
            TILED_PARALLEL.load(Ordering::Relaxed),
        )
    }

    /// Cumulative quantized-i8 GEMM dispatch count since process start.
    /// Counted unconditionally (not gated on telemetry).
    pub fn quant_i8_count() -> u64 {
        QUANT_I8.load(Ordering::Relaxed)
    }

    /// Whether the AVX2+FMA micro-kernel is active on this machine.
    pub fn fma_active() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            super::fma::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Whether the AVX2 i8 micro-kernel is active on this machine.
    pub fn quant_simd_active() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            super::qi8::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Emit one `gauge` record with the cumulative GEMM dispatch counters
    /// and the SIMD path in use. No-op when telemetry is disabled.
    pub fn emit_gemm_gauges() {
        if !telemetry::enabled() {
            return;
        }
        let (naive, serial, parallel) = gemm_counters();
        telemetry::emit(
            "gauge",
            "kernels.gemm_dispatch",
            &[
                ("naive", Value::U64(naive)),
                ("tiled_serial", Value::U64(serial)),
                ("tiled_parallel", Value::U64(parallel)),
                ("quant_i8", Value::U64(quant_i8_count())),
                ("fma", Value::U64(fma_active() as u64)),
                ("quant_simd", Value::U64(quant_simd_active() as u64)),
            ],
        );
    }

    /// Cumulative forward-kernel tier counts since process start, as
    /// `(softmax_simd, softmax_scalar, layernorm_simd, layernorm_scalar,
    /// gelu_simd, gelu_scalar, fused_bias_act)` (all zero unless telemetry is
    /// enabled).
    #[allow(clippy::type_complexity)]
    pub fn forward_counters() -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            SOFTMAX_SIMD.load(Ordering::Relaxed),
            SOFTMAX_SCALAR.load(Ordering::Relaxed),
            LAYERNORM_SIMD.load(Ordering::Relaxed),
            LAYERNORM_SCALAR.load(Ordering::Relaxed),
            GELU_SIMD.load(Ordering::Relaxed),
            GELU_SCALAR.load(Ordering::Relaxed),
            FUSED_BIAS_ACT.load(Ordering::Relaxed),
        )
    }

    /// Emit one `gauge` record with the cumulative forward-kernel tier
    /// counters. No-op when telemetry is disabled.
    pub fn emit_forward_gauges() {
        if !telemetry::enabled() {
            return;
        }
        let (sm_v, sm_s, ln_v, ln_s, ge_v, ge_s, fused) = forward_counters();
        telemetry::emit(
            "gauge",
            "kernels.forward_dispatch",
            &[
                ("softmax_simd", Value::U64(sm_v)),
                ("softmax_scalar", Value::U64(sm_s)),
                ("layernorm_simd", Value::U64(ln_v)),
                ("layernorm_scalar", Value::U64(ln_s)),
                ("gelu_simd", Value::U64(ge_v)),
                ("gelu_scalar", Value::U64(ge_s)),
                ("fused_bias_act", Value::U64(fused)),
            ],
        );
    }
}

// ---------------------------------------------------------------------------
// Thread-local scratch pool
// ---------------------------------------------------------------------------

thread_local! {
    /// Recycled pack/transpose scratch buffers. Worker threads are scoped
    /// (they die at the end of each pool call), so cross-call reuse happens
    /// on long-lived threads — in particular the main thread, where every
    /// serial-path kernel runs.
    static SCRATCH: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Take a scratch buffer of `len` zero-initialized elements from the
/// thread-local pool (every byte is overwritten by the pack loops before
/// use; the zero fill just keeps the buffer initialization safe).
fn take_scratch(len: usize) -> Vec<f32> {
    let mut v = SCRATCH.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    v.clear();
    v.resize(len, 0.0);
    v
}

/// Return a scratch buffer to the thread-local pool (capped for hygiene).
fn put_scratch(v: Vec<f32>) {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < 8 {
            s.push(v);
        }
    });
}

thread_local! {
    /// Recycled byte buffers for the quantized-activation staging area of
    /// the i8 GEMM path (same lifecycle as [`SCRATCH`]).
    static QSCRATCH: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Take a `len`-byte zeroed buffer from the thread-local byte pool.
fn take_qscratch(len: usize) -> Vec<u8> {
    let mut v = QSCRATCH.with(|s| s.borrow_mut().pop()).unwrap_or_default();
    v.clear();
    v.resize(len, 0);
    v
}

/// Return a byte buffer to the thread-local pool (capped for hygiene).
fn put_qscratch(v: Vec<u8>) {
    QSCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < 8 {
            s.push(v);
        }
    });
}

/// Reference kernel: the seed's naive i-k-j loop (single accumulator per
/// element, increasing `k`), kept as the ground truth for property tests and
/// the benchmark baseline.
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_naive_into(a, b, m, k, n, &mut out);
    out
}

/// [`matmul_naive`] writing into a caller buffer (fully overwritten).
fn matmul_naive_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        for i in 0..m {
            let o_row = &mut out[i * n..(i + 1) * n];
            // In-bounds: row `i` of `a` spans `cnt·stride = k` elements.
            unsafe { avx::row_accum(a.as_ptr().add(i * k), 1, k, b.as_ptr(), n, o_row) };
        }
        return;
    }
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked out-of-place transpose: `src` is `rows×cols`, the result is
/// `cols×rows`. Blocking keeps both access streams within a few cache lines.
pub fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(src.len(), rows * cols);
    const TB: usize = 32;
    let mut out = vec![0.0f32; rows * cols];
    for r0 in (0..rows).step_by(TB) {
        let r1 = (r0 + TB).min(rows);
        for c0 in (0..cols).step_by(TB) {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    out[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Packed panels
// ---------------------------------------------------------------------------

/// The full `NR`-wide strips of a GEMM right-hand operand, packed into
/// contiguous `k×NR` panels — the exact buffers the tiled core builds on the
/// fly, captured so they can be reused across calls. Ragged trailing columns
/// (`n % NR`) are not stored; edge tiles read the raw operand.
///
/// Parameter matrices cache a `PackedB` (plus one of their transpose) across
/// matmul calls and across the three per-step passes of the meta-training
/// loop; `params.rs` invalidates the cache whenever a value mutates, so
/// packing cost is paid once per optimizer step instead of once per matmul.
#[derive(Debug, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Pack a row-major `k×n` operand.
    pub fn pack_row_major(b: &[f32], k: usize, n: usize) -> Self {
        debug_assert_eq!(b.len(), k * n);
        let full_cols = n - n % NR;
        let mut panels = vec![0.0f32; k * full_cols];
        let mut off = 0;
        let mut j0 = 0;
        while j0 < full_cols {
            for p in 0..k {
                panels[off + p * NR..off + (p + 1) * NR]
                    .copy_from_slice(&b[p * n + j0..p * n + j0 + NR]);
            }
            off += k * NR;
            j0 += NR;
        }
        Self { k, n, panels }
    }

    /// Pack the *transpose* of an `n×k` row-major matrix, i.e. the logical
    /// operand is `srcᵀ` (`k×n`). Panels are packed straight from the
    /// strided columns, with contents bit-identical to
    /// `pack_row_major(transpose(src))`.
    pub fn pack_transposed(src: &[f32], k: usize, n: usize) -> Self {
        debug_assert_eq!(src.len(), k * n);
        let full_cols = n - n % NR;
        let mut panels = vec![0.0f32; k * full_cols];
        let mut off = 0;
        let mut j0 = 0;
        while j0 < full_cols {
            for c in 0..NR {
                let col = &src[(j0 + c) * k..(j0 + c + 1) * k];
                for (p, &v) in col.iter().enumerate() {
                    panels[off + p * NR + c] = v;
                }
            }
            off += k * NR;
            j0 += NR;
        }
        Self { k, n, panels }
    }

    /// Logical `(k, n)` shape of the packed operand.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Retained panel bytes (diagnostics).
    pub fn bytes(&self) -> usize {
        self.panels.len() * std::mem::size_of::<f32>()
    }

    /// The stored panel for full strip `j0` (`j0 % NR == 0`,
    /// `j0 + NR <= n`).
    #[inline]
    fn strip(&self, j0: usize) -> &[f32] {
        &self.panels[(j0 / NR) * self.k * NR..][..self.k * NR]
    }
}

// ---------------------------------------------------------------------------
// B-operand abstraction
// ---------------------------------------------------------------------------

/// How the tiled core reads its logical `k×n` right-hand operand. Panel
/// contents and edge element values are identical across implementations, so
/// swapping sources never changes results (the determinism tests pin this).
trait BSrc: Sync {
    /// The packed `k×NR` panel for full strip `j0`. `scratch` is a `k×NR`
    /// buffer the implementation may pack into (prepacked sources return
    /// their stored panel instead).
    fn panel<'a>(&'a self, j0: usize, k: usize, scratch: &'a mut [f32]) -> &'a [f32];
    /// Element `(p, j)` of the logical operand (edge tiles only).
    fn at(&self, p: usize, j: usize) -> f32;
}

/// Row-major `k×n` storage.
struct BRowMajor<'b> {
    b: &'b [f32],
    n: usize,
}

impl BSrc for BRowMajor<'_> {
    #[inline]
    fn panel<'a>(&'a self, j0: usize, k: usize, scratch: &'a mut [f32]) -> &'a [f32] {
        for p in 0..k {
            scratch[p * NR..(p + 1) * NR]
                .copy_from_slice(&self.b[p * self.n + j0..p * self.n + j0 + NR]);
        }
        scratch
    }
    #[inline]
    fn at(&self, p: usize, j: usize) -> f32 {
        self.b[p * self.n + j]
    }
}

/// Transposed storage: the logical operand is `bᵀ` where `b` is row-major
/// `n×k`. Panels stream the stored columns directly — no materialized
/// transpose.
struct BTransposed<'b> {
    b: &'b [f32],
    k: usize,
}

impl BSrc for BTransposed<'_> {
    #[inline]
    fn panel<'a>(&'a self, j0: usize, k: usize, scratch: &'a mut [f32]) -> &'a [f32] {
        for c in 0..NR {
            let col = &self.b[(j0 + c) * self.k..(j0 + c) * self.k + k];
            for (p, &v) in col.iter().enumerate() {
                scratch[p * NR + c] = v;
            }
        }
        scratch
    }
    #[inline]
    fn at(&self, p: usize, j: usize) -> f32 {
        self.b[j * self.k + p]
    }
}

/// Prepacked panels with a fallback source for edge tiles.
struct BPacked<'b, E: BSrc> {
    pk: &'b PackedB,
    edge: E,
}

impl<E: BSrc> BSrc for BPacked<'_, E> {
    #[inline]
    fn panel<'a>(&'a self, j0: usize, _k: usize, _scratch: &'a mut [f32]) -> &'a [f32] {
        self.pk.strip(j0)
    }
    #[inline]
    fn at(&self, p: usize, j: usize) -> f32 {
        self.edge.at(p, j)
    }
}

// ---------------------------------------------------------------------------
// Micro-kernels
// ---------------------------------------------------------------------------

/// Full `MR×NR` register tile over the whole `k` extent.
///
/// `a_rows` holds the `MR` row slices of `A` for this tile; `panel` is the
/// packed `k×NR` strip of `B` for this tile column (contiguous, stride
/// `NR`); the tile's top-left output column is `j0`.
#[inline]
fn micro_full(a_rows: [&[f32]; MR], panel: &[f32], j0: usize, out_rows: &mut [&mut [f32]; MR]) {
    let k = a_rows[0].len();
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let b_vec: &[f32; NR] = panel[p * NR..(p + 1) * NR].try_into().unwrap();
        for r in 0..MR {
            let av = a_rows[r][p];
            for c in 0..NR {
                acc[r][c] += av * b_vec[c];
            }
        }
    }
    for r in 0..MR {
        out_rows[r][j0..j0 + NR].copy_from_slice(&acc[r]);
    }
}

/// AVX2+FMA micro-kernel, selected at runtime on x86-64.
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// Whether the running CPU supports the AVX2+FMA micro-kernel. Detected
    /// once; the cached result makes the dispatch process-global, so serial
    /// and parallel runs (and every worker thread) always agree on the path.
    #[inline]
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
        })
    }

    /// AVX2+FMA variant of [`super::micro_full`]: same `MR×NR` tile, same
    /// per-element strictly-increasing-`k` accumulation (each output element
    /// lives in one SIMD lane for the whole `k` extent), fused
    /// multiply-add rounding.
    ///
    /// # Safety
    /// Caller must have checked [`available`]. Slice bounds are the same as
    /// the scalar kernel's: `a_rows` are `k`-long, `panel` is `k×NR`, and
    /// `j0 + NR ≤ out_rows[r].len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_full(
        a_rows: [&[f32]; MR],
        panel: &[f32],
        j0: usize,
        out_rows: &mut [&mut [f32]; MR],
    ) {
        let k = a_rows[0].len();
        debug_assert!(panel.len() >= k * NR);
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for p in 0..k {
            let bp = panel.as_ptr().add(p * NR);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for r in 0..MR {
                let av = _mm256_set1_ps(*a_rows[r].get_unchecked(p));
                acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
                acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
            }
        }
        for r in 0..MR {
            let op = out_rows[r].as_mut_ptr().add(j0);
            _mm256_storeu_ps(op, acc[r][0]);
            _mm256_storeu_ps(op.add(8), acc[r][1]);
        }
    }
}

/// Plain-AVX helper for the naive kernels, selected at runtime on x86-64.
///
/// This vectorizes *elementwise* work only: each output scalar still sees
/// exactly one `mul` rounding and one `add` rounding per `k` step, in the
/// same order as the scalar loop (no FMA contraction, no reassociation), so
/// results are bit-identical to the scalar code — unlike the tiled core's
/// FMA micro-kernel, it is safe to enable without moving any dispatch
/// threshold.
#[cfg(target_arch = "x86_64")]
mod avx {
    use core::arch::x86_64::*;

    /// Whether the running CPU supports AVX. Detected once (process-global,
    /// like [`super::fma::available`]).
    #[inline]
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| std::is_x86_feature_detected!("avx"))
    }

    /// One output row of a saxpy-form product, the row held in registers
    /// across the whole reduction:
    /// `o_row[j] = Σ_p a(p) · b[p·n + j]` with `a(p) = avs[p·stride]`.
    ///
    /// Every output scalar keeps the increasing-`p` single-accumulator
    /// order with *separate* mul and add roundings (no FMA contraction —
    /// only the `avx` feature is enabled) and the same `a(p) == 0.0` skip
    /// as the scalar loop, so results are bit-identical; the registers
    /// merely remove the per-`p` load/store round-trip of the output row.
    ///
    /// # Safety
    /// Caller must have checked [`available`], `avs` must be readable at
    /// `p·stride` for `p < cnt`, and `b` at `p·n + j` for `j < n`.
    #[target_feature(enable = "avx")]
    pub unsafe fn row_accum(
        avs: *const f32,
        stride: usize,
        cnt: usize,
        b: *const f32,
        n: usize,
        o_row: &mut [f32],
    ) {
        debug_assert_eq!(o_row.len(), n);
        let mut j = 0usize;
        // Four independent 8-lane accumulators per pass: enough chains to
        // hide the vaddps latency while staying within 16 ymm registers.
        while j + 32 <= n {
            let mut v0 = _mm256_setzero_ps();
            let mut v1 = _mm256_setzero_ps();
            let mut v2 = _mm256_setzero_ps();
            let mut v3 = _mm256_setzero_ps();
            for p in 0..cnt {
                let av = *avs.add(p * stride);
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(av);
                let bp = b.add(p * n + j);
                v0 = _mm256_add_ps(v0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
                v1 = _mm256_add_ps(v1, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(8))));
                v2 = _mm256_add_ps(v2, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(16))));
                v3 = _mm256_add_ps(v3, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(24))));
            }
            let op = o_row.as_mut_ptr().add(j);
            _mm256_storeu_ps(op, v0);
            _mm256_storeu_ps(op.add(8), v1);
            _mm256_storeu_ps(op.add(16), v2);
            _mm256_storeu_ps(op.add(24), v3);
            j += 32;
        }
        while j + 8 <= n {
            let mut v = _mm256_setzero_ps();
            for p in 0..cnt {
                let av = *avs.add(p * stride);
                if av == 0.0 {
                    continue;
                }
                let vb = _mm256_loadu_ps(b.add(p * n + j));
                v = _mm256_add_ps(v, _mm256_mul_ps(_mm256_set1_ps(av), vb));
            }
            _mm256_storeu_ps(o_row.as_mut_ptr().add(j), v);
            j += 8;
        }
        while j < n {
            let mut s = 0.0f32;
            for p in 0..cnt {
                let av = *avs.add(p * stride);
                if av == 0.0 {
                    continue;
                }
                s += av * *b.add(p * n + j);
            }
            *o_row.get_unchecked_mut(j) = s;
            j += 1;
        }
    }

    /// `out[j] = x[j] + y[j]` — one add rounding per element, identical to
    /// the scalar loop.
    ///
    /// # Safety
    /// Caller must have checked [`available`]; slices must be equal-length.
    #[target_feature(enable = "avx")]
    pub unsafe fn add_into(x: &[f32], y: &[f32], out: &mut [f32]) {
        let n = x.len();
        debug_assert_eq!(y.len(), n);
        debug_assert_eq!(out.len(), n);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_add_ps(
                _mm256_loadu_ps(x.as_ptr().add(j)),
                _mm256_loadu_ps(y.as_ptr().add(j)),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(j), v);
            j += 8;
        }
        while j < n {
            *out.get_unchecked_mut(j) = *x.get_unchecked(j) + *y.get_unchecked(j);
            j += 1;
        }
    }

    /// `x[j] += y[j]` in place (one add rounding per element).
    ///
    /// # Safety
    /// Caller must have checked [`available`]; slices must be equal-length.
    #[target_feature(enable = "avx")]
    pub unsafe fn add_assign(x: &mut [f32], y: &[f32]) {
        let n = x.len();
        debug_assert_eq!(y.len(), n);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_add_ps(
                _mm256_loadu_ps(x.as_ptr().add(j)),
                _mm256_loadu_ps(y.as_ptr().add(j)),
            );
            _mm256_storeu_ps(x.as_mut_ptr().add(j), v);
            j += 8;
        }
        while j < n {
            *x.get_unchecked_mut(j) += *y.get_unchecked(j);
            j += 1;
        }
    }

    /// `out[j] = x[j] + s` (broadcast add, one rounding per element).
    ///
    /// # Safety
    /// Caller must have checked [`available`]; slices must be equal-length.
    #[target_feature(enable = "avx")]
    pub unsafe fn add_scalar_into(x: &[f32], s: f32, out: &mut [f32]) {
        let n = x.len();
        debug_assert_eq!(out.len(), n);
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(x.as_ptr().add(j)), vs);
            _mm256_storeu_ps(out.as_mut_ptr().add(j), v);
            j += 8;
        }
        while j < n {
            *out.get_unchecked_mut(j) = *x.get_unchecked(j) + s;
            j += 1;
        }
    }

    /// Maximum of a slice starting from `f32::NEG_INFINITY`. `max` is
    /// order-independent for non-NaN inputs, so the vector reduction is
    /// value-identical to the scalar fold.
    ///
    /// # Safety
    /// Caller must have checked [`available`].
    #[target_feature(enable = "avx")]
    pub unsafe fn max_val(x: &[f32]) -> f32 {
        let n = x.len();
        let mut m = f32::NEG_INFINITY;
        let mut j = 0;
        if n >= 8 {
            let mut vm = _mm256_set1_ps(f32::NEG_INFINITY);
            while j + 8 <= n {
                vm = _mm256_max_ps(vm, _mm256_loadu_ps(x.as_ptr().add(j)));
                j += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), vm);
            for &l in &lanes {
                m = m.max(l);
            }
        }
        while j < n {
            m = m.max(*x.get_unchecked(j));
            j += 1;
        }
        m
    }

    /// `x[j] *= c` in place (one mul rounding per element).
    ///
    /// # Safety
    /// Caller must have checked [`available`].
    #[target_feature(enable = "avx")]
    pub unsafe fn scale_inplace(x: &mut [f32], c: f32) {
        let n = x.len();
        let vc = _mm256_set1_ps(c);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_mul_ps(_mm256_loadu_ps(x.as_ptr().add(j)), vc);
            _mm256_storeu_ps(x.as_mut_ptr().add(j), v);
            j += 8;
        }
        while j < n {
            let p = x.get_unchecked_mut(j);
            *p *= c;
            j += 1;
        }
    }

    /// Layer-norm affine: `out[j] = ((x[j] - mean) * inv_std) * g[j] + b[j]`
    /// — four separate roundings per element in the exact scalar order (no
    /// FMA contraction).
    ///
    /// # Safety
    /// Caller must have checked [`available`]; slices must be equal-length.
    #[target_feature(enable = "avx")]
    pub unsafe fn ln_affine_into(
        x: &[f32],
        mean: f32,
        inv_std: f32,
        g: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        let n = x.len();
        debug_assert_eq!(g.len(), n);
        debug_assert_eq!(b.len(), n);
        debug_assert_eq!(out.len(), n);
        let vmean = _mm256_set1_ps(mean);
        let vinv = _mm256_set1_ps(inv_std);
        let mut j = 0;
        while j + 8 <= n {
            let xv = _mm256_loadu_ps(x.as_ptr().add(j));
            let d = _mm256_sub_ps(xv, vmean);
            let s = _mm256_mul_ps(d, vinv);
            let sg = _mm256_mul_ps(s, _mm256_loadu_ps(g.as_ptr().add(j)));
            let v = _mm256_add_ps(sg, _mm256_loadu_ps(b.as_ptr().add(j)));
            _mm256_storeu_ps(out.as_mut_ptr().add(j), v);
            j += 8;
        }
        while j < n {
            *out.get_unchecked_mut(j) =
                (*x.get_unchecked(j) - mean) * inv_std * *g.get_unchecked(j) + *b.get_unchecked(j);
            j += 1;
        }
    }

    /// Tanh-approximation GELU over raw pointers (`xp` and `op` may be
    /// equal for in-place use), replicating the scalar op sequence exactly:
    /// the polynomial and the final combine run as separate vector mul/add
    /// steps (one rounding each, no FMA), and `tanh` itself is evaluated per
    /// lane with the scalar libm call — so every element takes the identical
    /// sequence of roundings as the scalar loop. Non-null `tp` receives the
    /// `tanh` factors.
    ///
    /// # Safety
    /// Caller must have checked [`available`]; `xp` must be readable and
    /// `op` writable for `n` elements, equal or disjoint (each lane is read
    /// before it is written); `tp` is null or writable for `n` elements.
    #[target_feature(enable = "avx")]
    pub unsafe fn gelu_ptr(xp: *const f32, n: usize, c: f32, a: f32, op: *mut f32, tp: *mut f32) {
        let va = _mm256_set1_ps(a);
        let vc = _mm256_set1_ps(c);
        let vhalf = _mm256_set1_ps(0.5);
        let vone = _mm256_set1_ps(1.0);
        let mut j = 0;
        while j + 8 <= n {
            let xv = _mm256_loadu_ps(xp.add(j));
            // u = c * (x + ((a*x)*x)*x), each step one rounding.
            let t1 = _mm256_mul_ps(va, xv);
            let t2 = _mm256_mul_ps(t1, xv);
            let t3 = _mm256_mul_ps(t2, xv);
            let t4 = _mm256_add_ps(xv, t3);
            let u = _mm256_mul_ps(vc, t4);
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), u);
            for l in lanes.iter_mut() {
                *l = l.tanh();
            }
            if !tp.is_null() {
                std::ptr::copy_nonoverlapping(lanes.as_ptr(), tp.add(j), 8);
            }
            let th = _mm256_loadu_ps(lanes.as_ptr());
            let hx = _mm256_mul_ps(vhalf, xv);
            let opt = _mm256_add_ps(vone, th);
            _mm256_storeu_ps(op.add(j), _mm256_mul_ps(hx, opt));
            j += 8;
        }
        while j < n {
            let xv = *xp.add(j);
            let th = (c * (xv + a * xv * xv * xv)).tanh();
            if !tp.is_null() {
                *tp.add(j) = th;
            }
            *op.add(j) = 0.5 * xv * (1.0 + th);
            j += 1;
        }
    }
}

/// Edge tile: `mr ≤ MR` rows by `nr ≤ NR` columns. Same accumulation order
/// as [`micro_full`] (per-element single accumulator, `p` increasing),
/// scalar-indexed for the ragged bounds, reading the raw operand through
/// [`BSrc::at`].
#[inline]
fn micro_edge<B: BSrc>(
    a_block: &[f32],
    k: usize,
    bsrc: &B,
    n: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    out_block: &mut [f32],
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        for r in 0..mr {
            let av = a_block[(i0 + r) * k + p];
            for c in 0..nr {
                acc[r][c] += av * bsrc.at(p, j0 + c);
            }
        }
    }
    for r in 0..mr {
        out_block[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr].copy_from_slice(&acc[r][..nr]);
    }
}

// ---------------------------------------------------------------------------
// Tiled core and dispatch
// ---------------------------------------------------------------------------

/// Tiled kernel over a contiguous block of `rows` output rows.
///
/// `a_block` is the matching `rows×k` slice of `A`; `out_block` the
/// `rows×n` destination (fully overwritten). This is the unit the parallel
/// path dispatches per worker, so serial and parallel runs execute identical
/// code per row.
///
/// Loop order is tile-column outer: each `NR`-wide strip of `B` is packed
/// into a contiguous `k×NR` panel once (or fetched prepacked), then swept
/// down all `MR`-row blocks while the panel sits in L1. Without the pack,
/// large `n` re-streams the strided strip from L2 for every row block (`B`
/// gets re-read `rows/MR` times), which caps the kernel well below FMA
/// throughput.
fn matmul_block_tiled<B: BSrc>(
    a_block: &[f32],
    rows: usize,
    k: usize,
    bsrc: &B,
    n: usize,
    out_block: &mut [f32],
) {
    let full_rows = rows - rows % MR;
    let full_cols = n - n % NR;
    #[cfg(target_arch = "x86_64")]
    let use_fma = fma::available();
    let mut scratch = take_scratch(k * NR);
    let mut j0 = 0;
    while j0 < full_cols {
        let panel = bsrc.panel(j0, k, &mut scratch);
        let mut i0 = 0;
        while i0 < full_rows {
            let (a0, rest) = a_block[i0 * k..].split_at(k);
            let (a1, rest) = rest.split_at(k);
            let (a2, rest) = rest.split_at(k);
            let a3 = &rest[..k];
            let (o0, rest) = out_block[i0 * n..].split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, rest) = rest.split_at_mut(n);
            let (o3, _) = rest.split_at_mut(n);
            let mut out_rows = [o0, o1, o2, o3];
            #[cfg(target_arch = "x86_64")]
            if use_fma {
                // SAFETY: `available()` checked; the panel is `k×NR` and
                // every out row is `n ≥ j0 + NR` long.
                unsafe { fma::micro_full([a0, a1, a2, a3], panel, j0, &mut out_rows) };
                i0 += MR;
                continue;
            }
            micro_full([a0, a1, a2, a3], panel, j0, &mut out_rows);
            i0 += MR;
        }
        j0 += NR;
    }
    put_scratch(scratch);
    // Edges share the scalar kernel and read the operand directly: the
    // ragged column strip (j ≥ full_cols, all rows) and the ragged row block
    // (i ≥ full_rows, full-width columns).
    for i0 in (0..rows).step_by(MR) {
        let mr = (rows - i0).min(MR);
        let mut j0 = if i0 < full_rows { full_cols } else { 0 };
        while j0 < n {
            let nr = (n - j0).min(NR);
            micro_edge(a_block, k, bsrc, n, i0, j0, mr, nr, out_block);
            j0 += nr;
        }
    }
}

/// A raw pointer blessed for cross-thread sharing; see the soundness note at
/// its use sites in [`tiled_dispatch`] and [`matmul_transpose_a_into`].
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Serial-or-parallel dispatch of the tiled core over `m` output rows.
/// Caller has already ruled out the sub-[`SMALL_FLOPS`] naive path.
fn tiled_dispatch<B: BSrc>(
    a: &[f32],
    bsrc: &B,
    m: usize,
    k: usize,
    n: usize,
    pool: &RotomPool,
    out: &mut [f32],
) {
    let flops = m * k * n;
    if flops < PAR_MIN_FLOPS || pool.threads() <= 1 || m < 2 * MR {
        profile::bump(&profile::TILED_SERIAL);
        matmul_block_tiled(a, m, k, bsrc, n, out);
    } else {
        profile::bump(&profile::TILED_PARALLEL);
        // Split on MR-row boundaries so every worker runs full tiles with
        // the exact code (and summation order) the serial path uses.
        //
        // Soundness of the raw-pointer fan-out: `run_ranges` hands every
        // worker a distinct, non-overlapping row range, so the re-sliced
        // `&mut` views never alias, and it joins all workers before
        // returning, so no view outlives the buffer borrow.
        let out_base = SendPtr(out.as_mut_ptr());
        let out_base = &out_base;
        pool.run_ranges(m, MR, move |range| {
            let rows = range.end - range.start;
            let a_block = &a[range.start * k..range.end * k];
            let out_block = unsafe {
                std::slice::from_raw_parts_mut(out_base.0.add(range.start * n), rows * n)
            };
            matmul_block_tiled(a_block, rows, k, bsrc, n, out_block);
        });
    }
}

// ---------------------------------------------------------------------------
// Public GEMM entry points
// ---------------------------------------------------------------------------

/// `C = A·B` for an `m`-row band of a `full_m`-row product into a caller
/// buffer (`A`: the band's `m×k` rows, `B`: `k×n`, `out`: `m×n`, fully
/// overwritten). A full pass passes `m == full_m`; a band comes from
/// [`band_rows`] and is bit-identical to the same rows of the full call.
///
/// `pk`, when present, must be the [`PackedB::pack_row_major`] of `b`; its
/// panel contents match a cold pack bit for bit, so the option only saves
/// packing work and never changes values.
#[allow(clippy::too_many_arguments)]
pub fn matmul_into(
    a: &[f32],
    b: &[f32],
    pk: Option<&PackedB>,
    full_m: usize,
    m: usize,
    k: usize,
    n: usize,
    pool: &RotomPool,
    out: &mut [f32],
) {
    debug_assert!(m <= full_m);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if full_m * k * n < SMALL_FLOPS {
        profile::bump(&profile::NAIVE);
        matmul_naive_into(a, b, m, k, n, out);
        return;
    }
    let edge = BRowMajor { b, n };
    match pk {
        Some(pk) => {
            debug_assert_eq!(pk.shape(), (k, n));
            tiled_dispatch(a, &BPacked { pk, edge }, m, k, n, pool, out);
        }
        None => tiled_dispatch(a, &edge, m, k, n, pool, out),
    }
}

/// Naive reference for `A·Bᵀ` (`A`: `m×k`, `B`: `n×k`): per-element dot
/// product, increasing `k`.
pub fn matmul_transpose_b_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_transpose_b_naive_into(a, b, m, k, n, &mut out);
    out
}

fn matmul_transpose_b_naive_into(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    // Each output scalar is one dot product accumulated in increasing `k`
    // with a single accumulator — a serial FP dependency chain. Running four
    // output columns (and two rows) concurrently keeps their chains
    // independent, so the per-scalar operation sequence — and hence every
    // result bit — is unchanged while the add-latency bubbles overlap.
    let mut i = 0;
    while i + 2 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut s = [0.0f32; 8];
            for p in 0..k {
                let (x0, x1) = (a0[p], a1[p]);
                let (y0, y1, y2, y3) = (b0[p], b1[p], b2[p], b3[p]);
                s[0] += x0 * y0;
                s[1] += x0 * y1;
                s[2] += x0 * y2;
                s[3] += x0 * y3;
                s[4] += x1 * y0;
                s[5] += x1 * y1;
                s[6] += x1 * y2;
                s[7] += x1 * y3;
            }
            out[i * n + j..i * n + j + 4].copy_from_slice(&s[..4]);
            out[(i + 1) * n + j..(i + 1) * n + j + 4].copy_from_slice(&s[4..]);
            j += 4;
        }
        while j < n {
            let b_row = &b[j * k..(j + 1) * k];
            let (mut s0, mut s1) = (0.0f32, 0.0f32);
            for p in 0..k {
                let bv = b_row[p];
                s0 += a0[p] * bv;
                s1 += a1[p] * bv;
            }
            out[i * n + j] = s0;
            out[(i + 1) * n + j] = s1;
            j += 1;
        }
        i += 2;
    }
    if i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut s = [0.0f32; 4];
            for p in 0..k {
                let av = a_row[p];
                s[0] += av * b0[p];
                s[1] += av * b1[p];
                s[2] += av * b2[p];
                s[3] += av * b3[p];
            }
            out[i * n + j..i * n + j + 4].copy_from_slice(&s);
            j += 4;
        }
        while j < n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
            j += 1;
        }
    }
}

/// `C = A·Bᵀ` for an `m`-row band of a `full_m`-row product into a caller
/// buffer (`A`: the band's `m×k` rows, `B`: `n×k`, `out`: `m×n`, fully
/// overwritten), with the band and dispatch rules of [`matmul_into`].
///
/// Large shapes stream `B`'s stored columns straight into packed panels
/// (transpose-free; contents bit-identical to packing a materialized
/// transpose); small shapes use the dot form directly. Both paths share the
/// increasing-`k` single-accumulator order, so the choice never changes
/// results. `pk`, when present, must be [`PackedB::pack_transposed`] of `b`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_transpose_b_into(
    a: &[f32],
    b: &[f32],
    pk: Option<&PackedB>,
    full_m: usize,
    m: usize,
    k: usize,
    n: usize,
    pool: &RotomPool,
    out: &mut [f32],
) {
    debug_assert!(m <= full_m);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if full_m * k * n < SMALL_FLOPS {
        profile::bump(&profile::NAIVE);
        matmul_transpose_b_naive_into(a, b, m, k, n, out);
        return;
    }
    let edge = BTransposed { b, k };
    match pk {
        Some(pk) => {
            debug_assert_eq!(pk.shape(), (k, n));
            tiled_dispatch(a, &BPacked { pk, edge }, m, k, n, pool, out);
        }
        None => tiled_dispatch(a, &edge, m, k, n, pool, out),
    }
}

/// `C = Aᵀ·G` into a caller buffer (`A`: `m×k`, `G`: `m×n`, `out`: `k×n`,
/// fully overwritten).
///
/// This is the weight-gradient contraction (`dW = Xᵀ·dY`) in every matmul
/// backward. Large shapes transpose `A` in `TA_CHUNK`-row slices into
/// thread-local scratch *inside* each worker's row range (the former global
/// `O(m·k)` transpose allocation is gone and the copy parallelizes with the
/// compute); accumulation runs over `m` in increasing order on every path.
pub fn matmul_transpose_a_into(
    a: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
    pool: &RotomPool,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(g.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    let flops = m * k * n;
    if flops < SMALL_FLOPS {
        profile::bump(&profile::NAIVE);
        // Direct q-i-j form: out[q][j] += a[i][q] * g[i][j], i increasing.
        #[cfg(target_arch = "x86_64")]
        if avx::available() {
            for q in 0..k {
                let o_row = &mut out[q * n..(q + 1) * n];
                // In-bounds: column `q` of `a` is read at `q + i·k < m·k`.
                unsafe { avx::row_accum(a.as_ptr().add(q), k, m, g.as_ptr(), n, o_row) };
            }
            return;
        }
        out.fill(0.0);
        for q in 0..k {
            let o_row = &mut out[q * n..(q + 1) * n];
            for i in 0..m {
                let av = a[i * k + q];
                if av == 0.0 {
                    continue;
                }
                let g_row = &g[i * n..(i + 1) * n];
                for (o, &gv) in o_row.iter_mut().zip(g_row) {
                    *o += av * gv;
                }
            }
        }
        return;
    }
    if flops < PAR_MIN_FLOPS || pool.threads() <= 1 || k < 2 * MR {
        profile::bump(&profile::TILED_SERIAL);
        transpose_a_block(a, g, m, k, n, 0, k, out);
    } else {
        profile::bump(&profile::TILED_PARALLEL);
        // Same fan-out shape as `tiled_dispatch` (output rows = rows of Aᵀ),
        // same soundness argument for the raw-pointer split.
        let out_base = SendPtr(out.as_mut_ptr());
        let out_base = &out_base;
        pool.run_ranges(k, MR, move |range| {
            let rows = range.end - range.start;
            let out_block = unsafe {
                std::slice::from_raw_parts_mut(out_base.0.add(range.start * n), rows * n)
            };
            transpose_a_block(a, g, m, k, n, range.start, range.end, out_block);
        });
    }
}

/// Rows per fused-transpose slice of [`matmul_transpose_a_into`]'s large
/// path: bounds the scratch to `64×m` floats.
const TA_CHUNK: usize = 64;

/// Compute output rows `q0..q1` of `C = Aᵀ·G` by transposing `TA_CHUNK`-row
/// slices of `Aᵀ` into scratch and running the tiled core on each. Row `q`
/// of `C` depends only on column `q` of `A` and the shared `G` panels, so
/// slicing never changes values — each slice is bit-identical to the same
/// rows of a whole-matrix `transpose(A)` followed by the tiled core.
fn transpose_a_block(
    a: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
    q0: usize,
    q1: usize,
    out_block: &mut [f32],
) {
    let gsrc = BRowMajor { b: g, n };
    let mut scratch = take_scratch((q1 - q0).min(TA_CHUNK) * m);
    let mut q = q0;
    while q < q1 {
        let rows = (q1 - q).min(TA_CHUNK);
        // Blocked slice transpose: scratch[r][i] = a[i][q + r].
        const TB: usize = 32;
        for i0 in (0..m).step_by(TB) {
            let i1 = (i0 + TB).min(m);
            for r in 0..rows {
                let qq = q + r;
                for i in i0..i1 {
                    scratch[r * m + i] = a[i * k + qq];
                }
            }
        }
        let dst = &mut out_block[(q - q0) * n..(q - q0 + rows) * n];
        matmul_block_tiled(&scratch[..rows * m], rows, m, &gsrc, n, dst);
        q += rows;
    }
    put_scratch(scratch);
}

// ---------------------------------------------------------------------------
// Inference plane: band replay, fused bias+activation, forward kernels
// ---------------------------------------------------------------------------

/// The row band of a `full_m`-row GEMM that contains `row`, as
/// `(start, len)`.
///
/// Bands are exactly the units the tiled core computes independently: the
/// `MR`-aligned full tile containing `row`, or the ragged trailing block
/// (`full_m % MR` rows) when `row` falls past the last full tile. Computing
/// just this band with [`matmul_into`] (passing `full_m`) is bit-identical
/// to the same rows of the full `full_m`-row product at every thread count,
/// because the parallel path already splits on `MR`-row boundaries and the
/// naive kernel is per-row independent.
pub fn band_rows(full_m: usize, row: usize) -> (usize, usize) {
    debug_assert!(row < full_m);
    let full = full_m - full_m % MR;
    if row < full {
        (row - row % MR, MR)
    } else {
        (full, full_m - full)
    }
}

/// Elementwise activation applied by the fused forward path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Identity (bias only).
    None,
    /// Tanh-approximation GELU, matching the autodiff tape's `gelu` op
    /// bit-for-bit.
    Gelu,
}

/// GELU constants (tanh approximation): `√(2/π)` and the cubic coefficient.
const GELU_C: f32 = 0.797_884_6;
const GELU_A: f32 = 0.044_715;

/// GELU derivative at `x` given the forward pass's `t = tanh(GELU_C·(x +
/// GELU_A·x³))` (the tape caches `t` through [`gelu_fwd`]'s tanh output, so
/// the backward rule sees the identical bits it would recompute).
pub(crate) fn gelu_grad(x: f32, t: f32) -> f32 {
    let dt = (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * dt
}

/// Apply an optional per-column bias and an activation to a `rows×n` buffer
/// in place — the fused epilogue of [`matmul_bias_act_into`].
///
/// The bias add is one rounding per element (identical to the tape's
/// `add_row`), and [`Act::Gelu`] replicates the tape's op sequence exactly
/// (see [`gelu_fwd`]), so `matmul → bias_act_apply` is bit-identical to the
/// tape's `matmul → add_row → gelu` chain.
pub fn bias_act_apply(out: &mut [f32], rows: usize, n: usize, bias: Option<&[f32]>, act: Act) {
    debug_assert_eq!(out.len(), rows * n);
    if let Some(bias) = bias {
        debug_assert_eq!(bias.len(), n);
        #[cfg(target_arch = "x86_64")]
        let use_avx = avx::available();
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx = false;
        for i in 0..rows {
            let row = &mut out[i * n..(i + 1) * n];
            #[cfg(target_arch = "x86_64")]
            if use_avx {
                // SAFETY: `available()` checked.
                unsafe { avx::add_assign(row, bias) };
                continue;
            }
            let _ = use_avx;
            for (o, &s) in row.iter_mut().zip(bias) {
                *o += s;
            }
        }
    }
    if act == Act::Gelu {
        gelu_fwd_inplace(out);
    }
}

/// Fused `C = act(A·B + bias)` forward entry over an `m`-row band of a
/// `full_m`-row product: the GEMM is exactly [`matmul_into`], followed by
/// the in-place [`bias_act_apply`] epilogue — one output sweep instead of
/// the tape's three node materializations. The epilogue is per-row, so
/// bands stay bit-identical to the full call.
#[allow(clippy::too_many_arguments)]
pub fn matmul_bias_act_into(
    a: &[f32],
    b: &[f32],
    pk: Option<&PackedB>,
    bias: Option<&[f32]>,
    act: Act,
    full_m: usize,
    m: usize,
    k: usize,
    n: usize,
    pool: &RotomPool,
    out: &mut [f32],
) {
    matmul_into(a, b, pk, full_m, m, k, n, pool, out);
    profile::bump(&profile::FUSED_BIAS_ACT);
    bias_act_apply(out, m, n, bias, act);
}

// ---------------------------------------------------------------------------
// Quantized i8 inference GEMM
// ---------------------------------------------------------------------------
//
// Inference-only integer tier: weights are quantized once per parameter
// generation to symmetric per-output-row i8 (one f32 scale per output
// feature, i.e. per row of the transposed weight), activations are quantized
// per batch row at call time to asymmetric 7-bit u8 (scale + zero point, the
// [0,127] range keeps the AVX2 `vpmaddubsw` pair sums inside i16), the
// product accumulates in exact i32, and the epilogue dequantizes into the
// caller's f32 buffer before the shared bias/activation sweep.
//
// Because the integer accumulation is exact, the quantized path is
// bit-identical across thread counts and across the SIMD/scalar tiers *by
// construction* — quantization error is purely a property of the rounding in
// `quantize` (bounded, property-tested against the f32 kernel), never of the
// execution schedule. Training never touches this path; it stays bit-exact
// f32.

/// Per-output-feature i8 quantization of a `k×n` row-major weight matrix,
/// prepacked for the i8 micro-kernel — the quantized analogue of
/// [`PackedB`], cached per parameter generation in `params.rs`.
///
/// Scale scheme: column `j` (one output feature; a *row* of the transposed
/// weight) gets `scale[j] = max_p |b[p][j]| / 127`, `qw = round(b / scale)`
/// ∈ [-127, 127]. All-zero columns take scale 1.0 — every quantized entry is
/// 0, so the scale value never matters and no division by zero or NaN can
/// occur. `colsum[j] = Σ_p qw[p][j]` is precomputed for the activation
/// zero-point correction.
pub struct QuantizedB {
    k: usize,
    n: usize,
    /// Per-output-column dequantization scale (`n` entries).
    scales: Vec<f32>,
    /// Per-column sum of quantized weights (`n` entries), exact i32.
    colsums: Vec<i32>,
    /// Row-major quantized copy (`k×n`), used by the scalar paths and the
    /// `n % NR` edge columns.
    rows: Vec<i8>,
    /// K-quad interleaved panels for full `NR`-wide strips: per strip, per
    /// quad of 4 consecutive `k` indices, 16 columns × 4 bytes laid out so
    /// one 32-byte load feeds `vpmaddubsw` for 8 columns. `k` is padded to a
    /// multiple of 4 with zero rows (they contribute nothing and leave the
    /// colsums untouched).
    panels: Vec<i8>,
    /// Number of k-quads (`ceil(k / 4)`).
    quads: usize,
}

impl QuantizedB {
    /// Quantize a `k×n` row-major matrix.
    pub fn quantize_row_major(b: &[f32], k: usize, n: usize) -> Self {
        debug_assert_eq!(b.len(), k * n);
        let quads = k.div_ceil(4);
        let mut maxabs = vec![0.0f32; n];
        for p in 0..k {
            for (m, &v) in maxabs.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *m = m.max(v.abs());
            }
        }
        let scales: Vec<f32> = maxabs
            .iter()
            .map(|&m| if m > 0.0 { m / 127.0 } else { 1.0 })
            .collect();
        let mut rows = vec![0i8; k * n];
        let mut colsums = vec![0i32; n];
        for p in 0..k {
            for j in 0..n {
                let q = (b[p * n + j] / scales[j]).round().clamp(-127.0, 127.0) as i8;
                rows[p * n + j] = q;
                colsums[j] += q as i32;
            }
        }
        let n_full = n - n % NR;
        let mut panels = Vec::with_capacity((n_full / NR) * quads * 4 * NR);
        for j0 in (0..n_full).step_by(NR) {
            for q in 0..quads {
                for j in j0..j0 + NR {
                    for d in 0..4 {
                        let p = q * 4 + d;
                        panels.push(if p < k { rows[p * n + j] } else { 0 });
                    }
                }
            }
        }
        Self {
            k,
            n,
            scales,
            colsums,
            rows,
            panels,
            quads,
        }
    }

    /// Logical `(k, n)` shape of the quantized matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Total heap bytes held (cache accounting).
    pub fn bytes(&self) -> usize {
        self.rows.len()
            + self.panels.len()
            + self.scales.len() * std::mem::size_of::<f32>()
            + self.colsums.len() * std::mem::size_of::<i32>()
    }

    /// Per-output-column scales (for tests and error-bound computation).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The interleaved panel for the full strip starting at column `j0`.
    fn strip(&self, j0: usize) -> &[i8] {
        let len = self.quads * 4 * NR;
        &self.panels[(j0 / NR) * len..(j0 / NR + 1) * len]
    }
}

/// Asymmetric 7-bit row quantization of activations: `rows×k` f32 in,
/// per-row `u8 ∈ [0,127]` out (padded to `quads*4` bytes per row with
/// zeros), plus per-row scale and zero point.
///
/// The quantization range is the row's `[min(0, min), max(0, max)]` — always
/// bracketing zero, so the zero point lands in `[0, 127]` and every value
/// maps into range with at most 0.5·scale rounding error. Degenerate rows
/// (all zero, or constant zero-range) take scale 1.0: no division by zero,
/// no NaN, and an all-zero row quantizes to all zero points (exact).
pub fn quantize_activations(
    a: &[f32],
    rows: usize,
    k: usize,
    quads: usize,
    qa: &mut [u8],
    scales: &mut [f32],
    zero_points: &mut [u8],
) {
    let k_pad = quads * 4;
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(qa.len(), rows * k_pad);
    debug_assert!(scales.len() >= rows && zero_points.len() >= rows);
    #[cfg(target_arch = "x86_64")]
    if qi8::available() {
        for i in 0..rows {
            let row = &a[i * k..(i + 1) * k];
            let qrow = &mut qa[i * k_pad..(i + 1) * k_pad];
            // SAFETY: `available()` checked; `qrow` holds ≥ `k` bytes.
            let (scale, zp) = unsafe { qi8::quantize_row(row, qrow) };
            for q in qrow[k..].iter_mut() {
                *q = 0;
            }
            scales[i] = scale;
            zero_points[i] = zp;
        }
        return;
    }
    for i in 0..rows {
        let row = &a[i * k..(i + 1) * k];
        // Comparison-form min/max so the reduction vectorizes (`f32::min`'s
        // NaN-select blocks it). Seeding at 0.0 brackets zero and drops NaN
        // from the range, like the doc comment promises.
        let mut min = 0.0f32;
        let mut max = 0.0f32;
        for &v in row {
            min = if v < min { v } else { min };
            max = if v > max { v } else { max };
        }
        let range = max - min;
        let scale = if range > 0.0 { range / 127.0 } else { 1.0 };
        let inv = 1.0 / scale;
        let zp = (-min * inv).round().clamp(0.0, 127.0) as u8;
        // `floor(x + 0.5)` instead of `round(x)`: identical up to ties
        // (which stay within the half-step error bound), and it lowers to
        // `vroundps` so the whole loop vectorizes — this pass runs on every
        // GEMM call, and the divide/round form costs more than the integer
        // core it feeds.
        let offset = zp as f32 + 0.5;
        let qrow = &mut qa[i * k_pad..(i + 1) * k_pad];
        for (q, &v) in qrow.iter_mut().zip(row) {
            *q = (v * inv + offset).floor().clamp(0.0, 127.0) as u8;
        }
        for q in qrow[k..].iter_mut() {
            *q = 0;
        }
        scales[i] = scale;
        zero_points[i] = zp;
    }
}

/// AVX2 i8 micro-kernel, selected at runtime on x86-64.
#[cfg(target_arch = "x86_64")]
mod qi8 {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// Whether the running CPU supports the AVX2 i8 micro-kernel. Detected
    /// once (process-global, like [`super::fma::available`]); the scalar
    /// fallback computes the same exact integers, so the tiers agree
    /// bit-for-bit and the dispatch only affects speed.
    #[inline]
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }

    /// `MR×NR` i32 tile over a k-quad panel: per quad, `vpmaddubsw` (u8×i8
    /// pairs → i16) then `vpmaddwd` against ones (i16 pairs → i32) reduce 4
    /// consecutive `k` steps for 8 columns per 32-byte panel load — 3
    /// arithmetic instructions per 32 multiply-adds. Activations are 7-bit
    /// (≤127), so the worst `vpmaddubsw` pair sum is 2·127·127 = 32258 <
    /// 32767: no saturation, the accumulation is exact.
    ///
    /// # Safety
    /// Caller must have checked [`available`]; `qa_rows` must each hold
    /// `4·quads` bytes and `panel` must hold `quads·4·NR` bytes.
    #[target_feature(enable = "avx2")]
    pub unsafe fn micro_i8(
        qa_rows: [&[u8]; MR],
        panel: &[i8],
        quads: usize,
        acc_out: &mut [[i32; NR]; MR],
    ) {
        debug_assert!(panel.len() >= quads * 4 * NR);
        let ones = _mm256_set1_epi16(1);
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        for q in 0..quads {
            let bp = panel.as_ptr().add(q * 4 * NR);
            let b0 = _mm256_loadu_si256(bp as *const __m256i);
            let b1 = _mm256_loadu_si256(bp.add(32) as *const __m256i);
            for r in 0..MR {
                let quad = (qa_rows[r].as_ptr().add(q * 4) as *const i32).read_unaligned();
                let av = _mm256_set1_epi32(quad);
                let p0 = _mm256_maddubs_epi16(av, b0);
                let p1 = _mm256_maddubs_epi16(av, b1);
                acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(p0, ones));
                acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(p1, ones));
            }
        }
        for r in 0..MR {
            _mm256_storeu_si256(acc_out[r].as_mut_ptr() as *mut __m256i, acc[r][0]);
            _mm256_storeu_si256(acc_out[r].as_mut_ptr().add(8) as *mut __m256i, acc[r][1]);
        }
    }

    /// Quantize one activation row: the vector lanes apply exactly the
    /// per-element formula of the scalar path (`mul`, `add`, `floor`,
    /// `clamp`, narrow — same IEEE ops in the same per-element order), and
    /// min/max reduction over comparisons is order-independent, so tier
    /// dispatch never changes the quantized bytes, scale, or zero point.
    ///
    /// # Safety
    /// Caller must have checked [`available`]; `qrow.len() >= row.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_row(row: &[f32], qrow: &mut [u8]) -> (f32, u8) {
        let k = row.len();
        let mut vmin = _mm256_setzero_ps();
        let mut vmax = _mm256_setzero_ps();
        let mut p = 0usize;
        while p + 8 <= k {
            let v = _mm256_loadu_ps(row.as_ptr().add(p));
            // Operand order matters: `min_ps(v, acc)` keeps the accumulator
            // when `v` is NaN, matching the scalar comparison form.
            vmin = _mm256_min_ps(v, vmin);
            vmax = _mm256_max_ps(v, vmax);
            p += 8;
        }
        let mut lanes_min = [0.0f32; 8];
        let mut lanes_max = [0.0f32; 8];
        _mm256_storeu_ps(lanes_min.as_mut_ptr(), vmin);
        _mm256_storeu_ps(lanes_max.as_mut_ptr(), vmax);
        let mut min = 0.0f32;
        let mut max = 0.0f32;
        for i in 0..8 {
            min = if lanes_min[i] < min {
                lanes_min[i]
            } else {
                min
            };
            max = if lanes_max[i] > max {
                lanes_max[i]
            } else {
                max
            };
        }
        for &v in &row[p..] {
            min = if v < min { v } else { min };
            max = if v > max { v } else { max };
        }
        let range = max - min;
        let scale = if range > 0.0 { range / 127.0 } else { 1.0 };
        let inv = 1.0 / scale;
        let zp = (-min * inv).round().clamp(0.0, 127.0) as u8;
        let offset = zp as f32 + 0.5;

        let invv = _mm256_set1_ps(inv);
        let offv = _mm256_set1_ps(offset);
        let zero = _mm256_setzero_ps();
        let hi = _mm256_set1_ps(127.0);
        // Dword shuffle fixing `packs`/`packus` 128-bit-lane interleave so
        // the 16 quantized bytes land in element order.
        let fix = _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0);
        let mut p = 0usize;
        while p + 16 <= k {
            let q8 = {
                let mut halves = [_mm256_setzero_si256(); 2];
                for (h, half) in halves.iter_mut().enumerate() {
                    let v = _mm256_loadu_ps(row.as_ptr().add(p + 8 * h));
                    let x = _mm256_floor_ps(_mm256_add_ps(_mm256_mul_ps(v, invv), offv));
                    // `max_ps(x, bound)` returns the bound when `x` is NaN —
                    // same 0 byte the scalar NaN cast produces.
                    let x = _mm256_min_ps(_mm256_max_ps(x, zero), hi);
                    *half = _mm256_cvtps_epi32(x);
                }
                _mm256_packus_epi16(
                    _mm256_packs_epi32(halves[0], halves[1]),
                    _mm256_setzero_si256(),
                )
            };
            let ordered = _mm256_permutevar8x32_epi32(q8, fix);
            _mm_storeu_si128(
                qrow.as_mut_ptr().add(p) as *mut __m128i,
                _mm256_castsi256_si128(ordered),
            );
            p += 16;
        }
        for (q, &v) in qrow[p..k].iter_mut().zip(&row[p..]) {
            *q = (v * inv + offset).floor().clamp(0.0, 127.0) as u8;
        }
        (scale, zp)
    }

    /// Dequantize 16 i32 accumulators into f32 out lanes:
    /// `out[j] = (acc[j] − zp·colsum[j]) as f32 · (a_scale · wscale[j])` —
    /// the exact expression (and operation order) of the scalar
    /// `quant_dequant_row`, so the tiers stay bit-identical.
    ///
    /// # Safety
    /// Caller must have checked [`available`]; `colsums`/`wscales` must hold
    /// `NR` readable values and `out` `NR` writable floats.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dequant_row16(
        acc: &[i32; NR],
        colsums: *const i32,
        wscales: *const f32,
        a_scale: f32,
        zp: i32,
        out: *mut f32,
    ) {
        let zpv = _mm256_set1_epi32(zp);
        let asv = _mm256_set1_ps(a_scale);
        for h in 0..2 {
            let a = _mm256_loadu_si256(acc.as_ptr().add(8 * h) as *const __m256i);
            let cs = _mm256_loadu_si256(colsums.add(8 * h) as *const __m256i);
            let corrected = _mm256_sub_epi32(a, _mm256_mullo_epi32(zpv, cs));
            let scale = _mm256_mul_ps(asv, _mm256_loadu_ps(wscales.add(8 * h)));
            let r = _mm256_mul_ps(_mm256_cvtepi32_ps(corrected), scale);
            _mm256_storeu_ps(out.add(8 * h), r);
        }
    }
}

/// Scalar i8 reference: `acc[j] = Σ_p qa[p]·qw[p][j]` for `j ∈ [j_lo, j_hi)`
/// over the row-major quantized copy. Exact integers — bit-identical to the
/// SIMD micro-kernel's lanes.
fn quant_row_scalar(qa_row: &[u8], qb: &QuantizedB, j_lo: usize, j_hi: usize, acc: &mut [i32]) {
    let n = qb.n;
    for a in acc[..j_hi - j_lo].iter_mut() {
        *a = 0;
    }
    for p in 0..qb.k {
        let av = qa_row[p] as i32;
        if av == 0 {
            continue;
        }
        let brow = &qb.rows[p * n + j_lo..p * n + j_hi];
        for (a, &w) in acc.iter_mut().zip(brow) {
            *a += av * w as i32;
        }
    }
}

/// Dequantize one row segment of i32 accumulators into f32 output:
/// `out[j] = a_scale · w_scale[j] · (acc[j] − zp · colsum[j])`.
#[inline]
fn quant_dequant_row(
    acc: &[i32],
    qb: &QuantizedB,
    j_lo: usize,
    a_scale: f32,
    zp: i32,
    out: &mut [f32],
) {
    for (jj, (&sum, o)) in acc.iter().zip(out.iter_mut()).enumerate() {
        let j = j_lo + jj;
        let corrected = sum - zp * qb.colsums[j];
        *o = corrected as f32 * (a_scale * qb.scales[j]);
    }
}

/// Serial i8 core over a block of quantized rows: full `MR`-row ×
/// `NR`-column tiles through the SIMD micro-kernel when available, exact
/// scalar integers for row remainders and edge columns, dequantizing each
/// tile into `out` as it completes.
fn quant_block(
    qa: &[u8],
    a_scales: &[f32],
    zero_points: &[u8],
    rows: usize,
    qb: &QuantizedB,
    out: &mut [f32],
) {
    let n = qb.n;
    let k_pad = qb.quads * 4;
    let n_full = n - n % NR;
    #[cfg(target_arch = "x86_64")]
    let use_simd = qi8::available();
    #[cfg(not(target_arch = "x86_64"))]
    let use_simd = false;
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;

    let mut acc_tile = [[0i32; NR]; MR];
    let mut r0 = 0usize;
    while r0 + MR <= rows {
        let qa_rows: [&[u8]; MR] =
            std::array::from_fn(|r| &qa[(r0 + r) * k_pad..(r0 + r + 1) * k_pad]);
        for j0 in (0..n_full).step_by(NR) {
            #[cfg(target_arch = "x86_64")]
            if use_simd {
                // SAFETY: `available()` checked; slice lengths established
                // by the callers' debug asserts and the pack layout.
                unsafe {
                    qi8::micro_i8(qa_rows, qb.strip(j0), qb.quads, &mut acc_tile);
                    for r in 0..MR {
                        let i = r0 + r;
                        qi8::dequant_row16(
                            &acc_tile[r],
                            qb.colsums.as_ptr().add(j0),
                            qb.scales.as_ptr().add(j0),
                            a_scales[i],
                            zero_points[i] as i32,
                            out.as_mut_ptr().add(i * n + j0),
                        );
                    }
                }
                continue;
            }
            for (r, qa_row) in qa_rows.iter().enumerate() {
                quant_row_scalar(qa_row, qb, j0, j0 + NR, &mut acc_tile[r]);
            }
            for r in 0..MR {
                let i = r0 + r;
                quant_dequant_row(
                    &acc_tile[r],
                    qb,
                    j0,
                    a_scales[i],
                    zero_points[i] as i32,
                    &mut out[i * n + j0..i * n + j0 + NR],
                );
            }
        }
        if n_full < n {
            for r in 0..MR {
                let i = r0 + r;
                quant_row_scalar(qa_rows[r], qb, n_full, n, &mut acc_tile[0][..n - n_full]);
                let (head, _) = acc_tile.split_at(1);
                quant_dequant_row(
                    &head[0][..n - n_full],
                    qb,
                    n_full,
                    a_scales[i],
                    zero_points[i] as i32,
                    &mut out[i * n + n_full..(i + 1) * n],
                );
            }
        }
        r0 += MR;
    }
    // Row remainder (< MR rows — this is also the whole band-replay case):
    // run the SIMD tile anyway with the last row repeated into the unused
    // slots and dequantize only the real rows. The duplicated lanes cost
    // less than a scalar k×NR loop per row, and the real rows' integers are
    // unchanged (each lane only ever reads its own row pointer).
    #[cfg(target_arch = "x86_64")]
    if use_simd && r0 < rows {
        let rem = rows - r0;
        let qa_rows: [&[u8]; MR] = std::array::from_fn(|r| {
            let i = r0 + r.min(rem - 1);
            &qa[i * k_pad..(i + 1) * k_pad]
        });
        for j0 in (0..n_full).step_by(NR) {
            // SAFETY: same preconditions as the full-tile call above.
            unsafe {
                qi8::micro_i8(qa_rows, qb.strip(j0), qb.quads, &mut acc_tile);
                for r in 0..rem {
                    let i = r0 + r;
                    qi8::dequant_row16(
                        &acc_tile[r],
                        qb.colsums.as_ptr().add(j0),
                        qb.scales.as_ptr().add(j0),
                        a_scales[i],
                        zero_points[i] as i32,
                        out.as_mut_ptr().add(i * n + j0),
                    );
                }
            }
        }
        if n_full < n {
            for r in 0..rem {
                let i = r0 + r;
                quant_row_scalar(qa_rows[r], qb, n_full, n, &mut acc_tile[0][..n - n_full]);
                let (head, _) = acc_tile.split_at(1);
                quant_dequant_row(
                    &head[0][..n - n_full],
                    qb,
                    n_full,
                    a_scales[i],
                    zero_points[i] as i32,
                    &mut out[i * n + n_full..(i + 1) * n],
                );
            }
        }
        return;
    }
    // Row remainder: exact scalar over the full width.
    for i in r0..rows {
        let qa_row = &qa[i * k_pad..(i + 1) * k_pad];
        let mut j0 = 0usize;
        while j0 < n {
            let j1 = (j0 + NR).min(n);
            quant_row_scalar(qa_row, qb, j0, j1, &mut acc_tile[0][..j1 - j0]);
            let (head, _) = acc_tile.split_at(1);
            quant_dequant_row(
                &head[0][..j1 - j0],
                qb,
                j0,
                a_scales[i],
                zero_points[i] as i32,
                &mut out[i * n + j0..i * n + j1],
            );
            j0 = j1;
        }
    }
}

/// Fused quantized `C = act(dequant(qa·qb) + bias)` inference entry — the
/// i8 analogue of [`matmul_bias_act_into`]: quantize the `m×k` activations
/// per row, run the integer GEMM (serial, or fanned out on `MR`-row
/// boundaries with the same thresholds as `tiled_dispatch`), dequantize
/// into `out`, and apply the shared [`bias_act_apply`] epilogue.
///
/// There is no naive tier, and activation quantization is per row, so any
/// [`band_rows`] band of `A` computes exactly the same rows of the full
/// product — a band is just a call with fewer rows.
///
/// The result is deterministic and bit-identical at every thread count and
/// SIMD tier (exact integer accumulation); it differs from the f32 kernel by
/// the bounded quantization error (see the property tests).
#[allow(clippy::too_many_arguments)]
pub fn matmul_bias_act_i8_into(
    a: &[f32],
    qb: &QuantizedB,
    bias: Option<&[f32]>,
    act: Act,
    m: usize,
    k: usize,
    n: usize,
    pool: &RotomPool,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(qb.shape(), (k, n));
    debug_assert_eq!(out.len(), m * n);
    profile::QUANT_I8.fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    let k_pad = qb.quads * 4;
    let mut qa = take_qscratch(m * k_pad);
    let mut zps = take_qscratch(m);
    let mut a_scales = take_scratch(m);
    quantize_activations(a, m, k, qb.quads, &mut qa, &mut a_scales, &mut zps);

    let flops = m * k * n;
    if flops < PAR_MIN_FLOPS || pool.threads() <= 1 || m < 2 * MR {
        quant_block(&qa, &a_scales, &zps, m, qb, out);
    } else {
        // Same fan-out shape (and soundness argument) as `tiled_dispatch`:
        // disjoint MR-row ranges, joined before return.
        let qa = &qa[..];
        let a_scales = &a_scales[..];
        let zps = &zps[..];
        let out_base = SendPtr(out.as_mut_ptr());
        let out_base = &out_base;
        pool.run_ranges(m, MR, move |range| {
            let rows = range.end - range.start;
            let qa_block = &qa[range.start * k_pad..range.end * k_pad];
            let out_block = unsafe {
                std::slice::from_raw_parts_mut(out_base.0.add(range.start * n), rows * n)
            };
            quant_block(
                qa_block,
                &a_scales[range.start..range.end],
                &zps[range.start..range.end],
                rows,
                qb,
                out_block,
            );
        });
    }
    put_scratch(a_scales);
    put_qscratch(zps);
    put_qscratch(qa);
    bias_act_apply(out, m, n, bias, act);
}

/// Elementwise `out = x + y` — the tape's `add` op and the residual
/// connections of the tape-free forward (one add rounding per element on
/// both tiers).
pub fn add_fwd(x: &[f32], y: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: `available()` checked; lengths asserted equal.
        unsafe { avx::add_into(x, y, out) };
        return;
    }
    for ((&a, &b), o) in x.iter().zip(y).zip(out.iter_mut()) {
        *o = a + b;
    }
}

/// Elementwise `x += y` in place — value-identical to [`add_fwd`] (the
/// tape's `add` always writes a fresh node, but the sums are the same).
pub fn add_assign_fwd(x: &mut [f32], y: &[f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: `available()` checked; lengths asserted equal.
        unsafe { avx::add_assign(x, y) };
        return;
    }
    for (o, &b) in x.iter_mut().zip(y) {
        *o += b;
    }
}

/// Elementwise `x *= c` in place — the values of the tape's `scale` op and
/// the attention-score scaling (one mul rounding per element).
pub fn scale_fwd(x: &mut [f32], c: f32) {
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: `available()` checked.
        unsafe { avx::scale_inplace(x, c) };
        return;
    }
    for o in x.iter_mut() {
        *o *= c;
    }
}

/// One softmax row: max-shift over `v + m` (mask value `m`, or `+ 0.0`
/// when unmasked), scalar `exp` and sum in index order, then a uniform
/// `1/sum` scale. Returns `(max, sum)` — the pieces a cross-entropy needs
/// for `lse = sum.ln() + max`.
///
/// The SIMD tier vectorizes only the order-independent or elementwise
/// stages (the additive mask shift, the max reduction, the final scale);
/// the order-sensitive `exp`-and-accumulate stage stays scalar, so both
/// tiers produce identical bits.
pub fn softmax_row_fwd(row: &[f32], mask: Option<&[f32]>, out: &mut [f32]) -> (f32, f32) {
    let n = row.len();
    debug_assert_eq!(out.len(), n);
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // Shifted logits go in `out` (overwritten by the exp pass below).
        match mask {
            Some(mm) => {
                debug_assert_eq!(mm.len(), n);
                unsafe { avx::add_into(row, mm, out) };
            }
            None => unsafe { avx::add_scalar_into(row, 0.0, out) },
        }
        let max = unsafe { avx::max_val(out) };
        let mut sum = 0.0f32;
        for o in out.iter_mut() {
            let e = (*o - max).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        unsafe { avx::scale_inplace(out, inv) };
        return (max, sum);
    }
    let mut max = f32::NEG_INFINITY;
    for (j, &v) in row.iter().enumerate() {
        let m = mask.map_or(0.0, |mm| mm[j]);
        max = max.max(v + m);
    }
    let mut sum = 0.0f32;
    for (j, &v) in row.iter().enumerate() {
        let m = mask.map_or(0.0, |mm| mm[j]);
        let e = (v + m - max).exp();
        out[j] = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
    (max, sum)
}

/// Row-wise softmax over a `rows×cols` buffer with an optional additive
/// `rows×cols` mask — the values of the tape's `softmax` /
/// `masked_softmax` ops and of the tape-free attention.
pub fn softmax_fwd(x: &[f32], mask: Option<&[f32]>, rows: usize, cols: usize, out: &mut [f32]) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    if let Some(mm) = mask {
        debug_assert_eq!(mm.len(), rows * cols);
    }
    #[cfg(target_arch = "x86_64")]
    let simd = avx::available();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    profile::bump(if simd {
        &profile::SOFTMAX_SIMD
    } else {
        &profile::SOFTMAX_SCALAR
    });
    for i in 0..rows {
        let row = &x[i * cols..(i + 1) * cols];
        let mrow = mask.map(|mm| &mm[i * cols..(i + 1) * cols]);
        softmax_row_fwd(row, mrow, &mut out[i * cols..(i + 1) * cols]);
    }
}

/// Row-wise layer norm over a `rows×n` buffer — the values of the tape's
/// `layer_norm` op and of the tape-free forward. `stats`, when given
/// (`rows` entries), receives each row's `(mean, inv_std)` for the tape's
/// backward rule.
///
/// The mean and variance folds are order-sensitive and stay scalar in index
/// order; the affine transform `((v-mean)·inv_std)·γ + β` is elementwise
/// with one rounding per step and takes the SIMD tier.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_fwd(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    rows: usize,
    n: usize,
    out: &mut [f32],
    mut stats: Option<&mut [(f32, f32)]>,
) {
    debug_assert_eq!(x.len(), rows * n);
    debug_assert_eq!(gamma.len(), n);
    debug_assert_eq!(beta.len(), n);
    debug_assert_eq!(out.len(), rows * n);
    if let Some(s) = &stats {
        debug_assert_eq!(s.len(), rows);
    }
    #[cfg(target_arch = "x86_64")]
    let simd = avx::available();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = false;
    profile::bump(if simd {
        &profile::LAYERNORM_SIMD
    } else {
        &profile::LAYERNORM_SCALAR
    });
    let nf = n as f32;
    for i in 0..rows {
        let row = &x[i * n..(i + 1) * n];
        let mean = row.iter().sum::<f32>() / nf;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / nf;
        let inv_std = 1.0 / (var + eps).sqrt();
        if let Some(s) = stats.as_deref_mut() {
            s[i] = (mean, inv_std);
        }
        let orow = &mut out[i * n..(i + 1) * n];
        #[cfg(target_arch = "x86_64")]
        if simd {
            unsafe { avx::ln_affine_into(row, mean, inv_std, gamma, beta, orow) };
            continue;
        }
        for (j, (&v, o)) in row.iter().zip(orow.iter_mut()).enumerate() {
            *o = (v - mean) * inv_std * gamma[j] + beta[j];
        }
    }
}

/// Elementwise tanh-approximation GELU — the values of the tape's `gelu`
/// op and of the fused [`Act::Gelu`] epilogue. `tanh_out`, when given (same
/// length as `x`), receives each element's `tanh` factor for the tape's
/// backward rule. Both tiers produce identical bits: the
/// SIMD tier keeps every polynomial step a separate rounding and evaluates
/// `tanh` with the scalar libm call per lane.
pub fn gelu_fwd(x: &[f32], out: &mut [f32], tanh_out: Option<&mut [f32]>) {
    debug_assert_eq!(x.len(), out.len());
    let tp = match tanh_out {
        Some(t) => {
            debug_assert_eq!(t.len(), x.len());
            t.as_mut_ptr()
        }
        None => std::ptr::null_mut(),
    };
    // SAFETY: `x` is readable and `out` (plus `tp` when non-null) writable
    // for `x.len()` elements; the borrows are disjoint.
    unsafe { gelu_ptr(x.as_ptr(), x.len(), out.as_mut_ptr(), tp) };
}

/// In-place [`gelu_fwd`] (no tanh output).
fn gelu_fwd_inplace(x: &mut [f32]) {
    let p = x.as_mut_ptr();
    // SAFETY: equal src/dst pointers are allowed by `gelu_ptr` (each element
    // is read before it is written); both derive from the same borrow.
    unsafe { gelu_ptr(p, x.len(), p, std::ptr::null_mut()) };
}

/// Tier dispatch of the GELU sweep over raw pointers.
///
/// # Safety
/// `xp` must be readable and `op` writable for `n` elements (equal or
/// disjoint); `tp` is null or writable for `n` elements and disjoint from
/// both.
unsafe fn gelu_ptr(xp: *const f32, n: usize, op: *mut f32, tp: *mut f32) {
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        profile::bump(&profile::GELU_SIMD);
        // SAFETY: `available()` checked; the pointer requirements are this
        // function's own contract.
        avx::gelu_ptr(xp, n, GELU_C, GELU_A, op, tp);
        return;
    }
    profile::bump(&profile::GELU_SCALAR);
    // SAFETY (loop): every `j < n` is in bounds for `xp`, `op` and non-null
    // `tp` by this function's contract; `xp[j]` is read before `op[j]` is
    // written, so equal `xp`/`op` is fine.
    for j in 0..n {
        let v = *xp.add(j);
        let th = (GELU_C * (v + GELU_A * v * v * v)).tanh();
        if !tp.is_null() {
            *tp.add(j) = th;
        }
        *op.add(j) = 0.5 * v * (1.0 + th);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_rng::rngs::StdRng;
    use rotom_rng::{split_seed, RngExt, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|_| rng.random_range(-2.0f32..2.0))
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "{ctx}: element {i}: {x} vs {y}");
        }
    }

    /// Full-pass `A·B` (`m×k · k×n`) into a fresh buffer.
    fn mm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, pool: &RotomPool) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        matmul_into(a, b, None, m, m, k, n, pool, &mut out);
        out
    }

    /// Full-pass `A·Bᵀ` (`m×k · (n×k)ᵀ`) into a fresh buffer.
    fn mm_tb(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, pool: &RotomPool) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        matmul_transpose_b_into(a, b, None, m, m, k, n, pool, &mut out);
        out
    }

    /// `Aᵀ·G` (`(m×k)ᵀ · m×n`) into a fresh buffer.
    fn mm_ta(a: &[f32], g: &[f32], m: usize, k: usize, n: usize, pool: &RotomPool) -> Vec<f32> {
        let mut out = vec![0.0f32; k * n];
        matmul_transpose_a_into(a, g, m, k, n, pool, &mut out);
        out
    }

    /// Shapes covering tile edges: non-multiples of MR/NR, m=1 row vectors,
    /// tall/wide extremes, and sizes straddling both dispatch thresholds.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 7, 5),
        (1, 64, 64),
        (3, 3, 3),
        (4, 8, 8),
        (5, 9, 13),
        (17, 31, 29),
        (32, 32, 32),
        (33, 65, 63),
        (64, 64, 64),
        (70, 64, 70),
        (1, 300, 300),
        (128, 17, 128),
    ];

    #[test]
    fn tiled_matches_naive_within_1e4() {
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4e1, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let naive = matmul_naive(&a, &b, m, k, n);
            let tiled = mm(&a, &b, m, k, n, &RotomPool::new(1));
            assert_close(&naive, &tiled, 1e-4, &format!("matmul {m}x{k}x{n}"));
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Explicit pools, so the assertion holds regardless of the
        // ROTOM_THREADS environment.
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4e2, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let serial = mm(&a, &b, m, k, n, &RotomPool::new(1));
            for threads in [2, 3, 8] {
                let par = mm(&a, &b, m, k, n, &RotomPool::new(threads));
                assert_eq!(serial, par, "matmul {m}x{k}x{n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_at_large_size() {
        // Big enough to actually cross PAR_MIN_FLOPS and fan out.
        let (m, k, n) = (96, 80, 96);
        let mut rng = StdRng::seed_from_u64(0x4e3);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let serial = mm(&a, &b, m, k, n, &RotomPool::new(1));
        for threads in [2, 5, 16] {
            let par = mm(&a, &b, m, k, n, &RotomPool::new(threads));
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn transpose_b_matches_naive_and_explicit_transpose() {
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4e4, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, n, k);
            let fast = mm_tb(&a, &b, m, k, n, &RotomPool::new(2));
            let naive = matmul_transpose_b_naive(&a, &b, m, k, n);
            assert_close(&fast, &naive, 1e-4, &format!("matmul_tb {m}x{k}x{n}"));
            let explicit = mm(&a, &transpose(&b, n, k), m, k, n, &RotomPool::new(2));
            assert_eq!(fast, explicit, "tb vs explicit transpose {m}x{k}x{n}");
        }
    }

    #[test]
    fn transpose_a_matches_explicit_transpose() {
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4e5, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let g = random_matrix(&mut rng, m, n);
            let fast = mm_ta(&a, &g, m, k, n, &RotomPool::new(2));
            let explicit = mm(&transpose(&a, m, k), &g, k, m, n, &RotomPool::new(2));
            assert_close(&fast, &explicit, 1e-4, &format!("matmul_ta {m}x{k}x{n}"));
        }
    }

    #[test]
    fn transpose_a_fused_slices_are_bit_identical_above_small() {
        // Above SMALL_FLOPS both paths run the same tiled core, so the fused
        // slice transpose must be bit-identical to the materialized one —
        // including shapes where k straddles TA_CHUNK.
        for &(m, k, n) in &[(40, 40, 40), (96, 80, 96), (33, 130, 48), (64, 64, 64)] {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4e7, (m * k * n) as u64));
            let a = random_matrix(&mut rng, m, k);
            let g = random_matrix(&mut rng, m, n);
            for threads in [1, 2, 8] {
                let pool = RotomPool::new(threads);
                let fast = mm_ta(&a, &g, m, k, n, &pool);
                let explicit = mm(&transpose(&a, m, k), &g, k, m, n, &pool);
                assert_eq!(fast, explicit, "ta {m}x{k}x{n} threads={threads}");
            }
        }
    }

    #[test]
    fn prepacked_matches_cold_pack_bitwise() {
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4e8, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let pk = PackedB::pack_row_major(&b, k, n);
            for threads in [1, 2, 8] {
                let pool = RotomPool::new(threads);
                let cold = mm(&a, &b, m, k, n, &pool);
                let mut warm = vec![0.0f32; m * n];
                matmul_into(&a, &b, Some(&pk), m, m, k, n, &pool, &mut warm);
                assert_eq!(cold, warm, "prepacked {m}x{k}x{n} threads={threads}");
            }
        }
    }

    #[test]
    fn prepacked_transposed_matches_cold_bitwise() {
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4e9, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, n, k);
            let pk = PackedB::pack_transposed(&b, k, n);
            // Panel contents must match packing the materialized transpose.
            let bt = transpose(&b, n, k);
            let pk_ref = PackedB::pack_row_major(&bt, k, n);
            assert_eq!(pk.panels, pk_ref.panels, "pack_transposed {k}x{n}");
            for threads in [1, 2, 8] {
                let pool = RotomPool::new(threads);
                let cold = mm_tb(&a, &b, m, k, n, &pool);
                let mut warm = vec![0.0f32; m * n];
                matmul_transpose_b_into(&a, &b, Some(&pk), m, m, k, n, &pool, &mut warm);
                assert_eq!(cold, warm, "tb prepacked {m}x{k}x{n} threads={threads}");
            }
        }
    }

    #[test]
    fn transpose_roundtrips() {
        let mut rng = StdRng::seed_from_u64(0x4e6);
        for &(rows, cols) in &[(1, 1), (1, 17), (33, 65), (64, 64), (100, 3)] {
            let src = random_matrix(&mut rng, rows, cols);
            let rt = transpose(&transpose(&src, rows, cols), cols, rows);
            assert_eq!(src, rt, "{rows}x{cols}");
        }
    }

    #[test]
    fn zero_sized_edges() {
        // m=0 or n=0 products are legal (empty batches) and return empty.
        let pool = RotomPool::new(1);
        assert!(mm(&[], &[1.0, 2.0], 0, 1, 2, &pool).is_empty());
        assert!(mm(&[1.0, 2.0], &[], 1, 2, 0, &pool).is_empty());
    }

    #[test]
    fn band_rows_partitions_all_rows() {
        for full_m in [1usize, 2, 3, 4, 5, 7, 8, 11, 64, 70] {
            for row in 0..full_m {
                let (start, len) = band_rows(full_m, row);
                assert!(start <= row && row < start + len, "{full_m}/{row}");
                assert!(len <= MR && start + len <= full_m);
                if start + len < full_m {
                    assert_eq!(len, MR, "interior bands are full tiles");
                    assert_eq!(start % MR, 0);
                }
            }
        }
    }

    /// Scalar references below are the oracle formulas of the forward
    /// kernels (and so of the tape ops that call them) — every tier must
    /// match them bit-for-bit.
    fn softmax_ref(x: &[f32], mask: Option<&[f32]>, rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for i in 0..rows {
            let row = &x[i * cols..(i + 1) * cols];
            let orow = &mut out[i * cols..(i + 1) * cols];
            let mrow = mask.map(|mm| &mm[i * cols..(i + 1) * cols]);
            let mut max = f32::NEG_INFINITY;
            for (j, &v) in row.iter().enumerate() {
                let m = mrow.map_or(0.0, |mm| mm[j]);
                max = max.max(v + m);
            }
            let mut sum = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let m = mrow.map_or(0.0, |mm| mm[j]);
                let e = (v + m - max).exp();
                orow[j] = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in orow.iter_mut() {
                *o *= inv;
            }
        }
        out
    }

    #[test]
    fn softmax_fwd_matches_tape_formula_bitwise() {
        for (case, &(rows, cols)) in [(1usize, 5usize), (3, 17), (8, 33), (12, 40)]
            .iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4ec, case as u64));
            let x = random_matrix(&mut rng, rows, cols);
            let mut mask = vec![0.0f32; rows * cols];
            for mv in mask.iter_mut() {
                if rng.random_range(0.0f32..1.0) < 0.3 {
                    *mv = -1e9;
                }
            }
            let mut out = vec![0.0f32; rows * cols];
            softmax_fwd(&x, None, rows, cols, &mut out);
            assert_eq!(
                out,
                softmax_ref(&x, None, rows, cols),
                "unmasked {rows}x{cols}"
            );
            softmax_fwd(&x, Some(&mask), rows, cols, &mut out);
            assert_eq!(
                out,
                softmax_ref(&x, Some(&mask), rows, cols),
                "masked {rows}x{cols}"
            );
        }
    }

    #[test]
    fn layernorm_fwd_matches_tape_formula_bitwise() {
        for (case, &(rows, n)) in [(1usize, 7usize), (4, 16), (9, 24), (13, 33)]
            .iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4ed, case as u64));
            let x = random_matrix(&mut rng, rows, n);
            let gamma = random_matrix(&mut rng, 1, n);
            let beta = random_matrix(&mut rng, 1, n);
            let eps = 1e-5f32;
            let mut out = vec![0.0f32; rows * n];
            let mut stats = vec![(0.0f32, 0.0f32); rows];
            layernorm_fwd(&x, &gamma, &beta, eps, rows, n, &mut out, Some(&mut stats));
            let mut expect = vec![0.0f32; rows * n];
            let mut expect_stats = Vec::new();
            for i in 0..rows {
                let row = &x[i * n..(i + 1) * n];
                let mean = row.iter().sum::<f32>() / n as f32;
                let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
                let inv_std = 1.0 / (var + eps).sqrt();
                expect_stats.push((mean, inv_std));
                for (j, &v) in row.iter().enumerate() {
                    expect[i * n + j] = (v - mean) * inv_std * gamma[j] + beta[j];
                }
            }
            assert_eq!(out, expect, "layernorm {rows}x{n}");
            assert_eq!(stats, expect_stats, "layernorm stats {rows}x{n}");
            let mut plain = vec![0.0f32; rows * n];
            layernorm_fwd(&x, &gamma, &beta, eps, rows, n, &mut plain, None);
            assert_eq!(plain, expect, "layernorm without stats {rows}x{n}");
        }
    }

    #[test]
    fn gelu_fwd_matches_tape_formula_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x4ee);
        for len in [1usize, 7, 8, 31, 256] {
            let x = random_matrix(&mut rng, 1, len);
            let mut out = vec![0.0f32; len];
            let mut tanh = vec![0.0f32; len];
            gelu_fwd(&x, &mut out, Some(&mut tanh));
            let mut plain = vec![0.0f32; len];
            gelu_fwd(&x, &mut plain, None);
            assert_eq!(out, plain, "gelu len={len}: tanh output changes nothing");
            for (j, (&v, &o)) in x.iter().zip(&out).enumerate() {
                let th = (0.797_884_6f32 * (v + 0.044_715 * v * v * v)).tanh();
                let expect = 0.5 * v * (1.0 + th);
                assert_eq!(o, expect, "gelu len={len} j={j}");
                assert_eq!(tanh[j], th, "gelu tanh len={len} j={j}");
            }
        }
    }

    #[test]
    fn fused_bias_act_matches_unfused_sequence_bitwise() {
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4ef, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let bias = random_matrix(&mut rng, 1, n);
            let pk = PackedB::pack_row_major(&b, k, n);
            for threads in [1, 8] {
                let pool = RotomPool::new(threads);
                // Unfused reference: matmul, then add_row, then gelu — the
                // tape's exact op sequence.
                let mut expect = mm(&a, &b, m, k, n, &pool);
                for i in 0..m {
                    for j in 0..n {
                        expect[i * n + j] += bias[j];
                    }
                }
                let mut expect_gelu = expect.clone();
                gelu_fwd(&expect, &mut expect_gelu, None);
                let bias = Some(&bias[..]);
                let mut fused = vec![0.0f32; m * n];
                for pk in [None, Some(&pk)] {
                    for (act, want) in [(Act::None, &expect), (Act::Gelu, &expect_gelu)] {
                        matmul_bias_act_into(&a, &b, pk, bias, act, m, m, k, n, &pool, &mut fused);
                        assert_eq!(&fused, want, "fused {act:?} {m}x{k}x{n} threads={threads}");
                    }
                }
            }
        }
    }

    // -- Quantized i8 GEMM ---------------------------------------------------

    /// Run the quantized activation pass the way the kernel entry does and
    /// return `(qa, scales, zero_points, k_pad)`.
    fn quantize_a(a: &[f32], m: usize, k: usize) -> (Vec<u8>, Vec<f32>, Vec<u8>, usize) {
        let quads = k.div_ceil(4);
        let k_pad = quads * 4;
        let mut qa = vec![0u8; m * k_pad];
        let mut scales = vec![0.0f32; m];
        let mut zps = vec![0u8; m];
        quantize_activations(a, m, k, quads, &mut qa, &mut scales, &mut zps);
        (qa, scales, zps, k_pad)
    }

    /// Exact-integer scalar reference for the whole quantized product,
    /// including the dequantization formula verbatim — the kernel (SIMD or
    /// not, any thread count) must match it bit-for-bit.
    fn quant_reference(a: &[f32], qb: &QuantizedB, m: usize, k: usize, n: usize) -> Vec<f32> {
        let (qa, scales, zps, k_pad) = quantize_a(a, m, k);
        let qw = &qb.rows;
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                let mut colsum = 0i64;
                for p in 0..k {
                    acc += qa[i * k_pad + p] as i64 * qw[p * n + j] as i64;
                    colsum += qw[p * n + j] as i64;
                }
                let corrected = (acc - zps[i] as i64 * colsum) as i32;
                out[i * n + j] = corrected as f32 * (scales[i] * qb.scales()[j]);
            }
        }
        out
    }

    #[test]
    fn quant_matches_exact_integer_reference_bitwise_at_any_thread_count() {
        // Integer accumulation is exact, so the kernel — scalar or AVX2,
        // serial or fanned out — must agree with the plain-Rust reference
        // bit-for-bit. This is the cross-tier equivalence proof: whichever
        // SIMD tier this machine dispatches to, it reproduced the scalar
        // integers exactly.
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4f0, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let qb = QuantizedB::quantize_row_major(&b, k, n);
            let expect = quant_reference(&a, &qb, m, k, n);
            for threads in [1, 2, 8] {
                let pool = RotomPool::new(threads);
                let mut out = vec![f32::NAN; m * n];
                matmul_bias_act_i8_into(&a, &qb, None, Act::None, m, k, n, &pool, &mut out);
                assert_eq!(out, expect, "quant {m}x{k}x{n} threads={threads}");
            }
        }
    }

    #[test]
    fn quant_error_stays_within_analytic_bound() {
        // Rounding model: a = r·(qa−z) + eₐ with |eₐ| ≤ 0.5r, w = s·qw + e_w
        // with |e_w| ≤ 0.5s, so per element
        //   |C_q − C| ≤ 0.5·s_j·Σ_p|a[i][p]| + 0.5·r_i·Σ_p|w[p][j]| + 0.25·k·r_i·s_j
        // plus a small absolute slack for the f32 evaluation of both sides.
        for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(split_seed(0x4f1, case as u64));
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let qb = QuantizedB::quantize_row_major(&b, k, n);
            let (_, a_scales, _, _) = quantize_a(&a, m, k);
            let exact = matmul_naive(&a, &b, m, k, n);
            let pool = RotomPool::new(1);
            let mut quant = vec![0.0f32; m * n];
            matmul_bias_act_i8_into(&a, &qb, None, Act::None, m, k, n, &pool, &mut quant);
            for i in 0..m {
                let a_abs: f32 = a[i * k..(i + 1) * k].iter().map(|v| v.abs()).sum();
                for j in 0..n {
                    let w_abs: f32 = (0..k).map(|p| b[p * n + j].abs()).sum();
                    let r = a_scales[i];
                    let s = qb.scales()[j];
                    let bound = 0.5 * s * a_abs + 0.5 * r * w_abs + 0.25 * k as f32 * r * s + 1e-3;
                    let err = (quant[i * n + j] - exact[i * n + j]).abs();
                    assert!(
                        err <= bound,
                        "quant {m}x{k}x{n} [{i},{j}]: err {err} > bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn quant_degenerate_rows_and_columns_are_exact_and_finite() {
        let (m, k, n) = (6, 40, 20);
        let mut rng = StdRng::seed_from_u64(0x4f2);
        let mut a = random_matrix(&mut rng, m, k);
        let mut b = random_matrix(&mut rng, k, n);
        // Row 0 of A all zero; row 2 constant; column 3 of B all zero.
        for v in &mut a[..k] {
            *v = 0.0;
        }
        for v in &mut a[2 * k..3 * k] {
            *v = 1.25;
        }
        for p in 0..k {
            b[p * n + 3] = 0.0;
        }
        let qb = QuantizedB::quantize_row_major(&b, k, n);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.1 - 1.0).collect();
        let pool = RotomPool::new(1);
        let mut out = vec![f32::NAN; m * n];
        matmul_bias_act_i8_into(&a, &qb, Some(&bias), Act::None, m, k, n, &pool, &mut out);
        assert!(out.iter().all(|v| v.is_finite()), "no NaN/inf anywhere");
        for j in 0..n {
            // Zero activation row: 0·W + bias exactly.
            assert_eq!(out[j], bias[j], "zero row col {j}");
        }
        for i in 0..m {
            // Zero weight column: bias exactly.
            assert_eq!(out[i * n + 3], bias[3], "zero col row {i}");
        }
        // All-zero inputs on both sides (the fully degenerate case).
        let za = vec![0.0f32; m * k];
        let zb = QuantizedB::quantize_row_major(&vec![0.0f32; k * n], k, n);
        let mut zout = vec![f32::NAN; m * n];
        matmul_bias_act_i8_into(&za, &zb, None, Act::None, m, k, n, &pool, &mut zout);
        assert!(zout.iter().all(|&v| v == 0.0), "zero·zero is exactly zero");
    }

    #[test]
    fn quant_weight_roundtrip_bounds_per_element_relative_error() {
        let mut rng = StdRng::seed_from_u64(0x4f3);
        for &(k, n) in &[(7usize, 5usize), (32, 16), (33, 65), (128, 48)] {
            let b = random_matrix(&mut rng, k, n);
            let qb = QuantizedB::quantize_row_major(&b, k, n);
            let qw = &qb.rows;
            for j in 0..n {
                let colmax = (0..k).map(|p| b[p * n + j].abs()).fold(0.0f32, f32::max);
                let s = qb.scales()[j];
                for p in 0..k {
                    let rt = qw[p * n + j] as f32 * s;
                    let err = (rt - b[p * n + j]).abs();
                    // Round-trip error ≤ half a quantization step, i.e.
                    // ≤ colmax/254 + f32 slack: bounded relative to the
                    // column's max magnitude.
                    assert!(
                        err <= 0.5 * s + colmax * 1e-6 + 1e-7,
                        "roundtrip {k}x{n} [{p},{j}]: {rt} vs {} (err {err})",
                        b[p * n + j]
                    );
                }
            }
        }
    }

    #[test]
    fn quant_fused_epilogue_matches_shared_bias_act() {
        // The epilogue is the same `bias_act_apply` the f32 path uses, so
        // quant-with-bias/gelu must equal quant-plain + manual epilogue.
        let (m, k, n) = (9, 48, 33);
        let mut rng = StdRng::seed_from_u64(0x4f4);
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let bias = random_matrix(&mut rng, 1, n);
        let qb = QuantizedB::quantize_row_major(&b, k, n);
        let pool = RotomPool::new(1);
        let mut plain = vec![0.0f32; m * n];
        matmul_bias_act_i8_into(&a, &qb, None, Act::None, m, k, n, &pool, &mut plain);
        bias_act_apply(&mut plain, m, n, Some(&bias), Act::Gelu);
        let mut fused = vec![0.0f32; m * n];
        matmul_bias_act_i8_into(&a, &qb, Some(&bias), Act::Gelu, m, k, n, &pool, &mut fused);
        assert_eq!(fused, plain, "fused quant epilogue");
    }

    /// Manual micro-benchmark (not a correctness test):
    /// `cargo test --release -p rotom-nn quant_kernel_speed -- --ignored --nocapture`
    #[test]
    #[ignore = "timing diagnostics, run manually with --nocapture"]
    fn quant_kernel_speed_vs_f32() {
        use std::time::Instant;
        let pool = RotomPool::new(1);
        for (m, k, n) in [
            (12usize, 128usize, 128usize),
            (48, 128, 256),
            (48, 256, 128),
        ] {
            let mut rng = StdRng::seed_from_u64(0x4f5);
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let pk = PackedB::pack_row_major(&b, k, n);
            let qb = QuantizedB::quantize_row_major(&b, k, n);
            let mut out = vec![0.0f32; m * n];
            let reps = 20_000usize;
            let time = |f: &mut dyn FnMut()| {
                f();
                let t = Instant::now();
                for _ in 0..reps {
                    f();
                }
                t.elapsed().as_secs_f64() / reps as f64
            };
            let f32_s = time(&mut || {
                matmul_bias_act_into(
                    &a,
                    &b,
                    Some(&pk),
                    None,
                    Act::None,
                    m,
                    m,
                    k,
                    n,
                    &pool,
                    &mut out,
                )
            });
            let i8_s = time(&mut || {
                matmul_bias_act_i8_into(&a, &qb, None, Act::None, m, k, n, &pool, &mut out)
            });
            let k_pad = qb.quads * 4;
            let mut qa = vec![0u8; m * k_pad];
            let mut scales = vec![0.0f32; m];
            let mut zps = vec![0u8; m];
            let quantize_s = time(&mut || {
                quantize_activations(&a, m, k, qb.quads, &mut qa, &mut scales, &mut zps)
            });
            let core_s = time(&mut || quant_block(&qa, &scales, &zps, m, &qb, &mut out));
            println!(
                "{m}x{k}x{n}: f32 {:.2}us | i8 {:.2}us ({:.2}x) | quantize {:.2}us core {:.2}us",
                f32_s * 1e6,
                i8_s * 1e6,
                f32_s / i8_s,
                quantize_s * 1e6,
                core_s * 1e6,
            );
        }
    }
}
