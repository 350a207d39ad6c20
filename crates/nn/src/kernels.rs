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
//! plus the fused forward epilogue [`matmul_bias_act_into`]. [`matmul_naive`]
//! and [`matmul_transpose_b_naive`] are the test oracles.
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
//! [`matmul_transpose_a_into`] takes `full_m` too. There the band's rows
//! are the contraction's: the backward of a band GEMM contracts only the
//! band's rows of `dY`, where the full-rows graph also added rows of zeros.
//! Dispatching on `full_m` keeps the tier, and so the rounding, of the full
//! contraction, and a zero row adds only `x·0` terms.
//!
//! The forward kernels ([`softmax_fwd`], [`layernorm_fwd`], [`gelu_fwd`],
//! `add_fwd`, `scale_fwd`) compute the tape ops' values too, so the tape
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
//! On x86-64 two vector tiers are selected once per process by runtime
//! feature detection (the workspace compiles against baseline x86-64, so
//! the intrinsics path is how wide vectors are reached without
//! `-C target-cpu`). Detection is process-global, so every invocation —
//! serial or parallel, any thread — takes the same code path.
//!
//! * **AVX2+FMA**: the tiled core's full-tile micro-kernel (fused
//!   multiply-add), plus GELU's `tanh` and softmax's `exp` eight lanes at a
//!   time.
//! * **AVX** (no FMA contraction): the naive tier below [`SMALL_FLOPS`]
//!   (four output rows per register block, sharing each load of `B`), the
//!   tiled core's ragged row block against the packed panel, and the
//!   element-wise forward passes.
//!
//! Every vector kernel except the full-tile FMA micro-kernel reproduces its
//! scalar fallback bit for bit: the same operations, the same roundings, in
//! the same per-element order. The transcendentals are no exception. `tanh`
//! and `exp` are ports of glibc's binary32 `tanhf` and `expf` (the private
//! `vmath` module) rather than calls into the host libm, so the two tiers
//! agree on every host and no result depends on the libm it links. The
//! contract is checked at three levels: SIMD port against scalar port on
//! all 2³² inputs (`#[ignore]`d, run by `ci.sh`) and on a strided sweep
//! plus every branch boundary (default suite); scalar port against glibc
//! 2.36's libm on all 2³² inputs (`#[ignore]`d, host-specific); SIMD GEMM
//! tiers against the scalar kernels on ragged shapes (default suite).
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
use crate::vmath;
use std::cell::RefCell;

/// Rows of `C` per register tile.
pub const MR: usize = 4;
/// Columns of `C` per register tile — two 8-wide AVX vectors in the FMA
/// micro-kernel (the scalar fallback walks the same width).
pub const NR: usize = 16;
/// Below this many multiply-adds (`m·k·n`), use the plain i-k-j kernel.
pub const SMALL_FLOPS: usize = 32 * 32 * 32;

/// The GEMM tier rule: a product of `full_m·k·n` multiply-adds runs the
/// tiled core at or above [`SMALL_FLOPS`] and the naive kernel below it.
/// Every entry point dispatches on it, and `ParamPacks` hands out a
/// parameter's prepacked panels only where it says tiled.
pub(crate) fn tiled(full_m: usize, k: usize, n: usize) -> bool {
    full_m * k * n >= SMALL_FLOPS
}
/// Below this many multiply-adds, never fan out across threads.
pub const PAR_MIN_FLOPS: usize = 64 * 64 * 64;

/// The GEMM fan-out rule: a tiled product of `flops` multiply-adds with
/// `rows` output rows splits its rows across the pool (on `MR`-row
/// boundaries) only at or above [`PAR_MIN_FLOPS`], with more than one
/// worker and at least two row tiles. Both tiled entry points dispatch on
/// it; the split never changes values.
fn fan_out(flops: usize, rows: usize, pool: &RotomPool) -> bool {
    flops >= PAR_MIN_FLOPS && pool.threads() > 1 && rows >= 2 * MR
}

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

    #[inline]
    pub(super) fn bump(counter: &AtomicU64) {
        if telemetry::enabled() {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cumulative `(naive, tiled_serial, tiled_parallel)` dispatch counts
    /// since process start (all zero unless telemetry is enabled).
    pub(crate) fn gemm_counters() -> (u64, u64, u64) {
        (
            NAIVE.load(Ordering::Relaxed),
            TILED_SERIAL.load(Ordering::Relaxed),
            TILED_PARALLEL.load(Ordering::Relaxed),
        )
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
                ("fma", Value::U64(fma_active() as u64)),
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

/// Reference kernel: the seed's naive i-k-j loop (single accumulator per
/// element, increasing `k`), kept as the ground truth for property tests and
/// the benchmark baseline.
///
/// It computes one row per pass (32 columns in registers on the AVX tier),
/// as the naive tier did before it took four-row register blocks, so the
/// baseline `perfsmoke` times the tiled kernel against stays the same
/// kernel; every tier returns the same bits.
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        for i in 0..m {
            // SAFETY: `available()` checked; row `i` of `a` is
            // `a[i·k..][..k]`, `b` is `k×n` and row `i` of `out` has `n`
            // elements.
            unsafe {
                let (a, o) = (a.as_ptr().add(i * k), out.as_mut_ptr().add(i * n));
                avx::rows_accum::<1, 4, true>(a, 0, 1, k, b.as_ptr(), n, n, o, n)
            };
        }
        return out;
    }
    naive_rows::<true>(a, m, k, 1, k, b, n, n, &mut out);
    out
}

/// The naive tier: `rows` output rows of the saxpy-form product
/// `out[i·n + j] = Σ_p a(i, p)·b[p·ldb + j]` for `p < cnt`, with
/// `a(i, p) = avs[i·row_step + p·stride]` (`out` is `rows×n`, fully
/// overwritten). Strides serve all three layouts: `A·B`, `A·Bᵀ` against a
/// packed `Bᵀ`, and `Aᵀ·G` reading `A`'s columns.
///
/// Runs [`avx::rows_accum_all`] where AVX is available, else
/// [`rows_accum_scalar`]; the two return the same bits.
#[allow(clippy::too_many_arguments)]
fn naive_rows<const SKIP_ZERO: bool>(
    avs: &[f32],
    rows: usize,
    row_step: usize,
    stride: usize,
    cnt: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    out: &mut [f32],
) {
    debug_assert!(rows == 0 || cnt == 0 || (rows - 1) * row_step + (cnt - 1) * stride < avs.len());
    debug_assert!(cnt == 0 || (cnt - 1) * ldb + n <= b.len());
    debug_assert_eq!(out.len(), rows * n);
    #[cfg(target_arch = "x86_64")]
    if avx::available() {
        // SAFETY: `available()` checked; the bounds are the ones asserted
        // above, which every caller's shapes satisfy.
        unsafe {
            avx::rows_accum_all::<SKIP_ZERO>(
                avs.as_ptr(),
                rows,
                row_step,
                stride,
                cnt,
                b.as_ptr(),
                ldb,
                n,
                out.as_mut_ptr(),
            )
        };
        return;
    }
    rows_accum_scalar::<SKIP_ZERO>(avs, rows, row_step, stride, cnt, b, ldb, n, out);
}

/// The scalar twin of [`avx::rows_accum_all`], with the same arguments:
/// every output scalar starts from zero and accumulates in increasing `p`
/// with separate mul and add roundings. With `SKIP_ZERO` a term whose
/// `a(i, p)` is zero is skipped (adding `0·b` would turn the sum NaN where
/// `b` is infinite or NaN).
#[allow(clippy::too_many_arguments)]
fn rows_accum_scalar<const SKIP_ZERO: bool>(
    avs: &[f32],
    rows: usize,
    row_step: usize,
    stride: usize,
    cnt: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    out: &mut [f32],
) {
    out.fill(0.0);
    for i in 0..rows {
        let o_row = &mut out[i * n..(i + 1) * n];
        for p in 0..cnt {
            let av = avs[i * row_step + p * stride];
            if SKIP_ZERO && av == 0.0 {
                continue;
            }
            for (o, &bv) in o_row.iter_mut().zip(&b[p * ldb..p * ldb + n]) {
                *o += av * bv;
            }
        }
    }
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
#[derive(Debug)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Pack a row-major `k×n` operand.
    pub fn pack_row_major(b: &[f32], k: usize, n: usize) -> Self {
        debug_assert_eq!(b.len(), k * n);
        Self::pack(&BRowMajor { b, n }, k, n)
    }

    /// Pack the *transpose* of an `n×k` row-major matrix, i.e. the logical
    /// operand is `srcᵀ` (`k×n`). Panels are packed straight from the
    /// strided columns, with contents bit-identical to
    /// `pack_row_major(transpose(src))`.
    pub fn pack_transposed(src: &[f32], k: usize, n: usize) -> Self {
        debug_assert_eq!(src.len(), k * n);
        Self::pack(&BTransposed { b: src, k }, k, n)
    }

    /// Store every full strip of `src` through its own `panel` routine, so
    /// a stored panel is the one the tiled core would pack on the fly.
    fn pack(src: &impl BSrc, k: usize, n: usize) -> Self {
        let full_cols = n - n % NR;
        let mut panels = vec![0.0f32; k * full_cols];
        for j0 in (0..full_cols).step_by(NR) {
            src.panel(j0, k, &mut panels[j0 * k..(j0 + NR) * k]);
        }
        Self { k, n, panels }
    }

    /// Logical `(k, n)` shape of the packed operand.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
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

/// AVX2+FMA tier, selected at runtime on x86-64: the tiled core's
/// full-tile micro-kernel and the eight-lane GELU and softmax `exp` sweeps
/// over the bit-exact libm ports.
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{MR, NR};
    use crate::vmath;
    use core::arch::x86_64::*;

    /// Whether the running CPU supports the AVX2+FMA micro-kernel. Detected
    /// once; the cached result makes the dispatch process-global, so serial
    /// and parallel runs (and every worker thread) always agree on the path.
    #[inline]
    pub(crate) fn available() -> bool {
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

    /// One eight-lane GELU step: `(0.5·x)·(1 + t)` with
    /// `t = tanh(c·(x + ((a·x)·x)·x))`, every step one rounding (no FMA) and
    /// `tanh` the port of `tanhf`. Returns `(gelu, t)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gelu8(xv: __m256, c: f32, a: f32) -> (__m256, __m256) {
        let t1 = _mm256_mul_ps(_mm256_set1_ps(a), xv);
        let t2 = _mm256_mul_ps(t1, xv);
        let t3 = _mm256_mul_ps(t2, xv);
        let u = _mm256_mul_ps(_mm256_set1_ps(c), _mm256_add_ps(xv, t3));
        let th = vmath::x86::tanh8(u);
        let hx = _mm256_mul_ps(_mm256_set1_ps(0.5), xv);
        (
            _mm256_mul_ps(hx, _mm256_add_ps(_mm256_set1_ps(1.0), th)),
            th,
        )
    }

    /// Tanh-approximation GELU over raw pointers (`xp` and `op` may be
    /// equal for in-place use) with the eight-lane `tanhf` port; a ragged
    /// tail runs through the same vector step on a padded copy. Non-null
    /// `tp` receives the `tanh` factors.
    ///
    /// # Safety
    /// Caller must have checked [`available`]; `xp` must be readable and
    /// `op` writable for `n` elements, equal or disjoint (each lane is read
    /// before it is written); `tp` is null or writable for `n` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_ptr(xp: *const f32, n: usize, c: f32, a: f32, op: *mut f32, tp: *mut f32) {
        let mut j = 0;
        while j + 8 <= n {
            let (g, th) = gelu8(_mm256_loadu_ps(xp.add(j)), c, a);
            if !tp.is_null() {
                _mm256_storeu_ps(tp.add(j), th);
            }
            _mm256_storeu_ps(op.add(j), g);
            j += 8;
        }
        if j < n {
            let rest = n - j;
            let mut lanes = [0.0f32; 8];
            std::ptr::copy_nonoverlapping(xp.add(j), lanes.as_mut_ptr(), rest);
            let (g, th) = gelu8(_mm256_loadu_ps(lanes.as_ptr()), c, a);
            if !tp.is_null() {
                _mm256_storeu_ps(lanes.as_mut_ptr(), th);
                std::ptr::copy_nonoverlapping(lanes.as_ptr(), tp.add(j), rest);
            }
            _mm256_storeu_ps(lanes.as_mut_ptr(), g);
            std::ptr::copy_nonoverlapping(lanes.as_ptr(), op.add(j), rest);
        }
    }

    /// `x[j] = exp(x[j] − shift)` with the eight-lane `expf` port; a ragged
    /// tail runs through the same vector step on a padded copy.
    ///
    /// # Safety
    /// Caller must have checked [`available`].
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn exp_shifted(x: &mut [f32], shift: f32) {
        let vs = _mm256_set1_ps(shift);
        let mut chunks = x.chunks_exact_mut(8);
        for c in &mut chunks {
            let v = _mm256_sub_ps(_mm256_loadu_ps(c.as_ptr()), vs);
            _mm256_storeu_ps(c.as_mut_ptr(), vmath::x86::exp8(v));
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mut lanes = [0.0f32; 8];
            lanes[..rest.len()].copy_from_slice(rest);
            let v = _mm256_sub_ps(_mm256_loadu_ps(lanes.as_ptr()), vs);
            _mm256_storeu_ps(lanes.as_mut_ptr(), vmath::x86::exp8(v));
            rest.copy_from_slice(&lanes[..rest.len()]);
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
    use super::NR;
    use core::arch::x86_64::*;

    /// Whether the running CPU supports AVX. Detected once (process-global,
    /// like [`super::fma::available`]).
    #[inline]
    pub(crate) fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| std::is_x86_feature_detected!("avx"))
    }

    /// `R` output rows of a saxpy-form product, held in registers across
    /// the whole reduction:
    /// `out[r·ldo + j] = Σ_p a(r, p) · b[p·ldb + j]` for `j < n`, with
    /// `a(r, p) = avs[r·row_step + p·stride]`.
    ///
    /// Every output scalar keeps the increasing-`p` single-accumulator
    /// order with *separate* mul and add roundings (no FMA contraction —
    /// only the `avx` feature is enabled), so results are bit-identical to
    /// the scalar loops. With `SKIP_ZERO` a term with `a(r, p) == 0.0` is
    /// skipped, as the scalar saxpy loop does (adding `0·b` would turn the
    /// sum NaN where `b` is infinite or NaN). Columns go `8·W` at a time
    /// (then 8, then one): the `R` rows share each load of `b`, and the
    /// `R·W` accumulator chains hide the `vaddps` latency.
    ///
    /// # Safety
    /// Caller must have checked [`available`]; `avs` must be readable at
    /// `r·row_step + p·stride` for `r < R`, `p < cnt`, `b` at `p·ldb + j`
    /// for `j < n`, and `out` writable at `r·ldo + j`.
    #[target_feature(enable = "avx")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn rows_accum<const R: usize, const W: usize, const SKIP_ZERO: bool>(
        avs: *const f32,
        row_step: usize,
        stride: usize,
        cnt: usize,
        b: *const f32,
        ldb: usize,
        n: usize,
        out: *mut f32,
        ldo: usize,
    ) {
        let a = |r: usize, p: usize| *avs.add(r * row_step + p * stride);
        let mut j = 0usize;
        while j + 8 * W <= n {
            let mut acc = [[_mm256_setzero_ps(); W]; R];
            for p in 0..cnt {
                let bp = b.add(p * ldb + j);
                let bv: [__m256; W] = std::array::from_fn(|w| _mm256_loadu_ps(bp.add(8 * w)));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = a(r, p);
                    if SKIP_ZERO && av == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(av);
                    for (acc, &bv) in acc.iter_mut().zip(&bv) {
                        *acc = _mm256_add_ps(*acc, _mm256_mul_ps(va, bv));
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                for (w, &acc) in acc.iter().enumerate() {
                    _mm256_storeu_ps(out.add(r * ldo + j + 8 * w), acc);
                }
            }
            j += 8 * W;
        }
        while j + 8 <= n {
            let mut acc = [_mm256_setzero_ps(); R];
            for p in 0..cnt {
                let b0 = _mm256_loadu_ps(b.add(p * ldb + j));
                for (r, acc) in acc.iter_mut().enumerate() {
                    let av = a(r, p);
                    if SKIP_ZERO && av == 0.0 {
                        continue;
                    }
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(_mm256_set1_ps(av), b0));
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.add(r * ldo + j), *acc);
            }
            j += 8;
        }
        while j < n {
            for r in 0..R {
                let mut s = 0.0f32;
                for p in 0..cnt {
                    let av = a(r, p);
                    if SKIP_ZERO && av == 0.0 {
                        continue;
                    }
                    s += av * *b.add(p * ldb + j);
                }
                *out.add(r * ldo + j) = s;
            }
            j += 1;
        }
    }

    /// [`rows_accum`] over `rows` output rows in register blocks of four
    /// rows by 16 columns (then one block of the 1–3 rows left over); row
    /// `i` reads `avs + i·row_step` and writes `out + i·n`.
    ///
    /// # Safety
    /// As [`rows_accum`], for every `r < rows`.
    #[target_feature(enable = "avx")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn rows_accum_all<const SKIP_ZERO: bool>(
        avs: *const f32,
        rows: usize,
        row_step: usize,
        stride: usize,
        cnt: usize,
        b: *const f32,
        ldb: usize,
        n: usize,
        out: *mut f32,
    ) {
        let mut i = 0;
        while i + 4 <= rows {
            let (a, o) = (avs.add(i * row_step), out.add(i * n));
            rows_accum::<4, 2, SKIP_ZERO>(a, row_step, stride, cnt, b, ldb, n, o, n);
            i += 4;
        }
        let (a, o) = (avs.add(i * row_step), out.add(i * n));
        match rows - i {
            1 => rows_accum::<1, 4, SKIP_ZERO>(a, row_step, stride, cnt, b, ldb, n, o, n),
            2 => rows_accum::<2, 4, SKIP_ZERO>(a, row_step, stride, cnt, b, ldb, n, o, n),
            3 => rows_accum::<3, 2, SKIP_ZERO>(a, row_step, stride, cnt, b, ldb, n, o, n),
            _ => {}
        }
    }

    /// Ragged row block of the tiled core: `mr < MR` rows of `A` (row `r`
    /// at `a[r·k..]`) against one packed `k×NR` panel, into columns
    /// `j0..j0 + NR` of `out` (row stride `n`).
    ///
    /// The same separate mul and add roundings in increasing `p` as the
    /// scalar edge kernel this replaces on full column strips, so the bits
    /// are unchanged; the panel is the one the full tiles above just used.
    ///
    /// # Safety
    /// Caller must have checked [`available`]; `a` holds `mr·k` elements,
    /// `panel` `k·NR`, and `out` rows `0..mr` are `n ≥ j0 + NR` long.
    #[target_feature(enable = "avx")]
    pub unsafe fn micro_ragged(
        a: &[f32],
        mr: usize,
        k: usize,
        panel: &[f32],
        j0: usize,
        n: usize,
        out: &mut [f32],
    ) {
        debug_assert!(
            a.len() >= mr * k && panel.len() >= k * NR && out.len() >= (mr - 1) * n + j0 + NR
        );
        let (ap, bp, op) = (a.as_ptr(), panel.as_ptr(), out.as_mut_ptr().add(j0));
        match mr {
            1 => rows_accum::<1, 2, false>(ap, k, 1, k, bp, NR, NR, op, n),
            2 => rows_accum::<2, 2, false>(ap, k, 1, k, bp, NR, NR, op, n),
            3 => rows_accum::<3, 2, false>(ap, k, 1, k, bp, NR, NR, op, n),
            _ => unreachable!("ragged block of {mr} rows"),
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
}

/// Edge tile: `mr ≤ MR` rows by `nr ≤ NR` columns. Same accumulation order
/// as [`micro_full`] (per-element single accumulator, `p` increasing, one
/// mul and one add rounding per step), scalar-indexed for the ragged bounds,
/// reading the raw operand through [`BSrc::at`]. It covers the ragged
/// column strip; the ragged row block on full strips takes
/// `avx::micro_ragged`, the same roundings against the packed panel, where
/// AVX is available.
#[inline]
#[allow(
    clippy::too_many_arguments,
    reason = "the tile's operands and bounds, passed flat in the hot loop"
)]
#[allow(
    clippy::needless_range_loop,
    reason = "`c` indexes both `acc` and the B column; the hot loop stays as written so its codegen does not move"
)]
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
    let (use_fma, use_avx) = (fma::available(), avx::available());
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
        // The ragged row block (`rows % MR` rows) on this full strip reuses
        // the packed panel.
        if full_rows < rows {
            let mr = rows - full_rows;
            #[cfg(target_arch = "x86_64")]
            if use_avx {
                let a = &a_block[full_rows * k..];
                let out = &mut out_block[full_rows * n..];
                // SAFETY: `available()` checked; `a` is `mr×k`, the panel
                // `k×NR` and `out` holds `mr` rows of `n ≥ j0 + NR`.
                unsafe { avx::micro_ragged(a, mr, k, panel, j0, n, out) };
                j0 += NR;
                continue;
            }
            micro_edge(a_block, k, bsrc, n, full_rows, j0, mr, NR, out_block);
        }
        j0 += NR;
    }
    put_scratch(scratch);
    // The ragged column strip (j ≥ full_cols, all rows) shares the scalar
    // edge kernel and reads the operand directly.
    if full_cols < n {
        for i0 in (0..rows).step_by(MR) {
            let mr = (rows - i0).min(MR);
            micro_edge(
                a_block,
                k,
                bsrc,
                n,
                i0,
                full_cols,
                mr,
                n - full_cols,
                out_block,
            );
        }
    }
}

/// Serial-or-parallel dispatch of the tiled core over `m` output rows.
/// Caller has already ruled out the naive tier (see [`tiled`]); the
/// fan-out follows [`fan_out`].
fn tiled_dispatch<B: BSrc>(
    a: &[f32],
    bsrc: &B,
    m: usize,
    k: usize,
    n: usize,
    pool: &RotomPool,
    out: &mut [f32],
) {
    if !fan_out(m * k * n, m, pool) {
        profile::bump(&profile::TILED_SERIAL);
        matmul_block_tiled(a, m, k, bsrc, n, out);
    } else {
        profile::bump(&profile::TILED_PARALLEL);
        // Split the output on MR-row boundaries so every worker runs full
        // tiles with the exact code (and summation order) the serial path
        // uses; each worker owns its rows of `out` as a disjoint slice.
        pool.chunk_rows(out, n, MR, |first, out_block| {
            let rows = out_block.len() / n;
            let a_block = &a[first * k..(first + rows) * k];
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
    if !tiled(full_m, k, n) {
        profile::bump(&profile::NAIVE);
        naive_rows::<true>(a, m, k, 1, k, b, n, n, out);
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
    // Pack `Bᵀ` (`k×n`) so the dot products take the saxpy form of the
    // naive `A·B` tier: each output scalar still accumulates `a[i][p]·b[j][p]`
    // in increasing `p` with separate roundings, and no zero skip.
    let mut bt = take_scratch(k * n);
    for j in 0..n {
        for p in 0..k {
            bt[p * n + j] = b[j * k + p];
        }
    }
    naive_rows::<false>(a, m, k, 1, k, &bt, n, n, out);
    put_scratch(bt);
}

/// `C = A·Bᵀ` for an `m`-row band of a `full_m`-row product into a caller
/// buffer (`A`: the band's `m×k` rows, `B`: `n×k`, `out`: `m×n`, fully
/// overwritten), with the band and dispatch rules of [`matmul_into`].
///
/// Large shapes stream `B`'s stored columns straight into packed panels
/// (transpose-free; contents bit-identical to packing a materialized
/// transpose); small shapes pack `Bᵀ` for the naive tier. Both paths share
/// the increasing-`k` single-accumulator order, so the choice never changes
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
    if !tiled(full_m, k, n) {
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
/// fully overwritten), where the `m` rows are the leading band of a
/// `full_m`-row contraction whose other rows of `G` are zero. A full pass
/// passes `m == full_m`.
///
/// This is the weight-gradient contraction (`dW = Xᵀ·dY`) in every matmul
/// backward; a tape graph that computes only a row band of a layer passes
/// the layer's full row count. Naive-vs-tiled dispatch is decided on
/// `full_m·k·n`, so the band rounds like the full contraction: the rows it
/// leaves out would only add `x·0` terms. Large shapes transpose `A` in
/// `TA_CHUNK`-row slices into thread-local scratch *inside* each worker's
/// row range (the former global `O(m·k)` transpose allocation is gone and
/// the copy parallelizes with the compute); accumulation runs over `m` in
/// increasing order on every path, and the fan-out splits output rows, so
/// it never changes values.
#[allow(clippy::too_many_arguments)]
pub fn matmul_transpose_a_into(
    a: &[f32],
    g: &[f32],
    full_m: usize,
    m: usize,
    k: usize,
    n: usize,
    pool: &RotomPool,
    out: &mut [f32],
) {
    debug_assert!(m <= full_m);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(g.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    if !tiled(full_m, k, n) {
        profile::bump(&profile::NAIVE);
        // Direct q-i-j form: out[q][j] += a[i][q] * g[i][j], i increasing.
        naive_rows::<true>(a, k, 1, k, m, g, n, n, out);
        return;
    }
    if !fan_out(m * k * n, k, pool) {
        profile::bump(&profile::TILED_SERIAL);
        transpose_a_block(a, g, m, k, n, 0, out);
    } else {
        profile::bump(&profile::TILED_PARALLEL);
        // Same MR-row output split as `tiled_dispatch` (output rows are the
        // rows of Aᵀ).
        pool.chunk_rows(out, n, MR, |first, out_block| {
            transpose_a_block(a, g, m, k, n, first, out_block);
        });
    }
}

/// Rows per fused-transpose slice of [`matmul_transpose_a_into`]'s large
/// path: bounds the scratch to `64×m` floats.
const TA_CHUNK: usize = 64;

/// Compute the output rows of `C = Aᵀ·G` that start at row `q0` and fill
/// `out_block`, by transposing `TA_CHUNK`-row slices of `Aᵀ` into scratch
/// and running the tiled core on each. Row `q` of `C` depends only on
/// column `q` of `A` and the shared `G` panels, so slicing never changes
/// values — each slice is bit-identical to the same rows of a whole-matrix
/// `transpose(A)` followed by the tiled core.
fn transpose_a_block(
    a: &[f32],
    g: &[f32],
    m: usize,
    k: usize,
    n: usize,
    q0: usize,
    out_block: &mut [f32],
) {
    let q1 = q0 + out_block.len() / n;
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
pub(crate) fn bias_act_apply(
    out: &mut [f32],
    rows: usize,
    n: usize,
    bias: Option<&[f32]>,
    act: Act,
) {
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
/// the in-place `bias_act_apply` epilogue — one output sweep instead of
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
    bias_act_apply(out, m, n, bias, act);
}

/// Elementwise `out = x + y`: the `add` op of both executors (one add
/// rounding per element on both tiers).
pub(crate) fn add_fwd(x: &[f32], y: &[f32], out: &mut [f32]) {
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

/// Elementwise `x *= c` in place — the values of the tape's `scale` op and
/// the attention-score scaling (one mul rounding per element).
pub(crate) fn scale_fwd(x: &mut [f32], c: f32) {
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
/// when unmasked), `exp`, a sum in index order, then a uniform `1/sum`
/// scale. Returns `(max, sum)` — the pieces a cross-entropy needs for
/// `lse = sum.ln() + max`.
///
/// `exp` is the port of glibc's `expf`, never the host libm: on the
/// AVX2+FMA tier eight lanes at a time, elsewhere the scalar port, with
/// the same bits for every input (an exhaustive sweep
/// checks the two, and the scalar port against glibc 2.36's `expf`). The
/// SIMD tier also vectorizes the other element-wise or order-independent
/// stages (the additive mask shift, the max reduction, the final scale);
/// only the order-sensitive sum stays a scalar chain, so both tiers
/// produce identical bits.
pub(crate) fn softmax_row_fwd(row: &[f32], mask: Option<&[f32]>, out: &mut [f32]) -> (f32, f32) {
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
        exp_shifted(out, max);
        let mut sum = 0.0f32;
        for &e in out.iter() {
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
        let e = vmath::exp(v + m - max);
        out[j] = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
    (max, sum)
}

/// One row of softmax cross-entropy against a (soft) target row: writes the
/// row's softmax into `probs` and subtracts `t·(z − lse)` for every nonzero
/// target `t` from `loss`, in index order and in f64. The tape's
/// `cross_entropy` runs its rows through this one accumulator; forward-only
/// per-example losses start each row at zero.
pub fn cross_entropy_row(row: &[f32], target: &[f32], probs: &mut [f32], loss: &mut f64) {
    debug_assert_eq!(target.len(), row.len());
    let (max, sum) = softmax_row_fwd(row, None, probs);
    let lse = sum.ln() + max;
    for (&z, &t) in row.iter().zip(target) {
        if t != 0.0 {
            *loss -= (t * (z - lse)) as f64;
        }
    }
}

/// `x[j] = exp(x[j] − shift)` in place, with the port of glibc's `expf`
/// (eight lanes on the AVX2+FMA tier, scalar otherwise; the two agree bit
/// for bit). The softmax of [`softmax_row_fwd`] and `softmax_slice`.
pub(crate) fn exp_shifted(x: &mut [f32], shift: f32) {
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // SAFETY: `available()` checked.
        unsafe { fma::exp_shifted(x, shift) };
        return;
    }
    for v in x.iter_mut() {
        *v = vmath::exp(*v - shift);
    }
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
/// backward rule.
///
/// `tanh` is the port of glibc's binary32 `tanhf` (fdlibm's algorithm over
/// `expm1f`, every step one float rounding), never the host libm: eight
/// lanes at a time on the AVX2+FMA tier, the scalar port elsewhere. The
/// polynomial and the final combine are separate mul/add roundings on both
/// tiers, so they produce identical bits; an exhaustive sweep checks the
/// vector `tanh` against the scalar port, and the scalar port against
/// glibc 2.36's `tanhf`, on all 2³² inputs.
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
    if fma::available() {
        // SAFETY: `available()` checked; the pointer requirements are this
        // function's own contract.
        fma::gelu_ptr(xp, n, GELU_C, GELU_A, op, tp);
        return;
    }
    // SAFETY (loop): every `j < n` is in bounds for `xp`, `op` and non-null
    // `tp` by this function's contract; `xp[j]` is read before `op[j]` is
    // written, so equal `xp`/`op` is fine.
    for j in 0..n {
        let v = *xp.add(j);
        let th = vmath::tanh(GELU_C * (v + GELU_A * v * v * v));
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

    /// Out-of-place transpose: `src` is `rows×cols`, the result `cols×rows`.
    fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        out
    }

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
        matmul_transpose_a_into(a, g, m, m, k, n, pool, &mut out);
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
        // Big enough to cross PAR_MIN_FLOPS and fan out. The split dimension
        // (`m` for A·B and A·Bᵀ, `k` for Aᵀ·G) is no multiple of MR × workers,
        // so runs end on a ragged tile unless the split keeps whole MR tiles.
        let mut rng = StdRng::seed_from_u64(0x4e3);
        let a1 = random_matrix(&mut rng, 70, 64);
        let b1 = random_matrix(&mut rng, 64, 70);
        let a2 = random_matrix(&mut rng, 133, 64);
        let b2 = random_matrix(&mut rng, 48, 64);
        let a3 = random_matrix(&mut rng, 96, 70);
        let g3 = random_matrix(&mut rng, 96, 96);
        let check = |name: &str, product: &dyn Fn(&RotomPool) -> Vec<f32>| {
            let serial = product(&RotomPool::new(1));
            for threads in [2, 3, 5, 8, 16] {
                let par = product(&RotomPool::new(threads));
                assert_eq!(serial, par, "{name} threads={threads}");
            }
        };
        check("A·B 70x64x70", &|p| mm(&a1, &b1, 70, 64, 70, p));
        check("A·Bᵀ 133x64x48", &|p| mm_tb(&a2, &b2, 133, 64, 48, p));
        check("Aᵀ·G 96x70x96", &|p| mm_ta(&a3, &g3, 96, 70, 96, p));
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
                let e = vmath::exp(v + m - max);
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
                let th = vmath::tanh(0.797_884_6f32 * (v + 0.044_715 * v * v * v));
                let expect = 0.5 * v * (1.0 + th);
                assert_eq!(o, expect, "gelu len={len} j={j}");
                assert_eq!(tanh[j], th, "gelu tanh len={len} j={j}");
            }
        }
    }

    /// A random matrix with about one entry in eight an exact `±0.0` and
    /// one in a hundred infinite, so the naive kernels' zero skip (which
    /// keeps `0·inf` out of a sum) and signed-zero sums are exercised.
    fn sparse_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|_| match rng.random_range(0u32..200) {
                0..=12 => 0.0,
                13..=25 => -0.0,
                26 => f32::INFINITY,
                27 => f32::NEG_INFINITY,
                _ => rng.random_range(-2.0f32..2.0),
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Row counts with `m % MR` ∈ {1, 2, 3}: one small set that keeps every
    /// `(k, n)` below [`SMALL_FLOPS`] (naive tier) and one large enough to
    /// reach the tiled core.
    fn ragged_rows(k: usize, n: usize) -> impl Iterator<Item = usize> {
        let big = (SMALL_FLOPS / (k * n)).next_multiple_of(MR) + MR;
        (1..MR).flat_map(move |r| [MR + r, big + r])
    }

    #[test]
    fn simd_naive_tier_matches_scalar_kernels_bitwise() {
        for k in [1usize, 8, 33] {
            for n in [1usize, 2, 8, 17, 32, 64] {
                for m in ragged_rows(k, n).filter(|m| m * k * n < SMALL_FLOPS) {
                    let mut rng =
                        StdRng::seed_from_u64(split_seed(0x4f6, (m * 1000 + k * 100 + n) as u64));
                    let a = sparse_matrix(&mut rng, m, k);
                    let b = sparse_matrix(&mut rng, k, n);
                    let bt = sparse_matrix(&mut rng, n, k);
                    let g = sparse_matrix(&mut rng, m, n);
                    let mut want = vec![0.0f32; m * n];
                    let mut want_ta = vec![0.0f32; k * n];
                    for threads in [1, 8] {
                        let pool = RotomPool::new(threads);
                        let ctx = format!("{m}x{k}x{n} threads={threads}");
                        rows_accum_scalar::<true>(&a, m, k, 1, k, &b, n, n, &mut want);
                        assert_eq!(bits(&mm(&a, &b, m, k, n, &pool)), bits(&want), "A·B {ctx}");
                        let packed = transpose(&bt, n, k);
                        rows_accum_scalar::<false>(&a, m, k, 1, k, &packed, n, n, &mut want);
                        assert_eq!(
                            bits(&mm_tb(&a, &bt, m, k, n, &pool)),
                            bits(&want),
                            "A·Bᵀ {ctx}"
                        );
                        rows_accum_scalar::<true>(&a, k, 1, k, m, &g, n, n, &mut want_ta);
                        assert_eq!(
                            bits(&mm_ta(&a, &g, m, k, n, &pool)),
                            bits(&want_ta),
                            "Aᵀ·G {ctx}"
                        );
                    }
                }
            }
        }
    }

    /// The last `m % MR` rows of `A·B` through the scalar edge kernel,
    /// which the AVX path replaced on full column strips.
    fn edge_rows<B: BSrc>(a: &[f32], m: usize, k: usize, n: usize, bsrc: &B) -> Vec<f32> {
        let full = m - m % MR;
        let mut out = vec![0.0f32; (m - full) * n];
        for j0 in (0..n).step_by(NR) {
            let nr = (n - j0).min(NR);
            micro_edge(&a[full * k..], k, bsrc, n, 0, j0, m - full, nr, &mut out);
        }
        out
    }

    #[test]
    fn tiled_ragged_rows_match_scalar_edge_kernel_bitwise() {
        for k in [1usize, 8, 33] {
            for n in [1usize, 2, 8, 17, 32, 64] {
                for m in ragged_rows(k, n).filter(|m| m * k * n >= SMALL_FLOPS) {
                    let mut rng =
                        StdRng::seed_from_u64(split_seed(0x4f7, (m * 1000 + k * 100 + n) as u64));
                    let a = sparse_matrix(&mut rng, m, k);
                    let b = sparse_matrix(&mut rng, k, n);
                    let bt = sparse_matrix(&mut rng, n, k);
                    let pk = PackedB::pack_row_major(&b, k, n);
                    let full = m - m % MR;
                    let want = edge_rows(&a, m, k, n, &BRowMajor { b: &b, n });
                    let want_tb = edge_rows(&a, m, k, n, &BTransposed { b: &bt, k });
                    for threads in [1, 8] {
                        let pool = RotomPool::new(threads);
                        let ctx = format!("{m}x{k}x{n} threads={threads}");
                        let cold = mm(&a, &b, m, k, n, &pool);
                        assert_eq!(bits(&cold[full * n..]), bits(&want), "A·B {ctx}");
                        let mut warm = vec![0.0f32; m * n];
                        matmul_into(&a, &b, Some(&pk), m, m, k, n, &pool, &mut warm);
                        assert_eq!(bits(&warm), bits(&cold), "A·B prepacked {ctx}");
                        let tb = mm_tb(&a, &bt, m, k, n, &pool);
                        assert_eq!(bits(&tb[full * n..]), bits(&want_tb), "A·Bᵀ {ctx}");
                    }
                }
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
}
