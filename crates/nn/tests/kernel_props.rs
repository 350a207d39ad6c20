//! Property tests for the matmul kernels at adversarial shapes.
//!
//! The unit tests in `kernels.rs` pin a fixed list of shapes; this suite
//! drives all three GEMM variants over *randomly drawn* dimensions biased
//! toward the places tiled kernels break: 0/1 degenerates, off-by-one
//! around the `MR`×`NR` register tile, and sizes straddling the
//! `SMALL_FLOPS` / `PAR_MIN_FLOPS` dispatch thresholds. Every draw is
//! checked against the naive reference at 1, 2, and 8 pool workers, so a
//! bug in tile-edge handling, panel packing, or the parallel row split
//! cannot hide behind a lucky fixed shape. The same draws drive the band
//! property: every [`band_rows`] band of a product must equal the same rows
//! of the full call bit for bit.

use rotom_nn::kernels::{
    band_rows, matmul_bias_act_i8_into, matmul_bias_act_into, matmul_into, matmul_naive,
    matmul_transpose_a_into, matmul_transpose_b_into, matmul_transpose_b_naive, transpose, Act,
    PackedB, QuantizedB, MR, NR, PAR_MIN_FLOPS, SMALL_FLOPS,
};
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngExt, SeedableRng};

/// Worker counts exercised for every case: serial, smallest parallel, and a
/// count larger than most row splits (forcing workers > units clamping).
const WORKERS: &[usize] = &[1, 2, 8];

/// Cross-kernel tolerance: the FMA micro-kernel rounds once per fused
/// multiply-add, so tiled and naive results may differ by ~1e-4 per dot
/// product (see the determinism note in `kernels.rs`).
const TOL: f32 = 1e-4;

/// Dimension pool biased toward tile edges: degenerate 0/1, every residue
/// around `MR` = 4 and `NR` = 16, and sizes near the dispatch thresholds.
const DIMS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 48, 63, 65];

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|_| rng.random_range(-2.0f32..2.0))
        .collect()
}

fn assert_close(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length mismatch");
    for (i, (&x, &y)) in got.iter().zip(want).enumerate() {
        assert!(
            (x - y).abs() <= TOL,
            "{ctx}: element {i}: got {x}, want {y}"
        );
    }
}

/// Check all three variants against their naive references for one shape.
/// `Aᵀ·G` has no bespoke naive kernel, so its reference is the naive product
/// of the explicit transpose (same accumulation order).
fn check_shape(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_matrix(&mut rng, m, k);
    let b = random_matrix(&mut rng, k, n);
    let bt = random_matrix(&mut rng, n, k);
    let g = random_matrix(&mut rng, m, n);
    let ab = matmul_naive(&a, &b, m, k, n);
    let abt = matmul_transpose_b_naive(&a, &bt, m, k, n);
    let atg = matmul_naive(&transpose(&a, m, k), &g, k, m, n);
    for &w in WORKERS {
        let pool = RotomPool::new(w);
        let mut out = vec![0.0f32; m * n];
        matmul_into(&a, &b, None, m, m, k, n, &pool, &mut out);
        assert_close(&out, &ab, &format!("matmul {m}x{k}x{n} workers={w}"));
        matmul_transpose_b_into(&a, &bt, None, m, m, k, n, &pool, &mut out);
        assert_close(&out, &abt, &format!("matmul_tb {m}x{k}x{n} workers={w}"));
        let mut out = vec![0.0f32; k * n];
        matmul_transpose_a_into(&a, &g, m, k, n, &pool, &mut out);
        assert_close(&out, &atg, &format!("matmul_ta {m}x{k}x{n} workers={w}"));
    }
}

/// One `(full_m, k, n)` GEMM family behind a common call shape: `f(a_rows,
/// full_m, rows, pk, pool, out)` computes `rows` output rows of a
/// `full_m`-row product.
type BandCall<'a> = &'a dyn Fn(&[f32], usize, usize, Option<&PackedB>, &RotomPool, &mut [f32]);

/// Every [`band_rows`] band of `call` — with and without `pk` — equals the
/// same rows of the full unpacked call at every worker count, bit for bit.
fn check_bands(
    name: &str,
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    pk: Option<&PackedB>,
    call: BandCall,
) {
    for &w in WORKERS {
        let pool = RotomPool::new(w);
        let mut full = vec![0.0f32; m * n];
        call(a, m, m, None, &pool, &mut full);
        let mut start = 0;
        while start < m {
            let (s, len) = band_rows(m, start);
            assert_eq!(s, start, "bands tile the rows in order");
            for pk in [None, pk] {
                let mut band = vec![f32::NAN; len * n];
                call(&a[s * k..(s + len) * k], m, len, pk, &pool, &mut band);
                assert_eq!(
                    band,
                    &full[s * n..(s + len) * n],
                    "{name} {m}x{k}x{n} band {s}+{len} workers={w} packed={}",
                    pk.is_some()
                );
            }
            start += len;
        }
    }
}

/// The band property for all four forward GEMM entry points at one shape.
fn check_band_shape(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_matrix(&mut rng, m, k);
    let b = random_matrix(&mut rng, k, n);
    let bt = random_matrix(&mut rng, n, k);
    let bias = random_matrix(&mut rng, 1, n);
    let pk = PackedB::pack_row_major(&b, k, n);
    let pk_t = PackedB::pack_transposed(&bt, k, n);
    let qb = QuantizedB::quantize_row_major(&b, k, n);
    check_bands(
        "matmul",
        &a,
        m,
        k,
        n,
        Some(&pk),
        &|a, full, rows, pk, pool, out| matmul_into(a, &b, pk, full, rows, k, n, pool, out),
    );
    check_bands(
        "matmul_tb",
        &a,
        m,
        k,
        n,
        Some(&pk_t),
        &|a, full, rows, pk, pool, out| {
            matmul_transpose_b_into(a, &bt, pk, full, rows, k, n, pool, out)
        },
    );
    check_bands(
        "bias_gelu",
        &a,
        m,
        k,
        n,
        Some(&pk),
        &|a, full, rows, pk, pool, out| {
            let bias = Some(&bias[..]);
            matmul_bias_act_into(a, &b, pk, bias, Act::Gelu, full, rows, k, n, pool, out)
        },
    );
    check_bands(
        "i8_bias_gelu",
        &a,
        m,
        k,
        n,
        None,
        &|a, _full, rows, _pk, pool, out| {
            matmul_bias_act_i8_into(a, &qb, Some(&bias), Act::Gelu, rows, k, n, pool, out)
        },
    );
}

/// The 60 random `(m, k, n)` draws from [`DIMS`] both random-shape tests use.
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    let mut rng = StdRng::seed_from_u64(0x5a5e);
    let mut dim = || DIMS[rng.random_range(0..DIMS.len())];
    (0..60).map(|_| (dim(), dim(), dim())).collect()
}

#[test]
fn random_edge_shapes_match_naive() {
    for (case, &(m, k, n)) in edge_shapes().iter().enumerate() {
        check_shape(m, k, n, split_seed(0x5a5f, case as u64));
    }
}

#[test]
fn every_band_matches_the_full_call_bitwise() {
    // The random draws plus shapes that straddle the tiled and parallel
    // thresholds, where a band (at most MR rows, always serial) must still
    // reproduce rows the full call computed on the tiled or fanned-out path.
    let mut shapes = edge_shapes();
    shapes.extend([(8, 16, 16), (33, 33, 33), (80, 65, 72)]);
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        check_band_shape(m, k, n, split_seed(0x5a63, case as u64));
    }
}

#[test]
fn zero_and_unit_dimensions() {
    // Every combination of a 0 or 1 extent with small non-trivial extents:
    // empty batches (m = 0), rank-0 contractions (k = 0, output must be all
    // zeros), single-row/column products, and the all-degenerate corners.
    for (case, &(m, k, n)) in [
        (0, 5, 7),
        (5, 0, 7),
        (5, 7, 0),
        (0, 0, 0),
        (1, 1, 1),
        (1, 17, 1),
        (1, 1, 33),
        (33, 1, 1),
        (1, 64, 64),
        (64, 64, 1),
        (64, 1, 64),
    ]
    .iter()
    .enumerate()
    {
        check_shape(m, k, n, split_seed(0x5a60, case as u64));
    }
}

#[test]
fn shapes_straddling_dispatch_thresholds() {
    // Shapes chosen to land just below and just above both dispatch cuts,
    // so naive, serial-tiled, and parallel-tiled code paths all run (the
    // parallel path additionally needs m ≥ 2·MR rows to split).
    let below_small = (8, 16, 16); // 2048 < SMALL_FLOPS
    let above_small = (33, 33, 33); // 35937 ≥ SMALL_FLOPS, < PAR_MIN_FLOPS
    let above_par = (80, 65, 72); // 374400 ≥ PAR_MIN_FLOPS
    assert!(below_small.0 * below_small.1 * below_small.2 < SMALL_FLOPS);
    assert!(above_small.0 * above_small.1 * above_small.2 >= SMALL_FLOPS);
    assert!(above_small.0 * above_small.1 * above_small.2 < PAR_MIN_FLOPS);
    assert!(above_par.0 * above_par.1 * above_par.2 >= PAR_MIN_FLOPS);
    for (case, &(m, k, n)) in [below_small, above_small, above_par].iter().enumerate() {
        check_shape(m, k, n, split_seed(0x5a61, case as u64));
    }
}

#[test]
fn non_tile_multiple_shapes_match_naive() {
    // Sweep every residue class around one register tile: m in MR..2·MR,
    // n in NR..2·NR, k fixed off any power of two. Catches edge-kernel
    // indexing bugs for each (ragged rows × ragged cols) combination.
    for m in MR..2 * MR {
        for n in NR..2 * NR {
            check_shape(m, 19, n, split_seed(0x5a62, (m * 100 + n) as u64));
        }
    }
}
