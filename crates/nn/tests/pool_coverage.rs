//! Coverage properties of [`RotomPool::chunk_rows`].
//!
//! `chunk_rows` is the split under the parallel GEMMs, which hand each
//! worker its `MR`-row tiles of the output: the runs must cover every row
//! exactly once (a gap would leave output rows unwritten) and every run must
//! start on a granularity boundary (a run starting mid-tile would change
//! which rows share a tile, and with it the summation order). These tests
//! check that contract over adversarial `(rows, granularity, workers)`
//! combinations rather than trusting the arithmetic in `div_ceil` chains.

use rotom_nn::RotomPool;
use std::sync::Mutex;

/// Run `chunk_rows` over `n` two-element rows at granularity `g` on a
/// `workers`-wide pool and assert every row is visited exactly once, every
/// run is non-empty and starts on a multiple of `g`, and the first-row index
/// each run is handed matches its position in the buffer.
fn assert_exact_cover(n: usize, g: usize, workers: usize) {
    const WIDTH: usize = 2;
    let pool = RotomPool::new(workers);
    let mut rows = vec![(usize::MAX, 0u32); n * WIDTH];
    let runs = Mutex::new(Vec::new());
    pool.chunk_rows(&mut rows, WIDTH, g, |first, run| {
        let end = first + run.len() / WIDTH;
        runs.lock().unwrap().push((first, end));
        for (r, row) in run.chunks_mut(WIDTH).enumerate() {
            for cell in row {
                cell.0 = first + r;
                cell.1 += 1;
            }
        }
    });
    for (i, &(row, hits)) in rows.iter().enumerate() {
        assert_eq!(
            (row, hits),
            (i / WIDTH, 1),
            "cell {i} (n={n} g={g} workers={workers})"
        );
    }
    let eff_g = g.max(1);
    for &(start, end) in runs.lock().unwrap().iter() {
        assert!(start < end, "empty run (n={n} g={g} workers={workers})");
        assert_eq!(
            start % eff_g,
            0,
            "run start {start} not on a granularity boundary \
             (n={n} g={g} workers={workers})"
        );
    }
}

#[test]
fn exhaustive_small_combinations() {
    // Every small n against granularities and worker counts around it —
    // includes n < workers, granularity > n, granularity == n, and the
    // zero-granularity clamp.
    for n in 0..=24 {
        for &g in &[0usize, 1, 2, 3, 4, 7, 16, 25] {
            for &w in &[1usize, 2, 3, 8, 17] {
                assert_exact_cover(n, g, w);
            }
        }
    }
}

#[test]
fn n_zero_emits_no_runs() {
    let pool = RotomPool::new(4);
    let calls = Mutex::new(0);
    pool.chunk_rows(&mut [0u8; 0], 1, 4, |_, _| {
        *calls.lock().unwrap() += 1;
    });
    assert_eq!(*calls.lock().unwrap(), 0);
}

#[test]
fn fewer_units_than_workers() {
    // One unit of work, many workers: must degrade to a single inline call
    // covering every row, not 17 empty dispatches.
    let pool = RotomPool::new(17);
    let runs = Mutex::new(Vec::new());
    pool.chunk_rows(&mut [0u8; 3], 1, 4, |first, run| {
        runs.lock().unwrap().push((first, first + run.len()))
    });
    assert_eq!(*runs.lock().unwrap(), vec![(0, 3)]);
}

#[test]
fn adversarial_large_combinations() {
    // Sizes where ceil-division remainders interact: prime n, granularity
    // that doesn't divide n, worker counts that don't divide the unit count.
    for &(n, g, w) in &[
        (997, 4, 8),
        (1000, 7, 8),
        (1024, 16, 3),
        (129, 64, 8),
        (4, 4, 64),
        (257, 1, 5),
    ] {
        assert_exact_cover(n, g, w);
    }
}
