//! A std-only scoped worker pool for data-parallel fan-out.
//!
//! The training hot paths (tiled matmul row-splitting, batch scoring,
//! augmentation fan-out) all share the same shape: N independent work items,
//! results needed back in input order. [`RotomPool`] packages that pattern on
//! top of [`std::thread::scope`] — no `rayon`/`crossbeam`, no unsafe, no
//! `'static` bounds on the closures, because scoped threads may borrow from
//! the caller's stack.
//!
//! A pool value is a *sizing policy* (how many workers to use), not a set of
//! live threads: workers are spawned per call and joined before the call
//! returns, which keeps borrows sound and keeps idle cost at zero. Thread
//! spawn overhead (~10µs) is negligible against the millisecond-scale work
//! items these paths dispatch; anything smaller should stay below the
//! serial-fallback thresholds in [`crate::kernels`].
//!
//! The process-wide default is [`RotomPool::global`], sized from
//! [`std::thread::available_parallelism`] and overridable with the
//! `ROTOM_THREADS` environment variable (read once, at first use). Every
//! helper guarantees **deterministic, input-ordered results** regardless of
//! worker count: parallelism never changes observable output.

use std::any::Any;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::telemetry;
use crate::telemetry::Value;

/// Per-dispatch telemetry collector: one `pool` record per pool call, with
/// queue-wait (spawn-to-start latency) and busy time per worker. Only
/// constructed while telemetry is enabled, so the disabled path costs one
/// branch and never reads the clock. The inline (single-worker) path reports
/// `workers=1` with zero wait, so `pool` records exist at every thread count.
struct PoolDispatch {
    ctx: &'static str,
    items: usize,
    start: Instant,
    timings: Mutex<Vec<(u64, u64)>>,
}

impl PoolDispatch {
    fn begin(ctx: &'static str, items: usize) -> Option<Self> {
        telemetry::enabled().then(|| PoolDispatch {
            ctx,
            items,
            start: Instant::now(),
            timings: Mutex::new(Vec::new()),
        })
    }

    /// Called at the top of a worker body: returns (wait_us, busy-start).
    fn worker_begin(&self) -> (u64, Instant) {
        (self.start.elapsed().as_micros() as u64, Instant::now())
    }

    /// Called at the end of a worker body with `worker_begin`'s return.
    fn worker_end(&self, (wait_us, busy_start): (u64, Instant)) {
        let busy_us = busy_start.elapsed().as_micros() as u64;
        if let Ok(mut t) = self.timings.lock() {
            t.push((wait_us, busy_us));
        }
    }

    /// Emit the aggregated `pool` record after all workers joined.
    fn finish(self) {
        let total_us = self.start.elapsed().as_micros() as u64;
        let timings = self.timings.into_inner().unwrap_or_default();
        let workers = timings.len().max(1);
        let wait_max = timings.iter().map(|&(w, _)| w).max().unwrap_or(0);
        let busy_max = timings.iter().map(|&(_, b)| b).max().unwrap_or(0);
        let busy_total: u64 = timings.iter().map(|&(_, b)| b).sum();
        telemetry::emit(
            "pool",
            self.ctx,
            &[
                ("workers", Value::U64(workers as u64)),
                ("items", Value::U64(self.items as u64)),
                ("total_us", Value::U64(total_us)),
                ("wait_max_us", Value::U64(wait_max)),
                ("busy_max_us", Value::U64(busy_max)),
                ("busy_total_us", Value::U64(busy_total)),
            ],
        );
    }
}

/// Extract a human-readable message from a worker's panic payload.
fn payload_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Re-raise worker panics as one aggregated panic naming every failed worker
/// index, instead of aborting on the first `join` failure. No-op when no
/// worker failed. The pool itself is a stateless sizing policy, so a panicked
/// call never poisons subsequent calls.
fn raise_worker_failures(ctx: &str, failures: Vec<(usize, String)>) {
    if failures.is_empty() {
        return;
    }
    let detail: Vec<String> = failures
        .iter()
        .map(|(i, m)| format!("worker {i}: {m}"))
        .collect();
    panic!(
        "RotomPool::{ctx}: {} worker(s) panicked — {}",
        failures.len(),
        detail.join("; ")
    );
}

/// A scoped worker pool with a fixed worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotomPool {
    threads: usize,
}

static GLOBAL: OnceLock<RotomPool> = OnceLock::new();

impl RotomPool {
    /// A pool using exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized from the environment: `ROTOM_THREADS` if set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    /// A set-but-invalid value (not a number, or zero) falls back too, but
    /// loudly (see [`crate::env`]).
    pub fn from_env() -> Self {
        let threads = crate::env::read("ROTOM_THREADS", |v| match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err("expected a positive integer".to_string()),
        });
        let threads = threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Self::new(threads)
    }

    /// The process-wide shared pool (first use reads `ROTOM_THREADS`).
    pub fn global() -> &'static RotomPool {
        GLOBAL.get_or_init(RotomPool::from_env)
    }

    /// Worker count this pool dispatches to.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Compute `f(i)` for every `i in 0..n` and return the results in index
    /// order. Items are split into contiguous per-worker chunks; with one
    /// worker (or one item) this runs inline with no threads spawned.
    ///
    /// Workers collect their chunk locally and the chunks are concatenated
    /// in spawn order — one pass, no `Option` slot array — so the result is
    /// identical to the serial `(0..n).map(f)` regardless of worker count.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        let dispatch = PoolDispatch::begin("map", n);
        if workers <= 1 {
            let out = if let Some(d) = dispatch {
                let t = d.worker_begin();
                let out = (0..n).map(f).collect();
                d.worker_end(t);
                d.finish();
                out
            } else {
                (0..n).map(f).collect()
            };
            return out;
        }
        let chunk = n.div_ceil(workers);
        let mut out: Vec<T> = Vec::with_capacity(n);
        let mut failures: Vec<(usize, String)> = Vec::new();
        std::thread::scope(|scope| {
            let dispatch = &dispatch;
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|base| {
                    let f = &f;
                    let end = (base + chunk).min(n);
                    scope.spawn(move || {
                        let t = dispatch.as_ref().map(|d| d.worker_begin());
                        let chunk = (base..end).map(f).collect::<Vec<T>>();
                        if let (Some(d), Some(t)) = (dispatch.as_ref(), t) {
                            d.worker_end(t);
                        }
                        chunk
                    })
                })
                .collect();
            for (wi, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(chunk) => out.extend(chunk),
                    Err(payload) => failures.push((wi, payload_message(payload))),
                }
            }
        });
        if let Some(d) = dispatch {
            d.finish();
        }
        raise_worker_failures("map", failures);
        out
    }

    /// Split the index range `0..n` into at most `threads` contiguous
    /// sub-ranges (each a multiple of `granularity` long, except the last)
    /// and run `f(range)` on each in parallel.
    ///
    /// Used where the caller owns a pre-split output buffer (e.g. matmul row
    /// blocks) and only needs the range assignment.
    pub fn run_ranges<F>(&self, n: usize, granularity: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let g = granularity.max(1);
        let units = n.div_ceil(g);
        let workers = self.threads.min(units);
        let dispatch = PoolDispatch::begin("run_ranges", n);
        if workers <= 1 {
            if let Some(d) = dispatch {
                let t = d.worker_begin();
                if n > 0 {
                    f(0..n);
                }
                d.worker_end(t);
                d.finish();
            } else if n > 0 {
                f(0..n);
            }
            return;
        }
        let units_per = units.div_ceil(workers);
        let step = units_per * g;
        let mut failures: Vec<(usize, String)> = Vec::new();
        std::thread::scope(|scope| {
            let dispatch = &dispatch;
            let mut handles = Vec::new();
            let mut start = 0usize;
            while start < n {
                let end = (start + step).min(n);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let t = dispatch.as_ref().map(|d| d.worker_begin());
                    f(start..end);
                    if let (Some(d), Some(t)) = (dispatch.as_ref(), t) {
                        d.worker_end(t);
                    }
                }));
                start = end;
            }
            for (wi, h) in handles.into_iter().enumerate() {
                if let Err(payload) = h.join() {
                    failures.push((wi, payload_message(payload)));
                }
            }
        });
        if let Some(d) = dispatch {
            d.finish();
        }
        raise_worker_failures("run_ranges", failures);
    }

    /// Split `data` into at most `threads` contiguous chunks of whole
    /// `width`-element rows and run `f(first_row, chunk)` on each in
    /// parallel. The chunks are disjoint `&mut` views, so workers can write
    /// their results in place with no synchronization.
    pub fn chunk_rows<T, F>(&self, data: &mut [T], width: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(width > 0, "row width must be positive");
        debug_assert_eq!(data.len() % width, 0, "data must be whole rows");
        let rows = data.len() / width;
        let workers = self.threads.min(rows);
        let dispatch = PoolDispatch::begin("chunk_rows", rows);
        if workers <= 1 {
            if let Some(d) = dispatch {
                let t = d.worker_begin();
                f(0, data);
                d.worker_end(t);
                d.finish();
            } else {
                f(0, data);
            }
            return;
        }
        let rows_per = rows.div_ceil(workers);
        let mut failures: Vec<(usize, String)> = Vec::new();
        std::thread::scope(|scope| {
            let dispatch = &dispatch;
            let handles: Vec<_> = data
                .chunks_mut(rows_per * width)
                .enumerate()
                .map(|(ci, chunk)| {
                    let f = &f;
                    scope.spawn(move || {
                        let t = dispatch.as_ref().map(|d| d.worker_begin());
                        f(ci * rows_per, chunk);
                        if let (Some(d), Some(t)) = (dispatch.as_ref(), t) {
                            d.worker_end(t);
                        }
                    })
                })
                .collect();
            for (wi, h) in handles.into_iter().enumerate() {
                if let Err(payload) = h.join() {
                    failures.push((wi, payload_message(payload)));
                }
            }
        });
        if let Some(d) = dispatch {
            d.finish();
        }
        raise_worker_failures("chunk_rows", failures);
    }
}

impl Default for RotomPool {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn new_clamps_to_one() {
        assert_eq!(RotomPool::new(0).threads(), 1);
        assert_eq!(RotomPool::new(3).threads(), 3);
    }

    #[test]
    fn map_preserves_order_at_any_width() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = RotomPool::new(threads);
            assert_eq!(pool.map(37, |i| i * i), expect, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = RotomPool::new(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn map_borrows_from_caller_stack() {
        let data: Vec<usize> = (0..100).collect();
        let pool = RotomPool::new(4);
        let doubled = pool.map(data.len(), |i| data[i] * 2);
        assert_eq!(doubled[99], 198);
    }

    #[test]
    fn run_ranges_covers_exactly_once() {
        for threads in [1, 2, 5] {
            let pool = RotomPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            pool.run_ranges(23, 4, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn run_ranges_respects_granularity() {
        let pool = RotomPool::new(3);
        let starts = std::sync::Mutex::new(Vec::new());
        pool.run_ranges(20, 8, |r| starts.lock().unwrap().push((r.start, r.end)));
        let mut s = starts.lock().unwrap().clone();
        s.sort_unstable();
        // 20 items at granularity 8 = 3 units; every boundary is a multiple
        // of 8 except the final end.
        for &(start, _) in &s {
            assert_eq!(start % 8, 0);
        }
        assert_eq!(s.last().unwrap().1, 20);
    }

    #[test]
    fn chunk_rows_writes_disjoint_chunks() {
        for threads in [1, 2, 4, 16] {
            let pool = RotomPool::new(threads);
            let mut data = vec![0u32; 9 * 5];
            pool.chunk_rows(&mut data, 5, |first_row, chunk| {
                for (r, row) in chunk.chunks_mut(5).enumerate() {
                    row.fill((first_row + r) as u32);
                }
            });
            for r in 0..9 {
                assert!(
                    data[r * 5..(r + 1) * 5].iter().all(|&v| v == r as u32),
                    "threads={threads} row {r}"
                );
            }
        }
    }

    #[test]
    fn worker_panic_is_aggregated_with_worker_index() {
        let pool = RotomPool::new(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(16, |i| {
                if i >= 8 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("aggregated message");
        assert!(msg.contains("RotomPool::map"), "{msg}");
        assert!(
            msg.contains("worker 2") && msg.contains("worker 3"),
            "{msg}"
        );
        assert!(msg.contains("boom at 8"), "{msg}");
    }

    #[test]
    fn panicking_closure_does_not_poison_pool() {
        let pool = RotomPool::new(4);
        for round in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_ranges(12, 1, |r| {
                    if r.contains(&5) {
                        panic!("injected failure");
                    }
                })
            }));
            assert!(r.is_err(), "round {round} should have panicked");
            // The same pool value keeps working for every helper afterwards.
            assert_eq!(pool.map(8, |i| i * 3), vec![0, 3, 6, 9, 12, 15, 18, 21]);
            let hits: Vec<AtomicUsize> = (0..12).map(|_| AtomicUsize::new(0)).collect();
            pool.run_ranges(12, 1, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            let mut data = vec![0u32; 4 * 3];
            pool.chunk_rows(&mut data, 3, |first, chunk| {
                for (r, row) in chunk.chunks_mut(3).enumerate() {
                    row.fill((first + r) as u32);
                }
            });
            assert_eq!(data[9..12], [3, 3, 3]);
        }
    }

    #[test]
    fn global_pool_is_cached() {
        assert!(std::ptr::eq(RotomPool::global(), RotomPool::global()));
        assert!(RotomPool::global().threads() >= 1);
    }
}
