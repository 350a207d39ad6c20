//! A std-only scoped worker pool for data-parallel fan-out.
//!
//! The hot paths (GEMM row splits, batch scoring, augmentation, the
//! blocking build and probe) all share one shape: N independent work
//! items, results needed back in input order. [`RotomPool`] packages that
//! pattern on top of the standard library's scoped threads — no
//! `rayon`/`crossbeam`, no unsafe, no `'static` bounds on the closures,
//! because scoped threads may borrow from the caller's stack.
//!
//! Both helpers run through one fan-out body. It splits the items into at
//! most `threads` contiguous runs of whole `granularity`-item units (the
//! last run may end short), runs one scoped worker per run (inline when
//! there is one run), joins in order, and re-raises worker panics as one.
//! [`RotomPool::map`] collects `f(i)` per run and concatenates the runs;
//! [`RotomPool::chunk_rows`] hands each run a disjoint `&mut` slice of a
//! row-major buffer, which is how the GEMMs split their output on
//! `MR`-row tiles without raw pointers.
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

#![forbid(unsafe_code)]

use std::any::Any;
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

    /// Run one run's work, recording its wait (dispatch to start) and busy
    /// time.
    fn time<R>(&self, work: impl FnOnce() -> R) -> R {
        let wait_us = self.start.elapsed().as_micros() as u64;
        let busy_start = Instant::now();
        let out = work();
        let busy_us = busy_start.elapsed().as_micros() as u64;
        if let Ok(mut t) = self.timings.lock() {
            t.push((wait_us, busy_us));
        }
        out
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

/// A scoped worker pool with a fixed worker count.
#[derive(Debug)]
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
    /// order, identical to the serial `(0..n).map(f)` at any worker count.
    /// Each run of the fan-out collects its indices locally and the runs are
    /// concatenated in order.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let runs = self.fan_out("map", &mut vec![(); n], 1, 1, |first, run| {
            (first..first + run.len()).map(&f).collect::<Vec<T>>()
        });
        let mut runs = runs.into_iter();
        let mut out = runs.next().unwrap_or_default();
        out.reserve(n - out.len());
        for run in runs {
            out.extend(run);
        }
        out
    }

    /// Split `data` into at most `threads` contiguous runs of whole
    /// `width`-element rows, each starting on a multiple of `granularity`
    /// rows, and run `f(first_row, run)` on each in parallel. The runs are
    /// disjoint `&mut` views, so workers write their results in place with
    /// no synchronization.
    pub fn chunk_rows<T, F>(&self, data: &mut [T], width: usize, granularity: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.fan_out("chunk_rows", data, width, granularity, f);
    }

    /// The one fan-out body. Splits the `rows = data.len() / width` rows
    /// into at most `threads` contiguous runs of whole `granularity`-row
    /// units (the last run may end short), runs `f(first_row, run)` inline
    /// when there is one run and on one scoped worker per run otherwise,
    /// times each run for the `pool` record, and joins in order. Returns
    /// the runs' results in order. Worker panics are re-raised as one panic
    /// naming every failed worker; the pool is a stateless sizing policy,
    /// so a panicked call never poisons later calls.
    fn fan_out<T, R, F>(
        &self,
        ctx: &'static str,
        data: &mut [T],
        width: usize,
        granularity: usize,
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        assert!(width > 0, "row width must be positive");
        debug_assert_eq!(data.len() % width, 0, "data must be whole rows");
        let rows = data.len() / width;
        let g = granularity.max(1);
        let units = rows.div_ceil(g);
        let workers = self.threads.min(units);
        let run_rows = units.div_ceil(workers.max(1)).max(1) * g;
        let dispatch = PoolDispatch::begin(ctx, rows);
        let work = |(ri, run): (usize, &mut [T])| match &dispatch {
            Some(d) => d.time(|| f(ri * run_rows, run)),
            None => f(ri * run_rows, run),
        };
        let runs = data.chunks_mut(run_rows * width).enumerate();
        let mut results = Vec::with_capacity(workers);
        let mut failures = Vec::new();
        if workers <= 1 {
            results.extend(runs.map(work));
        } else {
            std::thread::scope(|scope| {
                let work = &work;
                let handles: Vec<_> = runs.map(|run| scope.spawn(move || work(run))).collect();
                for (wi, h) in handles.into_iter().enumerate() {
                    match h.join() {
                        Ok(r) => results.push(r),
                        Err(payload) => {
                            failures.push(format!("worker {wi}: {}", payload_message(payload)))
                        }
                    }
                }
            });
        }
        if let Some(d) = dispatch {
            d.finish();
        }
        if !failures.is_empty() {
            panic!(
                "RotomPool::{ctx}: {} worker(s) panicked — {}",
                failures.len(),
                failures.join("; ")
            );
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn chunk_rows_covers_exactly_once() {
        for threads in [1, 2, 5] {
            let pool = RotomPool::new(threads);
            let mut hits = vec![0u32; 23];
            pool.chunk_rows(&mut hits, 1, 4, |_, run| {
                for h in run {
                    *h += 1;
                }
            });
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
        }
    }

    #[test]
    fn chunk_rows_respects_granularity() {
        let pool = RotomPool::new(3);
        let runs = std::sync::Mutex::new(Vec::new());
        let mut data = vec![0u8; 20 * 2];
        pool.chunk_rows(&mut data, 2, 8, |first, run| {
            runs.lock().unwrap().push((first, first + run.len() / 2))
        });
        let mut s = runs.into_inner().unwrap();
        s.sort_unstable();
        // 20 rows at granularity 8 = 3 units; every boundary is a multiple
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
            pool.chunk_rows(&mut data, 5, 1, |first_row, chunk| {
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
                pool.chunk_rows(&mut [0u32; 12], 1, 1, |first, run| {
                    if (first..first + run.len()).contains(&5) {
                        panic!("injected failure");
                    }
                })
            }));
            assert!(r.is_err(), "round {round} should have panicked");
            // The same pool value keeps working for both helpers afterwards.
            assert_eq!(pool.map(8, |i| i * 3), vec![0, 3, 6, 9, 12, 15, 18, 21]);
            let mut data = vec![0u32; 4 * 3];
            pool.chunk_rows(&mut data, 3, 1, |first, chunk| {
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
