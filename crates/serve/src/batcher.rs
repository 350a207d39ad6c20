//! Windowed request batcher: the piece that turns N concurrent HTTP
//! requests into one [`TinyLm::score_batch`](rotom::TinyLm::score_batch)
//! pass — now with overload protection and supervision.
//!
//! Connection handlers `submit` jobs into a shared queue
//! and block on a reply channel. A single batcher worker thread takes the
//! first job's endpoint and collects the same-endpoint jobs into one batch
//! of at most `max_batch`, scores their inputs in one pool pass under the
//! plane's read lock, and splits the scores back out to each job's reply
//! channel. Batches never mix endpoints — each endpoint is a different
//! model.
//!
//! The batcher is work-conserving. An idle worker dispatches at once with
//! the jobs queued at that moment. A worker back from a batch to a backlog
//! collects more jobs until the oldest has waited
//! [`ServerConfig::window`] since it arrived. So the window delays no job
//! on an idle model, and a free worker never holds a job past `window`
//! from its arrival.
//!
//! ## Admission control
//!
//! The queue is **bounded** ([`ServerConfig::max_queue`]) and every job
//! carries a deadline budget ([`ServerConfig::deadline`]). `submit` sheds
//! — returns [`JobError`] instead of queueing — when the queue is full,
//! when the predicted queue wait (queue depth × an EWMA of recent batch
//! service time) already exceeds the deadline, or when the batcher is
//! draining or shut down. Jobs that sit queued past their deadline are
//! expired with an error rather than scored late. Shedding is deliberate:
//! under sustained overload the server answers `503 Retry-After` quickly
//! instead of silently queueing into latency collapse.
//!
//! ## Supervision
//!
//! The scoring call is wrapped in `catch_unwind`: a panic inside the
//! forward pass becomes an `Err` reply (a 500) for the jobs in that batch,
//! and the worker survives. Panics *outside* that guard (or a wedged
//! forward pass that never returns) are handled by a **watchdog** thread:
//! every `WATCHDOG_TICK` (20 ms) it checks for a finished-by-panic worker
//! or a worker busy longer than [`ServerConfig::wedge_timeout`], and
//! respawns a fresh worker under a bumped queue generation. Queued jobs
//! survive a respawn (the queue outlives the worker); an orphaned wedged
//! worker still answers the batch it holds, then notices the generation
//! bump and exits without pulling new work. Respawns are counted in
//! `/metrics` as `batcher_respawns`.
//!
//! ## Drain
//!
//! `Batcher::drain` flips the queue into drain mode: new submissions are
//! shed, queued jobs are dispatched immediately (no batching window), and
//! the call blocks until the queue is empty and the worker has exited or
//! the drain deadline passes — at which point stragglers are failed and
//! `drain_deadline_exceeded` is incremented.

use crate::metrics::ServeMetrics;
use crate::plane::{Endpoint, TaskPlane};
use crate::server::ServerConfig;
use rotom_nn::faultpoint::{self, FaultKind};
use rotom_nn::RotomPool;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Watchdog poll interval.
pub(crate) const WATCHDOG_TICK: Duration = Duration::from_millis(20);

/// Scores for one job, stamped with the plane generation that produced
/// them (see [`ScoredBatch`](crate::plane::ScoredBatch)).
#[derive(Debug)]
pub struct JobResult {
    /// One probability row per input, input order preserved.
    pub scores: Vec<Vec<f32>>,
    /// Plane swap counter at scoring time.
    pub generation: u64,
    /// Parameter store fingerprint at scoring time.
    pub param_generation: u64,
}

/// Why a job was refused or failed. Everything except
/// [`ScorePanic`](JobError::ScorePanic) is a *shed*: the server answers `503` with a
/// `Retry-After` hint and the client may retry; a scoring panic is a `500`.
#[derive(Debug, PartialEq)]
pub enum JobError {
    /// The queue is at `max_queue` capacity.
    QueueFull {
        /// Suggested client back-off, in whole seconds.
        retry_after_secs: u32,
    },
    /// Predicted queue wait already exceeds the deadline budget — queueing
    /// would only manufacture a late failure.
    PredictedWait {
        /// Suggested client back-off, in whole seconds.
        retry_after_secs: u32,
    },
    /// The job sat queued past the deadline budget and was expired.
    DeadlineExpired,
    /// The batcher is draining and not accepting new work, or the drain
    /// deadline passed with this job still queued.
    Draining,
    /// The batcher has shut down.
    ShuttingDown,
    /// The forward pass panicked; the batch was lost (but the worker
    /// survived).
    ScorePanic,
}

impl JobError {
    /// The HTTP status this error renders as.
    pub(crate) fn status(&self) -> u16 {
        match self {
            JobError::ScorePanic => 500,
            _ => 503,
        }
    }

    /// `Retry-After` hint in seconds, for every shed variant.
    pub(crate) fn retry_after_secs(&self) -> Option<u32> {
        match self {
            JobError::QueueFull { retry_after_secs }
            | JobError::PredictedWait { retry_after_secs } => Some(*retry_after_secs),
            JobError::DeadlineExpired | JobError::Draining | JobError::ShuttingDown => Some(1),
            JobError::ScorePanic => None,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::QueueFull { .. } => write!(f, "overloaded: queue full"),
            JobError::PredictedWait { .. } => {
                write!(f, "overloaded: predicted wait exceeds deadline")
            }
            JobError::DeadlineExpired => write!(f, "deadline exceeded while queued"),
            JobError::Draining => write!(f, "server draining"),
            JobError::ShuttingDown => write!(f, "server shutting down"),
            JobError::ScorePanic => write!(f, "scoring panicked"),
        }
    }
}

/// The reply a submitted job eventually receives.
pub type JobReply = Result<JobResult, JobError>;

struct Job {
    endpoint: Endpoint,
    inputs: Vec<Vec<String>>,
    enqueued: Instant,
    reply: mpsc::Sender<JobReply>,
}

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
    draining: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    cond: Condvar,
    /// Worker-generation counter: a worker only pulls new jobs while its
    /// spawn generation matches; the watchdog bumps this to orphan a wedged
    /// worker before respawning.
    generation: AtomicU64,
    /// EWMA of batch service time in µs, fed by the worker after every
    /// batch; `submit` uses it to predict queue wait. 0 until first batch.
    batch_ewma_us: AtomicU64,
    /// Epoch for the `busy_since` timestamps.
    t0: Instant,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }
}

/// The worker thread currently owned by the watchdog (replaced on respawn).
struct WorkerSlot {
    handle: Option<JoinHandle<()>>,
    /// µs since `Shared::t0` when the worker started scoring its current
    /// batch; 0 while idle. Each worker instance gets its own cell so an
    /// orphaned worker cannot clobber its successor's signal.
    busy_since_us: Arc<AtomicU64>,
}

/// Outcome of a `Batcher::drain`.
#[derive(Debug)]
pub struct DrainReport {
    /// Whether every queued job completed before the deadline.
    pub completed: bool,
    /// Jobs failed because the drain deadline passed first.
    pub failed_jobs: usize,
}

/// Handle to the batcher worker + watchdog. Dropping it shuts both down;
/// jobs still queued at shutdown receive an `Err` reply.
pub struct Batcher {
    shared: Arc<Shared>,
    metrics: Arc<ServeMetrics>,
    cfg: Arc<ServerConfig>,
    worker: Arc<Mutex<WorkerSlot>>,
    watchdog_stop: Arc<AtomicBool>,
    watchdog: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Spawn the batcher worker and its watchdog over `planes` (indexed by
    /// [`Endpoint`] route order). They read the batching, admission and
    /// watchdog fields of `cfg`.
    pub(crate) fn spawn(
        planes: Arc<[TaskPlane; 3]>,
        metrics: Arc<ServeMetrics>,
        cfg: ServerConfig,
    ) -> Self {
        let cfg = Arc::new(cfg);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
                draining: false,
            }),
            cond: Condvar::new(),
            generation: AtomicU64::new(0),
            batch_ewma_us: AtomicU64::new(0),
            t0: Instant::now(),
        });
        let worker = Arc::new(Mutex::new(spawn_worker(
            &shared, &planes, &metrics, &cfg, 0,
        )));
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = {
            let shared = Arc::clone(&shared);
            let metrics = Arc::clone(&metrics);
            let cfg = Arc::clone(&cfg);
            let worker = Arc::clone(&worker);
            let stop = Arc::clone(&watchdog_stop);
            std::thread::Builder::new()
                .name("rotom-serve-watchdog".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(WATCHDOG_TICK);
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        watchdog_check(&shared, &planes, &metrics, &cfg, &worker);
                    }
                })
                .expect("spawn watchdog thread")
        };
        Self {
            shared,
            metrics,
            cfg,
            worker,
            watchdog_stop,
            watchdog: Some(watchdog),
        }
    }

    /// Queue a scoring job and return the channel its reply arrives on, or
    /// shed it (queue full, predicted wait over deadline, draining, shut
    /// down). The caller blocks on `recv()`; a dropped sender (worker died
    /// holding the job) shows up as a `RecvError`, which callers should
    /// treat as a 500.
    pub(crate) fn submit(
        &self,
        endpoint: Endpoint,
        inputs: Vec<Vec<String>>,
    ) -> Result<mpsc::Receiver<JobReply>, JobError> {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.shutdown {
            self.count_shed(1);
            return Err(JobError::ShuttingDown);
        }
        if q.draining {
            self.count_shed(1);
            return Err(JobError::Draining);
        }
        let depth = q.jobs.len();
        if (self.cfg.max_queue > 0 && depth >= self.cfg.max_queue)
            || faultpoint::fire_global(FaultKind::QueueFull).is_some()
        {
            self.count_shed(1);
            return Err(JobError::QueueFull {
                retry_after_secs: self.retry_after_hint(depth),
            });
        }
        if !self.cfg.deadline.is_zero() {
            let predicted = self.predicted_wait(depth + 1);
            if predicted > self.cfg.deadline {
                self.count_shed(1);
                return Err(JobError::PredictedWait {
                    retry_after_secs: self.retry_after_hint(depth),
                });
            }
        }
        let (tx, rx) = mpsc::channel();
        q.jobs.push_back(Job {
            endpoint,
            inputs,
            enqueued: Instant::now(),
            reply: tx,
        });
        self.metrics
            .queue_depth
            .store(q.jobs.len() as u64, Ordering::Relaxed);
        drop(q);
        self.shared.cond.notify_all();
        Ok(rx)
    }

    /// Estimated time for `depth` queued jobs to clear, from the EWMA of
    /// recent batch service times.
    fn predicted_wait(&self, depth: usize) -> Duration {
        let ewma_us = self.shared.batch_ewma_us.load(Ordering::Relaxed);
        if ewma_us == 0 {
            return Duration::ZERO;
        }
        let batches_ahead = depth.div_ceil(self.cfg.max_batch.max(1)) as u64;
        Duration::from_micros(batches_ahead * ewma_us)
    }

    /// `Retry-After` hint for a shed at queue depth `depth`: the predicted
    /// time for the backlog to clear, in whole seconds, clamped to [1, 8].
    fn retry_after_hint(&self, depth: usize) -> u32 {
        let wait = self.predicted_wait(depth);
        (wait.as_secs_f64().ceil() as u32).clamp(1, 8)
    }

    fn count_shed(&self, n: usize) {
        self.metrics
            .shed_total
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Drain mode: stop admitting, dispatch queued jobs immediately (no
    /// batching window), and wait up to `timeout` for the queue to empty
    /// and the worker to exit. Stragglers still queued at the deadline are
    /// failed (counted in `drain_deadline_exceeded`). The batcher is shut
    /// down either way; a subsequent [`shutdown`](Batcher::shutdown) is a
    /// no-op. Idempotent.
    pub(crate) fn drain(&self, timeout: Duration) -> DrainReport {
        // Watchdog first: a worker exiting because the drain completed must
        // not be "detected" as dead and respawned.
        self.stop_watchdog();
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.shutdown || q.draining {
                return DrainReport {
                    completed: true,
                    failed_jobs: 0,
                };
            }
            q.draining = true;
        }
        self.shared.cond.notify_all();
        let deadline = Instant::now() + timeout;
        // The worker exits once the queue is empty in drain mode; wait for
        // that (bounded — it may be wedged inside a forward pass).
        loop {
            let finished = {
                let slot = self.worker.lock().unwrap_or_else(|e| e.into_inner());
                slot.handle.as_ref().is_none_or(|h| h.is_finished())
            };
            if finished {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(2)));
        }
        // Deadline enforcement: fail whatever is still queued. Orphan a
        // still-running worker (generation bump) so it cannot pull more.
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        let failed = q.jobs.len();
        if failed > 0 {
            self.metrics
                .drain_deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            self.count_shed(failed);
            for job in q.jobs.drain(..) {
                let _ = job.reply.send(Err(JobError::Draining));
            }
        }
        q.shutdown = true;
        self.metrics.queue_depth.store(0, Ordering::Relaxed);
        drop(q);
        self.shared.cond.notify_all();
        DrainReport {
            completed: failed == 0,
            failed_jobs: failed,
        }
    }

    fn stop_watchdog(&self) {
        self.watchdog_stop.store(true, Ordering::SeqCst);
    }

    /// Signal shutdown, fail queued jobs, and join the worker + watchdog.
    pub(crate) fn shutdown(&mut self) {
        self.stop_watchdog();
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
        }
        self.shared.cond.notify_all();
        let handle = {
            let mut slot = self.worker.lock().unwrap_or_else(|e| e.into_inner());
            slot.handle.take()
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn one worker generation. The queue (inside `shared`) outlives
/// workers, so queued jobs survive a respawn.
fn spawn_worker(
    shared: &Arc<Shared>,
    planes: &Arc<[TaskPlane; 3]>,
    metrics: &Arc<ServeMetrics>,
    cfg: &Arc<ServerConfig>,
    generation: u64,
) -> WorkerSlot {
    let busy_since_us = Arc::new(AtomicU64::new(0));
    let handle = {
        let shared = Arc::clone(shared);
        let planes = Arc::clone(planes);
        let metrics = Arc::clone(metrics);
        let cfg = Arc::clone(cfg);
        let busy = Arc::clone(&busy_since_us);
        std::thread::Builder::new()
            .name(format!("rotom-serve-batcher-{generation}"))
            .spawn(move || run_worker(shared, planes, metrics, cfg, generation, busy))
            .expect("spawn batcher worker thread")
    };
    WorkerSlot {
        handle: Some(handle),
        busy_since_us,
    }
}

/// One watchdog tick: respawn the worker if it died (panic escaped the
/// score guard) or wedged (busy on one batch past `wedge_timeout`).
fn watchdog_check(
    shared: &Arc<Shared>,
    planes: &Arc<[TaskPlane; 3]>,
    metrics: &Arc<ServeMetrics>,
    cfg: &Arc<ServerConfig>,
    worker: &Arc<Mutex<WorkerSlot>>,
) {
    {
        let q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.shutdown || q.draining {
            return;
        }
    }
    let mut slot = worker.lock().unwrap_or_else(|e| e.into_inner());
    let dead = slot.handle.as_ref().is_none_or(|h| h.is_finished());
    let wedged = {
        let busy = slot.busy_since_us.load(Ordering::Relaxed);
        busy != 0 && shared.now_us().saturating_sub(busy) > cfg.wedge_timeout.as_micros() as u64
    };
    if !dead && !wedged {
        return;
    }
    // Fresh queue generation: an orphaned wedged worker finishes (and
    // answers) the batch it holds, then sees the bump and exits without
    // pulling new jobs.
    let generation = shared.generation.fetch_add(1, Ordering::SeqCst) + 1;
    if dead {
        if let Some(h) = slot.handle.take() {
            let _ = h.join(); // finished: reaps immediately
        }
    }
    // A wedged worker's handle is dropped (detached) — it exits on its own.
    *slot = spawn_worker(shared, planes, metrics, cfg, generation);
    metrics.batcher_respawns.fetch_add(1, Ordering::Relaxed);
    rotom_nn::telemetry::counter("serve.batcher_respawns", 1);
    shared.cond.notify_all();
}

fn run_worker(
    shared: Arc<Shared>,
    planes: Arc<[TaskPlane; 3]>,
    metrics: Arc<ServeMetrics>,
    cfg: Arc<ServerConfig>,
    generation: u64,
    busy_since_us: Arc<AtomicU64>,
) {
    let pool = RotomPool::new(cfg.score_threads.max(1));
    let max_batch = cfg.max_batch.max(1);
    // Whether the worker found the queue empty (or has just started) rather
    // than coming back from a batch to a backlog.
    let mut idle = true;
    loop {
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        // Wait for work (or a state change).
        while q.jobs.is_empty() && !q.shutdown && !q.draining {
            idle = true;
            q = shared.cond.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        if q.shutdown {
            // Fail every queued job definitively, never a hang.
            let n = q.jobs.len();
            if n > 0 {
                metrics.shed_total.fetch_add(n as u64, Ordering::Relaxed);
            }
            for job in q.jobs.drain(..) {
                let _ = job.reply.send(Err(JobError::ShuttingDown));
            }
            metrics.queue_depth.store(0, Ordering::Relaxed);
            return;
        }
        if shared.generation.load(Ordering::SeqCst) != generation {
            return; // orphaned by the watchdog: successor owns the queue
        }
        if q.draining && q.jobs.is_empty() {
            return; // drained clean
        }
        // Supervisor-visible thread death (chaos suites): panic *outside*
        // the score guard, killing this worker. The watchdog respawns it
        // and the queue — including the job that woke us — survives.
        if faultpoint::fire_global(FaultKind::BatcherDie).is_some() {
            drop(q);
            panic!("injected batcher_die faultpoint");
        }
        // Expire jobs that outlived their deadline budget (deque order is
        // arrival order, so expired jobs cluster at the front).
        if !cfg.deadline.is_zero() {
            let now = Instant::now();
            let mut expired = 0usize;
            while let Some(front) = q.jobs.front() {
                if now.duration_since(front.enqueued) <= cfg.deadline {
                    break;
                }
                let job = q.jobs.pop_front().expect("front exists");
                let _ = job.reply.send(Err(JobError::DeadlineExpired));
                expired += 1;
            }
            if expired > 0 {
                metrics
                    .shed_total
                    .fetch_add(expired as u64, Ordering::Relaxed);
                metrics
                    .queue_depth
                    .store(q.jobs.len() as u64, Ordering::Relaxed);
                if q.jobs.is_empty() {
                    continue;
                }
            }
        }
        // An idle worker dispatches at once: with the model free, waiting
        // only delays the jobs. One back from a batch collects until the
        // oldest job has waited `window` since it arrived. Draining skips
        // the window: latency batching is pointless when the goal is to
        // finish.
        let endpoint = q.jobs[0].endpoint;
        let deadline = q.jobs[0].enqueued + cfg.window;
        while !idle && !q.draining && !q.shutdown {
            let matching = q.jobs.iter().filter(|j| j.endpoint == endpoint).count();
            if matching >= max_batch {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _timeout) = shared
                .cond
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
        // Pull up to max_batch matching jobs, preserving arrival order.
        let mut batch: Vec<Job> = Vec::new();
        let mut i = 0;
        while i < q.jobs.len() && batch.len() < max_batch {
            if q.jobs[i].endpoint == endpoint {
                batch.push(q.jobs.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        metrics
            .queue_depth
            .store(q.jobs.len() as u64, Ordering::Relaxed);
        drop(q);
        if batch.is_empty() {
            continue;
        }
        idle = false;

        let dispatched = Instant::now();
        let all_inputs: Vec<&[String]> = batch
            .iter()
            .flat_map(|job| job.inputs.iter().map(Vec::as_slice))
            .collect();
        metrics.batches.fetch_add(1, Ordering::Relaxed);
        metrics
            .batched_jobs
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let wait_us: u64 = batch
            .iter()
            .map(|j| dispatched.duration_since(j.enqueued).as_micros() as u64)
            .sum();
        metrics.queue_wait_us.fetch_add(wait_us, Ordering::Relaxed);

        let plane = &planes[endpoint_index(endpoint)];
        busy_since_us.store(shared.now_us().max(1), Ordering::Relaxed);
        let scored = catch_unwind(AssertUnwindSafe(|| plane.score(&all_inputs, &pool)));
        busy_since_us.store(0, Ordering::Relaxed);
        // Feed the admission-control estimate: EWMA (α=1/4) of batch
        // service time.
        let batch_us = (dispatched.elapsed().as_micros() as u64).max(1);
        let old = shared.batch_ewma_us.load(Ordering::Relaxed);
        let ewma = if old == 0 {
            batch_us
        } else {
            (3 * old + batch_us) / 4
        };
        shared.batch_ewma_us.store(ewma, Ordering::Relaxed);

        match scored {
            Ok(out) => {
                let mut rows = out.scores.into_iter();
                for job in batch {
                    let scores = rows.by_ref().take(job.inputs.len()).collect();
                    let _ = job.reply.send(Ok(JobResult {
                        scores,
                        generation: out.generation,
                        param_generation: out.param_generation,
                    }));
                }
            }
            Err(_) => {
                for job in batch {
                    let _ = job.reply.send(Err(JobError::ScorePanic));
                }
            }
        }
    }
}

/// Route-order index of an endpoint (matches `ServeMetrics::endpoints`).
pub fn endpoint_index(endpoint: Endpoint) -> usize {
    Endpoint::ALL
        .iter()
        .position(|e| *e == endpoint)
        .expect("endpoint in ALL")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::{demo_model, demo_model_config};

    fn test_planes() -> Arc<[TaskPlane; 3]> {
        let cfg = demo_model_config();
        let planes = Endpoint::ALL.map(|e| {
            let (model, name) = demo_model(e.task_kind(), &cfg, 11);
            TaskPlane::new(e, name, model)
        });
        Arc::new(planes)
    }

    #[test]
    fn batcher_scores_match_direct_plane_scoring() {
        let planes = test_planes();
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = Batcher::spawn(
            Arc::clone(&planes),
            Arc::clone(&metrics),
            ServerConfig {
                window: Duration::from_millis(1),
                max_batch: 8,
                score_threads: 2,
                ..ServerConfig::default()
            },
        );
        let inputs = vec![
            rotom_text::tokenize("vivid and moving picture"),
            rotom_text::tokenize("dull lifeless slog"),
        ];
        let rx = batcher
            .submit(Endpoint::Classify, inputs.clone())
            .expect("admitted");
        let reply = rx.recv().expect("reply").expect("scores");
        let direct = planes[endpoint_index(Endpoint::Classify)].score(&inputs, &RotomPool::new(2));
        assert_eq!(reply.scores, direct.scores, "batched == direct, bit-exact");
        assert_eq!(reply.generation, 0);
        assert_eq!(
            metrics.batches.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn idle_batcher_dispatches_without_waiting_out_the_window() {
        let planes = test_planes();
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = Batcher::spawn(
            Arc::clone(&planes),
            Arc::clone(&metrics),
            ServerConfig {
                window: Duration::from_secs(5),
                ..ServerConfig::default()
            },
        );
        let start = Instant::now();
        let rx = batcher
            .submit(Endpoint::Match, vec![rotom_text::tokenize("acme phone")])
            .expect("admitted");
        rx.recv().expect("reply").expect("scores");
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "took {took:?}");
        let wait_us = metrics.queue_wait_us.load(Ordering::Relaxed);
        assert!(wait_us < 1_000_000, "queue wait {wait_us} us");
    }

    #[test]
    fn concurrent_submissions_are_each_answered_and_counted_once() {
        let planes = test_planes();
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = Arc::new(Batcher::spawn(
            Arc::clone(&planes),
            Arc::clone(&metrics),
            ServerConfig {
                window: Duration::from_millis(20),
                max_batch: 64,
                score_threads: 2,
                ..ServerConfig::default()
            },
        ));
        let mut rxs = Vec::new();
        for i in 0..12 {
            let text = format!("sample number {i} with shared phrasing");
            rxs.push((
                i,
                batcher
                    .submit(Endpoint::Match, vec![rotom_text::tokenize(&text)])
                    .expect("admitted"),
            ));
        }
        for (_, rx) in rxs {
            let reply = rx.recv().expect("reply").expect("scores");
            assert_eq!(reply.scores.len(), 1);
        }
        let jobs = metrics
            .batched_jobs
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(jobs, 12);
    }

    #[test]
    fn shutdown_sheds_new_jobs_instead_of_hanging() {
        let planes = test_planes();
        let metrics = Arc::new(ServeMetrics::default());
        let mut batcher = Batcher::spawn(planes, Arc::clone(&metrics), ServerConfig::default());
        batcher.shutdown();
        let err = batcher
            .submit(Endpoint::Clean, vec![vec!["x".to_string()]])
            .expect_err("post-shutdown submit must shed, not hang");
        assert_eq!(err, JobError::ShuttingDown);
        assert_eq!(err.status(), 503);
        assert_eq!(err.retry_after_secs(), Some(1));
        assert!(metrics.shed_total.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn full_queue_sheds_with_retry_after() {
        let planes = test_planes();
        let metrics = Arc::new(ServeMetrics::default());
        // max_queue of 1 with a long window: the first job parks in the
        // queue long enough for the second submit to see it there. To keep
        // this deterministic regardless of worker timing, pause the worker
        // by occupying it: max_queue=0 can't, so instead use the faultpoint.
        let batcher = Batcher::spawn(
            Arc::clone(&planes),
            Arc::clone(&metrics),
            ServerConfig::default(),
        );
        faultpoint::arm_global("queue_full").unwrap();
        let err = batcher
            .submit(Endpoint::Clean, vec![vec!["x".to_string()]])
            .expect_err("forced queue-full must shed");
        assert!(matches!(err, JobError::QueueFull { .. }));
        assert_eq!(err.status(), 503);
        assert!(err.retry_after_secs().unwrap() >= 1);
        assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 1);
        // Disarmed after one shot: the next submit is admitted and scored.
        let rx = batcher
            .submit(Endpoint::Clean, vec![vec!["x".to_string()]])
            .expect("admitted after the one-shot fault");
        assert!(rx.recv().expect("reply").is_ok());
        faultpoint::clear_global();
    }

    #[test]
    fn drain_completes_queued_jobs_then_refuses_new_ones() {
        let planes = test_planes();
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = Batcher::spawn(
            Arc::clone(&planes),
            Arc::clone(&metrics),
            ServerConfig {
                // A long window the drain must cut through.
                window: Duration::from_secs(5),
                max_batch: 64,
                ..ServerConfig::default()
            },
        );
        let mut rxs = Vec::new();
        for _ in 0..4 {
            rxs.push(
                batcher
                    .submit(Endpoint::Classify, vec![rotom_text::tokenize("small film")])
                    .expect("admitted"),
            );
        }
        let report = batcher.drain(Duration::from_secs(10));
        assert!(report.completed, "drain must finish queued work");
        assert_eq!(report.failed_jobs, 0);
        for rx in rxs {
            assert!(
                rx.recv().expect("reply").is_ok(),
                "accepted jobs complete during drain"
            );
        }
        let err = batcher
            .submit(Endpoint::Classify, vec![rotom_text::tokenize("late")])
            .expect_err("post-drain submit is refused");
        assert_eq!(err.status(), 503);
        assert_eq!(
            metrics.drain_deadline_exceeded.load(Ordering::Relaxed),
            0,
            "clean drain must not count as deadline-exceeded"
        );
    }

    #[test]
    fn queue_depth_gauge_tracks_submissions() {
        let planes = test_planes();
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = Batcher::spawn(
            Arc::clone(&planes),
            Arc::clone(&metrics),
            ServerConfig::default(),
        );
        let rx = batcher
            .submit(Endpoint::Match, vec![rotom_text::tokenize("acme phone")])
            .expect("admitted");
        // The gauge was 1 at submit; after the reply the batch was pulled
        // and it must be back to 0.
        let _ = rx.recv().expect("reply");
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
    }
}
