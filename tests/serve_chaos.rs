//! Chaos suite for the serving plane: drive the overload-protection and
//! graceful-degradation paths deterministically with the serve-side
//! `ROTOM_FAULT` faultpoints (`queue_full`, `score_panic`, `slow_score`,
//! `batcher_die`, `torn_write`) over real sockets.
//!
//! What "robust" means here, concretely:
//!
//! * **Shed, never hang** — overload answers `503` + `Retry-After` fast;
//!   every accepted request is answered; no connection is left hanging.
//! * **Degrade, never die** — a scoring panic is one failed batch (`500`),
//!   not a dead batcher; a panic *outside* the score guard or a wedged
//!   forward pass is detected by the watchdog, which respawns the worker
//!   and the queued jobs survive.
//! * **Drain, then stop** — `Server::drain` completes accepted work under
//!   a deadline and only then fails stragglers.
//!
//! The faultpoints live in process-global state, so the tests serialize on
//! a mutex and clear the plan on every exit path (including panics) via a
//! drop guard. Each scenario runs at scoring-pool widths 1 and 8.

use rotom_nn::{faultpoint, RotomPool};
use rotom_serve::json::{self, Json};
use rotom_serve::{
    demo_model, demo_model_config, post_with_retry, Client, Endpoint, Response, RetryPolicy,
    Server, ServerConfig, TaskPlane,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serializes the chaos tests: the faultpoint plan is process-global, and
/// the default test harness runs tests in parallel threads.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Holds the suite lock and guarantees no fault leaks out of a test, even
/// on assertion failure.
struct ChaosGuard<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

impl<'a> ChaosGuard<'a> {
    fn acquire() -> Self {
        let lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        faultpoint::clear_global();
        Self { _lock: lock }
    }
}

impl Drop for ChaosGuard<'_> {
    fn drop(&mut self) {
        faultpoint::clear_global();
    }
}

const BODY: &str = "{\"inputs\": [\"a small bright film\"]}";

const SEED: u64 = 23;

fn boot(tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        window: Duration::from_millis(1),
        max_batch: 8,
        seed: SEED,
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    Server::start(cfg).expect("server boots on an ephemeral port")
}

/// POST `body` to `/classify` over `client` on a thread of its own.
fn post_in_thread(mut client: Client, body: String) -> JoinHandle<Response> {
    std::thread::spawn(move || client.post("/classify", &body).expect("answered"))
}

/// Stall the first batch for `stall_ms` inside the forward pass. Returns
/// the held request and four more open connections, ready to queue jobs
/// behind it; they connect before the stall so their jobs queue quickly.
fn hold_worker(server: &Server, stall_ms: u64) -> (JoinHandle<Response>, Vec<Client>) {
    let connect = || Client::connect(server.local_addr()).expect("connect");
    let conns = (0..4).map(|_| connect()).collect();
    faultpoint::arm_global(&format!("slow_score@step={stall_ms}")).expect("arm");
    let held = post_in_thread(connect(), BODY.into());
    assert!(
        reaches(&server.metrics().batches, 1),
        "the first job is in its batch"
    );
    (held, conns)
}

/// Poll `gauge` every millisecond for up to 5 s; whether it read `want`.
fn reaches(gauge: &AtomicU64, want: u64) -> bool {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(5) {
        if gauge.load(Ordering::Relaxed) == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

#[test]
fn queue_full_shed_is_503_with_retry_after_then_recovers() {
    let _guard = ChaosGuard::acquire();
    for threads in [1usize, 8] {
        let server = boot(|c| c.score_threads = threads);
        let mut client = Client::connect(server.local_addr()).expect("connect");

        faultpoint::arm_global("queue_full").expect("arm");
        let shed = client.post("/classify", BODY).expect("shed response");
        assert_eq!(shed.status, 503, "at {threads} threads: {}", shed.body);
        assert!(
            shed.body.contains("queue full"),
            "shed body names the reason: {}",
            shed.body
        );
        let retry_after = shed
            .retry_after_secs
            .expect("shed responses carry Retry-After");
        assert!((1..=8).contains(&retry_after));

        // One-shot fault: the same connection scores normally afterwards.
        let ok = client.post("/classify", BODY).expect("recovered");
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert!(ok.body.contains("scores"));

        let m = server.metrics();
        assert_eq!(m.shed_total.load(Ordering::Relaxed), 1);
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
        server.shutdown();
    }
}

#[test]
fn retry_client_rides_through_sheds_and_torn_writes() {
    let _guard = ChaosGuard::acquire();
    for threads in [1usize, 8] {
        let server = boot(|c| c.score_threads = threads);
        let addr = server.local_addr();
        let policy = RetryPolicy {
            max_retries: 4,
            max_backoff: Duration::from_millis(10),
            seed: 0xC0FFEE,
        };

        // Shed → honored Retry-After (clamped) → success.
        faultpoint::arm_global("queue_full").expect("arm");
        let resp = post_with_retry(addr, "/classify", BODY, &policy).expect("retried through shed");
        assert_eq!(resp.status, 200, "at {threads} threads: {}", resp.body);

        // Torn mid-response write → UnexpectedEof → reconnect → success.
        faultpoint::arm_global("torn_write").expect("arm");
        let resp = post_with_retry(addr, "/classify", BODY, &policy)
            .expect("reconnected after torn write");
        assert_eq!(resp.status, 200, "{}", resp.body);

        // Bounded: with zero retries the shed surfaces to the caller.
        faultpoint::arm_global("queue_full").expect("arm");
        let no_retry = RetryPolicy {
            max_retries: 0,
            ..policy
        };
        let resp = post_with_retry(addr, "/classify", BODY, &no_retry).expect("response");
        assert_eq!(resp.status, 503, "zero-retry policy must not retry");
        faultpoint::clear_global();
        server.shutdown();
    }
}

#[test]
fn score_panic_fails_one_batch_not_the_batcher() {
    let _guard = ChaosGuard::acquire();
    for threads in [1usize, 8] {
        let server = boot(|c| c.score_threads = threads);
        let mut client = Client::connect(server.local_addr()).expect("connect");

        faultpoint::arm_global("score_panic").expect("arm");
        let failed = client.post("/classify", BODY).expect("failed response");
        assert_eq!(failed.status, 500, "at {threads} threads: {}", failed.body);
        assert!(failed.retry_after_secs.is_none(), "panic is not a shed");

        // The panic was caught inside the worker: same worker, no respawn,
        // next request scores.
        let ok = client.post("/classify", BODY).expect("recovered");
        assert_eq!(ok.status, 200, "{}", ok.body);
        assert_eq!(
            server.metrics().batcher_respawns.load(Ordering::Relaxed),
            0,
            "a caught panic must not trip the watchdog"
        );
        server.shutdown();
    }
}

#[test]
fn watchdog_respawns_panic_dead_worker_and_queued_job_survives() {
    let _guard = ChaosGuard::acquire();
    for threads in [1usize, 8] {
        let server = boot(|c| c.score_threads = threads);
        let mut client = Client::connect(server.local_addr()).expect("connect");

        // `batcher_die` kills the worker thread *outside* the score guard,
        // after it wakes for this job but before it pulls it — the job
        // stays queued, the watchdog respawns the worker, and the respawned
        // worker answers it. The request itself succeeds.
        faultpoint::arm_global("batcher_die").expect("arm");
        let start = Instant::now();
        let resp = client.post("/classify", BODY).expect("survived respawn");
        assert_eq!(resp.status, 200, "at {threads} threads: {}", resp.body);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "respawn must be prompt, not a timeout"
        );
        assert!(
            server.metrics().batcher_respawns.load(Ordering::Relaxed) >= 1,
            "watchdog must count the respawn"
        );

        let ok = client.post("/classify", BODY).expect("steady state");
        assert_eq!(ok.status, 200);
        server.shutdown();
    }
}

#[test]
fn watchdog_replaces_wedged_worker_while_it_finishes_its_batch() {
    let _guard = ChaosGuard::acquire();
    for threads in [1usize, 8] {
        let server = boot(|c| {
            c.score_threads = threads;
            c.wedge_timeout = Duration::from_millis(50);
        });
        let addr = server.local_addr();

        // Request A stalls 400ms inside the forward pass — far past the
        // 50ms wedge timeout.
        faultpoint::arm_global("slow_score@step=400").expect("arm");
        let a = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect A");
            client.post("/classify", BODY).expect("A answered")
        });
        // Give A time to be pulled into the forward pass, then let the
        // watchdog notice the wedge.
        std::thread::sleep(Duration::from_millis(150));

        // Request B must be served promptly by the respawned worker while
        // the orphaned one is still asleep.
        let mut client = Client::connect(addr).expect("connect B");
        let start = Instant::now();
        let b = client.post("/classify", BODY).expect("B answered");
        assert_eq!(b.status, 200, "at {threads} threads: {}", b.body);
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "B must not wait out A's stall (took {:?})",
            start.elapsed()
        );
        assert!(
            server.metrics().batcher_respawns.load(Ordering::Relaxed) >= 1,
            "wedge must be detected"
        );

        // The orphaned worker still answers the batch it was holding —
        // wedged is degraded, not lost.
        let a = a.join().expect("A thread");
        assert_eq!(a.status, 200, "{}", a.body);
        server.shutdown();
    }
}

#[test]
fn drain_completes_queued_jobs_then_stops_serving() {
    let _guard = ChaosGuard::acquire();
    for threads in [1usize, 8] {
        // A long batching window: jobs sit queued when the drain starts,
        // and the drain must cut through the window rather than wait it out.
        let server = boot(|c| {
            c.score_threads = threads;
            c.window = Duration::from_millis(500);
            c.max_batch = 64; // the window never fills: jobs sit queued
        });
        let addr = server.local_addr();
        let m = server.metrics();
        // An idle batcher dispatches at once, so a stalled first batch
        // holds the worker while four more jobs queue behind it.
        let (held, conns) = hold_worker(&server, 300);
        let queued: Vec<_> = conns
            .into_iter()
            .map(|c| post_in_thread(c, BODY.into()))
            .collect();
        assert!(
            reaches(&m.queue_depth, 4),
            "at {threads} threads: all four jobs are queued before the drain"
        );

        let start = Instant::now();
        let report = server.drain(Duration::from_secs(30));
        assert!(report.completed, "drain must finish accepted work");
        assert_eq!(report.failed_jobs, 0);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "drain must not wait out batching windows (took {:?})",
            start.elapsed()
        );
        for handle in std::iter::once(held).chain(queued) {
            let resp = handle.join().expect("client thread");
            assert_eq!(
                resp.status, 200,
                "every accepted job completes during drain: {}",
                resp.body
            );
        }
        assert_eq!(m.drain_deadline_exceeded.load(Ordering::Relaxed), 0);
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);

        // Drained means stopped: no new connections are served.
        assert!(
            Client::connect(addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_err(),
            "post-drain connections must be refused"
        );
    }
}

#[test]
fn jobs_queued_behind_a_busy_worker_ride_one_batch() {
    let _guard = ChaosGuard::acquire();
    let texts = [
        "a luminous heartfelt film",
        "tedious and shapeless",
        "the plot works the pacing does not",
        "bright small and moving",
    ];
    let (model, name) = demo_model(Endpoint::Classify.task_kind(), &demo_model_config(), SEED);
    let reference = TaskPlane::new(Endpoint::Classify, name, model);
    for threads in [1usize, 8] {
        let server = boot(|c| {
            c.score_threads = threads;
            c.window = Duration::from_millis(20);
            c.max_batch = 64;
        });
        let m = server.metrics();
        let (held, conns) = hold_worker(&server, 150);
        let queued: Vec<_> = conns
            .into_iter()
            .zip(texts)
            .map(|(c, text)| post_in_thread(c, format!("{{\"inputs\": [{}]}}", json::quote(text))))
            .collect();
        assert!(
            reaches(&m.queue_depth, 4),
            "at {threads} threads: all four jobs are queued during the stall"
        );

        assert_eq!(held.join().expect("client thread").status, 200);
        let pool = RotomPool::new(threads);
        for (handle, text) in queued.into_iter().zip(texts) {
            let resp = handle.join().expect("client thread");
            assert_eq!(resp.status, 200, "{}", resp.body);
            let doc = json::parse(&resp.body).expect("response is valid JSON");
            let served = json::parse_scores(doc.get("scores").expect("scores")).expect("scores");
            let direct = reference.score(&[rotom_text::tokenize(text)], &pool).scores;
            let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
                rows.iter()
                    .map(|r| r.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                bits(&served),
                bits(&direct),
                "{text:?} at {threads} threads"
            );
            assert_eq!(doc.get("generation").and_then(Json::as_u64), Some(0));
        }
        assert_eq!(
            m.batches.load(Ordering::Relaxed),
            2,
            "the four rode one batch"
        );
        assert_eq!(m.batched_jobs.load(Ordering::Relaxed), 5);
        server.shutdown();
    }
}

#[test]
fn drain_deadline_fails_stragglers_but_never_hangs() {
    let _guard = ChaosGuard::acquire();
    for threads in [1usize, 8] {
        let server = boot(|c| c.score_threads = threads);
        let addr = server.local_addr();

        // A wedges the worker mid-batch for 500ms.
        faultpoint::arm_global("slow_score@step=500").expect("arm");
        let a = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect A");
            client.post("/classify", BODY).expect("A answered")
        });
        std::thread::sleep(Duration::from_millis(100));
        // B queues behind the stalled batch.
        let b = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect B");
            client.post("/classify", BODY).expect("B answered")
        });
        std::thread::sleep(Duration::from_millis(50));

        // The drain deadline (50ms) expires long before A's 500ms stall.
        let report = server.drain(Duration::from_millis(50));
        assert!(!report.completed, "stalled drain must report failure");
        assert!(report.failed_jobs >= 1, "B was still queued");
        assert_eq!(
            server
                .metrics()
                .drain_deadline_exceeded
                .load(Ordering::Relaxed),
            1
        );

        // B is *failed*, not forgotten: a definitive 503, no hang.
        let b = b.join().expect("B thread");
        assert_eq!(b.status, 503, "{}", b.body);
        assert_eq!(b.retry_after_secs, Some(1));
        assert!(b.body.contains("draining"), "{}", b.body);

        // A's batch was already in flight; the orphaned worker still
        // answers it after the stall.
        let a = a.join().expect("A thread");
        assert_eq!(a.status, 200, "{}", a.body);
    }
}

#[test]
fn connection_cap_sheds_excess_connections_inline() {
    let _guard = ChaosGuard::acquire();
    let server = boot(|c| {
        c.score_threads = 1;
        c.max_conns = 2;
    });
    let addr = server.local_addr();

    // Fill the cap with two live keep-alive connections (a request each,
    // so both handlers are provably up).
    let mut c1 = Client::connect(addr).expect("connect 1");
    assert_eq!(c1.get("/healthz").expect("healthz").status, 200);
    let mut c2 = Client::connect(addr).expect("connect 2");
    assert_eq!(c2.get("/healthz").expect("healthz").status, 200);

    // The third connection is answered 503 + Retry-After by the accept
    // thread itself and closed — without reading the request.
    let mut c3 = Client::connect(addr).expect("tcp connect still succeeds");
    let resp = c3.get("/healthz").expect("inline rejection is readable");
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.retry_after_secs, Some(1));
    assert!(resp.close, "rejected connections are closed");
    let m = server.metrics();
    assert!(m.conns_rejected.load(Ordering::Relaxed) >= 1);

    // Capacity frees when a connection closes: drop one, the next connect
    // is served. The handler needs a beat to observe the close.
    drop(c1);
    let mut ok = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(10));
        let mut c = match Client::connect(addr) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match c.get("/healthz") {
            Ok(resp) if resp.status == 200 => {
                ok = Some(resp);
                break;
            }
            _ => continue,
        }
    }
    let ok = ok.expect("a freed slot must be reusable within 1s");
    assert_eq!(ok.status, 200);
    server.shutdown();
}

#[test]
fn faults_clear_and_metrics_stay_consistent_after_chaos() {
    let _guard = ChaosGuard::acquire();
    let server = boot(|c| c.score_threads = 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // A short storm: shed, panic, recover — then the process must be
    // boring again.
    faultpoint::arm_global("queue_full;score_panic").expect("arm");
    assert_eq!(client.post("/classify", BODY).expect("shed").status, 503);
    assert_eq!(client.post("/classify", BODY).expect("panic").status, 500);
    assert_eq!(faultpoint::armed_global(), 0, "both faults consumed");
    for _ in 0..5 {
        assert_eq!(client.post("/classify", BODY).expect("ok").status, 200);
    }

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let doc = rotom_serve::json::parse(&metrics.body).expect("metrics JSON");
    let batcher = doc.get("batcher").expect("batcher section");
    let get_u64 = |j: &rotom_serve::json::Json, k: &str| {
        j.get(k)
            .and_then(rotom_serve::json::Json::as_u64)
            .unwrap_or_else(|| panic!("{k} in {}", metrics.body))
    };
    assert_eq!(get_u64(batcher, "shed_total"), 1);
    assert_eq!(get_u64(batcher, "queue_depth"), 0);
    assert_eq!(get_u64(batcher, "batcher_respawns"), 0);
    assert_eq!(get_u64(batcher, "drain_deadline_exceeded"), 0);
    server.shutdown();
}
