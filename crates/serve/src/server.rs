//! The HTTP server: accept loop, connection handling, routing.
//!
//! Thread-per-connection over `std::net::TcpListener` — the workloads this
//! serves are model-bound, not connection-bound, so the simple topology is
//! the right one. Request *scoring* is still batched: handlers submit jobs
//! to the shared [`Batcher`] and block on the reply, so requests that
//! queue while a batch is scoring ride one `score_batch` pass together.
//!
//! ## Routes
//!
//! | Route | Method | Body |
//! |---|---|---|
//! | `/healthz` | GET | — |
//! | `/metrics` | GET | — |
//! | `/match`, `/clean`, `/classify` | POST | `{"inputs": ["text", ["tok", ...], ...]}` |
//! | `/admin/swap` | POST | `{"endpoint": "match", "checkpoint": "path"}` |
//!
//! ## Error taxonomy
//!
//! Parse-level failures map through [`HttpError`](crate::http::HttpError): 400 malformed syntax,
//! 408 idle timeout mid-request, 411 missing Content-Length, 413 oversized
//! body, 431 oversized head, 501 chunked transfer-encoding, 505 bad
//! version. Route-level failures: 404 unknown path, 405 wrong method,
//! 400 malformed JSON body or wrong shape, 422 checkpoint rejected on swap,
//! 500 scoring failure. Every error body is JSON: `{"error": ..., "status": ...}`.

use crate::batcher::{endpoint_index, Batcher, DrainReport, JobError};
use crate::http::{self, Request};
use crate::json::{self, Json};
use crate::metrics::{CacheStats, ServeMetrics};
use crate::plane::{demo_model, demo_model_config, Endpoint, TaskPlane};
use rotom_nn::faultpoint::{self, FaultKind};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Most inputs a single scoring request may carry; more is a 400 (split
/// the request) so one client cannot monopolize a batch.
pub const MAX_INPUTS_PER_REQUEST: usize = 256;

/// Server configuration: the one definition of every serving setting. The
/// batcher's worker and watchdog share it by `Arc`.
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// The longest a queued job waits for more jobs of its endpoint to
    /// share its batch, counted from its arrival. An idle batcher does not
    /// wait at all; the window applies only to jobs queued while a batch
    /// is scoring.
    pub window: Duration,
    /// Dispatch immediately once this many jobs are collected.
    pub max_batch: usize,
    /// Thread width of the scoring pool.
    pub score_threads: usize,
    /// Score-cache capacity per plane (0 = disabled).
    pub score_cache: usize,
    /// Seed for the demo models the planes boot with.
    pub seed: u64,
    /// Close connections idle longer than this between requests; a
    /// connection idle mid-request gets a 408 first.
    pub idle_timeout: Duration,
    /// Batcher queue depth cap; submissions beyond it are shed with 503 +
    /// `Retry-After` (0 = unbounded).
    pub max_queue: usize,
    /// Per-request deadline budget: shed at admission when the predicted
    /// queue wait exceeds it, expire jobs queued longer than it
    /// (zero = no deadline).
    pub deadline: Duration,
    /// Hard cap on concurrently open connections; excess accepts are
    /// answered 503 + `Retry-After` and closed (0 = uncapped).
    pub max_conns: usize,
    /// Watchdog: replace a batcher worker busy on one batch longer than
    /// this.
    pub wedge_timeout: Duration,
    /// Watchdog poll interval.
    pub watchdog_tick: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            window: Duration::from_millis(2),
            max_batch: 32,
            score_threads: 1,
            score_cache: 0,
            seed: 7,
            idle_timeout: Duration::from_secs(30),
            max_queue: 1024,
            deadline: Duration::from_secs(10),
            max_conns: 256,
            wedge_timeout: Duration::from_secs(2),
            watchdog_tick: Duration::from_millis(20),
        }
    }
}

struct Inner {
    planes: Arc<[TaskPlane; 3]>,
    metrics: Arc<ServeMetrics>,
    batcher: Batcher,
    shutdown: AtomicBool,
    /// Drain mode: stop accepting and close idle keep-alive connections,
    /// but let in-flight and queued jobs complete (see [`Server::drain`]).
    draining: AtomicBool,
    idle_timeout: Duration,
    max_conns: usize,
    active_conns: AtomicU64,
}

/// Decrements `active_conns` when a connection handler exits (any path).
struct ConnGuard {
    inner: Arc<Inner>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.inner.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running server. Dropping it (or calling [`shutdown`](Server::shutdown))
/// stops the accept loop, fails queued jobs, and joins the accept thread.
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Build planes (demo models for all three endpoints), spawn the
    /// batcher and the accept loop, and return once the listener is bound.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let model_cfg = demo_model_config();
        let planes = Endpoint::ALL.map(|e| {
            let (model, name) = demo_model(e.task_kind(), &model_cfg, cfg.seed);
            TaskPlane::new(e, name, model)
        });
        Self::start_with_planes(cfg, Arc::new(planes))
    }

    /// Like [`start`](Server::start), but serve caller-provided planes —
    /// tests use this to compare server responses against direct scoring on
    /// a bit-identical model. A `cfg.score_cache` above 0 gives each plane
    /// a fresh cache of that capacity; 0 leaves the planes' caches as they
    /// are.
    pub fn start_with_planes(
        cfg: ServerConfig,
        planes: Arc<[TaskPlane; 3]>,
    ) -> std::io::Result<Server> {
        if cfg.score_cache > 0 {
            for plane in planes.iter() {
                plane.set_score_cache(cfg.score_cache);
            }
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::default());
        let (idle_timeout, max_conns) = (cfg.idle_timeout, cfg.max_conns);
        let batcher = Batcher::spawn(Arc::clone(&planes), Arc::clone(&metrics), cfg);
        let inner = Arc::new(Inner {
            planes,
            metrics,
            batcher,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            idle_timeout,
            max_conns,
            active_conns: AtomicU64::new(0),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_handle = std::thread::Builder::new()
            .name("rotom-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))?;
        Ok(Server {
            inner,
            local_addr,
            accept_handle: Mutex::new(Some(accept_handle)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The serving metrics (shared with handlers).
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.inner.metrics
    }

    /// The planes being served.
    pub fn planes(&self) -> &Arc<[TaskPlane; 3]> {
        &self.inner.planes
    }

    /// Stop accepting, fail queued jobs, join the accept thread. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop_accepting();
    }

    /// Graceful drain: stop accepting new connections, shed new
    /// submissions, complete in-flight and queued jobs, and only after
    /// `timeout` fail the stragglers (counted in `drain_deadline_exceeded`).
    /// The server is shut down when this returns. Idempotent; a drain after
    /// [`shutdown`](Server::shutdown) (or vice versa) is a no-op.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return DrainReport {
                completed: true,
                failed_jobs: 0,
            };
        }
        if !self.inner.draining.swap(true, Ordering::SeqCst) {
            self.stop_accepting();
        }
        let report = self.inner.batcher.drain(timeout);
        // Only now flip shutdown: handlers blocked on batcher replies have
        // been answered, and the flag closes idle keep-alive connections.
        self.inner.shutdown.store(true, Ordering::SeqCst);
        report
    }

    /// Unblock the blocking `accept()` with a throwaway connection and join
    /// the accept thread.
    fn stop_accepting(&self) {
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Exponential backoff for transient `accept()` errors (EMFILE, ECONNABORTED,
/// resource pressure): 1ms doubling to a 500ms ceiling. The accept thread
/// sleeps this long and retries instead of dying — an accept loop that exits
/// on EMFILE turns a transient fd spike into a permanently deaf server.
fn accept_backoff(consecutive_errors: u32) -> Duration {
    let ms = 1u64 << consecutive_errors.min(10).saturating_sub(1);
    Duration::from_millis(ms.min(500))
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut consecutive_errors = 0u32;
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                consecutive_errors = 0;
                if inner.shutdown.load(Ordering::SeqCst) || inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                if inner.max_conns > 0
                    && inner.active_conns.load(Ordering::SeqCst) >= inner.max_conns as u64
                {
                    // Over the connection cap: answer 503 inline (no handler
                    // thread) and close. Cheap enough to do on the accept
                    // thread, and the client gets a signal instead of a RST.
                    inner.metrics.conns_rejected.fetch_add(1, Ordering::Relaxed);
                    inner.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                    inner.metrics.record_status(503);
                    let body = b"{\"error\":\"connection limit reached\",\"status\":503}";
                    let bytes = http::response_bytes_with(
                        503,
                        "Service Unavailable",
                        "application/json",
                        body,
                        false,
                        &[("retry-after", "1".to_string())],
                    );
                    let _ = stream.write_all(&bytes);
                    continue;
                }
                inner.metrics.connections.fetch_add(1, Ordering::Relaxed);
                inner.active_conns.fetch_add(1, Ordering::SeqCst);
                let guard = ConnGuard {
                    inner: Arc::clone(&inner),
                };
                let conn_inner = Arc::clone(&inner);
                // If the spawn itself fails, dropping the unsent closure
                // drops the guard, releasing the slot.
                let _ = std::thread::Builder::new()
                    .name("rotom-serve-conn".into())
                    .spawn(move || {
                        let _guard = guard;
                        handle_connection(stream, conn_inner)
                    });
            }
            Err(_)
                if inner.shutdown.load(Ordering::SeqCst)
                    || inner.draining.load(Ordering::SeqCst) =>
            {
                return
            }
            Err(e) => {
                consecutive_errors += 1;
                inner.metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                rotom_nn::telemetry::counter("serve.accept_errors", 1);
                eprintln!(
                    "rotom-serve: accept error ({e}); retrying after {:?}",
                    accept_backoff(consecutive_errors)
                );
                std::thread::sleep(accept_backoff(consecutive_errors));
            }
        }
    }
}

/// Read tick: short enough that shutdown and idle checks stay responsive,
/// long enough that the poll loop is cheap.
const READ_TICK: Duration = Duration::from_millis(100);

fn handle_connection(stream: TcpStream, inner: Arc<Inner>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8 * 1024];
    let mut last_activity = Instant::now();
    loop {
        // Serve every complete pipelined request already buffered.
        loop {
            match http::parse_request(&buf) {
                Ok(Some((req, consumed))) => {
                    buf.drain(..consumed);
                    last_activity = Instant::now();
                    let keep_alive = !req.wants_close();
                    let response = route(&req, &inner);
                    let close = !keep_alive
                        || inner.shutdown.load(Ordering::SeqCst)
                        || inner.draining.load(Ordering::SeqCst);
                    let bytes = finalize(response, &inner, close);
                    if faultpoint::fire_global(FaultKind::TornWrite).is_some() {
                        // Chaos: sever the connection mid-response — the
                        // client sees a short read and must treat the
                        // request as failed (and may retry on a fresh
                        // connection).
                        let _ = stream.write_all(&bytes[..bytes.len() / 2]);
                        return;
                    }
                    if stream.write_all(&bytes).is_err() {
                        return;
                    }
                    if close {
                        return;
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    inner.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                    inner.metrics.record_status(err.status().0);
                    let _ = stream.write_all(&http::error_response(&err));
                    return;
                }
            }
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if inner.draining.load(Ordering::SeqCst) && buf.is_empty() {
            return; // drain closes idle keep-alive connections
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if last_activity.elapsed() >= inner.idle_timeout {
                    if !buf.is_empty() {
                        // Mid-request stall: tell the peer before closing.
                        let body = b"{\"error\":\"request timed out\",\"status\":408}";
                        let bytes = http::response_bytes(
                            408,
                            "Request Timeout",
                            "application/json",
                            body,
                            false,
                        );
                        inner.metrics.record_status(408);
                        let _ = stream.write_all(&bytes);
                    }
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// A routed response before status accounting.
struct Routed {
    status: u16,
    reason: &'static str,
    body: String,
    /// `Retry-After` seconds for shed (503) responses.
    retry_after: Option<u32>,
}

impl Routed {
    fn ok(body: String) -> Self {
        Self {
            status: 200,
            reason: "OK",
            body,
            retry_after: None,
        }
    }

    fn error(status: u16, reason: &'static str, detail: &str) -> Self {
        Self {
            status,
            reason,
            body: format!("{{\"error\":{},\"status\":{status}}}", json::quote(detail)),
            retry_after: None,
        }
    }

    /// Map a batcher refusal/failure: sheds render as `503` with a
    /// `Retry-After` hint, scoring panics as `500`.
    fn from_job_error(err: &JobError) -> Self {
        let status = err.status();
        let reason = if status == 503 {
            "Service Unavailable"
        } else {
            "Internal Server Error"
        };
        Self {
            retry_after: err.retry_after_secs(),
            ..Self::error(status, reason, &err.to_string())
        }
    }
}

fn finalize(routed: Routed, inner: &Inner, close: bool) -> Vec<u8> {
    inner.metrics.record_status(routed.status);
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(secs) = routed.retry_after {
        extra.push(("retry-after", secs.to_string()));
    }
    http::response_bytes_with(
        routed.status,
        routed.reason,
        "application/json",
        routed.body.as_bytes(),
        !close,
        &extra,
    )
}

fn route(req: &Request, inner: &Inner) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Routed::ok("{\"status\":\"ok\"}".into()),
        ("GET", "/metrics") => {
            let stats: Vec<(&str, Option<CacheStats>)> = inner
                .planes
                .iter()
                .map(|p| (p.endpoint().name(), p.cache_stats()))
                .collect();
            inner.metrics.emit_telemetry();
            Routed::ok(inner.metrics.render_json(&stats))
        }
        ("POST", "/admin/swap") => handle_swap(req, inner),
        (method, path) => match Endpoint::ALL.iter().find(|e| e.path() == path) {
            Some(&endpoint) if method == "POST" => handle_score(req, inner, endpoint),
            Some(_) => Routed::error(405, "Method Not Allowed", "scoring endpoints take POST"),
            None if path == "/healthz" || path == "/metrics" => {
                Routed::error(405, "Method Not Allowed", "use GET")
            }
            None => Routed::error(404, "Not Found", "unknown route"),
        },
    }
}

fn handle_score(req: &Request, inner: &Inner, endpoint: Endpoint) -> Routed {
    let start = Instant::now();
    let idx = endpoint_index(endpoint);
    inner.metrics.endpoints[idx]
        .requests
        .fetch_add(1, Ordering::Relaxed);
    let inputs = match parse_inputs(&req.body) {
        Ok(inputs) => inputs,
        Err(detail) => return Routed::error(400, "Bad Request", &detail),
    };
    inner.metrics.endpoints[idx]
        .inputs
        .fetch_add(inputs.len() as u64, Ordering::Relaxed);
    let rx = match inner.batcher.submit(endpoint, inputs) {
        Ok(rx) => rx,
        Err(err) => return Routed::from_job_error(&err),
    };
    let reply = match rx.recv() {
        Ok(reply) => reply,
        // Sender dropped without a reply: the worker died holding this job
        // (the watchdog respawns it, but this request is lost).
        Err(_) => return Routed::error(500, "Internal Server Error", "batcher unavailable"),
    };
    let result = match reply {
        Ok(result) => result,
        Err(err) => return Routed::from_job_error(&err),
    };
    let plane = &inner.planes[idx];
    let mut body = String::with_capacity(64 + result.scores.len() * 32);
    body.push_str("{\"model\":");
    json::push_quoted(&mut body, plane.model_name());
    body.push_str(",\"scores\":");
    body.push_str(&json::render_scores(&result.scores));
    body.push_str(&format!(
        ",\"generation\":{},\"param_generation\":{}}}",
        result.generation, result.param_generation
    ));
    inner.metrics.endpoints[idx]
        .latency
        .record_us(start.elapsed().as_micros() as u64);
    Routed::ok(body)
}

fn handle_swap(req: &Request, inner: &Inner) -> Routed {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Routed::error(400, "Bad Request", "body is not UTF-8"),
    };
    let doc = match json::parse(body) {
        Ok(doc) => doc,
        Err(e) => return Routed::error(400, "Bad Request", &format!("bad JSON: {e}")),
    };
    let endpoint = match doc.get("endpoint").and_then(Json::as_str) {
        Some(name) => match Endpoint::from_name(name) {
            Some(e) => e,
            None => return Routed::error(404, "Not Found", &format!("unknown endpoint: {name:?}")),
        },
        None => return Routed::error(400, "Bad Request", "missing \"endpoint\""),
    };
    let checkpoint = match doc.get("checkpoint").and_then(Json::as_str) {
        Some(p) => p,
        None => return Routed::error(400, "Bad Request", "missing \"checkpoint\""),
    };
    let plane = &inner.planes[endpoint_index(endpoint)];
    match plane.swap(checkpoint) {
        Ok(info) => {
            inner.metrics.swaps.fetch_add(1, Ordering::Relaxed);
            Routed::ok(format!(
                "{{\"endpoint\":{},\"generation\":{},\"param_generation\":{}}}",
                json::quote(endpoint.name()),
                info.generation,
                info.param_generation
            ))
        }
        Err(e) => Routed::error(
            422,
            "Unprocessable Entity",
            &format!("checkpoint rejected: {e}"),
        ),
    }
}

/// Parse a scoring request body: `{"inputs": [...]}` where each element is
/// a string (tokenized server-side) or an array of token strings (used
/// verbatim — what the equivalence tests send to sidestep tokenizer
/// drift).
fn parse_inputs(body: &[u8]) -> Result<Vec<Vec<String>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let arr = doc
        .get("inputs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing \"inputs\" array".to_string())?;
    if arr.is_empty() {
        return Err("\"inputs\" must be non-empty".into());
    }
    if arr.len() > MAX_INPUTS_PER_REQUEST {
        return Err(format!(
            "too many inputs: {} > {MAX_INPUTS_PER_REQUEST}",
            arr.len()
        ));
    }
    arr.iter()
        .enumerate()
        .map(|(i, item)| match item {
            Json::Str(s) => Ok(rotom_text::tokenize(s)),
            Json::Arr(tokens) => tokens
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("inputs[{i}]: tokens must be strings"))
                })
                .collect(),
            _ => Err(format!("inputs[{i}]: expected string or token array")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_config_defaults_are_pinned() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.window, Duration::from_millis(2));
        assert_eq!(cfg.max_batch, 32);
        assert_eq!(cfg.score_threads, 1);
        assert_eq!(cfg.score_cache, 0);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.idle_timeout, Duration::from_secs(30));
        assert_eq!(cfg.max_queue, 1024);
        assert_eq!(cfg.deadline, Duration::from_secs(10));
        assert_eq!(cfg.max_conns, 256);
        assert_eq!(cfg.wedge_timeout, Duration::from_secs(2));
        assert_eq!(cfg.watchdog_tick, Duration::from_millis(20));
    }

    #[test]
    fn parse_inputs_accepts_strings_and_token_arrays() {
        let got = parse_inputs(br#"{"inputs": ["Hello world", ["pre", "tokenized"]]}"#).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], rotom_text::tokenize("Hello world"));
        assert_eq!(got[1], vec!["pre".to_string(), "tokenized".to_string()]);
    }

    #[test]
    fn accept_backoff_grows_exponentially_and_caps() {
        assert_eq!(accept_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_backoff(5), Duration::from_millis(16));
        for n in 1..100 {
            assert!(
                accept_backoff(n + 1) >= accept_backoff(n),
                "backoff must be monotone at n={n}"
            );
            assert!(
                accept_backoff(n) <= Duration::from_millis(500),
                "backoff must stay capped at n={n}"
            );
        }
        assert_eq!(accept_backoff(100), Duration::from_millis(500));
    }

    #[test]
    fn job_errors_render_as_503_with_retry_after_except_panics() {
        let shed = Routed::from_job_error(&JobError::QueueFull {
            retry_after_secs: 3,
        });
        assert_eq!(shed.status, 503);
        assert_eq!(shed.retry_after, Some(3));
        assert!(shed.body.contains("queue full"));
        let drain = Routed::from_job_error(&JobError::Draining);
        assert_eq!(drain.status, 503);
        assert_eq!(drain.retry_after, Some(1));
        let panic = Routed::from_job_error(&JobError::ScorePanic);
        assert_eq!(panic.status, 500);
        assert_eq!(panic.retry_after, None);
    }

    #[test]
    fn parse_inputs_rejects_bad_shapes() {
        assert!(parse_inputs(b"not json").is_err());
        assert!(parse_inputs(br#"{"inputs": []}"#).is_err());
        assert!(parse_inputs(br#"{"inputs": [42]}"#).is_err());
        assert!(parse_inputs(br#"{"inputs": [[1, 2]]}"#).is_err());
        assert!(parse_inputs(br#"{"other": ["x"]}"#).is_err());
        let huge = format!(
            "{{\"inputs\": [{}]}}",
            vec!["\"x\""; MAX_INPUTS_PER_REQUEST + 1].join(",")
        );
        assert!(parse_inputs(huge.as_bytes()).is_err());
    }
}
