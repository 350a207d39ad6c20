//! `em_match_serve`: open-loop Poisson `POST /match` against an in-process
//! server with `rotom-serve`'s binary defaults (2 ms window, batches of at
//! most 32, one scoring thread per core, a 4096-entry score cache per
//! plane). The match plane is a demo model with the training workloads'
//! shape.
//!
//! Load comes from at most two generator threads (never more than there are
//! cores), each owning one pipelined keep-alive connection. A thread sends
//! each request when it falls due, whether or not earlier ones were
//! answered, so a stall shows up as queueing; latency is timed from the due
//! time. Bodies hold 1 to 16 serialized Abt-Buy pairs, 20% of them repeats
//! of one of the connection's last 1000 inputs, the rest fresh (drawn from a
//! pool larger than the score cache, so a fresh input misses it).
//!
//! Three fixed-rate phases (`low`, `mid`, `high`, at about 25/50/80% of the
//! capacity measured with two connections) are followed by a ladder of at
//! most four rates, each 1.15 times the last, above `mid`; `slo_rps` is the
//! highest rate that keeps the tail at or under [`LIMIT_MS`], fails nothing
//! and leaves no growing backlog.

use crate::{metric, nproc, stats, time_setups, trace, train, Metric, Outcome, Run, ROOT, SETUPS};
use rotom_datasets::{em, EmConfig, EmFlavor};
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngExt, SeedableRng};
use rotom_serve::batcher::endpoint_index;
use rotom_serve::http::{parse_request, response_bytes};
use rotom_serve::json;
use rotom_serve::{demo_model, demo_model_config, Endpoint, Server, ServerConfig, TaskPlane};
use std::collections::{HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator connections (and threads), capped at the core count.
const CONNS: usize = 2;
/// Fixed phases: name, rate in requests/s, share of `--seconds`.
/// Rates are about 25/50/80% of the ~400 requests/s two connections
/// sustained on the 2-core machine the benchmark was calibrated on.
const PHASES: [(&str, f64, f64); 3] = [
    ("low", 100.0, 0.4),
    ("mid", 200.0, 0.4),
    ("high", 320.0, 0.2),
];
/// Ladder above `mid`: factor per step, steps, share of `--seconds` each.
const LADDER: (f64, usize, f64) = (1.15, 4, 0.2);
/// Tail latency limit of the ladder: about 1.5 times the tail measured at
/// `mid` during calibration (15-20 ms; each connection serves its requests
/// one at a time, each waiting out the 2 ms window), not a user requirement.
pub const LIMIT_MS: f64 = 25.0;
/// A generator running later than this at its tail made the phase invalid.
const MAX_LAG_MS: f64 = 1.0;
/// Requests still unanswered this long after a phase's last send fail.
const GRACE: Duration = Duration::from_secs(2);
const WINDOW: Duration = Duration::from_millis(2);
const MAX_BATCH: usize = 32;
const SCORE_CACHE: usize = 4096;
/// Distinct pairs fresh inputs cycle through; above the score-cache size.
const POOL_PAIRS: usize = 8192;
const MAX_INPUTS: usize = 16;
const REPEAT_SHARE: f64 = 0.2;
const REPEAT_WINDOW: usize = 1000;
/// Every this-many-th response per connection is checked bit for bit.
const CHECK_EVERY: usize = 50;
/// Requests per connection that warm the server up during set-up.
const WARMUP: usize = 8;
/// Timed repetitions of each wire-format replay.
const REPLAYS: usize = 20;

/// Per-layer metrics of the traced serving runs.
pub const LAYER: &[(&str, &str)] = &[
    ("serve.batch_fill.low", "count"),
    ("serve.batch_fill.mid", "count"),
    ("serve.batch_fill.high", "count"),
    ("serve.queue_wait_ms.low", "ms"),
    ("serve.queue_wait_ms.mid", "ms"),
    ("serve.queue_wait_ms.high", "ms"),
    ("serve.service_ms.low", "ms"),
    ("serve.service_ms.mid", "ms"),
    ("serve.service_ms.high", "ms"),
    ("serve.transport_ms.low", "ms"),
    ("serve.transport_ms.mid", "ms"),
    ("serve.transport_ms.high", "ms"),
    ("serve.shed", "count"),
    ("serve.status_5xx", "count"),
    ("infer.cache_hit_ratio", "ratio"),
    ("http.parse_us", "us"),
    ("json.decode_us", "us"),
    ("json.encode_us", "us"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.outstanding_end", "count"),
];

/// Distinct serialized Abt-Buy pairs, each pre-rendered as a JSON token
/// array (token arrays are scored verbatim, so the reference plane sees the
/// exact inputs the server does).
fn pair_pool(seed: u64) -> Vec<String> {
    let data = em::generate(
        EmFlavor::AbtBuy,
        &EmConfig {
            num_entities: POOL_PAIRS / 4,
            train_pairs: POOL_PAIRS,
            test_pairs: 1,
            seed: seed ^ 0x5e27e,
            ..EmConfig::default()
        },
    )
    .to_task();
    let mut seen = HashSet::new();
    let pool: Vec<String> = data
        .train_pool
        .iter()
        .map(|e| {
            let toks: Vec<String> = e.tokens.iter().map(|t| json::quote(t)).collect();
            format!("[{}]", toks.join(","))
        })
        .filter(|s| seen.insert(s.clone()))
        .collect();
    assert!(
        pool.len() > SCORE_CACHE + REPEAT_WINDOW,
        "only {} distinct pairs; fresh inputs would hit the score cache",
        pool.len()
    );
    pool
}

fn tokens_of(fragment: &str) -> Vec<String> {
    json::parse(fragment)
        .ok()
        .and_then(|j| {
            j.as_arr()?
                .iter()
                .map(|t| t.as_str().map(str::to_string))
                .collect()
        })
        .expect("pool fragments are JSON token arrays")
}

/// The token sequences a request carries.
fn inputs_of(pool: &[String], ids: &[u32]) -> Vec<Vec<String>> {
    ids.iter().map(|&i| tokens_of(&pool[i as usize])).collect()
}

/// One scheduled request: due time (seconds from phase start), its inputs
/// as pool ids, and the bytes on the wire.
#[derive(Debug, Clone, PartialEq)]
struct Request {
    due: f64,
    ids: Vec<u32>,
    bytes: Vec<u8>,
}

fn request_bytes(pool: &[String], ids: &[u32]) -> Vec<u8> {
    let items: Vec<&str> = ids.iter().map(|&i| pool[i as usize].as_str()).collect();
    let body = format!("{{\"inputs\":[{}]}}", items.join(","));
    format!(
        "POST /match HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One connection's deterministic request stream.
struct Feed {
    rng: StdRng,
    history: VecDeque<u32>,
    next_fresh: usize,
    stride: usize,
}

impl Feed {
    fn new(seed: u64, conn: usize, conns: usize, first_fresh: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(split_seed(seed, conn as u64)),
            history: VecDeque::with_capacity(REPEAT_WINDOW + 1),
            next_fresh: first_fresh + conn,
            stride: conns,
        }
    }

    fn next_inputs(&mut self, pool_len: usize) -> Vec<u32> {
        let k = self.rng.random_range(1..=MAX_INPUTS);
        (0..k)
            .map(|_| {
                let id = if !self.history.is_empty() && self.rng.random_bool(REPEAT_SHARE) {
                    self.history[self.rng.random_range(0..self.history.len())]
                } else {
                    let id = (self.next_fresh % pool_len) as u32;
                    self.next_fresh += self.stride;
                    id
                };
                self.history.push_back(id);
                if self.history.len() > REPEAT_WINDOW {
                    self.history.pop_front();
                }
                id
            })
            .collect()
    }

    /// Poisson arrivals at `rate` per second over `secs` seconds.
    fn schedule(&mut self, pool: &[String], rate: f64, secs: f64) -> Vec<Request> {
        let mut out = Vec::new();
        let mut due = 0.0;
        loop {
            due += -(1.0 - self.rng.random_f64()).ln() / rate;
            if due >= secs {
                return out;
            }
            let ids = self.next_inputs(pool.len());
            out.push(Request {
                due,
                bytes: request_bytes(pool, &ids),
                ids,
            });
        }
    }

    /// `n` requests all due at once (set-up warm-up).
    fn burst(&mut self, pool: &[String], n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let ids = self.next_inputs(pool.len());
                Request {
                    due: 0.0,
                    bytes: request_bytes(pool, &ids),
                    ids,
                }
            })
            .collect()
    }
}

/// What happened to one request (seconds from phase start).
#[derive(Debug, Clone, Default)]
struct Record {
    sent: f64,
    done: Option<f64>,
    status: u16,
    /// Response body, kept for every [`CHECK_EVERY`]-th request.
    body: Option<String>,
}

/// Parse one response off the front of `buf`: status, body, bytes used.
fn parse_response(buf: &[u8]) -> Option<(u16, &str, usize)> {
    let head = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = std::str::from_utf8(&buf[..head]).ok()?;
    let mut lines = text.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    let body = std::str::from_utf8(buf.get(head..head + len)?).ok()?;
    Some((status, body, head + len))
}

/// Block until `stream` is readable (or writable, when `write` is set) or
/// `timeout` passes, at timer precision rather than a polling tick.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_io(stream: &TcpStream, write: bool, timeout: Duration) {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(3600) as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live locals laid out as the C `pollfd` and
    // `timespec` of 64-bit Linux; one descriptor is passed and a null
    // signal mask means the mask is left alone. A failed or interrupted call
    // only returns early, which the caller's loop tolerates.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_io(_stream: &TcpStream, _write: bool, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(100)));
}

/// Send `reqs` on `stream` as they fall due and read responses as they
/// arrive, both without blocking; wait in between with [`wait_io`].
fn drive(stream: &mut TcpStream, reqs: &[Request], t0: Instant) -> Vec<Record> {
    let now = || t0.elapsed().as_secs_f64();
    let mut recs = vec![Record::default(); reqs.len()];
    let give_up = reqs.last().map_or(0.0, |r| r.due) + GRACE.as_secs_f64();
    let (mut next, mut inflight) = (0usize, VecDeque::new());
    let (mut out, mut out_at) = (Vec::<u8>::new(), 0usize);
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut closed = false;
    loop {
        let t = now();
        while next < reqs.len() && reqs[next].due <= t {
            out.extend_from_slice(&reqs[next].bytes);
            recs[next].sent = t;
            inflight.push_back(next);
            next += 1;
        }
        while out_at < out.len() && !closed {
            match stream.write(&out[out_at..]) {
                Ok(0) => closed = true,
                Ok(k) => out_at += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => closed = true,
            }
        }
        if out_at == out.len() {
            out.clear();
            out_at = 0;
        }
        while !closed {
            match stream.read(&mut chunk) {
                Ok(0) => closed = true,
                Ok(k) => inbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => closed = true,
            }
        }
        let mut used = 0;
        while let Some((status, body, n)) = parse_response(&inbuf[used..]) {
            let Some(i) = inflight.pop_front() else {
                closed = true; // a response nobody asked for
                break;
            };
            recs[i].done = Some(now());
            recs[i].status = status;
            if i % CHECK_EVERY == 0 {
                recs[i].body = Some(body.to_string());
            }
            used += n;
        }
        inbuf.drain(..used);
        let t = now();
        let sent_all = next == reqs.len();
        if closed || (sent_all && inflight.is_empty()) || (sent_all && t > give_up) {
            return recs;
        }
        let wake = if sent_all { give_up } else { reqs[next].due };
        wait_io(
            stream,
            out_at < out.len(),
            Duration::from_secs_f64((wake - t).max(0.0)),
        );
    }
}

/// Server counters at one instant (the `/match` plane only takes traffic).
#[derive(Debug, Clone, Copy, Default)]
struct Snap {
    batches: u64,
    jobs: u64,
    queue_us: u64,
    shed: u64,
    status_5xx: u64,
    handled: u64,
    handle_us: u64,
    hits: u64,
    misses: u64,
}

fn snap(server: &Server) -> Snap {
    let m = server.metrics();
    let idx = endpoint_index(Endpoint::Match);
    let lat = &m.endpoints[idx].latency;
    let (hits, misses) = server.planes()[idx]
        .cache_stats()
        .map_or((0, 0), |(h, mi, _, _)| (h, mi));
    Snap {
        batches: m.batches.load(Relaxed),
        jobs: m.batched_jobs.load(Relaxed),
        queue_us: m.queue_wait_us.load(Relaxed),
        shed: m.shed_total.load(Relaxed),
        status_5xx: m.status_5xx.load(Relaxed),
        handled: lat.count(),
        handle_us: lat.mean_us() * lat.count(),
        hits,
        misses,
    }
}

/// One phase at one rate.
struct Phase {
    name: String,
    rate: f64,
    /// Requests sent, with what happened to each.
    sent: Vec<(Request, Record)>,
    before: Snap,
    after: Snap,
}

impl Phase {
    /// Latencies of answered 200s from their due times, ascending (s).
    fn latencies(&self) -> Vec<f64> {
        let lat: Vec<f64> = self
            .sent
            .iter()
            .filter(|(_, r)| r.status == 200)
            .filter_map(|(q, r)| r.done.map(|d| d - q.due))
            .collect();
        stats::sorted(&lat)
    }

    fn failed(&self) -> u64 {
        self.sent
            .iter()
            .filter(|(_, r)| r.status != 200 || r.done.is_none())
            .count() as u64
    }

    fn lag_p99_ms(&self) -> f64 {
        let lag: Vec<f64> = self.sent.iter().map(|(q, r)| r.sent - q.due).collect();
        if lag.is_empty() {
            0.0
        } else {
            stats::quantile(&stats::sorted(&lag), 0.99) * 1e3
        }
    }

    /// Requests in flight when the last one was sent.
    fn outstanding_end(&self) -> u64 {
        let last = self.sent.iter().map(|(_, r)| r.sent).fold(0.0, f64::max);
        self.sent
            .iter()
            .filter(|(_, r)| r.done.is_none_or(|d| d > last))
            .count() as u64
    }

    /// Tail latency (ms) by the ten-beyond rule, or the maximum.
    fn tail_ms(&self) -> (f64, f64) {
        let lat = self.latencies();
        match stats::tail(&lat) {
            Some((q, v)) => (q, v * 1e3),
            None => (1.0, lat.last().copied().unwrap_or(f64::INFINITY) * 1e3),
        }
    }

    /// Meets the latency limit, fails nothing, and leaves no more requests
    /// in flight than the rate times the limit.
    fn holds_slo(&self) -> bool {
        self.tail_ms().1 <= LIMIT_MS
            && self.failed() == 0
            && self.outstanding_end() as f64 <= (self.rate * LIMIT_MS / 1e3).max(1.0)
    }
}

/// A booted server with warm generator connections. Dropping it closes the
/// connections, then shuts the server down (fields drop in order).
struct Live {
    streams: Vec<TcpStream>,
    server: Server,
}

impl Live {
    fn start(seed: u64, conns: usize, pool: &[String]) -> Self {
        let model_cfg = train::train_config().model;
        let planes = Endpoint::ALL.map(|e| {
            let cfg = if e == Endpoint::Match {
                model_cfg.clone()
            } else {
                demo_model_config()
            };
            let (model, name) = demo_model(e.task_kind(), &cfg, seed);
            let plane = TaskPlane::new(e, name, model);
            // `start_with_planes` does not apply `ServerConfig::score_cache`.
            plane.set_score_cache(SCORE_CACHE);
            plane
        });
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            window: WINDOW,
            max_batch: MAX_BATCH,
            score_threads: nproc(),
            score_cache: SCORE_CACHE,
            seed,
            ..ServerConfig::default()
        };
        let server = Server::start_with_planes(cfg, Arc::new(planes)).expect("server binds");
        let mut streams: Vec<TcpStream> = (0..conns)
            .map(|_| {
                let s = TcpStream::connect(server.local_addr()).expect("connect");
                s.set_nodelay(true).expect("nodelay");
                s.set_nonblocking(true).expect("nonblocking");
                s
            })
            .collect();
        // The warm-up feed draws fresh pairs from the far half of the pool.
        let t0 = Instant::now();
        for (c, s) in streams.iter_mut().enumerate() {
            let reqs = Feed::new(seed ^ 0x3a7e, c, conns, pool.len() / 2).burst(pool, WARMUP);
            let recs = drive(s, &reqs, t0);
            assert!(
                recs.iter().all(|r| r.status == 200),
                "warm-up request failed"
            );
        }
        Live { streams, server }
    }

    fn phase(
        &mut self,
        feeds: &mut [Feed],
        pool: &[String],
        name: &str,
        rate: f64,
        secs: f64,
    ) -> Phase {
        let per_conn = rate / feeds.len() as f64;
        let reqs: Vec<Vec<Request>> = feeds
            .iter_mut()
            .map(|f| f.schedule(pool, per_conn, secs))
            .collect();
        let before = snap(&self.server);
        let t0 = Instant::now();
        let recs: Vec<Vec<Record>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter_mut()
                .zip(&reqs)
                .map(|(s, r)| scope.spawn(move || drive(s, r, t0)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let after = snap(&self.server);
        let sent = reqs
            .into_iter()
            .flatten()
            .zip(recs.into_iter().flatten())
            .collect();
        Phase {
            name: name.to_string(),
            rate,
            sent,
            before,
            after,
        }
    }
}

/// The fixed phases, then the ladder up to its first step that misses.
fn run_phases(live: &mut Live, seed: u64, pool: &[String], seconds: f64) -> Vec<Phase> {
    let conns = live.streams.len();
    let mut feeds: Vec<Feed> = (0..conns).map(|c| Feed::new(seed, c, conns, 0)).collect();
    let mut phases = Vec::new();
    for (name, rate, share) in PHASES {
        let p = trace::span("phase", || {
            live.phase(&mut feeds, pool, name, rate, seconds * share)
        });
        phases.push(p);
    }
    let (factor, steps, share) = LADDER;
    let mut rate = PHASES[1].1;
    let climb = if phases[1].holds_slo() { steps } else { 0 };
    for step in 1..=climb {
        rate *= factor;
        let name = format!("ladder{step}");
        let p = trace::span("phase", || {
            live.phase(&mut feeds, pool, &name, rate, seconds * share)
        });
        let holds = p.holds_slo();
        phases.push(p);
        if !holds {
            break;
        }
    }
    phases
}

/// Every kept response body must carry scores bit-identical to a direct
/// `TaskPlane::score` of the same inputs on an identical plane.
fn check_scores(reference: &TaskPlane, pool: &[String], phases: &[Phase], out: &mut Outcome) {
    let workers = RotomPool::new(1);
    for p in phases {
        for (q, r) in &p.sent {
            let Some(body) = &r.body else { continue };
            let want = reference.score(&inputs_of(pool, &q.ids), &workers).scores;
            let got = json::parse(body)
                .ok()
                .and_then(|doc| json::parse_scores(doc.get("scores")?).ok());
            let same = got.as_ref().is_some_and(|g| {
                g.len() == want.len()
                    && g.iter().zip(&want).all(|(a, b)| {
                        a.len() == b.len()
                            && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                    })
            });
            out.check(same, || {
                format!(
                    "phase {}: /match scores differ from TaskPlane::score",
                    p.name
                )
            });
        }
    }
}

fn phase_metrics(phases: &[Phase]) -> Vec<Metric> {
    let mut m = Vec::new();
    for p in &phases[..PHASES.len()] {
        let lat = p.latencies();
        let (q, tail) = p.tail_ms();
        let p50 = if lat.is_empty() {
            f64::INFINITY
        } else {
            stats::median(&lat) * 1e3
        };
        m.push(metric(&format!("p50_ms.{}", p.name), "ms", p50));
        m.push(metric(&format!("tail_ms.{}", p.name), "ms", tail));
        m.push(metric(&format!("tail_pct.{}", p.name), "%", q * 100.0));
        m.push(metric(
            &format!("responses.{}", p.name),
            "count",
            lat.len() as f64,
        ));
    }
    // The ladder climbs from `mid`; `high` is not on it.
    let slo = std::iter::once(&phases[1])
        .chain(&phases[PHASES.len()..])
        .take_while(|p| p.holds_slo())
        .last()
        .map_or(0.0, |p| p.rate);
    m.push(metric("slo_rps", "1/s", slo));
    m
}

fn layer_metrics(phases: &[Phase], replay: [f64; 3]) -> Vec<Metric> {
    let per_phase =
        |f: &dyn Fn(&Phase) -> f64| -> Vec<f64> { phases[..PHASES.len()].iter().map(f).collect() };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let fill = per_phase(&|p| {
        ratio(
            p.after.jobs - p.before.jobs,
            p.after.batches - p.before.batches,
        )
    });
    let queue = per_phase(&|p| {
        ratio(
            p.after.queue_us - p.before.queue_us,
            p.after.jobs - p.before.jobs,
        ) / 1e3
    });
    let handle = per_phase(&|p| {
        ratio(
            p.after.handle_us.saturating_sub(p.before.handle_us),
            p.after.handled - p.before.handled,
        ) / 1e3
    });
    let client = per_phase(&|p| {
        let d: Vec<f64> = p
            .sent
            .iter()
            .filter_map(|(_, r)| r.done.map(|d| d - r.sent))
            .collect();
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64 * 1e3
        }
    });
    let (first, last) = (phases[0].before, phases[phases.len() - 1].after);
    let mut values = Vec::new();
    values.extend(fill);
    values.extend(queue.iter().copied());
    values.extend(handle.iter().zip(&queue).map(|(h, q)| h - q));
    values.extend(client.iter().zip(&handle).map(|(c, h)| c - h));
    values.push((last.shed - first.shed) as f64);
    values.push((last.status_5xx - first.status_5xx) as f64);
    values.push(ratio(
        last.hits - first.hits,
        last.hits + last.misses - first.hits - first.misses,
    ));
    values.extend(replay);
    values.push(phases.iter().map(Phase::lag_p99_ms).fold(0.0, f64::max));
    values.push(
        phases
            .iter()
            .map(|p| p.outstanding_end() as f64)
            .fold(0.0, f64::max),
    );
    LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, unit, v))
        .collect()
}

/// Time the wire-format layers on recorded traffic: request parsing, body
/// decoding, and score encoding into a response (µs per call).
fn replay(phase: &Phase, reference: &TaskPlane, pool: &[String]) -> [f64; 3] {
    let workers = RotomPool::new(1);
    let reqs: Vec<&Request> = phase.sent.iter().map(|(q, _)| q).collect();
    let scores: Vec<Vec<Vec<f32>>> = reqs
        .iter()
        .step_by(CHECK_EVERY)
        .map(|q| reference.score(&inputs_of(pool, &q.ids), &workers).scores)
        .collect();
    let time = |name: &'static str, calls: usize, f: &mut dyn FnMut()| {
        let t = Instant::now();
        trace::span(name, || {
            for _ in 0..REPLAYS {
                f();
            }
        });
        t.elapsed().as_secs_f64() * 1e6 / (REPLAYS * calls.max(1)) as f64
    };
    let parse = time("replay.http_parse", reqs.len(), &mut || {
        for q in &reqs {
            std::hint::black_box(parse_request(std::hint::black_box(&q.bytes)).ok());
        }
    });
    let decode = time("replay.json_decode", reqs.len(), &mut || {
        for q in &reqs {
            let text = std::str::from_utf8(&q.bytes).unwrap_or("");
            let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
            std::hint::black_box(json::parse(std::hint::black_box(body)).ok());
        }
    });
    let encode = time("replay.json_encode", scores.len(), &mut || {
        for s in &scores {
            let body = json::render_scores(std::hint::black_box(s));
            std::hint::black_box(response_bytes(
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                true,
            ));
        }
    });
    [parse, decode, encode]
}

fn reference_plane(seed: u64) -> TaskPlane {
    let (model, name) = demo_model(
        Endpoint::Match.task_kind(),
        &train::train_config().model,
        seed,
    );
    TaskPlane::new(Endpoint::Match, name, model)
}

fn account(phases: &[Phase], out: &mut Outcome) {
    for p in phases {
        out.attempted += p.sent.len() as u64;
        out.failed += p.failed();
        let lag = p.lag_p99_ms();
        if lag > MAX_LAG_MS {
            eprintln!(
                "em_match_serve: phase {} invalid: generator lag p99 {lag:.3} ms > {MAX_LAG_MS} ms \
                 (latency is still timed from due times)",
                p.name
            );
        }
    }
}

pub fn run(r: &Run) -> Outcome {
    let mut out = Outcome::default();
    let pool = pair_pool(r.seed);
    let conns = CONNS.min(nproc());
    let (setup_s, mut live) = time_setups(SETUPS, || Live::start(r.seed, conns, &pool));
    let t = Instant::now();
    let phases = run_phases(&mut live, r.seed, &pool, r.seconds);
    let wall = t.elapsed().as_secs_f64();
    drop(live);

    let reference = reference_plane(r.seed);
    account(&phases, &mut out);
    check_scores(&reference, &pool, &phases, &mut out);
    // The end-to-end latency is the median at `low`: queueing at higher
    // rates magnifies machine noise several-fold (see `tail_ms.*`).
    out.end_to_end(&setup_s, &phases[0].latencies());
    out.detail = phase_metrics(&phases);

    if r.trace {
        let mut live = Live::start(r.seed, conns, &pool);
        trace::enable();
        trace::set_rep(1);
        let t = Instant::now();
        let traced = trace::span(ROOT, || run_phases(&mut live, r.seed, &pool, r.seconds));
        let traced_wall = t.elapsed().as_secs_f64();
        drop(live);
        account(&traced, &mut out);
        check_scores(&reference, &pool, &traced, &mut out);
        let replayed = replay(&traced[1], &reference, &pool);
        out.spans = trace::finish();
        out.layer = layer_metrics(&traced, replayed);
        out.layer
            .push(metric("trace.overhead", "ratio", traced_wall / wall));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_serve::json::Json;

    fn pool() -> Vec<String> {
        (0..64)
            .map(|i| format!("[\"t{i}\",\"[SEP]\",\"u{i}\"]"))
            .collect()
    }

    #[test]
    fn schedules_are_deterministic_per_seed_and_connection() {
        let pool = pool();
        let a = Feed::new(5, 0, 2, 0).schedule(&pool, 200.0, 2.0);
        let b = Feed::new(5, 0, 2, 0).schedule(&pool, 200.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, Feed::new(5, 1, 2, 0).schedule(&pool, 200.0, 2.0));
        assert_ne!(a, Feed::new(6, 0, 2, 0).schedule(&pool, 200.0, 2.0));
        // Poisson at 200/s over 2 s: about 400 arrivals, due times ascending
        // inside the phase, 1..=16 inputs each.
        assert!((300..500).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due < w[1].due));
        assert!(a
            .iter()
            .all(|q| q.due < 2.0 && (1..=MAX_INPUTS).contains(&q.ids.len())));
    }

    #[test]
    fn inputs_repeat_from_recent_history_at_the_set_share() {
        let mut feed = Feed::new(1, 0, 2, 0);
        let mut seen = HashSet::new();
        let (mut repeats, mut total) = (0usize, 0usize);
        for _ in 0..2000 {
            for id in feed.next_inputs(1 << 20) {
                total += 1;
                if !seen.insert(id) {
                    repeats += 1;
                }
            }
        }
        // Fresh ids never repeat in a large pool, and each connection takes
        // every other fresh id.
        let share = repeats as f64 / total as f64;
        assert!((0.18..0.22).contains(&share), "repeat share {share}");
        assert!(seen.iter().all(|id| id % 2 == 0));
    }

    #[test]
    fn responses_parse_off_a_pipelined_stream() {
        let mut buf = response_bytes(200, "OK", "application/json", b"{\"a\":1}", true);
        buf.extend(response_bytes(
            503,
            "Service Unavailable",
            "application/json",
            b"{}",
            true,
        ));
        let (status, body, used) = parse_response(&buf).unwrap();
        assert_eq!((status, body), (200, "{\"a\":1}"));
        let (status, body, rest) = parse_response(&buf[used..]).unwrap();
        assert_eq!((status, body, used + rest), (503, "{}", buf.len()));
        assert_eq!(parse_response(&buf[..used - 1]), None);
    }

    #[test]
    fn request_bytes_parse_as_the_server_would() {
        let pool = pool();
        let bytes = request_bytes(&pool, &[3, 7]);
        let (req, used) = parse_request(&bytes).unwrap().unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str(), used),
            ("POST", "/match", bytes.len())
        );
        let doc = json::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
        let inputs = doc.get("inputs").and_then(Json::as_arr).unwrap();
        assert_eq!(inputs.len(), 2);
        assert_eq!(tokens_of(&pool[7]), ["t7", "[SEP]", "u7"]);
    }
}
