//! Serving benchmark: end-to-end request latency (p50/p99) and sustained
//! requests/sec through `rotom-serve` — real sockets, real HTTP, the
//! windowed batcher, and the tape-free scoring plane — written to
//! `BENCH_serve.json`.
//!
//! The server runs **in-process** on an ephemeral port at scoring-pool
//! widths 1 and 8 (the pool width is a per-batcher setting, so no child
//! re-exec is needed). Four client threads issue keep-alive
//! `POST /classify` requests as fast as the server answers them; per-request
//! wall times give exact p50/p99 (sorted samples, not histogram buckets).
//! Extra section: `overload` drives 8 clients at a capacity-starved server.
//!
//! Gates (`--check`): req/sec at least 0.8x the checked-in `current`; p99 at
//! most 3x it; every overload row sheds (`shed > 0`), accepts
//! (`accepted > 0`), and keeps accepted p99 within 4x the deadline budget.
//!
//!   cargo run --release --offline --bin servebench [-- --check]
//!
//! `ROTOM_BENCH_SCALE=quick` shrinks the request count for smoke runs.

use rotom_bench::record::{Args, Bench, Ratio, Ref, Row, Rule, THREAD_COUNTS};
use rotom_bench::Scale;
use rotom_serve::{Client, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: servebench [--check]";
const CLIENTS: usize = 4;

/// A small rotating input set: realistic token lengths, no cache to
/// help, every request does real forward work.
fn short_bodies() -> Vec<String> {
    [
        "a luminous heartfelt film with a stunning lead performance",
        "tedious and shapeless beyond any hope of rescue",
        "the plot works even when the pacing does not",
        "crisp writing elevates familiar material",
    ]
    .iter()
    .map(|t| format!("{{\"inputs\": [{}]}}", rotom_serve::json::quote(t)))
    .collect()
}

/// Heavier bodies for the overload row: 8 inputs of 40 tokens per request,
/// so each round trip is dominated by scoring rather than the batch window
/// + HTTP overhead the short set measures.
fn long_bodies() -> Vec<String> {
    let words = [
        "a", "movie", "of", "rare", "depth", "and", "feeling", "that", "never", "loses",
    ];
    (0..4)
        .map(|i| {
            let inputs: Vec<String> = (0..8)
                .map(|k| {
                    let text: Vec<&str> =
                        (0..40).map(|j| words[(i + k + j) % words.len()]).collect();
                    rotom_serve::json::quote(&text.join(" "))
                })
                .collect();
            format!("{{\"inputs\": [{}]}}", inputs.join(", "))
        })
        .collect()
}

/// Run one measured configuration: boot the server with a `threads`-wide
/// scoring pool over the default demo model and the standard 1ms window,
/// hammer it from `CLIENTS` keep-alive connections, and return throughput
/// + exact latency quantiles. Shuts the server down.
fn run_config(threads: usize, requests_per_client: usize) -> Row {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        window: Duration::from_millis(1),
        max_batch: 32,
        score_threads: threads,
        score_cache: 0, // measure scoring, not memoization
        seed: 7,
        ..ServerConfig::default()
    })
    .expect("servebench: server boots");
    let addr = server.local_addr();
    let bodies: Arc<Vec<String>> = Arc::new(short_bodies());

    // Warmup: one request per client count so connection setup and first
    // forward passes stay out of the measured window.
    {
        let mut c = Client::connect(addr).expect("warmup connect");
        for body in bodies.iter() {
            let resp = c.post("/classify", body).expect("warmup request");
            assert_eq!(resp.status, 200, "warmup failed: {}", resp.body);
        }
    }

    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connect");
                let mut latencies_us = Vec::with_capacity(requests_per_client);
                for i in 0..requests_per_client {
                    let body = &bodies[(ci + i) % bodies.len()];
                    let t = Instant::now();
                    let resp = client.post("/classify", body).expect("request");
                    latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let quantile = |q: f64| -> f64 {
        let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    let total = latencies.len();
    let m = server.metrics();
    let batches = m.batches.load(std::sync::atomic::Ordering::Relaxed);
    let jobs = m.batched_jobs.load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();

    let mean_batch_fill = if batches == 0 {
        0.0
    } else {
        jobs as f64 / batches as f64
    };
    Row::new()
        .num("threads", threads as f64, 0)
        .num("requests_per_sec", total as f64 / elapsed, 2)
        .num("p50_latency_us", quantile(0.5), 1)
        .num("p99_latency_us", quantile(0.99), 1)
        .num("mean_batch_fill", mean_batch_fill, 2)
}

/// How hard the overload row leans on the server: clients vs. a
/// deliberately capacity-starved config (see `run_overload_config`).
const OVERLOAD_CLIENTS: usize = 8;
/// The deadline budget the overload row serves under; the p99 gate for
/// accepted requests is a multiple of this.
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(50);

/// Overload row: offered load far above capacity (8 hammering clients, a
/// queue capped at 4 jobs, a 50ms deadline budget) — the point is not
/// throughput but *degradation shape*. Admission control must shed the
/// excess with `503` + `Retry-After` while the p99 latency of **accepted**
/// requests stays bounded by the deadline budget instead of collapsing
/// into an unbounded queue wait. Every response must be a 200 or a shed —
/// anything else fails the bench.
fn run_overload_config(threads: usize, requests_per_client: usize) -> Row {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        window: Duration::from_millis(1),
        max_batch: 4,
        score_threads: threads,
        score_cache: 0,
        seed: 7,
        max_queue: 4,
        deadline: OVERLOAD_DEADLINE,
        ..ServerConfig::default()
    })
    .expect("servebench: overload server boots");
    let addr = server.local_addr();
    let bodies: Arc<Vec<String>> = Arc::new(long_bodies());

    let start = Instant::now();
    let handles: Vec<_> = (0..OVERLOAD_CLIENTS)
        .map(|ci| {
            let bodies = Arc::clone(&bodies);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("overload connect");
                let mut latencies_us = Vec::with_capacity(requests_per_client);
                let mut shed = 0u64;
                for i in 0..requests_per_client {
                    let body = &bodies[(ci + i) % bodies.len()];
                    let t = Instant::now();
                    let resp = client.post("/classify", body).expect("overload request");
                    match resp.status {
                        200 => latencies_us.push(t.elapsed().as_secs_f64() * 1e6),
                        503 => {
                            assert!(
                                resp.retry_after_secs.is_some(),
                                "sheds must carry Retry-After: {}",
                                resp.body
                            );
                            shed += 1;
                        }
                        other => panic!("overload run saw status {other}: {}", resp.body),
                    }
                }
                (latencies_us, shed)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut shed = 0u64;
    for h in handles {
        let (lat, s) = h.join().expect("overload client thread");
        latencies.extend(lat);
        shed += s;
    }
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let accepted = latencies.len() as u64;
    let p99 = if latencies.is_empty() {
        0.0
    } else {
        let idx = ((0.99 * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    Row::new()
        .num("threads", threads as f64, 0)
        .num("clients", OVERLOAD_CLIENTS as f64, 0)
        .num("deadline_ms", OVERLOAD_DEADLINE.as_millis() as f64, 0)
        .num(
            "offered_requests_per_sec",
            (accepted + shed) as f64 / elapsed,
            2,
        )
        .num("accepted_requests_per_sec", accepted as f64 / elapsed, 2)
        .num("accepted", accepted as f64, 0)
        .num("shed", shed as f64, 0)
        .num("p99_accepted_latency_us", p99, 1)
}

fn main() {
    let args = Args::from_env(USAGE, &[]);
    let quick = Scale::from_env(Scale::Full) == Scale::Quick;
    let requests_per_client = if quick { 24 } else { 96 };

    let current = THREAD_COUNTS.map(|t| run_config(t, requests_per_client));

    // Overload rows: offered load > capacity; gated on shape, not speed.
    let overload_rows = THREAD_COUNTS.map(|t| run_overload_config(t, requests_per_client));

    Bench {
        file: "BENCH_serve.json",
        workload:
            "rotom-serve POST /classify, 4 keep-alive clients, 1ms batch window, demo SST-2 model"
                .into(),
        current: current.to_vec(),
        extra: vec![("overload", overload_rows.to_vec())],
        trajectory: &[
            Ratio::of("throughput_ratio", "requests_per_sec", 3),
            Ratio::of("p99_ratio", "p99_latency_us", 3),
        ],
        // Req/sec, averaged over every request, carries the tight bound.
        // The p99 bound is deliberately loose (3x): at a few hundred samples
        // the tail is scheduler noise, so it only catches step-function
        // regressions (a lost batch window, a stall). The overload bounds are
        // absolute: under 2x+ capacity offered load the excess must shed and
        // the accepted p99 must stay within 4x the deadline budget — the
        // signature of admission control working (latency collapse into an
        // unbounded queue is orders of magnitude, not 4x).
        rules: &[
            Rule::at_least("requests_per_sec", 0.8, Ref::Previous),
            Rule::at_most("p99_latency_us", 3.0, Ref::Previous),
            Rule::at_least("shed", 1.0, Ref::Absolute).in_section("overload"),
            Rule::at_least("accepted", 1.0, Ref::Absolute).in_section("overload"),
            Rule::at_most("p99_accepted_latency_us", 4000.0, Ref::Field("deadline_ms"))
                .in_section("overload"),
        ],
    }
    .finish(args.check);
}
