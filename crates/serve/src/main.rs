//! `rotom-serve` — boot the model server from the command line.
//!
//! ```text
//! cargo run --release --bin rotom-serve -- --addr 127.0.0.1:8080
//! curl -s localhost:8080/healthz
//! curl -s localhost:8080/match -d '{"inputs": ["title acme phone COL price VAL 99"]}'
//! ```
//!
//! On Unix, `SIGINT`/`SIGTERM` trigger a graceful drain: the server stops
//! accepting, completes in-flight and queued jobs under `--drain-ms`, fails
//! stragglers only at the deadline, then exits.

use rotom_serve::{Server, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: rotom-serve [--addr HOST:PORT] [--window-ms N] [--max-batch N]\n\
         \x20                  [--threads N] [--score-cache N] [--seed N]\n\
         \x20                  [--max-queue N] [--deadline-ms N] [--drain-ms N] [--max-conns N]\n\
         \n\
         Serves POST /match, /clean, /classify; GET /healthz, /metrics;\n\
         POST /admin/swap {{\"endpoint\": ..., \"checkpoint\": ...}}.\n\
         \n\
         Batching: an idle batcher scores a request at once. Requests that\n\
         queue while a batch is scoring share the next batch (at most\n\
         --max-batch jobs); each waits at most --window-ms from its arrival.\n\
         \n\
         Overload protection: the batcher queue is capped at --max-queue\n\
         jobs (0 = unbounded) with a --deadline-ms admission/expiry budget\n\
         (0 = none); excess load is shed with 503 + Retry-After. At most\n\
         --max-conns connections are open at once (0 = uncapped). SIGINT/\n\
         SIGTERM drain gracefully for up to --drain-ms before exiting.\n\
         \n\
         defaults: --addr 127.0.0.1:8080 --window-ms 2 --max-batch 32\n\
         \x20         --threads {} --score-cache 4096 --seed 7\n\
         \x20         --max-queue 1024 --deadline-ms 10000 --drain-ms 5000 --max-conns 256",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    std::process::exit(2)
}

/// Async-signal-safe shutdown flag, set by the `SIGINT`/`SIGTERM` handler
/// and polled by the main loop.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

    // `std` exposes no signal API and the workspace is zero-dependency
    // (no `libc`/`signal-hook`), so bind the libc symbol directly. The
    // handler only stores an atomic flag — the only thing that is
    // async-signal-safe to do.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn handle(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Install the flag-setting handler for `SIGINT` and `SIGTERM`.
    pub fn install() {
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
    }
}

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:8080".into(),
        score_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        score_cache: 4096,
        ..ServerConfig::default()
    };
    let mut drain_timeout = Duration::from_millis(5000);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--window-ms" => match value("--window-ms").parse::<u64>() {
                Ok(ms) => cfg.window = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--max-batch" => match value("--max-batch").parse() {
                Ok(n) => cfg.max_batch = n,
                Err(_) => usage(),
            },
            "--threads" => match value("--threads").parse() {
                Ok(n) => cfg.score_threads = n,
                Err(_) => usage(),
            },
            "--score-cache" => match value("--score-cache").parse() {
                Ok(n) => cfg.score_cache = n,
                Err(_) => usage(),
            },
            "--seed" => match value("--seed").parse() {
                Ok(n) => cfg.seed = n,
                Err(_) => usage(),
            },
            "--max-queue" => match value("--max-queue").parse() {
                Ok(n) => cfg.max_queue = n,
                Err(_) => usage(),
            },
            "--deadline-ms" => match value("--deadline-ms").parse::<u64>() {
                Ok(ms) => cfg.deadline = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--drain-ms" => match value("--drain-ms").parse::<u64>() {
                Ok(ms) => drain_timeout = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--max-conns" => match value("--max-conns").parse() {
                Ok(n) => cfg.max_conns = n,
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rotom-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("rotom-serve listening on http://{}", server.local_addr());
    println!("  POST /match /clean /classify   {{\"inputs\": [\"text\", ...]}}");
    println!("  POST /admin/swap               {{\"endpoint\": ..., \"checkpoint\": ...}}");
    println!("  GET  /healthz /metrics");

    #[cfg(unix)]
    {
        sig::install();
        // Serve until signalled, then drain gracefully.
        while !sig::requested() {
            std::thread::sleep(Duration::from_millis(200));
        }
        eprintln!(
            "rotom-serve: shutdown signal received; draining (deadline {:?})",
            drain_timeout
        );
        let report = server.drain(drain_timeout);
        if report.completed {
            eprintln!("rotom-serve: drain complete");
        } else {
            eprintln!(
                "rotom-serve: drain deadline exceeded; {} queued job(s) failed",
                report.failed_jobs
            );
        }
    }

    #[cfg(not(unix))]
    {
        let _ = drain_timeout;
        // No signal plumbing off-Unix: serve until killed.
        loop {
            std::thread::park();
        }
    }
}
