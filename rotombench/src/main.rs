//! `rotombench` — end-to-end and per-layer benchmark of the rotom workspace.
//!
//! Four workloads, each run in a child process of its own with
//! `ROTOM_THREADS` pinned (the worker pool is sized once per process):
//!
//! * `em_rotom_train` — one Figure 4 cell, Rotom on Abt-Buy at budget 240;
//! * `em_mixda_train` — the same cell with MixDA (no meta-learning, no InvDA);
//! * `em_match_serve` — open-loop Poisson `POST /match` against an
//!   in-process server;
//! * `em_block_300k` — streaming blocking over a 300k-entity corpus.
//!
//! ```text
//! cargo run --release --offline --manifest-path rotombench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N] \
//!     [--out FILE] [--spans FILE]
//! ```
//!
//! Every metric is printed by name with its unit; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! a traced rerun (`--trace 1`). A failed output check exits non-zero. See
//! `README.md` beside this package for workloads, metrics and bounds.

mod block;
mod heap;
mod serve;
mod stats;
mod trace;
mod train;

#[global_allocator]
static GLOBAL: heap::CountingAlloc = heap::CountingAlloc;

use rotom_serve::json::{self, Json};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups timed per run, at least; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Cheap set-ups repeat until they have taken this long in total (or
/// [`MAX_SETUPS`] of them ran): the median of a few millisecond-long timings
/// moves by a fifth from one process to the next.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 101;

/// Time `set_up` at least `min` times, and more while the set-ups so far
/// took less than [`SETUP_BUDGET_S`]; each result is dropped before the next
/// set-up starts. Returns the times (s) and the last result.
pub fn time_setups<T>(min: usize, mut set_up: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < min
        || (times.iter().sum::<f64>() < SETUP_BUDGET_S && times.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up());
        times.push(t.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up"))
}
/// Share of a traced run's wall time its root span may leave to no child.
pub const MAX_UNATTRIBUTED: f64 = 0.10;
/// Name of the root span covering the measured part of a traced run.
pub const ROOT: &str = "run";
/// Runs must end within 180 s; a child still running after this is killed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_ms", "ms"), ("peak_heap_mb", "MB")];

/// Per-layer metrics common to every traced run.
const TRACE_LAYER: [(&str, &str); 2] =
    [("trace.overhead", "ratio"), ("trace.unattributed", "ratio")];

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run reports
/// each of them; layers a workload never calls read 0.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    let mut all: Vec<(&str, &str)> = TRACE_LAYER.to_vec();
    all.extend_from_slice(train::LAYER);
    all.extend_from_slice(serve::LAYER);
    all.extend_from_slice(block::LAYER);
    all
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

pub fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }
}

/// Result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks that failed; empty when every output was correct.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The [`END_TO_END`] metrics.
    pub e2e: Vec<Metric>,
    /// The workload's own end-to-end metrics (`train_s`, `tail_ms.mid`, ...).
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layer: Vec<Metric>,
    /// Spans of a traced run, written out when the run ends.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Fill the [`END_TO_END`] set from set-up times and per-unit wall times
    /// (seconds); the peak heap is added when the run ends.
    pub fn end_to_end(&mut self, setups: &[f64], units: &[f64]) {
        self.e2e = vec![
            metric("setup_s", "s", stats::median(setups)),
            metric("wall_ms", "ms", stats::median(units) * 1e3),
        ];
    }
}

/// What one run of a workload is asked to do.
pub struct Run {
    pub seed: u64,
    /// How long to measure; a unit of work that takes longer runs once.
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// Whether to time another unit of work (`units` holds the wall times
    /// of those done since `started`): always a first one, then while one
    /// more, as long as the last, still fits in `seconds`.
    pub fn more(&self, units: &[f64], started: Instant) -> bool {
        units
            .last()
            .is_none_or(|last| started.elapsed().as_secs_f64() + last <= self.seconds)
    }
}

struct Workload {
    name: &'static str,
    /// `ROTOM_THREADS` for the workload's process.
    threads: fn() -> usize,
    run: fn(&Run) -> Outcome,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "em_rotom_train",
        threads: || 1,
        run: |r| train::run(rotom::Method::Rotom, r),
    },
    Workload {
        name: "em_mixda_train",
        threads: || 1,
        run: |r| train::run(rotom::Method::MixDa, r),
    },
    Workload {
        name: "em_match_serve",
        threads: nproc,
        run: serve::run,
    },
    Workload {
        name: "em_block_300k",
        threads: || 2,
        run: block::run,
    },
];

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    child: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "rotombench: {msg}\n\
         usage: rotombench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                 [--repeat N] [--out FILE] [--spans FILE]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        repeat: 1,
        out: None,
        spans: None,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("missing value for {flag}"))
        };
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number, not {value:?}")))
        };
        match flag.as_str() {
            "--workload" => match WORKLOADS.iter().find(|w| w.name == value) {
                Some(w) => args.workloads = vec![w],
                None => usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number().max(1) as f64,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--repeat" => args.repeat = number().max(1),
            "--out" => args.out = Some(PathBuf::from(value)),
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.child {
        child_main(&args);
        return;
    }
    let rev = git_revision();
    let fma = rotom_nn::kernels::profile::fma_active();
    println!(
        "rotombench: rev {rev}, nproc {}, fma_active {fma}, {} s per run, trace {}",
        nproc(),
        args.seconds,
        args.trace as u8
    );
    let mut runs: Vec<(&Workload, u64, Outcome)> = Vec::new();
    for &w in &args.workloads {
        for r in 0..args.repeat {
            let seed = args.seed + r;
            match run_child(w, seed, &args) {
                Ok(out) => {
                    print_outcome(w.name, seed, &out);
                    runs.push((w, seed, out));
                }
                Err(e) => {
                    eprintln!("rotombench: {} seed {seed} failed: {e}", w.name);
                    std::process::exit(1);
                }
            }
        }
    }
    if args.repeat > 1 {
        print_summary(&args, &runs);
    }
    if let Some(path) = &args.out {
        if let Err(e) = write_out(path, &args, &rev, fma, &runs) {
            eprintln!("rotombench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let correct = runs.iter().all(|(_, _, o)| o.failures.is_empty());
    println!("{}", result_line(&args, &runs, correct));
    if !correct {
        std::process::exit(1);
    }
}

/// Run one workload in this process and print its outcome as one JSON line.
fn child_main(args: &Args) {
    let w = args.workloads[0];
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut out = (w.run)(&run);
    out.e2e.push(metric(
        "peak_heap_mb",
        "MB",
        heap::peak_bytes() as f64 / 1e6,
    ));
    let attempted = out.attempted.max(1);
    out.detail.push(metric(
        "fail_ratio",
        "ratio",
        out.failed as f64 / attempted as f64,
    ));
    if run.trace {
        let unattributed = trace::unattributed(&out.spans, ROOT);
        out.layer
            .push(metric("trace.unattributed", "ratio", unattributed));
        out.check(unattributed <= MAX_UNATTRIBUTED, || {
            format!(
                "{:.1}% of the traced wall time is in no layer span (limit {:.0}%)",
                unattributed * 100.0,
                MAX_UNATTRIBUTED * 100.0
            )
        });
        let path = args.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".rotombench/spans-{}-seed{}.json",
                w.name, run.seed
            ))
        });
        if let Err(e) = trace::write_json(&path, &out.spans) {
            out.failures
                .push(format!("cannot write spans to {}: {e}", path.display()));
        }
    }
    for m in out.e2e.iter().chain(&out.detail).chain(&out.layer) {
        out.failures
            .extend((!m.value.is_finite()).then(|| format!("{} is not finite", m.name)));
    }
    println!("{}", child_line(&out));
}

fn metrics_json(ms: &[Metric]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("[{},{},{v}]", json::quote(&m.name), json::quote(&m.unit))
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn child_line(o: &Outcome) -> String {
    let failures: Vec<String> = o.failures.iter().map(|f| json::quote(f)).collect();
    format!(
        "{{\"failures\":[{}],\"attempted\":{},\"failed\":{},\"e2e\":{},\"detail\":{},\"layer\":{}}}",
        failures.join(","),
        o.attempted,
        o.failed,
        metrics_json(&o.e2e),
        metrics_json(&o.detail),
        metrics_json(&o.layer)
    )
}

fn parse_child_line(line: &str) -> Result<Outcome, String> {
    let doc = json::parse(line)?;
    let list = |key: &str| -> Result<Vec<Metric>, String> {
        let arr = doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("no {key}"))?;
        arr.iter()
            .map(|m| match m.as_arr() {
                Some([name, unit, value]) => Ok(Metric {
                    name: name.as_str().ok_or("metric name")?.to_string(),
                    unit: unit.as_str().ok_or("metric unit")?.to_string(),
                    value: value.as_f64().ok_or("metric value")?,
                }),
                _ => Err(format!("bad metric in {key}")),
            })
            .collect()
    };
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("no {key}"))
    };
    Ok(Outcome {
        failures: doc
            .get("failures")
            .and_then(Json::as_arr)
            .ok_or("no failures")?
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect(),
        attempted: count("attempted")?,
        failed: count("failed")?,
        e2e: list("e2e")?,
        detail: list("detail")?,
        layer: list("layer")?,
        spans: Vec::new(),
    })
}

/// Run `w` in a child process and wait for it (killing it at the timeout).
fn run_child(w: &Workload, seed: u64, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(spans) = &args.spans {
        cmd.arg("--spans").arg(spans);
    }
    // The child sees only the thread setting the workload pins; other
    // `ROTOM_*` switches (telemetry, faults, caches, quantization) would
    // change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ROTOM_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("ROTOM_THREADS", (w.threads)().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("timed out after {} s", CHILD_TIMEOUT.as_secs()));
            }
            Err(e) => return Err(format!("wait: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read child stdout: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let line = text.lines().last().ok_or("child printed nothing")?;
    parse_child_line(line)
}

fn print_outcome(name: &str, seed: u64, o: &Outcome) {
    println!(
        "{name} seed {seed}: attempted {} failed {} correct {}",
        o.attempted,
        o.failed,
        o.failures.is_empty()
    );
    for m in o.e2e.iter().chain(&o.detail).chain(&o.layer) {
        println!(
            "  {:<32} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    for f in &o.failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// Bounds of the end-to-end metrics, read from `BENCHMARK.json` in the
/// working directory when it is there.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(doc) = json::parse(&text) else {
        return Vec::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Values of every metric name across the runs of one workload, in first-seen
/// order, with each metric's unit and whether it is an end-to-end metric.
fn collect(runs: &[&Outcome]) -> Vec<(Metric, bool, Vec<f64>)> {
    let mut out: Vec<(Metric, bool, Vec<f64>)> = Vec::new();
    for o in runs {
        let tagged = o
            .e2e
            .iter()
            .map(|m| (m, true))
            .chain(o.detail.iter().chain(&o.layer).map(|m| (m, false)));
        for (m, e2e) in tagged {
            match out.iter_mut().find(|(k, _, _)| k.name == m.name) {
                Some((_, _, vs)) => vs.push(m.value),
                None => out.push((m.clone(), e2e, vec![m.value])),
            }
        }
    }
    out
}

fn print_summary(args: &Args, runs: &[(&Workload, u64, Outcome)]) {
    let bounds = bounds();
    for w in &args.workloads {
        let outs: Vec<&Outcome> = runs
            .iter()
            .filter(|(rw, _, _)| rw.name == w.name)
            .map(|(_, _, o)| o)
            .collect();
        println!(
            "{} over {} runs: median [q1, q3] spread",
            w.name,
            outs.len()
        );
        for (m, e2e, vs) in collect(&outs) {
            let (q1, q3) = stats::quartiles(&vs);
            let spread = stats::spread(&vs);
            let bound = bounds.iter().find(|(n, _)| *n == m.name).map(|&(_, b)| b);
            let flag = match bound {
                Some(b) if e2e && m.name != "setup_s" && spread > b => {
                    format!("  SPREAD {:.3} EXCEEDS BOUND {b}", spread)
                }
                Some(b) if e2e => format!("  (bound {b})"),
                _ => String::new(),
            };
            println!(
                "  {:<32} {:>14.6} [{:.6}, {:.6}] {:.4} {}{flag}",
                m.name,
                stats::median(&vs),
                q1,
                q3,
                spread,
                m.unit
            );
        }
    }
}

/// The contract line: end-to-end metrics (or per-layer ones when traced);
/// with several runs each metric is the median, named `workload.metric`.
fn result_line(args: &Args, runs: &[(&Workload, u64, Outcome)], correct: bool) -> String {
    let attempted: u64 = runs.iter().map(|(_, _, o)| o.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, _, o)| o.failed).sum();
    let catalogue: Vec<(&str, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.to_vec()
    };
    let single = runs.len() == 1;
    let mut fields = Vec::new();
    for w in &args.workloads {
        let outs: Vec<&Outcome> = runs
            .iter()
            .filter(|(rw, _, _)| rw.name == w.name)
            .map(|(_, _, o)| o)
            .collect();
        for (name, unit) in &catalogue {
            let vs: Vec<f64> = outs
                .iter()
                .map(|o| {
                    o.e2e
                        .iter()
                        .chain(&o.layer)
                        .find(|m| m.name == *name)
                        .map_or(0.0, |m| m.value)
                })
                .collect();
            let key = if single {
                name.to_string()
            } else {
                format!("{}.{name}", w.name)
            };
            fields.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(&key),
                stats::median(&vs),
                json::quote(unit)
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        fields.join(",")
    )
}

fn write_out(
    path: &Path,
    args: &Args,
    rev: &str,
    fma: bool,
    runs: &[(&Workload, u64, Outcome)],
) -> std::io::Result<()> {
    let items: Vec<String> = runs
        .iter()
        .map(|(w, seed, o)| {
            let failures: Vec<String> = o.failures.iter().map(|f| json::quote(f)).collect();
            format!(
                "{{\"workload\":\"{}\",\"seed\":{seed},\"correct\":{},\"failures\":[{}],\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"detail\":{},\"per_layer\":{}}}",
                w.name,
                o.failures.is_empty(),
                failures.join(","),
                o.attempted,
                o.failed,
                metrics_json(&o.e2e),
                metrics_json(&o.detail),
                metrics_json(&o.layer)
            )
        })
        .collect();
    let doc = format!(
        "{{\"rev\":{},\"nproc\":{},\"fma_active\":{fma},\"seconds\":{},\"trace\":{},\"runs\":[\n{}\n]}}\n",
        json::quote(rev),
        nproc(),
        args.seconds,
        args.trace,
        items.join(",\n")
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no git process), or `unknown` outside a repository.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` beside the package lists exactly the metrics the
    /// benchmark prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(names("per_layer"), own(per_layer()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_string()));
    }

    #[test]
    fn child_lines_round_trip() {
        let o = Outcome {
            failures: vec!["a \"quoted\" failure".into()],
            attempted: 7,
            failed: 1,
            e2e: vec![metric("setup_s", "s", 0.123456789)],
            detail: vec![metric("tail_ms.mid", "ms", 3.5)],
            layer: vec![metric("meta.steps", "count", 42.0)],
            spans: Vec::new(),
        };
        let back = parse_child_line(&child_line(&o)).unwrap();
        assert_eq!(back.failures, o.failures);
        assert_eq!((back.attempted, back.failed), (7, 1));
        assert_eq!(back.e2e, o.e2e);
        assert_eq!(back.detail, o.detail);
        assert_eq!(back.layer, o.layer);
    }
}
