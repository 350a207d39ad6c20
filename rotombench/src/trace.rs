//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its name, start, end, parent span and repetition, plus the
//! bytes allocated while it was open. Spans are kept per thread and only on
//! the thread that called [`enable`]; every call the traced runs wrap is made
//! from that thread (the training workloads pin the worker pool to one
//! thread, so pool fan-out runs inline). With recording disabled,
//! [`span`] costs one thread-local check.

use crate::heap;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since [`enable`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    pub rep: u32,
    /// Bytes allocated while the span was open (children included).
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, with the allocation counter at entry.
    open: Vec<(usize, u64)>,
    rep: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread, discarding any earlier ones.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        })
    });
}

/// Stop recording and return every span closed so far.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Tag spans opened from now on with repetition `rep`.
pub fn set_rep(rep: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.rep = rep;
        }
    });
}

/// Run `f` inside a span named `name` (just `f` when recording is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: rec.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: rec.open.last().map(|&(p, _)| p),
            rep: rec.rep,
            alloc_bytes: 0,
        });
        rec.open.push((idx, heap::allocated_bytes()));
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recording stopped inside an open span");
            let (top, alloc0) = rec.open.pop().expect("span stack underflow");
            assert_eq!(top, idx, "spans closed out of order");
            let end = rec.t0.elapsed().as_nanos() as u64;
            let s = &mut rec.spans[idx];
            s.end_ns = end;
            s.alloc_bytes = heap::allocated_bytes() - alloc0;
        });
    }
    out
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name sums over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub alloc_bytes: u64,
}

impl Totals {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Sum calls, durations, self times and allocation per span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
        t.alloc_bytes += s.alloc_bytes;
    }
    out
}

/// Share of the `root`-named spans' wall time that no child span covers.
pub fn unattributed(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut wall) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.name == root && s.parent.is_none() {
            own += self_ns;
            wall += s.duration_ns();
        }
    }
    if wall == 0 {
        1.0
    } else {
        own as f64 / wall as f64
    }
}

/// Write the spans as one JSON document (times in microseconds).
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"rep\":{},\"alloc_bytes\":{}}}{}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            parent,
            s.rep,
            s.alloc_bytes,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("b", 20, 50, Some(0)), // overlaps a: union of a and b is 10..50
            sp("c", 60, 70, Some(0)),
            sp("leaf", 62, 65, Some(3)),
            sp("late", 90, 120, Some(0)), // clipped to the root's end
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 10, 20, 30, 7, 3, 30]
        );
        let t = by_name(&spans);
        assert_eq!(t["c"].self_ns, 7);
        assert_eq!(t["c"].total_ns, 10);
        assert!((unattributed(&spans, "root") - 0.4).abs() < 1e-12);
        assert_eq!(unattributed(&spans, "missing"), 1.0);
    }

    #[test]
    fn recorder_links_parents_and_reps() {
        enable();
        set_rep(3);
        let v = span("outer", || span("inner", || 7) + span("inner", || 1));
        assert_eq!(v, 8);
        span("second_root", || ());
        let spans = finish();
        // Spans are stored in open order.
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "inner", "second_root"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        // Recording is off again: spans are plain calls.
        assert_eq!(span("ignored", || 5), 5);
        assert!(finish().is_empty());
    }
}
