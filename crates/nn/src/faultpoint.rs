//! Deterministic fault injection for exercising the fault-tolerant runtime.
//!
//! A *faultpoint* is a named failure armed in advance and fired at an exact
//! training step, letting tests (and `ci.sh`) prove crash/resume equivalence
//! and NaN-rollback recovery end to end without any nondeterminism:
//!
//! * [`FaultKind::Kill`] — simulate a process crash at a step (raised as a
//!   [`FaultKilled`] panic that tests catch with `catch_unwind`).
//! * [`FaultKind::NanGrad`] — corrupt the parameter update with NaNs, as a
//!   diverged meta-gradient would.
//! * [`FaultKind::NanLoss`] — replace the step loss with NaN.
//! * [`FaultKind::TornCheckpoint`] — make the next checkpoint write produce a
//!   truncated file (a torn in-place write), which the loader must detect.
//!
//! Faults are armed per-thread either programmatically ([`arm`], which
//! returns the parse error of a bad spec) or from the `ROTOM_FAULT`
//! environment variable on first use (a bad spec warns once and arms
//! nothing), with a `;`-separated spec grammar:
//!
//! ```text
//! ROTOM_FAULT="kill@step=37"
//! ROTOM_FAULT="nan_grad@step=12;torn_checkpoint"
//! ```
//!
//! Every armed fault is **one-shot**: it disarms when it fires, so a resumed
//! run that replays the same step numbers does not re-fire the fault that
//! killed it. Arming the same fault N times makes it fire on N distinct
//! occasions (used to exhaust the rollback budget in tests). State is
//! thread-local so parallel tests cannot contaminate each other.
//!
//! ## Serving faults (process-global)
//!
//! The serving plane (`rotom-serve`) runs its work on internal threads —
//! the batcher, the watchdog, connection handlers — so thread-local arming
//! cannot reach it. Serve faults therefore live in a second, **process-
//! global** plan with the same spec grammar and one-shot semantics, armed
//! via [`arm_global`] (or `ROTOM_FAULT` on first global check):
//!
//! * [`FaultKind::ScorePanic`] — panic inside a plane's forward pass
//!   (exercises the batcher's `catch_unwind` → 500 path).
//! * [`FaultKind::SlowScore`] — stall the forward pass; the `@step=N`
//!   condition is reinterpreted as the stall duration in **milliseconds**
//!   (default 200). Exercises the batcher watchdog's wedge detection.
//! * [`FaultKind::BatcherDie`] — panic the batcher thread *outside* its
//!   `catch_unwind`, simulating supervisor-visible thread death.
//! * [`FaultKind::TornWrite`] — truncate one HTTP response mid-write,
//!   simulating a torn socket (client sees an unexpected EOF).
//! * [`FaultKind::QueueFull`] — force one `Batcher::submit` to report a
//!   full queue, driving the 503 + `Retry-After` shed path determinis-
//!   tically regardless of actual queue depth.
//!
//! Training kinds are only checked through the thread-local API and serve
//! kinds only through the global one, so a single `ROTOM_FAULT` spec naming
//! both never double-fires.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};

/// The kinds of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Simulated process death (panics with [`FaultKilled`]).
    Kill,
    /// NaN corruption of the gradient/parameter update.
    NanGrad,
    /// NaN substitution of the step loss.
    NanLoss,
    /// Truncated (torn) checkpoint write.
    TornCheckpoint,
    /// Serving: panic inside a plane's forward pass (global plan only).
    ScorePanic,
    /// Serving: stall the forward pass; the `@step=N` field is the stall in
    /// milliseconds (global plan only).
    SlowScore,
    /// Serving: panic the batcher thread outside its `catch_unwind`
    /// (global plan only).
    BatcherDie,
    /// Serving: truncate one HTTP response write mid-body (global plan
    /// only).
    TornWrite,
    /// Serving: force one `Batcher::submit` to report a full queue (global
    /// plan only).
    QueueFull,
}

impl FaultKind {
    fn from_name(s: &str) -> Option<Self> {
        match s {
            "kill" => Some(FaultKind::Kill),
            "nan_grad" => Some(FaultKind::NanGrad),
            "nan_loss" => Some(FaultKind::NanLoss),
            "torn_checkpoint" => Some(FaultKind::TornCheckpoint),
            "score_panic" => Some(FaultKind::ScorePanic),
            "slow_score" => Some(FaultKind::SlowScore),
            "batcher_die" => Some(FaultKind::BatcherDie),
            "torn_write" => Some(FaultKind::TornWrite),
            "queue_full" => Some(FaultKind::QueueFull),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct FaultPoint {
    kind: FaultKind,
    /// Fire only at this step; `None` fires at the first opportunity.
    step: Option<u64>,
    armed: bool,
}

/// A parsed set of armed faultpoints.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// Parse a `;`-separated spec, e.g. `"kill@step=37;torn_checkpoint"`.
    /// An empty spec is an empty plan.
    pub(crate) fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut points = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, step) = match part.split_once('@') {
                None => (part, None),
                Some((name, cond)) => {
                    let step = cond
                        .strip_prefix("step=")
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| {
                            format!("bad fault condition {cond:?} in {part:?} (want step=<n>)")
                        })?;
                    (name, Some(step))
                }
            };
            let kind = FaultKind::from_name(name).ok_or_else(|| {
                format!(
                    "unknown fault kind {name:?} (want kill, nan_grad, nan_loss, \
                     torn_checkpoint, score_panic, slow_score, batcher_die, \
                     torn_write, queue_full)"
                )
            })?;
            points.push(FaultPoint {
                kind,
                step,
                armed: true,
            });
        }
        Ok(FaultPlan { points })
    }

    /// Number of still-armed faults.
    pub(crate) fn armed(&self) -> usize {
        self.points.iter().filter(|p| p.armed).count()
    }
}

/// The plan `ROTOM_FAULT` arms, parsed once per process through
/// [`crate::env::read`]; each plan (every thread's and the global one)
/// starts from its own copy. A spec that fails to parse warns once, naming
/// the parse error, and arms nothing.
fn env_plan() -> FaultPlan {
    static ENV_PLAN: OnceLock<FaultPlan> = OnceLock::new();
    ENV_PLAN
        .get_or_init(|| crate::env::read("ROTOM_FAULT", FaultPlan::parse).unwrap_or_default())
        .clone()
}

thread_local! {
    static PLAN: RefCell<Option<FaultPlan>> = const { RefCell::new(None) };
}

fn with_plan<R>(f: impl FnOnce(&mut FaultPlan) -> R) -> R {
    PLAN.with(|p| f(p.borrow_mut().get_or_insert_with(env_plan)))
}

/// Arm the calling thread's faultpoints from a spec string, replacing any
/// previously armed plan (including one inherited from `ROTOM_FAULT`).
pub fn arm(spec: &str) -> Result<(), String> {
    let plan = FaultPlan::parse(spec)?;
    PLAN.with(|p| *p.borrow_mut() = Some(plan));
    Ok(())
}

/// Disarm all faultpoints on the calling thread.
pub fn clear() {
    PLAN.with(|p| *p.borrow_mut() = Some(FaultPlan::default()));
}

/// Number of faults still armed on the calling thread.
pub fn armed() -> usize {
    with_plan(|plan| plan.armed())
}

/// The process-global plan serving faults are checked against. Lazily
/// initialized from `ROTOM_FAULT` on first use, like the thread-local plan.
static GLOBAL_PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

fn with_global_plan<R>(f: impl FnOnce(&mut FaultPlan) -> R) -> R {
    let mut guard = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(env_plan))
}

/// Arm the **process-global** faultpoints (serving faults) from a spec
/// string, replacing any previously armed global plan.
pub fn arm_global(spec: &str) -> Result<(), String> {
    let plan = FaultPlan::parse(spec)?;
    let mut guard = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(plan);
    Ok(())
}

/// Disarm all process-global faultpoints.
pub fn clear_global() {
    let mut guard = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(FaultPlan::default());
}

/// Number of faults still armed in the global plan.
pub fn armed_global() -> usize {
    with_global_plan(|plan| plan.armed())
}

/// Check-and-fire against the global plan: if a fault of `kind` is armed,
/// disarm one occurrence and return its `@step=` field (serving faults
/// reuse it as a free argument, e.g. the stall milliseconds for
/// `slow_score`); unconditional arming returns `Some(0)`. Returns `None`
/// when nothing is armed.
pub fn fire_global(kind: FaultKind) -> Option<u64> {
    with_global_plan(|plan| {
        for p in &mut plan.points {
            if p.armed && p.kind == kind {
                p.armed = false;
                return Some(p.step.unwrap_or(0));
            }
        }
        None
    })
}

/// Check-and-fire: returns `true` if a fault of `kind` is armed for `step`
/// (or armed unconditionally), disarming that one occurrence. Step-agnostic
/// callers (e.g. checkpoint writes) pass `step = 0` and only unconditional
/// faults match them.
pub fn fires(kind: FaultKind, step: u64) -> bool {
    with_plan(|plan| {
        for p in &mut plan.points {
            if p.armed && p.kind == kind && (p.step.is_none() || p.step == Some(step)) {
                p.armed = false;
                return true;
            }
        }
        false
    })
}

/// The panic payload of a [`FaultKind::Kill`] faultpoint — tests downcast to
/// this to distinguish a simulated crash from a real bug.
#[derive(Debug)]
pub struct FaultKilled {
    /// The training step at which the simulated crash fired.
    pub step: u64,
}

/// Fire a [`FaultKind::Kill`] faultpoint if one is armed for `step`:
/// panics with a [`FaultKilled`] payload, simulating sudden process death.
pub fn maybe_kill(step: u64) {
    if fires(FaultKind::Kill, step) {
        std::panic::panic_any(FaultKilled { step });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_spec_grammar() {
        let plan = FaultPlan::parse("kill@step=37; nan_grad@step=12 ;torn_checkpoint").unwrap();
        assert_eq!(plan.armed(), 3);
        assert!(FaultPlan::parse("").unwrap().points.is_empty());
        assert!(FaultPlan::parse("explode@step=1").is_err());
        assert!(FaultPlan::parse("kill@epoch=3").is_err());
        assert!(FaultPlan::parse("kill@step=abc").is_err());
    }

    #[test]
    fn fires_only_at_matching_step_and_once() {
        arm("nan_grad@step=5").unwrap();
        assert!(!fires(FaultKind::NanGrad, 4));
        assert!(!fires(FaultKind::Kill, 5));
        assert!(fires(FaultKind::NanGrad, 5));
        // One-shot: replaying the same step after resume must not re-fire.
        assert!(!fires(FaultKind::NanGrad, 5));
        clear();
    }

    #[test]
    fn repeated_arming_fires_repeatedly() {
        arm("nan_grad@step=3;nan_grad@step=3").unwrap();
        assert!(fires(FaultKind::NanGrad, 3));
        assert!(fires(FaultKind::NanGrad, 3));
        assert!(!fires(FaultKind::NanGrad, 3));
        clear();
    }

    #[test]
    fn unconditional_fault_matches_any_step() {
        arm("torn_checkpoint").unwrap();
        assert!(fires(FaultKind::TornCheckpoint, 0));
        assert!(!fires(FaultKind::TornCheckpoint, 0));
        clear();
    }

    #[test]
    fn global_plan_fires_once_with_argument() {
        arm_global("slow_score@step=250;queue_full").unwrap();
        assert_eq!(armed_global(), 2);
        // The @step field comes back as the fault argument (stall millis).
        assert_eq!(fire_global(FaultKind::SlowScore), Some(250));
        assert_eq!(fire_global(FaultKind::SlowScore), None, "one-shot");
        assert_eq!(fire_global(FaultKind::QueueFull), Some(0));
        assert_eq!(armed_global(), 0);
        // Global arming never leaks into the thread-local plan.
        clear();
        assert!(!fires(FaultKind::QueueFull, 0));
        clear_global();
    }

    #[test]
    fn serve_kind_names_parse() {
        for (name, kind) in [
            ("score_panic", FaultKind::ScorePanic),
            ("slow_score", FaultKind::SlowScore),
            ("batcher_die", FaultKind::BatcherDie),
            ("torn_write", FaultKind::TornWrite),
            ("queue_full", FaultKind::QueueFull),
        ] {
            assert_eq!(FaultKind::from_name(name), Some(kind));
        }
    }

    #[test]
    fn kill_panics_with_typed_payload() {
        arm("kill@step=7").unwrap();
        maybe_kill(6); // not yet
        let err = std::panic::catch_unwind(|| maybe_kill(7)).unwrap_err();
        let killed = err.downcast::<FaultKilled>().expect("FaultKilled payload");
        assert_eq!(killed.step, 7);
        clear();
    }
}
