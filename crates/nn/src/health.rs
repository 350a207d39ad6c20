//! Numeric-health guarding for the training loop.
//!
//! Meta-gradients (REINFORCE + the DARTS-style finite difference of
//! Algorithm 2) are noisy; a single NaN or loss explosion must not silently
//! destroy a long run. [`HealthMonitor`] watches every optimizer step for
//! non-finite loss/gradients and for loss spikes against a sliding window,
//! and the training driver reacts to a [`Verdict::Diverged`] by rolling back
//! to the last good checkpoint with a decayed learning rate — degrading to
//! the best snapshot seen so far once the rollback budget is exhausted,
//! instead of panicking.

use std::collections::VecDeque;

/// Length of the sliding loss window used for spike detection. The spike
/// check only engages once the window is full.
const SPIKE_WINDOW: usize = 8;
/// A step diverges if its loss exceeds `SPIKE_FACTOR ×` the window mean.
const SPIKE_FACTOR: f32 = 4.0;
/// How many rollbacks to attempt before degrading to the best snapshot.
const MAX_ROLLBACKS: u32 = 3;
/// Multiplier applied to the learning rate on each rollback (compounds:
/// the k-th rollback restarts at `lr · LR_DECAY^k`, so retries do not
/// replay the identical diverging trajectory).
const LR_DECAY: f32 = 0.5;

/// The per-step health outcome.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The step is numerically sound.
    Healthy,
    /// The step diverged; the reason explains how.
    Diverged(String),
}

/// A recorded health incident (divergence, rollback, degradation).
#[derive(Debug, Clone)]
pub struct HealthEvent {
    /// Global step at which the incident happened.
    pub step: u64,
    /// Incident class: `"diverged"`, `"rollback"`, or `"degraded"`.
    pub kind: String,
    /// Human-readable explanation.
    pub detail: String,
}

/// A request from the guarded training loop to stop the current epoch and
/// let the driver recover (roll back or degrade).
#[derive(Debug)]
pub struct Halt {
    /// Global step at which divergence was detected.
    pub step: u64,
    /// Why the step was ruled divergent.
    pub reason: String,
}

impl std::fmt::Display for Halt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "training halted at step {}: {}", self.step, self.reason)
    }
}

/// Sliding-window numeric-health monitor. One instance lives for a whole
/// (possibly resumed) run; its step counter is part of the checkpointed
/// state so resumed runs see the same step numbering.
#[derive(Debug)]
pub struct HealthMonitor {
    window: VecDeque<f32>,
    step: u64,
    rollbacks: u32,
    events: Vec<HealthEvent>,
}

impl HealthMonitor {
    /// Create a monitor at step 0 with no rollback consumed.
    #[allow(
        clippy::new_without_default,
        reason = "a monitor is built once per run by the epoch loop; it has one constructor"
    )]
    pub fn new() -> Self {
        Self {
            window: VecDeque::with_capacity(SPIKE_WINDOW),
            step: 0,
            rollbacks: 0,
            events: Vec::new(),
        }
    }

    /// Global step counter (number of optimizer steps begun).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Restore the step counter (on resume / rollback).
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Rollbacks consumed so far.
    pub fn rollbacks(&self) -> u32 {
        self.rollbacks
    }

    /// Restore the rollback count (on resume).
    pub fn set_rollbacks(&mut self, rollbacks: u32) {
        self.rollbacks = rollbacks;
    }

    /// Recorded incidents, oldest first.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Advance to the next step and return its (1-based) number.
    pub fn begin_step(&mut self) -> u64 {
        self.step += 1;
        self.step
    }

    /// Judge the step that [`begin_step`](Self::begin_step) opened from its
    /// loss and gradient norm. Healthy losses feed the spike window;
    /// divergent steps are recorded and leave the window untouched.
    pub fn observe(&mut self, loss: f32, grad_norm: f32) -> Verdict {
        let reason = if !loss.is_finite() {
            Some(format!("non-finite loss {loss}"))
        } else if !grad_norm.is_finite() {
            Some(format!("non-finite gradient norm {grad_norm}"))
        } else if self.window.len() == SPIKE_WINDOW {
            let mean = self.window.iter().sum::<f32>() / self.window.len() as f32;
            if mean > 0.0 && loss > SPIKE_FACTOR * mean {
                Some(format!(
                    "loss spike: {loss} > {} × window mean {mean}",
                    SPIKE_FACTOR
                ))
            } else {
                None
            }
        } else {
            None
        };
        match reason {
            Some(reason) => {
                self.events.push(HealthEvent {
                    step: self.step,
                    kind: "diverged".to_string(),
                    detail: reason.clone(),
                });
                Verdict::Diverged(reason)
            }
            None => {
                if self.window.len() == SPIKE_WINDOW {
                    self.window.pop_front();
                }
                self.window.push_back(loss);
                Verdict::Healthy
            }
        }
    }

    /// Whether the rollback budget allows another recovery attempt.
    pub fn can_rollback(&self) -> bool {
        self.rollbacks < MAX_ROLLBACKS
    }

    /// Consume one rollback: reset the spike window (the restored trajectory
    /// re-fills it) and record the event. Returns the compounded LR scale
    /// `LR_DECAY^rollbacks` the driver should apply to the restored state.
    pub fn record_rollback(&mut self, restored_step: u64, detail: String) -> f32 {
        self.rollbacks += 1;
        self.window.clear();
        self.events.push(HealthEvent {
            step: restored_step,
            kind: "rollback".to_string(),
            detail,
        });
        LR_DECAY.powi(self.rollbacks as i32)
    }

    /// Record that the run gave up retrying and degraded to the best
    /// snapshot.
    pub fn record_degraded(&mut self, detail: String) {
        self.events.push(HealthEvent {
            step: self.step,
            kind: "degraded".to_string(),
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_steps_stay_healthy() {
        let mut m = HealthMonitor::new();
        for loss in [1.0, 0.9, 1.1, 0.8, 1.0] {
            m.begin_step();
            assert_eq!(m.observe(loss, 0.5), Verdict::Healthy);
        }
        assert_eq!(m.step(), 5);
        assert!(m.events().is_empty());
    }

    #[test]
    fn non_finite_loss_and_grad_diverge() {
        let mut m = HealthMonitor::new();
        m.begin_step();
        assert!(matches!(m.observe(f32::NAN, 0.5), Verdict::Diverged(_)));
        m.begin_step();
        assert!(matches!(
            m.observe(1.0, f32::INFINITY),
            Verdict::Diverged(_)
        ));
        assert_eq!(m.events().len(), 2);
    }

    #[test]
    fn spike_detection_needs_full_window() {
        let mut m = HealthMonitor::new();
        // Window not full yet: even a huge loss passes.
        m.begin_step();
        assert_eq!(m.observe(100.0, 0.1), Verdict::Healthy);
        for _ in 1..SPIKE_WINDOW {
            m.begin_step();
            assert_eq!(m.observe(1.0, 0.1), Verdict::Healthy);
        }
        // Window now [100, 1 × 7], mean 13.375 → 4×mean = 53.5: 53 passes.
        m.begin_step();
        assert_eq!(m.observe(53.0, 0.1), Verdict::Healthy);
        // Window [1 × 7, 53], mean 7.5 → spike above 30.
        m.begin_step();
        assert!(matches!(m.observe(31.0, 0.1), Verdict::Diverged(_)));
    }

    #[test]
    fn rollback_budget_and_compounded_decay() {
        let mut m = HealthMonitor::new();
        for scale in [0.5, 0.25, 0.125] {
            assert!(m.can_rollback());
            assert_eq!(m.record_rollback(0, "retry".into()), scale);
        }
        assert!(!m.can_rollback());
        m.record_degraded("out of retries".into());
        let kinds: Vec<_> = m.events().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["rollback", "rollback", "rollback", "degraded"]);
    }

    #[test]
    fn rollback_clears_spike_window() {
        let mut m = HealthMonitor::new();
        for _ in 0..SPIKE_WINDOW {
            m.begin_step();
            m.observe(1.0, 0.1);
        }
        m.record_rollback(0, "test".into());
        // Window cleared: the spike check is disengaged until it refills.
        m.begin_step();
        assert_eq!(m.observe(1000.0, 0.1), Verdict::Healthy);
    }
}
