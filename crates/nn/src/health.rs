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

/// Tunables for divergence detection and recovery.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Length of the sliding loss window used for spike detection. The spike
    /// check only engages once the window is full.
    pub spike_window: usize,
    /// A step diverges if its loss exceeds `spike_factor ×` the window mean.
    pub spike_factor: f32,
    /// How many rollbacks to attempt before degrading to the best snapshot.
    pub max_rollbacks: u32,
    /// Multiplier applied to the learning rate on each rollback (compounds:
    /// the k-th rollback restarts at `lr · lr_decay^k`, so retries do not
    /// replay the identical diverging trajectory).
    pub lr_decay: f32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            spike_window: 8,
            spike_factor: 4.0,
            max_rollbacks: 3,
            lr_decay: 0.5,
        }
    }
}

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
    cfg: HealthConfig,
    window: VecDeque<f32>,
    step: u64,
    rollbacks: u32,
    events: Vec<HealthEvent>,
}

impl HealthMonitor {
    /// Create a monitor with the given tunables.
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            window: VecDeque::with_capacity(cfg.spike_window),
            cfg,
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
        } else if self.window.len() == self.cfg.spike_window {
            let mean = self.window.iter().sum::<f32>() / self.window.len() as f32;
            if mean > 0.0 && loss > self.cfg.spike_factor * mean {
                Some(format!(
                    "loss spike: {loss} > {} × window mean {mean}",
                    self.cfg.spike_factor
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
                if self.window.len() == self.cfg.spike_window {
                    self.window.pop_front();
                }
                self.window.push_back(loss);
                Verdict::Healthy
            }
        }
    }

    /// Whether the rollback budget allows another recovery attempt.
    pub fn can_rollback(&self) -> bool {
        self.rollbacks < self.cfg.max_rollbacks
    }

    /// Consume one rollback: reset the spike window (the restored trajectory
    /// re-fills it) and record the event. Returns the compounded LR scale
    /// `lr_decay^rollbacks` the driver should apply to the restored state.
    pub fn record_rollback(&mut self, restored_step: u64, detail: String) -> f32 {
        self.rollbacks += 1;
        self.window.clear();
        self.events.push(HealthEvent {
            step: restored_step,
            kind: "rollback".to_string(),
            detail,
        });
        self.cfg.lr_decay.powi(self.rollbacks as i32)
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

    fn monitor() -> HealthMonitor {
        HealthMonitor::new(HealthConfig {
            spike_window: 3,
            spike_factor: 4.0,
            max_rollbacks: 2,
            lr_decay: 0.5,
        })
    }

    #[test]
    fn healthy_steps_stay_healthy() {
        let mut m = monitor();
        for loss in [1.0, 0.9, 1.1, 0.8, 1.0] {
            m.begin_step();
            assert_eq!(m.observe(loss, 0.5), Verdict::Healthy);
        }
        assert_eq!(m.step(), 5);
        assert!(m.events().is_empty());
    }

    #[test]
    fn non_finite_loss_and_grad_diverge() {
        let mut m = monitor();
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
        let mut m = monitor();
        // Window not full yet: even a huge loss passes.
        m.begin_step();
        assert_eq!(m.observe(100.0, 0.1), Verdict::Healthy);
        for loss in [1.0, 1.0] {
            m.begin_step();
            assert_eq!(m.observe(loss, 0.1), Verdict::Healthy);
        }
        // Window now [100, 1, 1], mean 34 → 4×mean = 136: 135 passes.
        m.begin_step();
        assert_eq!(m.observe(135.0, 0.1), Verdict::Healthy);
        // Window [1, 1, 135], mean ~45.7 → spike at 200.
        m.begin_step();
        assert!(matches!(m.observe(200.0, 0.1), Verdict::Diverged(_)));
    }

    #[test]
    fn rollback_budget_and_compounded_decay() {
        let mut m = monitor();
        assert!(m.can_rollback());
        assert_eq!(m.record_rollback(0, "first".into()), 0.5);
        assert!(m.can_rollback());
        assert_eq!(m.record_rollback(0, "second".into()), 0.25);
        assert!(!m.can_rollback());
        m.record_degraded("out of retries".into());
        let kinds: Vec<_> = m.events().iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["rollback", "rollback", "degraded"]);
    }

    #[test]
    fn rollback_clears_spike_window() {
        let mut m = monitor();
        for loss in [1.0, 1.0, 1.0] {
            m.begin_step();
            m.observe(loss, 0.1);
        }
        m.record_rollback(0, "test".into());
        // Window cleared: the spike check is disengaged until it refills.
        m.begin_step();
        assert_eq!(m.observe(1000.0, 0.1), Verdict::Healthy);
    }
}
