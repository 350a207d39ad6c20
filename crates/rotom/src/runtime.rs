//! Fault-tolerant training runtime: periodic full-state checkpoints,
//! crash-safe resume, and health-guarded recovery.
//!
//! [`FtConfig`] configures a run of
//! [`run_method_ft`](crate::pipeline::run_method_ft):
//!
//! * **Checkpointing** — at every epoch boundary the complete training state
//!   (model parameters, optimizer moments, learning rate, every RNG stream,
//!   the meta models `M_F`/`M_W` with their optimizers, the best-snapshot
//!   and validation curve) is captured into a
//!   [`StateBag`] and, when a checkpoint path is set,
//!   written atomically with an integrity footer.
//! * **Resume** — with `resume = true`, a run restarts from the latest
//!   checkpoint and continues **bit-identically** to a run that was never
//!   interrupted: the deterministic pre-loop work (pre-training, InvDA,
//!   model construction) is replayed from the same seeds, then every mutable
//!   piece of loop state is restored from the bag.
//! * **Health guarding** — every optimizer step is monitored
//!   ([`HealthMonitor`]); a divergent step (non-finite loss/gradient, loss
//!   spike) rolls the run back to the last good epoch boundary with a
//!   decayed learning rate, and after `MAX_ROLLBACKS` (3, a constant in
//!   `rotom_nn::health`) failed retries the run degrades gracefully to the
//!   best snapshot seen instead of panicking.
//!
//! Fault injection for tests and CI is provided by
//! [`rotom_nn::faultpoint`] (`ROTOM_FAULT=kill@step=37`, `nan_grad@step=12`,
//! `torn_checkpoint`, …).

use rotom_nn::{CheckpointError, HealthEvent, HealthMonitor, StateBag};
use std::path::PathBuf;

/// Configuration of the fault-tolerant runtime.
#[derive(Debug, Clone, Default)]
pub struct FtConfig {
    /// Checkpoint file path. `None` keeps checkpoints in memory only (still
    /// enabling health rollback, but not crash resume).
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` if it exists (a missing file starts fresh).
    pub resume: bool,
    /// Write the checkpoint file every `n` epochs (0 behaves as 1).
    pub every_epochs: usize,
}

impl FtConfig {
    /// Checkpoint to `path` every epoch.
    pub fn with_checkpoint(path: impl Into<PathBuf>) -> Self {
        Self {
            checkpoint: Some(path.into()),
            ..Self::default()
        }
    }

    /// Same as [`with_checkpoint`](Self::with_checkpoint) but resuming from
    /// the file when present.
    pub fn resume_from(path: impl Into<PathBuf>) -> Self {
        Self {
            checkpoint: Some(path.into()),
            resume: true,
            ..Self::default()
        }
    }
}

/// What the fault-tolerant runtime did during a run.
#[derive(Debug, Default)]
pub struct FtReport {
    /// Epoch the run resumed from, when it resumed at all.
    pub resumed_from_epoch: Option<usize>,
    /// Number of checkpoint files written.
    pub checkpoints_written: usize,
    /// Every recorded health incident (divergences, rollbacks, degradation).
    pub events: Vec<HealthEvent>,
    /// Guarded optimizer steps along the surviving trajectory (the counter
    /// rewinds with rollbacks and is restored on resume).
    pub steps: u64,
    /// Whether the run exhausted its rollback budget and degraded to the
    /// best snapshot instead of finishing all epochs.
    pub degraded: bool,
}

/// Live state of one fault-tolerant run (created by `run_method_ft`,
/// threaded through the epoch loop).
pub(crate) struct FtSession {
    pub(crate) cfg: FtConfig,
    pub(crate) monitor: HealthMonitor,
    /// Full loop state at the last completed epoch boundary (or the initial
    /// state), used for health rollback even when no file path is set.
    pub(crate) last_good: Option<StateBag>,
    /// Checkpoint loaded from disk, consumed by the loop on startup.
    resume_bag: Option<StateBag>,
    pub(crate) report: FtReport,
    /// Run identity (method, seed, epoch budget, …) — a resumed checkpoint
    /// must match or the load is rejected.
    pub(crate) tag: Vec<u64>,
}

impl FtSession {
    pub(crate) fn new(cfg: FtConfig, tag: Vec<u64>, resume_bag: Option<StateBag>) -> Self {
        let monitor = HealthMonitor::new();
        Self {
            cfg,
            monitor,
            last_good: None,
            resume_bag,
            report: FtReport::default(),
            tag,
        }
    }

    /// Take the resume checkpoint (first call only).
    pub(crate) fn take_resume_bag(&mut self) -> Option<StateBag> {
        self.resume_bag.take()
    }

    /// Persist `bag` if a checkpoint file is configured and `epoch` is due.
    pub(crate) fn on_epoch_end(
        &mut self,
        epoch: usize,
        bag: &StateBag,
    ) -> Result<(), CheckpointError> {
        let every = self.cfg.every_epochs.max(1);
        if let Some(path) = &self.cfg.checkpoint {
            if epoch.is_multiple_of(every) {
                let _span = rotom_nn::telemetry::span("ft.checkpoint_write");
                bag.save_atomic(path)?;
                self.report.checkpoints_written += 1;
                rotom_nn::telemetry::counter("ft.checkpoint", 1);
            }
        }
        Ok(())
    }
}
