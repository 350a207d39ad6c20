//! `rotom-meta` — Rotom's meta-learning framework for selecting and
//! combining augmented examples (paper §4–§5).
//!
//! The pieces:
//!
//! * [`FilterModel`] — the lightweight perceptron `M_F` that drops undesired
//!   augmented examples, trained with REINFORCE (Eq. 3);
//! * [`WeightModel`] — the LM-based regressor `M_W` that assigns example
//!   weights, trained through a finite-difference second-order gradient
//!   (Eq. 4);
//! * [`MetaTrainer`] — Algorithm 2: jointly trains `M`, `M_F`, and `M_W` by
//!   alternating target updates with policy updates driven by the validation
//!   loss at the virtual step `M' = M − η∇M`;
//! * [`sharpen`] — the two label-sharpening variants (Eq. 6–7) powering the
//!   semi-supervised extension.
//!
//! The target model is abstracted behind [`MetaTarget`], so the same trainer
//! drives the TinyLm classifier, the GRU baselines, or the bag-of-words toy
//! model in this crate's tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod sharpen;
pub mod target;
pub mod trainer;
pub mod weight;

pub use filter::FilterModel;
pub use sharpen::{guess_label, sharpen_v1, sharpen_v2};
pub use target::{MetaTarget, WeightedItem};
pub use trainer::{guard_step, AblationConfig, EpochStats, MetaConfig, MetaTrainer, SslConfig};
pub use weight::{WeightBatch, WeightModel};
