//! `rotom` — a meta-learned data augmentation framework for entity matching,
//! data cleaning, text classification, and beyond.
//!
//! A from-scratch Rust reproduction of *Rotom* (Miao, Li, Wang — SIGMOD
//! 2021). Rotom casts all three tasks as sequence classification over
//! serialized inputs, fine-tunes a (pre-trained) language model, and boosts
//! low-resource performance with:
//!
//! * **InvDA** (`rotom_augment::invda`) — a seq2seq augmentation operator
//!   trained to invert multi-operator corruption;
//! * a **meta-learned policy** (`rotom_meta`) that filters and weights
//!   augmented examples by descending the validation loss jointly with the
//!   target model;
//! * a **semi-supervised extension** that feeds sharpened guessed labels for
//!   unlabeled data through the same weighting machinery.
//!
//! # Quickstart
//!
//! ```
//! use rotom::{run_method, Method, RotomConfig};
//! use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
//!
//! // A small synthetic TREC-style intent classification task.
//! let cfg = TextClsConfig { train_pool: 60, test: 30, unlabeled: 30, seed: 1 };
//! let task = textcls::generate(TextClsFlavor::Trec, &cfg);
//! let train = task.sample_train(30, 0);
//!
//! let result = run_method(
//!     &task, &train, &train,
//!     Method::Baseline,
//!     &RotomConfig::test_tiny(),
//!     None,
//!     0,
//! );
//! println!("{}: accuracy {:.3}", result.dataset, result.accuracy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod runtime;

pub use config::{ModelConfig, RotomConfig, TrainConfig};
pub use metrics::{accuracy, mean_std, prf1, MetricsSnapshot, PrF1};
pub use model::TinyLm;
pub use pipeline::{
    default_op, evaluate, prepare_base, run_method, run_method_ft, run_method_with_base, Method,
    PretrainedBase, RunResult,
};
pub use runtime::{FtConfig, FtReport};

// Re-export the observability plane (`ROTOM_TELEMETRY`) so downstream users
// and the report tooling share one record schema.
pub use rotom_nn::telemetry;

// Re-export the pieces users compose with.
pub use rotom_augment::{DaContext, DaOp, InvDa, InvDaConfig};
pub use rotom_datasets::{TaskDataset, TaskKind};
pub use rotom_meta::{
    AblationConfig, MetaConfig, MetaTarget, MetaTrainer, SslConfig, WeightedItem,
};
