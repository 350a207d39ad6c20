//! `rotom-baselines` — the comparison systems of the paper's evaluation.
//!
//! * [`deepmatcher`] — DeepMatcher (GRU + attention hybrid) and the
//!   DM+TinyLm variant (Table 8);
//! * [`brunner`] — Brunner & Stockinger's alternative serialization over the
//!   same LM (Table 8);
//! * [`raha`] — the Raha ensemble error-detection system (Table 9);
//! * [`gridsearch`] — the operator-enumeration practice Rotom replaces
//!   (the 22× cost comparison of §6.6);
//! * [`hu`] — Hu et al.'s learned DA + learned weighting (Table 11, left);
//! * [`kumar`] — Kumar et al.'s label-conditioned generation (Table 11,
//!   right).

#![warn(missing_docs)]

pub mod brunner;
pub mod deepmatcher;
pub mod gridsearch;
pub mod hu;
pub mod kumar;
pub mod raha;

pub use brunner::{run_brunner, serialize_plain, serialize_plain_pair};
pub use deepmatcher::{DeepMatcher, DmConfig, DmEncoder};
pub use gridsearch::{grid_search, Grid, GridSearchResult};
pub use hu::{run_hu, HuVariant, LearnedDaOp};
pub use kumar::{generate_examples, run_kumar, KumarVariant};
pub use raha::{run_raha, Raha, RahaResult};
