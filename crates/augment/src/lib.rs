//! `rotom-augment` — data augmentation operators for Rotom.
//!
//! Three families of augmentation live here:
//!
//! * the **simple DA operators** of paper Table 3 ([`ops`]), structure-aware
//!   token/span/column/entity transformations;
//! * **InvDA** ([`invda`]), the seq2seq operator trained to invert multi-op
//!   corruption (paper §3, Algorithm 1);
//! * **MixDA** ([`mixda`]) interpolation support (the representation-level
//!   "partial" application of an operator used by the MixDA baseline);
//! * **diversity metrics** ([`diversity`](mod@diversity)) quantifying the paper's
//!   diversity/quality trade-off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrupt;
pub mod diversity;
pub mod invda;
pub mod mixda;
pub mod ops;

pub use corrupt::corrupt;
pub use diversity::{diversity, DiversityStats};
pub use invda::{InvDa, InvDaConfig};
pub use ops::{apply, apply_batch, DaContext, DaOp};
pub use rotom_text::example::{AugExample, Example};
