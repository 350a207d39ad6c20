//! `rotom-datasets` — synthetic benchmark generators for the three Rotom
//! task families.
//!
//! The paper evaluates on public benchmarks (Tables 6 and 7); offline we
//! regenerate structurally equivalent synthetic datasets:
//!
//! * [`em`] — five entity-matching flavors (plus dirty variants): record
//!   pairs rendered from shared latent entities by two noisy "sources",
//!   with blocking-style hard negatives.
//! * [`edt`] — five error-detection flavors: domain-grammar spreadsheets
//!   with injected errors from the Raha taxonomy and exact ground-truth
//!   masks.
//! * [`textcls`] — eight text-classification flavors with Table 7's class
//!   counts, generated from per-class template grammars.
//!
//! All generators are deterministic per seed and emit the common
//! [`TaskDataset`] sequence-classification form. [`csv`] reads tables in
//! the CSV shape the real suites ship in.
//!
//! [`blocking`] scales the EM candidate-generation step to million-record
//! collections: a sharded IDF-pruned inverted index with an optional
//! minhash/LSH tier and a streaming bounded-memory pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod csv;
pub mod edt;
pub mod em;
pub mod perturb;
pub mod task;
pub mod textcls;
pub mod words;

pub use blocking::{
    stream_candidates, BlockingConfig, BlockingStats, IndexBuilder, IndexStats, LshParams,
    ShardedIndex,
};
pub use edt::{EdtConfig, EdtDataset, EdtFlavor};
pub use em::{CorpusConfig, CorpusSide, EmConfig, EmCorpus, EmDataset, EmFlavor, LabeledPair};
pub use task::{TaskDataset, TaskKind};
pub use textcls::{TextClsConfig, TextClsFlavor};
