//! `rotom-text` — tokenization, vocabulary, serialization, and lexical
//! statistics shared by every Rotom task.
//!
//! Rotom casts entity matching, error detection, and text classification into
//! one *sequence classification* interface (paper §2.1) by serializing data
//! entries with `[COL]`/`[VAL]`/`[SEP]` markers. This crate owns that
//! serialization, the tokenizer and vocabulary of the stand-in language
//! models, and the synonym thesaurus used by replacement operators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod example;
pub mod serialize;
pub mod thesaurus;
pub mod token;
pub mod tokenizer;
pub mod vocab;

pub use example::{AugExample, Example};
pub use serialize::{
    parse_structure, serialize_cell, serialize_pair, serialize_record, Record, Structure,
};
pub use thesaurus::Thesaurus;
pub use tokenizer::{detokenize, for_each_token, tokenize};
pub use vocab::Vocab;
