//! Inverse document frequency statistics.
//!
//! The index backs the blocking plane's IDF pruning: tokens whose
//! document frequency ([`IdfIndex::doc_freq`]) exceeds a ceiling are dropped
//! from the sharded inverted index, bounding posting-list length.

use crate::token::is_special;
use std::collections::{HashMap, HashSet};

/// IDF assigned to unseen tokens when the corpus was empty (no documents, or
/// only empty documents). With zero observations every token is novel, so it
/// gets a fixed positive "maximally important" score rather than the 0.0 a
/// naive `max` over an empty set would produce — 0.0 is the *minimum*
/// importance.
pub const EMPTY_CORPUS_IDF: f32 = 1.0;

/// Corpus-level IDF index.
#[derive(Debug, Clone)]
pub struct IdfIndex {
    /// Per token: document frequency and IDF.
    stats: HashMap<String, (usize, f32)>,
    num_docs: usize,
    max_idf: f32,
}

impl Default for IdfIndex {
    fn default() -> Self {
        Self::from_doc_freqs(HashMap::new(), 0)
    }
}

impl IdfIndex {
    /// Build from an iterator of token sequences (documents).
    pub fn build<'a, I>(docs: I) -> Self
    where
        I: IntoIterator<Item = &'a [String]>,
    {
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut num_docs = 0usize;
        for doc in docs {
            num_docs += 1;
            let uniq: HashSet<&str> = doc
                .iter()
                .map(|t| t.as_str())
                .filter(|t| !is_special(t))
                .collect();
            for t in uniq {
                *df.entry(t.to_string()).or_insert(0) += 1;
            }
        }
        Self::from_doc_freqs(df, num_docs)
    }

    /// Build directly from per-token document frequencies — the form the
    /// blocking plane's sharded index produces (posting-list lengths *are*
    /// document frequencies), so an IDF index can be derived from a streamed
    /// index build without retaining any documents. Takes one
    /// `(token, document frequency)` entry per token.
    pub fn from_doc_freqs(df: impl IntoIterator<Item = (String, usize)>, num_docs: usize) -> Self {
        let n = num_docs.max(1) as f32;
        let stats: HashMap<String, (usize, f32)> = df
            .into_iter()
            .map(|(t, d)| (t, (d, (n / (1.0 + d as f32)).ln().max(0.0))))
            .collect();
        // An empty corpus observed nothing: fall back to a positive default
        // so unseen tokens still read as maximally important (see
        // [`EMPTY_CORPUS_IDF`]).
        let max_idf = if stats.is_empty() {
            EMPTY_CORPUS_IDF
        } else {
            stats.values().map(|&(_, idf)| idf).fold(0.0f32, f32::max)
        };
        Self {
            stats,
            num_docs,
            max_idf,
        }
    }

    /// Number of documents seen.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Document frequency of a token: how many documents contained it
    /// (0 for unseen tokens). This is the quantity the blocking plane's
    /// df-ceiling pruning rule tests.
    pub fn doc_freq(&self, tok: &str) -> usize {
        self.stats.get(tok).map_or(0, |&(df, _)| df)
    }

    /// IDF of a token; unseen tokens get the maximum observed IDF (they are
    /// maximally "important"). On an empty corpus the maximum defaults to
    /// [`EMPTY_CORPUS_IDF`], so unseen tokens never score 0.
    pub fn idf(&self, tok: &str) -> f32 {
        self.stats.get(tok).map_or(self.max_idf, |&(_, idf)| idf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn idx() -> IdfIndex {
        let docs: Vec<Vec<String>> = vec![
            tokenize("the cat sat"),
            tokenize("the dog ran"),
            tokenize("the bird flew away"),
        ];
        let refs: Vec<&[String]> = docs.iter().map(|d| d.as_slice()).collect();
        IdfIndex::build(refs)
    }

    #[test]
    fn common_tokens_have_low_idf() {
        let i = idx();
        assert!(i.idf("the") < i.idf("cat"));
    }

    #[test]
    fn unseen_token_is_maximally_important() {
        let i = idx();
        assert_eq!(i.idf("zebra"), i.idf("cat").max(i.idf("flew")));
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let i = idx();
        assert_eq!(i.doc_freq("the"), 3);
        assert_eq!(i.doc_freq("cat"), 1);
        assert_eq!(i.doc_freq("zebra"), 0);
        assert_eq!(i.num_docs(), 3);
    }

    #[test]
    fn empty_corpus_unseen_tokens_stay_maximally_important() {
        // Regression: max_idf used to fold over an empty set to 0.0, handing
        // unseen tokens the *minimum* importance on an empty corpus.
        let empty = IdfIndex::build(std::iter::empty::<&[String]>());
        assert_eq!(empty.num_docs(), 0);
        assert_eq!(empty.idf("anything"), EMPTY_CORPUS_IDF);
        assert!(empty.idf("anything") > 0.0);
        // Default::default() is the same empty index.
        assert_eq!(IdfIndex::default().idf("x"), EMPTY_CORPUS_IDF);
    }

    #[test]
    fn from_doc_freqs_matches_build() {
        let built = idx();
        let mut df = HashMap::new();
        for t in ["the", "cat", "sat", "dog", "ran", "bird", "flew", "away"] {
            df.insert(t.to_string(), built.doc_freq(t));
        }
        let derived = IdfIndex::from_doc_freqs(df, 3);
        for t in ["the", "cat", "flew", "zebra"] {
            assert_eq!(built.idf(t), derived.idf(t), "token {t}");
        }
    }
}
