//! Token vocabulary with frequency-based construction.

use crate::token::{SPECIAL_TOKENS, UNK};
use std::collections::HashMap;

/// Bidirectional token ↔ id map. Special tokens always occupy the lowest ids
/// in [`SPECIAL_TOKENS`] order, so `PAD = 0`, `UNK = 1`, `CLS = 2`, ….
#[derive(Debug, Clone)]
pub struct Vocab {
    tokens: Vec<String>,
    index: HashMap<String, usize>,
}

impl Vocab {
    /// Build a vocabulary from an iterator of token sequences: the 9 special
    /// tokens, the 95 `##c` character-fallback tokens (printable ASCII), then
    /// the most frequent words until it holds `max_size` entries. The 104
    /// fixed entries are always kept, so a `max_size` of 104 or less keeps
    /// no word: a character-level vocabulary of exactly 104 entries.
    pub fn build<'a, I>(sequences: I, max_size: usize) -> Self
    where
        I: IntoIterator<Item = &'a [String]>,
    {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for seq in sequences {
            for tok in seq {
                if !crate::token::is_special(tok) {
                    *counts.entry(tok.as_str()).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(&str, usize)> = counts.into_iter().collect();
        // Stable order: by count desc, then lexicographic for determinism.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

        // Reserve room for single-character fallback tokens: OOV words are
        // encoded character-by-character (a poor man's subword tokenizer, so
        // the models can *see* typos and format breaks the way BERT's
        // WordPiece does).
        let char_tokens: Vec<String> = (32u8..127)
            .map(|b| format!("##{}", char::from(b)))
            .collect();
        let budget = max_size.saturating_sub(SPECIAL_TOKENS.len() + char_tokens.len());
        let mut tokens: Vec<String> = SPECIAL_TOKENS.iter().map(|s| s.to_string()).collect();
        tokens.extend(char_tokens);
        tokens.extend(ranked.into_iter().take(budget).map(|(t, _)| t.to_string()));
        let index = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        Self { tokens, index }
    }

    /// Encode with character fallback: in-vocabulary tokens map to their id;
    /// OOV tokens are split into `##c` single-character tokens (non-ASCII
    /// characters map to `[UNK]`).
    pub fn encode_fallback(&self, tokens: &[String]) -> Vec<usize> {
        let mut out = Vec::with_capacity(tokens.len());
        for t in tokens {
            self.fallback_ids(t, |id| out.push(id));
        }
        out
    }

    /// Like [`encode_fallback`](Self::encode_fallback) but also returns, for
    /// each emitted id, the index of the source token it came from (so
    /// per-token features can be aligned with the expanded id sequence).
    pub fn encode_fallback_map(&self, tokens: &[String]) -> (Vec<usize>, Vec<usize>) {
        let mut ids = Vec::with_capacity(tokens.len());
        let mut src = Vec::with_capacity(tokens.len());
        for (ti, t) in tokens.iter().enumerate() {
            self.fallback_ids(t, |id| {
                ids.push(id);
                src.push(ti);
            });
        }
        (ids, src)
    }

    /// The char-fallback rule for one token: `emit` its id when it is in
    /// the vocabulary, else one `##c` id per character (`[UNK]` for a
    /// character outside the fallback set).
    fn fallback_ids(&self, token: &str, mut emit: impl FnMut(usize)) {
        match self.index.get(token) {
            Some(&id) => emit(id),
            None => {
                let unk = self.index[UNK];
                for c in token.chars() {
                    let key = format!("##{c}");
                    emit(self.index.get(key.as_str()).copied().unwrap_or(unk));
                }
            }
        }
    }

    /// Number of tokens (including specials).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the vocabulary holds only special tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= SPECIAL_TOKENS.len()
    }

    /// Id of `tok`, or the `[UNK]` id when out of vocabulary.
    pub fn id(&self, tok: &str) -> usize {
        self.index
            .get(tok)
            .copied()
            .unwrap_or_else(|| self.index[UNK])
    }

    /// Token string for `id`. Panics when out of range.
    pub fn token(&self, id: usize) -> &str {
        &self.tokens[id]
    }

    /// Encode a token sequence to ids (OOV → `[UNK]`).
    pub fn encode(&self, tokens: &[String]) -> Vec<usize> {
        tokens.iter().map(|t| self.id(t)).collect()
    }

    /// Decode ids back to token strings.
    pub fn decode(&self, ids: &[usize]) -> Vec<String> {
        ids.iter().map(|&i| self.tokens[i].clone()).collect()
    }

    /// Id of a named special token. Panics if `tok` is not special.
    pub fn special_id(&self, tok: &str) -> usize {
        debug_assert!(crate::token::is_special(tok));
        self.index[tok]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::{CLS, PAD};
    use crate::tokenizer::tokenize;

    fn sample_vocab() -> Vocab {
        let seqs: Vec<Vec<String>> = vec![
            tokenize("the quick brown fox"),
            tokenize("the lazy dog"),
            tokenize("the quick dog"),
        ];
        let refs: Vec<&[String]> = seqs.iter().map(|s| s.as_slice()).collect();
        // 9 specials + 95 char-fallback tokens leave room for the words.
        Vocab::build(refs, 200)
    }

    #[test]
    fn specials_get_lowest_ids() {
        let v = sample_vocab();
        assert_eq!(v.id(PAD), 0);
        assert_eq!(v.id(CLS), 2);
    }

    #[test]
    fn frequency_ordering() {
        let v = sample_vocab();
        // "the" (3x) ranks before "dog"/"quick" (2x) which rank before 1x words.
        assert!(v.id("the") < v.id("dog"));
        assert!(v.id("dog") < v.id("fox"));
    }

    #[test]
    fn oov_maps_to_unk() {
        let v = sample_vocab();
        assert_eq!(v.id("zebra"), v.special_id(UNK));
    }

    #[test]
    fn encode_decode_roundtrip_in_vocab() {
        let v = sample_vocab();
        let toks = tokenize("the quick dog");
        assert_eq!(v.decode(&v.encode(&toks)), toks);
    }

    #[test]
    fn fallback_splits_oov_into_chars() {
        let v = sample_vocab();
        let ids = v.encode_fallback(&["quick".to_string(), "zebra7".to_string()]);
        // "quick" is one id; "zebra7" becomes 6 character ids, none UNK.
        assert_eq!(ids.len(), 7);
        assert_eq!(ids[0], v.id("quick"));
        let unk = v.special_id(UNK);
        assert!(ids[1..].iter().all(|&i| i != unk));
        assert_eq!(v.token(ids[6]), "##7");
    }

    #[test]
    fn fallback_matches_encode_for_in_vocab() {
        let v = sample_vocab();
        let toks = tokenize("the quick dog");
        assert_eq!(v.encode_fallback(&toks), v.encode(&toks));
    }

    #[test]
    fn fixed_entries_are_a_floor_below_which_no_word_is_kept() {
        let seqs: Vec<Vec<String>> = vec![tokenize("a b b")];
        for max_size in [0, 32, 104] {
            let v = Vocab::build(seqs.iter().map(|s| s.as_slice()), max_size);
            assert_eq!(v.len(), 104, "max_size {max_size}");
            assert_eq!(v.id("b"), v.special_id(UNK), "max_size {max_size}");
        }
        let v = Vocab::build(seqs.iter().map(|s| s.as_slice()), 105);
        assert_eq!((v.len(), v.id("b")), (105, 104));
        assert_eq!(v.id("a"), v.special_id(UNK));
    }

    #[test]
    fn max_size_respected() {
        // 9 specials + 95 fallback chars = 104 fixed entries; a budget of
        // 110 keeps only the 6 most frequent of the 10 words.
        let seqs: Vec<Vec<String>> = vec![tokenize("a b c d e f g h i j")];
        let refs: Vec<&[String]> = seqs.iter().map(|s| s.as_slice()).collect();
        let v = Vocab::build(refs, 110);
        assert_eq!(v.len(), 110);
    }
}
