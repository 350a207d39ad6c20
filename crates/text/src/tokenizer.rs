//! Whitespace + punctuation tokenizer.
//!
//! The paper tokenizes with the pre-trained LM's subword tokenizer; our
//! stand-in models use a word-level vocabulary, so the tokenizer here is a
//! normalizing word splitter that (a) preserves special tokens intact,
//! (b) splits punctuation off word boundaries, and (c) round-trips through
//! [`detokenize`].

use crate::token::is_special;

/// Tokenize `text` into lowercase word / punctuation / special tokens.
///
/// Special tokens (e.g. `[COL]`) are preserved case-sensitively as single
/// tokens; everything else is lowercased, and boundary punctuation is split
/// into its own tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, &mut String::new(), |tok| out.push(tok.to_string()));
    out
}

/// Call `f` on each token [`tokenize`] returns for `text`, in order, without
/// allocating per token: punctuation and words that are already lowercase
/// are slices of `text`, and an ASCII word holding an uppercase letter is
/// lowercased into `scratch` (a non-ASCII word goes through
/// [`str::to_lowercase`], whose final-sigma rule needs the whole word).
///
/// A whitespace-separated word that is not a special token sheds ASCII
/// punctuation from both ends, one character at a time, for as long as more
/// than one character is left; each shed character is its own token.
pub fn for_each_token(text: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    for raw in text.split_whitespace() {
        if is_special(raw) {
            f(raw);
            continue;
        }
        // ASCII punctuation is one byte and never part of a multi-byte
        // character, so the ends can be stripped bytewise. The rule counts
        // characters, but next to a one-byte end "more than one character
        // left" and "more than one byte left" are the same test.
        let bytes = raw.as_bytes();
        let (mut lo, mut hi) = (0, raw.len());
        while hi - lo > 1 && bytes[lo].is_ascii_punctuation() {
            lo += 1;
        }
        while hi - lo > 1 && bytes[hi - 1].is_ascii_punctuation() {
            hi -= 1;
        }
        for i in 0..lo {
            f(&raw[i..i + 1]);
        }
        let word = &raw[lo..hi];
        if !word.is_ascii() {
            f(&word.to_lowercase());
        } else if word.bytes().any(|b| b.is_ascii_uppercase()) {
            scratch.clear();
            scratch.push_str(word);
            scratch.make_ascii_lowercase();
            f(scratch);
        } else {
            f(word);
        }
        for i in hi..raw.len() {
            f(&raw[i..i + 1]);
        }
    }
}

/// Join tokens with single spaces (inverse of [`tokenize`] on normalized
/// token streams).
pub fn detokenize(tokens: &[String]) -> String {
    tokens.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        tokenize(s)
    }

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(
            toks("Where is the Orange Bowl?"),
            ["where", "is", "the", "orange", "bowl", "?"]
        );
    }

    #[test]
    fn preserves_special_tokens() {
        assert_eq!(
            toks("[COL] Name [VAL] Google LLC"),
            ["[COL]", "name", "[VAL]", "google", "llc"]
        );
    }

    #[test]
    fn splits_boundary_punctuation_only() {
        // Interior punctuation (hyphens, dots in model numbers) stays intact.
        assert_eq!(toks("x-100.5,"), ["x-100.5", ","]);
        assert_eq!(toks("(866)"), ["(", "866", ")"]);
    }

    #[test]
    fn roundtrip_on_normalized_text() {
        let t = toks("effective timestamping in relational databases");
        assert_eq!(tokenize(&detokenize(&t)), t);
    }

    #[test]
    fn lone_punctuation_survives() {
        assert_eq!(toks("- -"), ["-", "-"]);
    }

    /// The tokenizer as it was before [`for_each_token`]: three allocations
    /// per word. Kept as the oracle the visitor must reproduce exactly.
    fn oracle_tokenize(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for raw in text.split_whitespace() {
            if is_special(raw) {
                out.push(raw.to_string());
                continue;
            }
            oracle_split_word(raw, &mut out);
        }
        out
    }

    fn oracle_split_word(raw: &str, out: &mut Vec<String>) {
        let mut chars: Vec<char> = raw.chars().collect();
        let mut lead = Vec::new();
        while let Some(&c) = chars.first() {
            if c.is_ascii_punctuation() && chars.len() > 1 {
                lead.push(c);
                chars.remove(0);
            } else {
                break;
            }
        }
        let mut trail = Vec::new();
        while let Some(&c) = chars.last() {
            if c.is_ascii_punctuation() && chars.len() > 1 {
                trail.push(c);
                chars.pop();
            } else {
                break;
            }
        }
        for c in lead {
            out.push(c.to_string());
        }
        if !chars.is_empty() {
            out.push(chars.into_iter().collect::<String>().to_lowercase());
        }
        for c in trail.into_iter().rev() {
            out.push(c.to_string());
        }
    }

    /// A seeded random word: uppercase ASCII, boundary punctuation runs,
    /// special tokens, digits with interior punctuation, and non-ASCII
    /// letters whose lowercase changes length or depends on context.
    fn random_word(rng: &mut rotom_rng::rngs::StdRng) -> String {
        use rotom_rng::RngExt;
        const PIECES: &[&str] = &[
            "abc", "Orange", "BOWL", "x", "Q", "x-100.5", "866", "3.5mm", "v2", "İ", "Σ", "ΟΔΟΣ",
            "ẞ", "Straße", "ǅ", "é", "ß", "ﬁ", "日本", "[COL]", "[SEP]", "[col]", "...", "-", "(",
            ")", ",", "?", "'", "\"", "[", "]",
        ];
        const PUNCT: &[u8] = b".,;:!?-()[]'\"/";
        let mut w = String::new();
        for _ in 0..rng.random_range(0..3usize) {
            w.push(*rng.choose(PUNCT).unwrap() as char);
        }
        for _ in 0..rng.random_range(0..3usize) {
            w.push_str(rng.choose(PIECES).unwrap());
        }
        for _ in 0..rng.random_range(0..3usize) {
            w.push(*rng.choose(PUNCT).unwrap() as char);
        }
        w
    }

    #[test]
    fn visitor_matches_the_allocating_oracle_on_seeded_strings() {
        use rotom_rng::{RngExt, SeedableRng};
        const SPACES: &[&str] = &[" ", "  ", "\t", "\n", "\u{a0}", " \u{2003}"];
        let mut rng = rotom_rng::rngs::StdRng::seed_from_u64(0x70c);
        let mut scratch = String::new();
        for case in 0..10_000 {
            let mut text = String::new();
            for _ in 0..rng.random_range(0..8usize) {
                text.push_str(rng.choose(SPACES).unwrap());
                text.push_str(&random_word(&mut rng));
            }
            let mut got = Vec::new();
            for_each_token(&text, &mut scratch, |t| got.push(t.to_string()));
            let want = oracle_tokenize(&text);
            assert_eq!(got, want, "case {case}: {text:?}");
            assert_eq!(tokenize(&text), want, "case {case}: {text:?}");
        }
        // Fixed cases the draw must not be relied on to reach.
        for text in [
            "(866)",
            "...",
            "-",
            ".İ.",
            "ΟΔΟΣ,",
            "'ẞ'",
            "a\u{a0}B",
            "[SEP].",
        ] {
            assert_eq!(tokenize(text), oracle_tokenize(text), "{text:?}");
        }
    }
}
