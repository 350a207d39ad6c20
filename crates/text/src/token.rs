//! Special-token constants shared across the workspace.
//!
//! These mirror the markers the paper inserts during serialization (§2.1):
//! `[COL]`/`[VAL]` delimit attributes and values, `[SEP]` separates the two
//! entities of a pair, and the usual LM bookkeeping tokens round out the set.

/// Classification summary token (first position of every model input).
pub const CLS: &str = "[CLS]";
/// Segment separator.
pub const SEP: &str = "[SEP]";
/// Padding token.
pub const PAD: &str = "[PAD]";
/// Unknown/out-of-vocabulary token.
pub const UNK: &str = "[UNK]";
/// Masked-LM mask token.
pub const MASK: &str = "[MASK]";
/// Start-of-attribute marker.
pub const COL: &str = "[COL]";
/// Start-of-value marker.
pub const VAL: &str = "[VAL]";
/// Sequence start (decoder input).
pub const BOS: &str = "[BOS]";
/// Sequence end (decoder target).
pub const EOS: &str = "[EOS]";

/// All special tokens in canonical order; the vocabulary assigns them the
/// lowest ids in this order.
pub const SPECIAL_TOKENS: [&str; 9] = [PAD, UNK, CLS, SEP, MASK, COL, VAL, BOS, EOS];

/// True if `tok` is one of the special markers.
pub fn is_special(tok: &str) -> bool {
    SPECIAL_TOKENS.contains(&tok)
}

/// True if `tok` is a structural marker ([COL]/[VAL]/[SEP]) that DA operators
/// must never delete, move, or replace.
pub fn is_structural(tok: &str) -> bool {
    matches!(tok, COL | VAL | SEP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_token_membership() {
        assert!(is_special(CLS));
        assert!(is_special(COL));
        assert!(!is_special("databases"));
    }

    #[test]
    fn structural_subset_of_special() {
        for t in SPECIAL_TOKENS {
            if is_structural(t) {
                assert!(is_special(t));
            }
        }
        assert!(is_structural(SEP));
        assert!(!is_structural(CLS));
    }
}
