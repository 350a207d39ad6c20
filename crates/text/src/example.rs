//! Training-example types shared by the augmentation and meta-learning
//! layers.

/// A labeled, serialized training example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Serialized token sequence (see `rotom_text::serialize`).
    pub tokens: Vec<String>,
    /// Class label index.
    pub label: usize,
}

impl Example {
    /// Create an example from tokens and a label.
    pub fn new(tokens: Vec<String>, label: usize) -> Self {
        Self { tokens, label }
    }
}

/// An augmented example `e = (x, x̂, y)` (paper Definition 4.1): the original
/// sequence, the augmented sequence, and the (inherited) label.
#[derive(Debug)]
pub struct AugExample {
    /// Original sequence `x`.
    pub orig: Vec<String>,
    /// Augmented sequence `x̂`.
    pub aug: Vec<String>,
    /// Label `y` inherited from the original.
    pub label: usize,
}

impl AugExample {
    /// An "identity" augmentation (x̂ = x); original training examples enter
    /// the meta-learning batch in this form.
    pub fn identity(ex: &Example) -> Self {
        Self {
            orig: ex.tokens.clone(),
            aug: ex.tokens.clone(),
            label: ex.label,
        }
    }

    /// Pair an example with an augmented token sequence.
    pub fn from_example(ex: &Example, aug: Vec<String>) -> Self {
        Self {
            orig: ex.tokens.clone(),
            aug,
            label: ex.label,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_augmentation_copies_tokens() {
        let ex = Example::new(vec!["a".into(), "b".into()], 1);
        let aug = AugExample::identity(&ex);
        assert_eq!(aug.orig, aug.aug);
        assert_eq!(aug.label, 1);
    }
}
