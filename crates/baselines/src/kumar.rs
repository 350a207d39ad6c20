//! Kumar et al. (2020): "Data augmentation using pre-trained transformer
//! models" — label-conditioned generation.
//!
//! Kumar et al. fine-tune a generative LM to produce new training examples
//! conditioned on the class label, then train the classifier on the
//! augmented set *without any filtering* — which is exactly the gap Rotom's
//! meta-learned policy closes (paper §6.5).
//!
//! Two variants mirror the paper's table:
//!
//! * **CG w. BART** — a seq2seq model generates an example from the label
//!   token alone (free-form conditional generation);
//! * **CG w. BERT** — the seq2seq model *infills* a masked version of a real
//!   example, conditioned on the label token (conditional masked
//!   reconstruction).

use rotom::{Method, RotomConfig, RunResult};
use rotom_augment::{InvDa, InvDaConfig};
use rotom_datasets::TaskDataset;
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::example::Example;
use rotom_text::token::MASK;
use std::time::Instant;

/// Which conditional-generation variant to run.
#[derive(Debug, Clone, Copy)]
pub enum KumarVariant {
    /// Free-form generation from the label token (BART-style).
    CgBart,
    /// Conditional masked infilling (BERT-style).
    CgBert,
}

impl KumarVariant {
    /// Table-11 row label.
    pub fn name(self) -> &'static str {
        match self {
            KumarVariant::CgBart => "Kumar et al. +CG w. BART",
            KumarVariant::CgBert => "Kumar et al. +CG w. BERT",
        }
    }
}

fn label_token(label: usize) -> String {
    format!("label_{label}")
}

/// Build the conditional-generation training corpus: for BART, pairs of
/// (label token → example); for BERT, (label token + masked example →
/// example). InvDA's seq2seq trainer consumes a *corpus* and corrupts it
/// itself, so instead we construct a dedicated seq2seq via InvDA's machinery
/// by prefixing every sequence with its label token and letting corruption
/// act on the content.
fn conditional_corpus(train: &[Example]) -> Vec<Vec<String>> {
    train
        .iter()
        .map(|e| {
            let mut seq = vec![label_token(e.label)];
            seq.extend(e.tokens.iter().cloned());
            seq
        })
        .collect()
}

/// Generate `per_example` synthetic examples per training example with the
/// chosen variant.
pub(crate) fn generate_examples(
    train: &[Example],
    variant: KumarVariant,
    invda_cfg: &InvDaConfig,
    per_example: usize,
    seed: u64,
) -> Vec<Example> {
    let corpus = conditional_corpus(train);
    let mut cfg = invda_cfg.clone();
    match variant {
        KumarVariant::CgBart => {
            // Aggressive corruption: the model must regenerate most of the
            // sequence from the label prefix.
            cfg.num_corruptions = 6;
        }
        KumarVariant::CgBert => {
            cfg.num_corruptions = 2;
        }
    }
    let model = InvDa::train(&corpus, cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc6);
    let mut out = Vec::with_capacity(train.len() * per_example);
    for e in train {
        for _ in 0..per_example {
            let prompt: Vec<String> = match variant {
                KumarVariant::CgBart => vec![label_token(e.label)],
                KumarVariant::CgBert => {
                    // Mask ~30% of the tokens, keep the label prefix.
                    let mut seq = vec![label_token(e.label)];
                    for t in &e.tokens {
                        if rng.random_bool(0.3) {
                            seq.push(MASK.to_string());
                        } else {
                            seq.push(t.clone());
                        }
                    }
                    seq
                }
            };
            let mut generated = model.generate(&prompt, &mut rng);
            // Strip any label tokens the decoder emits.
            generated.retain(|t| !t.starts_with("label_") && t != MASK);
            if !generated.is_empty() {
                out.push(Example::new(generated, e.label));
            }
        }
    }
    out
}

/// Run the Kumar et al. baseline: generate, augment 1:1, fine-tune plainly.
pub fn run_kumar(
    task: &TaskDataset,
    train: &[Example],
    valid: &[Example],
    variant: KumarVariant,
    cfg: &RotomConfig,
    seed: u64,
) -> RunResult {
    let start = Instant::now();
    let synthetic = generate_examples(train, variant, &cfg.invda, 1, seed);
    let mut augmented = train.to_vec();
    augmented.extend(synthetic);
    let mut r = rotom::run_method(task, &augmented, valid, Method::Baseline, cfg, None, seed);
    r.method = variant.name().to_string();
    r.train_size = train.len();
    r.train_seconds = start.elapsed().as_secs_f32();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};

    fn task() -> TaskDataset {
        let cfg = TextClsConfig {
            train_pool: 40,
            test: 30,
            unlabeled: 30,
            seed: 4,
        };
        textcls::generate(TextClsFlavor::Trec, &cfg)
    }

    #[test]
    fn conditional_corpus_prefixes_labels() {
        let train = vec![Example::new(vec!["hello".into()], 3)];
        let corpus = conditional_corpus(&train);
        assert_eq!(corpus[0][0], "label_3");
    }

    #[test]
    fn generation_produces_labeled_examples() {
        let task = task();
        let train = task.sample_train(18, 0);
        let cfg = InvDaConfig::test_tiny();
        let synth = generate_examples(&train, KumarVariant::CgBart, &cfg, 1, 0);
        assert!(!synth.is_empty());
        for e in &synth {
            assert!(e.label < 6);
            assert!(!e.tokens.iter().any(|t| t.starts_with("label_")));
        }
    }

    #[test]
    fn kumar_variants_run() {
        let task = task();
        let train = task.sample_train(18, 1);
        let mut cfg = RotomConfig::test_tiny();
        cfg.train.epochs = 1;
        for variant in [KumarVariant::CgBart, KumarVariant::CgBert] {
            let r = run_kumar(&task, &train, &train, variant, &cfg, 1);
            assert!((0.0..=1.0).contains(&r.accuracy), "{}", r.method);
        }
    }
}
