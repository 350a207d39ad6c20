//! Brunner & Stockinger (EDBT'20): Transformer-based EM with an alternative
//! serialization.
//!
//! "The model architecture is similar to Ditto but uses a different method
//! to serialize entity records" — instead of `[COL]`/`[VAL]` markers, the
//! attribute values are concatenated directly and the two entities are
//! joined by `[SEP]`. Everything else (TinyLm encoder, \[CLS\] head,
//! fine-tuning) is shared with the Rotom baseline.

use rotom::{run_method, Method, RotomConfig, RunResult};
use rotom_datasets::em::EmDataset;
use rotom_datasets::{TaskDataset, TaskKind};
use rotom_text::example::Example;
use rotom_text::token::SEP;
use rotom_text::tokenize;
use rotom_text::Record;

/// Brunner et al. serialization: attribute values only, no markers.
pub fn serialize_plain(r: &Record) -> Vec<String> {
    let mut out = Vec::new();
    for (_, value) in &r.attrs {
        out.extend(tokenize(value));
    }
    out
}

/// Serialize an entity pair in the Brunner et al. format.
pub fn serialize_plain_pair(a: &Record, b: &Record) -> Vec<String> {
    let mut out = serialize_plain(a);
    out.push(SEP.to_string());
    out.extend(serialize_plain(b));
    out
}

/// Re-serialize an EM dataset with the plain format.
pub fn to_plain_task(data: &EmDataset) -> TaskDataset {
    let ser = |p: &rotom_datasets::LabeledPair| serialize_plain_pair(&p.left, &p.right);
    TaskDataset {
        name: format!("{} (brunner)", data.name),
        kind: TaskKind::EntityMatching,
        num_classes: 2,
        train_pool: data
            .train_pairs
            .iter()
            .map(|p| Example::new(ser(p), p.is_match as usize))
            .collect(),
        test: data
            .test_pairs
            .iter()
            .map(|p| Example::new(ser(p), p.is_match as usize))
            .collect(),
        unlabeled: data.train_pairs.iter().map(ser).collect(),
    }
}

/// Run the Brunner et al. baseline: plain-serialized task, baseline
/// fine-tuning.
pub fn run_brunner(data: &EmDataset, train_size: usize, cfg: &RotomConfig, seed: u64) -> RunResult {
    let task = to_plain_task(data);
    let train = task.sample_train(train_size, seed);
    let mut r = run_method(&task, &train, &train, Method::Baseline, cfg, None, seed);
    r.method = "Brunner et al.".to_string();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotom_datasets::em::{generate, EmConfig, EmFlavor};

    #[test]
    fn plain_serialization_has_no_markers() {
        let r = Record::new(vec![("title", "effective joins"), ("year", "2001")]);
        let toks = serialize_plain(&r);
        assert!(!toks.iter().any(|t| t == "[COL]" || t == "[VAL]"));
        assert!(toks.contains(&"effective".to_string()));
        // Attribute *names* are dropped in this format.
        assert!(!toks.contains(&"title".to_string()));
    }

    #[test]
    fn plain_pair_keeps_one_sep() {
        let r = Record::new(vec![("title", "a b")]);
        let toks = serialize_plain_pair(&r, &r);
        assert_eq!(toks.iter().filter(|t| *t == SEP).count(), 1);
    }

    #[test]
    fn brunner_baseline_runs() {
        let cfg = EmConfig {
            num_entities: 30,
            train_pairs: 60,
            test_pairs: 30,
            ..Default::default()
        };
        let data = generate(EmFlavor::DblpAcm, &cfg);
        let mut rcfg = RotomConfig::test_tiny();
        rcfg.train.epochs = 1;
        let r = run_brunner(&data, 30, &rcfg, 0);
        assert_eq!(r.method, "Brunner et al.");
        assert!((0.0..=1.0).contains(&r.accuracy));
    }
}
