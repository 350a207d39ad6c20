//! Task-level dataset representation and sampling utilities.

use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::example::Example;

/// Which of Rotom's three supported task families a dataset belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskKind {
    /// Entity matching (binary: match / no-match).
    EntityMatching,
    /// Error detection (binary: clean / dirty).
    ErrorDetection,
    /// Text classification (k classes).
    TextClassification,
}

/// A fully materialized sequence-classification dataset: the common currency
/// between the generators, Rotom's training pipeline, and the benchmark
/// harness.
#[derive(Debug)]
pub struct TaskDataset {
    /// Dataset name (e.g. "Abt-Buy", "beers", "TREC").
    pub name: String,
    /// Task family.
    pub kind: TaskKind,
    /// Number of classes.
    pub num_classes: usize,
    /// Pool the experiments sample train/valid sets from.
    pub train_pool: Vec<Example>,
    /// Held-out evaluation examples.
    pub test: Vec<Example>,
    /// Unlabeled sequences for InvDA training and semi-supervised learning.
    pub unlabeled: Vec<Vec<String>>,
}

impl TaskDataset {
    /// Uniformly sample `size` examples from the train pool (without
    /// replacement; clamped to the pool size). Deterministic per `seed`.
    pub fn sample_train(&self, size: usize, seed: u64) -> Vec<Example> {
        let mut rng = StdRng::seed_from_u64(seed);
        sample_without_replacement(&self.train_pool, size, &mut rng)
    }

    /// Sample a class-balanced training set of (approximately) `size`
    /// examples: `size / num_classes` per class, padded from leftovers when a
    /// class is too small. Used by the EDT experiments, which balance
    /// clean/dirty cells (§6.2).
    pub fn sample_train_balanced(&self, size: usize, seed: u64) -> Vec<Example> {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_class = (size / self.num_classes).max(1);
        let mut by_class: Vec<Vec<&Example>> = vec![Vec::new(); self.num_classes];
        for ex in &self.train_pool {
            by_class[ex.label].push(ex);
        }
        let mut out: Vec<Example> = Vec::with_capacity(size);
        let mut leftovers: Vec<&Example> = Vec::new();
        for class_pool in &mut by_class {
            rng.shuffle(class_pool);
            let take = per_class.min(class_pool.len());
            out.extend(class_pool[..take].iter().map(|e| (*e).clone()));
            leftovers.extend(class_pool[take..].iter().copied());
        }
        rng.shuffle(&mut leftovers);
        while out.len() < size {
            match leftovers.pop() {
                Some(e) => out.push(e.clone()),
                None => break,
            }
        }
        rng.shuffle(&mut out);
        out
    }

    /// Up to `n` unlabeled sequences, uniformly sampled.
    pub fn sample_unlabeled(&self, n: usize, seed: u64) -> Vec<Vec<String>> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        sample_without_replacement(&self.unlabeled, n, &mut rng)
    }
}

/// Uniform sample of `n` items without replacement (clamped).
pub fn sample_without_replacement<T: Clone>(pool: &[T], n: usize, rng: &mut StdRng) -> Vec<T> {
    let n = n.min(pool.len());
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in 0..n {
        let j = rng.random_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..n].iter().map(|&i| pool[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TaskDataset {
        let train_pool = (0..100)
            .map(|i| Example::new(vec![format!("tok{i}")], i % 2))
            .collect();
        TaskDataset {
            name: "toy".into(),
            kind: TaskKind::TextClassification,
            num_classes: 2,
            train_pool,
            test: Vec::new(),
            unlabeled: (0..50).map(|i| vec![format!("u{i}")]).collect(),
        }
    }

    #[test]
    fn sample_train_is_deterministic_per_seed() {
        let d = toy();
        assert_eq!(d.sample_train(10, 1), d.sample_train(10, 1));
        assert_ne!(d.sample_train(10, 1), d.sample_train(10, 2));
    }

    #[test]
    fn sample_train_without_replacement() {
        let d = toy();
        let s = d.sample_train(100, 3);
        let mut toks: Vec<&str> = s.iter().map(|e| e.tokens[0].as_str()).collect();
        toks.sort_unstable();
        toks.dedup();
        assert_eq!(toks.len(), 100);
    }

    #[test]
    fn balanced_sample_is_balanced() {
        let d = toy();
        let s = d.sample_train_balanced(40, 4);
        let pos = s.iter().filter(|e| e.label == 1).count();
        assert_eq!(pos, 20);
        assert_eq!(s.len(), 40);
    }

    #[test]
    fn balanced_sample_pads_from_leftovers() {
        let mut d = toy();
        // Make class 1 tiny: only 3 examples.
        d.train_pool
            .retain(|e| e.label == 0 || e.tokens[0].ends_with('1'));
        d.train_pool.truncate(53);
        let s = d.sample_train_balanced(40, 5);
        assert_eq!(s.len(), 40);
    }

    #[test]
    fn unlabeled_sampling_clamps() {
        let d = toy();
        assert_eq!(d.sample_unlabeled(500, 0).len(), 50);
    }
}
