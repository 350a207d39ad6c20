//! Token and positional embeddings.

use super::Exec;
use crate::graph::NodeId;
use crate::init::Initializer;
use crate::params::{ParamId, ParamStore};
use rotom_rng::rngs::StdRng;

/// Learned embedding table mapping token ids to `dim`-wide rows.
pub struct Embedding {
    table: ParamId,
    vocab: usize,
}

impl Embedding {
    /// Register a `vocab x dim` embedding table (N(0, 0.02) init, BERT-style).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        let table = store.alloc(name, vocab, dim, Initializer::Normal(0.02), rng);
        Self { table, vocab }
    }

    /// Gather embeddings for `ids`, producing an `ids.len() x dim` node.
    ///
    /// Panics (debug) if any id is out of vocabulary.
    pub fn forward<E: Exec>(&self, ex: &mut E, store: &ParamStore, ids: &[usize]) -> NodeId {
        debug_assert!(ids.iter().all(|&i| i < self.vocab), "token id out of range");
        ex.embed(self.table, store, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;
    use rotom_rng::SeedableRng;

    #[test]
    fn lookup_shape_and_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, &mut rng, "tok", 10, 6);
        let mut tape = Tape::new();
        let e = emb.forward(&mut tape, &store, &[3, 3, 7]);
        assert_eq!((tape.value(e).rows(), tape.value(e).cols()), (3, 6));
        assert_eq!(tape.value(e).row_slice(0), tape.value(e).row_slice(1));
        assert_ne!(tape.value(e).row_slice(0), tape.value(e).row_slice(2));
    }
}
