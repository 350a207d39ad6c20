//! The serving plane's score cache: input tokens → class probabilities.
//!
//! Serving is the one place where inputs repeat against frozen weights (a
//! client re-asks about a record pair it asked about before), so each
//! [`TaskPlane`](crate::TaskPlane) owns one of these beside its model. A
//! training run moves the parameters at every step, so it has nothing to
//! memoize. The plane clears the entries whenever it swaps weights; the
//! counters stay cumulative across swaps.
//!
//! A hit returns the stored probabilities, which are a copy of what the
//! model computed for the same tokens, so caching never changes a score.
//! Entries are matched on the full key; the FNV hash is only a bucket
//! index. At capacity the least-recently-used entry is evicted in O(1):
//! entries live in a slab threaded onto an intrusive doubly-linked recency
//! list (head = most recent touch, tail = victim), so a hit is one unlink
//! and one relink, and an eviction pops the tail.

use crate::metrics::CacheStats;
use rotom_rng::fnv1a64;
use std::collections::HashMap;

/// Sentinel slab index for "no entry" in the intrusive recency list.
const NIL: u32 = u32::MAX;

/// Ends every token in a key. UTF-8 never contains the byte `0xFF`, so the
/// key of a token sequence is unambiguous and one byte longer per token
/// than its text.
const TOKEN_END: u8 = 0xFF;

/// One cached scoring: full key, probabilities, and the recency links
/// (slab indices).
struct Entry {
    key: Box<[u8]>,
    probs: Box<[f32]>,
    hash: u64,
    prev: u32,
    next: u32,
}

/// An LRU memo of scored inputs, bounded to `capacity` entries.
pub struct ScoreCache {
    capacity: usize,
    /// Key hash → slab indices of the entries in that bucket.
    map: HashMap<u64, Vec<u32>>,
    /// Entry storage; `free` lists recycled slots, so the slab never grows
    /// past capacity once warm.
    slab: Vec<Entry>,
    free: Vec<u32>,
    /// Recency list endpoints: `head` = most recent touch, `tail` = LRU
    /// eviction victim.
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Reused buffer for the key being looked up or inserted.
    key: Vec<u8>,
}

impl ScoreCache {
    /// A cache bounded to `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
            key: Vec::new(),
        }
    }

    /// The stored probabilities for `tokens`, counting a hit or a miss. A
    /// hit refreshes the entry's LRU position.
    pub(crate) fn lookup(&mut self, tokens: &[String]) -> Option<&[f32]> {
        let hash = self.encode(tokens);
        match self.find(hash) {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(&*self.slab[idx as usize].probs)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store the probabilities for `tokens`, evicting the least-recently-used
    /// entry at capacity. Storing a key that is already present does nothing.
    pub(crate) fn insert(&mut self, tokens: &[String], probs: &[f32]) {
        let hash = self.encode(tokens);
        if self.find(hash).is_some() {
            return;
        }
        if self.len() >= self.capacity {
            self.evict_lru();
        }
        let entry = Entry {
            key: self.key.as_slice().into(),
            probs: probs.into(),
            hash,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = entry;
                idx
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        self.push_front(idx);
        self.map.entry(hash).or_default().push(idx);
    }

    /// Drop every entry (the weights changed). The hit, miss and eviction
    /// counters keep counting, and a clear is not an eviction.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// `(hits, misses, evictions, entries)`: the counters since construction
    /// and the current occupancy.
    pub(crate) fn stats(&self) -> CacheStats {
        (self.hits, self.misses, self.evictions, self.len())
    }

    /// Entries currently stored.
    fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Write `tokens`' key into `self.key` and return its hash.
    fn encode(&mut self, tokens: &[String]) -> u64 {
        self.key.clear();
        for t in tokens {
            self.key.extend_from_slice(t.as_bytes());
            self.key.push(TOKEN_END);
        }
        fnv1a64(&self.key)
    }

    /// The slot whose key equals `self.key`, searching bucket `hash`.
    fn find(&self, hash: u64) -> Option<u32> {
        let bucket = self.map.get(&hash)?;
        bucket
            .iter()
            .copied()
            .find(|&idx| *self.slab[idx as usize].key == *self.key)
    }

    /// Unlink slot `idx` from the recency list (O(1)).
    fn detach(&mut self, idx: u32) {
        let Entry { prev, next, .. } = self.slab[idx as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Link slot `idx` at the head (most-recently-used) position (O(1)).
    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        let e = &mut self.slab[idx as usize];
        e.prev = NIL;
        e.next = old_head;
        match old_head {
            NIL => self.tail = idx,
            h => self.slab[h as usize].prev = idx,
        }
        self.head = idx;
    }

    /// Pop the recency-list tail, the least-recently-touched entry, in O(1)
    /// (plus a bucket walk bounded by 64-bit FNV collisions, in practice
    /// one entry), and count the eviction.
    fn evict_lru(&mut self) {
        let victim = self.tail;
        if victim == NIL {
            return;
        }
        self.detach(victim);
        let hash = self.slab[victim as usize].hash;
        if let Some(bucket) = self.map.get_mut(&hash) {
            bucket.retain(|&i| i != victim);
            if bucket.is_empty() {
                self.map.remove(&hash);
            }
        }
        // Drop the payload now; the slot itself is recycled via `free`.
        let e = &mut self.slab[victim as usize];
        e.key = Box::default();
        e.probs = Box::default();
        self.free.push(victim);
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token sequence of numbered tokens.
    fn toks(ids: &[usize]) -> Vec<String> {
        ids.iter().map(|i| format!("t{i}")).collect()
    }

    #[test]
    fn score_cache_hit_returns_bit_identical_logits() {
        let mut cache = ScoreCache::with_capacity(8);
        let probs = [0.1f32, -0.0, f32::INFINITY];
        assert!(cache.lookup(&toks(&[3, 1, 4])).is_none());
        cache.insert(&toks(&[3, 1, 4]), &probs);
        let hit = cache.lookup(&toks(&[3, 1, 4])).expect("hit");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(hit), bits(&probs));
        assert_eq!(cache.stats(), (1, 1, 0, 1));
    }

    #[test]
    fn keys_separate_token_boundaries() {
        // Equal concatenated text, different tokens: distinct entries.
        let mut cache = ScoreCache::with_capacity(8);
        let ab = vec!["ab".to_string()];
        let a_b = vec!["a".to_string(), "b".to_string()];
        cache.insert(&ab, &[1.0]);
        assert!(cache.lookup(&a_b).is_none());
        assert!(cache.lookup(&[]).is_none());
        cache.insert(&a_b, &[2.0]);
        assert_eq!(cache.lookup(&ab), Some(&[1.0f32][..]));
        assert_eq!(cache.lookup(&a_b), Some(&[2.0f32][..]));
    }

    #[test]
    fn score_cache_evicts_lru_at_capacity() {
        let mut cache = ScoreCache::with_capacity(2);
        cache.insert(&toks(&[1]), &[1.0]);
        cache.insert(&toks(&[2]), &[2.0]);
        assert_eq!(cache.stats(), (0, 0, 0, 2));
        // Touch [1] so [2] becomes the LRU victim.
        assert_eq!(cache.lookup(&toks(&[1])), Some(&[1.0f32][..]));
        cache.insert(&toks(&[3]), &[3.0]);
        let (_, _, evictions, entries) = cache.stats();
        assert_eq!((evictions, entries), (1, 2), "stays at capacity");
        assert_eq!(
            cache.lookup(&toks(&[1])),
            Some(&[1.0f32][..]),
            "recently used kept"
        );
        assert!(cache.lookup(&toks(&[2])).is_none(), "LRU entry evicted");
        assert_eq!(cache.lookup(&toks(&[3])), Some(&[3.0f32][..]));
    }

    #[test]
    fn score_cache_eviction_order_follows_touches() {
        let mut cache = ScoreCache::with_capacity(3);
        for t in 1..=3 {
            cache.insert(&toks(&[t]), &[t as f32]);
        }
        // Refresh insertion order 1,2,3 into touch order 2,3,1.
        cache.lookup(&toks(&[2]));
        cache.lookup(&toks(&[3]));
        cache.lookup(&toks(&[1]));
        cache.insert(&toks(&[4]), &[4.0]);
        assert!(cache.lookup(&toks(&[2])).is_none(), "oldest touch evicted");
        cache.insert(&toks(&[5]), &[5.0]);
        assert!(cache.lookup(&toks(&[3])).is_none(), "next-oldest evicted");
        assert_eq!(cache.lookup(&toks(&[1])), Some(&[1.0f32][..]));
        assert_eq!(cache.stats().2, 2);
        // A duplicate insert of a live key neither grows nor evicts.
        cache.insert(&toks(&[1]), &[1.0]);
        let (_, _, evictions, entries) = cache.stats();
        assert_eq!((evictions, entries), (2, 3));
    }

    #[test]
    fn clear_drops_entries_and_keeps_counters() {
        let mut cache = ScoreCache::with_capacity(2);
        cache.insert(&toks(&[1]), &[1.0]);
        cache.lookup(&toks(&[1]));
        cache.lookup(&toks(&[2]));
        cache.clear();
        assert_eq!(cache.stats(), (1, 1, 0, 0), "a clear is not an eviction");
        assert!(cache.lookup(&toks(&[1])).is_none());
        cache.insert(&toks(&[1]), &[1.0]);
        assert_eq!(cache.stats(), (1, 2, 0, 1));
    }

    #[test]
    fn lru_matches_reference_model_under_random_churn() {
        // Drive the intrusive-list LRU with a few thousand random
        // lookup/insert operations and mirror every step in an obviously
        // correct Vec-based reference (touch moves to back, evict pops
        // front). Occupancy, eviction count, and membership must agree at
        // every step.
        use rotom_rng::rngs::StdRng;
        use rotom_rng::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x10c);
        for capacity in [1usize, 2, 7, 32] {
            let mut cache = ScoreCache::with_capacity(capacity);
            let mut reference: Vec<usize> = Vec::new(); // front = LRU
            let mut ref_evictions = 0u64;
            for _ in 0..4000 {
                let token = rng.random_range(0..64usize);
                if rng.random_range(0.0f32..1.0) < 0.5 {
                    let hit = cache.lookup(&toks(&[token])).is_some();
                    let ref_hit = reference.contains(&token);
                    assert_eq!(hit, ref_hit, "cap {capacity}: hit status for {token}");
                    if ref_hit {
                        reference.retain(|&t| t != token);
                        reference.push(token);
                    }
                } else {
                    cache.insert(&toks(&[token]), &[token as f32]);
                    if !reference.contains(&token) {
                        if reference.len() >= capacity && !reference.is_empty() {
                            reference.remove(0);
                            ref_evictions += 1;
                        }
                        reference.push(token);
                    }
                }
                let (_, _, evictions, entries) = cache.stats();
                assert_eq!(entries, reference.len(), "cap {capacity}: occupancy");
                assert_eq!(evictions, ref_evictions, "cap {capacity}: eviction count");
            }
            // Final membership check (hit/miss per possible token), without
            // perturbing what we assert: every lookup of a present token
            // refreshes both sides identically.
            for token in 0..64usize {
                let hit = cache.lookup(&toks(&[token])).is_some();
                let ref_hit = reference.contains(&token);
                assert_eq!(hit, ref_hit, "cap {capacity}: final membership {token}");
                if ref_hit {
                    reference.retain(|&t| t != token);
                    reference.push(token);
                }
            }
        }
    }
}
