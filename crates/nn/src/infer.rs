//! Forward-only inference plane: recycled activation workspaces and an
//! optional logit memoization cache.
//!
//! The autodiff [`Tape`](crate::graph::Tape) pays for node bookkeeping and
//! gradient-buffer reservation on every op — bookkeeping that forward-only
//! work (evaluation, M_F candidate scoring, InvDA decoding) never uses. The
//! inference plane executes the same arithmetic as the tape's forward pass
//! — **bit-for-bit** — but straight into preallocated `Vec<f32>`
//! workspaces:
//!
//! * [`InferScratch`] — a size-classed free list of activation buffers
//!   (the tape arena's pool type). A forward pass takes buffers, runs the
//!   forward kernels in [`kernels`](crate::kernels), and returns them;
//!   steady-state scoring performs no heap allocation.
//! * [`with_infer_scratch`] — a process-global pool of `InferScratch`
//!   instances (mirroring the pooled-tape free list), so concurrent pool
//!   workers each grab a private workspace and recycle it across batches.
//! * [`ScoreCache`] — opt-in (`ROTOM_SCORE_CACHE=<capacity>`) FNV-keyed
//!   memoization of serialized input → logits, guarded by the parameter
//!   store's [`generation_sum`](crate::params::ParamStore::generation_sum)
//!   so any weight mutation invalidates every entry.
//!
//! Bit-identity with the tape forward is a hard invariant, not a tolerance:
//! golden runs pin evaluation accuracies and InvDA generations. It holds by
//! construction: the tape ops compute their values with the same forward
//! kernels the layers' `infer_forward` methods call, and those methods
//! replicate the tape's GEMM dispatch decisions (see the "Inference plane"
//! section of DESIGN.md). Each `infer_forward` computes a row band of a
//! pass; a full pass is the band that covers every row.

use crate::arena::BufArena;
use crate::telemetry::{self, Value};
use rotom_rng::{fnv1a64, fnv1a64_extend};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Activation workspaces
// ---------------------------------------------------------------------------

/// Cap on float capacity retained inside one [`InferScratch`] free list (4M
/// floats = 16 MiB): buffers beyond the cap are dropped on return instead of
/// pooled.
const SCRATCH_CAP_FLOATS: usize = 4 << 20;

/// Number of [`InferScratch`] instances the global pool retains.
const MAX_POOLED_SCRATCH: usize = 8;

/// Free list of activation buffers for forward-only passes.
///
/// `take(len)` hands out a buffer of exactly `len` elements with
/// **unspecified contents** — every inference kernel fully overwrites its
/// output, so no clearing pass is paid. `put` returns a buffer for reuse.
/// Buffers live in the same size-classed pool as the tape arena, so a
/// steady-state scoring loop hits the free list for every buffer even as
/// sequence lengths vary.
#[derive(Default)]
pub struct InferScratch {
    pool: BufArena<SCRATCH_CAP_FLOATS>,
}

impl InferScratch {
    /// Create an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a buffer of exactly `len` elements. Contents are unspecified
    /// (previous activations); the caller must fully overwrite them.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.pool.take_dirty(len)
    }

    /// Return a buffer to the free list (dropped once the retained-capacity
    /// cap is reached).
    pub fn put(&mut self, v: Vec<f32>) {
        self.pool.put(v);
    }

    /// Float capacity currently held on the free list (diagnostics).
    pub fn retained_floats(&self) -> usize {
        self.pool.retained()
    }
}

/// Process-global free list of [`InferScratch`] instances. Pool workers are
/// scoped threads (fresh per call), so thread-locals never see reuse; a
/// global free list — the same shape as the pooled-tape list — carries
/// workspaces across batches and across pool invocations.
static SCRATCH_POOL: Mutex<Vec<InferScratch>> = Mutex::new(Vec::new());

/// Run `f` with a recycled [`InferScratch`], returning the workspace to the
/// global pool afterwards (up to a small retention cap).
pub fn with_infer_scratch<R>(f: impl FnOnce(&mut InferScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL.lock().unwrap().pop().unwrap_or_default();
    let out = f(&mut scratch);
    let mut pool = SCRATCH_POOL.lock().unwrap();
    if pool.len() < MAX_POOLED_SCRATCH {
        pool.push(scratch);
    }
    out
}

// ---------------------------------------------------------------------------
// Score cache
// ---------------------------------------------------------------------------

/// FNV-1a-64 over a token sequence, hashing each id's little-endian bytes.
fn fnv1a_tokens(tokens: &[usize]) -> u64 {
    tokens.iter().fold(fnv1a64(&[]), |h, &t| {
        fnv1a64_extend(h, &(t as u64).to_le_bytes())
    })
}

/// Sentinel slab index for "no entry" in the intrusive recency list.
const NIL: u32 = u32::MAX;

/// One cached scoring: full key (the FNV hash is only a bucket index),
/// logits, and intrusive doubly-linked recency pointers (slab indices) —
/// most-recently-used at the list head, eviction victim at the tail.
struct CacheEntry {
    key: Box<[usize]>,
    logits: Vec<f32>,
    hash: u64,
    prev: u32,
    next: u32,
}

struct CacheInner {
    /// Parameter-store generation fingerprint the entries were computed
    /// under; any mismatch wipes the map (weights changed).
    gen_sum: u64,
    /// FNV key → slab indices (full serialized key kept to guard
    /// collisions).
    map: HashMap<u64, Vec<u32>>,
    /// Entry storage; `free` lists recycled slots, so the slab never grows
    /// past capacity once warm.
    slab: Vec<CacheEntry>,
    free: Vec<u32>,
    /// Recency list endpoints: `head` = most recent touch, `tail` = LRU
    /// eviction victim.
    head: u32,
    tail: u32,
}

impl CacheInner {
    /// Unlink slot `idx` from the recency list (O(1)).
    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let e = &self.slab[idx as usize];
            (e.prev, e.next)
        };
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
        {
            let e = &mut self.slab[idx as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        match old_head {
            NIL => self.tail = idx,
            h => self.slab[h as usize].prev = idx,
        }
        self.head = idx;
    }

    /// Entries currently stored.
    fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }
}

/// Memoization cache for forward-only scoring: serialized input tokens →
/// logits.
///
/// Entity-matching workloads are highly duplicative after blocking — the
/// same record pair is scored by the M_F filter, the weighting model's
/// feature extraction, and per-epoch evaluation. A hit returns a
/// **bit-identical clone** of the stored logits, so caching never changes
/// results; correctness is guarded two ways:
///
/// * entries are keyed by the exact token sequence (the FNV hash is only a
///   bucket index; the full key is compared on lookup), and
/// * the whole cache self-invalidates when the owning store's
///   [`generation_sum`](crate::params::ParamStore::generation_sum) moves —
///   that fingerprint is monotone, so stale entries can never resurface.
///
/// Off by default; enabled per-model via `ROTOM_SCORE_CACHE=<capacity>`
/// (entries). At capacity the least-recently-used entry is evicted in O(1):
/// entries live in a slab threaded onto an intrusive doubly-linked recency
/// list (head = most recent touch, tail = victim), so a hit is one unlink +
/// one relink and an eviction pops the tail — no scan at any capacity — and
/// the [`evictions`] counter records it. Cloning a `ScoreCache` yields a
/// fresh *empty* cache with the same capacity: clones of a model diverge
/// under training, so sharing entries across them would be unsound.
///
/// [`evictions`]: ScoreCache::evictions
pub struct ScoreCache {
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inner: Mutex<CacheInner>,
}

impl Clone for ScoreCache {
    fn clone(&self) -> Self {
        Self::with_capacity(self.capacity)
    }
}

impl ScoreCache {
    /// A cache bounded to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inner: Mutex::new(CacheInner {
                gen_sum: 0,
                map: HashMap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
        }
    }

    /// Build a cache from the `ROTOM_SCORE_CACHE` environment variable:
    /// `None` (caching off) unless it is a positive capacity. `0` and unset
    /// are silent; a value that is not an entry count warns (see
    /// [`crate::env`]).
    pub fn from_env() -> Option<Self> {
        let capacity = crate::env::read("ROTOM_SCORE_CACHE", |v| {
            v.parse::<usize>()
                .map_err(|_| "expected an entry count (0 disables)".to_string())
        })?;
        (capacity > 0).then(|| Self::with_capacity(capacity))
    }

    /// Look up the logits for `tokens` computed under parameter fingerprint
    /// `gen_sum`. Counts a hit or miss; a mismatched fingerprint clears the
    /// cache first (weights changed since the entries were stored). A hit
    /// refreshes the entry's LRU position.
    pub fn lookup(&self, gen_sum: u64, tokens: &[usize]) -> Option<Vec<f32>> {
        let mut inner = self.inner.lock().unwrap();
        Self::sync_generation(&mut inner, gen_sum);
        let key = fnv1a_tokens(tokens);
        let found = inner.map.get(&key).and_then(|bucket| {
            bucket
                .iter()
                .copied()
                .find(|&idx| inner.slab[idx as usize].key.as_ref() == tokens)
        });
        let hit = found.map(|idx| {
            // Refresh recency: unlink and relink at the head, both O(1).
            inner.detach(idx);
            inner.push_front(idx);
            inner.slab[idx as usize].logits.clone()
        });
        drop(inner);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Store the logits for `tokens` computed under `gen_sum`. At capacity
    /// the least-recently-used entry is evicted to make room.
    pub fn insert(&self, gen_sum: u64, tokens: &[usize], logits: &[f32]) {
        let mut inner = self.inner.lock().unwrap();
        Self::sync_generation(&mut inner, gen_sum);
        let key = fnv1a_tokens(tokens);
        if inner.map.get(&key).is_some_and(|bucket| {
            bucket
                .iter()
                .any(|&idx| inner.slab[idx as usize].key.as_ref() == tokens)
        }) {
            return;
        }
        if inner.len() >= self.capacity && Self::evict_lru(&mut inner) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let entry = CacheEntry {
            key: tokens.to_vec().into_boxed_slice(),
            logits: logits.to_vec(),
            hash: key,
            prev: NIL,
            next: NIL,
        };
        let idx = match inner.free.pop() {
            Some(idx) => {
                inner.slab[idx as usize] = entry;
                idx
            }
            None => {
                inner.slab.push(entry);
                (inner.slab.len() - 1) as u32
            }
        };
        inner.push_front(idx);
        inner.map.entry(key).or_default().push(idx);
    }

    /// Wipe the map if `gen_sum` moved since the entries were stored.
    fn sync_generation(inner: &mut CacheInner, gen_sum: u64) {
        if inner.gen_sum != gen_sum {
            inner.map.clear();
            inner.slab.clear();
            inner.free.clear();
            inner.head = NIL;
            inner.tail = NIL;
            inner.gen_sum = gen_sum;
        }
    }

    /// Pop the recency-list tail — the least-recently-touched entry — in
    /// O(1) (plus a short bucket walk for the hash index, bounded by FNV
    /// collisions on 64-bit hashes, i.e. effectively 1). Returns whether a
    /// victim was actually removed.
    fn evict_lru(inner: &mut CacheInner) -> bool {
        let victim = inner.tail;
        if victim == NIL {
            return false;
        }
        inner.detach(victim);
        let hash = inner.slab[victim as usize].hash;
        if let Some(bucket) = inner.map.get_mut(&hash) {
            if let Some(pos) = bucket.iter().position(|&i| i == victim) {
                bucket.swap_remove(pos);
            }
            if bucket.is_empty() {
                inner.map.remove(&hash);
            }
        }
        // Drop the payload now; the slot itself is recycled via `free`.
        let e = &mut inner.slab[victim as usize];
        e.key = Box::default();
        e.logits = Vec::new();
        inner.free.push(victim);
        true
    }

    /// Cumulative `(hits, misses)` since construction.
    pub fn hit_miss(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Cumulative LRU evictions since construction (capacity pressure only;
    /// generation-change wipes are not evictions).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Emit one `gauge` record with cumulative hit/miss counts and current
    /// occupancy. No-op when telemetry is disabled.
    pub fn emit_gauges(&self) {
        if !telemetry::enabled() {
            return;
        }
        let (hits, misses) = self.hit_miss();
        telemetry::emit(
            "gauge",
            "infer.score_cache",
            &[
                ("hits", Value::U64(hits)),
                ("misses", Value::U64(misses)),
                ("entries", Value::U64(self.len() as u64)),
                ("capacity", Value::U64(self.capacity as u64)),
                ("evictions", Value::U64(self.evictions())),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_recycles_buffers() {
        let mut s = InferScratch::new();
        let mut a = s.take(16);
        a[0] = 42.0;
        let ptr = a.as_ptr();
        s.put(a);
        assert_eq!(s.retained_floats(), 16);
        let b = s.take(16);
        assert_eq!(b.as_ptr(), ptr, "same buffer handed back");
        assert_eq!(s.retained_floats(), 0);
        // A nearby length in the same size class reuses the buffer too.
        s.put(b);
        let c = s.take(15);
        assert_eq!((c.len(), c.as_ptr()), (15, ptr));
    }

    #[test]
    fn scratch_pool_round_trips() {
        let out = with_infer_scratch(|s| {
            let v = s.take(32);
            let len = v.len();
            s.put(v);
            len
        });
        assert_eq!(out, 32);
    }

    #[test]
    fn score_cache_hit_returns_bit_identical_logits() {
        let cache = ScoreCache::with_capacity(8);
        let logits = vec![0.1f32, -2.5, 3.25];
        assert!(cache.lookup(1, &[3, 1, 4]).is_none());
        cache.insert(1, &[3, 1, 4], &logits);
        let hit = cache.lookup(1, &[3, 1, 4]).expect("hit");
        assert_eq!(hit, logits);
        assert_eq!(cache.hit_miss(), (1, 1));
    }

    #[test]
    fn score_cache_invalidates_on_generation_change() {
        let cache = ScoreCache::with_capacity(8);
        cache.insert(1, &[7], &[1.0]);
        assert!(cache.lookup(2, &[7]).is_none(), "stale generation");
        assert!(cache.is_empty());
    }

    #[test]
    fn score_cache_evicts_lru_at_capacity() {
        let cache = ScoreCache::with_capacity(2);
        cache.insert(1, &[1], &[1.0]);
        cache.insert(1, &[2], &[2.0]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        // Touch [1] so [2] becomes the LRU victim.
        assert_eq!(cache.lookup(1, &[1]), Some(vec![1.0]));
        cache.insert(1, &[3], &[3.0]);
        assert_eq!(cache.len(), 2, "stays at capacity");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.lookup(1, &[1]), Some(vec![1.0]), "recently used kept");
        assert!(cache.lookup(1, &[2]).is_none(), "LRU entry evicted");
        assert_eq!(cache.lookup(1, &[3]), Some(vec![3.0]));
    }

    #[test]
    fn score_cache_eviction_order_follows_touches() {
        let cache = ScoreCache::with_capacity(3);
        for t in 1u64..=3 {
            cache.insert(1, &[t as usize], &[t as f32]);
        }
        // Refresh insertion order 1,2,3 into touch order 2,3,1.
        cache.lookup(1, &[2]);
        cache.lookup(1, &[3]);
        cache.lookup(1, &[1]);
        cache.insert(1, &[4], &[4.0]);
        assert!(cache.lookup(1, &[2]).is_none(), "oldest touch evicted");
        cache.insert(1, &[5], &[5.0]);
        assert!(cache.lookup(1, &[3]).is_none(), "next-oldest evicted");
        assert_eq!(cache.lookup(1, &[1]), Some(vec![1.0]));
        assert_eq!(cache.evictions(), 2);
        // A duplicate insert of a live key neither grows nor evicts.
        cache.insert(1, &[1], &[1.0]);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn generation_wipe_is_not_an_eviction() {
        let cache = ScoreCache::with_capacity(2);
        cache.insert(1, &[1], &[1.0]);
        cache.insert(1, &[2], &[2.0]);
        cache.insert(2, &[1], &[10.0]);
        assert_eq!(cache.evictions(), 0, "wipe on generation change is free");
        assert_eq!(cache.len(), 1);
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
            let cache = ScoreCache::with_capacity(capacity);
            let mut reference: Vec<usize> = Vec::new(); // front = LRU
            let mut ref_evictions = 0u64;
            for _ in 0..4000 {
                let token = rng.random_range(0..64usize);
                if rng.random_range(0.0f32..1.0) < 0.5 {
                    let hit = cache.lookup(1, &[token]).is_some();
                    let ref_hit = reference.contains(&token);
                    assert_eq!(hit, ref_hit, "cap {capacity}: hit status for {token}");
                    if ref_hit {
                        reference.retain(|&t| t != token);
                        reference.push(token);
                    }
                } else {
                    cache.insert(1, &[token], &[token as f32]);
                    if !reference.contains(&token) {
                        if reference.len() >= capacity && !reference.is_empty() {
                            reference.remove(0);
                            ref_evictions += 1;
                        }
                        reference.push(token);
                    }
                }
                assert_eq!(cache.len(), reference.len(), "cap {capacity}: occupancy");
                assert_eq!(
                    cache.evictions(),
                    ref_evictions,
                    "cap {capacity}: eviction count"
                );
            }
            // Final membership check (hit/miss per possible token), without
            // perturbing what we assert: every lookup of a present token
            // refreshes both sides identically.
            for token in 0..64usize {
                let hit = cache.lookup(1, &[token]).is_some();
                let ref_hit = reference.contains(&token);
                assert_eq!(hit, ref_hit, "cap {capacity}: final membership {token}");
                if ref_hit {
                    reference.retain(|&t| t != token);
                    reference.push(token);
                }
            }
        }
    }

    #[test]
    fn clone_is_fresh_and_empty() {
        let cache = ScoreCache::with_capacity(4);
        cache.insert(1, &[9], &[9.0]);
        let clone = cache.clone();
        assert!(clone.is_empty());
        assert!(clone.lookup(1, &[9]).is_none());
    }
}
