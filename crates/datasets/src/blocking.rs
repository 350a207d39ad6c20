//! Blocking plane: scalable candidate generation for million-record EM.
//!
//! The paper's EM datasets arrive pre-blocked at Table-6 sizes; production
//! EM over millions of records is bottlenecked on *candidate generation*,
//! not scoring (§2.1: "the blocking phase typically uses simple
//! heuristics"). This module scales [`crate::em::block_candidates`]'s
//! token-overlap semantics to that regime:
//!
//! * **Sharded inverted token index** — tokens are assigned to shards by
//!   token hash, so shards build pool-parallel with no locks. Sealing the
//!   index flattens each shard into one concatenated posting-id array and
//!   an open-addressed table keyed on the token hash. A probe hashes each
//!   left token once, reads its posting list from the owning shard, and
//!   counts shared tokens in one dense per-worker counter; the counts are
//!   integer sums, so the result is *bit-identical* at any shard or worker
//!   count.
//! * **IDF pruning** — posting lists whose document frequency exceeds
//!   [`BlockingConfig::df_ceiling`] are dropped (the df is the posting-list
//!   length, since each record lists a token once). This bounds per-token
//!   posting lists and kills the stopword quadratic blowup: without it, one
//!   token present in every record makes each probe touch the whole corpus.
//! * **MinHash/LSH banding second tier** — per-record minhash signatures
//!   (splitmix64 hash streams seeded from [`BlockingConfig::seed`]) are
//!   banded into buckets; records colliding in any band become candidates
//!   regardless of which tokens were pruned, recovering high-similarity
//!   pairs the pruned token tier misses. Each sealed band is a sorted key
//!   array with a directory on the keys' top bits, so a probe finds its
//!   bucket in O(1) expected memory touches.
//! * **Streaming pipeline** — left records are ingested in bounded chunks
//!   (e.g. [`crate::em::EmCorpus::chunks`] or [`crate::csv::table_chunks`]),
//!   candidates are flushed to the caller's sink whenever the buffer reaches
//!   [`BlockingConfig::max_buffered_pairs`]. Peak memory is O(index +
//!   chunk), never O(candidates).
//! * **Flat per-worker runs** — both the build and the probe split each
//!   chunk into one contiguous run of records per worker. A worker tokenizes
//!   its run with [`rotom_text::for_each_token`], which yields each token
//!   as a slice with no allocation, into [`ContentTokens`]: one text buffer
//!   plus offsets and one hash per token, not a `Vec<String>` per record.
//!   The probe appends each record's candidates to its run's flat id
//!   buffer, sorting and deduplicating that record's tail in place, and the
//!   stream walks the runs in order. A worker's buffers and its dense
//!   shared-token counter live for the whole build or pass, so the steady
//!   state allocates nothing per record or per token.
//!
//! [`crate::em::content_token_list`] stays the `Vec<String>` definition of
//! a record's content tokens: the brute-force reference
//! [`crate::em::block_candidates`] uses it, and the flat runs are tested
//! equal to it.

use crate::em::is_content_token;
use rotom_nn::RotomPool;
use rotom_rng::{fnv1a64, splitmix64};
use rotom_text::{for_each_token, Record};
use std::ops::Range;

/// MinHash/LSH banding parameters. The signature has `bands * rows` hashes;
/// two records collide when all `rows` hashes of any band agree, so the
/// catch probability for Jaccard similarity `j` is `1 - (1 - j^rows)^bands`.
#[derive(Debug, Clone, Copy)]
pub struct LshParams {
    /// Number of bands (each band is one bucket table).
    pub bands: usize,
    /// MinHash rows per band.
    pub rows: usize,
    /// Buckets holding more than this many records are dropped when the
    /// index is sealed. Corpus-wide shared tokens (stopwords) drag every
    /// record's minhash toward the same few values, merging huge fractions
    /// of the collection into a handful of mega-buckets; probing those
    /// degenerates to a corpus scan, exactly the blowup the df ceiling kills
    /// in the token tier. A mega-bucket carries no similarity signal, so
    /// dropping it costs almost no recall.
    pub max_bucket: usize,
}

impl Default for LshParams {
    fn default() -> Self {
        // 8 bands x 2 rows: catches ~90% of pairs at jaccard 0.5, ~99.6% at
        // 0.7, while pairs below 0.2 almost never collide.
        Self {
            bands: 8,
            rows: 2,
            max_bucket: 256,
        }
    }
}

/// Configuration of the blocking pipeline.
#[derive(Debug, Clone)]
pub struct BlockingConfig {
    /// Candidate threshold: pairs sharing at least this many content tokens
    /// are emitted by the token tier. `0` means *no blocking* — every
    /// `(left, right)` pair is a candidate, as in
    /// [`crate::em::block_candidates`], where every pair shares at least
    /// zero tokens (only sensible for tiny collections).
    pub min_shared: usize,
    /// Document-frequency ceiling: tokens present in more than this many
    /// indexed records are pruned from the token tier. `None` keeps
    /// everything (exact [`crate::em::block_candidates`] semantics).
    pub df_ceiling: Option<usize>,
    /// Number of token-hash shards (clamped to at least 1).
    pub num_shards: usize,
    /// MinHash/LSH second tier; `None` disables it.
    pub lsh: Option<LshParams>,
    /// Candidate pairs buffered before the streaming driver flushes to its
    /// sink. The observed peak never exceeds this by more than one record's
    /// candidate list ([`BlockingStats::peak_buffered_pairs`]).
    pub max_buffered_pairs: usize,
    /// Seed of the minhash hash streams.
    pub seed: u64,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        Self {
            min_shared: 2,
            df_ceiling: None,
            num_shards: 8,
            lsh: None,
            max_buffered_pairs: 1 << 16,
            seed: 0x510c,
        }
    }
}

/// Shard owning a token hash: multiply-shift map of the hash onto
/// `0..num_shards` (uniform, avoids modulo bias on low bits).
#[inline]
fn token_shard(hash: u64, num_shards: usize) -> usize {
    (((hash as u128) * (num_shards as u128)) >> 64) as usize
}

/// Record ids `start..start + len` of a chunk appended to an index that
/// already holds `start` records, or `None` when the chunk's end does not
/// fit in a `u32` id.
fn chunk_ids(start: usize, len: usize) -> Option<Range<u32>> {
    let end = u32::try_from(start.checked_add(len)?).ok()?;
    // `start <= end`, so it fits too.
    Some(start as u32..end)
}

/// Per-band LSH bucket keys of one record's content tokens (as produced by
/// [`content_token_list`](crate::em::content_token_list)): the buckets the
/// index files the record under and probes it against. Records with no
/// content tokens get no keys (they cannot match anything lexically).
pub fn band_keys(tokens: &[String], params: LshParams, seed: u64) -> Vec<u64> {
    let hashes: Vec<u64> = tokens.iter().map(|t| fnv1a64(t.as_bytes())).collect();
    let mut keys = Vec::new();
    push_band_keys(&hashes, params, seed, &mut Vec::new(), &mut keys);
    keys
}

/// Append [`band_keys`] over the tokens' [`fnv1a64`] hashes to `keys`, with
/// `sig` as the minhash signature's scratch.
fn push_band_keys(
    hashes: &[u64],
    params: LshParams,
    seed: u64,
    sig: &mut Vec<u64>,
    keys: &mut Vec<u64>,
) {
    if hashes.is_empty() {
        return;
    }
    sig.clear();
    sig.resize(params.bands * params.rows, u64::MAX);
    for &th in hashes {
        for (h, slot) in sig.iter_mut().enumerate() {
            // One splitmix step per (token, hash-index): an independent
            // permutation family keyed on the pipeline seed.
            let mut s = seed ^ th ^ ((h as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let v = splitmix64(&mut s);
            if v < *slot {
                *slot = v;
            }
        }
    }
    keys.extend((0..params.bands).map(|b| {
        let mut key = 0x100_0000_01b3u64 ^ (b as u64) << 32;
        for r in 0..params.rows {
            let mut s = key ^ sig[b * params.rows + r];
            key = splitmix64(&mut s);
        }
        key
    }));
}

/// Index-build statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    /// Records indexed.
    pub records: usize,
    /// Distinct tokens kept in the token tier.
    pub tokens_kept: usize,
    /// Distinct tokens dropped by the df ceiling.
    pub tokens_pruned: usize,
    /// Posting entries kept.
    pub postings_kept: usize,
    /// Posting entries dropped with pruned tokens — the per-probe scan work
    /// the ceiling avoids.
    pub postings_pruned: usize,
}

/// Position range of item `k` in a flat array holding items back to back,
/// where `ends[k]` is where item `k` ends (it starts where `k - 1` ends).
#[inline]
fn span(ends: &[usize], k: usize) -> Range<usize> {
    let start = if k == 0 { 0 } else { ends[k - 1] };
    start..ends[k]
}

/// The content tokens of a run of records, flat: each record's sorted
/// deduplicated tokens (the list [`content_token_list`] returns) back to
/// back in one text buffer, each token with its [`fnv1a64`] hash. Records
/// are tokenized through [`for_each_token`], so once the buffers have grown
/// a record costs no allocation (short of lowercasing a non-ASCII word);
/// [`clear`](Self::clear) keeps them for the next run.
///
/// [`content_token_list`]: crate::em::content_token_list
#[derive(Debug, Default)]
pub struct ContentTokens {
    text: String,
    /// Per token: where its text ends in `text` (see [`span`]).
    text_ends: Vec<usize>,
    /// Per token: its hash.
    hashes: Vec<u64>,
    /// Per record: where its tokens end in `text_ends` and `hashes`.
    record_ends: Vec<usize>,
    /// The record being pushed: its content tokens in visit order, each a
    /// `(start, end)` span of `stage`, before they are sorted.
    stage: String,
    spans: Vec<(usize, usize)>,
    /// Lowercasing scratch of [`for_each_token`].
    lower: String,
}

impl ContentTokens {
    /// Drop every record, keeping the buffers.
    pub fn clear(&mut self) {
        self.text.clear();
        self.text_ends.clear();
        self.hashes.clear();
        self.record_ends.clear();
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.record_ends.len()
    }

    /// True when no record is held.
    pub fn is_empty(&self) -> bool {
        self.record_ends.is_empty()
    }

    /// Append the content tokens of `record`.
    pub fn push(&mut self, record: &Record) {
        let Self {
            text,
            text_ends,
            hashes,
            record_ends,
            stage,
            spans,
            lower,
        } = self;
        stage.clear();
        spans.clear();
        for (_, value) in &record.attrs {
            for_each_token(value, lower, |tok| {
                if is_content_token(tok) {
                    stage.push_str(tok);
                    spans.push((stage.len() - tok.len(), stage.len()));
                }
            });
        }
        let tok = |&(a, b): &(usize, usize)| &stage[a..b];
        spans.sort_unstable_by(|x, y| tok(x).cmp(tok(y)));
        spans.dedup_by(|x, y| tok(x) == tok(y));
        for t in spans.iter().map(tok) {
            text.push_str(t);
            text_ends.push(text.len());
            hashes.push(fnv1a64(t.as_bytes()));
        }
        record_ends.push(text_ends.len());
    }

    /// Content tokens of record `i`, sorted.
    pub fn record(&self, i: usize) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.tokens(i).map(|k| self.token(k))
    }

    /// Positions of record `i`'s tokens.
    fn tokens(&self, i: usize) -> Range<usize> {
        span(&self.record_ends, i)
    }

    /// Text of token `k`.
    fn token(&self, k: usize) -> &str {
        &self.text[span(&self.text_ends, k)]
    }
}

/// One worker's run of a chunk: its records' content tokens and, with the
/// LSH tier on, their band keys. Kept across chunks, so its buffers grow
/// once.
#[derive(Default)]
struct TokenRun {
    tokens: ContentTokens,
    keys: Vec<u64>,
    /// Per record: where its band keys end in `keys` (a record with no
    /// content token has none).
    key_ends: Vec<usize>,
    /// Minhash signature scratch.
    sig: Vec<u64>,
}

impl TokenRun {
    /// Replace the run with `records`' tokens and band keys.
    fn fill(&mut self, records: &[Record], lsh: Option<LshParams>, seed: u64) {
        self.tokens.clear();
        self.keys.clear();
        self.key_ends.clear();
        for (i, r) in records.iter().enumerate() {
            self.tokens.push(r);
            if let Some(p) = lsh {
                let hashes = &self.tokens.hashes[self.tokens.tokens(i)];
                push_band_keys(hashes, p, seed, &mut self.sig, &mut self.keys);
            }
            self.key_ends.push(self.keys.len());
        }
    }

    /// `(token text, token hash)` of record `i`'s tokens.
    fn record(&self, i: usize) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.tokens
            .tokens(i)
            .map(|k| (self.tokens.token(k), self.tokens.hashes[k]))
    }

    /// Band keys of record `i`.
    fn keys(&self, i: usize) -> &[u64] {
        &self.keys[span(&self.key_ends, i)]
    }
}

/// Split `records` into one contiguous run per worker of `pool` (at most
/// one per record), refill `runs[w]` from run `w` on its own worker, and
/// return how many runs were filled. `runs` grows to the pool's width once
/// and keeps its buffers across calls.
fn fill_runs<S, F>(pool: &RotomPool, runs: &mut Vec<S>, records: &[Record], fill: F) -> usize
where
    S: Default + Send,
    F: Fn(&mut S, &[Record]) + Sync,
{
    let n = records.len();
    let k = pool.threads().min(n);
    if k == 0 {
        return 0;
    }
    if runs.len() < k {
        runs.resize_with(k, S::default);
    }
    let per = n.div_ceil(k);
    // One run per pool worker: `k` items over at most `k` workers.
    pool.chunk_rows(&mut runs[..k], 1, 1, |first, rs| {
        for (w, run) in (first..).zip(rs) {
            let lo = (w * per).min(n);
            fill(run, &records[lo..(lo + per).min(n)]);
        }
    });
    k
}

/// Open-addressed token table: every token's text concatenated into one
/// string, found through a slot table keyed on the token's [`fnv1a64`]
/// hash — the hash the caller already computed to pick the shard, so no
/// token is hashed twice.
#[derive(Debug, Clone)]
struct TokenTable {
    /// Power-of-two table of `token index + 1` (`0` marks an empty slot),
    /// kept at most half full and probed linearly from
    /// [`TokenTable::home_slot`].
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    /// Per token, in insertion order: its hash.
    hashes: Vec<u64>,
    /// Per token: where its text ends in `text` (see [`span`]).
    text_ends: Vec<usize>,
    text: String,
}

impl Default for TokenTable {
    fn default() -> Self {
        Self {
            slots: vec![0; 2],
            shift: 63,
            hashes: Vec::new(),
            text_ends: Vec::new(),
            text: String::new(),
        }
    }
}

impl TokenTable {
    /// Number of tokens held.
    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Text of token `k`.
    fn token(&self, k: usize) -> &str {
        &self.text[span(&self.text_ends, k)]
    }

    /// First slot probed for `hash`. Fibonacci hashing re-mixes the hash, so
    /// the slot does not depend only on the top bits that chose the shard.
    #[inline]
    fn home_slot(&self, hash: u64) -> usize {
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// `Ok(index)` of `token` (whose hash is `hash`), or `Err(slot)`: the
    /// empty slot where it would go.
    #[inline]
    fn lookup(&self, hash: u64, token: &str) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home_slot(hash);
        loop {
            let k = match self.slots[i] {
                0 => return Err(i),
                k => k as usize - 1,
            };
            if self.hashes[k] == hash && self.token(k) == token {
                return Ok(k);
            }
            i = (i + 1) & mask;
        }
    }

    /// Index of `token` (whose hash is `hash`), adding it if absent.
    fn intern(&mut self, hash: u64, token: &str) -> u32 {
        match self.lookup(hash, token) {
            Ok(k) => k as u32,
            Err(slot) => {
                let k = u32::try_from(self.len())
                    .ok()
                    .filter(|&k| k < u32::MAX)
                    .expect("shard capped at u32 tokens");
                self.hashes.push(hash);
                self.text.push_str(token);
                self.text_ends.push(self.text.len());
                self.slots[slot] = k + 1;
                if 2 * self.len() > self.slots.len() {
                    self.grow();
                }
                k
            }
        }
    }

    /// Double the slot table and re-insert every token.
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        self.shift -= 1;
        self.slots = vec![0; len];
        for (k, &hash) in self.hashes.iter().enumerate() {
            let mut i = self.home_slot(hash);
            while self.slots[i] != 0 {
                i = (i + 1) & (len - 1);
            }
            // `intern` keeps every index below u32::MAX.
            self.slots[i] = k as u32 + 1;
        }
    }
}

/// One token shard under construction: its token table and one
/// `(token index, record id)` pair per posting, in record-id order.
#[derive(Debug, Default, Clone)]
struct ShardBuilder {
    table: TokenTable,
    postings: Vec<(u32, u32)>,
}

/// Streaming builder for [`ShardedIndex`]: feed the right-hand collection in
/// bounded chunks, then [`finish`](IndexBuilder::finish). Records are
/// assigned ids in feed order.
pub struct IndexBuilder {
    cfg: BlockingConfig,
    shards: Vec<ShardBuilder>,
    /// Per LSH band (none with the tier off): its `(key, record id)`
    /// entries.
    band_entries: Vec<Vec<(u64, u32)>>,
    num_records: usize,
    /// Per worker: its run of the chunk being added.
    runs: Vec<TokenRun>,
}

impl IndexBuilder {
    /// Start an empty index under `cfg`.
    pub fn new(cfg: BlockingConfig) -> Self {
        let num_shards = cfg.num_shards.max(1);
        let band_entries = vec![Vec::new(); cfg.lsh.map_or(0, |p| p.bands)];
        Self {
            cfg: BlockingConfig { num_shards, ..cfg },
            shards: vec![ShardBuilder::default(); num_shards],
            band_entries,
            num_records: 0,
            runs: Vec::new(),
        }
    }

    /// Index one chunk of records. Panics if the chunk would take the index
    /// past `u32::MAX` records.
    ///
    /// The chunk splits into one contiguous run per worker, and each worker
    /// tokenizes its run into flat buffers, hashing every token once: shard
    /// assignment, the shard's token table and the minhash signature all
    /// reuse that hash.
    pub fn add_chunk(&mut self, records: &[Record], pool: &RotomPool) {
        let ids =
            chunk_ids(self.num_records, records.len()).expect("index capped at u32 record ids");
        let ns = self.cfg.num_shards;
        let (lsh, seed) = (self.cfg.lsh, self.cfg.seed);
        let k = fill_runs(pool, &mut self.runs, records, |run, recs| {
            run.fill(recs, lsh, seed)
        });
        let runs = &self.runs[..k];
        let records_in_order = || {
            runs.iter()
                .flat_map(|run| (0..run.tokens.len()).map(move |i| (run, i)))
        };
        // Each worker owns a contiguous run of shards and walks the chunk,
        // claiming the tokens hashing into its run: shards build with no
        // locks and no merge, and postings stay in record-id order.
        pool.chunk_rows(&mut self.shards, 1, 1, |first, shards| {
            let owned = first..first + shards.len();
            for (id, (run, i)) in ids.clone().zip(records_in_order()) {
                for (t, h) in run.record(i) {
                    let s = token_shard(h, ns);
                    if owned.contains(&s) {
                        let shard = &mut shards[s - first];
                        let k = shard.table.intern(h, t);
                        shard.postings.push((k, id));
                    }
                }
            }
        });
        for (id, (run, i)) in ids.zip(records_in_order()) {
            for (band, &key) in self.band_entries.iter_mut().zip(run.keys(i)) {
                band.push((key, id));
            }
        }
        self.num_records += records.len();
    }

    /// Seal the index: apply the df ceiling to posting-list lengths, flatten
    /// each shard's kept posting lists, and seal the LSH band tables
    /// (dropping buckets above [`LshParams::max_bucket`]).
    pub fn finish(self) -> ShardedIndex {
        let mut stats = IndexStats {
            records: self.num_records,
            ..Default::default()
        };
        let ceiling = self.cfg.df_ceiling.unwrap_or(usize::MAX);
        let mut shards = Vec::with_capacity(self.shards.len());
        for ShardBuilder { table, postings } in self.shards {
            // Posting-list lengths are document frequencies (tokens are
            // unique per record).
            let mut freq = vec![0usize; table.len()];
            for &(k, _) in &postings {
                freq[k as usize] += 1;
            }
            // Counting sort of the kept postings by token: `ids_ends[k]`
            // starts where token k's list begins and, as the stable scatter
            // fills the list in record-id order, advances to where it ends.
            let mut ids_ends = Vec::with_capacity(table.len());
            let mut kept = 0;
            for &d in &freq {
                ids_ends.push(kept);
                if d > ceiling {
                    stats.tokens_pruned += 1;
                    stats.postings_pruned += d;
                } else {
                    stats.tokens_kept += 1;
                    stats.postings_kept += d;
                    kept += d;
                }
            }
            let mut ids = vec![0u32; kept];
            for (k, id) in postings {
                let k = k as usize;
                if freq[k] <= ceiling {
                    ids[ids_ends[k]] = id;
                    ids_ends[k] += 1;
                }
            }
            shards.push(Shard {
                table,
                ids_ends,
                ids,
            });
        }
        let max_bucket = self.cfg.lsh.map_or(0, |p| p.max_bucket);
        let bands = self
            .band_entries
            .into_iter()
            .map(|entries| Band::seal(entries, max_bucket))
            .collect();
        ShardedIndex {
            cfg: self.cfg,
            shards,
            bands,
            stats,
        }
    }
}

/// One sealed token shard: its token table and every kept token's posting
/// list (record ids ascending) concatenated into one flat id array. A
/// pruned token stays in the table with an empty list.
#[derive(Debug)]
struct Shard {
    table: TokenTable,
    /// Per token: where its posting list ends in `ids` (see [`span`]).
    ids_ends: Vec<usize>,
    ids: Vec<u32>,
}

impl Shard {
    /// Posting list of `token` (whose [`fnv1a64`] hash is `hash`); empty
    /// when the shard does not hold it or pruned it.
    #[inline]
    fn postings(&self, hash: u64, token: &str) -> &[u32] {
        match self.table.lookup(hash, token) {
            Ok(k) => &self.ids[span(&self.ids_ends, k)],
            Err(_) => &[],
        }
    }
}

/// One sealed LSH band: bucket keys sorted ascending with their record ids
/// alongside (ascending within a bucket), buckets above
/// [`LshParams::max_bucket`] dropped. Keys are splitmix outputs, uniform
/// over `u64`, so a directory with about one slot per key on the keys' top
/// bits finds a bucket in O(1) expected memory touches — flat arrays rather
/// than per-bucket `Vec`s, because at 1M records the allocator overhead of
/// a million tiny `Vec`s dominates the index.
#[derive(Debug)]
struct Band {
    keys: Vec<u64>,
    ids: Vec<u32>,
    /// `dir[p]` is the first position whose key's top bits are `>= p`;
    /// `dir.len() == 2^bits + 1` with `bits = 64 - shift`.
    dir: Vec<u32>,
    shift: u32,
}

impl Band {
    /// Seal one band's `(key, id)` entries.
    fn seal(entries: Vec<(u64, u32)>, max_bucket: usize) -> Self {
        let bits = entries.len().max(2).ilog2();
        let shift = 64 - bits;
        let slot = |key: u64| (key >> shift) as usize;
        // Counting sort on the directory slot: `dir[p]` becomes where slot
        // p's entries start. Record ids are u32, so a band holds at most
        // u32::MAX entries and every position fits in a u32.
        let mut dir = vec![0u32; (1 << bits) + 1];
        for &(key, _) in &entries {
            dir[slot(key) + 1] += 1;
        }
        for p in 1..dir.len() {
            dir[p] += dir[p - 1];
        }
        let mut by_slot = vec![(0, 0); entries.len()];
        let mut next = dir.clone();
        for e in entries {
            let cursor = &mut next[slot(e.0)];
            by_slot[*cursor as usize] = e;
            *cursor += 1;
        }
        drop(next);
        // Sort each slot's few entries by (key, id), so buckets become
        // contiguous runs with ids ascending, and keep the runs within the
        // cap; each slot's start moves to where its kept entries begin.
        let (mut keys, mut ids) = (Vec::new(), Vec::new());
        for p in 0..dir.len() - 1 {
            let run = &mut by_slot[dir[p] as usize..dir[p + 1] as usize];
            dir[p] = keys.len() as u32;
            run.sort_unstable();
            for bucket in run.chunk_by(|a, b| a.0 == b.0) {
                if bucket.len() <= max_bucket {
                    keys.extend(bucket.iter().map(|&(k, _)| k));
                    ids.extend(bucket.iter().map(|&(_, id)| id));
                }
            }
        }
        dir[1 << bits] = keys.len() as u32;
        keys.shrink_to_fit();
        ids.shrink_to_fit();
        Self {
            keys,
            ids,
            dir,
            shift,
        }
    }

    /// Record ids in `key`'s bucket (empty when absent or dropped).
    #[inline]
    fn bucket(&self, key: u64) -> &[u32] {
        let p = (key >> self.shift) as usize;
        let (lo, hi) = (self.dir[p] as usize, self.dir[p + 1] as usize);
        let span = &self.keys[lo..hi];
        let start = span.partition_point(|&k| k < key);
        let len = span[start..].iter().take_while(|&&k| k == key).count();
        &self.ids[lo + start..lo + start + len]
    }
}

/// One worker's share of a streaming pass: its run of the current chunk,
/// the run's candidate lists, and a dense shared-token counter over every
/// indexed record with the ids it touched (so a reset costs only those).
/// Kept for the whole pass, so the counter is sized once per worker.
#[derive(Default)]
struct ProbeRun {
    run: TokenRun,
    counts: Vec<u32>,
    touched: Vec<u32>,
    /// The run's candidate lists back to back, and per record where its
    /// list ends in `ids` (see [`span`]).
    ids: Vec<u32>,
    ends: Vec<usize>,
}

impl ProbeRun {
    /// Replace the run with `records` and probe each against `index`.
    fn fill(&mut self, index: &ShardedIndex, records: &[Record]) {
        self.run.fill(records, index.cfg.lsh, index.cfg.seed);
        self.counts.resize(index.stats.records, 0);
        self.ids.clear();
        self.ends.clear();
        for i in 0..records.len() {
            index.probe(self, i);
            self.ends.push(self.ids.len());
        }
    }

    /// Candidate ids of the run's record `i`, sorted.
    fn candidates(&self, i: usize) -> &[u32] {
        &self.ids[span(&self.ends, i)]
    }
}

/// A sealed sharded blocking index over one record collection (the "right"
/// side). Queries are read-only and thread-safe.
#[derive(Debug)]
pub struct ShardedIndex {
    cfg: BlockingConfig,
    shards: Vec<Shard>,
    /// The LSH band tables, one per band (none with the tier off).
    bands: Vec<Band>,
    stats: IndexStats,
}

impl ShardedIndex {
    /// Build in one call from a full record slice (convenience for tests and
    /// small collections; large builds should feed [`IndexBuilder`] in
    /// chunks).
    pub fn build(records: &[Record], cfg: BlockingConfig, pool: &RotomPool) -> Self {
        let mut b = IndexBuilder::new(cfg);
        b.add_chunk(records, pool);
        b.finish()
    }

    /// Build statistics (pruning counts).
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Append the sorted deduplicated candidate ids of `p`'s record `i` to
    /// `p.ids`.
    ///
    /// Each token's posting list is read from the owning shard, and shared
    /// tokens are counted in the dense counter, resetting only the slots
    /// touched. Ids reaching `min_shared` join the ids sharing an LSH bucket
    /// in any band, then sort and dedup. Counts are integer sums and each
    /// record's list depends on that record alone, so the result is
    /// bit-identical at any shard or worker count.
    fn probe(&self, p: &mut ProbeRun, i: usize) {
        let ProbeRun {
            run,
            counts,
            touched,
            ids,
            ..
        } = p;
        if self.cfg.min_shared == 0 {
            // Documented "no blocking" semantics: the full cross product
            // (`records` fits in u32, see `chunk_ids`).
            ids.extend(0..self.stats.records as u32);
            return;
        }
        let start = ids.len();
        let ns = self.shards.len();
        for (t, h) in run.record(i) {
            for &j in self.shards[token_shard(h, ns)].postings(h, t) {
                let c = &mut counts[j as usize];
                if *c == 0 {
                    touched.push(j);
                }
                *c += 1;
            }
        }
        for &j in touched.iter() {
            if std::mem::take(&mut counts[j as usize]) as usize >= self.cfg.min_shared {
                ids.push(j);
            }
        }
        touched.clear();
        for (band, &key) in self.bands.iter().zip(run.keys(i)) {
            ids.extend_from_slice(band.bucket(key));
        }
        sort_dedup_tail(ids, start);
    }
}

/// Sort `v[start..]` and drop its repeats, leaving `v[..start]` as it is.
fn sort_dedup_tail(v: &mut Vec<u32>, start: usize) {
    v[start..].sort_unstable();
    let mut kept = start;
    for r in start..v.len() {
        if kept == start || v[r] != v[kept - 1] {
            v[kept] = v[r];
            kept += 1;
        }
    }
    v.truncate(kept);
}

/// Statistics of one streaming run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockingStats {
    /// Left records streamed.
    pub left_records: usize,
    /// Chunks ingested.
    pub chunks: usize,
    /// Candidate pairs emitted.
    pub candidates: u64,
    /// Largest candidate buffer observed before a flush — bounded by
    /// `max_buffered_pairs` plus one record's candidate list, independent of
    /// total candidate count.
    pub peak_buffered_pairs: usize,
}

/// Stream candidate pairs for `left` chunks against `index`, flushing
/// `(left_id, right_id)` batches to `sink` whenever the buffer reaches
/// [`BlockingConfig::max_buffered_pairs`]. Left ids number records in
/// stream order. Pairs arrive sorted within and across batches, so the
/// concatenation of all batches equals [`crate::em::block_candidates`]'s
/// sorted output when the config is exact (no pruning, no LSH).
pub fn stream_candidates<I, F>(
    index: &ShardedIndex,
    chunks: I,
    pool: &RotomPool,
    mut sink: F,
) -> BlockingStats
where
    I: IntoIterator<Item = Vec<Record>>,
    F: FnMut(&[(usize, usize)]),
{
    let mut stats = BlockingStats::default();
    let mut buf: Vec<(usize, usize)> = Vec::new();
    let cap = index.cfg.max_buffered_pairs.max(1);
    let mut runs: Vec<ProbeRun> = Vec::new();
    for records in chunks {
        // Each worker probes a contiguous run of the chunk into its own
        // flat candidate buffer; walking the runs in order walks the chunk.
        let k = fill_runs(pool, &mut runs, &records, |p, recs| p.fill(index, recs));
        let per_left = runs[..k]
            .iter()
            .flat_map(|p| (0..p.ends.len()).map(move |i| p.candidates(i)));
        for (left_id, rights) in (stats.left_records..).zip(per_left) {
            buf.extend(rights.iter().map(|&j| (left_id, j as usize)));
            stats.peak_buffered_pairs = stats.peak_buffered_pairs.max(buf.len());
            if buf.len() >= cap {
                stats.candidates += buf.len() as u64;
                sink(&buf);
                buf.clear();
            }
        }
        stats.left_records += records.len();
        stats.chunks += 1;
    }
    if !buf.is_empty() {
        stats.candidates += buf.len() as u64;
        sink(&buf);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::{self, block_candidates, content_token_list, EmConfig, EmFlavor};

    fn pairs_from_stream(
        index: &ShardedIndex,
        left: &[Record],
        chunk: usize,
    ) -> Vec<(usize, usize)> {
        let chunks: Vec<Vec<Record>> = left.chunks(chunk.max(1)).map(|c| c.to_vec()).collect();
        let mut out = Vec::new();
        stream_candidates(index, chunks, &RotomPool::new(2), |batch| {
            out.extend_from_slice(batch)
        });
        out
    }

    fn small_collections() -> (Vec<Record>, Vec<Record>) {
        let d = em::generate(
            EmFlavor::AbtBuy,
            &EmConfig {
                num_entities: 40,
                train_pairs: 80,
                test_pairs: 20,
                ..Default::default()
            },
        );
        let left = d.train_pairs.iter().map(|p| p.left.clone()).collect();
        let right = d.train_pairs.iter().map(|p| p.right.clone()).collect();
        (left, right)
    }

    #[test]
    fn exact_config_matches_block_candidates() {
        let (left, right) = small_collections();
        let pool = RotomPool::new(2);
        for min_shared in [1usize, 2, 3] {
            let cfg = BlockingConfig {
                min_shared,
                ..Default::default()
            };
            let index = ShardedIndex::build(&right, cfg, &pool);
            let expect = block_candidates(&left, &right, min_shared);
            assert_eq!(
                pairs_from_stream(&index, &left, 17),
                expect,
                "min_shared={min_shared}"
            );
        }
    }

    #[test]
    fn min_shared_zero_is_cross_product() {
        let (left, right) = small_collections();
        let pool = RotomPool::new(2);
        let index = ShardedIndex::build(
            &right[..5],
            BlockingConfig {
                min_shared: 0,
                ..Default::default()
            },
            &pool,
        );
        let pairs = pairs_from_stream(&index, &left[..4], 2);
        assert_eq!(pairs, block_candidates(&left[..4], &right[..5], 0));
        assert_eq!(pairs.len(), 20);
    }

    #[test]
    fn df_ceiling_prunes_stopwords_but_keeps_matches() {
        // Every record carries the same stopword tokens; a low ceiling must
        // prune them without losing pairs that share enough rare tokens.
        let corpus = em::EmCorpus::new(em::CorpusConfig {
            num_entities: 300,
            stopwords: 3,
            ..Default::default()
        });
        let left = corpus.chunk(em::CorpusSide::Left, 0..300);
        let right = corpus.chunk(em::CorpusSide::Right, 0..300);
        let pool = RotomPool::new(2);
        let cfg = BlockingConfig {
            min_shared: 2,
            df_ceiling: Some(50),
            ..Default::default()
        };
        let index = ShardedIndex::build(&right, cfg, &pool);
        let stats = index.stats();
        assert!(
            stats.tokens_pruned >= 3,
            "stopwords must be pruned: {stats:?}"
        );
        // Exactly the three stopwords go, each with one posting per record.
        assert_eq!(stats.postings_pruned, 3 * 300, "{stats:?}");
        let pairs = pairs_from_stream(&index, &left, 64);
        let matched = (0..300)
            .filter(|&i| pairs.binary_search(&(i, i)).is_ok())
            .count();
        assert!(matched >= 295, "match recall under pruning: {matched}/300");
        // Pruning only ever removes candidates relative to the exact path.
        let exact = block_candidates(&left, &right, 2);
        assert!(pairs.iter().all(|p| exact.binary_search(p).is_ok()));
    }

    #[test]
    fn lsh_probe_finds_its_own_signature() {
        let corpus = em::EmCorpus::new(em::CorpusConfig {
            num_entities: 100,
            ..Default::default()
        });
        let right = corpus.chunk(em::CorpusSide::Right, 0..100);
        let pool = RotomPool::new(1);
        let index = ShardedIndex::build(
            &right,
            BlockingConfig {
                lsh: Some(LshParams::default()),
                ..Default::default()
            },
            &pool,
        );
        // A record always collides with itself in every band.
        for (j, r) in right.iter().enumerate() {
            let keys = band_keys(&content_token_list(r), LshParams::default(), index.cfg.seed);
            assert_eq!(keys.len(), index.bands.len());
            for (band, key) in index.bands.iter().zip(keys) {
                assert!(band.bucket(key).contains(&(j as u32)), "record {j}");
            }
        }
        // Empty records produce no signature and no probe hits.
        assert!(band_keys(&[], LshParams::default(), 1).is_empty());
        let nothing = [Record { attrs: vec![] }];
        let empty = ShardedIndex::build(&nothing, index.cfg.clone(), &pool);
        assert!(pairs_from_stream(&empty, &nothing, 1).is_empty());
    }

    #[test]
    fn band_seal_drops_oversized_buckets_and_finds_the_rest() {
        // Buckets of 1..=5 records under keys spread over the whole range,
        // plus 40 one-record buckets just below u64::MAX that all share the
        // last directory slot.
        let mut entries = Vec::new();
        let mut id = 0u32;
        for (b, size) in (1..=5usize).cycle().take(40).enumerate() {
            let key = (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | (b as u64 & 1);
            for _ in 0..size {
                entries.push((key, id));
                id += 1;
            }
            entries.push((u64::MAX - b as u64, id));
            id += 1;
        }
        let band = Band::seal(entries.clone(), 4);
        let mut kept = 0;
        for &(key, _) in &entries {
            let expect: Vec<u32> = entries
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, id)| id)
                .collect();
            let got = band.bucket(key);
            if expect.len() <= 4 {
                assert_eq!(got, &expect[..], "key {key:#x}");
                kept += 1;
            } else {
                assert!(got.is_empty(), "bucket of {} not dropped", expect.len());
            }
        }
        assert_eq!(band.keys.len(), kept);
        assert!(band.bucket(0x1234_5678).is_empty());
        // An empty band answers every key with nothing.
        assert!(Band::seal(Vec::new(), 4).bucket(u64::MAX).is_empty());
    }

    #[test]
    fn chunk_ids_checks_the_chunk_end_at_the_u32_boundary() {
        let max = u32::MAX as usize;
        assert_eq!(chunk_ids(0, 3), Some(0..3));
        assert_eq!(chunk_ids(max - 2, 2), Some(u32::MAX - 2..u32::MAX));
        assert_eq!(chunk_ids(max, 0), Some(u32::MAX..u32::MAX));
        // The start fits but the end does not: the old start-only check
        // let these wrap.
        assert_eq!(chunk_ids(max - 2, 3), None);
        assert_eq!(chunk_ids(max, 1), None);
        assert_eq!(chunk_ids(max + 1, 0), None);
        assert_eq!(chunk_ids(usize::MAX, 1), None);
    }

    #[test]
    fn token_table_interns_grows_and_checks_text() {
        let mut table = TokenTable::default();
        let tokens: Vec<String> = (0..100).map(|i| format!("tok{i}")).collect();
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(table.intern(fnv1a64(t.as_bytes()), t), i as u32);
        }
        // Re-interning finds the existing index; the table grew past its
        // initial two slots and stays at most half full.
        for (i, t) in tokens.iter().enumerate() {
            assert_eq!(table.intern(fnv1a64(t.as_bytes()), t), i as u32);
            assert_eq!(table.lookup(fnv1a64(t.as_bytes()), t), Ok(i));
            assert_eq!(table.token(i), t);
        }
        assert_eq!(table.len(), 100);
        assert!(table.slots.len() >= 200);
        assert!(table.lookup(fnv1a64(b"absent"), "absent").is_err());
        // A hash match alone is not a hit: the text must match too.
        assert!(table.lookup(fnv1a64(b"tok7"), "tok8").is_err());
        assert!(TokenTable::default()
            .lookup(fnv1a64(b"tok1"), "tok1")
            .is_err());
    }

    #[test]
    fn streaming_buffer_stays_bounded() {
        let (left, right) = small_collections();
        let pool = RotomPool::new(2);
        let cfg = BlockingConfig {
            min_shared: 1,
            max_buffered_pairs: 64,
            ..Default::default()
        };
        let index = ShardedIndex::build(&right, cfg, &pool);
        let chunks: Vec<Vec<Record>> = left.chunks(16).map(|c| c.to_vec()).collect();
        let mut batches = 0usize;
        let mut total = 0usize;
        let stats = stream_candidates(&index, chunks, &pool, |batch| {
            batches += 1;
            total += batch.len();
        });
        assert_eq!(stats.candidates as usize, total);
        assert!(
            stats.candidates as usize > 64,
            "workload too small to test streaming"
        );
        // The buffer bound: cap plus at most one record's candidate list.
        assert!(
            stats.peak_buffered_pairs <= 64 + right.len(),
            "peak {} exceeds bound",
            stats.peak_buffered_pairs
        );
        assert!(batches > 1, "must flush more than once");
    }

    #[test]
    fn token_shard_is_stable_and_in_range() {
        for ns in [1usize, 2, 7, 64] {
            for t in ["alpha", "beta", "x-100.5", "zu"] {
                let s = token_shard(fnv1a64(t.as_bytes()), ns);
                assert!(s < ns);
                assert_eq!(s, token_shard(fnv1a64(t.as_bytes()), ns), "stable for {t}");
            }
        }
    }
}
