//! Blocking-plane integration suite: the sharded streaming pipeline must be
//! a drop-in for exhaustive `block_candidates`, bit-identical at any shard
//! or worker count, equal to a brute-force reference with the df ceiling and
//! LSH tier engaged, and reproducing a pinned candidate-stream checksum,
//! with the LSH tier holding a recall floor on known match pairs and the df
//! ceiling carrying the stopword stress case.
//!
//! ci.sh runs this at `ROTOM_THREADS` 1 and 8; the tests additionally pin
//! explicit pool widths so both axes are covered in one process.

use rotom_datasets::blocking::{
    band_keys, stream_candidates, BlockingConfig, ContentTokens, IndexBuilder, LshParams,
    ShardedIndex,
};
use rotom_datasets::csv;
use rotom_datasets::em::{
    self, block_candidates, content_token_list, CorpusConfig, CorpusSide, EmConfig, EmCorpus,
    EmFlavor,
};
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};
use rotom_text::Record;
use std::collections::{HashMap, HashSet};

fn corpus(n: usize, stopwords: usize) -> EmCorpus {
    EmCorpus::new(CorpusConfig {
        num_entities: n,
        stopwords,
        ..Default::default()
    })
}

fn streamed_pairs(
    index: &ShardedIndex,
    left: &[Record],
    chunk: usize,
    pool: &RotomPool,
) -> Vec<(usize, usize)> {
    let chunks: Vec<Vec<Record>> = left.chunks(chunk).map(|c| c.to_vec()).collect();
    let mut out = Vec::new();
    stream_candidates(index, chunks, pool, |batch| out.extend_from_slice(batch));
    out
}

/// Property test: the sharded pipeline equals single-shard
/// `block_candidates` (sorted) for shard counts {1, 2, 7} x pool widths
/// {1, 8}, and every configuration produces the identical byte-for-byte
/// candidate sequence.
#[test]
fn sharded_pipeline_matches_block_candidates_at_any_width() {
    let c = corpus(300, 0);
    let left = c.chunk(CorpusSide::Left, 0..300);
    let right = c.chunk(CorpusSide::Right, 0..300);
    for min_shared in [1usize, 2] {
        let exhaustive = block_candidates(&left, &right, min_shared);
        let mut outputs = Vec::new();
        for num_shards in [1usize, 2, 7] {
            for threads in [1usize, 8] {
                let pool = RotomPool::new(threads);
                let cfg = BlockingConfig {
                    min_shared,
                    num_shards,
                    df_ceiling: None,
                    lsh: None,
                    ..Default::default()
                };
                let index = ShardedIndex::build(&right, cfg, &pool);
                let pairs = streamed_pairs(&index, &left, 37, &pool);
                assert_eq!(
                    pairs, exhaustive,
                    "shards={num_shards} threads={threads} min_shared={min_shared}"
                );
                outputs.push(pairs);
            }
        }
        // Bit-identical across the whole grid, not merely set-equal.
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }
}

/// The LSH tier alone (token tier disabled via an unreachable `min_shared`)
/// must recover at least 90% of the corpus's known match pairs.
#[test]
fn lsh_tier_recall_floor_on_known_matches() {
    let n = 400;
    let c = corpus(n, 0);
    let left = c.chunk(CorpusSide::Left, 0..n);
    let right = c.chunk(CorpusSide::Right, 0..n);
    let pool = RotomPool::new(2);
    let cfg = BlockingConfig {
        // No record carries this many content tokens: the token tier emits
        // nothing and every candidate below comes from LSH banding.
        min_shared: 1000,
        lsh: Some(LshParams::default()),
        ..Default::default()
    };
    let index = ShardedIndex::build(&right, cfg, &pool);
    let pairs = streamed_pairs(&index, &left, 64, &pool);
    let matched = (0..n)
        .filter(|&i| pairs.binary_search(&(i, i)).is_ok())
        .count();
    assert!(
        matched as f64 / n as f64 >= 0.9,
        "LSH-only match recall {matched}/{n}"
    );
    // Sanity: LSH produced candidates, but far fewer than the cross product.
    assert!(!pairs.is_empty() && pairs.len() < n * n / 10);
}

/// Stopword stress: with shared tokens on every record the exhaustive pair
/// set degenerates toward the cross product; the df ceiling must prune the
/// stopword posting lists while keeping >= 95% of true matches, and the
/// bucket cap must keep the LSH tier from re-introducing the blowup.
#[test]
fn df_ceiling_carries_stopword_stress_with_bounded_buffer() {
    let n = 500;
    let c = corpus(n, 3);
    let left = c.chunk(CorpusSide::Left, 0..n);
    let right = c.chunk(CorpusSide::Right, 0..n);
    let pool = RotomPool::new(8);
    let cfg = BlockingConfig {
        min_shared: 2,
        df_ceiling: Some(100),
        lsh: Some(LshParams::default()),
        max_buffered_pairs: 128,
        ..Default::default()
    };
    let max_buffered = cfg.max_buffered_pairs;
    let index = ShardedIndex::build(&right, cfg, &pool);
    assert!(index.stats().tokens_pruned >= 3, "{:?}", index.stats());
    let chunks: Vec<Vec<Record>> = left.chunks(50).map(|c| c.to_vec()).collect();
    let mut pairs = Vec::new();
    let stats = stream_candidates(&index, chunks, &pool, |batch| {
        pairs.extend_from_slice(batch)
    });
    // Streaming bound: the buffer never held more than the flush threshold
    // plus one record's candidate list.
    assert!(
        stats.peak_buffered_pairs <= max_buffered + n,
        "peak {} unbounded",
        stats.peak_buffered_pairs
    );
    let matched = (0..n)
        .filter(|&i| pairs.binary_search(&(i, i)).is_ok())
        .count();
    assert!(matched as f64 / n as f64 >= 0.95, "recall {matched}/{n}");
    assert!(
        pairs.len() < n * n / 10,
        "stopword blowup not pruned: {} pairs",
        pairs.len()
    );
}

/// End-to-end ingestion path: corpus -> CSV text -> `table_chunks` ->
/// `rows_to_records` -> streaming pipeline, matching the in-memory result.
#[test]
fn csv_chunked_ingestion_feeds_the_pipeline() {
    let n = 120;
    let c = corpus(n, 0);
    let left = c.chunk(CorpusSide::Left, 0..n);
    let right = c.chunk(CorpusSide::Right, 0..n);

    // Render the left side as a CSV table (quoting handled by write_row).
    let mut text = csv::write_row(&["title", "description"]);
    text.push('\n');
    for r in &left {
        let fields: Vec<&str> = r.attrs.iter().map(|(_, v)| v.as_str()).collect();
        text.push_str(&csv::write_row(&fields));
        text.push('\n');
    }

    let pool = RotomPool::new(4);
    let index = ShardedIndex::build(
        &right,
        BlockingConfig {
            min_shared: 2,
            ..Default::default()
        },
        &pool,
    );
    let chunks = csv::table_chunks(&text, 16).expect("header");
    let header = chunks.header().to_vec();
    let record_chunks: Vec<Vec<Record>> = chunks
        .map(|rows| csv::rows_to_records(&header, &rows.expect("chunk")))
        .collect();
    assert!(record_chunks.len() > 1, "must ingest in multiple chunks");
    let mut via_csv = Vec::new();
    let stats = stream_candidates(&index, record_chunks, &pool, |batch| {
        via_csv.extend_from_slice(batch)
    });
    assert_eq!(stats.left_records, n);
    assert_eq!(via_csv, streamed_pairs(&index, &left, 16, &pool));
    assert_eq!(via_csv, em::block_candidates(&left, &right, 2));
}

/// Brute-force reference for any config with `min_shared >= 1`: `(i, j)` is
/// a candidate when the records share at least `min_shared` tokens whose
/// document frequency over `right` is within the df ceiling, or when any of
/// their band keys meet in a bucket of at most `max_bucket` right records.
fn reference_pairs(left: &[Record], right: &[Record], cfg: &BlockingConfig) -> Vec<(usize, usize)> {
    let ltoks: Vec<Vec<String>> = left.iter().map(content_token_list).collect();
    let rtoks: Vec<Vec<String>> = right.iter().map(content_token_list).collect();
    let mut df: HashMap<&str, usize> = HashMap::new();
    for t in rtoks.iter().flatten() {
        *df.entry(t.as_str()).or_default() += 1;
    }
    let ceiling = cfg.df_ceiling.unwrap_or(usize::MAX);
    let kept: Vec<HashSet<&str>> = rtoks
        .iter()
        .map(|ts| {
            ts.iter()
                .map(String::as_str)
                .filter(|t| df[t] <= ceiling)
                .collect()
        })
        .collect();
    let keys = |toks: &[Vec<String>]| -> Vec<Vec<u64>> {
        toks.iter()
            .map(|ts| {
                cfg.lsh
                    .map_or_else(Vec::new, |p| band_keys(ts, p, cfg.seed))
            })
            .collect()
    };
    let (lkeys, rkeys) = (keys(&ltoks), keys(&rtoks));
    let mut bucket_size: HashMap<(usize, u64), usize> = HashMap::new();
    for ks in &rkeys {
        for (band, &k) in ks.iter().enumerate() {
            *bucket_size.entry((band, k)).or_default() += 1;
        }
    }
    let max_bucket = cfg.lsh.map_or(0, |p| p.max_bucket);
    let mut out = Vec::new();
    for (i, ts) in ltoks.iter().enumerate() {
        for j in 0..right.len() {
            let shared = ts.iter().filter(|t| kept[j].contains(t.as_str())).count();
            let collide = lkeys[i]
                .iter()
                .zip(&rkeys[j])
                .enumerate()
                .any(|(band, (a, b))| a == b && bucket_size[&(band, *b)] <= max_bucket);
            if shared >= cfg.min_shared || collide {
                out.push((i, j));
            }
        }
    }
    out
}

/// A record whose only attribute is `text`.
fn record(text: &str) -> Record {
    Record {
        attrs: vec![("title".to_string(), text.to_string())],
    }
}

/// Oracle property test with the df ceiling and the LSH tier engaged: the
/// streamed pairs equal [`reference_pairs`] for shard counts {1, 2, 7} x
/// pool widths {1, 2, 8} x `min_shared` {1, 2, 3}, on a stopword corpus with
/// empty-token records mixed in and two constructed LSH buckets, one of
/// exactly `max_bucket` records and one of `max_bucket + 1`.
#[test]
fn lsh_and_df_ceiling_match_brute_force_reference() {
    let max_bucket = 6;
    let c = corpus(240, 3);
    let mut left = c.chunk(CorpusSide::Left, 0..240);
    let mut right = c.chunk(CorpusSide::Right, 0..240);
    // Records with no content token: no posting, no band key.
    for k in [0usize, 57, 130] {
        left.insert(k, record("a b"));
        right.insert(k + 3, record("x"));
    }
    // Identical token sets collide in every band, so these are buckets of
    // exactly `max_bucket` and `max_bucket + 1` records.
    let at_cap = "quorra zephyrine";
    let over_cap = "bellweather okapiary";
    let first_at = right.len();
    right.extend((0..max_bucket).map(|_| record(at_cap)));
    let first_over = right.len();
    right.extend((0..=max_bucket).map(|_| record(over_cap)));
    left.push(record(at_cap));
    left.push(record(over_cap));
    let base = BlockingConfig {
        // Prunes the stopwords and both constructed token sets, so the
        // constructed pairs can only come from the LSH tier.
        df_ceiling: Some(max_bucket - 1),
        lsh: Some(LshParams {
            max_bucket,
            ..LshParams::default()
        }),
        max_buffered_pairs: 256,
        ..Default::default()
    };
    for min_shared in [1usize, 2, 3] {
        let cfg = BlockingConfig {
            min_shared,
            ..base.clone()
        };
        let expect = reference_pairs(&left, &right, &cfg);
        let (at, over) = (left.len() - 2, left.len() - 1);
        for j in first_at..first_over {
            assert!(expect.binary_search(&(at, j)).is_ok(), "at-cap bucket kept");
        }
        for j in first_over..right.len() {
            assert!(
                expect.binary_search(&(over, j)).is_err(),
                "over-cap bucket dropped"
            );
        }
        for num_shards in [1usize, 2, 7] {
            for threads in [1usize, 2, 8] {
                let pool = RotomPool::new(threads);
                let cfg = BlockingConfig {
                    num_shards,
                    ..cfg.clone()
                };
                let index = ShardedIndex::build(&right, cfg, &pool);
                assert!(index.stats().tokens_pruned >= 5, "{:?}", index.stats());
                assert_eq!(
                    streamed_pairs(&index, &left, 29, &pool),
                    expect,
                    "shards={num_shards} threads={threads} min_shared={min_shared}"
                );
            }
        }
    }
}

/// FNV-1a 64 over the little-endian `(left, right)` ids of a pair stream.
fn stream_checksum(pairs: impl IntoIterator<Item = (usize, usize)>) -> (u64, u64) {
    let (mut h, mut n) = (0xcbf2_9ce4_8422_2325u64, 0u64);
    for (l, r) in pairs {
        for b in (l as u64)
            .to_le_bytes()
            .into_iter()
            .chain((r as u64).to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        n += 1;
    }
    (h, n)
}

/// The full candidate stream of a 20k-record, 3-stopword corpus under the
/// `em_block_300k` benchmark config (`min_shared` 2, df ceiling 4096,
/// default LSH) is pinned by pair count and FNV-64 checksum. The values
/// were taken from the two-stage HashMap probe with binary-searched band
/// tables that preceded the flat-array probe, so any change to the
/// candidate sets, their order or the streaming order shows here. The
/// index's build statistics (records, tokens and postings kept and pruned)
/// are pinned alongside.
#[test]
fn candidate_stream_checksum_is_pinned() {
    let c = corpus(20_000, 3);
    let cfg = BlockingConfig {
        min_shared: 2,
        df_ceiling: Some(4096),
        lsh: Some(LshParams::default()),
        ..Default::default()
    };
    let pool = RotomPool::global();
    let mut builder = IndexBuilder::new(cfg);
    for chunk in c.chunks(CorpusSide::Right, 8192) {
        builder.add_chunk(&chunk, pool);
    }
    let index = builder.finish();
    let s = index.stats();
    assert_eq!(
        (
            s.records,
            s.tokens_kept,
            s.tokens_pruned,
            s.postings_kept,
            s.postings_pruned
        ),
        (20_000, 25_045, 3, 135_212, 60_000)
    );
    let mut pairs = Vec::new();
    stream_candidates(&index, c.chunks(CorpusSide::Left, 8192), pool, |batch| {
        pairs.extend_from_slice(batch)
    });
    assert_eq!(stream_checksum(pairs), (0x63fd_37a4_6003_3fb1, 1_837_440));
}

/// A seeded CSV table of `n` two-column rows mixing uppercase ASCII,
/// boundary and interior punctuation, and non-ASCII words whose lowercase
/// changes length or depends on context, from a vocabulary small enough
/// that rows share tokens.
fn unicode_table(n: usize, seed: u64) -> String {
    const WORDS: &[&str] = &[
        "Orange",
        "BOWL",
        "bowl",
        "Deluxe",
        "X-100.5",
        "(866)",
        "USB-C",
        "Straße",
        "STRASSE",
        "İstanbul",
        "ΟΔΟΣ",
        "οδος",
        "Café",
        "CAFÉ",
        "naïve,",
        "NAÏVE",
        "Ærø",
        "ẞIG",
        "ǅemal",
        "日本製",
        "Größe",
        "...",
        "é.",
        "ab",
        "Ü",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = csv::write_row(&["title", "description"]);
    text.push('\n');
    for i in 0..n {
        let mut pick = |k: usize| -> String {
            let mut field = String::new();
            for _ in 0..k {
                field.push_str(rng.choose(WORDS).unwrap());
                field.push(if rng.random_bool(0.2) { '\u{a0}' } else { ' ' });
            }
            field
        };
        let title = format!("{}Model{}", pick(3), i % 17);
        let description = pick(4);
        text.push_str(&csv::write_row(&[&title, &description]));
        text.push('\n');
    }
    text
}

/// `text`'s rows as record chunks of `chunk` rows, read back through
/// `csv::table_chunks`.
fn csv_chunks(text: &str, chunk: usize) -> Vec<Vec<Record>> {
    let chunks = csv::table_chunks(text, chunk).expect("header");
    let header = chunks.header().to_vec();
    chunks
        .map(|rows| csv::rows_to_records(&header, &rows.expect("chunk")))
        .collect()
}

/// The flat content tokens of every record equal `content_token_list`,
/// also after the buffers are cleared and refilled.
fn assert_flat_tokens_match(what: &str, records: &[Record]) {
    let mut flat = ContentTokens::default();
    for _ in 0..2 {
        flat.clear();
        for r in records {
            flat.push(r);
        }
        assert_eq!(flat.len(), records.len(), "{what}");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(
                flat.record(i).collect::<Vec<_>>(),
                content_token_list(r),
                "{what}: record {i}"
            );
        }
    }
}

/// The blocking plane's flat per-run tokens are the reference token lists
/// on every record source the suite uses: the stopword corpus, clean and
/// dirty generated EM pairs, and a CSV table with uppercase and non-ASCII
/// values (the only source that reaches the tokenizer's non-ASCII branch).
#[test]
fn flat_content_tokens_equal_the_reference_lists() {
    let c = corpus(500, 3);
    assert_flat_tokens_match("corpus left", &c.chunk(CorpusSide::Left, 0..500));
    assert_flat_tokens_match("corpus right", &c.chunk(CorpusSide::Right, 0..500));
    for dirty in [false, true] {
        let d = em::generate(
            EmFlavor::AbtBuy,
            &EmConfig {
                num_entities: 60,
                train_pairs: 150,
                test_pairs: 30,
                dirty,
                ..Default::default()
            },
        );
        let records: Vec<Record> = d
            .train_pairs
            .iter()
            .chain(&d.test_pairs)
            .flat_map(|p| [p.left.clone(), p.right.clone()])
            .collect();
        assert_flat_tokens_match(&d.name, &records);
    }
    let table: Vec<Record> = csv_chunks(&unicode_table(200, 7), 64).concat();
    assert!(table
        .iter()
        .any(|r| r.attrs.iter().any(|(_, v)| !v.is_ascii())));
    assert_flat_tokens_match("unicode csv", &table);
    assert_flat_tokens_match("empty record", &[record(""), record("a b")]);
}

/// The CSV table with uppercase and non-ASCII values, streamed chunk by
/// chunk, equals `block_candidates` at shard counts {1, 7} x pool widths
/// {1, 8}.
#[test]
fn unicode_csv_stream_matches_block_candidates() {
    let left_text = unicode_table(90, 11);
    let right = csv_chunks(&unicode_table(80, 12), 80).concat();
    let left = csv_chunks(&left_text, 90).concat();
    for min_shared in [1usize, 2, 3] {
        let expect = block_candidates(&left, &right, min_shared);
        assert!(!expect.is_empty() && expect.len() < left.len() * right.len());
        for num_shards in [1usize, 7] {
            for threads in [1usize, 8] {
                let pool = RotomPool::new(threads);
                let cfg = BlockingConfig {
                    min_shared,
                    num_shards,
                    ..Default::default()
                };
                let index = ShardedIndex::build(&right, cfg, &pool);
                let chunks = csv_chunks(&left_text, 13);
                assert!(chunks.len() > 1, "must stream in several chunks");
                let mut pairs = Vec::new();
                stream_candidates(&index, chunks, &pool, |batch| {
                    pairs.extend_from_slice(batch)
                });
                assert_eq!(
                    pairs, expect,
                    "shards={num_shards} threads={threads} min_shared={min_shared}"
                );
            }
        }
    }
}
