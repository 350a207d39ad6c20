//! Million-record blocking benchmark: index-build records/sec, streamed
//! candidate pairs/sec, recall vs exhaustive `blocked()` on a verification
//! slice, and a peak-allocation RSS proxy, written to `BENCH_blocking.json`.
//!
//! Each row (one per worker count, 1 and 8) carries two measurements:
//!
//! * **scale** — a stopword-free [`EmCorpus`] of `--records` entities
//!   (default 1M, the acceptance floor). The index is built in streamed
//!   chunks, then the full left side streams through
//!   [`stream_candidates`] under a bounded candidate buffer. Recall is
//!   measured against exhaustive [`block_candidates`] on a 2000x2000
//!   verification slice (the corpus has no high-df token, so the exact
//!   token tier is feasible and the comparison honest).
//! * **stress** — a 200k corpus with 3 stopwords welded onto every record,
//!   which makes exhaustive `blocked(min_shared=2)` degenerate toward the
//!   cross product. The df ceiling must prune the stopword posting lists
//!   while match-pair recall (left i vs right i) holds, with the LSH tier
//!   enabled as the recovery net.
//!
//! Gates (`--check`): at least 1M records indexed; recall and stress recall
//! at least 0.95; at least 3 stress tokens pruned; pairs/sec at least 0.8x
//! the checked-in `current` when that row measured the same record count.
//!
//!   cargo run --release --offline --bin blockbench [-- --check] [-- --records N]

use rotom_bench::alloc;
use rotom_bench::record::{self, Args, Bench, Ratio, Ref, Row, Rule};
use rotom_datasets::blocking::{stream_candidates, BlockingConfig, IndexBuilder, LshParams};
use rotom_datasets::em::{block_candidates, CorpusConfig, CorpusSide, EmCorpus};
use rotom_nn::RotomPool;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: blockbench [--check] [--records N]";
const CHUNK: usize = 8192;
const SLICE: usize = 2000;
const STRESS_RECORDS: usize = 200_000;

/// One measured child: scale then stress measurement at the current
/// `ROTOM_THREADS`.
fn run_child(records: usize) -> Row {
    let pool = RotomPool::global();
    let corpus = EmCorpus::new(CorpusConfig {
        num_entities: records,
        ..Default::default()
    });

    // --- scale row: streamed build, streamed candidates, slice recall ---
    let cfg = BlockingConfig {
        min_shared: 2,
        df_ceiling: Some(4096),
        lsh: Some(LshParams::default()),
        max_buffered_pairs: 1 << 16,
        ..Default::default()
    };
    let max_buffered = cfg.max_buffered_pairs;
    let t0 = Instant::now();
    let mut builder = IndexBuilder::new(cfg);
    for chunk in corpus.chunks(CorpusSide::Right, CHUNK) {
        builder.add_chunk(&chunk, pool);
    }
    let index = builder.finish();
    let build_secs = t0.elapsed().as_secs_f64();

    // Stream every left record; keep only the verification slice's pairs.
    let t1 = Instant::now();
    let mut slice_pairs: Vec<(usize, usize)> = Vec::new();
    let stats = stream_candidates(
        &index,
        corpus.chunks(CorpusSide::Left, CHUNK),
        pool,
        |batch| {
            slice_pairs.extend(
                batch
                    .iter()
                    .filter(|&&(l, r)| l < SLICE && r < SLICE)
                    .copied(),
            );
        },
    );
    let stream_secs = t1.elapsed().as_secs_f64();
    assert_eq!(stats.left_records, records);
    assert!(
        stats.peak_buffered_pairs <= max_buffered + records,
        "candidate buffer unbounded: peak {}",
        stats.peak_buffered_pairs
    );

    // Exhaustive token-overlap blocking on the slice; every exhaustive pair
    // the pipeline misses costs recall.
    let slice = SLICE.min(records);
    let left_slice = corpus.chunk(CorpusSide::Left, 0..slice);
    let right_slice = corpus.chunk(CorpusSide::Right, 0..slice);
    let exhaustive = block_candidates(&left_slice, &right_slice, 2);
    slice_pairs.sort_unstable();
    let hit = exhaustive
        .iter()
        .filter(|p| slice_pairs.binary_search(p).is_ok())
        .count();
    let recall = hit as f64 / exhaustive.len().max(1) as f64;

    // --- stress row: stopworded corpus, pruning must engage ---
    let stress = EmCorpus::new(CorpusConfig {
        num_entities: STRESS_RECORDS.min(records),
        stopwords: 3,
        ..Default::default()
    });
    let stress_cfg = BlockingConfig {
        min_shared: 2,
        df_ceiling: Some(1024),
        lsh: Some(LshParams::default()),
        ..Default::default()
    };
    let mut sb = IndexBuilder::new(stress_cfg);
    for chunk in stress.chunks(CorpusSide::Right, CHUNK) {
        sb.add_chunk(&chunk, pool);
    }
    let sindex = sb.finish();
    let pruned = sindex.stats().tokens_pruned;
    let n_stress = stress.num_entities();
    let mut matched = 0usize;
    let mut streamed = 0usize;
    stream_candidates(
        &sindex,
        stress.chunks(CorpusSide::Left, CHUNK),
        pool,
        |batch| {
            matched += batch.iter().filter(|&&(l, r)| l == r).count();
            streamed += batch.len();
        },
    );
    let stress_recall = matched as f64 / n_stress as f64;
    // Pruning is the whole point: without it each stopword posting list has
    // every record and each probe degenerates to a corpus scan.
    assert!(
        streamed < n_stress * n_stress / 10,
        "stress candidates not pruned: {streamed}"
    );

    Row::new()
        .num("threads", pool.threads() as f64, 0)
        .num("records", records as f64, 0)
        .num("index_records_per_sec", records as f64 / build_secs, 2)
        .num("pairs_per_sec", stats.candidates as f64 / stream_secs, 2)
        .num("candidates", stats.candidates as f64, 0)
        .num("recall", recall, 6)
        .num("peak_mb", alloc::peak_bytes() as f64 / (1024.0 * 1024.0), 1)
        .num("stress_pruned_tokens", pruned as f64, 0)
        .num("stress_recall", stress_recall, 6)
}

fn main() {
    let args = Args::from_env(USAGE, &["--records"]);
    let records = args.value("--records").unwrap_or(1_000_000);
    Bench {
        file: "BENCH_blocking.json",
        workload: format!(
            "sharded blocking: {records}-record EmCorpus, min_shared 2, df_ceiling 4096, \
             lsh 8x2, chunk {CHUNK}; stress {STRESS_RECORDS} records + 3 stopwords, \
             df_ceiling 1024"
        ),
        current: record::per_thread_count("BLOCKBENCH", || run_child(records)),
        extra: Vec::new(),
        trajectory: &[
            Ratio::of("pairs_per_sec_ratio", "pairs_per_sec", 3),
            Ratio::of("index_ratio", "index_records_per_sec", 3),
        ],
        rules: &[
            Rule::at_least("records", 1e6, Ref::Absolute),
            Rule::at_least("recall", 0.95, Ref::Absolute),
            // The df ceiling must prune the 3 welded-on stopwords.
            Rule::at_least("stress_pruned_tokens", 3.0, Ref::Absolute),
            Rule::at_least("stress_recall", 0.95, Ref::Absolute),
            Rule::at_least("pairs_per_sec", 0.8, Ref::Previous).when_same("records"),
        ],
    }
    .finish(args.check);
}
