//! `em_block_300k`: one streaming blocking pass over a 300k-entity corpus
//! with three corpus-wide stopwords. The right side is indexed chunk by
//! chunk, the index is sealed (df ceiling 4096, default LSH tier), and every
//! left record streams through `stream_candidates`. No neural network runs;
//! the pass is the only workload whose cost is spread over the worker pool
//! (two threads), with IDF pruning and the LSH bucket cap both engaged.

use crate::{metric, stats, time_setups, trace, Metric, Outcome, Run, ROOT, SETUPS};
use rotom_datasets::blocking::{
    stream_candidates, BlockingConfig, BlockingStats, IndexBuilder, IndexStats, LshParams,
};
use rotom_datasets::em::{CorpusConfig, CorpusSide, EmCorpus};
use rotom_nn::RotomPool;
use std::time::Instant;

/// Entities per side; fixed so one pass takes roughly 20 s on two cores.
const ENTITIES: usize = 300_000;
const CHUNK: usize = 8192;
const STOPWORDS: usize = 3;
const DF_CEILING: usize = 4096;
/// Share of true pairs `(i, i)` the candidates must contain.
const MIN_RECALL: f64 = 0.95;

/// Per-layer metrics of the traced blocking runs.
pub const LAYER: &[(&str, &str)] = &[
    ("blocking.ingest_s", "s"),
    ("blocking.build_s", "s"),
    ("blocking.finish_s", "s"),
    ("blocking.probe_s", "s"),
    ("blocking.sink_s", "s"),
    ("blocking.index_records_per_s", "1/s"),
    ("blocking.pairs_per_s", "1/s"),
    ("blocking.tokens_pruned", "count"),
    ("blocking.postings_pruned", "count"),
    ("blocking.peak_buffered_pairs", "count"),
];

fn config() -> BlockingConfig {
    BlockingConfig {
        min_shared: 2,
        df_ceiling: Some(DF_CEILING),
        lsh: Some(LshParams::default()),
        ..BlockingConfig::default()
    }
}

/// Outputs of one pass.
#[derive(Debug, Clone, Copy)]
struct Pass {
    candidates: u64,
    matches: u64,
    index: IndexStats,
    stream: BlockingStats,
}

impl Pass {
    fn same_outputs(&self, other: &Pass) -> bool {
        (self.candidates, self.matches, self.stream.candidates)
            == (other.candidates, other.matches, other.stream.candidates)
    }
}

/// Index the right side, seal the index, stream the left side through it.
fn pass(corpus: &EmCorpus) -> Pass {
    let pool = RotomPool::global();
    let mut builder = IndexBuilder::new(config());
    let mut right = corpus.chunks(CorpusSide::Right, CHUNK);
    while let Some(chunk) = trace::span("blocking.ingest", || right.next()) {
        trace::span("blocking.build", || builder.add_chunk(&chunk, pool));
    }
    let index = trace::span("blocking.finish", || builder.finish());
    let mut left = corpus.chunks(CorpusSide::Left, CHUNK);
    let chunks = std::iter::from_fn(|| trace::span("blocking.ingest", || left.next()));
    let (mut candidates, mut matches) = (0u64, 0u64);
    let stream = trace::span("blocking.probe", || {
        stream_candidates(&index, chunks, pool, |batch| {
            trace::span("blocking.sink", || {
                candidates += batch.len() as u64;
                matches += batch.iter().filter(|&&(l, r)| l == r).count() as u64;
            })
        })
    });
    Pass {
        candidates,
        matches,
        index: index.stats(),
        stream,
    }
}

fn layer_metrics(spans: &[trace::Span], p: &Pass) -> Vec<Metric> {
    let t = trace::by_name(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let per_s = |n: f64, s: f64| if s > 0.0 { n / s } else { 0.0 };
    let (build, probe) = (
        get("blocking.build").total_s(),
        get("blocking.probe").self_s(),
    );
    let values = [
        get("blocking.ingest").total_s(),
        build,
        get("blocking.finish").total_s(),
        probe,
        get("blocking.sink").total_s(),
        per_s(p.index.records as f64, build),
        per_s(p.candidates as f64, probe),
        p.index.tokens_pruned as f64,
        p.index.postings_pruned as f64,
        p.stream.peak_buffered_pairs as f64,
    ];
    LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, unit, v))
        .collect()
}

pub fn run(r: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, corpus) = time_setups(SETUPS, || {
        EmCorpus::new(CorpusConfig {
            num_entities: ENTITIES,
            stopwords: STOPWORDS,
            seed: r.seed ^ 0xb10c,
            ..CorpusConfig::default()
        })
    });

    let mut walls = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let measure = Instant::now();
    while r.more(&walls, measure) {
        let t = Instant::now();
        passes.push(pass(&corpus));
        walls.push(t.elapsed().as_secs_f64());
    }
    out.attempted = passes.len() as u64;
    let first = passes[0];
    let n = ENTITIES as f64;
    let recall = first.matches as f64 / n;
    out.check(recall >= MIN_RECALL, || {
        format!("match recall {recall} below {MIN_RECALL}")
    });
    out.check(first.stream.left_records == ENTITIES, || {
        format!(
            "streamed {} of {ENTITIES} left records",
            first.stream.left_records
        )
    });
    out.check(first.candidates == first.stream.candidates, || {
        "sink saw a different candidate count than the pipeline reported".into()
    });
    let bound = config().max_buffered_pairs + ENTITIES;
    out.check(first.stream.peak_buffered_pairs <= bound, || {
        format!(
            "candidate buffer peaked at {}",
            first.stream.peak_buffered_pairs
        )
    });
    for (i, p) in passes.iter().enumerate().skip(1) {
        out.check(p.same_outputs(&first), || {
            format!("pass {i} differs from pass 0")
        });
    }
    out.end_to_end(&setup_s, &walls);
    out.detail = vec![
        metric("block_records_per_s", "1/s", n / stats::median(&walls)),
        metric("match_recall", "ratio", recall),
        metric(
            "candidates_per_record",
            "count",
            first.candidates as f64 / n,
        ),
    ];

    if r.trace {
        trace::enable();
        trace::set_rep(1);
        let t = Instant::now();
        let traced = trace::span(ROOT, || pass(&corpus));
        let traced_wall = t.elapsed().as_secs_f64();
        out.attempted += 1;
        out.check(traced.same_outputs(&first), || {
            format!(
                "traced pass found {} candidates, untraced {}",
                traced.candidates, first.candidates
            )
        });
        out.spans = trace::finish();
        out.layer = layer_metrics(&out.spans, &traced);
        out.layer
            .push(metric("trace.overhead", "ratio", traced_wall / walls[0]));
    }
    out
}
