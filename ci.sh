#!/bin/sh
# Repo CI gate: formatting, offline release build, full test suite, clippy
# (deny-level lints), rustdoc, perf smoke.
set -eu
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test --offline"
cargo test -q --offline --workspace

# `cargo build` and `cargo test` skip bench targets (crates/bench/benches),
# so an API deletion could break one without failing the steps above.
echo "== cargo check --all-targets"
cargo check --offline --workspace --all-targets

# Clippy at its default levels: deny-by-default lints (correctness, e.g.
# approx_constant) fail CI; warn-level lints are printed but not gated.
echo "== cargo clippy --all-targets"
cargo clippy --offline --workspace --all-targets

# Rustdoc warnings are errors: an intra-doc link to a deleted or private
# item fails here.
echo "== cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# The repo benchmark is a separate package with path dependencies on
# crates/*, so a crate API change can break it without touching it.
echo "== rotombench (repo benchmark package): build + test"
cargo build --release --offline --manifest-path rotombench/Cargo.toml
cargo test -q --offline --manifest-path rotombench/Cargo.toml

echo "== gradcheck (autodiff vs central differences, every layer)"
cargo test -q --offline -p rotom-nn gradcheck
cargo test -q --offline -p rotom-nn --test gradcheck_layers

# The eight-lane tanh/exp ports (GELU, softmax) must return the scalar
# ports' bits on every one of the 2^32 inputs: an exhaustive sweep in a
# release build, fanned over the worker pool (about 75 s on two cores). The
# scalar ports' own comparison with the host libm is host-specific and runs
# by hand (vmath::tests::scalar_ports_match_host_libm_on_every_input).
echo "== SIMD tanh/exp vs scalar ports (all 2^32 inputs)"
cargo test -q --release --offline -p rotom-nn --lib \
    vmath::tests::simd_matches_scalar_port_on_every_input -- --ignored

echo "== golden snapshots present"
if ! ls tests/golden/*.txt >/dev/null 2>&1; then
    echo "tests/golden/ has no snapshots; regenerate with" >&2
    echo "  ROTOM_BLESS=1 cargo test --test golden" >&2
    echo "and commit the files." >&2
    exit 1
fi

# The golden suite must be invariant to worker count: the pool is sized once
# per process (ROTOM_THREADS read at first use), so each count needs its own
# process invocation.
echo "== golden regression suite (ROTOM_THREADS=1)"
ROTOM_THREADS=1 cargo test -q --offline --test golden

echo "== golden regression suite (ROTOM_THREADS=8)"
ROTOM_THREADS=8 cargo test -q --offline --test golden

# Fault-injection suite: kill@step resume-equivalence, NaN rollback +
# graceful degradation, torn-checkpoint detection. Like the golden suite it
# must hold at any worker count, and the pool is sized once per process.
echo "== fault-injection suite (ROTOM_THREADS=1)"
ROTOM_THREADS=1 cargo test -q --offline --test fault_injection

echo "== fault-injection suite (ROTOM_THREADS=8)"
ROTOM_THREADS=8 cargo test -q --offline --test fault_injection

# The perf bins share one harness (rotom_bench::record). Each regenerates
# its BENCH_*.json, keeps the checked-in baseline, and with --check exits
# non-zero on every gate violation, including a checked-in row or key that
# a gate needs and cannot find. Each stanza names its bin's gates.
#
# Serial tiled matmul must stay at least 2x naive at 512^3, and gelu_fwd at
# least 2x / softmax_fwd at least 1.25x their scalar-libm twins (the same
# 256x256 block through f32::tanh / f32::exp): both sides of each ratio are
# timed on the same machine in the same run.
echo "== perfsmoke (writes BENCH_compute.json, gates tiled vs naive matmul, SIMD vs libm forward kernels)"
cargo run --release --offline -p rotom-bench --bin perfsmoke -- --check

# Two budgets in tests/golden/alloc_budget.txt: bytes_per_step (an SST-2
# meta step) and mixda_bytes_per_step (a MixDA step on variable-length
# Abt-Buy pairs at the benchmark shapes, the path a tape arena that misses
# on new lengths would thrash).
echo "== alloc budgets (steady-state meta and MixDA train steps, ROTOM_THREADS pinned inside)"
cargo test -q --release --offline --test alloc_budget

# Steps/sec at each thread count must stay at least 0.8x the checked-in
# `current`.
echo "== trainbench perfsmoke (writes BENCH_train.json, gates steps/sec)"
cargo run --release --offline -p rotom-bench --bin trainbench -- --check

# Inference-plane gates: the tape-free forward must match the tape forward
# bit-for-bit at any worker count (pool sized once per process, so each
# count is its own invocation), with and without a live telemetry sink.
for t in 1 8; do
    echo "== inference-plane equivalence (ROTOM_THREADS=$t)"
    ROTOM_THREADS=$t cargo test -q --offline --test infer_equivalence \
        --test infer_equivalence_telemetry
done

# Tape reuse: a pooled tape replaying encoder graphs of cycling token counts
# must match a fresh tape bit for bit. Pool workers take pooled tapes, so
# each worker count reuses arenas differently (one process per count).
for t in 1 8; do
    echo "== varying-length tape reuse (ROTOM_THREADS=$t)"
    ROTOM_THREADS=$t cargo test -q --offline -p rotom-nn --test tape_reuse
done

# Tape-free scoring and decode throughput must stay at least 0.8x the
# checked-in `current` and 0.9x the `baseline`; the tape-free speedup over
# the tape path at least 2x; the quantized i8 tier at least 1.5x f32.
echo "== inferbench (writes BENCH_infer.json, gates scoring throughput)"
cargo run --release --offline -p rotom-bench --bin inferbench -- --check

# Quantized i8 inference tier gates: kernel-level round-trip and GEMM
# relative-error property tests, then the accuracy-delta gate (a trained
# model's task metrics must not move when scored on the i8 tier, and
# switching back to f32 must be bit-exact). Both at worker counts 1 and 8 —
# the quant GEMM fans out over the pool on MR-row boundaries like the f32
# kernel, so each count exercises a different dispatch path.
for t in 1 8; do
    echo "== quant i8 property tests (ROTOM_THREADS=$t)"
    ROTOM_THREADS=$t cargo test -q --offline -p rotom-nn quant
    echo "== quant i8 accuracy-delta gate (ROTOM_THREADS=$t)"
    ROTOM_THREADS=$t cargo test -q --release --offline --test quant_accuracy
done

# Serving plane gates. The HTTP/1.1 parser property suite (torn reads,
# oversized heads, Content-Length abuse, pipelining, byte-level fuzz) and
# the batcher/plane unit tests live in the rotom-serve crate; the e2e suite
# boots the server on an ephemeral port and requires responses bit-identical
# to direct score_batch; the swap suite hammers /match while checkpoints hot
# swap underneath. The server's scoring pool width is explicit per batcher
# (no ROTOM_THREADS re-exec needed): the e2e test covers widths 1 and 8
# internally.
echo "== serving plane: HTTP parser property suite + unit tests"
cargo test -q --offline -p rotom-serve

echo "== serving plane: e2e over real sockets (score threads 1 and 8)"
cargo test -q --offline --test serve_e2e

echo "== serving plane: concurrent hot swap under load"
cargo test -q --offline --test serve_swap

# Chaos suite: serve-side ROTOM_FAULT faultpoints drive overload shedding
# (503 + Retry-After), graceful drain, batcher watchdog respawn, torn
# writes, and the connection cap — deterministically, over real sockets.
# Scoring-pool widths 1 and 8 are iterated inside each test; the two
# ROTOM_THREADS invocations additionally pin the process-global pool
# default at both widths (pool sized once per process, like the golden
# stanzas).
for t in 1 8; do
    echo "== serving plane: chaos suite (ROTOM_THREADS=$t)"
    ROTOM_THREADS=$t cargo test -q --offline --test serve_chaos
done

# p50/p99 request latency + req/sec at scoring widths 1 and 8: req/sec must
# stay at least 0.8x the checked-in `current` and p99 at most 3x it. The
# overload rows gate degradation shape under 2x+-capacity offered load:
# excess requests must shed (never silently queue), some must be accepted,
# and the p99 of accepted requests must stay within 4x the deadline budget.
echo "== servebench (writes BENCH_serve.json, gates serving throughput + overload shape)"
cargo run --release --offline -p rotom-bench --bin servebench -- --check

# Blocking plane gates. The equivalence/property suite proves the sharded
# streaming pipeline (one-pass flat-array probe: dense per-worker
# shared-token counter, directory lookup into the LSH band tables)
# bit-identical to exhaustive block_candidates across shard counts {1,2,7}
# and pool widths {1,8}; the brute-force oracle
# (lsh_and_df_ceiling_match_brute_force_reference) holds it equal to a
# reference with the df ceiling and LSH tier engaged, including buckets of
# exactly max_bucket and max_bucket + 1 records; the pinned candidate-stream
# checksum proves it reproduces the previous probe bit for bit; the suite
# also holds the LSH-tier recall floor on known match pairs and bounds the
# candidate buffer. The two ROTOM_THREADS invocations additionally pin the
# process-global pool at both widths (pool sized once per process, like the
# golden stanzas).
for t in 1 8; do
    echo "== blocking plane: equivalence + streaming suite (ROTOM_THREADS=$t)"
    ROTOM_THREADS=$t cargo test -q --offline --test blocking_pipeline
    ROTOM_THREADS=$t cargo test -q --offline -p rotom-datasets blocking
done

# 1M-record index build + streamed candidate emission at worker counts 1
# and 8: at least 1M records indexed, slice recall vs exhaustive blocked()
# and stress match recall at least 0.95, the stress df ceiling pruning at
# least 3 tokens, and pairs/sec at least 0.8x the checked-in `current` when
# it measured the same record count.
echo "== blockbench (writes BENCH_blocking.json, gates recall + throughput)"
cargo run --release --offline -p rotom-bench --bin blockbench -- --check

# Telemetry smoke: a short Rotom training with the observability plane live
# must emit schema-valid JSONL covering the step, meta-decision,
# augmentation, and pool record kinds — at 1 worker (inline paths) and at 8
# (fan-out paths). Goldens-with-telemetry-off invariance is what the golden
# stanzas above already assert, since they run with ROTOM_TELEMETRY unset.
for t in 1 8; do
    echo "== telemetry smoke (ROTOM_THREADS=$t)"
    TLOG="target/telemetry_smoke_${t}.jsonl"
    ROTOM_BENCH_SCALE=quick ROTOM_TELEMETRY="$TLOG" ROTOM_THREADS=$t \
        cargo run --release --offline -p rotom-bench --bin rotom_cli -- \
        sst-2 rotom 24 0 >/dev/null
    cargo run --release --offline -p rotom-bench --bin telemetry_report -- \
        "$TLOG" --check --require step,meta,aug,pool
done

echo "CI OK"
