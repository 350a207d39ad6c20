#!/bin/sh
# Repo CI gate: formatting, offline release build, full test suite, clippy
# (deny-level lints), rustdoc, perf smoke.
set -eu
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

# Informational, gates nothing: the workspace's net non-test line count,
# i.e. the non-blank lines above each file's first `#[cfg(test)]` in
# crates/*/src and src.
echo "== net non-test lines"
awk 'FNR == 1 { in_tests = 0 }
     /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
     !in_tests && NF { n++ }
     END { print n }' $(find crates/*/src src -name '*.rs' | sort)

# Informational, gates nothing: settable config values, i.e. the `pub`
# fields of every `pub struct *Config` / `*Params` above each file's first
# `#[cfg(test)]` in crates/*/src and src.
echo "== settable config values"
awk 'FNR == 1 { in_tests = 0; in_struct = 0 }
     /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
     in_tests { next }
     /^[[:space:]]*pub struct [A-Za-z0-9_]*(Config|Params)[[:space:]]*\{/ { in_struct = 1; next }
     in_struct && /^[[:space:]]*\}/ { in_struct = 0 }
     in_struct && /^[[:space:]]*pub [a-z_0-9]+:/ { n++ }
     END { print n }' $(find crates/*/src src -name '*.rs' | sort)

echo "== cargo build --release --offline"
cargo build --release --offline --workspace

echo "== cargo test --offline"
cargo test -q --offline --workspace

# `cargo build` and `cargo test` skip bench targets (crates/bench/benches),
# so an API deletion could break one without failing the steps above.
echo "== cargo check --all-targets"
cargo check --offline --workspace --all-targets

# Clippy with warnings as errors: every lint at its default level gates.
# A lint kept on purpose (a hot kernel loop left as written) carries an
# `#[allow(clippy::..., reason = "...")]` at its site.
echo "== cargo clippy --all-targets (-D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

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

# Inference-plane gates: every layer has one forward definition, run by
# two executors (the autodiff Tape and the forward-only InferTape), and the
# InferTape's values must equal the same rows of the Tape's full-rows
# forward bit for bit at any worker count (pool sized once per process, so
# each count is its own invocation), with and without a live telemetry
# sink. The executors suite covers every band and GEMM tier and reruns
# itself at pool widths 1, 2 and 8. The pack-cache suite pins prepacked
# parameter panels equal to cold packing across invalidation, around the
# one tier rule (`kernels::tiled`) that decides when panels are fetched;
# only the 8-worker run takes the parallel tiled path.
for t in 1 8; do
    echo "== inference-plane equivalence (ROTOM_THREADS=$t)"
    ROTOM_THREADS=$t cargo test -q --offline --test infer_equivalence \
        --test infer_equivalence_telemetry
    ROTOM_THREADS=$t cargo test -q --offline -p rotom-nn --test executors \
        --test pack_cache
done

# Tape reuse: a pooled tape replaying encoder graphs of cycling token counts
# must match a fresh tape bit for bit. Pool workers take pooled tapes, so
# each worker count reuses arenas differently (one process per count).
# The [CLS] band: training's encode_cls runs the last layer on at most MR
# rows and must match the full-rows forward bit for bit (values, loss,
# every gradient, RNG state); its wide shape takes the parallel GEMM path
# only at 8 workers. The DeepMatcher pin holds both encoders' trained
# parameter bits, so the shared mini-batch backward stays bit-exact at any
# worker count. The meta pin holds the bits a short Algorithm 2 run leaves
# in M_F, M_W, their Adam states, the RNG, the REINFORCE baseline and the
# target, which the metric-only golden pins cannot see.
for t in 1 8; do
    echo "== varying-length tape reuse + [CLS] band vs full rows + DeepMatcher and meta pins (ROTOM_THREADS=$t)"
    ROTOM_THREADS=$t cargo test -q --offline -p rotom-nn --test tape_reuse
    ROTOM_THREADS=$t cargo test -q --offline -p rotom-nn --test cls_band
    ROTOM_THREADS=$t cargo test -q --offline -p rotom-baselines --lib \
        deepmatcher::tests::trained_parameters_are_pinned
    ROTOM_THREADS=$t cargo test -q --offline --test meta_with_tinylm
done

# Tape-free scoring and decode throughput must stay at least 0.8x the
# checked-in `current` and 0.9x the `baseline`; the tape-free speedup over
# the tape path at least 2x.
echo "== inferbench (writes BENCH_infer.json, gates scoring throughput)"
cargo run --release --offline -p rotom-bench --bin inferbench -- --check

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
# bit-identical to brute-force em::block_candidates (every pair compared,
# the one definition of token-overlap blocking) across shard counts {1,2,7}
# and pool widths {1,8}; the brute-force oracle
# (lsh_and_df_ceiling_match_brute_force_reference) holds it equal to a
# reference with the df ceiling and LSH tier engaged, including buckets of
# exactly max_bucket and max_bucket + 1 records; the pinned candidate-stream
# checksum and index build statistics prove it reproduces the previous
# probe bit for bit; the suite
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
# and 8: at least 1M records indexed, recall on a 2000x2000 slice vs
# brute-force block_candidates and stress match recall at least 0.95, the
# stress df ceiling pruning at least 3 tokens, and pairs/sec at least 0.8x
# the checked-in `current` when it measured the same record count.
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
