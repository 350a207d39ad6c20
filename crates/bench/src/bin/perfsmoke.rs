//! Perf smoke benchmark: best-of-N wall times for the compute core,
//! written to `BENCH_compute.json`.
//!
//! The `current` rows time square matmul at 64/256/512 (naive reference vs
//! serial tiled vs pool-parallel tiled, on the process pool); the extra
//! sections time the forward kernels and one InvDA augmentation batch
//! (serial vs parallel fan-out).
//!
//! Gates (`--check`), each a ratio measured on the same machine in the
//! same run, so they hold on any host:
//! * serial tiled matmul at least 2x naive at 512³;
//! * `gelu_fwd` at least 2x and `softmax_fwd` at least 1.25x its
//!   scalar-libm twin (`libm_s`: the same block through `f32::tanh` /
//!   `f32::exp`), the speedup of the vectorized `tanhf` / `expf` ports.
//!
//!   cargo run --release --offline --bin perfsmoke [-- --check]

use rotom_augment::{InvDa, InvDaConfig};
use rotom_bench::record::{Args, Bench, Ratio, Ref, Row, Rule};
use rotom_bench::time_best;
use rotom_datasets::textcls::{self, TextClsConfig, TextClsFlavor};
use rotom_nn::kernels;
use rotom_nn::RotomPool;
use rotom_rng::rngs::StdRng;
use rotom_rng::{RngExt, SeedableRng};

const USAGE: &str = "usage: perfsmoke [--check]";

fn bench_matmul(size: usize, pool: &RotomPool) -> Row {
    let mut rng = StdRng::seed_from_u64(size as u64);
    let a: Vec<f32> = (0..size * size)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    let b: Vec<f32> = (0..size * size)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    // Fewer runs for the big sizes; the minimum settles well before 10 runs.
    let runs = if size >= 512 { 5 } else { 9 };
    let serial = RotomPool::new(1);
    let mut out = vec![0.0f32; size * size];
    let mut tiled = |pool: &RotomPool| {
        kernels::matmul_into(&a, &b, None, size, size, size, size, pool, &mut out);
        std::hint::black_box(&mut out);
    };
    let naive_s = time_best(runs, || {
        std::hint::black_box(kernels::matmul_naive(&a, &b, size, size, size));
    });
    let tiled_serial_s = time_best(runs, || tiled(&serial));
    let tiled_parallel_s = time_best(runs, || tiled(pool));
    Row::new()
        .num("size", size as f64, 0)
        .num("threads", pool.threads() as f64, 0)
        .num("naive_s", naive_s, 9)
        .num("tiled_serial_s", tiled_serial_s, 9)
        .num("tiled_parallel_s", tiled_parallel_s, 9)
        .num("speedup_serial", naive_s / tiled_serial_s, 3)
        .num("speedup_parallel", naive_s / tiled_parallel_s, 3)
}

/// Softmax rows of `x` into `out` with scalar libm `exp`: the formula of
/// [`kernels::softmax_fwd`] before its `expf` port.
fn softmax_libm(x: &[f32], cols: usize, out: &mut [f32]) {
    for (row, orow) in x.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in orow.iter_mut().zip(row) {
            *o = (v - max).exp();
            sum += *o;
        }
        let inv = 1.0 / sum;
        orow.iter_mut().for_each(|o| *o *= inv);
    }
}

/// GELU with scalar libm `tanh`: the formula of [`kernels::gelu_fwd`]
/// before its `tanhf` port.
fn gelu_libm(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        let th = (0.797_884_6f32 * (v + 0.044_715 * v * v * v)).tanh();
        *o = 0.5 * v * (1.0 + th);
    }
}

/// Forward-only SIMD kernels from the inference plane: softmax, layernorm
/// and GELU over a `rows x cols` activation block (one attention-score /
/// hidden-state sized panel per call). Softmax and GELU carry a
/// scalar-libm twin over the same block.
fn bench_forward_kernels() -> Vec<Row> {
    let (rows, cols) = (256, 256);
    let mut rng = StdRng::seed_from_u64(41);
    let x: Vec<f32> = (0..rows * cols)
        .map(|_| rng.random_range(-2.0f32..2.0))
        .collect();
    let gamma: Vec<f32> = (0..cols).map(|_| rng.random_range(0.5f32..1.5)).collect();
    let beta: Vec<f32> = (0..cols).map(|_| rng.random_range(-0.5f32..0.5)).collect();
    let mut out = vec![0.0f32; rows * cols];
    let softmax_s = time_best(9, || {
        kernels::softmax_fwd(&x, None, rows, cols, &mut out);
        std::hint::black_box(&mut out);
    });
    let layernorm_s = time_best(9, || {
        kernels::layernorm_fwd(&x, &gamma, &beta, 1e-5, rows, cols, &mut out, None);
        std::hint::black_box(&mut out);
    });
    let gelu_s = time_best(9, || {
        kernels::gelu_fwd(&x, &mut out, None);
        std::hint::black_box(&mut out);
    });
    let softmax_libm_s = time_best(9, || {
        softmax_libm(&x, cols, &mut out);
        std::hint::black_box(&mut out);
    });
    let gelu_libm_s = time_best(9, || {
        gelu_libm(&x, &mut out);
        std::hint::black_box(&mut out);
    });
    let row = |op: &str, time_s: f64| {
        Row::new()
            .text("op", op)
            .num("rows", rows as f64, 0)
            .num("cols", cols as f64, 0)
            .num("time_s", time_s, 9)
    };
    let with_libm = |op: &str, time_s: f64, libm_s: f64| {
        row(op, time_s)
            .num("libm_s", libm_s, 9)
            .num("speedup_vs_libm", libm_s / time_s, 3)
    };
    vec![
        with_libm("softmax_fwd", softmax_s, softmax_libm_s),
        row("layernorm_fwd", layernorm_s),
        with_libm("gelu_fwd", gelu_s, gelu_libm_s),
    ]
}

fn bench_invda(pool: &RotomPool) -> Row {
    let data_cfg = TextClsConfig {
        train_pool: 32,
        test: 8,
        unlabeled: 24,
        seed: 5,
    };
    let task = textcls::generate(TextClsFlavor::Sst2, &data_cfg);
    let model = InvDa::train(&task.unlabeled, InvDaConfig::test_tiny(), 5);
    let inputs: Vec<&[String]> = task
        .train_pool
        .iter()
        .map(|e| e.tokens.as_slice())
        .collect();
    let serial = RotomPool::new(1);
    // Fresh model caches per timing pass would conflate generation with
    // lookup; clear between runs so every pass measures the full fan-out.
    let serial_s = time_best(3, || {
        model.clear_cache();
        std::hint::black_box(model.augment_batch(&inputs, 17, &serial));
    });
    let parallel_s = time_best(3, || {
        model.clear_cache();
        std::hint::black_box(model.augment_batch(&inputs, 17, pool));
    });
    Row::new()
        .num("batch", inputs.len() as f64, 0)
        .num("serial_s", serial_s, 9)
        .num("parallel_s", parallel_s, 9)
        .num("speedup", serial_s / parallel_s, 3)
}

fn main() {
    let args = Args::from_env(USAGE, &[]);
    let pool = RotomPool::global();
    Bench {
        file: "BENCH_compute.json",
        workload: "square matmul naive vs tiled (serial, pool) at 64/256/512; forward kernels \
                   256x256; InvDA augment batch 32"
            .into(),
        current: [64, 256, 512].map(|size| bench_matmul(size, pool)).to_vec(),
        extra: vec![
            ("forward_kernels", bench_forward_kernels()),
            ("invda_augment", vec![bench_invda(pool)]),
        ],
        trajectory: &[
            Ratio::inverse("tiled_serial_ratio", "tiled_serial_s", 3),
            Ratio::inverse("tiled_parallel_ratio", "tiled_parallel_s", 3),
        ],
        rules: &[
            Rule::at_least("naive_s", 2.0, Ref::Field("tiled_serial_s")).only_row("512"),
            Rule::at_least("libm_s", 2.0, Ref::Field("time_s"))
                .in_section("forward_kernels")
                .only_row("gelu_fwd"),
            Rule::at_least("libm_s", 1.25, Ref::Field("time_s"))
                .in_section("forward_kernels")
                .only_row("softmax_fwd"),
        ],
    }
    .finish(args.check);
}
