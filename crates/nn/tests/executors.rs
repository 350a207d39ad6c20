//! One layer definition, two executors: the forward-only `InferTape` must
//! return the same bits as the same rows of the autodiff `Tape`'s full-rows
//! forward, over every band shape and GEMM tier the models reach.
//!
//! * Sequence lengths `t = 1..=72` at `d_model` 16, 32 and 48 (feed-forward
//!   width `2·d_model`) cross the naive, tiled-serial and tiled-parallel GEMM
//!   tiers: the `d×d` projections stay naive at `d_model` 16 and go tiled
//!   from `t = 32` (`d_model` 32) and `t = 15` (48); the first feed-forward
//!   GEMM reaches the parallel tier from `t = 57` at `d_model` 48.
//! * The encoder's \[CLS\] band (`band_rows(t, 0)`, a leading band) and the
//!   decoder's last-row band (`band_rows(t, t − 1)`, a band with a non-zero
//!   start once `t > 4`) are checked against the tape's full-rows forward,
//!   and so is the `InferTape`'s own full pass.
//! * The decode loop keeps the encoder memory and its projected
//!   cross-attention K/V below a mark and truncates every step back to it,
//!   as InvDA generation does, so recycled buffers must never disturb them.
//! * Pool widths 1, 2 and 8: the pool is sized once per process from
//!   `ROTOM_THREADS`, so the driver test reruns the check in one child
//!   process per width.

use rotom_nn::{
    kernels, Exec, FwdCtx, InferTape, ParamStore, RotomPool, Tape, TransformerConfig,
    TransformerDecoder, TransformerEncoder,
};
use rotom_rng::rngs::StdRng;
use rotom_rng::SeedableRng;
use std::process::Command;

const MAX_T: usize = 72;
const VOCAB: usize = 80;
const CHECK: &str = "bands_match_tape_rows_at_this_pool_width";

fn models(d: usize) -> (ParamStore, TransformerEncoder, TransformerDecoder) {
    let cfg = TransformerConfig {
        vocab: VOCAB,
        d_model: d,
        heads: 2,
        d_ff: 2 * d,
        layers: 2,
        max_len: MAX_T,
    };
    let mut rng = StdRng::seed_from_u64(d as u64);
    let mut store = ParamStore::new();
    let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", cfg.clone());
    let dec = TransformerDecoder::new(&mut store, &mut rng, "dec", cfg);
    (store, enc, dec)
}

fn ids(t: usize, salt: usize) -> Vec<usize> {
    (0..t).map(|i| (i * 7 + salt * 13 + 1) % VOCAB).collect()
}

/// The encoder's full pass and \[CLS\] band at every length.
fn check_encoder(d: usize, store: &ParamStore, enc: &TransformerEncoder, it: &mut InferTape) {
    let mut ctx = FwdCtx::eval(store);
    for t in 1..=MAX_T {
        let ids = ids(t, d);
        let mut tape = Tape::new();
        let expect = enc.forward(&mut tape, &ids, &[], &mut ctx);
        let expect = tape.value(expect);

        let full = enc.forward(it, &ids, &[], &mut ctx);
        assert_eq!(
            it.value(full).data(),
            expect.data(),
            "encoder full d={d} t={t}"
        );
        let cls = enc.encode_cls(it, &ids, &[], &mut ctx);
        assert_eq!(
            it.value(cls).data(),
            expect.row_slice(0),
            "[CLS] band d={d} t={t}"
        );
        it.truncate(0);
    }
}

/// Decode every prefix length against one encoder memory, keeping the
/// memory and its cross-attention K/V across steps.
fn check_decoder(
    d: usize,
    src_len: usize,
    store: &ParamStore,
    enc: &TransformerEncoder,
    dec: &TransformerDecoder,
    it: &mut InferTape,
) {
    let mut ctx = FwdCtx::eval(store);
    let src = ids(src_len, d + 1);
    let memory = enc.forward(it, &src, &[], &mut ctx);
    let memory = dec.project_memory(it, memory, store);
    let step = it.mark();
    for t in 1..=MAX_T {
        let prefix = ids(t, d + 2);
        let mut tape = Tape::new();
        let tape_memory = enc.forward(&mut tape, &src, &[], &mut ctx);
        let expect = dec.forward(&mut tape, &prefix, tape_memory, &mut ctx);

        let got = dec.last_logits(it, &prefix, &memory, &mut ctx);
        let (start, len) = kernels::band_rows(t, t - 1);
        assert_eq!(start + len, t);
        assert_eq!(
            it.value(got).data(),
            tape.value(expect).row_slice(t - 1),
            "decoder last row d={d} src={src_len} t={t} band={start}+{len}"
        );
        it.truncate(step);
    }
    it.truncate(0);
}

#[test]
#[ignore = "run once per pool width in a child process by every_band_matches_tape_rows_at_pool_widths_1_2_8"]
fn bands_match_tape_rows_at_this_pool_width() {
    println!("pool width {}", RotomPool::global().threads());
    let mut it = InferTape::new();
    for d in [16, 32, 48] {
        let (store, enc, dec) = models(d);
        check_encoder(d, &store, &enc, &mut it);
        for src_len in [5, MAX_T] {
            check_decoder(d, src_len, &store, &enc, &dec, &mut it);
        }
    }
}

#[test]
fn every_band_matches_tape_rows_at_pool_widths_1_2_8() {
    let exe = std::env::current_exe().expect("test binary path");
    for width in [1usize, 2, 8] {
        let out = Command::new(&exe)
            .args([CHECK, "--exact", "--ignored", "--nocapture"])
            .env("ROTOM_THREADS", width.to_string())
            .output()
            .expect("spawn the per-width check");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "pool width {width} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("pool width {width}\n")) && stdout.contains("1 passed"),
            "the check did not run at pool width {width}:\n{stdout}"
        );
    }
}
