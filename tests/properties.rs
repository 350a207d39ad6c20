//! Workspace-level property-based tests on the core invariants (DESIGN.md's
//! invariant list), run through the public APIs of several crates at once.
//!
//! These are hand-rolled property loops (seeded RNG + many random cases)
//! rather than `proptest` strategies: the build environment is fully offline,
//! so the workspace carries no external dev-dependencies. Failures print the
//! case seed, which reproduces the input deterministically.

use rotom_augment::{apply, corrupt, DaContext, DaOp};
use rotom_meta::{guess_label, sharpen_v1, sharpen_v2};
use rotom_nn::{softmax_slice, ParamStore, Tape, Tensor};
use rotom_rng::rngs::StdRng;
use rotom_rng::{split_seed, RngCore, RngExt, SeedableRng};
use rotom_text::serialize::{parse_structure, serialize_record, Record};
use rotom_text::token::is_structural;
use rotom_text::tokenizer::{detokenize, tokenize};
use rotom_text::vocab::Vocab;

const CASES: u64 = 64;

/// Generator: a plausible lowercase word of 1–8 chars.
fn word(rng: &mut StdRng) -> String {
    let len = rng.random_range(1..=8usize);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
        .collect()
}

fn words(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<String> {
    let n = rng.random_range(lo..hi);
    (0..n).map(|_| word(rng)).collect()
}

/// Generator: a serialized record with 1–4 attributes of 1–4 words each.
fn record(rng: &mut StdRng) -> Record {
    let attrs = rng.random_range(1..5usize);
    Record::new(
        (0..attrs)
            .map(|_| (word(rng), words(rng, 1, 5).join(" ")))
            .collect::<Vec<(String, String)>>(),
    )
}

/// No DA operator ever panics, and all preserve the [COL]/[VAL] structure
/// marker counts' consistency ([VAL] per [COL]).
#[test]
fn da_ops_preserve_structure() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xda0_0001, case));
        let r = record(&mut rng);
        let tokens = serialize_record(&r);
        let op = DaOp::ALL[rng.random_range(0..9usize)];
        let out = apply(op, &tokens, &DaContext::default(), &mut rng);
        let cols = out.iter().filter(|t| *t == "[COL]").count();
        let vals = out.iter().filter(|t| *t == "[VAL]").count();
        assert_eq!(
            cols,
            vals,
            "case {case}: unbalanced markers after {}",
            op.name()
        );
        // Structure must still parse with value spans not covering markers.
        let s = parse_structure(&out);
        for (a, b) in s.value_spans {
            for t in &out[a..b] {
                assert!(!is_structural(t), "case {case}");
            }
        }
    }
}

/// Multi-op corruption never panics and returns well-formed sequences.
#[test]
fn corruption_pipeline_total() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xda0_0002, case));
        let r = record(&mut rng);
        let tokens = serialize_record(&r);
        let n = rng.random_range(0..6usize);
        let out = corrupt(&tokens, &DaOp::ALL, n, &DaContext::default(), &mut rng);
        let cols = out.iter().filter(|t| *t == "[COL]").count();
        let vals = out.iter().filter(|t| *t == "[VAL]").count();
        assert_eq!(cols, vals, "case {case}");
    }
}

/// Tokenizer round-trips normalized text.
#[test]
fn tokenizer_roundtrip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xda0_0003, case));
        let text = words(&mut rng, 1, 12).join(" ");
        let toks = tokenize(&text);
        assert_eq!(tokenize(&detokenize(&toks)), toks, "case {case}");
    }
}

/// Vocab encode/decode round-trips for in-vocabulary tokens, and
/// char-fallback covers arbitrary ASCII words without UNK.
#[test]
fn vocab_fallback_total() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xda0_0004, case));
        let ws = words(&mut rng, 1, 10);
        let seqs: Vec<Vec<String>> = vec![ws.clone()];
        let refs: Vec<&[String]> = seqs.iter().map(|s| s.as_slice()).collect();
        let v = Vocab::build(refs, 4096);
        assert_eq!(v.decode(&v.encode(&ws)), ws, "case {case}");
        let unk = v.special_id(rotom_text::token::UNK);
        let novel: Vec<String> = ws.iter().map(|w| format!("{w}x9")).collect();
        assert!(
            v.encode_fallback(&novel).iter().all(|&i| i != unk),
            "case {case}"
        );
    }
}

/// softmax output is a distribution; sharpen_v1 keeps it one and never
/// lowers the mode; sharpen_v2 is monotone in its threshold.
#[test]
fn sharpen_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xda0_0005, case));
        let n = rng.random_range(2..6usize);
        let logits: Vec<f32> = (0..n).map(|_| rng.random_range(-5.0f32..5.0)).collect();
        let t: f32 = rng.random_range(0.1f32..1.0);
        let p = softmax_slice(&logits);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4, "case {case}");
        let s = sharpen_v1(&p, t);
        assert!((s.iter().sum::<f32>() - 1.0).abs() < 1e-3, "case {case}");
        let mode = rotom_nn::argmax(&p);
        assert!(s[mode] >= p[mode] - 1e-4, "case {case}");
        // v2 monotone: accepted at high threshold => accepted below.
        if sharpen_v2(&p, 0.9).is_some() {
            assert!(sharpen_v2(&p, 0.5).is_some(), "case {case}");
        }
        // Combined guess is always a distribution.
        let g = guess_label(&p, t, 0.8);
        assert!((g.iter().sum::<f32>() - 1.0).abs() < 1e-3, "case {case}");
    }
}

/// Autodiff: cross-entropy gradients match finite differences on random
/// single-layer problems.
#[test]
fn gradcheck_random_linear() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xda0_0006, case));
        let w0: Vec<f32> = (0..6).map(|_| rng.random_range(-0.8f32..0.8)).collect();
        let x0: Vec<f32> = (0..2).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let label = rng.random_range(0..3usize);

        let mut store = ParamStore::new();
        let w = store.push("w", Tensor::from_vec(w0.clone(), 2, 3));
        let mut target = vec![0.0f32; 3];
        target[label] = 1.0;
        let run = |store: &mut ParamStore, backward: bool| -> f32 {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::from_vec(x0.clone(), 1, 2));
            let wn = tape.param(w, store);
            let logits = tape.matmul(x, wn);
            let loss = tape.cross_entropy(logits, &target);
            let v = tape.value(loss).item();
            if backward {
                store.zero_grad();
                tape.backward(loss, store);
            }
            v
        };
        let _ = run(&mut store, true);
        let analytic = store.flat_grads();
        let theta = store.flat_values();
        let eps = 1e-2f32;
        for k in 0..theta.len() {
            let mut tp = theta.clone();
            tp[k] += eps;
            store.set_flat(&tp);
            let lp = run(&mut store, false);
            tp[k] -= 2.0 * eps;
            store.set_flat(&tp);
            let lm = run(&mut store, false);
            store.set_flat(&theta);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[k] - numeric).abs() < 0.02 + 0.05 * numeric.abs(),
                "case {case}: grad mismatch at {}: {} vs {}",
                k,
                analytic[k],
                numeric
            );
        }
    }
}

/// Generator: an f32 from the full bit-pattern space, biased toward the
/// special values the checkpoint format must preserve exactly (NaNs with
/// payloads, ±Inf, ±0, subnormals).
fn any_f32(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..6u32) {
        0 => f32::from_bits(0x7fc0_0000 | rng.random_range(0..0x40_0000u32)), // NaN payload
        1 => f32::from_bits(0xffc0_0000 | rng.random_range(0..0x40_0000u32)), // -NaN payload
        2 => {
            if rng.random_bool(0.5) {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            }
        }
        3 => f32::from_bits(rng.random_range(0..0x80_0000u32)), // subnormal / ±0
        _ => f32::from_bits(rng.random_range(0..=u32::MAX)),
    }
}

/// Checkpoint round-trip is exact for arbitrary f32 bit patterns: NaN
/// payloads, infinities, subnormals, and signed zeros all survive
/// serialize → parse bit-for-bit (parsing does not check finiteness; file
/// loads do).
#[test]
fn checkpoint_roundtrip_arbitrary_f32_bits() {
    use rotom_nn::StateBag;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(split_seed(0xda0_0007, case));
        let mut bag = StateBag::new();
        let n_sections = rng.random_range(1..4usize);
        let mut expected: Vec<(String, Vec<f32>)> = Vec::new();
        for s in 0..n_sections {
            let vals: Vec<f32> = (0..rng.random_range(0..32usize))
                .map(|_| any_f32(&mut rng))
                .collect();
            let name = format!("sec{s}.{}", word(&mut rng));
            bag.put_f32s(name.clone(), vals.clone());
            expected.push((name, vals));
        }
        let text = bag.serialize();
        // Parsing never checks finiteness; that is the file loader's gate.
        // Raw parse must accept any bit pattern.
        let back = StateBag::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        for (name, vals) in &expected {
            let got = back
                .get_f32s(name)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "case {case}: {name} bits drifted");
        }
    }
}

/// Truncating a serialized checkpoint at ANY byte offset is detected as an
/// error — a cut file never parses into wrong values.
#[test]
fn checkpoint_truncation_at_any_offset_errors() {
    use rotom_nn::StateBag;
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(split_seed(0xda0_0008, case));
        let mut bag = StateBag::new();
        bag.put_f32s(
            "params",
            (0..rng.random_range(1..24usize))
                .map(|_| any_f32(&mut rng))
                .collect::<Vec<f32>>(),
        );
        bag.put_u64s("rng", (0..4).map(|_| rng.next_u64()).collect::<Vec<u64>>());
        let text = bag.serialize();
        for cut in 0..text.len() {
            // The format is pure ASCII, so every byte offset is a char
            // boundary.
            let truncated = &text[..cut];
            assert!(
                StateBag::parse(truncated).is_err(),
                "case {case}: truncation at byte {cut}/{} parsed successfully",
                text.len()
            );
        }
    }
}

#[test]
fn entity_swap_involution_on_pairs() {
    let a = Record::new(vec![("x", "p q"), ("y", "r")]);
    let b = Record::new(vec![("x", "s t")]);
    let tokens = rotom_text::serialize::serialize_pair(&a, &b);
    let mut rng = StdRng::seed_from_u64(0);
    let once = apply(DaOp::EntitySwap, &tokens, &DaContext::default(), &mut rng);
    let twice = apply(DaOp::EntitySwap, &once, &DaContext::default(), &mut rng);
    assert_eq!(twice, tokens);
}
