//! Concurrent hot-swap test: hammer `/match` from several client threads
//! while the main thread swaps checkpoints in and out via `/admin/swap`.
//!
//! The invariant under test is the serving plane's swap protocol: every
//! response is computed **wholly** under one parameter state. Two
//! checkpoints with different weights alternate, and every response's score
//! row must equal the direct `score_batch` result of exactly one of them —
//! never a blend — and the `generation` the response reports must identify
//! which one. The planes run with the score cache enabled, so the test also
//! pins that the generation-keyed cache never serves a stale-generation
//! hit across a swap.

use rotom_meta::MetaTarget;
use rotom_nn::RotomPool;
use rotom_serve::json::{self, Json};
use rotom_serve::{demo_model, demo_model_config, Client, Endpoint, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 23;
const CLIENT_THREADS: usize = 4;
const SWAPS: usize = 8;

/// Wrap a checkpoint body in its `end <len> <fnv1a64>` integrity footer.
fn with_footer(body: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in body.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{body}end {} {h:016x}\n", body.len())
}

#[test]
fn responses_during_hot_swap_are_wholly_old_or_new() {
    // Two checkpoints: the boot weights (A) and a perturbed copy (B).
    let cfg = demo_model_config();
    let (model_a, _) = demo_model(Endpoint::Match.task_kind(), &cfg, SEED);
    let dir = std::env::temp_dir().join(format!("rotom_serve_swap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt_a = dir.join("gen_a.ckpt");
    let ckpt_b = dir.join("gen_b.ckpt");
    model_a.save_checkpoint(&ckpt_a).expect("save A");
    let (mut model_b, _) = demo_model(Endpoint::Match.task_kind(), &cfg, SEED);
    let delta = vec![0.02f32; model_b.flat_params().len()];
    model_b.add_scaled(&delta, 1.0);
    model_b.save_checkpoint(&ckpt_b).expect("save B");

    // Expected scores for the probe input under each weight state.
    let probe = rotom_text::tokenize("COL title VAL acme ultra phone COL price VAL 99");
    let pool = RotomPool::new(2);
    let scores_a = model_a.score_batch(std::slice::from_ref(&probe), &pool);
    let scores_b = model_b.score_batch(std::slice::from_ref(&probe), &pool);
    assert_ne!(scores_a, scores_b, "the two checkpoints must differ");

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        window: Duration::from_millis(1),
        max_batch: 16,
        score_threads: 2,
        score_cache: 64, // cache ON: stale-generation hits would be caught
        seed: SEED,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.local_addr();

    let body = {
        let mut b = String::from("{\"inputs\": [[");
        for (j, t) in probe.iter().enumerate() {
            if j > 0 {
                b.push(',');
            }
            b.push_str(&json::quote(t));
        }
        b.push_str("]]}");
        b
    };

    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..CLIENT_THREADS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let body = body.clone();
            let scores_a = scores_a.clone();
            let scores_b = scores_b.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let resp = client.post("/match", &body).expect("request");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    let doc = json::parse(&resp.body).expect("JSON");
                    let scores =
                        json::parse_scores(doc.get("scores").expect("scores")).expect("matrix");
                    let generation = doc
                        .get("generation")
                        .and_then(Json::as_u64)
                        .expect("generation");
                    // Whole-state check: scores match exactly one checkpoint,
                    // and the generation parity says which. Even swap counts
                    // (0 included) are state A, odd are state B, because the
                    // swapper alternates B, A, B, A, ...
                    let expect = if generation % 2 == 0 {
                        &scores_a
                    } else {
                        &scores_b
                    };
                    assert_eq!(
                        &scores, expect,
                        "generation {generation}: response must be wholly one parameter state"
                    );
                    checked += 1;
                }
                checked
            })
        })
        .collect();

    // Swap B, A, B, A, ... under load.
    let mut admin = Client::connect(addr).expect("admin connect");
    let mut last_param_generation = 0u64;
    for i in 0..SWAPS {
        std::thread::sleep(Duration::from_millis(30));
        let target = if i % 2 == 0 { &ckpt_b } else { &ckpt_a };
        let req = format!(
            "{{\"endpoint\": \"match\", \"checkpoint\": {}}}",
            json::quote(&target.display().to_string())
        );
        let resp = admin.post("/admin/swap", &req).expect("swap");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc = json::parse(&resp.body).expect("JSON");
        assert_eq!(
            doc.get("generation").and_then(Json::as_u64),
            Some(i as u64 + 1)
        );
        let param_generation = doc
            .get("param_generation")
            .and_then(Json::as_u64)
            .expect("param_generation");
        assert!(
            param_generation > last_param_generation,
            "parameter fingerprint must be strictly monotone across swaps"
        );
        last_param_generation = param_generation;
    }

    stop.store(true, Ordering::Relaxed);
    let total_checked: u64 = hammers.into_iter().map(|h| h.join().expect("hammer")).sum();
    assert!(
        total_checked >= SWAPS as u64,
        "hammers must have scored throughout the swap storm ({total_checked} responses)"
    );

    // The cache was hot the whole time (same probe input over and over);
    // confirm it actually worked — hits — without ever serving a stale
    // generation (the per-response assertions above would have caught it).
    let plane = &server.planes()[0];
    let (hits, misses, _evictions, _entries) = plane.cache_stats().expect("cache enabled");
    assert!(hits > 0, "repeat probe input must hit the score cache");
    // Each distinct parameter state costs at least one miss to refill.
    assert!(misses >= 1);

    // A checkpoint whose integrity footer is valid but whose section
    // declares far more values than it carries is rejected with 422 (no
    // allocation for the declared size), and the plane keeps serving the
    // state it had.
    let oversized = dir.join("oversized.ckpt");
    std::fs::write(
        &oversized,
        with_footer("rotom-checkpoint v2\nf32s x 68719476736 00000000\n"),
    )
    .expect("write oversized checkpoint");
    let req = format!(
        "{{\"endpoint\": \"match\", \"checkpoint\": {}}}",
        json::quote(&oversized.display().to_string())
    );
    let resp = admin.post("/admin/swap", &req).expect("swap");
    assert_eq!(resp.status, 422, "{}", resp.body);
    let resp = admin
        .post("/match", &body)
        .expect("match after rejected swap");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = json::parse(&resp.body).expect("JSON");
    assert_eq!(
        doc.get("generation").and_then(Json::as_u64),
        Some(SWAPS as u64)
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
