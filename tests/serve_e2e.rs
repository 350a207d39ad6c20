//! End-to-end serving test: boot `rotom-serve` on an ephemeral port, score
//! real HTTP requests over real sockets, and check the responses are
//! **bit-identical** to calling `TinyLm::score_batch` directly on an
//! identically-constructed model — at scoring-pool widths 1 and 8.
//!
//! The wire crossing is part of the contract: scores are serialized with
//! shortest-round-trip `f32` formatting and parsed back without an `f64`
//! intermediate, so `to_bits()` equality must survive HTTP + JSON.

use rotom_nn::RotomPool;
use rotom_serve::json::{self, Json};
use rotom_serve::{
    demo_model, demo_model_config, Client, Endpoint, Server, ServerConfig, TaskPlane,
};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 41;

fn boot(score_threads: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        window: Duration::from_millis(1),
        max_batch: 16,
        score_threads,
        score_cache: 0,
        seed: SEED,
        ..ServerConfig::default()
    })
    .expect("server boots on an ephemeral port")
}

/// The same inputs the HTTP requests carry, as token arrays (sent verbatim,
/// so tokenizer behavior cannot differ between the two paths).
fn inputs_for(endpoint: Endpoint) -> Vec<Vec<String>> {
    let texts: &[&str] = match endpoint {
        Endpoint::Match => &[
            "COL title VAL acme ultra phone COL price VAL 99",
            "COL title VAL acme ultra fone COL price VAL 98",
            "COL title VAL zenith toaster COL price VAL 12",
        ],
        Endpoint::Clean => &[
            "beer name VAL hoppy lager brewery VAL acme brewing",
            "beer name VAL 123??? brewery VAL unknown",
        ],
        Endpoint::Classify => &[
            "a luminous heartfelt film with a stunning lead",
            "tedious and shapeless beyond rescue",
            "the plot works the pacing does not",
        ],
    };
    texts.iter().map(|t| rotom_text::tokenize(t)).collect()
}

fn request_body(inputs: &[Vec<String>]) -> String {
    let mut body = String::from("{\"inputs\": [");
    for (i, tokens) in inputs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, t) in tokens.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&json::quote(t));
        }
        body.push(']');
    }
    body.push_str("]}");
    body
}

fn wire_scores(resp_body: &str) -> Vec<Vec<f32>> {
    let doc = json::parse(resp_body).expect("response is valid JSON");
    json::parse_scores(doc.get("scores").expect("scores field")).expect("score matrix")
}

#[test]
fn served_scores_are_bit_identical_to_direct_score_batch() {
    for threads in [1usize, 8] {
        let server = boot(threads);
        let mut client = Client::connect(server.local_addr()).expect("connect");

        // Reference model: same constructor, same seed → same weights.
        let cfg = demo_model_config();
        let pool = RotomPool::new(threads);
        for endpoint in Endpoint::ALL {
            let (reference, _) = demo_model(endpoint.task_kind(), &cfg, SEED);
            let inputs = inputs_for(endpoint);
            let direct = reference.score_batch(&inputs, &pool);

            let resp = client
                .post(endpoint.path(), &request_body(&inputs))
                .expect("request succeeds");
            assert_eq!(resp.status, 200, "{}: {}", endpoint.path(), resp.body);
            let served = wire_scores(&resp.body);
            assert_eq!(
                served.len(),
                direct.len(),
                "{} at {threads} threads",
                endpoint.path()
            );
            for (row, (s, d)) in served.iter().zip(direct.iter()).enumerate() {
                let s_bits: Vec<u32> = s.iter().map(|v| v.to_bits()).collect();
                let d_bits: Vec<u32> = d.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    s_bits,
                    d_bits,
                    "{} row {row} at {threads} threads: served {s:?} != direct {d:?}",
                    endpoint.path()
                );
            }
            // Boot weights: generation 0.
            let doc = json::parse(&resp.body).unwrap();
            assert_eq!(
                doc.get("generation").and_then(Json::as_u64),
                Some(0),
                "no swaps have happened"
            );
        }
        server.shutdown();
    }
}

#[test]
fn concurrent_clients_get_bit_identical_scores_through_batching() {
    let server = boot(4);
    let addr = server.local_addr();
    let cfg = demo_model_config();
    let (reference, _) = demo_model(Endpoint::Classify.task_kind(), &cfg, SEED);
    let inputs = inputs_for(Endpoint::Classify);
    let direct = reference.score_batch(&inputs, &RotomPool::new(4));
    let body = request_body(&inputs);

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let resp = client.post("/classify", &body).expect("request");
                assert_eq!(resp.status, 200, "{}", resp.body);
                wire_scores(&resp.body)
            })
        })
        .collect();
    for h in handles {
        let served = h.join().expect("client thread");
        assert_eq!(served, direct, "every concurrent client sees direct scores");
    }
    // Each of the 8 requests went through the batcher exactly once. Whether
    // any of them shared a batch depends on timing; serve_chaos's
    // `jobs_queued_behind_a_busy_worker_ride_one_batch` pins batch sharing.
    let jobs = server
        .metrics()
        .batched_jobs
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(jobs, 8);
    server.shutdown();
}

#[test]
fn health_metrics_and_error_routes_respond() {
    let server = boot(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));

    // Score something so /metrics has content.
    let resp = client
        .post("/classify", "{\"inputs\": [\"fine little film\"]}")
        .expect("score");
    assert_eq!(resp.status, 200, "{}", resp.body);

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let doc = json::parse(&metrics.body).expect("metrics is JSON");
    let classify = doc
        .get("endpoints")
        .and_then(|e| e.get("classify"))
        .expect("classify section");
    assert_eq!(
        classify.get("requests").and_then(Json::as_u64),
        Some(1),
        "{}",
        metrics.body
    );
    // Robustness counters: present from boot, zero on an unloaded server
    // (nothing shed, no respawns, queue already drained back to empty).
    let batcher = doc.get("batcher").expect("batcher section");
    for gauge in [
        "queue_depth",
        "shed_total",
        "batcher_respawns",
        "drain_deadline_exceeded",
    ] {
        assert_eq!(
            batcher.get(gauge).and_then(Json::as_u64),
            Some(0),
            "batcher.{gauge} in {}",
            metrics.body
        );
    }
    assert_eq!(doc.get("conns_rejected").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("accept_errors").and_then(Json::as_u64), Some(0));

    // Error taxonomy over the wire.
    assert_eq!(client.get("/nope").expect("404").status, 404);
    assert_eq!(
        client.get("/match").expect("405").status,
        405,
        "GET on POST route"
    );
    assert_eq!(
        client
            .post("/match", "{\"inputs\": []}")
            .expect("400")
            .status,
        400
    );
    assert_eq!(
        client
            .post("/admin/swap", "{\"endpoint\": \"match\"}")
            .expect("400")
            .status,
        400,
        "swap without checkpoint"
    );
    assert_eq!(
        client
            .post(
                "/admin/swap",
                "{\"endpoint\": \"match\", \"checkpoint\": \"/nonexistent.ckpt\"}"
            )
            .expect("422")
            .status,
        422,
        "unloadable checkpoint"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_serve_in_order() {
    let server = boot(2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let body = "{\"inputs\": [\"steady little movie\"]}";
    let responses = client
        .pipeline("POST", "/classify", Some(body), 5)
        .expect("pipelined burst");
    assert_eq!(responses.len(), 5);
    let first = wire_scores(&responses[0].body);
    for resp in &responses {
        assert_eq!(resp.status, 200);
        assert_eq!(wire_scores(&resp.body), first, "same input, same scores");
    }
    server.shutdown();
}

#[test]
fn start_with_planes_applies_the_configured_score_cache() {
    let cfg = demo_model_config();
    let planes = Endpoint::ALL.map(|e| {
        let (model, name) = demo_model(e.task_kind(), &cfg, SEED);
        TaskPlane::new(e, name, model)
    });
    let server = Server::start_with_planes(
        ServerConfig {
            score_cache: 16,
            seed: SEED,
            ..ServerConfig::default()
        },
        Arc::new(planes),
    )
    .expect("server boots");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let body = "{\"inputs\": [\"steady little movie\", \"steady little movie\"]}";
    for _ in 0..2 {
        assert_eq!(client.post("/classify", body).expect("score").status, 200);
    }
    let metrics = client.get("/metrics").expect("metrics");
    let doc = json::parse(&metrics.body).expect("metrics is JSON");
    for endpoint in Endpoint::ALL {
        let cache = doc
            .get("endpoints")
            .and_then(|e| e.get(endpoint.name()))
            .and_then(|e| e.get("cache"))
            .expect("cache field");
        assert_ne!(cache, &Json::Null, "{}: {}", endpoint.name(), metrics.body);
    }
    let classify = doc
        .get("endpoints")
        .and_then(|e| e.get("classify"))
        .unwrap();
    let cache = classify.get("cache").unwrap();
    // First request: both lookups miss; second: both hit.
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(2));
    server.shutdown();
}
