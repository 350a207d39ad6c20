//! # rotom-serve — zero-dependency model serving over the inference plane
//!
//! A hand-rolled HTTP/1.1 server (`std::net::TcpListener`, no external
//! crates) that fronts the tape-free scoring path from `rotom`:
//!
//! * **Three scoring endpoints** — `POST /match`, `/clean`, `/classify` —
//!   one per Rotom task family, each backed by its own hot-swappable
//!   [`TaskPlane`].
//! * **Windowed batching** ([`batcher`]) — concurrent requests within a
//!   few-millisecond window ride one `score_batch` pass through the
//!   scoring pool instead of one forward each.
//! * **Hot swap** — `POST /admin/swap` loads a StateBag checkpoint into a
//!   live plane under its write lock; every response reports the plane
//!   generation and parameter fingerprint that produced it, and the score
//!   cache self-invalidates across swaps (see [`plane`]).
//! * **Observability** — `GET /healthz`, `GET /metrics` (JSON counters +
//!   log2-bucketed latency quantiles, mirrored into the `ROTOM_TELEMETRY`
//!   plane as `serve` records).
//! * **Overload protection** — bounded batcher queue with deadline-budget
//!   admission control (`503` + `Retry-After` sheds, never silent
//!   queueing), a hard connection cap, accept-loop error backoff, a
//!   watchdog that respawns a wedged or panic-dead batcher worker, and
//!   graceful drain shutdown ([`Server::drain`](server::Server::drain)) —
//!   chaos-tested via the serve-side `ROTOM_FAULT` faultpoints
//!   (`score_panic`, `slow_score`, `batcher_die`, `torn_write`,
//!   `queue_full`; see `rotom_nn::faultpoint`).
//!
//! The [`http`] parser is incremental and pipelining-aware, with a strict
//! error taxonomy (400/408/411/413/431/501/505) fuzzed by the
//! `http_props` test suite; [`json`] keeps `f32` scores bit-identical over
//! the wire by round-tripping shortest-form number text. [`client`] is the
//! matching minimal client used by the e2e tests and `servebench`.

pub mod batcher;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod plane;
pub mod server;

pub use batcher::{Batcher, BatcherConfig, DrainReport, JobError, JobReply, JobResult};
pub use client::{post_with_retry, Client, Response, RetryPolicy};
pub use metrics::{LatencyHistogram, ServeMetrics};
pub use plane::{demo_model, demo_model_config, Endpoint, ScoredBatch, SwapInfo, TaskPlane};
pub use server::{Server, ServerConfig, MAX_INPUTS_PER_REQUEST};
