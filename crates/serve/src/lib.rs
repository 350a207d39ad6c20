//! # rotom-serve — zero-dependency model serving over the inference plane
//!
//! A hand-rolled HTTP/1.1 server (`std::net::TcpListener`, no external
//! crates) that fronts the tape-free scoring path from `rotom`:
//!
//! * **Three scoring endpoints** — `POST /match`, `/clean`, `/classify` —
//!   one per Rotom task family, each backed by its own hot-swappable
//!   [`TaskPlane`].
//! * **Work-conserving batching** ([`batcher`]) — an idle batcher scores
//!   a request at once; requests that queue while a batch is scoring ride
//!   the next `score_batch` pass together, each waiting at most a
//!   few-millisecond window from its arrival.
//! * **Hot swap** — `POST /admin/swap` loads a StateBag checkpoint into a
//!   live plane under its write lock; every response reports the plane
//!   generation and parameter fingerprint that produced it, and the swap
//!   clears the plane's score cache (see [`plane`]).
//! * **Score cache** — an optional per-plane LRU memo of input tokens →
//!   probabilities (`ServerConfig::score_cache`, `--score-cache`; see
//!   [`plane`]).
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
mod cache;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod plane;
pub mod server;

pub use batcher::{Batcher, DrainReport, JobError, JobReply, JobResult};
pub use client::{post_with_retry, Client, Response, RetryPolicy};
pub use metrics::{CacheStats, LatencyHistogram, ServeMetrics};
pub use plane::{demo_model, demo_model_config, Endpoint, ScoredBatch, SwapInfo, TaskPlane};
pub use server::{Server, ServerConfig, MAX_INPUTS_PER_REQUEST};
