//! # trajsearch-serve — a concurrent network front-end for the engine
//!
//! The paper's engine answers queries in-process; a production deployment
//! answers them over a socket, under overload, with latency budgets. This
//! crate is that layer: a **`std`-only TCP server** (thread-per-acceptor +
//! bounded worker pool — no async runtime, mirroring the scoped-thread
//! scheduling of [`run_batch`](trajsearch_core::SearchEngine::run_batch))
//! speaking the *same* [`Query`](trajsearch_core::Query) /
//! [`Response`](trajsearch_core::Response) JSON wire format the core
//! already round-trips, in newline-delimited frames.
//!
//! What the server guarantees:
//!
//! * **Typed backpressure** — a bounded admission queue; when it is full,
//!   the reply is an `overloaded` [`ServerError`], never unbounded
//!   buffering.
//! * **Per-query deadlines** — [`Query::deadline_ms`](trajsearch_core::Query::deadline_ms)
//!   starts counting at admission; expiry while queued or at a cooperative
//!   engine checkpoint returns a `deadline_exceeded` error, not a late
//!   answer ([`trajsearch_core::deadline`]).
//! * **Graceful drain** — shutdown stops admission but answers every
//!   admitted query before [`Server::serve`] returns.
//! * **Observability** — counters and queue/wall/CPU latency percentiles,
//!   live via [`ServerHandle::metrics`] or over the wire via a `stats`
//!   request ([`metrics`]); end-to-end query tracing (minor 3) — a
//!   `trace_id` on the query frame records per-phase
//!   [spans](trajsearch_obs) readable back via a `trace` request, a
//!   slow-query log captures threshold-crossing queries
//!   ([`ServerConfig::slow_query_threshold`]), and a `metrics_text`
//!   request renders Prometheus text exposition with per-phase log2
//!   latency histograms. Untraced frames are byte-identical to minor 2.
//!
//! Responses over the socket are **byte-identical** (matches and stats
//! counters) to in-process [`SearchEngine::run`](trajsearch_core::SearchEngine::run)
//! — the loopback equivalence suite in `tests/loopback.rs` enforces this
//! across the single, sharded and compact index layouts.
//!
//! ## Roles (PR 6)
//!
//! The same listener machinery serves two personalities:
//!
//! * **Query server / coordinator** — [`Server::serve`] over any
//!   [`QueryHandler`] (a [`SearchEngine`](trajsearch_core::SearchEngine)
//!   works as-is; a `trajsearch-distrib` coordinator adds typed
//!   [`degraded`](proto::DegradedInfo) replies when shards go missing).
//! * **Shard server** — [`Server::serve_shard`] over a [`ShardSource`]
//!   answers the `shard_*` RPCs ([`proto`]): the remote half of the
//!   [`PostingSource`](trajsearch_core::PostingSource) contract, with
//!   epoch and deadline guards ([`shard`]).
//!
//! Frames are versioned (`"v"`, [`proto::PROTO_MAJOR`]) with a `hello`
//! negotiation and a typed `unsupported_version` rejection; see the
//! [`proto`] module docs for the compatibility rule. Clients get typed
//! per-query [`QueryOutcome`]s ([`client`]).
//!
//! ## Example
//!
//! ```
//! use std::thread;
//! use trajsearch_core::{EngineBuilder, Query};
//! use trajsearch_serve::{Client, Server, ServerConfig};
//! use traj::{Trajectory, TrajectoryStore};
//! use wed::models::Lev;
//!
//! let mut store = TrajectoryStore::new();
//! store.push(Trajectory::untimed(vec![0, 1, 2, 3, 4]));
//! let engine = EngineBuilder::new(Lev, &store, 8).build();
//!
//! let server = Server::bind(ServerConfig::default())?; // 127.0.0.1, ephemeral port
//! let handle = server.handle();
//! thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
//!     scope.spawn(|| server.serve(&engine));
//!
//!     let mut client = Client::connect(handle.local_addr())?;
//!     let query = Query::threshold(vec![1, 2], 0.5).deadline_ms(2_000).build()?;
//!     let response = client.query(&query)?;
//!     assert_eq!(response.matches.len(), 1);
//!
//!     handle.shutdown(); // drains in-flight queries, then serve() returns
//!     Ok(())
//! })?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod metrics;
pub mod proto;
mod queue;
pub mod server;
pub mod shard;

pub use client::{Client, ClientError, QueryOutcome};
pub use metrics::{LatencySummary, Metrics, MetricsSnapshot};
pub use proto::{
    DegradedInfo, Reply, Request, ServerError, ServerErrorKind, ShardInfo, TraceEntry, WireSpan,
    MAX_FRAME_BYTES, PROTO_MAJOR, PROTO_MINOR, SUPPORTED_METRICS,
};
pub use server::{Handled, QueryHandler, Server, ServerConfig, ServerHandle, DEFAULT_SINK_SPANS};
pub use shard::{IndexShardSource, ShardSource};
