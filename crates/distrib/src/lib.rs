//! # trajsearch-distrib — distributed shards over the serve wire protocol
//!
//! The sharded index ([`ShardedIndex`](trajsearch_core::ShardedIndex))
//! partitions postings by `traj_id % n` inside one process; this crate
//! moves the shards into *separate processes* without changing a single
//! result byte:
//!
//! * **Shard servers** hold one
//!   [`IndexShard`](trajsearch_core::IndexShard) each, postings only, and
//!   answer the two shard RPCs (`shard_info`, `shard_postings`) via
//!   [`Server::serve_shard`](trajsearch_serve::Server::serve_shard)
//!   (`trajsearch-serve` owns the wire protocol and the role).
//! * [`RemoteShards`] is a [`PostingSource`](trajsearch_core::PostingSource)
//!   that fans postings fetches out over pooled connections to those
//!   servers — pipelined (one round trip per fetch, not one per shard),
//!   epoch-checked, deadline-bounded, with a degraded log for shards that
//!   stop answering or send postings that are not theirs. Frequencies and
//!   spans it derives from the store the shards indexed, which the
//!   coordinator holds, so the MinCand plan costs no round trip; by-departure
//!   candidates (§4.3) are its cached postings filtered by those spans.
//! * A [`Coordinator`] runs the full engine (store, model, MinCand,
//!   verification) locally over `RemoteShards` and serves the ordinary
//!   query protocol, answering with typed *degraded* replies whenever a
//!   shard went missing mid-query.
//!
//! The placement-equivalence guarantee: for the same store, a query
//! answered through `RemoteShards` over n shard servers is **byte-identical**
//! (matches and deterministic stats) to `IndexLayout::Sharded(n)` and
//! `IndexLayout::Single` in one process — enforced against a real
//! multi-process cluster by `tests/cluster.rs`.
//!
//! The `shard_server` and `coordinator` binaries in this crate wrap the
//! two roles for test clusters and demos; both print `LISTENING <addr>`
//! once bound (ephemeral ports welcome) and serve until killed.

pub mod coordinator;
pub mod remote;
pub mod testdata;

pub use coordinator::Coordinator;
pub use remote::{DistribError, RemoteShards, ShardEndpoint};
