//! # trajsearch — workspace facade
//!
//! One-stop re-export of the workspace crates implementing *"Fast
//! Subtrajectory Similarity Search in Road Networks under Weighted Edit
//! Distance Constraints"* (Koide, Xiao & Ishikawa, VLDB 2020). Depend on
//! this package to get the whole stack; depend on the individual crates to
//! slim the dependency graph.
//!
//! * [`rnet`] — road networks: CSR graphs, generators, Dijkstra, hub
//!   labels, kd-trees.
//! * [`traj`] — trajectories: model, store, synthetic trips.
//! * [`wed`] — weighted edit distance: cost models, DP, Smith–Waterman.
//! * [`core`] (`trajsearch_core`) — the OSF filter-and-verify engine.
//! * [`serve`] (`trajsearch_serve`) — the concurrent TCP front-end over
//!   the `Query`/`Response` wire format (bounded admission, deadlines,
//!   graceful drain, metrics), plus the versioned shard-RPC surface.
//! * [`distrib`] (`trajsearch_distrib`) — distributed shards over that
//!   wire protocol: `RemoteShards` (a networked `PostingSource` fanning
//!   out over shard servers) and the coordinator role serving queries
//!   with typed degraded replies.
//! * [`persist`] (`trajsearch_persist`) — versioned, checksummed on-disk
//!   snapshots of store + index, reopened as a compact arena-backed
//!   `PostingSource` without a rebuild.
//! * [`baselines`] — competitor methods from the paper's evaluation.
//! * [`mod@bench`] (`trajsearch_bench`) — the table/figure experiment
//!   harness.
//!
//! This package also owns the repo-level integration tests (`tests/`) and
//! runnable examples (`examples/`); see the README for the tour.

pub use baselines;
pub use rnet;
pub use traj;
pub use trajsearch_bench as bench;
pub use trajsearch_core as core;
pub use trajsearch_distrib as distrib;
pub use trajsearch_persist as persist;
pub use trajsearch_serve as serve;
pub use wed;

/// Convenience re-exports of the types most programs start from: build an
/// engine with [`EngineBuilder`](trajsearch_core::EngineBuilder), describe
/// the request with [`Query`](trajsearch_core::Query) (optionally picking
/// a similarity [`Metric`](trajsearch_core::Metric)), answer it with
/// [`SearchEngine::run`](trajsearch_core::SearchEngine::run) /
/// [`run_batch`](trajsearch_core::SearchEngine::run_batch).
pub mod prelude {
    pub use rnet::{CityParams, NetworkKind, RoadNetwork};
    pub use traj::{Trajectory, TrajectoryStore, TripConfig};
    pub use trajsearch_core::{
        AnyIndex, BatchOptions, BatchResponse, CompactIndex, Deadline, EngineBuilder, IndexLayout,
        IndexShard, InvertedIndex, Metric, Objective, PostingSource, Query, QueryBuilder,
        QueryError, RemoteSpec, Response, SearchEngine, ShardedIndex, TemporalConstraint,
        TimeInterval, VerifyMode,
    };
    pub use trajsearch_distrib::{Coordinator, RemoteShards, ShardEndpoint};
    pub use trajsearch_persist::{Snapshot, SnapshotError, SnapshotErrorKind, SnapshotInfo};
    pub use trajsearch_serve::{
        Client, ClientError, DegradedInfo, MetricsSnapshot, QueryOutcome, Server, ServerConfig,
        ServerError, ServerErrorKind, ServerHandle,
    };
    pub use wed::models::{Edr, Erp, Lev, Memo, NetEdr, NetErp, Surs};
    pub use wed::{CostModel, Sym, WedInstance};
}
