//! # trajsearch-core — fast subtrajectory similarity search under WED
//!
//! From-scratch implementation of the paper *"Fast Subtrajectory Similarity
//! Search in Road Networks under Weighted Edit Distance Constraints"*
//! (Koide, Xiao & Ishikawa, VLDB 2020): given a query path `Q`, a weighted
//! edit distance `wed` and a threshold `τ`, find **every** subtrajectory
//! `P^(id)[s..=t]` in a trajectory database with `wed(P[s..=t], Q) < τ`
//! (Definition 3) — exactly, for *any* cost model in the WED class.
//!
//! The engine follows the paper's filter-and-verify design:
//!
//! * [`filter`] — **subsequence filtering** (Theorem 1): a τ-subsequence
//!   `Q' ⊆ Q` with `Σ c(q) ≥ τ` certifies that matches must touch the
//!   substitution neighborhood `B(Q')`; the choice of `Q'` minimizing the
//!   candidate count is NP-hard and solved by the 2-approximate
//!   [`mincand`] greedy (Algorithm 1).
//! * [`index`] — inverted index with per-symbol postings `(id, j)` (§4.1),
//!   behind the [`PostingSource`] abstraction so the storage layout is
//!   swappable without touching query semantics.
//! * [`sharded`] — postings partitioned by `traj_id % num_shards`: parallel
//!   construction on scoped threads, identical search results at any shard
//!   count.
//! * [`compact`] — delta+varint postings in one contiguous arena
//!   ([`CompactIndex`]): the immutable, memory-compact layout a reopened
//!   `trajsearch-persist` snapshot builds from its store, again with
//!   identical search results.
//! * [`verify`] — **local verification** growing bidirectionally from
//!   candidate anchors with the Eq. (11) early-termination bound, both
//!   directions of an anchor stopping on one budget (the second walk gets
//!   τ minus the first side's best), and
//!   **bidirectional tries** caching DP columns across candidates (§5).
//!   Verification is metric-pluggable: WED's Local and Trie modes walk
//!   tries, while its SW mode, every other metric and the exact fallback
//!   run one whole-trajectory scan.
//! * [`metric`] — optional non-WED distances (DTW, LCSS(ε), discrete
//!   Fréchet) selected per query via [`Metric`], verified against the
//!   `baselines` crate and reusing the filter front half where its bound
//!   is sound for the metric.
//! * [`temporal`] — temporal constraints and the TF pre-filter (§4.3).
//! * [`stats`] — the instrumentation behind Tables 4 and 5. Alongside the
//!   aggregate counters, every execution path is threaded with a
//!   [`Tracer`]: [`SearchEngine::run_traced`](search::SearchEngine::run_traced)
//!   records per-phase spans (filter, lookup, dedup, verification, top-k
//!   growth rounds, fallback scans) into a
//!   [`TraceSink`], at zero cost when untraced.
//! * [`batch`] — workload-level execution types; one batch may mix
//!   thresholds, top-k and temporal queries.
//! * [`deadline`] — per-query latency budgets with cooperative
//!   cancellation checkpoints, the engine-side half of a serving layer's
//!   typed-timeout contract.
//! * [`query`] / [`api`] — the unified request/response surface:
//!   a validated, JSON-serializable [`Query`] answered by
//!   [`SearchEngine::run`](search::SearchEngine::run) /
//!   [`run_batch`](search::SearchEngine::run_batch), with engines built by
//!   [`EngineBuilder`]. [`run_traced`](search::SearchEngine::run_traced)
//!   adds span recording and
//!   [`execute`](search::SearchEngine::execute) takes the deadline and the
//!   tracer from the caller; all of them reach the same single execution
//!   path in [`search`].
//!
//! ## Quick example
//!
//! ```
//! use trajsearch_core::{EngineBuilder, IndexLayout, Query};
//! use traj::{Trajectory, TrajectoryStore};
//! use wed::models::Lev;
//!
//! let mut store = TrajectoryStore::new();
//! store.push(Trajectory::untimed(vec![0, 1, 2, 3, 4]));
//! store.push(Trajectory::untimed(vec![7, 1, 9, 3, 7]));
//!
//! let engine = EngineBuilder::new(&Lev, &store, 10)
//!     .layout(IndexLayout::Sharded(2)) // layouts never change results
//!     .build();
//! let query = Query::threshold(vec![1, 2, 3], 2.0).build()?;
//! let hits = engine.run(&query)?;
//! // Trajectory 0 contains [1,2,3] exactly; trajectory 1 within distance 1.
//! assert!(hits.matches.iter().any(|m| m.id == 0 && m.dist == 0.0));
//! assert!(hits.matches.iter().any(|m| m.id == 1 && m.dist == 1.0));
//!
//! // The same `Query`/`Response` types are the wire format.
//! let wire = query.to_json();
//! assert_eq!(Query::from_json(&wire)?, query);
//! # Ok::<(), trajsearch_core::QueryError>(())
//! ```

pub mod api;
pub mod batch;
pub mod compact;
pub mod deadline;
pub mod filter;
pub mod index;
pub mod json;
pub mod metric;
pub mod mincand;
pub mod query;
pub mod results;
pub mod search;
pub mod sharded;
pub mod stats;
pub mod temporal;
pub mod topk;
pub mod verify;

pub use api::{AnyIndex, BatchResponse, EngineBuilder, IndexLayout, RemoteSpec, Response};
pub use batch::{BatchOptions, BatchStats};
pub use compact::CompactIndex;
pub use deadline::Deadline;
pub use filter::FilterPlan;
pub use index::{InvertedIndex, Posting, PostingSource};
pub use metric::Metric;
pub use query::{Objective, Query, QueryBuilder, QueryError};
pub use results::MatchResult;
pub use search::{exact_fallback_scan, SearchEngine, SearchOptions};
pub use sharded::{IndexShard, ShardedIndex};
pub use stats::SearchStats;
pub use temporal::{TemporalConstraint, TemporalPredicate, TimeInterval};
pub use topk::{per_trajectory_best, TopKEntry};
pub use verify::{Candidate, VerifyMode};

// Observability primitives, re-exported so downstream crates (serve,
// distrib) name one tracing vocabulary without a direct obs dependency.
pub use trajsearch_obs::{SpanRecord, TraceSink, Tracer};
