//! Batch execution support types.
//!
//! The paper's engine answers one query at a time; a serving deployment
//! sees a *workload*. [`SearchEngine::run_batch`](crate::SearchEngine::run_batch)
//! fans whole queries out across `std::thread::scope` workers (no external
//! thread-pool dependency) claiming from a shared atomic cursor. Each worker
//! claims whole [`Query`](crate::Query) values and runs the ordinary
//! pipeline on them, one query on one thread — the engine's only level of
//! parallelism. By default a query's bidirectional-trie caches stay with the
//! query that built them (its verifier is thread-local), so cache locality
//! is exactly that of sequential execution; [`BatchOptions::share_tries`]
//! opts the whole batch into one shared trie cache so repeated or
//! overlapping patterns reuse each other's DP columns. One batch may mix thresholds,
//! top-k, temporal and plain queries freely.
//!
//! Either way the result sets — distances included — are identical to
//! sequential execution: the only shared mutable state is the opt-in trie
//! cache, whose columns are bit-identical to privately computed ones.
//!
//! This module holds the workload-level types: [`BatchOptions`] (worker
//! count, trie sharing) and [`BatchStats`] (wall-clock vs summed-CPU time so
//! a throughput experiment can report queries/sec and effective parallel
//! speedup directly).

use crate::stats::SearchStats;
use std::time::Duration;

/// Options for one batch run. Per-query behavior lives in each
/// [`Query`](crate::Query); this only schedules the workload.
///
/// Batch workers run untraced (this is a plain `Copy` bag and cannot carry
/// a [`TraceSink`](trajsearch_obs::TraceSink) reference); workloads that
/// need per-phase spans run their queries through
/// [`SearchEngine::run_traced`](crate::SearchEngine::run_traced) instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker count; `0` means [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Share one trie cache across every WED Trie-mode query of the batch,
    /// so repeated or overlapping patterns reuse warm DP columns
    /// (`stats.trie_cache_hits`). Results are bit-identical either way.
    ///
    /// Off by default: with sharing on, a query's `stepdp_calls` /
    /// `trie_cache_*` counters (and hence its CMR) depend on which queries
    /// ran before it in the batch, so per-query counter reproducibility
    /// against a standalone `run` is deliberately opt-in.
    pub share_tries: bool,
}

impl BatchOptions {
    /// `threads` workers, private tries.
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions {
            threads,
            share_tries: false,
        }
    }

    /// Toggles batch-level trie sharing (see [`BatchOptions::share_tries`]).
    pub fn share_tries(mut self, on: bool) -> Self {
        self.share_tries = on;
        self
    }

    pub(crate) fn resolve_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Workload-level instrumentation: wall-clock vs CPU time plus the merged
/// per-phase aggregates of every query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Wall-clock time of the whole batch (dispatch to last join).
    pub wall_time: Duration,
    /// Summed per-query phase time across all workers (`Σ total_time()`),
    /// i.e. the time a 1-thread run would have spent inside the engine.
    pub cpu_time: Duration,
    /// Worker count actually used.
    pub threads: usize,
    /// Number of queries executed.
    pub queries: usize,
    /// Per-phase and counter aggregates merged over every query.
    pub merged: SearchStats,
}

impl BatchStats {
    /// Batch throughput in queries per second (wall-clock).
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.queries as f64 / secs
        } else {
            0.0
        }
    }

    /// Effective parallel speedup: engine CPU time over wall-clock time.
    /// Bounded by `threads` (minus scheduling overhead); ≈ 1 on one core.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall > 0.0 {
            self.cpu_time.as_secs_f64() / wall
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::VerifyMode;
    use crate::{EngineBuilder, Query};
    use traj::{Trajectory, TrajectoryStore};
    use wed::models::Lev;
    use wed::Sym;

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::untimed(vec![0, 1, 2, 3, 4]));
        s.push(Trajectory::untimed(vec![3, 1, 5, 1, 2]));
        s.push(Trajectory::untimed(vec![9, 8, 7, 6]));
        s.push(Trajectory::untimed(vec![1, 2, 1, 2, 1]));
        s
    }

    fn workload() -> Vec<(Vec<Sym>, f64)> {
        vec![
            (vec![1, 5, 2], 2.0),
            (vec![1, 2], 1.0),
            (vec![9, 8], 1.5),
            (vec![7, 7, 7], 4.0), // infeasible for Lev: exercises fallback
            (vec![0, 1, 2, 3], 2.0),
        ]
    }

    fn queries(mode: VerifyMode) -> Vec<Query> {
        workload()
            .into_iter()
            .map(|(q, tau)| Query::threshold(q, tau).verify(mode).build().unwrap())
            .collect()
    }

    #[test]
    fn batch_equals_run_loop_in_order() {
        let store = store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        for mode in [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw] {
            let qs = queries(mode);
            let want: Vec<_> = qs.iter().map(|q| engine.run(q).unwrap()).collect();
            for threads in [1, 2, 3, 16] {
                let got = engine
                    .run_batch(&qs, BatchOptions::with_threads(threads))
                    .unwrap();
                assert_eq!(got.responses.len(), want.len());
                for (i, (g, w)) in got.responses.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.matches, w.matches,
                        "query {i} diverged at threads={threads} mode={mode:?}"
                    );
                    assert_eq!(g.stats.candidates, w.stats.candidates);
                    assert_eq!(g.stats.fallback, w.stats.fallback);
                }
            }
        }
    }

    #[test]
    fn batch_stats_aggregate_the_workload() {
        let store = store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        let qs = queries(VerifyMode::Trie);
        let out = engine
            .run_batch(&qs, BatchOptions::with_threads(2))
            .unwrap();
        assert_eq!(out.stats.queries, qs.len());
        assert_eq!(out.stats.threads, 2);
        assert!(out.stats.merged.fallback, "workload contains a fallback");
        let sum: usize = out.responses.iter().map(|o| o.stats.results).sum();
        assert_eq!(out.stats.merged.results, sum);
        assert!(out.stats.wall_time > Duration::ZERO);
        assert!(out.stats.cpu_time >= out.stats.merged.verify_time);
        assert!(out.stats.queries_per_sec() > 0.0);
    }

    #[test]
    fn empty_workload_is_fine() {
        let store = store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        let out = engine
            .run_batch(&[], BatchOptions::with_threads(4))
            .unwrap();
        assert!(out.responses.is_empty());
        assert_eq!(out.stats.queries, 0);
    }

    #[test]
    fn more_threads_than_queries_is_capped() {
        let store = store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        let qs = vec![Query::threshold(vec![1, 2], 1.0).build().unwrap()];
        let out = engine
            .run_batch(&qs, BatchOptions::with_threads(64))
            .unwrap();
        assert_eq!(out.stats.threads, 1);
        assert_eq!(out.responses.len(), 1);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let store = store();
        let engine = EngineBuilder::new(&Lev, &store, 10).build();
        let qs = queries(VerifyMode::Trie);
        let out = engine.run_batch(&qs, BatchOptions::default()).unwrap();
        assert!(out.stats.threads >= 1);
        assert_eq!(out.responses.len(), qs.len());
    }
}
