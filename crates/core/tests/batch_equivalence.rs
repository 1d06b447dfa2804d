//! Randomized equivalence: batched execution must be byte-identical to the
//! sequential engine.
//!
//! `run_batch` runs each query on one worker. Workers share no mutable
//! state but the opt-in batch trie cache (`share_tries`), the engine's one
//! concurrent verification path, whose walks hold a trie's lock while they
//! extend it. So the outcomes — match triples *and* `f64` distances — must
//! equal the sequential `run` exactly (`assert_eq!`, no epsilon) across
//! verify modes, temporal constraints, thread counts, trie sharing and the
//! fallback path.

use proptest::prelude::*;
use rnet::{CityParams, NetworkKind, RoadNetwork};
use std::sync::Arc;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::batch::BatchOptions;
use trajsearch_core::{
    EngineBuilder, Query, SearchOptions, TemporalConstraint, TimeInterval, VerifyMode,
};
use wed::models::{Edr, Erp, Lev};
use wed::{Sym, WedInstance};

fn net() -> Arc<RoadNetwork> {
    Arc::new(CityParams::tiny(NetworkKind::Grid).generate())
}

/// Timed store: trajectory `i` departs at `10·i` with unit steps, so small
/// query intervals split the store into in-window and out-of-window parts.
fn timed_store(paths: Vec<Vec<Sym>>) -> TrajectoryStore {
    paths
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let t0 = 10.0 * i as f64;
            let times: Vec<f64> = (0..p.len()).map(|k| t0 + k as f64).collect();
            Trajectory::new(p, times)
        })
        .collect()
}

/// The workload as queries with `opts`; see `check_equivalence` for what
/// they must reproduce.
fn queries_for(workload: &[(Vec<Sym>, f64)], opts: SearchOptions) -> Vec<Query> {
    workload
        .iter()
        .map(|(q, tau)| {
            let mut b = Query::threshold(q.clone(), *tau)
                .verify(opts.verify)
                .temporal_filter(opts.temporal_filter);
            if let Some(c) = opts.temporal {
                b = b.temporal(c);
            }
            b.build().expect("workload queries are valid")
        })
        .collect()
}

fn check_equivalence<M: WedInstance + Sync>(
    model: M,
    store: &TrajectoryStore,
    alphabet: usize,
    workload: &[(Vec<Sym>, f64)],
    opts: SearchOptions,
) -> Result<(), TestCaseError> {
    let engine = EngineBuilder::new(model, store, alphabet).build();
    let queries = queries_for(workload, opts);
    let want: Vec<_> = queries
        .iter()
        .map(|q| engine.run(q).expect("sequential run"))
        .collect();

    for threads in [1, 2, 4] {
        let got = engine
            .run_batch(&queries, BatchOptions::with_threads(threads))
            .expect("batch admitted");
        prop_assert_eq!(got.responses.len(), want.len());
        for (i, (g, w)) in got.responses.iter().zip(&want).enumerate() {
            // Byte-identical: same triples, same f64 distances, same order.
            prop_assert_eq!(
                &g.matches,
                &w.matches,
                "batch query {} at {} threads",
                i,
                threads
            );
            prop_assert_eq!(g.stats.fallback, w.stats.fallback);
            prop_assert_eq!(g.stats.candidates, w.stats.candidates);
            prop_assert_eq!(g.stats.candidates_deduped, w.stats.candidates_deduped);
            prop_assert_eq!(g.stats.results, w.stats.results);
        }

        // The opt-in shared trie cache must never change results — only
        // which worker computes a DP column first.
        let shared = engine
            .run_batch(
                &queries,
                BatchOptions::with_threads(threads).share_tries(true),
            )
            .expect("shared-cache batch admitted");
        for (i, (g, w)) in shared.responses.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                &g.matches,
                &w.matches,
                "shared-cache batch query {} at {} threads",
                i,
                threads
            );
            prop_assert_eq!(g.stats.fallback, w.stats.fallback);
            prop_assert_eq!(g.stats.candidates, w.stats.candidates);
            prop_assert_eq!(g.stats.results, w.stats.results);
        }
    }
    Ok(())
}

/// A repeated-query Trie-mode batch: with `share_tries` on, the first
/// execution of the pattern materializes the DP columns and every repeat
/// reuses them, so the merged `stepdp_calls` (the CMR numerator) drops
/// strictly below the private-trie baseline while matches stay
/// byte-identical at every thread count.
#[test]
fn shared_cache_repeated_batch_is_byte_identical_and_cheaper() {
    let store: TrajectoryStore = vec![
        vec![0, 1, 2, 3, 4],
        vec![3, 1, 5, 1, 2],
        vec![1, 2, 1, 2, 1],
        vec![2, 3, 4, 5, 6],
    ]
    .into_iter()
    .map(Trajectory::untimed)
    .collect();
    let engine = EngineBuilder::new(Lev, &store, 12).build();
    let q = Query::threshold(vec![1, 2, 3], 2.0)
        .verify(VerifyMode::Trie)
        .build()
        .unwrap();
    let queries: Vec<Query> = (0..8).map(|_| q.clone()).collect();

    let private = engine
        .run_batch(&queries, BatchOptions::with_threads(1))
        .unwrap();
    assert!(
        private.stats.merged.stepdp_calls > 0,
        "workload must exercise trie verification"
    );
    assert_eq!(private.stats.merged.trie_cache_hits, 0);
    assert_eq!(private.stats.merged.trie_cache_misses, 0);

    for threads in [1, 2, 4] {
        let shared = engine
            .run_batch(
                &queries,
                BatchOptions::with_threads(threads).share_tries(true),
            )
            .unwrap();
        for (i, (g, w)) in shared.responses.iter().zip(&private.responses).enumerate() {
            assert_eq!(g.matches, w.matches, "query {i} at {threads} threads");
        }
        assert!(
            shared.stats.merged.stepdp_calls < private.stats.merged.stepdp_calls,
            "sharing must reduce fresh columns at {threads} threads: {} !< {}",
            shared.stats.merged.stepdp_calls,
            private.stats.merged.stepdp_calls
        );
        assert!(
            shared.stats.merged.trie_cache_hits > 0,
            "repeats must hit the warm tries at {threads} threads"
        );
        // One miss per distinct (anchor-relative) query suffix, regardless
        // of thread interleaving.
        assert_eq!(
            shared.stats.merged.trie_cache_misses,
            engine
                .run_batch(&queries, BatchOptions::with_threads(1).share_tries(true))
                .unwrap()
                .stats
                .merged
                .trie_cache_misses,
            "misses are deterministic at {threads} threads"
        );
    }
}

/// Overlapping (not identical) patterns: different thresholds over the same
/// pattern and different patterns sharing anchor suffixes still verify to
/// byte-identical results with the batch cache on.
#[test]
fn shared_cache_overlapping_batch_is_byte_identical() {
    let store: TrajectoryStore = vec![
        vec![0, 1, 2, 3, 4],
        vec![3, 1, 5, 1, 2],
        vec![1, 2, 1, 2, 1],
        vec![9, 8, 7, 6],
    ]
    .into_iter()
    .map(Trajectory::untimed)
    .collect();
    let engine = EngineBuilder::new(Lev, &store, 12).build();
    let queries: Vec<Query> = [
        (vec![1, 2, 3], 1.0),
        (vec![1, 2, 3], 2.0), // same pattern, wider τ: same suffix set
        (vec![5, 2, 3], 2.0), // distinct pattern sharing the [2,3] suffix
        (vec![1, 2], 1.5),
        (vec![1, 2, 3], 3.0),
    ]
    .into_iter()
    .map(|(p, tau)| {
        Query::threshold(p, tau)
            .verify(VerifyMode::Trie)
            .build()
            .unwrap()
    })
    .collect();

    let want: Vec<_> = queries.iter().map(|q| engine.run(q).unwrap()).collect();
    for threads in [1, 2, 4] {
        let shared = engine
            .run_batch(
                &queries,
                BatchOptions::with_threads(threads).share_tries(true),
            )
            .unwrap();
        for (i, (g, w)) in shared.responses.iter().zip(&want).enumerate() {
            assert_eq!(g.matches, w.matches, "query {i} at {threads} threads");
            assert_eq!(g.stats.results, w.stats.results);
        }
        assert!(shared.stats.merged.trie_cache_hits > 0);
    }
}

/// Every WED verification path reads its substitution costs from the
/// verifier's own cost profile: private tries and the Local walk from one
/// profile, and a sharing batch extends a trie another query built — through a profile of a
/// different length that windows the same suffix at a different offset. On
/// `counter_golden`'s store, under ERP (real-valued costs), all of them must
/// return the same matches with the same distance **bits**.
#[test]
fn every_wed_path_returns_the_same_distance_bits_on_the_golden_store() {
    let net = Arc::new(CityParams::tiny(NetworkKind::Grid).seed(13).generate());
    let store = traj::generator::TripConfig::default()
        .count(80)
        .lengths(12, 30)
        .seed(29)
        .generate(&net);
    let erp = Erp::new(net.clone(), 5.0);
    let engine = EngineBuilder::new(&erp, &store, net.num_vertices()).build();

    // A pattern, a prefix of it (same backward suffixes at equal `iq`) and a
    // tail of it (same forward suffixes), each at two thresholds.
    let path = store.get(7).path();
    let patterns = [&path[2..10], &path[2..7], &path[5..10], &path[4..12]];
    let build = |mode: VerifyMode| -> Vec<Query> {
        patterns
            .iter()
            .flat_map(|p| [250.0, 400.0].map(|tau| (p.to_vec(), tau)))
            .map(|(p, tau)| Query::threshold(p, tau).verify(mode).build().unwrap())
            .collect()
    };
    let bits = |matches: &[trajsearch_core::MatchResult]| -> Vec<(u32, usize, usize, u64)> {
        matches
            .iter()
            .map(|m| (m.id, m.start, m.end, m.dist.to_bits()))
            .collect()
    };

    let private = build(VerifyMode::Trie);
    let want: Vec<_> = private
        .iter()
        .map(|q| bits(&engine.run(q).unwrap().matches))
        .collect();
    assert!(want.iter().any(|m| m.len() > 1), "the fixture must match");

    let local = build(VerifyMode::Local);
    for (i, want) in want.iter().enumerate() {
        assert_eq!(
            &bits(&engine.run(&local[i]).unwrap().matches),
            want,
            "Local, query {i}"
        );
    }
    for threads in [1, 2] {
        let opts = BatchOptions::with_threads(threads).share_tries(true);
        let shared = engine.run_batch(&private, opts).unwrap();
        assert!(
            shared.stats.merged.trie_cache_hits > 0,
            "the patterns must share tries"
        );
        for (i, (got, want)) in shared.responses.iter().zip(&want).enumerate() {
            assert_eq!(
                &bits(&got.matches),
                want,
                "share_tries x{threads}, query {i}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unit costs, every verify mode, including infeasible-τ workloads that
    /// exercise the fallback scan inside a batch.
    #[test]
    fn batch_equals_sequential_for_lev(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..12), 1..8),
        queries in proptest::collection::vec(
            (proptest::collection::vec(0u32..12, 1..6), 1u32..4),
            1..5,
        ),
        mode_i in 0usize..3,
    ) {
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        // tau > |Q| makes Lev filtering infeasible: mixing feasible and
        // fallback queries in one workload is the interesting case.
        let workload: Vec<(Vec<Sym>, f64)> = queries
            .into_iter()
            .map(|(q, tau_i)| {
                let tau = tau_i as f64;
                (q, tau)
            })
            .collect();
        let mode = [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw][mode_i];
        let opts = SearchOptions { verify: mode, ..Default::default() };
        check_equivalence(Lev, &store, 12, &workload, opts)?;
    }

    /// Network-backed EDR with spatial neighborhoods.
    #[test]
    fn batch_equals_sequential_for_edr(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..64, 1..10), 1..6),
        queries in proptest::collection::vec(
            (proptest::collection::vec(0u32..64, 1..5), 1u32..4),
            1..4,
        ),
        mode_i in 0usize..3,
    ) {
        let n = net();
        let edr = Edr::new(n.clone(), 130.0);
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        let workload: Vec<(Vec<Sym>, f64)> = queries
            .into_iter()
            .map(|(q, tau_i)| (q, tau_i as f64))
            .collect();
        let mode = [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw][mode_i];
        let opts = SearchOptions { verify: mode, ..Default::default() };
        check_equivalence(&edr, &store, n.num_vertices(), &workload, opts)?;
    }

    /// ERP: continuous costs where large τ forces the fallback scan.
    #[test]
    fn batch_equals_sequential_for_erp_with_fallback(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..64, 1..8), 1..5),
        queries in proptest::collection::vec(
            (proptest::collection::vec(0u32..64, 1..4), 30.0f64..3000.0),
            1..4,
        ),
    ) {
        let n = net();
        let erp = Erp::new(n.clone(), 150.0);
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        let workload: Vec<(Vec<Sym>, f64)> = queries.into_iter().collect();
        let opts = SearchOptions::default();
        check_equivalence(&erp, &store, n.num_vertices(), &workload, opts)?;
    }

    /// Temporal constraints, with and without the TF candidate pre-filter.
    #[test]
    fn batch_equals_sequential_under_temporal_constraints(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..10), 1..8),
        queries in proptest::collection::vec(
            (proptest::collection::vec(0u32..12, 1..5), 1u32..4),
            1..4,
        ),
        win_start in 0.0f64..60.0,
        win_len in 1.0f64..40.0,
        tf_i in 0u32..2,
        mode_i in 0usize..3,
    ) {
        let tf = tf_i == 1;
        let store = timed_store(paths);
        let workload: Vec<(Vec<Sym>, f64)> = queries
            .into_iter()
            .map(|(q, tau_i)| (q, tau_i as f64))
            .collect();
        let constraint =
            TemporalConstraint::overlaps(TimeInterval::new(win_start, win_start + win_len));
        let opts = SearchOptions {
            verify: [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw][mode_i],
            temporal: Some(constraint),
            temporal_filter: tf,
            ..Default::default()
        };
        check_equivalence(Lev, &store, 12, &workload, opts)?;
    }
}
