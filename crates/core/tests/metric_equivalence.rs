//! Randomized equivalence: the non-WED metric back halves (DTW, LCSS(ε),
//! discrete Fréchet) must agree with the brute-force oracles in
//! `baselines::metric_naive` — through every index layout and execution
//! schedule, since neither may observe the metric.
//!
//! The suite also pins the [`SearchStats`] attribution contract of the
//! metric-pluggable verifier refactor: non-WED paths charge their DP work
//! to the metric-neutral `verify_cost` and leave the WED-specific counters
//! (`sw_columns`, `columns_passed`, `stepdp_calls`) at zero, while the WED
//! strategies keep `verify_cost` in lock-step with their native counter.
//! (The remote-loopback leg of the equivalence matrix lives in
//! `crates/distrib/tests/metric_loopback.rs` — this crate has no
//! networking.)

use baselines::{naive_dtw_search, naive_frechet_search, naive_lcss_search};
use proptest::prelude::*;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::batch::BatchOptions;
use trajsearch_core::{
    EngineBuilder, IndexLayout, MatchResult, Metric, Parallelism, Query, VerifyMode,
};
use wed::models::Lev;
use wed::Sym;

const ALPHABET: usize = 10;

fn store_from(paths: Vec<Vec<Sym>>) -> TrajectoryStore {
    paths.into_iter().map(Trajectory::untimed).collect()
}

fn oracle(metric: Metric, store: &TrajectoryStore, q: &[Sym], tau: f64) -> Vec<MatchResult> {
    match metric {
        Metric::Dtw => naive_dtw_search(&Lev, store, q, tau),
        Metric::Lcss { eps } => naive_lcss_search(&Lev, store, q, tau, eps),
        Metric::Frechet => naive_frechet_search(&Lev, store, q, tau),
        Metric::Wed => unreachable!("the WED oracle is baselines::naive_search"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine == oracle for each metric, across Single/Sharded/Compact
    /// layouts and Sequential/InQuery schedules, distances compared
    /// bit-for-bit.
    #[test]
    fn metric_engines_match_their_oracles(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..12),
            1..7,
        ),
        pattern in proptest::collection::vec(0u32..(ALPHABET as u32), 1..5),
        tau_i in 0usize..4,
    ) {
        let tau = [0.5, 1.0, 2.0, 3.0][tau_i];
        let store = store_from(paths);
        for metric in [Metric::Dtw, Metric::Lcss { eps: 0.0 }, Metric::Frechet] {
            let want = oracle(metric, &store, &pattern, tau);
            for layout in [IndexLayout::Single, IndexLayout::Sharded(3), IndexLayout::Compact] {
                let engine = EngineBuilder::new(&Lev, &store, ALPHABET)
                    .layout(layout)
                    .build();
                for parallelism in [Parallelism::Sequential, Parallelism::InQuery(2)] {
                    let query = Query::threshold(pattern.clone(), tau)
                        .metric(metric)
                        .parallelism(parallelism)
                        .build()
                        .unwrap();
                    let got = engine.run(&query).expect("metric run");
                    prop_assert_eq!(
                        &got.matches, &want,
                        "metric={:?} layout={:?} par={:?}", metric, layout, parallelism
                    );
                    // Attribution: non-WED verification never touches the
                    // WED-specific counters…
                    prop_assert_eq!(got.stats.sw_columns, 0);
                    prop_assert_eq!(got.stats.columns_passed, 0);
                    prop_assert_eq!(got.stats.stepdp_calls, 0);
                    // …and any scan work shows up in `verify_cost`.
                    if !want.is_empty() {
                        prop_assert!(got.stats.verify_cost > 0);
                    }
                    prop_assert_eq!(got.stats.results, want.len());
                }
            }
        }
    }

    /// WED keeps `verify_cost` in lock-step with the native counter of the
    /// chosen strategy: `columns_passed` for Local/Trie (columns actually
    /// visited), `sw_columns` for SW (one full scan per distinct
    /// trajectory).
    #[test]
    fn wed_verify_cost_mirrors_the_strategy_counters(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..12),
            1..7,
        ),
        pattern in proptest::collection::vec(0u32..(ALPHABET as u32), 1..5),
        tau_i in 0usize..2,
    ) {
        let tau = [1.0, 2.0][tau_i];
        let store = store_from(paths);
        let engine = EngineBuilder::new(&Lev, &store, ALPHABET).build();
        for mode in [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw] {
            let query = Query::threshold(pattern.clone(), tau)
                .verify(mode)
                .build()
                .unwrap();
            let got = engine.run(&query).expect("wed run");
            // On the fallback scan (no τ-subsequence) every mode runs the
            // same exact SW scan, so `sw_columns` is the native counter.
            let native = if got.stats.fallback {
                got.stats.sw_columns
            } else {
                match mode {
                    VerifyMode::Sw => got.stats.sw_columns,
                    VerifyMode::Trie | VerifyMode::Local => got.stats.columns_passed,
                }
            };
            prop_assert_eq!(
                got.stats.verify_cost, native,
                "mode={:?}", mode
            );
        }
    }
}

/// Mixed-metric batches come free from dispatching per query: each response
/// is byte-identical to its standalone `run`.
#[test]
fn mixed_metric_batch_matches_individual_runs() {
    let store = store_from(vec![
        vec![0, 1, 2, 3, 4],
        vec![3, 1, 5, 1, 2],
        vec![1, 2, 1, 2, 1],
        vec![9, 8, 7, 6],
    ]);
    let engine = EngineBuilder::new(&Lev, &store, ALPHABET)
        .layout(IndexLayout::Sharded(2))
        .build();
    let pattern = vec![1, 2, 3];
    let queries: Vec<Query> = [
        Metric::Wed,
        Metric::Dtw,
        Metric::Lcss { eps: 0.0 },
        Metric::Frechet,
    ]
    .into_iter()
    .map(|metric| {
        Query::threshold(pattern.clone(), 2.0)
            .metric(metric)
            .build()
            .unwrap()
    })
    .collect();

    let batch = engine
        .run_batch(&queries, BatchOptions::with_threads(2))
        .expect("mixed-metric batch admitted");
    assert_eq!(batch.responses.len(), queries.len());
    for (query, got) in queries.iter().zip(&batch.responses) {
        let want = engine.run(query).expect("standalone run");
        assert_eq!(got.matches, want.matches, "metric {:?}", query.metric());
    }
}

/// The WED fallback scan now also charges `verify_cost` (same units as
/// `sw_columns` there), so merged workload stats stay comparable across
/// indexed and fallback rows.
#[test]
fn wed_fallback_scan_charges_verify_cost() {
    use rnet::{CityParams, NetworkKind};
    use std::sync::Arc;
    use wed::models::Erp;

    let net = Arc::new(CityParams::tiny(NetworkKind::Grid).generate());
    let erp = Erp::new(net.clone(), 5.0);
    let store = store_from(vec![vec![0, 1, 2], vec![10, 11]]);
    let engine = EngineBuilder::new(&erp, &store, net.num_vertices()).build();
    let out = engine
        .run(&Query::threshold(vec![0, 1], 1e9).build().unwrap())
        .expect("fallback run");
    assert!(out.stats.fallback);
    assert!(out.stats.verify_cost > 0);
    assert_eq!(out.stats.verify_cost, out.stats.sw_columns);
}
