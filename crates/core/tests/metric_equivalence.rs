//! Randomized equivalence: the non-WED metric back halves (DTW, LCSS(ε),
//! discrete Fréchet) must agree with the brute-force oracles in
//! `baselines::metric_naive` — through every index layout and execution
//! schedule, since neither may observe the metric. One leg runs unit costs
//! (`Lev`), one continuous costs (`Erp` on the tiny grid) with thresholds
//! drawn on the boundary of the DTW/Fréchet scan's first-cell start gate.
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
use proptest::test_runner::TestCaseError;
use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::generator::TripConfig;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::batch::BatchOptions;
use trajsearch_core::{
    EngineBuilder, IndexLayout, InvertedIndex, MatchResult, Metric, Query, VerifyMode,
};
use wed::models::{Erp, Lev};
use wed::{CostModel, Sym, WedInstance};

const ALPHABET: usize = 10;

fn store_from(paths: Vec<Vec<Sym>>) -> TrajectoryStore {
    paths.into_iter().map(Trajectory::untimed).collect()
}

fn oracle<M: CostModel>(
    model: &M,
    metric: Metric,
    store: &TrajectoryStore,
    q: &[Sym],
    tau: f64,
) -> Vec<MatchResult> {
    match metric {
        Metric::Dtw => naive_dtw_search(model, store, q, tau),
        Metric::Lcss { eps } => naive_lcss_search(model, store, q, tau, eps),
        Metric::Frechet => naive_frechet_search(model, store, q, tau),
        Metric::Wed => unreachable!("the WED oracle is baselines::naive_search"),
    }
}

/// Engine == `want` (the oracle's answer) for one metric across
/// Single/Sharded/Compact layouts, distances compared bit-for-bit, plus the attribution contract of the
/// non-WED back half. Returns whether the plan was infeasible (every run
/// then took the fallback scan).
fn engines_match_oracle<M: WedInstance + Sync>(
    model: &M,
    store: &TrajectoryStore,
    alphabet: usize,
    metric: Metric,
    pattern: &[Sym],
    tau: f64,
    want: &[MatchResult],
) -> Result<bool, TestCaseError> {
    let bits = |ms: &[MatchResult]| -> Vec<u64> { ms.iter().map(|m| m.dist.to_bits()).collect() };
    let mut fallback = false;
    let query = Query::threshold(pattern.to_vec(), tau)
        .metric(metric)
        .build()
        .unwrap();
    let [single, sharded] = [IndexLayout::Single, IndexLayout::Sharded(3)].map(|layout| {
        EngineBuilder::new(model, store, alphabet)
            .layout(layout)
            .build()
            .run(&query)
    });
    let compact = EngineBuilder::new(model, store, alphabet)
        .build_with(InvertedIndex::build(store, alphabet).to_compact())
        .run(&query);
    for (layout, got) in [
        ("Single", single),
        ("Sharded(3)", sharded),
        ("Compact", compact),
    ] {
        let got = got.expect("metric run");
        prop_assert_eq!(
            got.matches.as_slice(),
            want,
            "metric={:?} layout={} tau={:?}",
            metric,
            layout,
            tau
        );
        prop_assert_eq!(bits(&got.matches), bits(want));
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
        fallback |= got.stats.fallback;
    }
    Ok(fallback)
}

/// The 8×8 grid and 80 trips of `counter_golden`'s fixture, under ERP:
/// substitution costs are Euclidean distances, so DTW sums and Fréchet
/// maxima carry real rounding.
fn erp_fixture() -> (Erp, TrajectoryStore, usize) {
    let net = Arc::new(CityParams::tiny(NetworkKind::Grid).seed(13).generate());
    let store = TripConfig::default()
        .count(80)
        .lengths(12, 30)
        .seed(29)
        .generate(&net);
    let alphabet = net.num_vertices();
    (Erp::new(net, 5.0), store, alphabet)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Unit costs: engine == oracle for each metric over random stores.
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
            let want = oracle(&Lev, metric, &store, &pattern, tau);
            engines_match_oracle(&Lev, &store, ALPHABET, metric, &pattern, tau, &want)?;
        }
    }

    /// Continuous costs on the gate's boundary: the pattern is cut from a
    /// stored trajectory (its head, its tail or its middle, so exact
    /// matches start at position 0 and end at `|P| − 1`), and `tau` is a
    /// realised first cell `sub(p, q[0])` or one of its two float
    /// neighbours — the start holding `p` is gated at `tau` and one ulp
    /// below it, scanned one ulp above.
    #[test]
    fn continuous_cost_engines_match_their_oracles(
        tid in 0u32..80,
        cut in 0usize..3,
        len in 1usize..6,
        from_tid in 0u32..80,
        from_pos in 0usize..30,
        neighbour in 0usize..3,
    ) {
        let (erp, store, alphabet) = erp_fixture();
        let path = store.get(tid).path();
        let at = match cut {
            0 => 0,
            1 => path.len() - len,
            _ => (path.len() - len) / 2,
        };
        let pattern = &path[at..at + len];
        let from = store.get(from_tid).path();
        let cell = erp.sub(from[from_pos % from.len()], pattern[0]);
        let tau = [cell, cell.next_up(), cell.next_down()][neighbour];
        prop_assume!(tau > 0.0);
        for metric in [Metric::Dtw, Metric::Frechet] {
            let want = oracle(&erp, metric, &store, pattern, tau);
            engines_match_oracle(&erp, &store, alphabet, metric, pattern, tau, &want)?;
            prop_assert!(
                want.iter().any(|m| (m.id, m.start, m.end) == (tid, at, at + len - 1)),
                "the pattern's own position must match"
            );
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

/// A threshold above `Σ c(q)` leaves DTW without a τ-subsequence and
/// Fréchet without a single prunable symbol: both take the fallback scan,
/// which runs the same gated kernel — `tau` sits exactly on a realised
/// first cell — and must still agree with the oracles.
#[test]
fn infeasible_plans_fall_back_to_the_gated_scan() {
    let (erp, store, alphabet) = erp_fixture();
    let pattern = &store.get(7).path()[..4];
    let c_total: f64 = pattern.iter().map(|&q| erp.lower_cost(q)).sum();
    let tau = store
        .iter()
        .flat_map(|(_, t)| t.path().iter().map(|&p| erp.sub(p, pattern[0])))
        .filter(|&cell| cell > c_total)
        .fold(f64::INFINITY, f64::min);
    assert!(tau.is_finite());
    for metric in [Metric::Dtw, Metric::Frechet] {
        let want = oracle(&erp, metric, &store, pattern, tau);
        let fallback = engines_match_oracle(&erp, &store, alphabet, metric, pattern, tau, &want)
            .expect("engines match the oracle");
        assert!(fallback, "{metric:?}: tau={tau} > Σc(q)={c_total}");
    }
}

/// The WED fallback scan now also charges `verify_cost` (same units as
/// `sw_columns` there), so merged workload stats stay comparable across
/// indexed and fallback rows.
#[test]
fn wed_fallback_scan_charges_verify_cost() {
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
