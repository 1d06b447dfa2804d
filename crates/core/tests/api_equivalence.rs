//! Randomized equivalence of every way to reach the engine, plus
//! wire-format round-trip properties.
//!
//! The engine has one execution path; layout and batching only decide
//! where its pieces run. So for every option combination a query can
//! express — verify modes × temporal constraints (TF and by-departure
//! postings included) — `SearchEngine::run` on the single-list layout is
//! the reference, and every other route (the sharded layout, a compacted
//! index, `run_batch` on two threads) returns **byte-identical** results
//! (`assert_eq!` on matches including `f64` distances, no epsilon) and
//! identical counters. JSON
//! round-trips (`from_json(to_json(q)) == q`, same for responses) are
//! property-tested on the same random workloads.

use proptest::prelude::*;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::batch::BatchOptions;
use trajsearch_core::{
    CompactIndex, EngineBuilder, IndexLayout, InvertedIndex, Query, Response, SearchOptions,
    TemporalConstraint, TimeInterval, VerifyMode,
};
use wed::models::Lev;
use wed::Sym;

const ALPHABET: usize = 12;

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

/// The compact layout an engine serves: a built index, compacted.
fn compact_index(store: &TrajectoryStore, temporal_postings: bool) -> CompactIndex {
    let mut index = InvertedIndex::build(store, ALPHABET);
    if temporal_postings {
        index.enable_temporal_postings();
    }
    index.to_compact()
}

/// The full option grid: every verify mode × no-temporal / temporal
/// with and without the TF pre-filter and the by-departure postings path.
fn option_grid(constraint: TemporalConstraint) -> Vec<SearchOptions> {
    let mut grid = Vec::new();
    for verify in [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw] {
        grid.push(SearchOptions {
            verify,
            ..Default::default()
        });
        for (tf, use_dep) in [(false, false), (true, false), (false, true), (true, true)] {
            grid.push(SearchOptions {
                verify,
                temporal: Some(constraint),
                temporal_filter: tf,
                use_temporal_postings: use_dep,
                ..Default::default()
            });
        }
    }
    grid
}

/// The sequential `Query` a grid point describes.
fn query_for(q: &[Sym], tau: f64, opts: SearchOptions) -> Query {
    let mut b = Query::threshold(q, tau)
        .verify(opts.verify)
        .temporal_filter(opts.temporal_filter)
        .temporal_postings(opts.use_temporal_postings && opts.temporal.is_some());
    if let Some(c) = opts.temporal {
        b = b.temporal(c);
    }
    b.build().expect("grid points are valid queries")
}

fn assert_same(got: &Response, want: &Response, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.matches, &want.matches, "matches diverged ({})", label);
    prop_assert_eq!(got.stats.fallback, want.stats.fallback, "{}", label);
    prop_assert_eq!(got.stats.candidates, want.stats.candidates, "{}", label);
    prop_assert_eq!(
        got.stats.candidates_after_temporal,
        want.stats.candidates_after_temporal,
        "{}",
        label
    );
    prop_assert_eq!(
        got.stats.candidates_deduped,
        want.stats.candidates_deduped,
        "{}",
        label
    );
    prop_assert_eq!(got.stats.tsubseq_len, want.stats.tsubseq_len, "{}", label);
    prop_assert_eq!(got.stats.results, want.stats.results, "{}", label);
    prop_assert_eq!(got.stats.sw_columns, want.stats.sw_columns, "{}", label);
    prop_assert_eq!(
        got.stats.columns_passed,
        want.stats.columns_passed,
        "{}",
        label
    );
    prop_assert_eq!(got.stats.stepdp_calls, want.stats.stepdp_calls, "{}", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `run` on the single-list layout vs every other layout and
    /// `run_batch`, across the whole option grid.
    #[test]
    fn every_route_matches_the_sequential_single_list_run(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..10),
            1..8,
        ),
        queries in proptest::collection::vec(
            // tau up to 4 > |Q| is possible: exercises the fallback scan.
            (proptest::collection::vec(0u32..(ALPHABET as u32), 1..5), 1u32..4),
            1..4,
        ),
        win_start in 0.0f64..60.0,
        win_len in 1.0f64..40.0,
    ) {
        let store = timed_store(paths);
        let workload: Vec<(Vec<Sym>, f64)> = queries
            .into_iter()
            .map(|(q, tau_i)| (q, tau_i as f64))
            .collect();
        let constraint =
            TemporalConstraint::overlaps(TimeInterval::new(win_start, win_start + win_len));

        let [single, sharded] = [IndexLayout::Single, IndexLayout::Sharded(3)].map(|layout| {
            EngineBuilder::new(Lev, &store, ALPHABET)
                .layout(layout)
                .temporal_postings(true)
                .build()
        });
        let compact = EngineBuilder::new(Lev, &store, ALPHABET).build_with(compact_index(&store, true));

        for opts in option_grid(constraint) {
            let batch: Vec<Query> = workload
                .iter()
                .map(|(q, tau)| query_for(q, *tau, opts))
                .collect();
            let want: Vec<Response> = batch.iter().map(|q| single.run(q).unwrap()).collect();

            for (query, want) in batch.iter().zip(&want) {
                let label = format!("opts={opts:?}, query={}", query.to_json());
                let others = [("sharded", sharded.run(query)), ("compact", compact.run(query))];
                for (name, got) in others {
                    assert_same(&got.unwrap(), want, &format!("{name} {label}"))?;
                }
            }

            // Whole-batch path, on every layout.
            let two_threads = BatchOptions::with_threads(2);
            let batches = [
                ("single", single.run_batch(&batch, two_threads)),
                ("sharded", sharded.run_batch(&batch, two_threads)),
                ("compact", compact.run_batch(&batch, two_threads)),
            ];
            for (name, got) in batches {
                let got = got.unwrap();
                prop_assert_eq!(got.responses.len(), want.len());
                for (i, (got, want)) in got.responses.iter().zip(&want).enumerate() {
                    assert_same(got, want, &format!("batch {name} query {i}, opts={opts:?}"))?;
                }
            }
        }
    }

    /// Top-k: the single-list ranking vs every layout, including k larger
    /// than the match count and tight max_tau.
    #[test]
    fn top_k_ranking_is_the_same_on_every_route(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..10),
            1..8,
        ),
        q in proptest::collection::vec(0u32..(ALPHABET as u32), 1..5),
        k in 1usize..6,
        tau0_i in 1u32..3,
        growth in 1u32..4,
    ) {
        let store = timed_store(paths);
        let initial_tau = tau0_i as f64 * 0.5;
        let max_tau = initial_tau * (1 << growth) as f64;
        let query = Query::top_k(q.clone(), k, initial_tau, max_tau).build().unwrap();
        let want = EngineBuilder::new(Lev, &store, ALPHABET)
            .build()
            .run(&query)
            .unwrap()
            .ranked();
        let [single, sharded] = [IndexLayout::Single, IndexLayout::Sharded(2)].map(|layout| {
            EngineBuilder::new(Lev, &store, ALPHABET).layout(layout).build().run(&query)
        });
        let compact = EngineBuilder::new(Lev, &store, ALPHABET)
            .build_with(compact_index(&store, false))
            .run(&query);
        for (layout, got) in [("Single", single), ("Sharded(2)", sharded), ("Compact", compact)] {
            let got = got.unwrap().ranked();
            prop_assert_eq!(
                &got,
                &want,
                "top-k diverged (layout={}, k={}, tau0={}, max={})",
                layout,
                k,
                initial_tau,
                max_tau
            );
        }
    }

    /// Wire format: `Query::from_json(q.to_json()) == q` over the whole
    /// builder space, and responses round-trip bit-for-bit off real runs.
    #[test]
    fn json_round_trips(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..10),
            1..6,
        ),
        pattern in proptest::collection::vec(0u32..(ALPHABET as u32), 1..6),
        tau in 0.1f64..10.0,
        k in 1usize..5,
        verify_i in 0usize..3,
        predicate_i in 0usize..2,
        temporal_i in 0usize..3,
        tf in 0u32..2,
        win_start in -5.0f64..60.0,
        win_len in 0.0f64..40.0,
    ) {
        let interval = TimeInterval::new(win_start, win_start + win_len);
        let constraint = if predicate_i == 0 {
            TemporalConstraint::overlaps(interval)
        } else {
            TemporalConstraint::within(interval)
        };
        // temporal_i: 0 = none, 1 = constraint only, 2 = constraint + postings
        let mut builder = Query::threshold(pattern.clone(), tau)
            .verify([VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw][verify_i])
            .temporal_filter(tf == 1 && temporal_i > 0);
        if temporal_i > 0 {
            builder = builder.temporal(constraint).temporal_postings(temporal_i == 2);
        }
        let query = builder.build().unwrap();
        prop_assert_eq!(&Query::from_json(&query.to_json()).unwrap(), &query);

        // Top-k queries round-trip too.
        let topk = Query::top_k(pattern, k, tau, tau * 4.0).build().unwrap();
        prop_assert_eq!(&Query::from_json(&topk.to_json()).unwrap(), &topk);

        // Responses (matches with f64 distances + stats counters/timings)
        // round-trip bit-for-bit off a real engine run.
        let store = timed_store(paths);
        let engine = EngineBuilder::new(Lev, &store, ALPHABET)
            .temporal_postings(true)
            .build();
        for q in [&query, &topk] {
            let response = engine.run(q).unwrap();
            prop_assert_eq!(
                Response::from_json(&response.to_json()).unwrap(),
                response,
                "response round-trip for {}",
                q.to_json()
            );
        }
    }
}
