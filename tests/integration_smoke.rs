//! Fast end-to-end smoke test of the filter→verify pipeline.
//!
//! Builds a tiny synthetic road network and trajectory store, runs threshold
//! queries through the full `SearchEngine` stack (MinCand plan → inverted
//! index → verification) under every verification mode, and cross-checks the
//! result set against the `baselines::naive` cubic oracle. This is the CI
//! canary that exercises the whole engine, not just per-crate unit
//! properties; it must stay fast (one tiny network, a handful of queries).

use baselines::naive_search;
use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, MatchResult, Query, VerifyMode};
use wed::models::{Edr, Lev};

fn keys(ms: &[MatchResult]) -> Vec<(u32, usize, usize)> {
    ms.iter().map(|m| (m.id, m.start, m.end)).collect()
}

#[test]
fn engine_matches_naive_oracle_on_tiny_city() {
    let net = Arc::new(CityParams::tiny(NetworkKind::City).seed(99).generate());
    let store = TripConfig::default()
        .count(40)
        .lengths(6, 18)
        .seed(17)
        .generate(&net);
    assert!(store.len() >= 30, "trip generator produced too few trips");

    // Queries: subpaths of stored trips (guaranteed non-empty result sets)
    // plus one query that is nowhere in the store verbatim.
    let mut queries: Vec<Vec<u32>> = (0..4)
        .map(|i| {
            let t = store.get(i * 7);
            let len = t.len().min(6);
            t.path()[0..=len - 1].to_vec()
        })
        .collect();
    queries.push(vec![0, 2, 4, 6, 8]);

    let lev_engine = EngineBuilder::new(&Lev, &store, net.num_vertices()).build();
    let edr = Edr::new(net.clone(), 120.0);
    let edr_engine = EngineBuilder::new(&edr, &store, net.num_vertices()).build();

    let mut total_matches = 0usize;
    for q in &queries {
        for tau in [1.0, 2.5] {
            let expected = keys(&naive_search(&Lev, &store, q, tau));
            for mode in [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw] {
                let out = lev_engine
                    .run(
                        &Query::threshold(q.clone(), tau)
                            .verify(mode)
                            .build()
                            .unwrap(),
                    )
                    .unwrap();
                assert_eq!(
                    keys(&out.matches),
                    expected,
                    "Lev/{mode:?} diverges from the naive oracle (q={q:?}, tau={tau})"
                );
            }
            total_matches += expected.len();

            let expected_edr = keys(&naive_search(&edr, &store, q, tau));
            let out = edr_engine
                .run(&Query::threshold(q.clone(), tau).build().unwrap())
                .unwrap();
            assert_eq!(
                keys(&out.matches),
                expected_edr,
                "EDR diverges from the naive oracle (q={q:?}, tau={tau})"
            );
        }
    }
    // The subpath queries must actually hit something, or this test is
    // exercising nothing.
    assert!(
        total_matches > 0,
        "smoke workload produced zero matches; queries are not exercising the pipeline"
    );
}
