//! Property-based tests of the engine against network-backed cost models:
//! all verification modes agree with a brute-force oracle on random
//! workloads, for unit-cost and continuous-cost instances alike.

use proptest::prelude::*;
use rnet::{CityParams, NetworkKind, RoadNetwork};
use std::sync::Arc;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::{EngineBuilder, Query, VerifyMode};
use wed::models::{Edr, Erp, Lev};
use wed::{wed, Sym};

fn net() -> Arc<RoadNetwork> {
    Arc::new(CityParams::tiny(NetworkKind::Grid).generate())
}

fn brute<M: wed::CostModel>(
    m: &M,
    store: &TrajectoryStore,
    q: &[Sym],
    tau: f64,
) -> Vec<(u32, usize, usize, f64)> {
    let mut out = Vec::new();
    for (id, t) in store.iter() {
        let p = t.path();
        for s in 0..p.len() {
            for e in s..p.len() {
                let d = wed(m, &p[s..=e], q);
                if d < tau {
                    out.push((id, s, e, d));
                }
            }
        }
    }
    out.sort_by_key(|a| (a.0, a.1, a.2));
    out
}

fn check_engine<M: wed::WedInstance + Copy + Sync>(
    m: M,
    store: &TrajectoryStore,
    alphabet: usize,
    q: &[Sym],
    tau: f64,
) -> Result<(), TestCaseError> {
    let want = brute(&m, store, q, tau);
    let engine = EngineBuilder::new(m, store, alphabet).build();
    for mode in [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw] {
        let query = Query::threshold(q, tau)
            .verify(mode)
            .build()
            .expect("valid test query");
        let got = engine.run(&query).expect("run");
        prop_assert_eq!(got.matches.len(), want.len(), "mode {:?}", mode);
        for (g, w) in got.matches.iter().zip(&want) {
            prop_assert_eq!((g.id, g.start, g.end), (w.0, w.1, w.2));
            prop_assert!(
                (g.dist - w.3).abs() < 1e-6,
                "distance {} vs {}",
                g.dist,
                w.3
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unit-cost instance over an arbitrary (non-path) symbol store: the
    /// engine is a pure string algorithm and must match brute force.
    #[test]
    fn engine_is_exact_for_lev(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..12), 1..8),
        q in proptest::collection::vec(0u32..12, 1..6),
        tau_i in 1u32..4,
    ) {
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        check_engine(Lev, &store, 12, &q, tau_i as f64)?;
    }

    /// EDR with a spatial neighborhood (symbols are real vertices).
    #[test]
    fn engine_is_exact_for_edr(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..64, 1..10), 1..6),
        q in proptest::collection::vec(0u32..64, 1..5),
        tau_i in 1u32..4,
    ) {
        let n = net();
        let edr = Edr::new(n.clone(), 130.0);
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        check_engine(&edr, &store, n.num_vertices(), &q, tau_i as f64)?;
    }

    /// ERP: continuous substitution costs, positive η, possible fallback.
    #[test]
    fn engine_is_exact_for_erp(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..64, 1..8), 1..5),
        q in proptest::collection::vec(0u32..64, 1..4),
        tau in 30.0f64..3000.0,
    ) {
        let n = net();
        let erp = Erp::new(n.clone(), 150.0);
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        check_engine(&erp, &store, n.num_vertices(), &q, tau)?;
    }

    /// ERP at the threshold boundary: τ is the realised `wed` of a stored
    /// substring against `q`, then the next float up. Matches are strict
    /// (`wed < τ`): the substring is out at τ and in at `τ.next_up()`, and
    /// every mode must agree with the oracle on both sides.
    #[test]
    fn engine_is_exact_for_erp_at_a_realised_tau(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..64, 1..8), 1..5),
        q in proptest::collection::vec(0u32..64, 1..4),
        pick in (0usize..64, 0usize..64, 0usize..64),
    ) {
        let n = net();
        let erp = Erp::new(n.clone(), 150.0);
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        let id = (pick.0 % store.len()) as u32;
        let p = store.get(id).path();
        let (a, b) = (pick.1 % p.len(), pick.2 % p.len());
        let (s, e) = (a.min(b), a.max(b));
        let tau = wed(&erp, &p[s..=e], &q);
        prop_assume!(tau > 0.0);
        for (tau, inside) in [(tau, false), (tau.next_up(), true)] {
            check_engine(&erp, &store, n.num_vertices(), &q, tau)?;
            let found = brute(&erp, &store, &q, tau)
                .iter()
                .any(|m| (m.0, m.1, m.2) == (id, s, e));
            prop_assert_eq!(found, inside, "tau {}", tau);
        }
    }

    /// The reported distance of every match is the true WED (Lemma 1
    /// min-merge exactness), under EDR.
    #[test]
    fn distances_are_exact_under_edr(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..64, 2..10), 1..6),
        q in proptest::collection::vec(0u32..64, 1..5),
    ) {
        let n = net();
        let edr = Edr::new(n.clone(), 130.0);
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        let engine = EngineBuilder::new(&edr, &store, n.num_vertices()).build();
        let out = engine
            .run(&Query::threshold(q.clone(), 2.0).build().expect("valid"))
            .expect("run");
        for m in &out.matches {
            let p = store.get(m.id).path();
            let direct = wed(&edr, &p[m.start..=m.end], &q);
            prop_assert!((m.dist - direct).abs() < 1e-9);
        }
    }

    /// Candidate counts: the MinCand-optimized plan never generates more
    /// candidates than filtering on the whole query (Torch-style).
    #[test]
    fn mincand_plan_no_worse_than_whole_query(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..12), 1..8),
        q in proptest::collection::vec(0u32..12, 1..6),
        tau_i in 1u32..3,
    ) {
        use trajsearch_core::{FilterPlan, InvertedIndex};
        let store: TrajectoryStore = paths.into_iter().map(Trajectory::untimed).collect();
        let index = InvertedIndex::build(&store, 12);
        let tau = tau_i as f64;
        prop_assume!(tau <= q.len() as f64); // feasible under Lev
        let plan = FilterPlan::build(&&Lev, &index, &q, tau);
        prop_assert!(plan.feasible);
        let osf = plan.candidates(&index).len();
        // Whole-query filtering: every position contributes its postings.
        let whole: usize = q.iter().map(|&s| index.postings(s).len()).sum();
        prop_assert!(osf <= whole, "OSF {osf} > whole-query {whole}");
    }
}
