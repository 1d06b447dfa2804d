//! Property-based tests of the engine against network-backed cost models:
//! all verification modes agree with a brute-force oracle on random
//! workloads, for unit-cost and continuous-cost instances alike.

use baselines::naive_search;
use proptest::prelude::*;
use rnet::{CityParams, HubLabels, NetworkKind, RoadNetwork};
use std::sync::{Arc, OnceLock};
use traj::generator::TripConfig;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::results::sort_results;
use trajsearch_core::{EngineBuilder, Query, VerifyMode};
use wed::models::{Edr, Erp, Lev, Memo, NetEdr};
use wed::{wed, Sym};

fn net() -> Arc<RoadNetwork> {
    Arc::new(CityParams::tiny(NetworkKind::Grid).generate())
}

/// The small City and its hub labels, built once for the whole suite.
fn small_city() -> &'static (Arc<RoadNetwork>, Arc<HubLabels>) {
    static CITY: OnceLock<(Arc<RoadNetwork>, Arc<HubLabels>)> = OnceLock::new();
    CITY.get_or_init(|| {
        let net = Arc::new(CityParams::small(NetworkKind::City).generate());
        let hubs = Arc::new(HubLabels::build(&net));
        (net, hubs)
    })
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

    /// The verification budget at its edges: the two walks of an anchor
    /// share one τ, the longer query suffix walking first and the other
    /// stopping at τ minus its best. Lev over three symbols with |Q| up to
    /// 10 makes many anchors per query and many exact ties `b + f = τ'`;
    /// ERP puts τ on the realised `wed` of a prefix or a suffix of a stored
    /// path (anchors near both ends) and on the float above it.
    #[test]
    fn engine_is_exact_when_the_budget_binds(
        lev_paths in proptest::collection::vec(proptest::collection::vec(0u32..3, 1..14), 1..6),
        lev_q in proptest::collection::vec(0u32..3, 1..11),
        lev_tau in 1u32..6,
        erp_paths in proptest::collection::vec(proptest::collection::vec(0u32..64, 1..8), 1..5),
        erp_q in proptest::collection::vec(0u32..64, 1..5),
        pick in (0usize..64, 0usize..64, 0u8..2),
    ) {
        let store: TrajectoryStore = lev_paths.into_iter().map(Trajectory::untimed).collect();
        check_engine(Lev, &store, 3, &lev_q, lev_tau as f64)?;

        let n = net();
        let erp = Erp::new(n.clone(), 150.0);
        let store: TrajectoryStore = erp_paths.into_iter().map(Trajectory::untimed).collect();
        let p = store.get((pick.0 % store.len()) as u32).path();
        let cut = pick.1 % p.len();
        let span = if pick.2 == 0 { &p[..=cut] } else { &p[cut..] };
        let tau = wed(&erp, span, &erp_q);
        prop_assume!(tau > 0.0);
        for tau in [tau, tau.next_up()] {
            check_engine(&erp, &store, n.num_vertices(), &erp_q, tau)?;
        }
    }

    /// Memoised NetEDR on the small City, the unit-cost model whose
    /// `B(q)` (bounded Dijkstra) and `sub` (hub labels) sum distances two
    /// ways: every mode must answer what `naive_search` answers, with ε
    /// drawn from a range, as a realised `spd` between a query symbol and a
    /// stored one, and as the float just below it. This gates the unit
    /// profile rows the verifier builds from `B(q)`.
    #[test]
    fn engine_is_exact_for_net_edr(
        seed in 0u64..1_000_000,
        cut in (0usize..64, 0usize..64, 1usize..5),
        swap in (0usize..64, 0usize..64),
        eps in (0u32..3, 0.0f64..600.0, 0usize..64, 0usize..64),
        tau_i in 1u32..4,
    ) {
        let (net, hubs) = small_city();
        let store = TripConfig::default().count(5).lengths(4, 12).seed(seed).generate(net);
        let path = store.get((cut.0 % store.len()) as u32).path();
        let at = cut.1 % path.len();
        let mut q = path[at..(at + cut.2).min(path.len())].to_vec();
        // One symbol from elsewhere, so a match needs a neighbour or an edit.
        let other = store.get((swap.0 % store.len()) as u32).path();
        let i = swap.1 % q.len();
        q[i] = other[swap.1 % other.len()];
        let (kind, range, a, b) = eps;
        let realised = hubs.query(q[a % q.len()], other[b % other.len()]);
        let eps = match kind {
            0 => range,
            1 => realised,
            _ => realised.next_down().max(0.0),
        };
        let m = Memo::new(NetEdr::new(net.clone(), hubs.clone(), eps));
        let tau = tau_i as f64;
        let want = naive_search(&m, &store, &q, tau);
        let engine = EngineBuilder::new(&m, &store, net.num_vertices()).build();
        for mode in [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw] {
            let query = Query::threshold(q.clone(), tau).verify(mode).build().expect("valid");
            let mut got = engine.run(&query).expect("run").matches;
            sort_results(&mut got);
            prop_assert_eq!(&got, &want, "mode {:?}, q {:?}, ε = {}, τ = {}", mode, &q, eps, tau);
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
