//! Unit-cost verification does not call the cost model. For Levenshtein and
//! EDR the profile's match rows come from the neighbourhoods `B(q)` the
//! filter plan already found, and the anchor cost is read off those rows,
//! so a whole `SearchEngine::run` makes exactly the `sub` calls its
//! `FilterPlan::build` makes, however much it verifies.

use rnet::{CityParams, NetworkKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use traj::generator::TripConfig;
use traj::TrajectoryStore;
use trajsearch_core::{EngineBuilder, FilterPlan, Query};
use wed::models::{Edr, Lev};
use wed::{Ball, CostModel, Sym, WedInstance};

/// A model that counts its `sub` calls.
struct Counting<M> {
    inner: M,
    subs: AtomicU64,
}

impl<M> Counting<M> {
    fn new(inner: M) -> Self {
        Counting {
            inner,
            subs: AtomicU64::new(0),
        }
    }

    /// The calls since the last `take`.
    fn take(&self) -> u64 {
        self.subs.swap(0, Ordering::Relaxed)
    }
}

impl<M: CostModel> CostModel for Counting<M> {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        self.subs.fetch_add(1, Ordering::Relaxed);
        self.inner.sub(a, b)
    }
    fn ins(&self, a: Sym) -> f64 {
        self.inner.ins(a)
    }
    fn del(&self, a: Sym) -> f64 {
        self.inner.del(a)
    }
    fn unit_costs(&self) -> bool {
        self.inner.unit_costs()
    }
}

impl<M: WedInstance> WedInstance for Counting<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn eta(&self) -> f64 {
        self.inner.eta()
    }
    fn ball(&self, q: Sym) -> Ball {
        self.inner.ball(q)
    }
}

/// Runs patterns cut from the store at several thresholds and checks that
/// each run calls `sub` exactly as often as its plan does; returns the
/// columns verified over all runs, so the caller can see verification ran.
fn check_runs<M: WedInstance + Sync>(
    m: &Counting<M>,
    store: &TrajectoryStore,
    alphabet: usize,
) -> u64 {
    let engine = EngineBuilder::new(m, store, alphabet).build();
    let mut columns = 0;
    for id in [0, 7, 19, 33] {
        let path = store.get(id).path();
        let mut q = path[3..11].to_vec();
        q[4] = path[14];
        for tau in [1.0, 2.0, 3.0] {
            m.take();
            let plan = FilterPlan::build(engine.model(), engine.index(), &q, tau);
            let planned = m.take();
            assert!(plan.feasible);
            let query = Query::threshold(q.clone(), tau).build().expect("valid");
            let got = engine.run(&query).expect("run");
            let ran = m.take();
            assert_eq!(
                ran,
                planned,
                "{}: trajectory {id}, τ = {tau}: the run made {ran} sub calls, its plan {planned}",
                m.name()
            );
            columns += got.stats.columns_passed;
        }
    }
    columns
}

fn fixture() -> (Arc<rnet::RoadNetwork>, TrajectoryStore) {
    let net = Arc::new(CityParams::tiny(NetworkKind::Grid).seed(13).generate());
    let store = TripConfig::default()
        .count(60)
        .lengths(16, 30)
        .seed(5)
        .generate(&net);
    (net, store)
}

#[test]
fn lev_verification_makes_no_sub_calls() {
    let (net, store) = fixture();
    let columns = check_runs(&Counting::new(Lev), &store, net.num_vertices());
    assert!(columns > 0);
}

#[test]
fn edr_verification_makes_no_sub_calls() {
    let (net, store) = fixture();
    let m = Counting::new(Edr::new(net.clone(), 130.0));
    let columns = check_runs(&m, &store, net.num_vertices());
    assert!(columns > 0);
}
