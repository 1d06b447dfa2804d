//! Subsequence filtering at a radius that is a realised shortest-path
//! distance. NetEDR's `B(q)` must hold every `v` with `sub(q, v) = 0` even
//! when `spd(q, v)` equals ε exactly: the ball comes from a bounded Dijkstra
//! and `sub` from hub labels, two sums of the same edge lengths that may
//! round apart. One stored symbol, one query symbol, τ = 1: the engine must
//! answer what brute force answers.

use baselines::naive_search;
use rnet::{CityParams, HubLabels, NetworkKind};
use std::sync::Arc;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::results::sort_results;
use trajsearch_core::{EngineBuilder, Query};
use wed::models::NetEdr;
use wed::CostModel;

#[test]
fn netedr_at_a_realised_radius_matches_naive_search() {
    let net = Arc::new(CityParams::small(NetworkKind::City).generate());
    let hubs = Arc::new(HubLabels::build(&net));
    let alphabet = net.num_vertices();
    // (q, v, ε) with ε a realised multi-edge `spd(q, v)` on the small City.
    for (q, v, eps) in [
        (7, 95, 530.1359893656415),
        (14, 45, 439.15616769275783),
        (14, 102, 460.4311475334753),
    ] {
        let m = NetEdr::new(net.clone(), hubs.clone(), eps);
        assert_eq!(m.sub(q, v), 0.0, "spd({q}, {v}) ≤ {eps}");
        let store: TrajectoryStore = [Trajectory::untimed(vec![v])].into_iter().collect();
        let want = naive_search(&m, &store, &[q], 1.0);
        let engine = EngineBuilder::new(&m, &store, alphabet).build();
        let query = Query::threshold([q], 1.0).build().expect("valid query");
        let mut got = engine.run(&query).expect("run").matches;
        sort_results(&mut got);
        assert_eq!(got, want, "store [[{v}]], query [{q}], ε = {eps}");
    }
}
