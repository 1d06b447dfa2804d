//! The six WED instances evaluated in the paper (§2.2.2–§2.2.3).
//!
//! | Instance | alphabet | `sub(a,b)` | `ins(a)` | η | `ball(q)` | `beyond` |
//! |----------|----------|------------|----------|---|-----------|----------|
//! | [`Lev`]    | V or E | 0 / 1               | 1      | 0 | `{q}`                | 1 |
//! | [`Edr`]    | V      | 0 if `d≤ε` else 1   | 1      | 0 | kd-tree ball ε       | 1 |
//! | [`Erp`]    | V      | `d(a,b)`            | `d(a,g)` | η | kd-tree ball η     | nearest `d` outside it |
//! | [`NetEdr`] | V      | 0 if `spd≤ε` else 1 | 1      | 0 | Dijkstra ball ε      | 1 |
//! | [`NetErp`] | V      | `spd(a,b)`          | `G_del` | η | Dijkstra ball η     | first Dijkstra distance beyond it |
//! | [`Surs`]   | E      | `w(a)+w(b)` (0 if a=b) | `w(a)` | 0 | `{q}`           | `w(q)` |
//!
//! `d` is Euclidean distance, `spd` the undirected shortest-path distance
//! (per §2.2.3 the network is symmetrized to keep WED symmetric), `g` the ERP
//! reference point (the barycenter of the network), and `w` the road length.

use crate::cost::{Ball, CostModel, Sym, WedInstance};
use crate::hash::{mix64, BuildMix};
use rnet::dijkstra::{bounded, Mode};
use rnet::geo::barycenter;
use rnet::{HubLabels, KdTree, Point, RoadNetwork};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Relative slack of every searched radius (see [`WedInstance`] for why).
const SLACK: f64 = 1e-9;

/// The vertices a bounded Dijkstra finds within `radius` of `q`, widened by
/// [`SLACK`], and the first distance beyond, shrunk by as much.
fn network_ball(net: &RoadNetwork, q: Sym, radius: f64) -> Ball {
    let found = bounded(net, q, radius * (1.0 + SLACK), Mode::UndirectedLength);
    let beyond = found
        .next_beyond
        .map_or(f64::INFINITY, |d| d * (1.0 - SLACK));
    let syms = found.within.into_iter().map(|(v, _)| v).collect();
    Ball { syms, beyond }
}

// ---------------------------------------------------------------------------
// Levenshtein
// ---------------------------------------------------------------------------

/// Levenshtein distance (Eq. 1): unit costs. Works on either representation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lev;

impl CostModel for Lev {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        if a == b {
            0.0
        } else {
            1.0
        }
    }
    fn ins(&self, _a: Sym) -> f64 {
        1.0
    }
    fn unit_costs(&self) -> bool {
        true
    }
}

impl WedInstance for Lev {
    fn name(&self) -> &'static str {
        "Lev"
    }
    fn ball(&self, q: Sym) -> Ball {
        Ball {
            syms: vec![q],
            beyond: 1.0,
        }
    }
}

// ---------------------------------------------------------------------------
// EDR
// ---------------------------------------------------------------------------

/// Edit distance on real sequences (Eq. 2): substitution is free within a
/// Euclidean matching threshold `ε`, unit otherwise.
pub struct Edr {
    net: Arc<RoadNetwork>,
    tree: KdTree,
    eps: f64,
}

impl Edr {
    pub fn new(net: Arc<RoadNetwork>, eps: f64) -> Self {
        assert!(eps >= 0.0);
        let tree = KdTree::build(net.coords());
        Edr { net, tree, eps }
    }
}

impl CostModel for Edr {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        if self.net.coord(a).dist(&self.net.coord(b)) <= self.eps {
            0.0
        } else {
            1.0
        }
    }
    fn ins(&self, _a: Sym) -> f64 {
        1.0
    }
    fn unit_costs(&self) -> bool {
        true
    }
}

impl WedInstance for Edr {
    fn name(&self) -> &'static str {
        "EDR"
    }
    fn ball(&self, q: Sym) -> Ball {
        let syms = self.tree.range(self.net.coord(q), self.eps * (1.0 + SLACK));
        Ball { syms, beyond: 1.0 }
    }
}

// ---------------------------------------------------------------------------
// ERP
// ---------------------------------------------------------------------------

/// Edit distance with real penalty (Eq. 3): substitution costs the Euclidean
/// distance, insertion/deletion the distance to a reference point `g`.
pub struct Erp {
    net: Arc<RoadNetwork>,
    tree: KdTree,
    g: Point,
    eta: f64,
}

impl Erp {
    /// `eta` is the neighborhood threshold of Definition 4; Appendix D
    /// recommends a small positive value (e.g. 1e-4 × the median
    /// nearest-neighbor distance).
    pub fn new(net: Arc<RoadNetwork>, eta: f64) -> Self {
        assert!(eta >= 0.0);
        let g = barycenter(net.coords());
        let tree = KdTree::build(net.coords());
        Erp { net, tree, g, eta }
    }

    pub fn reference(&self) -> Point {
        self.g
    }

    /// Coordinate of a symbol (used by the ERP-index baseline, which indexes
    /// reference-centered coordinate sums).
    pub fn coord(&self, q: Sym) -> Point {
        self.net.coord(q)
    }
}

impl CostModel for Erp {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        self.net.coord(a).dist(&self.net.coord(b))
    }
    fn ins(&self, a: Sym) -> f64 {
        self.net.coord(a).dist(&self.g)
    }
}

impl WedInstance for Erp {
    fn name(&self) -> &'static str {
        "ERP"
    }
    fn eta(&self) -> f64 {
        self.eta
    }
    fn ball(&self, q: Sym) -> Ball {
        let (c, r) = (self.net.coord(q), self.eta * (1.0 + SLACK));
        let beyond = self
            .tree
            .nearest_outside(c, r)
            .map_or(f64::INFINITY, |(_, d)| d);
        Ball {
            syms: self.tree.range(c, r),
            beyond,
        }
    }
}

// ---------------------------------------------------------------------------
// NetEDR
// ---------------------------------------------------------------------------

/// EDR with shortest-path distance in place of Euclidean distance (§2.2.3).
pub struct NetEdr {
    net: Arc<RoadNetwork>,
    hubs: Arc<HubLabels>,
    eps: f64,
}

impl NetEdr {
    pub fn new(net: Arc<RoadNetwork>, hubs: Arc<HubLabels>, eps: f64) -> Self {
        assert!(eps >= 0.0);
        NetEdr { net, hubs, eps }
    }
}

impl CostModel for NetEdr {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        if self.hubs.query(a, b) <= self.eps {
            0.0
        } else {
            1.0
        }
    }
    fn ins(&self, _a: Sym) -> f64 {
        1.0
    }
    fn unit_costs(&self) -> bool {
        true
    }
}

impl WedInstance for NetEdr {
    fn name(&self) -> &'static str {
        "NetEDR"
    }
    fn ball(&self, q: Sym) -> Ball {
        let syms = network_ball(&self.net, q, self.eps).syms;
        Ball { syms, beyond: 1.0 }
    }
}

// ---------------------------------------------------------------------------
// NetERP
// ---------------------------------------------------------------------------

/// ERP with shortest-path distance and a constant insertion/deletion cost
/// `G_del` (§2.2.3; the paper uses 2 km).
pub struct NetErp {
    net: Arc<RoadNetwork>,
    hubs: Arc<HubLabels>,
    g_del: f64,
    eta: f64,
}

impl NetErp {
    pub fn new(net: Arc<RoadNetwork>, hubs: Arc<HubLabels>, g_del: f64, eta: f64) -> Self {
        assert!(g_del > 0.0 && eta >= 0.0);
        NetErp {
            net,
            hubs,
            g_del,
            eta,
        }
    }
}

impl CostModel for NetErp {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        self.hubs.query(a, b)
    }
    fn ins(&self, _a: Sym) -> f64 {
        self.g_del
    }
}

impl WedInstance for NetErp {
    fn name(&self) -> &'static str {
        "NetERP"
    }
    fn eta(&self) -> f64 {
        self.eta
    }
    fn ball(&self, q: Sym) -> Ball {
        network_ball(&self.net, q, self.eta)
    }
}

// ---------------------------------------------------------------------------
// SURS
// ---------------------------------------------------------------------------

/// Shortest unshared road segments (Eq. 4), on the edge alphabet:
/// `sub(a,b) = w(a) + w(b)` makes substitution equivalent to delete+insert,
/// so SURS totals the travel cost of edges not shared by the two paths.
pub struct Surs {
    net: Arc<RoadNetwork>,
}

impl Surs {
    pub fn new(net: Arc<RoadNetwork>) -> Self {
        Surs { net }
    }

    fn w(&self, e: Sym) -> f64 {
        self.net.edge(e).length
    }

    /// Total weight of an edge string (used by the LORS/LCRS relations of
    /// Appendix F).
    pub fn total_weight(&self, s: &[Sym]) -> f64 {
        s.iter().map(|&e| self.w(e)).sum()
    }
}

impl CostModel for Surs {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        if a == b {
            0.0
        } else {
            self.w(a) + self.w(b)
        }
    }
    fn ins(&self, a: Sym) -> f64 {
        self.w(a)
    }
}

impl WedInstance for Surs {
    fn name(&self) -> &'static str {
        "SURS"
    }
    /// η = 0 (Appendix D: a positive η would pull in spatially distant short
    /// edges, against SURS semantics).
    fn ball(&self, q: Sym) -> Ball {
        Ball {
            syms: vec![q],
            beyond: self.w(q),
        }
    }
}

// ---------------------------------------------------------------------------
// Memoizing wrapper
// ---------------------------------------------------------------------------

/// Shard count of the [`Memo`] cache; a power of two so the shard pick is a
/// mask, and enough that batch workers rarely contend.
const MEMO_SHARDS: usize = 16;

/// Memoizes substitution costs of an inner model. NetERP evaluates
/// `spd(a, b)` for every cost-profile row of every query, and symbols repeat
/// heavily across queries. A unit-cost model such as NetEDR builds its
/// profile rows from `B(q)` and asks `sub` only while pricing a ball (and
/// in Smith–Waterman or fallback scans), so its memo holds those pairs
/// alone.
///
/// The cache is 16 mutex-guarded shards, so `Memo<M>` is `Sync` whenever `M`
/// is and batch workers share one memo. A miss computes `inner.sub` outside
/// any lock, so two threads may race to fill a key with the same value. The
/// symmetric pair is packed into one `u64` and mixed once (`hash::mix64`);
/// that hash picks the shard and, through a pass-through hasher, the slot. A
/// shard holds finished values only, so a lock poisoned by a panicking
/// worker is recovered rather than turned into a panic in every later query.
pub struct Memo<M> {
    inner: M,
    shards: Vec<MemoShard>,
}

/// Packed symmetric pair → `sub`.
type MemoShard = Mutex<HashMap<u64, f64, BuildMix>>;

impl<M> Memo<M> {
    pub fn new(inner: M) -> Self {
        Memo {
            inner,
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
        }
    }

    /// The shard of a packed key, locked. Bits 40.. of the mix pick it: the
    /// map indexes by the low bits and tags slots by the top seven, and a
    /// shard's keys should differ in both.
    fn shard(&self, key: u64) -> MutexGuard<'_, HashMap<u64, f64, BuildMix>> {
        let shard = &self.shards[(mix64(key) >> 40) as usize & (MEMO_SHARDS - 1)];
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<M: CostModel> CostModel for Memo<M> {
    fn sub(&self, a: Sym, b: Sym) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let key = (lo as u64) << 32 | hi as u64;
        if let Some(&v) = self.shard(key).get(&key) {
            return v;
        }
        let v = self.inner.sub(a, b);
        self.shard(key).insert(key, v);
        v
    }
    fn ins(&self, a: Sym) -> f64 {
        self.inner.ins(a)
    }
    fn unit_costs(&self) -> bool {
        self.inner.unit_costs()
    }
}

impl<M: WedInstance> WedInstance for Memo<M> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{check_axioms_on_sample, check_filter_contract};
    use rnet::{CityParams, NetworkKind};

    fn setup() -> (Arc<RoadNetwork>, Arc<HubLabels>) {
        let net = Arc::new(CityParams::tiny(NetworkKind::Grid).generate());
        let hubs = Arc::new(HubLabels::build(&net));
        (net, hubs)
    }

    #[test]
    fn all_models_satisfy_axioms() {
        let (net, hubs) = setup();
        let sample: Vec<Sym> = (0..12).collect();
        check_axioms_on_sample(&Lev, &sample);
        check_axioms_on_sample(&Edr::new(net.clone(), 130.0), &sample);
        check_axioms_on_sample(&Erp::new(net.clone(), 10.0), &sample);
        check_axioms_on_sample(&NetEdr::new(net.clone(), hubs.clone(), 130.0), &sample);
        check_axioms_on_sample(
            &NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0),
            &sample,
        );
        check_axioms_on_sample(&Surs::new(net.clone()), &sample);
        check_axioms_on_sample(&Memo::new(NetEdr::new(net, hubs, 130.0)), &sample);
    }

    /// What an engine generic over `M` sees of a model it holds as `M`.
    fn claims_unit_costs<M: CostModel>(m: M) -> bool {
        m.unit_costs()
    }

    #[test]
    fn unit_cost_claims_reach_the_engine() {
        // The engine holds `&M` (or a `&dyn WedInstance`), and serves the
        // network models memoised: the claim must survive each wrapper.
        let (net, hubs) = setup();
        let edr = Edr::new(net.clone(), 130.0);
        assert!(claims_unit_costs(Lev));
        assert!(claims_unit_costs(&edr));
        let dynamic: &dyn WedInstance = &edr;
        assert!(claims_unit_costs(dynamic));
        let memo = Memo::new(NetEdr::new(net.clone(), hubs.clone(), 130.0));
        assert!(claims_unit_costs(&memo));
        assert!(claims_unit_costs(memo));

        let continuous: Vec<Box<dyn WedInstance>> = vec![
            Box::new(Erp::new(net.clone(), 10.0)),
            Box::new(NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0)),
            Box::new(Memo::new(NetErp::new(net.clone(), hubs, 2000.0, 130.0))),
            Box::new(Surs::new(net)),
        ];
        for m in &continuous {
            assert!(!claims_unit_costs(&**m), "{} has no unit costs", m.name());
        }
    }

    /// The small City, and `(q, v)` pairs whose network distance is a
    /// multi-edge sum on which a bounded Dijkstra and the hub labels round
    /// apart.
    fn small_city() -> (Arc<RoadNetwork>, Arc<HubLabels>, [(Sym, Sym); 3]) {
        let net = Arc::new(CityParams::small(NetworkKind::City).generate());
        let hubs = Arc::new(HubLabels::build(&net));
        (net, hubs, [(7, 95), (14, 45), (14, 102)])
    }

    /// `r` and its two neighbouring floats.
    fn around(r: f64) -> [f64; 3] {
        [r.next_down(), r, r.next_up()]
    }

    /// For the unit-cost models filtering and verification read one
    /// relation two ways: the filter takes `B(q)` from a ball, the
    /// bit-parallel verifier takes `sub(q, b) == 0` from the cost model. The
    /// two must be the same set for every `q`, at every radius, realised
    /// distances included, or a filtered candidate's anchor and its DP
    /// disagree.
    #[test]
    fn unit_neighbourhoods_are_exactly_the_zero_cost_symbols() {
        let (net, hubs, pairs) = small_city();
        let all: Vec<Sym> = (0..net.num_vertices() as u32).collect();
        check_filter_contract(&Lev, &all);
        let mut lengths: Vec<f64> = (0..net.num_edges() as u32)
            .map(|e| net.edge(e).length)
            .collect();
        lengths.sort_by(f64::total_cmp);
        let median = lengths[lengths.len() / 2];
        let euclid = Erp::new(net.clone(), 0.0);
        let realised = pairs.iter().flat_map(|&(q, v)| around(euclid.sub(q, v)));
        for r in realised.chain([lengths[lengths.len() / 4], median, 100.0, 150.0]) {
            check_filter_contract(&Edr::new(net.clone(), r), &all);
        }
        // One hub query costs about a microsecond here and each network
        // radius is a million of them, so NetEDR gets the realised radii and
        // the median edge length only.
        let spd = |(q, v)| hubs.query(q, v);
        for r in pairs.map(spd).into_iter().chain([median]) {
            check_filter_contract(&NetEdr::new(net.clone(), hubs.clone(), r), &all);
        }
        let memo = Memo::new(NetEdr::new(net.clone(), hubs.clone(), spd(pairs[0])));
        check_filter_contract(&memo, &all);
    }

    /// The continuous models at realised distances: `B(q)` holds exactly the
    /// symbols within η and nothing outside costs less than `c(q)`.
    #[test]
    fn neighborhood_members_have_sub_at_most_eta() {
        let (net, hubs, pairs) = small_city();
        let all: Vec<Sym> = (0..net.num_vertices() as u32).collect();
        let euclid = Erp::new(net.clone(), 0.0);
        for r in pairs.iter().flat_map(|&(q, v)| around(euclid.sub(q, v))) {
            check_filter_contract(&Erp::new(net.clone(), r), &all);
        }
        let r = hubs.query(pairs[0].0, pairs[0].1);
        for r in around(r) {
            check_filter_contract(&NetErp::new(net.clone(), hubs.clone(), 2000.0, r), &all);
        }
        let memo = Memo::new(NetErp::new(net.clone(), hubs.clone(), 2000.0, r));
        check_filter_contract(&memo, &all);
        let edges: Vec<Sym> = (0..net.num_edges() as u32).collect();
        check_filter_contract(&Surs::new(net), &edges);
    }

    /// Every model at the radii the other tests of this crate use.
    #[test]
    fn neighborhoods_contain_self() {
        let (net, hubs) = setup();
        let all: Vec<Sym> = (0..net.num_vertices() as u32).collect();
        let models: Vec<Box<dyn WedInstance>> = vec![
            Box::new(Lev),
            Box::new(Edr::new(net.clone(), 130.0)),
            Box::new(Erp::new(net.clone(), 10.0)),
            Box::new(Erp::new(net.clone(), 150.0)),
            Box::new(NetEdr::new(net.clone(), hubs.clone(), 130.0)),
            Box::new(NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0)),
            Box::new(Memo::new(NetErp::new(net.clone(), hubs, 2000.0, 130.0))),
            Box::new(Surs::new(net)),
        ];
        for m in &models {
            check_filter_contract(&**m, &all);
        }
    }

    /// `c(q)` is capped by deletion: a NetERP radius past the whole network
    /// leaves nothing beyond the ball, and an η = 0 ERP prices `c(q)` at the
    /// nearest other vertex or the reference point, whichever is nearer.
    #[test]
    fn lower_cost_is_sound() {
        let (net, hubs) = setup();
        let all: Vec<Sym> = (0..net.num_vertices() as u32).collect();
        let everything = NetErp::new(net.clone(), hubs, 50.0, 1e6);
        check_filter_contract(&everything, &all);
        assert_eq!(everything.neighborhood(3), (everything.ball(3).syms, 50.0));
        let erp = Erp::new(net.clone(), 0.0);
        check_filter_contract(&erp, &all);
        for q in all {
            let nearest = (0..net.num_vertices() as u32)
                .filter(|&b| b != q)
                .map(|b| erp.sub(q, b))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(erp.lower_cost(q), nearest.min(erp.del(q)));
        }
    }

    #[test]
    fn surs_costs_are_edge_weights() {
        let (net, _) = setup();
        let surs = Surs::new(net.clone());
        let (e0, e1) = (0u32, 1u32);
        let (w0, w1) = (net.edge(e0).length, net.edge(e1).length);
        assert_eq!(surs.ins(e0), w0);
        assert_eq!(surs.sub(e0, e1), w0 + w1);
        assert_eq!(surs.sub(e0, e0), 0.0);
        assert_eq!(surs.lower_cost(e1), w1);
        assert_eq!(surs.neighbors(e1), vec![e1]);
    }

    #[test]
    fn erp_reference_defaults_to_barycenter() {
        let (net, _) = setup();
        let erp = Erp::new(net.clone(), 1.0);
        let g = rnet::geo::barycenter(net.coords());
        assert_eq!(erp.reference(), g);
        // ins(a) is the distance to g.
        assert!((erp.ins(0) - net.coord(0).dist(&g)).abs() < 1e-12);
    }

    #[test]
    fn netedr_matches_within_eps_only() {
        let (net, hubs) = setup();
        let m = NetEdr::new(net.clone(), hubs.clone(), 121.0);
        // Grid spacing 120: direct neighbors are within eps, diagonal is not.
        let v = 9u32; // interior vertex
        let nbrs = m.neighbors(v);
        for &b in &nbrs {
            assert_eq!(m.sub(v, b), 0.0);
        }
        assert!(nbrs.len() >= 3, "expected grid neighbors in network ball");
    }

    #[test]
    fn memo_is_sync_when_inner_is() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Memo<Lev>>();
        assert_sync::<Memo<NetErp>>();
        assert_sync::<Memo<NetEdr>>();
    }

    #[test]
    fn memo_shared_across_threads_matches_unmemoized() {
        // The sharded-lock cache must be transparent under concurrency:
        // many threads hammering overlapping keys observe exactly the
        // unmemoized values (racing fills write identical numbers).
        let (net, hubs) = setup();
        let raw = NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0);
        let memo = Memo::new(NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let memo = &memo;
                let raw = &raw;
                scope.spawn(move || {
                    for a in 0..12u32 {
                        for b in 0..12u32 {
                            // Overlapping key sets across threads.
                            let (a, b) = ((a + t) % 12, b);
                            assert_eq!(raw.sub(a, b), memo.sub(a, b));
                        }
                    }
                });
            }
        });
        // And the cache is actually warm afterwards.
        for a in 0..12u32 {
            assert_eq!(raw.sub(a, a + 1), memo.sub(a, a + 1));
        }
    }

    #[test]
    fn memo_survives_a_worker_that_died_holding_its_shards() {
        let (net, hubs) = setup();
        let raw = NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0);
        let memo = Memo::new(NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0));
        for a in 0..8u32 {
            for b in 0..8u32 {
                memo.sub(a, b);
            }
        }
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held: Vec<_> = memo.shards.iter().map(|s| s.lock().unwrap()).collect();
                    // Unwinds like a panic, without the hook's stderr noise.
                    std::panic::resume_unwind(Box::new("worker died"));
                })
                .join()
        });
        assert!(died.is_err());
        assert!(memo.shards.iter().all(|s| s.is_poisoned()));
        // Warm keys and cold ones both answer as the unmemoized model does.
        for a in 0..12u32 {
            for b in 0..12u32 {
                assert_eq!(raw.sub(a, b).to_bits(), memo.sub(a, b).to_bits());
            }
        }
    }

    #[test]
    fn memo_returns_same_values() {
        let (net, hubs) = setup();
        let raw = NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0);
        let memo = Memo::new(NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0));
        for a in 0..10u32 {
            for b in 0..10u32 {
                assert_eq!(raw.sub(a, b), memo.sub(a, b));
                // Second lookup hits the cache.
                assert_eq!(raw.sub(a, b), memo.sub(a, b));
            }
        }
        assert_eq!(memo.name(), "NetERP");
        assert_eq!(raw.ins(3), memo.ins(3));
    }
}
