//! The six WED instances evaluated in the paper (§2.2.2–§2.2.3).
//!
//! | Instance | alphabet | `sub(a,b)` | `ins(a)` | `B(q)` (η) | `c(q)` |
//! |----------|----------|------------|----------|------------|--------|
//! | [`Lev`]    | V or E | 0 / 1        | 1          | `{q}` (η=0)            | 1 |
//! | [`Edr`]    | V      | 0 if `d≤ε` else 1 | 1    | Euclid ball ε (η=0)    | 1 |
//! | [`Erp`]    | V      | `d(a,b)`     | `d(a,g)`   | Euclid ball η          | min(nearest beyond η, `d(q,g)`) |
//! | [`NetEdr`] | V      | 0 if `spd≤ε` else 1 | 1  | network ball ε (η=0)   | 1 |
//! | [`NetErp`] | V      | `spd(a,b)`   | `G_del`    | network ball η         | min(nearest beyond η, `G_del`) |
//! | [`Surs`]   | E      | `w(a)+w(b)` (0 if a=b) | `w(a)` | `{q}` (η=0)  | `w(q)` |
//!
//! `d` is Euclidean distance, `spd` the undirected shortest-path distance
//! (per §2.2.3 the network is symmetrized to keep WED symmetric), `g` the ERP
//! reference point (the barycenter of the network), and `w` the road length.

use crate::cost::{CostModel, Sym, WedInstance};
use crate::hash::{mix64, BuildMix};
use rnet::dijkstra::{bounded, Mode};
use rnet::geo::barycenter;
use rnet::{HubLabels, KdTree, Point, RoadNetwork};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    fn neighbors(&self, q: Sym) -> Vec<Sym> {
        vec![q]
    }
    fn lower_cost(&self, _q: Sym) -> f64 {
        1.0
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

    pub fn eps(&self) -> f64 {
        self.eps
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
    /// η = 0 for unit-cost models (§6.1): `B(q)` is the set of vertices with
    /// zero substitution cost, i.e. the ε-ball.
    ///
    /// The tree compares squared distances and `sub` compares distances; at
    /// a distance of exactly ε the two can round apart. So the tree is asked
    /// for a slightly wider ball and `sub`'s own test decides, which keeps
    /// `B(q)` the zero-cost set that `c(q) = 1` assumes.
    fn neighbors(&self, q: Sym) -> Vec<Sym> {
        let c = self.net.coord(q);
        let mut ball = self.tree.range(c, self.eps * (1.0 + 1e-9));
        ball.retain(|&b| self.net.coord(b).dist(&c) <= self.eps);
        ball
    }
    fn lower_cost(&self, _q: Sym) -> f64 {
        1.0
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

    pub fn eta(&self) -> f64 {
        self.eta
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
    fn neighbors(&self, q: Sym) -> Vec<Sym> {
        self.tree.range(self.net.coord(q), self.eta)
    }
    /// `c(q) = min(sub to nearest vertex beyond η, del(q))` — Eq. (7) with
    /// the deletion option `sub(q, ε) = d(q, g)` included.
    fn lower_cost(&self, q: Sym) -> f64 {
        let del = self.ins(q);
        match self.tree.nearest_outside(self.net.coord(q), self.eta) {
            Some((_, d)) => del.min(d),
            None => del,
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
    fn neighbors(&self, q: Sym) -> Vec<Sym> {
        bounded(&self.net, q, self.eps, Mode::UndirectedLength)
            .within
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }
    fn lower_cost(&self, _q: Sym) -> f64 {
        1.0
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
    fn neighbors(&self, q: Sym) -> Vec<Sym> {
        bounded(&self.net, q, self.eta, Mode::UndirectedLength)
            .within
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }
    fn lower_cost(&self, q: Sym) -> f64 {
        match bounded(&self.net, q, self.eta, Mode::UndirectedLength).next_beyond {
            Some(d) => self.g_del.min(d),
            None => self.g_del,
        }
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
    fn neighbors(&self, q: Sym) -> Vec<Sym> {
        vec![q]
    }
    /// Positive edge weights make deletion the cheapest way out: `c(q)=w(q)`.
    fn lower_cost(&self, q: Sym) -> f64 {
        self.w(q)
    }
}

// ---------------------------------------------------------------------------
// Memoizing wrapper
// ---------------------------------------------------------------------------

/// Shard count of the [`Memo`] cache; a power of two so the shard pick is a
/// mask. 16 keeps contention negligible at batch-worker thread counts while
/// the per-shard maps stay cache-friendly.
const MEMO_SHARDS: usize = 16;

/// Memoizes substitution costs of an inner model. NetEDR/NetERP evaluate
/// `spd(a, b)` for every cost-profile row of every query; symbols repeat
/// heavily across queries, so a memo pays off.
///
/// The cache is a **sharded-lock map** (16 mutex-guarded shards), so
/// `Memo<M>` is `Sync` whenever `M` is and batch workers share one memoized
/// model: parallel [`run_batch`](../trajsearch_core) runs get cross-query
/// memoization instead of the unmemoized fallback the old `RefCell` cache
/// forced. Misses compute `inner.sub` *outside* any lock (hub-label queries
/// are the expensive part), so two threads may race to fill the same key —
/// both write the same deterministic value, and results are unaffected.
///
/// The symmetric pair is packed into one `u64` and mixed once
/// (`hash::mix64`); that one hash picks the shard and, through a
/// pass-through hasher, the slot in the shard's map. A shard holds finished
/// values only and a map insert leaves it valid at every step, so a lock
/// poisoned by a panicking worker is recovered rather than propagated: the
/// memo must not turn one dead thread into a panic in every later query.
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

    pub fn into_inner(self) -> M {
        self.inner
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
    fn neighbors(&self, q: Sym) -> Vec<Sym> {
        self.inner.neighbors(q)
    }
    fn lower_cost(&self, q: Sym) -> f64 {
        self.inner.lower_cost(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::check_axioms_on_sample;
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

    /// For the unit-cost models filtering and verification read one
    /// relation two ways: the filter takes `B(q)` from a range query, the
    /// bit-parallel verifier takes `sub(q, b) == 0` from the cost model. The
    /// two must be the same set for every `q`, or a filtered candidate's
    /// anchor and its DP disagree.
    #[test]
    fn unit_neighbourhoods_are_exactly_the_zero_cost_symbols() {
        let net = Arc::new(CityParams::small(NetworkKind::City).generate());
        let hubs = Arc::new(HubLabels::build(&net));
        let mut lengths: Vec<f64> = (0..net.num_edges() as u32)
            .map(|e| net.edge(e).length)
            .collect();
        lengths.sort_by(f64::total_cmp);
        let (quartile, median) = (lengths[lengths.len() / 4], lengths[lengths.len() / 2]);
        let n = net.num_vertices() as u32;
        let check = |m: &dyn WedInstance, eps: f64| {
            for q in 0..n {
                let mut got = m.neighbors(q);
                got.sort_unstable();
                let want: Vec<Sym> = (0..n).filter(|&b| m.sub(q, b) == 0.0).collect();
                assert_eq!(got, want, "{}: B({q}) at ε = {eps}", m.name());
            }
        };
        for eps in [quartile, median, 100.0, 150.0] {
            check(&Edr::new(net.clone(), eps), eps);
            check(&NetEdr::new(net.clone(), hubs.clone(), eps), eps);
        }
    }

    #[test]
    fn neighborhoods_contain_self() {
        let (net, hubs) = setup();
        let models: Vec<Box<dyn WedInstance>> = vec![
            Box::new(Lev),
            Box::new(Edr::new(net.clone(), 130.0)),
            Box::new(Erp::new(net.clone(), 10.0)),
            Box::new(NetEdr::new(net.clone(), hubs.clone(), 130.0)),
            Box::new(NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0)),
        ];
        for m in &models {
            for q in [0u32, 5, 17] {
                assert!(
                    m.neighbors(q).contains(&q),
                    "{} B(q) must contain q",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn neighborhood_members_have_sub_at_most_eta() {
        let (net, hubs) = setup();
        // EDR: η = 0, so every member must have sub = 0.
        let edr = Edr::new(net.clone(), 130.0);
        for b in edr.neighbors(9) {
            assert_eq!(edr.sub(9, b), 0.0);
        }
        // ERP: η = 150, members have sub ≤ 150.
        let erp = Erp::new(net.clone(), 150.0);
        for b in erp.neighbors(9) {
            assert!(erp.sub(9, b) <= 150.0);
        }
        // NetERP: η = 130 in network meters.
        let nerp = NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0);
        for b in nerp.neighbors(9) {
            assert!(nerp.sub(9, b) <= 130.0);
        }
    }

    #[test]
    fn lower_cost_is_sound() {
        // For every model and sample q: no symbol outside B(q) (sampled) may
        // have sub(q, ·) below c(q), and deletion cannot be cheaper either.
        let (net, hubs) = setup();
        let models: Vec<Box<dyn WedInstance>> = vec![
            Box::new(Lev),
            Box::new(Edr::new(net.clone(), 130.0)),
            Box::new(Erp::new(net.clone(), 150.0)),
            Box::new(NetEdr::new(net.clone(), hubs.clone(), 130.0)),
            Box::new(NetErp::new(net.clone(), hubs.clone(), 2000.0, 130.0)),
        ];
        for m in &models {
            for q in [0u32, 7, 23] {
                let c = m.lower_cost(q);
                let b: std::collections::HashSet<Sym> = m.neighbors(q).into_iter().collect();
                assert!(m.del(q) + 1e-12 >= c, "{}: del({q}) < c(q)", m.name());
                for cand in 0..net.num_vertices() as u32 {
                    if !b.contains(&cand) {
                        assert!(
                            m.sub(q, cand) + 1e-9 >= c,
                            "{}: sub({q},{cand})={} < c(q)={c}",
                            m.name(),
                            m.sub(q, cand)
                        );
                    }
                }
            }
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
