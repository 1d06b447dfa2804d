//! Datasets, similarity-function instantiation and query sampling.
//!
//! Four synthetic "cities" mirror the relative shapes of Table 2 (different
//! network sizes, trajectory counts and average lengths) at laptop scale.
//! Everything is deterministic in the seed and scales with [`Scale`].

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rnet::{CityParams, HubLabels, NetworkKind, RoadNetwork};
use std::sync::{Arc, OnceLock};
use traj::edges::store_to_edges;
use traj::{TrajectoryStore, TripConfig};
use wed::models::{Edr, Erp, Lev, Memo, NetEdr, NetErp, Surs};
use wed::{Sym, WedInstance};

/// Workload scale knob: every experiment accepts one so the same code runs
/// in seconds for CI benches and minutes for fuller sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Criterion-bench scale: sub-second setup.
    pub fn tiny() -> Self {
        Scale(0.05)
    }

    /// Default `repro` scale.
    pub fn default_repro() -> Self {
        Scale(0.5)
    }

    fn count(&self, base: usize) -> usize {
        ((base as f64 * self.0).round() as usize).max(20)
    }
}

/// The six WED instances of §2.2 (Figure 6 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncKind {
    Lev,
    Edr,
    Erp,
    NetEdr,
    NetErp,
    Surs,
}

impl FuncKind {
    pub const ALL: [FuncKind; 6] = [
        FuncKind::Lev,
        FuncKind::Edr,
        FuncKind::Erp,
        FuncKind::NetEdr,
        FuncKind::NetErp,
        FuncKind::Surs,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            FuncKind::Lev => "Lev",
            FuncKind::Edr => "EDR",
            FuncKind::Erp => "ERP",
            FuncKind::NetEdr => "NetEDR",
            FuncKind::NetErp => "NetERP",
            FuncKind::Surs => "SURS",
        }
    }

    /// True for edge-representation functions (SURS).
    pub(crate) fn uses_edges(&self) -> bool {
        matches!(self, FuncKind::Surs)
    }
}

/// A fully materialized dataset: network, vertex- and edge-representation
/// stores, and lazily built hub labels.
pub struct Dataset {
    pub name: &'static str,
    pub net: Arc<RoadNetwork>,
    /// Vertex-representation trajectories with timestamps.
    pub store: TrajectoryStore,
    /// Edge-representation twin (for SURS).
    pub edge_store: TrajectoryStore,
    hubs: OnceLock<Arc<HubLabels>>,
    seed: u64,
}

impl Dataset {
    /// The four Table 2 stand-ins. `which ∈ {"beijing", "porto",
    /// "singapore", "sanfran"}`.
    pub fn load(which: &str, scale: Scale) -> Dataset {
        let (name, params, base_count, len_range, seed): (
            _,
            CityParams,
            usize,
            (usize, usize),
            u64,
        ) = match which {
            "beijing" => (
                "Beijing",
                CityParams::medium(NetworkKind::City).seed(101),
                8_000,
                (60, 140),
                1,
            ),
            "porto" => (
                "Porto",
                CityParams::medium(NetworkKind::City).seed(202),
                12_000,
                (50, 110),
                2,
            ),
            "singapore" => (
                "Singapore",
                CityParams::small(NetworkKind::City).seed(303),
                3_000,
                (150, 260),
                3,
            ),
            "sanfran" => (
                "SanFran",
                CityParams::large(NetworkKind::City).seed(404),
                20_000,
                (60, 140),
                4,
            ),
            other => panic!("unknown dataset {other:?}"),
        };
        let net = Arc::new(params.generate());
        let trips = TripConfig::default()
            .count(scale.count(base_count))
            .lengths(len_range.0, len_range.1)
            .seed(seed * 7919);
        let store = trips.generate(&net);
        let edge_store = store_to_edges(&net, &store);
        Dataset {
            name,
            net,
            store,
            edge_store,
            hubs: OnceLock::new(),
            seed,
        }
    }

    /// A small synthetic dataset for unit tests and doc examples.
    pub fn test_tiny() -> Dataset {
        let net = Arc::new(CityParams::tiny(NetworkKind::City).seed(7).generate());
        let store = TripConfig::default()
            .count(60)
            .lengths(8, 25)
            .seed(99)
            .generate(&net);
        let edge_store = store_to_edges(&net, &store);
        Dataset {
            name: "tiny",
            net,
            store,
            edge_store,
            hubs: OnceLock::new(),
            seed: 7,
        }
    }

    /// Hub labels, built on first use (only Net* functions need them).
    pub fn hubs(&self) -> Arc<HubLabels> {
        self.hubs
            .get_or_init(|| Arc::new(HubLabels::build(&self.net)))
            .clone()
    }

    /// Median edge length (the paper's scale for NetEDR ε and NetERP η).
    pub fn median_edge_length(&self) -> f64 {
        let mut lens: Vec<f64> = self.net.edges().iter().map(|e| e.length).collect();
        lens.sort_by(f64::total_cmp);
        lens[lens.len() / 2]
    }

    /// Median nearest-neighbor distance between vertices (the paper's scale
    /// for ERP η).
    pub fn median_nn_distance(&self) -> f64 {
        let tree = rnet::KdTree::build(self.net.coords());
        let mut ds: Vec<f64> = (0..self.net.num_vertices() as u32)
            .map(|v| {
                tree.nearest_filtered(self.net.coord(v), |u| u != v)
                    .map(|(_, d)| d)
                    .unwrap_or(0.0)
            })
            .collect();
        ds.sort_by(f64::total_cmp);
        ds[ds.len() / 2]
    }

    // One constructor per parameterized model, so every entry point reads a
    // single source of truth for the §6.1 defaults.

    /// Paper: ε = 0.001 in lat/lon ≈ a city block; here 100 m.
    fn make_edr(&self) -> Edr {
        Edr::new(self.net.clone(), 100.0)
    }

    fn make_erp(&self, eta: Option<f64>) -> Erp {
        let eta = eta.unwrap_or(1e-4 * self.median_nn_distance());
        Erp::new(self.net.clone(), eta)
    }

    fn make_net_edr(&self) -> NetEdr {
        NetEdr::new(self.net.clone(), self.hubs(), self.median_edge_length())
    }

    /// G_del = 2 km as in §6.1.
    fn make_net_erp(&self, eta: Option<f64>) -> NetErp {
        let eta = eta.unwrap_or(self.median_edge_length());
        NetErp::new(self.net.clone(), self.hubs(), 2_000.0, eta)
    }

    /// Instantiates a similarity function with the paper's §6.1 defaults
    /// (scaled to meters). NetEDR/NetERP come memoized; `Memo`'s cache is
    /// behind sharded locks, so every instance is `Sync` and one model serves
    /// the sequential pipeline and the parallel batch engine alike.
    pub fn model(&self, kind: FuncKind) -> Box<dyn WedInstance + Sync> {
        self.model_with_eta(kind, None)
    }

    /// Same, with an explicit η override (Figure 13 sweeps).
    pub(crate) fn model_with_eta(
        &self,
        kind: FuncKind,
        eta: Option<f64>,
    ) -> Box<dyn WedInstance + Sync> {
        match kind {
            FuncKind::Lev => Box::new(Lev),
            FuncKind::Edr => Box::new(self.make_edr()),
            FuncKind::Erp => Box::new(self.make_erp(eta)),
            FuncKind::NetEdr => Box::new(Memo::new(self.make_net_edr())),
            FuncKind::NetErp => Box::new(Memo::new(self.make_net_erp(eta))),
            FuncKind::Surs => Box::new(Surs::new(self.net.clone())),
        }
    }

    /// The store/alphabet pair for a function's representation.
    pub fn store_for(&self, kind: FuncKind) -> (&TrajectoryStore, usize) {
        if kind.uses_edges() {
            (&self.edge_store, self.net.num_edges())
        } else {
            (&self.store, self.net.num_vertices())
        }
    }

    /// Samples `count` queries of exactly `len` symbols by cutting random
    /// subtrajectories from the store (§6.3: "we randomly sampled
    /// subtrajectories from each dataset as queries").
    pub fn sample_queries(
        &self,
        kind: FuncKind,
        len: usize,
        count: usize,
        salt: u64,
    ) -> Vec<Vec<Sym>> {
        let (store, _) = self.store_for(kind);
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ (salt.wrapping_mul(0x9E3779B97F4A7C15)));
        let mut out = Vec::with_capacity(count);
        let mut guard = 0;
        while out.len() < count && guard < count * 1000 {
            guard += 1;
            let id = rng.gen_range(0..store.len() as u32);
            let t = store.get(id);
            if t.len() < len {
                continue;
            }
            let s = rng.gen_range(0..=t.len() - len);
            out.push(t.path()[s..s + len].to_vec());
        }
        assert!(!out.is_empty(), "could not sample queries of length {len}");
        out
    }

    /// τ from a τ-ratio as in §6.1: `τ = τ_ratio · Σ_{q∈Q} c(q)`.
    pub fn tau_for(&self, model: &dyn WedInstance, q: &[Sym], tau_ratio: f64) -> f64 {
        let total: f64 = q.iter().map(|&s| model.lower_cost(s)).sum();
        (tau_ratio * total).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_is_consistent() {
        let d = Dataset::test_tiny();
        assert!(d.store.len() >= 20);
        assert!(d.edge_store.len() >= 20);
        for (_, t) in d.store.iter() {
            assert!(d.net.is_path(t.path()));
        }
    }

    #[test]
    fn queries_are_substrings_of_store() {
        let d = Dataset::test_tiny();
        let qs = d.sample_queries(FuncKind::Lev, 5, 10, 0);
        assert_eq!(qs.len(), 10);
        for q in &qs {
            assert_eq!(q.len(), 5);
            assert!(d.net.is_path(q));
        }
        // Edge-representation queries for SURS.
        let qe = d.sample_queries(FuncKind::Surs, 4, 5, 0);
        for q in &qe {
            assert_eq!(q.len(), 4);
        }
    }

    #[test]
    fn models_instantiate_for_all_kinds() {
        let d = Dataset::test_tiny();
        for kind in FuncKind::ALL {
            let m = d.model(kind);
            assert_eq!(m.name(), kind.name());
            let (_store, alphabet) = d.store_for(kind);
            assert!(alphabet > 0);
            // c(q) must be positive for filtering to be possible.
            let q = d.sample_queries(kind, 3, 1, 1).pop().unwrap();
            for &s in &q {
                assert!(m.lower_cost(s) > 0.0, "{} c(q) must be > 0", m.name());
            }
        }
    }

    #[test]
    fn tau_scales_with_ratio() {
        let d = Dataset::test_tiny();
        let m = d.model(FuncKind::Lev);
        let q = d.sample_queries(FuncKind::Lev, 6, 1, 2).pop().unwrap();
        let t1 = d.tau_for(&*m, &q, 0.1);
        let t3 = d.tau_for(&*m, &q, 0.3);
        assert!((t3 / t1 - 3.0).abs() < 1e-9);
        // Lev: c(q) = 1 per symbol.
        assert!((t1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn medians_are_city_scale() {
        let d = Dataset::test_tiny();
        let mel = d.median_edge_length();
        assert!((40.0..400.0).contains(&mel), "median edge length {mel}");
        let nn = d.median_nn_distance();
        assert!((40.0..400.0).contains(&nn), "median nn distance {nn}");
    }

    #[test]
    fn sample_queries_deterministic_per_salt() {
        let d = Dataset::test_tiny();
        let a = d.sample_queries(FuncKind::Lev, 5, 3, 7);
        let b = d.sample_queries(FuncKind::Lev, 5, 3, 7);
        assert_eq!(a, b);
        let c = d.sample_queries(FuncKind::Lev, 5, 3, 8);
        assert_ne!(a, c);
    }
}
