//! Benchmark inputs: the road network, the trajectory store, the cost
//! models and the pattern sampler, with the size constants owned here (not
//! by `crates/bench`, whose `Dataset` other changes may edit). The city and
//! its trips are one fixed data set, as the paper's are; `--seed` draws the
//! queries from it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rnet::{CityParams, HubLabels, KdTree, NetworkKind, RoadNetwork};
use std::sync::Arc;
use std::time::Instant;
use traj::{TrajectoryStore, TripConfig};
use wed::models::{Edr, Erp, Memo, NetEdr};
use wed::{Sym, WedInstance};

/// Trip length range (vertices), as the paper's Beijing stand-in.
const TRIP_LEN: (usize, usize) = (60, 140);
/// Full size: ≈ 800 000 postings.
const FULL_TRIPS: usize = 8_000;
/// `--smoke` size: schema and correctness only.
const SMOKE_TRIPS: usize = 400;

/// Seeds the city and the trips, whatever `--seed` is. A run per seed is
/// how the benchmark's spread is judged, and a new city per seed put more
/// into that spread than the host did: ten cities differ by 0.07–0.15
/// (interquartile range ÷ median) in every timing of `inproc_wed`, ten
/// query samples from one city by 0.06, ten runs of one sample by 0.02.
const DATA_SEED: u64 = 12;

/// EDR matching threshold ε in metres (about one city block).
const EDR_EPS_M: f64 = 100.0;
/// ERP neighbourhood threshold η as a share of the median
/// nearest-neighbour distance (the paper's Appendix D).
const ERP_ETA_SHARE: f64 = 1e-4;

/// Independent sub-seeds from the one `--seed` (splitmix64 finaliser).
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(sub_seed(seed, salt))
}

/// Wall time of each generation step, reported as per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenTimes {
    pub rnet_s: f64,
    pub hubs_s: f64,
    pub traj_s: f64,
}

pub struct Dataset {
    pub seed: u64,
    pub net: Arc<RoadNetwork>,
    pub hubs: Arc<HubLabels>,
    pub store: TrajectoryStore,
    /// `|V|`: the alphabet of the vertex representation.
    pub alphabet: usize,
    pub postings: usize,
    pub gen: GenTimes,
}

impl Dataset {
    pub fn generate(seed: u64, smoke: bool) -> Dataset {
        let t0 = Instant::now();
        let city = if smoke {
            CityParams::small(NetworkKind::City)
        } else {
            CityParams::medium(NetworkKind::City)
        };
        let net = Arc::new(city.seed(sub_seed(DATA_SEED, 1)).generate());
        let rnet_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let hubs = Arc::new(HubLabels::build(&net));
        let hubs_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let store = TripConfig::default()
            .count(if smoke { SMOKE_TRIPS } else { FULL_TRIPS })
            .lengths(TRIP_LEN.0, TRIP_LEN.1)
            .seed(sub_seed(DATA_SEED, 2))
            .generate(&net);
        let traj_s = t2.elapsed().as_secs_f64();

        let postings = store.iter().map(|(_, t)| t.len()).sum();
        Dataset {
            seed,
            alphabet: net.num_vertices(),
            net,
            hubs,
            store,
            postings,
            gen: GenTimes {
                rnet_s,
                hubs_s,
                traj_s,
            },
        }
    }

    pub fn edr(&self) -> Edr {
        Edr::new(self.net.clone(), EDR_EPS_M)
    }

    pub fn erp(&self) -> Erp {
        Erp::new(self.net.clone(), ERP_ETA_SHARE * self.median_nn_distance())
    }

    /// NetEDR with ε = the median edge length, memoised as the engine's
    /// callers use it.
    pub fn net_edr(&self) -> Memo<NetEdr> {
        Memo::new(NetEdr::new(
            self.net.clone(),
            self.hubs.clone(),
            self.median_edge_length(),
        ))
    }

    fn median_edge_length(&self) -> f64 {
        let mut lens: Vec<f64> = self.net.edges().iter().map(|e| e.length).collect();
        lens.sort_by(f64::total_cmp);
        lens[lens.len() / 2]
    }

    fn median_nn_distance(&self) -> f64 {
        let tree = KdTree::build(self.net.coords());
        let mut ds: Vec<f64> = (0..self.net.num_vertices() as u32)
            .map(|v| {
                tree.nearest_filtered(self.net.coord(v), |u| u != v)
                    .map_or(0.0, |(_, d)| d)
            })
            .collect();
        ds.sort_by(f64::total_cmp);
        ds[ds.len() / 2]
    }

    /// `count` patterns of exactly `len` symbols cut from random
    /// trajectories (§6.3 of the paper samples queries the same way).
    pub fn sample_patterns(&self, len: usize, count: usize, salt: u64) -> Vec<Vec<Sym>> {
        let mut rng = rng(self.seed, salt);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let t = self.store.get(rng.gen_range(0..self.store.len() as u32));
            if t.len() < len {
                continue;
            }
            let s = rng.gen_range(0..=t.len() - len);
            out.push(t.path()[s..s + len].to_vec());
        }
        out
    }
}

/// τ from a τ-ratio as in §6.1 of the paper: `τ = ratio · Σ c(q)`.
pub fn tau_for(model: &impl WedInstance, q: &[Sym], ratio: f64) -> f64 {
    let total: f64 = q.iter().map(|&s| model.lower_cost(s)).sum();
    (ratio * total).max(f64::MIN_POSITIVE)
}

/// Fisher–Yates with the benchmark's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
