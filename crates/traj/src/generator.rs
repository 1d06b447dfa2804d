//! Synthetic trajectory generation.
//!
//! Substitutes for the taxi corpora of the paper. Two generators are
//! provided:
//!
//! * [`TripConfig`] — *purposeful* trips: a start vertex and a sequence of
//!   waypoints connected by shortest paths, with optional detour
//!   perturbations. Purposeful trips concentrate traffic on arterials and
//!   produce the shared prefixes/suffixes that bidirectional-trie caching
//!   (§5.2) exploits, like real taxi data.
//! * [`RandomWalkConfig`] — non-backtracking random walks; a harsher, less
//!   structured workload used to stress filtering.
//!
//! Timestamps follow Definition 1: each trajectory departs at a random time
//! within a horizon and accumulates per-edge travel times scaled by a
//! per-trip congestion factor and per-edge noise, so travel times for the
//! same path differ across trajectories (the premise of the travel-time
//! estimation task of §6.2.1).

use crate::dataset::TrajectoryStore;
use crate::model::Trajectory;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rnet::dijkstra::{shortest_path, Mode};
use rnet::{RoadNetwork, VertexId};

/// Configuration for purposeful (waypoint-routed) trip generation.
#[derive(Debug, Clone)]
pub struct TripConfig {
    pub num_trajectories: usize,
    /// Target path length (vertices) is sampled uniformly from this range.
    pub min_len: usize,
    pub max_len: usize,
    /// Probability that, after reaching a waypoint, the trip takes a local
    /// detour (a short random excursion) before continuing — models drivers
    /// deviating from shortest paths.
    pub detour_prob: f64,
    /// Length of a detour excursion in hops.
    pub detour_hops: usize,
    /// Departure times are uniform in `[0, horizon)` seconds.
    pub horizon: f64,
    /// Standard deviation of the per-trip congestion factor (factor is
    /// `max(0.2, 1 + N(0, σ))`).
    pub congestion_std: f64,
    pub seed: u64,
}

impl Default for TripConfig {
    fn default() -> Self {
        TripConfig {
            num_trajectories: 100,
            min_len: 20,
            max_len: 120,
            detour_prob: 0.25,
            detour_hops: 4,
            horizon: 86_400.0,
            congestion_std: 0.25,
            seed: 0,
        }
    }
}

impl TripConfig {
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn count(mut self, n: usize) -> Self {
        self.num_trajectories = n;
        self
    }

    pub fn lengths(mut self, min: usize, max: usize) -> Self {
        assert!(2 <= min && min <= max);
        self.min_len = min;
        self.max_len = max;
        self
    }

    /// Generates the dataset. The network must be strongly connected (the
    /// generators in `rnet` guarantee this).
    pub fn generate(&self, net: &RoadNetwork) -> TrajectoryStore {
        assert!(net.num_vertices() >= 2, "network too small");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut store = TrajectoryStore::with_capacity(self.num_trajectories);
        while store.len() < self.num_trajectories {
            let target = rng.gen_range(self.min_len..=self.max_len);
            let path = waypoint_path(net, &mut rng, target, self.detour_prob, self.detour_hops);
            if path.len() < self.min_len.max(2) {
                continue;
            }
            let times = synth_times(net, &path, &mut rng, self.horizon, self.congestion_std);
            store.push(Trajectory::new(path, times));
        }
        store
    }
}

/// Configuration for non-backtracking random walks.
#[derive(Debug, Clone)]
pub struct RandomWalkConfig {
    pub num_trajectories: usize,
    pub min_len: usize,
    pub max_len: usize,
    pub horizon: f64,
    pub congestion_std: f64,
    pub seed: u64,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        RandomWalkConfig {
            num_trajectories: 100,
            min_len: 10,
            max_len: 80,
            horizon: 86_400.0,
            congestion_std: 0.25,
            seed: 0,
        }
    }
}

impl RandomWalkConfig {
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn count(mut self, n: usize) -> Self {
        self.num_trajectories = n;
        self
    }

    pub fn generate(&self, net: &RoadNetwork) -> TrajectoryStore {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut store = TrajectoryStore::with_capacity(self.num_trajectories);
        while store.len() < self.num_trajectories {
            let target = rng.gen_range(self.min_len..=self.max_len);
            let start = rng.gen_range(0..net.num_vertices() as u32);
            let path = random_walk(net, &mut rng, start, target);
            if path.len() < 2 {
                continue;
            }
            let times = synth_times(net, &path, &mut rng, self.horizon, self.congestion_std);
            store.push(Trajectory::new(path, times));
        }
        store
    }
}

/// A non-backtracking random walk of `target` vertices starting at `start`.
pub fn random_walk(
    net: &RoadNetwork,
    rng: &mut ChaCha8Rng,
    start: VertexId,
    target: usize,
) -> Vec<VertexId> {
    let mut path = vec![start];
    let mut prev: Option<VertexId> = None;
    while path.len() < target {
        let cur = *path.last().unwrap();
        let nbrs = net.out_neighbors(cur);
        if nbrs.is_empty() {
            break;
        }
        // Avoid immediate reversal when another option exists.
        let choices: Vec<VertexId> = nbrs
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| Some(v) != prev)
            .collect();
        let next = if choices.is_empty() {
            nbrs[rng.gen_range(0..nbrs.len())].0
        } else {
            choices[rng.gen_range(0..choices.len())]
        };
        prev = Some(cur);
        path.push(next);
    }
    path
}

/// Builds a waypoint-routed path of roughly `target` vertices.
fn waypoint_path(
    net: &RoadNetwork,
    rng: &mut ChaCha8Rng,
    target: usize,
    detour_prob: f64,
    detour_hops: usize,
) -> Vec<VertexId> {
    let n = net.num_vertices() as u32;
    let mut path: Vec<VertexId> = vec![rng.gen_range(0..n)];
    let mut guard = 0;
    while path.len() < target && guard < 64 {
        guard += 1;
        let cur = *path.last().unwrap();
        let waypoint = rng.gen_range(0..n);
        if waypoint == cur {
            continue;
        }
        match shortest_path(net, cur, waypoint, Mode::DirectedLength) {
            Some((leg, _)) if leg.len() > 1 => {
                extend_path(&mut path, &leg);
                if rng.gen::<f64>() < detour_prob {
                    let cur = *path.last().unwrap();
                    let excursion = random_walk(net, rng, cur, detour_hops + 1);
                    extend_path(&mut path, &excursion);
                }
            }
            _ => continue,
        }
    }
    path.truncate(target.max(2));
    path
}

fn extend_path(path: &mut Vec<VertexId>, leg: &[VertexId]) {
    debug_assert_eq!(path.last(), leg.first());
    path.extend_from_slice(&leg[1..]);
}

/// Synthesizes timestamps along `path`: departure uniform in the horizon,
/// per-trip congestion factor, ±10% per-edge noise.
fn synth_times(
    net: &RoadNetwork,
    path: &[VertexId],
    rng: &mut ChaCha8Rng,
    horizon: f64,
    congestion_std: f64,
) -> Vec<f64> {
    let depart = rng.gen_range(0.0..horizon.max(f64::MIN_POSITIVE));
    // Box-Muller normal draw for the trip-level congestion factor.
    let (u1, u2) = (rng.gen_range(f64::EPSILON..1.0), rng.gen::<f64>());
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let factor = (1.0 + congestion_std * z).max(0.2);
    let mut times = Vec::with_capacity(path.len());
    let mut t = depart;
    times.push(t);
    for w in path.windows(2) {
        let eid = net
            .find_edge(w[0], w[1])
            .expect("generated trajectory must be a path");
        let noise = rng.gen_range(0.9..1.1);
        t += net.edge(eid).travel_time * factor * noise;
        times.push(t);
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnet::{CityParams, NetworkKind};

    fn net() -> RoadNetwork {
        CityParams::tiny(NetworkKind::City).seed(3).generate()
    }

    #[test]
    fn trips_are_paths_with_valid_times() {
        let g = net();
        let store = TripConfig::default()
            .count(20)
            .lengths(5, 30)
            .seed(1)
            .generate(&g);
        assert_eq!(store.len(), 20);
        for (_, t) in store.iter() {
            assert!(g.is_path(t.path()), "generated trajectory is not a path");
            assert!(t.len() >= 2);
            assert!(
                t.times().windows(2).all(|w| w[1] > w[0]),
                "times must increase"
            );
        }
    }

    #[test]
    fn trip_lengths_respect_bounds() {
        let g = net();
        let store = TripConfig::default()
            .count(30)
            .lengths(8, 15)
            .seed(2)
            .generate(&g);
        for (_, t) in store.iter() {
            assert!(t.len() <= 15, "length {} exceeds max", t.len());
            assert!(t.len() >= 8, "length {} below min", t.len());
        }
    }

    #[test]
    fn walks_are_paths() {
        let g = net();
        let store = RandomWalkConfig::default().count(15).seed(4).generate(&g);
        assert_eq!(store.len(), 15);
        for (_, t) in store.iter() {
            assert!(g.is_path(t.path()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = net();
        let a = TripConfig::default().count(5).seed(9).generate(&g);
        let b = TripConfig::default().count(5).seed(9).generate(&g);
        for ((_, ta), (_, tb)) in a.iter().zip(b.iter()) {
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g = net();
        let a = TripConfig::default().count(5).seed(1).generate(&g);
        let b = TripConfig::default().count(5).seed(2).generate(&g);
        let same = a.iter().zip(b.iter()).all(|((_, x), (_, y))| x == y);
        assert!(!same);
    }

    #[test]
    fn walk_avoids_immediate_backtrack_when_possible() {
        let g = net();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..10 {
            let start = rng.gen_range(0..g.num_vertices() as u32);
            let p = random_walk(&g, &mut rng, start, 20);
            for w in p.windows(3) {
                if w[0] == w[2] {
                    // Backtracking is only allowed at forced dead-ends (the
                    // only out-neighbor is the previous vertex).
                    let outs = g.out_neighbors(w[1]);
                    assert_eq!(outs.len(), 1, "unforced backtrack at {:?}", w);
                }
            }
        }
    }

    #[test]
    fn departures_fill_the_horizon() {
        let g = net();
        let store = TripConfig::default().count(50).seed(11).generate(&g);
        let departures: Vec<f64> = store.iter().map(|(_, t)| t.departure()).collect();
        let min = departures.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = departures.iter().cloned().fold(0.0, f64::max);
        assert!(min < 86_400.0 * 0.3);
        assert!(max > 86_400.0 * 0.7);
    }
}
