//! Synthetic road-network generation.
//!
//! The paper evaluates on OSM road networks (Beijing, Porto, Singapore, San
//! Francisco). Those datasets are not available here, so we generate
//! networks that reproduce the structural properties the algorithms exploit:
//!
//! * **sparsity**: small out-degree (≈3), which drives bidirectional-trie
//!   cache sharing (§5.2);
//! * **spatial embedding**: coordinates in meters so Euclidean / network
//!   distances behave like city-scale data;
//! * **positive edge weights** (lengths) and free-flow travel times, so SURS
//!   costs and timestamps are realistic;
//! * **one-way streets and irregular blocks**, so directed reachability is
//!   non-trivial.
//!
//! The generator builds a jittered grid, deletes random blocks (parks,
//! rivers), marks arterial rows/columns as fast roads, converts a fraction of
//! streets to one-way, optionally adds diagonal shortcuts, and finally prunes
//! to the largest strongly connected component so random walks never
//! dead-end.

use crate::geo::Point;
use crate::graph::{GraphBuilder, RoadNetwork};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Network family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// Plain bidirectional grid, no removals — predictable topology for
    /// tests.
    Grid,
    /// City-like: jitter, block removal, one-ways, diagonals.
    City,
}

/// Parameters for synthetic network generation.
#[derive(Debug, Clone)]
pub struct CityParams {
    pub kind: NetworkKind,
    /// Grid columns.
    pub width: usize,
    /// Grid rows.
    pub height: usize,
    /// Block edge length in meters.
    pub spacing: f64,
    /// Coordinate jitter as a fraction of `spacing`.
    pub jitter: f64,
    /// Probability a grid vertex is removed (city kind only).
    pub block_removal: f64,
    /// Probability a street is one-way (city kind only).
    pub oneway: f64,
    /// Probability of a diagonal shortcut per cell (city kind only).
    pub diagonal: f64,
    /// Every `arterial_every`-th row/column is a fast arterial.
    pub arterial_every: usize,
    pub seed: u64,
}

impl CityParams {
    /// ~64-vertex network for unit tests.
    pub fn tiny(kind: NetworkKind) -> Self {
        CityParams {
            width: 8,
            height: 8,
            ..Self::base(kind)
        }
    }

    /// ~1k-vertex network for integration tests and examples.
    pub fn small(kind: NetworkKind) -> Self {
        CityParams {
            width: 32,
            height: 32,
            ..Self::base(kind)
        }
    }

    /// ~4k-vertex network for experiments at default scale.
    pub fn medium(kind: NetworkKind) -> Self {
        CityParams {
            width: 64,
            height: 64,
            ..Self::base(kind)
        }
    }

    /// ~16k-vertex network for larger experiment scales.
    pub fn large(kind: NetworkKind) -> Self {
        CityParams {
            width: 128,
            height: 128,
            ..Self::base(kind)
        }
    }

    fn base(kind: NetworkKind) -> Self {
        CityParams {
            kind,
            width: 8,
            height: 8,
            spacing: 120.0,
            jitter: 0.18,
            block_removal: 0.06,
            oneway: 0.22,
            diagonal: 0.05,
            arterial_every: 5,
            seed: 0,
        }
    }

    /// Returns a copy with the given seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the network (deterministic in the parameters).
    pub fn generate(&self) -> RoadNetwork {
        assert!(
            self.width >= 2 && self.height >= 2,
            "network must have at least 2x2 cells"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let city = self.kind == NetworkKind::City;

        // Vertex liveness and placement.
        let mut alive = vec![true; self.width * self.height];
        if city {
            for a in alive.iter_mut() {
                if rng.gen::<f64>() < self.block_removal {
                    *a = false;
                }
            }
        }
        let mut b = GraphBuilder::new();
        let mut vid = vec![u32::MAX; self.width * self.height];
        let mut pts = vec![Point::default(); self.width * self.height];
        for r in 0..self.height {
            for c in 0..self.width {
                let cell = r * self.width + c;
                if !alive[cell] {
                    continue;
                }
                let (jx, jy) = if city {
                    (
                        rng.gen_range(-self.jitter..self.jitter) * self.spacing,
                        rng.gen_range(-self.jitter..self.jitter) * self.spacing,
                    )
                } else {
                    (0.0, 0.0)
                };
                let p = Point::new(c as f64 * self.spacing + jx, r as f64 * self.spacing + jy);
                pts[cell] = p;
                vid[cell] = b.add_vertex(p);
            }
        }

        // Speeds in m/s: arterials ~60 km/h, side streets ~30 km/h.
        let arterial_speed = 16.7;
        let street_speed = 8.3;
        let is_arterial = |r: usize, c: usize, horizontal: bool| {
            if horizontal {
                r.is_multiple_of(self.arterial_every)
            } else {
                c.is_multiple_of(self.arterial_every)
            }
        };

        let add_street = |b: &mut GraphBuilder,
                          rng: &mut ChaCha8Rng,
                          u: u32,
                          v: u32,
                          pu: Point,
                          pv: Point,
                          arterial: bool| {
            let len = pu.dist(&pv).max(1.0);
            let speed = if arterial {
                arterial_speed
            } else {
                street_speed
            };
            let tt = len / speed;
            if city && rng.gen::<f64>() < self.oneway {
                if rng.gen::<bool>() {
                    b.add_edge(u, v, len, tt);
                } else {
                    b.add_edge(v, u, len, tt);
                }
            } else {
                b.add_bidirectional(u, v, len, tt);
            }
        };

        for r in 0..self.height {
            for c in 0..self.width {
                let cell = r * self.width + c;
                if vid[cell] == u32::MAX {
                    continue;
                }
                // East neighbor.
                if c + 1 < self.width {
                    let e = cell + 1;
                    if vid[e] != u32::MAX {
                        add_street(
                            &mut b,
                            &mut rng,
                            vid[cell],
                            vid[e],
                            pts[cell],
                            pts[e],
                            is_arterial(r, c, true),
                        );
                    }
                }
                // South neighbor.
                if r + 1 < self.height {
                    let s = cell + self.width;
                    if vid[s] != u32::MAX {
                        add_street(
                            &mut b,
                            &mut rng,
                            vid[cell],
                            vid[s],
                            pts[cell],
                            pts[s],
                            is_arterial(r, c, false),
                        );
                    }
                }
                // Diagonal shortcut.
                if city && c + 1 < self.width && r + 1 < self.height {
                    let d = cell + self.width + 1;
                    if vid[d] != u32::MAX && rng.gen::<f64>() < self.diagonal {
                        add_street(
                            &mut b, &mut rng, vid[cell], vid[d], pts[cell], pts[d], false,
                        );
                    }
                }
            }
        }

        let g = b.build();
        // Prune to the largest SCC so every vertex can continue a walk.
        let keep = g.largest_scc();
        let (g, _) = g.induced_subgraph(&keep);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_expected_size_and_degree() {
        let g = CityParams::tiny(NetworkKind::Grid).generate();
        assert_eq!(g.num_vertices(), 64);
        // Bidirectional grid: 2 * (2*8*7) = 224 directed edges.
        assert_eq!(g.num_edges(), 224);
        // Interior vertices have out-degree 4.
        let deg: Vec<usize> = (0..g.num_vertices() as u32)
            .map(|v| g.out_degree(v))
            .collect();
        assert!(deg.iter().all(|&d| (2..=4).contains(&d)));
    }

    #[test]
    fn city_is_strongly_connected_and_sparse() {
        let g = CityParams::small(NetworkKind::City).seed(42).generate();
        assert!(
            g.num_vertices() > 500,
            "too much of the grid was pruned: {}",
            g.num_vertices()
        );
        let keep = g.largest_scc();
        assert!(
            keep.iter().all(|&k| k),
            "generator must return a single SCC"
        );
        let avg = g.avg_out_degree();
        assert!(
            (1.5..=4.2).contains(&avg),
            "avg out-degree {avg} outside road-network range"
        );
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let a = CityParams::tiny(NetworkKind::City).seed(5).generate();
        let b = CityParams::tiny(NetworkKind::City).seed(5).generate();
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!(ea, eb);
        }
        let c = CityParams::tiny(NetworkKind::City).seed(6).generate();
        // Different seed should (overwhelmingly) give a different network.
        assert!(a.num_edges() != c.num_edges() || a.coords()[0] != c.coords()[0]);
    }

    #[test]
    fn edge_lengths_are_positive_and_city_scale() {
        let g = CityParams::small(NetworkKind::City).seed(1).generate();
        for e in g.edges() {
            assert!(e.length > 0.0);
            assert!(e.length < 600.0, "street length {} too long", e.length);
            assert!(e.travel_time > 0.0);
        }
    }

    #[test]
    fn arterials_are_faster() {
        let g = CityParams::small(NetworkKind::Grid).seed(2).generate();
        // On the pure grid all lengths equal spacing; arterial edges must have
        // smaller travel time than side streets of the same length.
        let mut fast = f64::INFINITY;
        let mut slow: f64 = 0.0;
        for e in g.edges() {
            let speed = e.length / e.travel_time;
            fast = fast.min(speed);
            slow = slow.max(speed);
        }
        assert!(
            slow > fast * 1.5,
            "expected distinct speed classes: {fast} vs {slow}"
        );
    }
}
