//! Road-network substrate for subtrajectory similarity search.
//!
//! This crate provides every piece of road-network machinery the search engine
//! depends on:
//!
//! * [`graph`] — a directed, weighted road network embedded in the plane,
//!   stored in compressed sparse row (CSR) form for cache-friendly traversal.
//! * [`generator`] — synthetic "city" network generators (jittered grids with
//!   one-way streets, removed blocks and diagonal arterials) standing in for
//!   the OSM networks used by the paper.
//! * [`dijkstra`] — single-source, bounded-radius and point-to-point shortest
//!   paths, used by the NetEDR/NetERP cost models, substitution-neighborhood
//!   computation and trip generation.
//! * [`hubs`] — a hub-labeling (pruned landmark labeling) index giving
//!   microsecond shortest-path-distance queries, as suggested in §4.2 of the
//!   paper for network-aware cost functions.
//! * [`kdtree`] — a 2-d tree over vertex coordinates supporting range,
//!   nearest-neighbor and nearest-outside-radius queries, used for EDR/ERP
//!   neighborhoods (Definition 4) and the ERP-index baseline.
//! * [`geo`] — plane geometry primitives.

pub mod dijkstra;
pub mod generator;
pub mod geo;
pub mod graph;
pub mod hubs;
pub mod kdtree;

pub use generator::{CityParams, NetworkKind};
pub use geo::Point;
pub use graph::{Edge, EdgeId, GraphBuilder, RoadNetwork, VertexId};
pub use hubs::HubLabels;
pub use kdtree::KdTree;

/// A totally ordered `f64` wrapper for use in heaps and sorts.
///
/// Costs and distances in this workspace are finite and non-negative; the
/// wrapper uses `f64::total_cmp` so it is safe even if NaN sneaks in (NaN
/// sorts last).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TotalF64(pub f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_f64_orders_like_f64() {
        let mut v = vec![TotalF64(3.0), TotalF64(-1.0), TotalF64(2.5)];
        v.sort();
        assert_eq!(v, vec![TotalF64(-1.0), TotalF64(2.5), TotalF64(3.0)]);
    }

    #[test]
    fn total_f64_nan_sorts_last() {
        let mut v = [TotalF64(f64::NAN), TotalF64(1.0)];
        v.sort();
        assert_eq!(v[0], TotalF64(1.0));
    }
}
