//! Vertex ⇄ edge representation conversion (§2.1).
//!
//! A path `v1 v2 … vn` has the equivalent edge representation
//! `e1 e2 … e(n-1)` with `ei = (vi, vi+1)`. SURS (Eq. 4) is defined on edge
//! strings; the other WED instances here use vertex strings. The search
//! engine itself is representation-agnostic (symbols are opaque `u32`s), so
//! conversion happens once at dataset preparation time.

use crate::dataset::TrajectoryStore;
use crate::model::Trajectory;
use rnet::RoadNetwork;

/// Converts a vertex-path trajectory to edge representation.
///
/// The timestamp of edge `ei` is the departure time from `vi`. Returns
/// `None` for single-vertex trajectories (their edge string is empty, which
/// the model forbids) or sequences that are not paths on `net`.
pub fn to_edge_trajectory(net: &RoadNetwork, t: &Trajectory) -> Option<Trajectory> {
    if t.len() < 2 {
        return None;
    }
    let edges = net.path_to_edges(t.path())?;
    let times = t.times()[..t.len() - 1].to_vec();
    Some(Trajectory::new(edges, times))
}

/// Converts an edge-representation trajectory back to its vertex path. The
/// final vertex reuses the last edge's timestamp (arrival time is not
/// recoverable exactly; callers needing exact times should keep the vertex
/// representation).
pub fn to_vertex_trajectory(net: &RoadNetwork, t: &Trajectory) -> Option<Trajectory> {
    let path = net.edges_to_path(t.path())?;
    let mut times = t.times().to_vec();
    times.push(*t.times().last().unwrap());
    Some(Trajectory::new(path, times))
}

/// Converts a whole store to edge representation, dropping trajectories that
/// are too short to have an edge string. Returns the converted store.
pub fn store_to_edges(net: &RoadNetwork, store: &TrajectoryStore) -> TrajectoryStore {
    store
        .iter()
        .filter_map(|(_, t)| to_edge_trajectory(net, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnet::{GraphBuilder, Point};

    fn path_graph() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        b.add_bidirectional(0, 1, 1.0, 1.0);
        b.add_bidirectional(1, 2, 1.0, 1.0);
        b.add_bidirectional(2, 3, 1.0, 1.0);
        b.build()
    }

    #[test]
    fn vertex_to_edge_and_back() {
        let g = path_graph();
        let t = Trajectory::new(vec![0, 1, 2, 3], vec![0.0, 1.0, 2.0, 3.0]);
        let e = to_edge_trajectory(&g, &t).unwrap();
        assert_eq!(e.len(), 3);
        assert_eq!(e.times(), &[0.0, 1.0, 2.0]);
        let v = to_vertex_trajectory(&g, &e).unwrap();
        assert_eq!(v.path(), t.path());
    }

    #[test]
    fn edge_ids_match_network() {
        let g = path_graph();
        let t = Trajectory::untimed(vec![2, 1, 0]);
        let e = to_edge_trajectory(&g, &t).unwrap();
        assert_eq!(e.path()[0], g.find_edge(2, 1).unwrap());
        assert_eq!(e.path()[1], g.find_edge(1, 0).unwrap());
    }

    #[test]
    fn singleton_and_nonpath_rejected() {
        let g = path_graph();
        assert!(to_edge_trajectory(&g, &Trajectory::untimed(vec![0])).is_none());
        assert!(to_edge_trajectory(&g, &Trajectory::untimed(vec![0, 2])).is_none());
    }

    #[test]
    fn store_conversion_drops_singletons() {
        let g = path_graph();
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::untimed(vec![0, 1, 2]));
        s.push(Trajectory::untimed(vec![3]));
        s.push(Trajectory::untimed(vec![3, 2]));
        let es = store_to_edges(&g, &s);
        assert_eq!(es.len(), 2);
        assert_eq!(es.get(0).len(), 2);
        assert_eq!(es.get(1).len(), 1);
    }
}
