//! Hub labeling (pruned landmark labeling) for fast shortest-path-distance
//! queries.
//!
//! NetEDR and NetERP substitute costs are shortest-path distances (§2.2.3).
//! Verification evaluates `sub(a, b)` inside the inner DP loop, so the paper
//! recommends a hub-labeling index (§4.2, refs [1, 2]). This is the pruned
//! landmark labeling of Akiba et al. over the *undirected symmetrization* of
//! the network, which is exactly the regime the paper uses to keep WED
//! symmetric.

use crate::graph::{RoadNetwork, VertexId};
use crate::TotalF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A 2-hop-cover distance index over the undirected road network.
#[derive(Debug, Clone)]
pub struct HubLabels {
    /// `labels[v]` = sorted `(landmark rank, distance)` pairs.
    labels: Vec<Vec<(u32, f64)>>,
    /// rank -> original vertex id (for diagnostics).
    order: Vec<VertexId>,
}

impl HubLabels {
    /// Builds the index by pruned Dijkstra from every vertex in descending
    /// degree order (a standard, effective landmark order for road networks).
    pub fn build(g: &RoadNetwork) -> Self {
        let n = g.num_vertices();
        let mut order: Vec<VertexId> = (0..n as u32).collect();
        // Degree = undirected degree; ties broken by id for determinism.
        order.sort_by_key(|&v| (Reverse(g.out_degree(v) + g.in_neighbors(v).len()), v));

        let mut labels: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        // Scratch: current tentative distances, visited list for cleanup.
        let mut dist = vec![f64::INFINITY; n];
        let mut root_dist = vec![f64::INFINITY; n]; // distances from current root's labels
        for (rank, &root) in order.iter().enumerate() {
            let rank = rank as u32;
            // Load the root's current labels for O(1)-ish pruning queries.
            for &(r, d) in &labels[root as usize] {
                root_dist[r as usize] = d;
            }
            let mut heap = BinaryHeap::new();
            let mut touched = vec![root];
            dist[root as usize] = 0.0;
            heap.push(Reverse((TotalF64(0.0), root)));
            while let Some(Reverse((TotalF64(d), v))) = heap.pop() {
                if d > dist[v as usize] {
                    continue;
                }
                // Prune: if existing labels already certify dist(root, v) <= d,
                // v (and everything through it) needs no new label.
                let mut certified = f64::INFINITY;
                for &(r, dv) in &labels[v as usize] {
                    let dr = root_dist[r as usize];
                    if dr.is_finite() {
                        certified = certified.min(dr + dv);
                    }
                }
                if certified <= d {
                    continue;
                }
                labels[v as usize].push((rank, d));
                g.undirected_neighbors(v, |to, w| {
                    let nd = d + w;
                    if nd < dist[to as usize] {
                        if dist[to as usize].is_infinite() {
                            touched.push(to);
                        }
                        dist[to as usize] = nd;
                        heap.push(Reverse((TotalF64(nd), to)));
                    }
                });
            }
            for v in touched {
                dist[v as usize] = f64::INFINITY;
            }
            for &(r, _) in &labels[root as usize] {
                root_dist[r as usize] = f64::INFINITY;
            }
        }
        // Labels are generated in increasing rank order already, but assert in
        // debug builds since `query` relies on it for the merge join.
        debug_assert!(labels.iter().all(|l| l.windows(2).all(|w| w[0].0 < w[1].0)));
        HubLabels { labels, order }
    }

    /// Undirected shortest-path distance between `u` and `v`
    /// (`f64::INFINITY` if disconnected).
    pub fn query(&self, u: VertexId, v: VertexId) -> f64 {
        if u == v {
            return 0.0;
        }
        let (a, b) = (&self.labels[u as usize], &self.labels[v as usize]);
        let (mut i, mut j) = (0, 0);
        let mut best = f64::INFINITY;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = a[i].1 + b[j].1;
                    if d < best {
                        best = d;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Total number of label entries.
    fn total_entries(&self) -> usize {
        self.labels.iter().map(Vec::len).sum()
    }

    /// Approximate index memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.total_entries() * std::mem::size_of::<(u32, f64)>()
            + self.order.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{sssp, Mode};
    use crate::generator::{CityParams, NetworkKind};
    use crate::geo::Point;
    use crate::graph::GraphBuilder;

    #[test]
    fn query_matches_dijkstra_on_small_grid() {
        let g = CityParams::tiny(NetworkKind::Grid).seed(7).generate();
        let hl = HubLabels::build(&g);
        for src in [0u32, 1, g.num_vertices() as u32 / 2] {
            let d = sssp(&g, src, Mode::UndirectedLength);
            for v in 0..g.num_vertices() as u32 {
                let q = hl.query(src, v);
                if d[v as usize].is_infinite() {
                    assert!(q.is_infinite());
                } else {
                    assert!(
                        (q - d[v as usize]).abs() < 1e-6,
                        "hub {q} vs dijkstra {} for {src}->{v}",
                        d[v as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn query_is_symmetric_and_zero_on_diagonal() {
        let g = CityParams::tiny(NetworkKind::Grid).seed(9).generate();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.query(3, 3), 0.0);
        assert_eq!(hl.query(0, 5), hl.query(5, 0));
    }

    #[test]
    fn disconnected_components_are_infinite() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        b.add_bidirectional(0, 1, 1.0, 1.0);
        b.add_bidirectional(2, 3, 1.0, 1.0);
        let g = b.build();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.query(0, 1), 1.0);
        assert!(hl.query(0, 2).is_infinite());
    }

    #[test]
    fn label_sizes_are_reported() {
        let g = CityParams::tiny(NetworkKind::Grid).seed(11).generate();
        let hl = HubLabels::build(&g);
        // Every vertex is its own hub at least.
        assert!(hl.total_entries() >= g.num_vertices());
        assert!(hl.size_bytes() >= hl.total_entries() * std::mem::size_of::<(u32, f64)>());
    }
}
