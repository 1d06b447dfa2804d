//! Directed, weighted road network embedded in the plane.
//!
//! The network is the alphabet provider of the string model of §2.1: in
//! vertex representation the alphabet is `V`, in edge representation it is
//! `E`. Adjacency is stored in CSR (compressed sparse row) form, so walking
//! the 2–4 out-neighbors of a vertex touches one contiguous slice.

use crate::geo::Point;
use std::collections::HashMap;

/// Vertex identifier (index into the network's vertex arrays).
pub type VertexId = u32;
/// Edge identifier (index into the network's edge array).
pub type EdgeId = u32;

/// A directed road segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub from: VertexId,
    pub to: VertexId,
    /// Segment length in meters; this is the `w(e)` used by SURS (Eq. 4).
    pub length: f64,
    /// Free-flow travel time in seconds, used to synthesize timestamps.
    pub travel_time: f64,
}

/// Incrementally builds a [`RoadNetwork`].
#[derive(Debug, Default)]
pub struct GraphBuilder {
    coords: Vec<Point>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex at `p` and returns its id.
    pub fn add_vertex(&mut self, p: Point) -> VertexId {
        let id = self.coords.len() as VertexId;
        self.coords.push(p);
        id
    }

    /// Adds a directed edge; `length` in meters, `travel_time` in seconds.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or the weight is not positive
    /// and finite (the filtering principle of §3.1 relies on positive costs).
    pub(crate) fn add_edge(
        &mut self,
        from: VertexId,
        to: VertexId,
        length: f64,
        travel_time: f64,
    ) -> EdgeId {
        assert!(
            (from as usize) < self.coords.len(),
            "edge source out of range"
        );
        assert!(
            (to as usize) < self.coords.len(),
            "edge target out of range"
        );
        assert!(
            length > 0.0 && length.is_finite(),
            "edge length must be positive"
        );
        assert!(
            travel_time > 0.0 && travel_time.is_finite(),
            "travel time must be positive"
        );
        let id = self.edges.len() as EdgeId;
        self.edges.push(Edge {
            from,
            to,
            length,
            travel_time,
        });
        id
    }

    /// Convenience: both directions with the same weights.
    pub fn add_bidirectional(&mut self, a: VertexId, b: VertexId, length: f64, travel_time: f64) {
        self.add_edge(a, b, length, travel_time);
        self.add_edge(b, a, length, travel_time);
    }

    /// Finalizes into a [`RoadNetwork`] (builds CSR adjacency and the
    /// endpoint → edge-id lookup).
    pub fn build(self) -> RoadNetwork {
        RoadNetwork::from_parts(self.coords, self.edges)
    }
}

/// A directed, weighted, plane-embedded road network.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    coords: Vec<Point>,
    edges: Vec<Edge>,
    // CSR out-adjacency: out_off[v]..out_off[v+1] indexes out_list.
    out_off: Vec<u32>,
    out_list: Vec<(VertexId, EdgeId)>,
    // CSR in-adjacency.
    in_off: Vec<u32>,
    in_list: Vec<(VertexId, EdgeId)>,
    // (from, to) -> edge id, for path <-> edge-string conversion.
    edge_lookup: HashMap<(VertexId, VertexId), EdgeId>,
}

impl RoadNetwork {
    pub(crate) fn from_parts(coords: Vec<Point>, edges: Vec<Edge>) -> Self {
        let n = coords.len();
        let mut out_deg = vec![0u32; n];
        let mut in_deg = vec![0u32; n];
        for e in &edges {
            out_deg[e.from as usize] += 1;
            in_deg[e.to as usize] += 1;
        }
        let mut out_off = Vec::with_capacity(n + 1);
        let mut in_off = Vec::with_capacity(n + 1);
        let (mut oacc, mut iacc) = (0u32, 0u32);
        out_off.push(0);
        in_off.push(0);
        for v in 0..n {
            oacc += out_deg[v];
            iacc += in_deg[v];
            out_off.push(oacc);
            in_off.push(iacc);
        }
        let mut out_list = vec![(0, 0); edges.len()];
        let mut in_list = vec![(0, 0); edges.len()];
        let mut out_cursor: Vec<u32> = out_off[..n].to_vec();
        let mut in_cursor: Vec<u32> = in_off[..n].to_vec();
        let mut edge_lookup = HashMap::with_capacity(edges.len());
        for (eid, e) in edges.iter().enumerate() {
            let eid = eid as EdgeId;
            out_list[out_cursor[e.from as usize] as usize] = (e.to, eid);
            out_cursor[e.from as usize] += 1;
            in_list[in_cursor[e.to as usize] as usize] = (e.from, eid);
            in_cursor[e.to as usize] += 1;
            edge_lookup.insert((e.from, e.to), eid);
        }
        RoadNetwork {
            coords,
            edges,
            out_off,
            out_list,
            in_off,
            in_list,
            edge_lookup,
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn coord(&self, v: VertexId) -> Point {
        self.coords[v as usize]
    }

    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e as usize]
    }

    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Out-neighbors of `v` as `(target, edge id)` pairs.
    pub fn out_neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        let (s, e) = (
            self.out_off[v as usize] as usize,
            self.out_off[v as usize + 1] as usize,
        );
        &self.out_list[s..e]
    }

    /// In-neighbors of `v` as `(source, edge id)` pairs.
    pub(crate) fn in_neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        let (s, e) = (
            self.in_off[v as usize] as usize,
            self.in_off[v as usize + 1] as usize,
        );
        &self.in_list[s..e]
    }

    pub(crate) fn out_degree(&self, v: VertexId) -> usize {
        self.out_neighbors(v).len()
    }

    /// The edge id for the pair `(from, to)`, if such an edge exists.
    pub fn find_edge(&self, from: VertexId, to: VertexId) -> Option<EdgeId> {
        self.edge_lookup.get(&(from, to)).copied()
    }

    /// Average out-degree; synthetic networks target the ~2.5–3.5 range
    /// typical of road networks (§5.2 of the paper: "typically three").
    pub fn avg_out_degree(&self) -> f64 {
        if self.coords.is_empty() {
            return 0.0;
        }
        self.edges.len() as f64 / self.coords.len() as f64
    }

    /// Checks that a vertex sequence is a path on the network (consecutive
    /// vertices joined by an edge).
    pub fn is_path(&self, vertices: &[VertexId]) -> bool {
        vertices
            .windows(2)
            .all(|w| self.find_edge(w[0], w[1]).is_some())
    }

    /// Converts a vertex path to the corresponding edge string (§2.1),
    /// returning `None` if the sequence is not a path.
    pub fn path_to_edges(&self, vertices: &[VertexId]) -> Option<Vec<EdgeId>> {
        vertices
            .windows(2)
            .map(|w| self.find_edge(w[0], w[1]))
            .collect()
    }

    /// Converts an edge string back to its vertex path; returns `None` if the
    /// edges are not consecutive or the string is empty.
    pub fn edges_to_path(&self, edges: &[EdgeId]) -> Option<Vec<VertexId>> {
        let first = *edges.first()?;
        let mut path = vec![self.edge(first).from, self.edge(first).to];
        for &eid in &edges[1..] {
            let e = self.edge(eid);
            if e.from != *path.last().unwrap() {
                return None;
            }
            path.push(e.to);
        }
        Some(path)
    }

    /// Undirected neighbor view used when symmetrizing shortest-path distance
    /// for NetEDR/NetERP (§2.2.3: "make the road network undirected"). When
    /// both directions exist with different weights the minimum is used.
    pub(crate) fn undirected_neighbors(&self, v: VertexId, mut f: impl FnMut(VertexId, f64)) {
        for &(to, eid) in self.out_neighbors(v) {
            let w = self.edge(eid).length;
            let w = match self.find_edge(to, v) {
                Some(back) => w.min(self.edge(back).length),
                None => w,
            };
            f(to, w);
        }
        for &(from, eid) in self.in_neighbors(v) {
            // Only emit pure in-neighbors here; symmetric pairs were handled above.
            if self.find_edge(v, from).is_none() {
                f(from, self.edge(eid).length);
            }
        }
    }

    /// Restricts the network to the vertex set `keep` (given as a boolean
    /// mask), remapping ids densely. Returns the subnetwork and the mapping
    /// `old id -> new id`.
    pub(crate) fn induced_subgraph(&self, keep: &[bool]) -> (RoadNetwork, Vec<Option<VertexId>>) {
        assert_eq!(keep.len(), self.num_vertices());
        let mut remap: Vec<Option<VertexId>> = vec![None; keep.len()];
        let mut coords = Vec::new();
        for (v, &k) in keep.iter().enumerate() {
            if k {
                remap[v] = Some(coords.len() as VertexId);
                coords.push(self.coords[v]);
            }
        }
        let mut edges = Vec::new();
        for e in &self.edges {
            if let (Some(f), Some(t)) = (remap[e.from as usize], remap[e.to as usize]) {
                edges.push(Edge {
                    from: f,
                    to: t,
                    ..*e
                });
            }
        }
        (RoadNetwork::from_parts(coords, edges), remap)
    }

    /// Vertex ids of the largest strongly connected component (iterative
    /// Kosaraju). Generators prune to this so random walks never dead-end.
    pub fn largest_scc(&self) -> Vec<bool> {
        let n = self.num_vertices();
        // First pass: DFS finishing order on the forward graph.
        let mut visited = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for start in 0..n as u32 {
            if visited[start as usize] {
                continue;
            }
            // Iterative DFS storing (vertex, next-neighbor-index).
            let mut stack = vec![(start, 0usize)];
            visited[start as usize] = true;
            while let Some(&mut (v, ref mut i)) = stack.last_mut() {
                let nbrs = self.out_neighbors(v);
                if *i < nbrs.len() {
                    let (to, _) = nbrs[*i];
                    *i += 1;
                    if !visited[to as usize] {
                        visited[to as usize] = true;
                        stack.push((to, 0));
                    }
                } else {
                    order.push(v);
                    stack.pop();
                }
            }
        }
        // Second pass: reverse graph, components in reverse finishing order.
        let mut comp = vec![u32::MAX; n];
        let mut ncomp = 0u32;
        for &start in order.iter().rev() {
            if comp[start as usize] != u32::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start as usize] = ncomp;
            while let Some(v) = stack.pop() {
                for &(from, _) in self.in_neighbors(v) {
                    if comp[from as usize] == u32::MAX {
                        comp[from as usize] = ncomp;
                        stack.push(from);
                    }
                }
            }
            ncomp += 1;
        }
        let mut sizes = vec![0usize; ncomp as usize];
        for &c in &comp {
            sizes[c as usize] += 1;
        }
        let best = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        comp.iter().map(|&c| c == best).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> RoadNetwork {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 0 (cycle back)
        let mut b = GraphBuilder::new();
        for (x, y) in [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0)] {
            b.add_vertex(Point::new(x, y));
        }
        b.add_edge(0, 1, 1.5, 1.0);
        b.add_edge(1, 3, 1.5, 1.0);
        b.add_edge(0, 2, 1.5, 1.0);
        b.add_edge(2, 3, 1.5, 1.0);
        b.add_edge(3, 0, 2.0, 1.0);
        b.build()
    }

    #[test]
    fn csr_adjacency_matches_edges() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        let mut outs: Vec<VertexId> = g.out_neighbors(0).iter().map(|&(v, _)| v).collect();
        outs.sort();
        assert_eq!(outs, vec![1, 2]);
        let ins: Vec<VertexId> = g.in_neighbors(3).iter().map(|&(v, _)| v).collect();
        assert_eq!(
            {
                let mut v = ins;
                v.sort();
                v
            },
            vec![1, 2]
        );
    }

    #[test]
    fn edge_lookup_roundtrip() {
        let g = diamond();
        let e = g.find_edge(0, 1).unwrap();
        assert_eq!(g.edge(e).from, 0);
        assert_eq!(g.edge(e).to, 1);
        assert_eq!(g.find_edge(1, 0), None);
    }

    #[test]
    fn path_edge_conversion_roundtrip() {
        let g = diamond();
        let path = vec![0, 1, 3, 0, 2];
        assert!(g.is_path(&path));
        let edges = g.path_to_edges(&path).unwrap();
        assert_eq!(edges.len(), 4);
        assert_eq!(g.edges_to_path(&edges).unwrap(), path);
    }

    #[test]
    fn non_path_rejected() {
        let g = diamond();
        assert!(!g.is_path(&[0, 3]));
        assert_eq!(g.path_to_edges(&[0, 3]), None);
    }

    #[test]
    fn edges_to_path_rejects_gap() {
        let g = diamond();
        let e01 = g.find_edge(0, 1).unwrap();
        let e23 = g.find_edge(2, 3).unwrap();
        assert_eq!(g.edges_to_path(&[e01, e23]), None);
        assert_eq!(g.edges_to_path(&[]), None);
    }

    #[test]
    fn scc_of_diamond_is_everything() {
        let g = diamond();
        let keep = g.largest_scc();
        assert!(keep.iter().all(|&k| k));
    }

    #[test]
    fn scc_drops_dangling_vertex() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(Point::new(i as f64, 0.0));
        }
        // 0 <-> 1 strongly connected; 2 reachable but no return; 3 isolated.
        b.add_edge(0, 1, 1.0, 1.0);
        b.add_edge(1, 0, 1.0, 1.0);
        b.add_edge(1, 2, 1.0, 1.0);
        let g = b.build();
        let keep = g.largest_scc();
        assert_eq!(keep, vec![true, true, false, false]);
        let (sub, remap) = g.induced_subgraph(&keep);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(remap[2], None);
        assert!(remap[0].is_some() && remap[1].is_some());
    }

    #[test]
    fn undirected_neighbors_symmetrize_min() {
        let mut b = GraphBuilder::new();
        b.add_vertex(Point::new(0.0, 0.0));
        b.add_vertex(Point::new(1.0, 0.0));
        b.add_edge(0, 1, 5.0, 1.0);
        b.add_edge(1, 0, 3.0, 1.0);
        let g = b.build();
        let mut seen = Vec::new();
        g.undirected_neighbors(0, |v, w| seen.push((v, w)));
        assert_eq!(seen, vec![(1, 3.0)]);
    }

    #[test]
    fn undirected_neighbors_include_pure_in_edges() {
        let mut b = GraphBuilder::new();
        b.add_vertex(Point::new(0.0, 0.0));
        b.add_vertex(Point::new(1.0, 0.0));
        b.add_edge(1, 0, 4.0, 1.0);
        let g = b.build();
        let mut seen = Vec::new();
        g.undirected_neighbors(0, |v, w| seen.push((v, w)));
        assert_eq!(seen, vec![(1, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_weight_edge_rejected() {
        let mut b = GraphBuilder::new();
        b.add_vertex(Point::new(0.0, 0.0));
        b.add_vertex(Point::new(1.0, 0.0));
        b.add_edge(0, 1, 0.0, 1.0);
    }
}
