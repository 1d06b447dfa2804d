//! Property-based tests of the road-network substrate.

use proptest::prelude::*;
use rnet::dijkstra::{bounded, shortest_path, sssp, Mode};
use rnet::{CityParams, GraphBuilder, HubLabels, KdTree, NetworkKind, Point};

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((-500.0f64..500.0, -500.0f64..500.0), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// kd-tree range queries equal a linear scan.
    #[test]
    fn kdtree_range_equals_scan(
        pts in arb_points(120),
        cx in -600.0f64..600.0,
        cy in -600.0f64..600.0,
        r in 0.0f64..400.0,
    ) {
        let tree = KdTree::build(&pts);
        let c = Point::new(cx, cy);
        let mut got = tree.range(c, r);
        got.sort();
        let mut want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(&c) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// kd-tree nearest (no id excluded) equals a linear scan.
    #[test]
    fn kdtree_nearest_equals_scan(
        pts in arb_points(120),
        cx in -600.0f64..600.0,
        cy in -600.0f64..600.0,
    ) {
        let tree = KdTree::build(&pts);
        let c = Point::new(cx, cy);
        let (_, got) = tree.nearest_filtered(c, |_| true).unwrap();
        let want = pts.iter().map(|p| p.dist(&c)).fold(f64::INFINITY, f64::min);
        prop_assert!((got - want).abs() < 1e-9);
    }

    /// nearest_outside returns the minimum distance strictly beyond r.
    #[test]
    fn kdtree_nearest_outside_equals_scan(
        pts in arb_points(100),
        r in 0.0f64..300.0,
        pick in 0usize..100,
    ) {
        let tree = KdTree::build(&pts);
        let c = pts[pick % pts.len()];
        let want = pts.iter().map(|p| p.dist(&c)).filter(|&d| d > r).fold(f64::INFINITY, f64::min);
        match tree.nearest_outside(c, r) {
            Some((_, d)) => prop_assert!((d - want).abs() < 1e-9),
            None => prop_assert!(want.is_infinite()),
        }
    }

    /// Triangle inequality of shortest-path distances on generated networks:
    /// d(a,c) <= d(a,b) + d(b,c) in the undirected symmetrization.
    #[test]
    fn sp_triangle_inequality(seed in 0u64..16, a in 0u32..64, b in 0u32..64, c in 0u32..64) {
        let g = CityParams::tiny(NetworkKind::City).seed(seed).generate();
        let n = g.num_vertices() as u32;
        let (a, b, c) = (a % n, b % n, c % n);
        let da = sssp(&g, a, Mode::UndirectedLength);
        let db = sssp(&g, b, Mode::UndirectedLength);
        prop_assert!(da[c as usize] <= da[b as usize] + db[c as usize] + 1e-6);
    }

    /// Hub-label queries equal Dijkstra on random generated networks.
    #[test]
    fn hub_labels_equal_dijkstra(seed in 0u64..12, src in 0u32..64) {
        let g = CityParams::tiny(NetworkKind::City).seed(seed).generate();
        let src = src % g.num_vertices() as u32;
        let hl = HubLabels::build(&g);
        let d = sssp(&g, src, Mode::UndirectedLength);
        for v in 0..g.num_vertices() as u32 {
            let q = hl.query(src, v);
            if d[v as usize].is_finite() {
                prop_assert!((q - d[v as usize]).abs() < 1e-6);
            } else {
                prop_assert!(q.is_infinite());
            }
        }
    }

    /// Bounded Dijkstra's in-radius set and next-beyond agree with full SSSP.
    #[test]
    fn bounded_agrees_with_sssp(seed in 0u64..12, src in 0u32..64, radius in 0.0f64..2000.0) {
        let g = CityParams::tiny(NetworkKind::City).seed(seed).generate();
        let src = src % g.num_vertices() as u32;
        let full = sssp(&g, src, Mode::UndirectedLength);
        let b = bounded(&g, src, radius, Mode::UndirectedLength);
        let within: std::collections::HashSet<u32> = b.within.iter().map(|&(v, _)| v).collect();
        for v in 0..g.num_vertices() as u32 {
            let d = full[v as usize];
            prop_assert_eq!(within.contains(&v), d <= radius, "v={} d={} r={}", v, d, radius);
        }
        let want_beyond = full.iter().cloned().filter(|&d| d > radius).fold(f64::INFINITY, f64::min);
        match b.next_beyond {
            Some(d) => prop_assert!((d - want_beyond).abs() < 1e-9),
            None => prop_assert!(want_beyond.is_infinite()),
        }
    }

    /// Point-to-point shortest path cost matches SSSP and the path is valid.
    #[test]
    fn p2p_matches_sssp(seed in 0u64..12, s in 0u32..64, t in 0u32..64) {
        let g = CityParams::tiny(NetworkKind::City).seed(seed).generate();
        let n = g.num_vertices() as u32;
        let (s, t) = (s % n, t % n);
        let full = sssp(&g, s, Mode::DirectedLength);
        match shortest_path(&g, s, t, Mode::DirectedLength) {
            Some((path, cost)) => {
                prop_assert!((cost - full[t as usize]).abs() < 1e-9);
                prop_assert!(g.is_path(&path));
                prop_assert_eq!(*path.first().unwrap(), s);
                prop_assert_eq!(*path.last().unwrap(), t);
                // Path cost really is the sum of its edge lengths.
                let sum: f64 = path.windows(2).map(|w| g.edge(g.find_edge(w[0], w[1]).unwrap()).length).sum();
                prop_assert!((sum - cost).abs() < 1e-9);
            }
            None => prop_assert!(full[t as usize].is_infinite()),
        }
    }

    /// Generated city networks are strongly connected with positive weights.
    #[test]
    fn generated_networks_are_wellformed(seed in 0u64..24) {
        let g = CityParams::tiny(NetworkKind::City).seed(seed).generate();
        prop_assert!(g.num_vertices() >= 2);
        prop_assert!(g.largest_scc().iter().all(|&k| k));
        for e in g.edges() {
            prop_assert!(e.length > 0.0 && e.travel_time > 0.0);
        }
    }
}

#[test]
fn builder_roundtrip_smoke() {
    let mut b = GraphBuilder::new();
    let v0 = b.add_vertex(Point::new(0.0, 0.0));
    let v1 = b.add_vertex(Point::new(10.0, 0.0));
    b.add_bidirectional(v0, v1, 10.0, 1.0);
    let g = b.build();
    assert_eq!(g.num_edges(), 2);
    assert_eq!(sssp(&g, v0, Mode::DirectedLength)[v1 as usize], 10.0);
}
