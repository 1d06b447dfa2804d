//! A static 2-d tree over vertex coordinates.
//!
//! Used for the spatial queries of §4.2: range queries materialize the
//! substitution neighborhoods `B(q)` of EDR/ERP, and `nearest_outside`
//! computes the Eq. (7) lower cost `c(q)` for ERP (the cheapest
//! substitution *not* in `B(q)`).

use crate::geo::Point;
use crate::graph::VertexId;

/// Static kd-tree over a fixed point set. Points are referenced by the index
/// they had in the input slice (which for road networks is the vertex id).
#[derive(Debug, Clone)]
pub struct KdTree {
    points: Vec<Point>,
    /// Node-ordered point indices: a balanced tree laid out by recursive
    /// median split; `nodes[mid]` is the split point of each range.
    nodes: Vec<u32>,
}

impl KdTree {
    /// Builds a kd-tree over `points`. O(n log² n) via sort-based median
    /// selection (build time is irrelevant next to index construction).
    pub fn build(points: &[Point]) -> Self {
        let mut nodes: Vec<u32> = (0..points.len() as u32).collect();
        let pts = points.to_vec();
        build_rec(&pts, &mut nodes, 0);
        KdTree { points: pts, nodes }
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All point ids within Euclidean distance `r` (inclusive) of `center`.
    pub fn range(&self, center: Point, r: f64) -> Vec<VertexId> {
        assert!(r >= 0.0);
        let mut out = Vec::new();
        if !self.is_empty() {
            self.range_rec(0, self.nodes.len(), 0, center, r * r, &mut out);
        }
        out
    }

    fn range_rec(
        &self,
        lo: usize,
        hi: usize,
        axis: usize,
        c: Point,
        r2: f64,
        out: &mut Vec<VertexId>,
    ) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let idx = self.nodes[mid];
        let p = self.points[idx as usize];
        if p.dist2(&c) <= r2 {
            out.push(idx);
        }
        let delta = if axis == 0 { c.x - p.x } else { c.y - p.y };
        let next = (axis + 1) % 2;
        // Search the side containing the query first, the other side only if
        // the splitting plane is within range.
        let (near, far) = if delta <= 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.range_rec(near.0, near.1, next, c, r2, out);
        if delta * delta <= r2 {
            self.range_rec(far.0, far.1, next, c, r2, out);
        }
    }

    /// Nearest point strictly farther than `r` from `center`.
    ///
    /// This realizes Eq. (7) for ERP: `c(q) = min_{q' ∉ B(q)} sub(q, q')`
    /// where `B(q)` is the radius-`r` ball.
    pub fn nearest_outside(&self, center: Point, r: f64) -> Option<(VertexId, f64)> {
        let r2 = r * r;
        self.nearest_filtered_with_min(center, move |p: &Point, c: &Point| p.dist2(c) > r2)
    }

    /// Nearest point among those whose id passes `keep`.
    pub fn nearest_filtered(
        &self,
        center: Point,
        keep: impl Fn(VertexId) -> bool,
    ) -> Option<(VertexId, f64)> {
        let mut best: Option<(VertexId, f64)> = None;
        if !self.is_empty() {
            self.nearest_rec(0, self.nodes.len(), 0, center, &mut best, &|id, _p| {
                keep(id)
            });
        }
        best.map(|(id, d2)| (id, d2.sqrt()))
    }

    fn nearest_filtered_with_min(
        &self,
        center: Point,
        pred: impl Fn(&Point, &Point) -> bool,
    ) -> Option<(VertexId, f64)> {
        let mut best: Option<(VertexId, f64)> = None;
        if !self.is_empty() {
            let c = center;
            self.nearest_rec(0, self.nodes.len(), 0, center, &mut best, &move |_id, p| {
                pred(p, &c)
            });
        }
        best.map(|(id, d2)| (id, d2.sqrt()))
    }

    fn nearest_rec(
        &self,
        lo: usize,
        hi: usize,
        axis: usize,
        c: Point,
        best: &mut Option<(VertexId, f64)>,
        keep: &dyn Fn(VertexId, &Point) -> bool,
    ) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let idx = self.nodes[mid];
        let p = self.points[idx as usize];
        let d2 = p.dist2(&c);
        if keep(idx, &p) && best.is_none_or(|(_, b)| d2 < b) {
            *best = Some((idx, d2));
        }
        let delta = if axis == 0 { c.x - p.x } else { c.y - p.y };
        let next = (axis + 1) % 2;
        let (near, far) = if delta <= 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.nearest_rec(near.0, near.1, next, c, best, keep);
        // The far side can only help if the splitting plane is closer than
        // the current best (or no best exists yet, e.g. all near-side points
        // were filtered out).
        if best.is_none_or(|(_, b)| delta * delta < b) {
            self.nearest_rec(far.0, far.1, next, c, best, keep);
        }
    }
}

fn build_rec(points: &[Point], nodes: &mut [u32], axis: usize) {
    if nodes.len() <= 1 {
        return;
    }
    let mid = nodes.len() / 2;
    nodes.select_nth_unstable_by(mid, |&a, &b| {
        let (pa, pb) = (points[a as usize], points[b as usize]);
        let (ka, kb) = if axis == 0 {
            (pa.x, pb.x)
        } else {
            (pa.y, pb.y)
        };
        ka.total_cmp(&kb)
    });
    let (left, rest) = nodes.split_at_mut(mid);
    let right = &mut rest[1..];
    let next = (axis + 1) % 2;
    build_rec(points, left, next);
    build_rec(points, right, next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
            .collect()
    }

    fn brute_range(pts: &[Point], c: Point, r: f64) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dist(&c) <= r)
            .map(|(i, _)| i as VertexId)
            .collect();
        v.sort();
        v
    }

    #[test]
    fn range_matches_brute_force() {
        let pts = random_points(500, 1);
        let t = KdTree::build(&pts);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..50 {
            let c = Point::new(rng.gen_range(-110.0..110.0), rng.gen_range(-110.0..110.0));
            let r = rng.gen_range(0.0..60.0);
            let mut got = t.range(c, r);
            got.sort();
            assert_eq!(got, brute_range(&pts, c, r));
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(300, 3);
        let t = KdTree::build(&pts);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..50 {
            let c = Point::new(rng.gen_range(-110.0..110.0), rng.gen_range(-110.0..110.0));
            let (got, gd) = t.nearest_filtered(c, |_| true).unwrap();
            let bd = pts.iter().map(|p| p.dist(&c)).fold(f64::INFINITY, f64::min);
            assert!(
                (gd - bd).abs() < 1e-9,
                "nearest dist mismatch: {gd} vs {bd}"
            );
            assert!((pts[got as usize].dist(&c) - bd).abs() < 1e-9);
        }
    }

    #[test]
    fn nearest_outside_matches_brute_force() {
        let pts = random_points(300, 5);
        let t = KdTree::build(&pts);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..50 {
            let c = pts[rng.gen_range(0..pts.len())];
            let r = rng.gen_range(0.0..80.0);
            let got = t.nearest_outside(c, r);
            let brute = pts
                .iter()
                .map(|p| p.dist(&c))
                .filter(|&d| d > r)
                .fold(f64::INFINITY, f64::min);
            match got {
                Some((_, d)) => assert!((d - brute).abs() < 1e-9, "{d} vs {brute} (r={r})"),
                None => assert!(brute.is_infinite()),
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(t.nearest_filtered(Point::new(0.0, 0.0), |_| true), None);
        assert!(t.range(Point::new(0.0, 0.0), 10.0).is_empty());

        let t1 = KdTree::build(&[Point::new(1.0, 1.0)]);
        assert_eq!(t1.len(), 1);
        assert_eq!(
            t1.nearest_filtered(Point::new(0.0, 1.0), |_| true),
            Some((0, 1.0))
        );
        assert_eq!(t1.range(Point::new(0.0, 1.0), 0.5), Vec::<VertexId>::new());
        assert_eq!(t1.range(Point::new(0.0, 1.0), 1.0), vec![0]);
    }

    #[test]
    fn range_is_inclusive_nearest_outside_exclusive() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let t = KdTree::build(&pts);
        let mut r = t.range(Point::new(0.0, 0.0), 1.0);
        r.sort();
        assert_eq!(r, vec![0, 1]); // distance exactly 1.0 is inside

        // Point at exactly r=1.0 is NOT "outside".
        assert_eq!(t.nearest_outside(Point::new(0.0, 0.0), 1.0), None);
        let (id, d) = t.nearest_outside(Point::new(0.0, 0.0), 0.5).unwrap();
        assert_eq!((id, d), (1, 1.0));
    }

    #[test]
    fn nearest_filtered_skips_excluded_ids() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(5.0, 0.0),
        ];
        let t = KdTree::build(&pts);
        let (id, d) = t
            .nearest_filtered(Point::new(0.1, 0.0), |v| v != 0)
            .unwrap();
        assert_eq!(id, 1);
        assert!((d - 1.9).abs() < 1e-12);
    }
}
