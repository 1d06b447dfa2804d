//! ERP-index baseline (§6.1): coordinate-sum lower bound over enumerated
//! subtrajectories.
//!
//! Chen & Ng's ERP index exploits that, with coordinates centered on the
//! reference point `g`, every edit operation changes the coordinate sum by
//! at most its cost: substitution `a→b` moves the sum by `‖a−b‖ = sub`,
//! insertion/deletion by `‖a−g‖ = ins/del`. By the triangle inequality over
//! any edit script, `‖Σ(P−g) − Σ(Q−g)‖ ≤ ERP(P, Q)` — so a range query of
//! radius τ around the query's centered sum is a complete filter.
//!
//! Like DITA, whole-matching semantics force offline enumeration of all
//! subtrajectories; the paper therefore evaluates it on dataset fractions.

use rnet::{KdTree, Point};
use std::time::{Duration, Instant};
use traj::{TrajId, TrajectoryStore};
use trajsearch_core::results::{sort_results, MatchResult};
use trajsearch_core::SearchStats;
use wed::models::Erp;
use wed::{wed_within, Sym};

/// Cap matching [`crate::dita`]'s enumeration guard.
const MAX_SUBTRAJECTORIES: usize = 20_000_000;

/// kd-tree over reference-centered coordinate sums of all subtrajectories.
pub struct ErpIndex<'a> {
    erp: &'a Erp,
    store: &'a TrajectoryStore,
    tree: KdTree,
    entries: Vec<(TrajId, u32, u32)>,
    build_time: Duration,
}

impl<'a> ErpIndex<'a> {
    pub fn new(erp: &'a Erp, store: &'a TrajectoryStore) -> Self {
        let total: usize = store.iter().map(|(_, t)| t.len() * (t.len() + 1) / 2).sum();
        assert!(
            total <= MAX_SUBTRAJECTORIES,
            "{total} subtrajectories exceed the enumeration cap; use a dataset fraction"
        );
        let t0 = Instant::now();
        let g = erp.reference();
        let mut points = Vec::with_capacity(total);
        let mut entries = Vec::with_capacity(total);
        for (id, t) in store.iter() {
            let p = t.path();
            // Prefix sums of centered coordinates for O(1) range sums.
            let mut pre = Vec::with_capacity(p.len() + 1);
            pre.push(Point::new(0.0, 0.0));
            for &sym in p {
                let c = erp.coord(sym).sub(&g);
                pre.push(pre.last().unwrap().add(&c));
            }
            for s in 0..p.len() {
                for e in s..p.len() {
                    points.push(pre[e + 1].sub(&pre[s]));
                    entries.push((id, s as u32, e as u32));
                }
            }
        }
        let tree = KdTree::build(&points);
        ErpIndex {
            erp,
            store,
            tree,
            entries,
            build_time: t0.elapsed(),
        }
    }

    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Approximate index size in bytes (points + entry triples).
    pub fn size_bytes(&self) -> usize {
        self.entries.len()
            * (std::mem::size_of::<Point>() + std::mem::size_of::<(TrajId, u32, u32)>())
    }

    /// Range-filtered exact search under ERP.
    pub fn search(&self, q: &[Sym], tau: f64) -> (Vec<MatchResult>, SearchStats) {
        assert!(tau > 0.0 && !q.is_empty());
        let mut stats = SearchStats::default();
        let t0 = Instant::now();
        let g = self.erp.reference();
        let center = q.iter().fold(Point::new(0.0, 0.0), |acc, &sym| {
            acc.add(&self.erp.coord(sym).sub(&g))
        });
        let hits = self.tree.range(center, tau);
        stats.lookup_time = t0.elapsed();
        stats.candidates = hits.len();
        stats.candidates_after_temporal = hits.len();

        let t1 = Instant::now();
        let mut out = Vec::new();
        for h in hits {
            let (id, s, e) = self.entries[h as usize];
            let p = self.store.get(id).path();
            if let Some(d) = wed_within(self.erp, &p[s as usize..=e as usize], q, tau) {
                out.push(MatchResult {
                    id,
                    start: s as usize,
                    end: e as usize,
                    dist: d,
                });
            }
        }
        sort_results(&mut out);
        stats.verify_time = t1.elapsed();
        stats.results = out.len();
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_search;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rnet::{CityParams, NetworkKind, RoadNetwork};
    use std::sync::Arc;
    use traj::generator::random_walk;
    use traj::Trajectory;
    use wed::wed;

    fn setup() -> (Arc<RoadNetwork>, TrajectoryStore) {
        let net = Arc::new(CityParams::tiny(NetworkKind::Grid).generate());
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let store: TrajectoryStore = (0..8)
            .map(|_| {
                let start = rng.gen_range(0..net.num_vertices() as u32);
                let len = rng.gen_range(2..8);
                Trajectory::untimed(random_walk(&net, &mut rng, start, len))
            })
            .collect();
        (net, store)
    }

    #[test]
    fn equals_naive_for_erp() {
        let (net, store) = setup();
        let erp = Erp::new(net.clone(), 10.0);
        let idx = ErpIndex::new(&erp, &store);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..6 {
            let start = rng.gen_range(0..net.num_vertices() as u32);
            let q = random_walk(&net, &mut rng, start, 4);
            // tau around a couple of grid cells of cost.
            let tau = rng.gen_range(100.0..500.0);
            let (got, _) = idx.search(&q, tau);
            let want = naive_search(&erp, &store, &q, tau);
            assert_eq!(got.len(), want.len(), "q={q:?} tau={tau}");
            for (gm, wm) in got.iter().zip(&want) {
                assert_eq!((gm.id, gm.start, gm.end), (wm.id, wm.start, wm.end));
            }
        }
    }

    #[test]
    fn sum_lower_bound_holds() {
        let (net, _store) = setup();
        let erp = Erp::new(net.clone(), 10.0);
        let g = erp.reference();
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        for _ in 0..40 {
            let (sa, la) = (
                rng.gen_range(0..net.num_vertices() as u32),
                rng.gen_range(1..7),
            );
            let a = random_walk(&net, &mut rng, sa, la);
            let (sb, lb_len) = (
                rng.gen_range(0..net.num_vertices() as u32),
                rng.gen_range(1..7),
            );
            let b = random_walk(&net, &mut rng, sb, lb_len);
            let sum = |s: &[Sym]| {
                s.iter().fold(Point::new(0.0, 0.0), |acc, &v| {
                    acc.add(&erp.coord(v).sub(&g))
                })
            };
            let lb = sum(&a).sub(&sum(&b)).norm();
            let d = wed(&erp, &a, &b);
            assert!(lb <= d + 1e-6, "LB {lb} > ERP {d}");
        }
    }

    #[test]
    fn candidate_count_and_size_reported() {
        let (net, store) = setup();
        let erp = Erp::new(net.clone(), 10.0);
        let idx = ErpIndex::new(&erp, &store);
        let expected: usize = store.iter().map(|(_, t)| t.len() * (t.len() + 1) / 2).sum();
        assert_eq!(idx.entries.len(), expected);
        assert!(idx.size_bytes() > 0);
        let (_, stats) = idx.search(&[0, 1], 200.0);
        assert!(stats.candidates <= expected);
    }
}
