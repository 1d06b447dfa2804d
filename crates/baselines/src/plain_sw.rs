//! Plain-SW: index-free Smith–Waterman scan over the whole database (§6.1).
//!
//! The strongest *non-indexing* exact method: one threshold-bounded SW scan
//! per trajectory, O(Σ|P|·|Q|)-ish with early termination. This is the
//! baseline the paper reports taking >30 minutes per query at 1M
//! trajectories.

use std::time::Instant;
use traj::TrajectoryStore;
use trajsearch_core::results::{sort_results, MatchResult};
use trajsearch_core::SearchStats;
use wed::{sw_scan_all, CostModel, Sym};

/// Scans every trajectory with the SW threshold scan; returns the exact
/// result set and phase-attributed stats (all time counted as verification).
pub fn plain_sw_search<M: CostModel>(
    model: &M,
    store: &TrajectoryStore,
    q: &[Sym],
    tau: f64,
) -> (Vec<MatchResult>, SearchStats) {
    let mut stats = SearchStats::default();
    let t0 = Instant::now();
    let mut out = Vec::new();
    for (id, t) in store.iter() {
        stats.sw_columns += t.len() as u64;
        stats.verify_cost += t.len() as u64;
        for m in sw_scan_all(model, t.path(), q, tau) {
            out.push(MatchResult {
                id,
                start: m.start,
                end: m.end,
                dist: m.dist,
            });
        }
    }
    sort_results(&mut out);
    stats.verify_time = t0.elapsed();
    stats.results = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_search;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use traj::Trajectory;
    use wed::models::Lev;

    #[test]
    fn equals_naive_on_random_data() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let store: TrajectoryStore = (0..12)
            .map(|_| {
                let n = rng.gen_range(1..15);
                Trajectory::untimed((0..n).map(|_| rng.gen_range(0..6)).collect())
            })
            .collect();
        for _ in 0..10 {
            let qlen = rng.gen_range(1..5);
            let q: Vec<Sym> = (0..qlen).map(|_| rng.gen_range(0..6)).collect();
            let tau = rng.gen_range(0.5..3.5);
            let (got, stats) = plain_sw_search(&Lev, &store, &q, tau);
            let want = naive_search(&Lev, &store, &q, tau);
            assert_eq!(got.len(), want.len(), "q={q:?} tau={tau}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.id, g.start, g.end), (w.id, w.start, w.end));
                assert!((g.dist - w.dist).abs() < 1e-9);
            }
            assert_eq!(stats.results, got.len());
            let columns: usize = store.iter().map(|(_, t)| t.len()).sum();
            assert_eq!(stats.sw_columns, columns as u64);
            assert_eq!(stats.verify_cost, stats.sw_columns);
        }
    }
}
