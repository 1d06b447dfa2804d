//! q-gram count filtering for unit-cost WED instances (EDR/Lev), per
//! Appendix C of the paper.
//!
//! Offline, every length-`q` window of every trajectory is indexed. Online,
//! each query gram `x` is expanded to the grams that ε-match it elementwise
//! (the cartesian product of the substitution neighborhoods of its symbols),
//! occurrences are counted per trajectory, and trajectories with fewer than
//! `|Q| − q + 1 − ops·q` matching grams are pruned — the classic count bound
//! with `|Q|` lower-bounding `max(|P'|, |Q|)` and `ops` the number of
//! unit-cost edits allowed strictly below τ. Survivors are verified by the
//! SW threshold scan.
//!
//! Only meaningful for models whose edit operations all cost 1 (EDR, Lev,
//! NetEDR): under continuous costs the count bound prunes nothing, so the
//! constructor refuses a model that does not promise unit costs
//! ([`wed::CostModel::unit_costs`]).

use std::collections::HashMap;
use std::time::Instant;
use traj::{TrajId, TrajectoryStore};
use trajsearch_core::results::{sort_results, MatchResult};
use trajsearch_core::SearchStats;
use wed::{sw_scan_all, Sym, WedInstance};

/// q-gram inverted index over trajectory symbol windows.
pub struct QGramIndex<'a, M: WedInstance> {
    model: M,
    store: &'a TrajectoryStore,
    q: usize,
    /// gram -> one entry per occurrence (with multiplicity).
    grams: HashMap<Vec<Sym>, Vec<TrajId>>,
    build_time: std::time::Duration,
}

impl<'a, M: WedInstance> QGramIndex<'a, M> {
    /// Builds the gram index; `gram_len` is the paper's q (they use 3).
    ///
    /// # Panics
    /// Panics if `model` does not have unit costs.
    pub fn new(model: M, store: &'a TrajectoryStore, gram_len: usize) -> Self {
        assert!(gram_len >= 1);
        assert!(
            model.unit_costs(),
            "q-gram filtering needs unit costs; {} does not have them",
            model.name()
        );
        let t0 = Instant::now();
        let mut grams: HashMap<Vec<Sym>, Vec<TrajId>> = HashMap::new();
        for (id, t) in store.iter() {
            for w in t.path().windows(gram_len) {
                grams.entry(w.to_vec()).or_default().push(id);
            }
        }
        QGramIndex {
            model,
            store,
            q: gram_len,
            grams,
            build_time: t0.elapsed(),
        }
    }

    pub fn build_time(&self) -> std::time::Duration {
        self.build_time
    }

    /// Approximate index size in bytes (gram keys + postings).
    pub fn size_bytes(&self) -> usize {
        self.grams
            .iter()
            .map(|(k, v)| {
                k.len() * std::mem::size_of::<Sym>()
                    + v.len() * std::mem::size_of::<TrajId>()
                    + std::mem::size_of::<Vec<Sym>>()
            })
            .sum()
    }

    /// Expands a query gram to all ε-matching grams (cartesian product of
    /// the per-position neighborhoods) and accumulates per-trajectory
    /// occurrence counts.
    fn count_matches(&self, gram: &[Sym], counts: &mut HashMap<TrajId, usize>) {
        let neighborhoods: Vec<Vec<Sym>> = gram.iter().map(|&s| self.model.neighbors(s)).collect();
        let mut idx = vec![0usize; gram.len()];
        let mut key = vec![0 as Sym; gram.len()];
        loop {
            for (d, &i) in idx.iter().enumerate() {
                key[d] = neighborhoods[d][i];
            }
            if let Some(posting) = self.grams.get(&key) {
                for &id in posting {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
            // Odometer increment over the product space.
            let mut d = 0;
            loop {
                if d == gram.len() {
                    return;
                }
                idx[d] += 1;
                if idx[d] < neighborhoods[d].len() {
                    break;
                }
                idx[d] = 0;
                d += 1;
            }
        }
    }

    /// Filter-and-verify search. Exact for unit-cost models.
    pub fn search(&self, query: &[Sym], tau: f64) -> (Vec<MatchResult>, SearchStats) {
        assert!(tau > 0.0 && !query.is_empty());
        let mut stats = SearchStats::default();
        let t0 = Instant::now();

        // Edits allowed strictly below tau (unit costs).
        let ops = (tau - 1e-12).floor().max(0.0) as i64;
        let needed = query.len() as i64 - self.q as i64 + 1 - ops * self.q as i64;

        let candidate_ids: Vec<TrajId> = if query.len() < self.q || needed <= 0 {
            // No useful bound: every trajectory is a candidate.
            self.store.iter().map(|(id, _)| id).collect()
        } else {
            let mut counts: HashMap<TrajId, usize> = HashMap::new();
            for gram in query.windows(self.q) {
                self.count_matches(gram, &mut counts);
            }
            let mut ids: Vec<TrajId> = counts
                .into_iter()
                .filter(|&(_, c)| c as i64 >= needed)
                .map(|(id, _)| id)
                .collect();
            ids.sort_unstable();
            ids
        };
        stats.lookup_time = t0.elapsed();
        stats.candidates = candidate_ids.len();
        stats.candidates_after_temporal = candidate_ids.len();

        let t1 = Instant::now();
        let mut out = Vec::new();
        for id in candidate_ids {
            let t = self.store.get(id);
            stats.sw_columns += t.len() as u64;
            stats.verify_cost += t.len() as u64;
            for m in sw_scan_all(&self.model, t.path(), query, tau) {
                out.push(MatchResult {
                    id,
                    start: m.start,
                    end: m.end,
                    dist: m.dist,
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
    use traj::Trajectory;
    use wed::models::Lev;

    fn random_store(rng: &mut ChaCha8Rng, n: usize, alpha: u32) -> TrajectoryStore {
        (0..n)
            .map(|_| {
                let len = rng.gen_range(3..20);
                Trajectory::untimed((0..len).map(|_| rng.gen_range(0..alpha)).collect())
            })
            .collect()
    }

    #[test]
    fn equals_naive_for_lev() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let store = random_store(&mut rng, 20, 6);
        let idx = QGramIndex::new(&Lev, &store, 3);
        for _ in 0..10 {
            let qlen = rng.gen_range(3..8);
            let q: Vec<Sym> = (0..qlen).map(|_| rng.gen_range(0..6)).collect();
            let tau = rng.gen_range(0.5..3.0);
            let (got, _) = idx.search(&q, tau);
            let want = naive_search(&Lev, &store, &q, tau);
            assert_eq!(got.len(), want.len(), "q={q:?} tau={tau}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.id, g.start, g.end), (w.id, w.start, w.end));
            }
        }
    }

    #[test]
    fn short_queries_degrade_to_full_scan() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let store = random_store(&mut rng, 10, 5);
        let idx = QGramIndex::new(&Lev, &store, 3);
        let (got, stats) = idx.search(&[1, 2], 1.0); // |Q| < q
        assert_eq!(stats.candidates, store.len());
        let want = naive_search(&Lev, &store, &[1, 2], 1.0);
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn count_filter_prunes_some_trajectories() {
        // With a tight tau and distinctive query symbols, the filter must
        // prune at least the trajectories sharing no gram with Q.
        let mut store = TrajectoryStore::new();
        store.push(Trajectory::untimed(vec![1, 2, 3, 4, 5]));
        store.push(Trajectory::untimed(vec![7, 7, 7, 7, 7]));
        let idx = QGramIndex::new(&Lev, &store, 3);
        let (got, stats) = idx.search(&[1, 2, 3, 4], 1.0);
        assert!(stats.candidates < store.len());
        // One SW scan of the surviving trajectory, charged as both units.
        assert_eq!(stats.sw_columns, 5);
        assert_eq!(stats.verify_cost, stats.sw_columns);
        assert!(got.iter().all(|m| m.id == 0));
        assert!(!got.is_empty());
    }

    #[test]
    #[should_panic(expected = "q-gram filtering needs unit costs")]
    fn refuses_continuous_costs() {
        let net = std::sync::Arc::new(
            rnet::CityParams::tiny(rnet::NetworkKind::Grid)
                .seed(13)
                .generate(),
        );
        let erp = wed::models::Erp::new(net, 1.0);
        QGramIndex::new(&erp, &TrajectoryStore::new(), 3);
    }

    #[test]
    fn index_size_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let store = random_store(&mut rng, 10, 5);
        let idx = QGramIndex::new(&Lev, &store, 3);
        assert!(idx.size_bytes() > 0);
    }
}
