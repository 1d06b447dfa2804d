//! DITA-style pivot index, adapted per Appendix C.
//!
//! DITA (Shang et al.) is a whole-matching method; to answer subtrajectory
//! queries the paper enumerates **all** subtrajectories offline and indexes
//! them — which is why it only runs on dataset fractions (Figures 9–10).
//!
//! For each subtrajectory, `K` pivot symbols are chosen (endpoints plus the
//! symbols with the largest deletion cost, the option that performed best in
//! the paper's tuning). The WED lower bound is
//! `LB(P', Q) = Σ_{p∈P'} min_{q ∈ Q ∪ {ε}} sub(p, q) ≤ wed(P, Q)`:
//! every pivot must be aligned to some query symbol or deleted. Identical
//! pivot multisets share one lower-bound evaluation (the trie of the
//! original system collapses equal pivot prefixes the same way).

use std::collections::HashMap;
use std::time::{Duration, Instant};
use traj::{TrajId, TrajectoryStore};
use trajsearch_core::results::{sort_results, MatchResult};
use trajsearch_core::SearchStats;
use wed::{wed_within, CostModel, Sym};

/// Safety cap on enumerated subtrajectories (the paper hits memory limits
/// the same way; 1.4 billion for full Beijing).
const MAX_SUBTRAJECTORIES: usize = 20_000_000;

/// Pivot-indexed subtrajectory store.
pub struct DitaIndex<'a, M: CostModel> {
    model: M,
    store: &'a TrajectoryStore,
    /// sorted pivot multiset -> subtrajectories carrying it.
    groups: HashMap<Vec<Sym>, Vec<(TrajId, u32, u32)>>,
    build_time: Duration,
}

impl<'a, M: CostModel> DitaIndex<'a, M> {
    /// Enumerates and indexes all subtrajectories with `k` pivots each.
    pub fn new(model: M, store: &'a TrajectoryStore, k: usize) -> Self {
        assert!(k >= 2, "need at least the two endpoint pivots");
        let total: usize = store.iter().map(|(_, t)| t.len() * (t.len() + 1) / 2).sum();
        assert!(
            total <= MAX_SUBTRAJECTORIES,
            "{total} subtrajectories exceed the enumeration cap; use a dataset fraction"
        );
        let t0 = Instant::now();
        let mut groups: HashMap<Vec<Sym>, Vec<(TrajId, u32, u32)>> = HashMap::new();
        for (id, t) in store.iter() {
            let p = t.path();
            for s in 0..p.len() {
                for e in s..p.len() {
                    let pivots = select_pivots(&model, &p[s..=e], k);
                    groups
                        .entry(pivots)
                        .or_default()
                        .push((id, s as u32, e as u32));
                }
            }
        }
        DitaIndex {
            model,
            store,
            groups,
            build_time: t0.elapsed(),
        }
    }

    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Approximate index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.groups
            .iter()
            .map(|(k, v)| {
                k.len() * std::mem::size_of::<Sym>()
                    + v.len() * std::mem::size_of::<(TrajId, u32, u32)>()
                    + std::mem::size_of::<Vec<Sym>>()
            })
            .sum()
    }

    /// Lower-bound-filtered search; exact because survivors are verified
    /// with the full WED.
    pub fn search(&self, q: &[Sym], tau: f64) -> (Vec<MatchResult>, SearchStats) {
        assert!(tau > 0.0 && !q.is_empty());
        let mut stats = SearchStats::default();
        let t0 = Instant::now();
        let mut survivors: Vec<(TrajId, u32, u32)> = Vec::new();
        for (pivots, subs) in &self.groups {
            // One LB evaluation per distinct pivot multiset.
            let lb: f64 = pivots
                .iter()
                .map(|&p| {
                    let best_sub = q
                        .iter()
                        .map(|&qs| self.model.sub(p, qs))
                        .fold(f64::INFINITY, f64::min);
                    best_sub.min(self.model.del(p))
                })
                .sum();
            if lb < tau {
                survivors.extend_from_slice(subs);
            }
        }
        stats.lookup_time = t0.elapsed();
        stats.candidates = survivors.len();
        stats.candidates_after_temporal = survivors.len();

        let t1 = Instant::now();
        let mut out = Vec::new();
        for (id, s, e) in survivors {
            let p = self.store.get(id).path();
            if let Some(d) = wed_within(&self.model, &p[s as usize..=e as usize], q, tau) {
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

/// Chooses up to `k` pivot positions: both endpoints plus the symbols with
/// the largest deletion cost; returns the sorted symbol multiset.
fn select_pivots<M: CostModel>(model: &M, sub: &[Sym], k: usize) -> Vec<Sym> {
    let mut chosen: Vec<usize> = vec![0, sub.len() - 1];
    chosen.dedup();
    if sub.len() > 2 && chosen.len() < k {
        let mut interior: Vec<usize> = (1..sub.len() - 1).collect();
        interior.sort_by(|&a, &b| model.del(sub[b]).total_cmp(&model.del(sub[a])));
        for pos in interior {
            if chosen.len() >= k {
                break;
            }
            chosen.push(pos);
        }
    }
    let mut pivots: Vec<Sym> = chosen.into_iter().map(|i| sub[i]).collect();
    pivots.sort_unstable();
    pivots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_search;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use traj::Trajectory;
    use wed::models::Lev;
    use wed::wed;

    fn random_store(rng: &mut ChaCha8Rng, n: usize) -> TrajectoryStore {
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..12);
                Trajectory::untimed((0..len).map(|_| rng.gen_range(0..7)).collect())
            })
            .collect()
    }

    #[test]
    fn equals_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let store = random_store(&mut rng, 10);
        let dita = DitaIndex::new(&Lev, &store, 4);
        for _ in 0..8 {
            let qlen = rng.gen_range(1..5);
            let q: Vec<Sym> = (0..qlen).map(|_| rng.gen_range(0..7)).collect();
            let tau = rng.gen_range(0.5..3.0);
            let (got, _) = dita.search(&q, tau);
            let want = naive_search(&Lev, &store, &q, tau);
            assert_eq!(got.len(), want.len(), "q={q:?} tau={tau}");
        }
    }

    #[test]
    fn lower_bound_is_sound() {
        // LB < tau must hold for every true match's group (indirectly
        // verified by result equality above); directly: LB ≤ wed on samples.
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        for _ in 0..50 {
            let sub: Vec<Sym> = (0..rng.gen_range(1..8))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let q: Vec<Sym> = (0..rng.gen_range(1..6))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let pivots = select_pivots(&Lev, &sub, 4);
            let lb: f64 = pivots
                .iter()
                .map(|&p| {
                    q.iter()
                        .map(|&qs| Lev.sub(p, qs))
                        .fold(Lev.del(p), f64::min)
                })
                .sum();
            assert!(
                lb <= wed(&Lev, &sub, &q) + 1e-9,
                "LB {lb} > wed for {sub:?} vs {q:?}"
            );
        }
    }

    #[test]
    fn pivot_count_respects_k() {
        let sub: Vec<Sym> = vec![5, 1, 2, 3, 4, 9];
        let p = select_pivots(&Lev, &sub, 3);
        assert_eq!(p.len(), 3);
        // endpoints always included
        assert!(p.contains(&5) && p.contains(&9));
        let single = select_pivots(&Lev, &[7], 4);
        assert_eq!(single, vec![7]);
    }

    #[test]
    fn subtrajectory_count_reported() {
        let mut store = TrajectoryStore::new();
        store.push(Trajectory::untimed(vec![1, 2, 3])); // 6 subtrajectories
        store.push(Trajectory::untimed(vec![4, 5])); // 3
        let dita = DitaIndex::new(&Lev, &store, 3);
        assert_eq!(dita.groups.values().map(Vec::len).sum::<usize>(), 9);
        assert!(dita.size_bytes() > 0);
    }
}
