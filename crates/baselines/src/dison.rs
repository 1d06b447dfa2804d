//! DISON adaptation (§6.1).
//!
//! DISON (Yuan & Li) generates candidates by scanning the postings lists of
//! a query *prefix*. Adapted to WED subtrajectory search as the paper
//! describes: `Q'` is the shortest prefix of `Q` with `Σ c(q) ≥ τ` — a valid
//! τ-subsequence (so Theorem 1 and Lemma 1 apply), but not optimized for
//! candidate count like MinCand. Verification reuses the engine's layer, so
//! the baseline comes in `DISON-SW` and `DISON-BT` flavors.

use std::time::Instant;
use traj::TrajectoryStore;
use trajsearch_core::results::MatchResult;
use trajsearch_core::verify::{verify_candidates, Candidate, VerifyMode};
use trajsearch_core::{InvertedIndex, SearchStats};
use wed::{Sym, WedInstance};

/// DISON-style prefix-filtered search.
pub struct Dison<'a, M: WedInstance> {
    model: M,
    store: &'a TrajectoryStore,
    index: InvertedIndex,
    verify: VerifyMode,
}

impl<'a, M: WedInstance> Dison<'a, M> {
    pub fn new(
        model: M,
        store: &'a TrajectoryStore,
        alphabet_size: usize,
        verify: VerifyMode,
    ) -> Self {
        let index = InvertedIndex::build(store, alphabet_size);
        Dison {
            model,
            store,
            index,
            verify,
        }
    }

    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The candidate-generating prefix: `B(q)` of positions `0..i` where `i`
    /// is minimal with `Σ c(q) ≥ τ`; `None` if even the whole query is too
    /// cheap (filtering infeasible).
    fn prefix(&self, q: &[Sym], tau: f64) -> Option<Vec<Vec<Sym>>> {
        let (mut acc, mut hoods) = (0.0, Vec::new());
        for &sym in q {
            let (nb, c) = self.model.neighborhood(sym);
            hoods.push(nb);
            acc += c;
            if acc >= tau {
                return Some(hoods);
            }
        }
        None
    }

    pub fn search(&self, q: &[Sym], tau: f64) -> (Vec<MatchResult>, SearchStats) {
        assert!(tau > 0.0 && !q.is_empty());
        let mut stats = SearchStats::default();
        let t0 = Instant::now();
        let prefix = self.prefix(q, tau);
        stats.mincand_time = t0.elapsed();

        let Some(prefix) = prefix else {
            // Same exactness fallback (and stats contract) as the engine.
            let matches = trajsearch_core::exact_fallback_scan(
                &self.model,
                self.store,
                q,
                tau,
                None,
                false,
                &mut stats,
            );
            return (matches, stats);
        };
        stats.tsubseq_len = prefix.len();

        let t1 = Instant::now();
        let mut candidates = Vec::new();
        for (pos, nb) in prefix.iter().enumerate() {
            for &b in nb {
                for &(id, j) in self.index.postings(b) {
                    candidates.push(Candidate {
                        id,
                        j,
                        iq: pos as u32,
                    });
                }
            }
        }
        stats.lookup_time = t1.elapsed();

        let t2 = Instant::now();
        let matches = verify_candidates(
            &self.model,
            self.store,
            |id| self.index.span(id),
            q,
            tau,
            &candidates,
            self.verify,
            None,
            false,
            &mut stats,
        );
        stats.verify_time = t2.elapsed();
        (matches, stats)
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

    fn random_store(rng: &mut ChaCha8Rng, n: usize) -> TrajectoryStore {
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..15);
                Trajectory::untimed((0..len).map(|_| rng.gen_range(0..8)).collect())
            })
            .collect()
    }

    #[test]
    fn both_verify_modes_equal_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let store = random_store(&mut rng, 15);
        for mode in [VerifyMode::Sw, VerifyMode::Trie] {
            let dison = Dison::new(&Lev, &store, 8, mode);
            for _ in 0..8 {
                let qlen = rng.gen_range(1..5);
                let q: Vec<Sym> = (0..qlen).map(|_| rng.gen_range(0..8)).collect();
                let tau = rng.gen_range(0.5..(qlen as f64 + 0.5));
                let (got, _) = dison.search(&q, tau);
                let want = naive_search(&Lev, &store, &q, tau);
                assert_eq!(got.len(), want.len(), "mode={mode:?} q={q:?} tau={tau}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!((g.id, g.start, g.end), (w.id, w.start, w.end));
                }
            }
        }
    }

    #[test]
    fn prefix_is_shortest_satisfying() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let store = random_store(&mut rng, 5);
        let dison = Dison::new(&Lev, &store, 8, VerifyMode::Trie);
        // Lev: c(q) = 1 per symbol, so prefix length = ceil(tau).
        assert_eq!(dison.prefix(&[1, 2, 3, 4], 2.0).map(|p| p.len()), Some(2));
        assert_eq!(dison.prefix(&[1, 2, 3, 4], 0.5).map(|p| p.len()), Some(1));
        assert_eq!(dison.prefix(&[1, 2], 3.0), None);
    }

    #[test]
    fn infeasible_falls_back_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let store = random_store(&mut rng, 8);
        let dison = Dison::new(&Lev, &store, 8, VerifyMode::Trie);
        let q: Vec<Sym> = vec![1, 2];
        let tau = 5.0; // c(Q) = 2 < tau
        let (got, stats) = dison.search(&q, tau);
        assert!(stats.fallback);
        let want = naive_search(&Lev, &store, &q, tau);
        assert_eq!(got.len(), want.len());
        // The shared fallback keeps stats coherent with the engine's: every
        // position is a candidate and each trajectory is scanned once.
        let total_positions: usize = store.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(stats.candidates, total_positions);
        assert_eq!(stats.candidates_after_temporal, total_positions);
        assert_eq!(stats.sw_columns, total_positions as u64);
    }
}
