//! Torch adaptation (§6.1).
//!
//! Torch (Wang et al.) generates candidates by scanning the postings lists
//! of *every* query symbol. Its `Q'` is all of `Q` — trivially a
//! τ-subsequence whenever `c(Q) ≥ τ`, but the candidate set is a superset of
//! every other filtering strategy's (Figure 11 shows it is ~25× OSF's).
//! Verification reuses the engine layer (`Torch-SW` / `Torch-BT`).

use std::time::Instant;
use traj::TrajectoryStore;
use trajsearch_core::results::MatchResult;
use trajsearch_core::verify::{verify_candidates, Candidate, VerifyMode};
use trajsearch_core::{InvertedIndex, SearchStats};
use wed::{Sym, WedInstance};

/// Torch-style all-symbols-filtered search.
pub struct Torch<'a, M: WedInstance> {
    model: M,
    store: &'a TrajectoryStore,
    index: InvertedIndex,
    verify: VerifyMode,
}

impl<'a, M: WedInstance> Torch<'a, M> {
    pub fn new(
        model: M,
        store: &'a TrajectoryStore,
        alphabet_size: usize,
        verify: VerifyMode,
    ) -> Self {
        let index = InvertedIndex::build(store, alphabet_size);
        Torch {
            model,
            store,
            index,
            verify,
        }
    }

    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    pub fn search(&self, q: &[Sym], tau: f64) -> (Vec<MatchResult>, SearchStats) {
        assert!(tau > 0.0 && !q.is_empty());
        let mut stats = SearchStats::default();

        // Soundness gate: Q as a whole must still be a τ-subsequence.
        let t0 = Instant::now();
        let hoods: Vec<(Vec<Sym>, f64)> = q.iter().map(|&s| self.model.neighborhood(s)).collect();
        let c_total: f64 = hoods.iter().map(|(_, c)| c).sum();
        stats.mincand_time = t0.elapsed();
        if c_total < tau {
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
        }
        stats.tsubseq_len = q.len();

        let t1 = Instant::now();
        let mut candidates = Vec::new();
        for (pos, (nb, _)) in hoods.iter().enumerate() {
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
    use trajsearch_core::{EngineBuilder, Query};
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
    fn equals_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let store = random_store(&mut rng, 15);
        for mode in [VerifyMode::Sw, VerifyMode::Trie] {
            let torch = Torch::new(&Lev, &store, 8, mode);
            for _ in 0..8 {
                let qlen = rng.gen_range(1..5);
                let q: Vec<Sym> = (0..qlen).map(|_| rng.gen_range(0..8)).collect();
                let tau = rng.gen_range(0.5..(qlen as f64 + 0.5));
                let (got, _) = torch.search(&q, tau);
                let want = naive_search(&Lev, &store, &q, tau);
                assert_eq!(got.len(), want.len(), "mode={mode:?} q={q:?} tau={tau}");
            }
        }
    }

    #[test]
    fn candidate_count_dominates_osf() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let store = random_store(&mut rng, 30);
        let torch = Torch::new(&Lev, &store, 8, VerifyMode::Trie);
        let engine = EngineBuilder::new(&Lev, &store, 8).build();
        for _ in 0..6 {
            let q: Vec<Sym> = (0..4).map(|_| rng.gen_range(0..8)).collect();
            let tau = 1.5;
            let (_, torch_stats) = torch.search(&q, tau);
            let osf = engine
                .run(&Query::threshold(q.clone(), tau).build().unwrap())
                .unwrap();
            assert!(
                torch_stats.candidates >= osf.stats.candidates,
                "Torch candidates {} < OSF {}",
                torch_stats.candidates,
                osf.stats.candidates
            );
        }
    }
}
