//! Per-query instrumentation.
//!
//! The paper reports a running-time breakdown (Table 4: MinCand / index
//! lookup / verification) and verification-pruning rates (Table 5: UPR, CMR,
//! TUR). Every search populates a [`SearchStats`] so the experiment harness
//! can regenerate those tables without touching engine internals.

use std::time::Duration;

crate::wire_struct! {
    /// Counters and timings collected during one query. `PartialEq` compares
    /// every field (timings included) — it exists for the wire-format
    /// round-trip guarantee of [`Response`](crate::Response), not for
    /// cross-run comparisons.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct SearchStats {
        /// Time spent choosing the τ-subsequence (Algorithm 1).
        pub mincand_time as "mincand_ns": Duration,
        /// Time spent materializing neighborhoods and scanning postings lists.
        pub lookup_time as "lookup_ns": Duration,
        /// Time spent verifying candidates (Algorithms 3–6).
        pub verify_time as "verify_ns": Duration,
        /// Number of generated candidates `(id, j, iq)`. On the fallback path
        /// (no τ-subsequence) every trajectory position counts as a candidate —
        /// that is exactly what the exact scan verifies — so workload-merged
        /// stats stay comparable across the two paths.
        pub candidates: usize,
        /// Candidates surviving the temporal filter (equals `candidates` when no
        /// temporal constraint is active).
        pub candidates_after_temporal: usize,
        /// Candidates remaining after exact-triple deduplication (overlapping
        /// substitution neighborhoods can emit the same `(id, j, iq)` several
        /// times; only distinct triples are verified). Always
        /// `≤ candidates_after_temporal`.
        pub candidates_deduped: usize,
        /// Length of the chosen τ-subsequence `|Q'|`.
        pub tsubseq_len: usize,
        /// True when no τ-subsequence exists (`c(Q) < τ`) and the engine fell
        /// back to an exact Smith–Waterman scan.
        pub fallback: bool,
        /// DP columns an exact Smith–Waterman verification would compute — the
        /// UPR denominator. In SW mode the scan runs once per **distinct**
        /// candidate trajectory, so `Σ |P|` is accumulated once per deduped id
        /// (not per candidate, which would inflate the Table 5 denominator
        /// whenever one trajectory carries several anchors). Local/Trie modes
        /// accumulate `|P|` per verified (deduped) candidate, the work a
        /// per-candidate scan would have done in their place.
        pub sw_columns: u64,
        /// DP columns actually visited before early termination — UPR
        /// numerator / CMR denominator. An anchor's two walks stop on one
        /// budget: the first at `sub0 + LB_k >= τ` (Eq. 11 with the anchor
        /// cost), the second at that plus the first side's least prefix WED,
        /// and not at all when the first side leaves no pair.
        pub columns_passed: u64,
        /// Columns computed fresh (trie cache misses; Algorithm 5 line 6) —
        /// the CMR numerator.
        pub stepdp_calls: u64,
        /// Metric-neutral verification cost: DP columns/rows actually evaluated,
        /// each `O(|Q|)`. For WED this equals `sw_columns` on scan paths
        /// (SW verification and the fallback scan) and `columns_passed` on the
        /// Local/Trie paths; DTW/LCSS/Fréchet verifiers count their per-start DP
        /// rows here and leave the WED-specific counters (`sw_columns`,
        /// `columns_passed`, `stepdp_calls`) at zero, so merged workload stats
        /// never mix incomparable units.
        pub verify_cost: u64 = default,
        /// Shared-trie acquisitions that found a batch trie cache entry an
        /// earlier query of the batch had already created (the batch cache
        /// level, [`BatchOptions::share_tries`](crate::BatchOptions::share_tries);
        /// stays zero with private tries and for the scan verifier).
        pub trie_cache_hits: u64 = default,
        /// Shared-trie acquisitions that created the batch trie cache entry —
        /// exactly one per distinct query suffix regardless of thread
        /// interleaving (insert-race losers count as hits).
        pub trie_cache_misses: u64 = default,
        /// Number of result triples `(id, s, t)`.
        pub results: usize,
    }
}

impl SearchStats {
    /// Unpruned position rate (Table 5): visited columns / SW columns.
    pub fn upr(&self) -> f64 {
        ratio(self.columns_passed, self.sw_columns)
    }

    /// Cache miss rate (Table 5): fresh columns / visited columns.
    pub fn cmr(&self) -> f64 {
        ratio(self.stepdp_calls, self.columns_passed)
    }

    /// Total unpruned rate: UPR × CMR = fresh columns / SW columns.
    pub fn tur(&self) -> f64 {
        ratio(self.stepdp_calls, self.sw_columns)
    }

    /// Total wall-clock time across the three phases.
    pub fn total_time(&self) -> Duration {
        self.mincand_time + self.lookup_time + self.verify_time
    }

    /// Merges counters from another query (used when averaging over a query
    /// workload).
    pub fn merge(&mut self, other: &SearchStats) {
        self.mincand_time += other.mincand_time;
        self.lookup_time += other.lookup_time;
        self.verify_time += other.verify_time;
        self.candidates += other.candidates;
        self.candidates_after_temporal += other.candidates_after_temporal;
        self.candidates_deduped += other.candidates_deduped;
        self.tsubseq_len += other.tsubseq_len;
        self.fallback |= other.fallback;
        self.sw_columns += other.sw_columns;
        self.columns_passed += other.columns_passed;
        self.stepdp_calls += other.stepdp_calls;
        self.verify_cost += other.verify_cost;
        self.trie_cache_hits += other.trie_cache_hits;
        self.trie_cache_misses += other.trie_cache_misses;
        self.results += other.results;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = SearchStats::default();
        assert_eq!(s.upr(), 0.0);
        assert_eq!(s.cmr(), 0.0);
        assert_eq!(s.tur(), 0.0);
    }

    #[test]
    fn tur_is_product_of_upr_and_cmr() {
        let s = SearchStats {
            sw_columns: 1000,
            columns_passed: 200,
            stepdp_calls: 20,
            ..Default::default()
        };
        assert!((s.upr() - 0.2).abs() < 1e-12);
        assert!((s.cmr() - 0.1).abs() < 1e-12);
        assert!((s.tur() - s.upr() * s.cmr()).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            candidates: 3,
            results: 1,
            ..Default::default()
        };
        let b = SearchStats {
            candidates: 4,
            results: 2,
            fallback: true,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.candidates, 7);
        assert_eq!(a.results, 3);
        assert!(a.fallback);
    }

    #[test]
    fn total_time_sums_phases() {
        let s = SearchStats {
            mincand_time: Duration::from_millis(1),
            lookup_time: Duration::from_millis(2),
            verify_time: Duration::from_millis(3),
            ..Default::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(6));
    }
}
