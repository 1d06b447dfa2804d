//! Subsequence filtering (§3): building the filtering plan and generating
//! candidates.
//!
//! Theorem 1: for any subsequence `Q' ⊆ Q` with `Σ_{q∈Q'} c(q) ≥ τ`
//! (a *τ-subsequence*), any subtrajectory disjoint from `B(Q')` has
//! `wed ≥ τ` and can be pruned. The plan chooses `Q'` with MinCand
//! (Algorithm 1) to minimize the candidate count, then candidates are read
//! off the postings lists of all `b ∈ B(q)`, `q ∈ Q'` (Algorithm 2 lines
//! 3–6).

use crate::index::PostingSource;
use crate::mincand::{min_cand, Item, Selection};
use crate::verify::Candidate;
use std::collections::HashMap;
use wed::{Sym, WedInstance};

/// The filtering plan for one query: the chosen τ-subsequence with its
/// neighborhoods, or infeasibility.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    /// `(position in Q, symbol, B(q))` for each chosen element, in selection
    /// order.
    pub chosen: Vec<(usize, Sym, Vec<Sym>)>,
    /// `Σ c(q)` over the chosen subsequence.
    pub c_total: f64,
    /// False when `c(Q) < τ`: no τ-subsequence exists (possible for
    /// continuous cost models with tiny η) and the caller must fall back to
    /// an exact scan to stay correct.
    pub feasible: bool,
    /// `(B(q), c(q), N_q)` of every distinct query symbol, chosen or not:
    /// verification builds its unit-cost profile rows from these
    /// ([`FilterPlan::neighbors`]) instead of searching each ball again.
    priced: Memo,
}

impl FilterPlan {
    /// Builds the plan: materializes `B(q)` and `c(q)` per query position
    /// (memoized per distinct symbol), prices positions by
    /// `N_q = Σ_{b∈B(q)} n(b)`, and runs MinCand.
    ///
    /// Generic over the [`PostingSource`] layout; only `n(q)` is consumed
    /// here and frequencies are layout-independent, so the plan — and hence
    /// the candidate multiset — is identical for every source over the same
    /// store.
    pub fn build<M: WedInstance, I: PostingSource>(
        model: &M,
        index: &I,
        q: &[Sym],
        tau: f64,
    ) -> Self {
        let (items, memo) = price(model, index, q, tau);
        let sel = match min_cand(&items, tau) {
            Selection::Chosen(sel) => Some(sel),
            Selection::Infeasible => None,
        };
        FilterPlan::choose(q, &items, memo, sel)
    }

    /// Single-element plan for **bottleneck** metrics (discrete Fréchet).
    ///
    /// Theorem 1 sums lower costs over `Q'`, which is only sound when the
    /// metric adds coupled costs. A bottleneck metric still admits a
    /// one-element plan: every coupling pairs `q` with at least one
    /// subtrajectory symbol `p`, and `p ∉ B(q)` implies `sub(p, q) ≥ c(q)`
    /// (Definition 4), so if `c(q) ≥ τ` any subtrajectory disjoint from
    /// `B(q)` has bottleneck distance `≥ τ` and is prunable. Among eligible
    /// positions the one with the fewest predicted candidates is chosen;
    /// the plan is infeasible when no position has `c(q) ≥ τ` and the
    /// caller must fall back to an exact scan.
    pub fn build_single<M: WedInstance, I: PostingSource>(
        model: &M,
        index: &I,
        q: &[Sym],
        tau: f64,
    ) -> Self {
        let (items, memo) = price(model, index, q, tau);
        let mut best: Option<usize> = None;
        for (i, item) in items.iter().enumerate() {
            if item.c >= tau && best.is_none_or(|b| item.n < items[b].n) {
                best = Some(i);
            }
        }
        FilterPlan::choose(q, &items, memo, best.map(|i| vec![i]))
    }

    /// The plan choosing `items[i]` for each `i` of `sel`, in that order;
    /// `None` is the infeasible plan.
    fn choose(q: &[Sym], items: &[Item], memo: Memo, sel: Option<Vec<usize>>) -> Self {
        let Some(sel) = sel else {
            return FilterPlan {
                chosen: Vec::new(),
                c_total: 0.0,
                feasible: false,
                priced: memo,
            };
        };
        let mut chosen = Vec::with_capacity(sel.len());
        let mut c_total = 0.0;
        for i in sel {
            let pos = items[i].pos;
            let sym = q[pos];
            c_total += items[i].c;
            chosen.push((pos, sym, memo[&sym].0.clone()));
        }
        FilterPlan {
            chosen,
            c_total,
            feasible: true,
            priced: memo,
        }
    }

    /// `B(s)` of a symbol `s` of the planned query.
    pub(crate) fn neighbors(&self, s: Sym) -> &[Sym] {
        &self.priced[&s].0
    }

    /// Algorithm 2 lines 3–6: candidates from the postings lists of every
    /// substitution neighbor of every chosen element.
    ///
    /// Candidate *order* follows the source's iteration order (shard-major
    /// for a sharded source); verification sorts and dedups before any DP
    /// work, so results do not depend on it.
    pub fn candidates<I: PostingSource>(&self, index: &I) -> Vec<Candidate> {
        let mut out = Vec::new();
        for (pos, _sym, nbrs) in &self.chosen {
            for &b in nbrs {
                for (id, j) in index.postings(b) {
                    out.push(Candidate {
                        id,
                        j,
                        iq: *pos as u32,
                    });
                }
            }
        }
        out
    }

    /// §4.3 extension: candidate generation that skips trajectories unable
    /// to satisfy the temporal constraint, using binary search on
    /// by-departure postings
    /// ([`PostingSource::postings_departing_by`]).
    ///
    /// A trajectory can only contain a satisfying match if its span
    /// intersects the query interval: departure ≤ `I.end` (binary-searched
    /// prefix, per shard for a sharded source) and arrival ≥ `I.start`
    /// (checked per record). Sound for both `Overlaps` and `Within`
    /// predicates.
    pub fn candidates_temporal<I: PostingSource>(
        &self,
        index: &I,
        constraint: &crate::temporal::TemporalConstraint,
    ) -> Vec<Candidate> {
        let interval = constraint.interval;
        let mut out = Vec::new();
        for (pos, _sym, nbrs) in &self.chosen {
            for &b in nbrs {
                for (_dep, (id, j)) in index.postings_departing_by(b, interval.end) {
                    if index.span(id).1 >= interval.start {
                        out.push(Candidate {
                            id,
                            j,
                            iq: *pos as u32,
                        });
                    }
                }
            }
        }
        out
    }

    /// Predicted candidate count (the Definition 5 objective for the chosen
    /// subsequence); equals `candidates().len()`.
    ///
    /// This is the **pre-dedup upper bound**: when substitution
    /// neighborhoods overlap, [`candidates`](FilterPlan::candidates) can
    /// emit the same `(id, j, iq)` triple more than once, and verification
    /// dedups exact triples before doing any DP work (compare
    /// `SearchStats::candidates` against `SearchStats::candidates_deduped`).
    pub fn predicted_candidates<I: PostingSource>(&self, index: &I) -> usize {
        self.chosen
            .iter()
            .map(|(_, _, nbrs)| nbrs.iter().map(|&b| index.freq(b) as usize).sum::<usize>())
            .sum()
    }
}

/// `(B(q), c(q), N_q)` per distinct query symbol.
type Memo = HashMap<Sym, (Vec<Sym>, f64, f64)>;

/// Prices every query position for selection: materializes `B(q)` and
/// `c(q)` once per distinct symbol, with `N_q = Σ_{b∈B(q)} n(b)`.
fn price<M: WedInstance, I: PostingSource>(
    model: &M,
    index: &I,
    q: &[Sym],
    tau: f64,
) -> (Vec<Item>, Memo) {
    assert!(tau > 0.0, "threshold must be positive");
    assert!(!q.is_empty(), "query must be non-empty");
    let mut memo = Memo::new();
    let mut items = Vec::with_capacity(q.len());
    for (pos, &sym) in q.iter().enumerate() {
        let (_, c, n) = memo.entry(sym).or_insert_with(|| {
            let (nb, c) = model.neighborhood(sym);
            debug_assert!(nb.contains(&sym), "B(q) must contain q");
            let n: f64 = nb.iter().map(|&b| index.freq(b) as f64).sum();
            (nb, c, n)
        });
        items.push(Item { pos, c: *c, n: *n });
    }
    (items, memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::InvertedIndex;
    use traj::{Trajectory, TrajectoryStore};
    use wed::models::Lev;

    fn setup() -> (TrajectoryStore, InvertedIndex) {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::untimed(vec![0, 1, 2, 3]));
        s.push(Trajectory::untimed(vec![1, 1, 4]));
        s.push(Trajectory::untimed(vec![5, 2, 0]));
        let idx = InvertedIndex::build(&s, 8);
        (s, idx)
    }

    #[test]
    fn plan_prefers_rare_symbols_under_unit_costs() {
        let (_s, idx) = setup();
        // Q = [1, 3]: freq(1) = 3, freq(3) = 1; tau = 1 → choose position of 3.
        let plan = FilterPlan::build(&Lev, &idx, &[1, 3], 1.0);
        assert!(plan.feasible);
        assert_eq!(plan.chosen.len(), 1);
        assert_eq!(plan.chosen[0].0, 1); // position of symbol 3
        assert_eq!(plan.chosen[0].1, 3);
        assert_eq!(plan.c_total, 1.0);
    }

    #[test]
    fn candidates_carry_positions() {
        let (_s, idx) = setup();
        let plan = FilterPlan::build(&Lev, &idx, &[1, 3], 1.0);
        let cands = plan.candidates(&idx);
        assert_eq!(cands, vec![Candidate { id: 0, j: 3, iq: 1 }]);
        assert_eq!(plan.predicted_candidates(&idx), cands.len());
    }

    #[test]
    fn larger_tau_selects_more_positions() {
        let (_s, idx) = setup();
        let plan = FilterPlan::build(&Lev, &idx, &[1, 3, 2], 2.0);
        assert!(plan.feasible);
        assert_eq!(plan.chosen.len(), 2);
        assert!(plan.c_total >= 2.0);
        // Selected the two rarest: 3 (freq 1) and 2 (freq 2).
        let syms: Vec<Sym> = plan.chosen.iter().map(|&(_, s, _)| s).collect();
        assert!(syms.contains(&3) && syms.contains(&2));
    }

    #[test]
    fn infeasible_when_query_too_cheap() {
        let (_s, idx) = setup();
        // Lev: c(q) = 1 per position, |Q| = 2 < tau = 3.
        let plan = FilterPlan::build(&Lev, &idx, &[1, 3], 3.0);
        assert!(!plan.feasible);
        assert!(plan.candidates(&idx).is_empty());
    }

    /// A unit-cost model whose ball repeats a symbol — the shape produced
    /// by overlapping `B(q)` sets — so that `FilterPlan::candidates` emits
    /// exact duplicate triples. Symbol 2 substitutes for free.
    #[derive(Clone, Copy)]
    struct OverlappingNbr;

    impl wed::CostModel for OverlappingNbr {
        fn sub(&self, a: Sym, b: Sym) -> f64 {
            if a == b || a == 2 || b == 2 {
                0.0
            } else {
                1.0
            }
        }
        fn ins(&self, _a: Sym) -> f64 {
            1.0
        }
    }

    impl WedInstance for OverlappingNbr {
        fn name(&self) -> &'static str {
            "OverlappingNbr"
        }
        fn ball(&self, q: Sym) -> wed::Ball {
            // Symbol 2 is enumerated from two sources, so its postings are
            // read twice.
            wed::Ball {
                syms: vec![q, 2, 2],
                beyond: 1.0,
            }
        }
    }

    #[test]
    fn overlapping_neighborhoods_emit_duplicates_and_verification_dedups() {
        use crate::stats::SearchStats;
        use crate::verify::{verify_candidates, VerifyMode};

        let (s, idx) = setup();
        let q: Vec<Sym> = vec![3];
        let plan = FilterPlan::build(&OverlappingNbr, &idx, &q, 1.0);
        assert!(plan.feasible);
        let cands = plan.candidates(&idx);
        // predicted_candidates is the pre-dedup upper bound and matches the
        // emitted (duplicate-carrying) list.
        assert_eq!(plan.predicted_candidates(&idx), cands.len());
        let mut unique = cands.clone();
        unique.sort_unstable_by_key(|c| (c.id, c.j, c.iq));
        unique.dedup();
        assert!(
            unique.len() < cands.len(),
            "overlapping B(q) must emit duplicate triples ({} unique of {})",
            unique.len(),
            cands.len()
        );

        // Verification sees the duplicates but only verifies distinct
        // triples.
        let mut stats = SearchStats::default();
        let _ = verify_candidates(
            &OverlappingNbr,
            &s,
            |id| s.get(id).span(),
            &q,
            1.0,
            &cands,
            VerifyMode::Trie,
            None,
            false,
            &mut stats,
        );
        assert_eq!(stats.candidates, cands.len());
        assert_eq!(stats.candidates_deduped, unique.len());
    }

    #[test]
    fn single_symbol_plan_picks_the_rarest_eligible_position() {
        let (_s, idx) = setup();
        // Lev: c(q) = 1 ≥ τ for every position; symbol 3 (freq 1) is rarest.
        let plan = FilterPlan::build_single(&Lev, &idx, &[1, 3, 2], 1.0);
        assert!(plan.feasible);
        assert_eq!(plan.chosen.len(), 1);
        assert_eq!(plan.chosen[0].1, 3);
        assert_eq!(plan.c_total, 1.0);
        // τ above every c(q): no single position suffices.
        let infeasible = FilterPlan::build_single(&Lev, &idx, &[1, 3, 2], 1.5);
        assert!(!infeasible.feasible);
        assert!(infeasible.chosen.is_empty());
    }

    #[test]
    fn duplicate_query_symbols_are_distinct_items() {
        let (_s, idx) = setup();
        // Q = [3, 3]: both positions selectable, tau = 2 needs both.
        let plan = FilterPlan::build(&Lev, &idx, &[3, 3], 2.0);
        assert!(plan.feasible);
        let positions: Vec<usize> = plan.chosen.iter().map(|&(p, _, _)| p).collect();
        assert_eq!(
            {
                let mut p = positions.clone();
                p.sort();
                p
            },
            vec![0, 1]
        );
        // Candidates are generated for each position separately.
        let cands = plan.candidates(&idx);
        assert_eq!(cands.len(), 2);
    }
}
