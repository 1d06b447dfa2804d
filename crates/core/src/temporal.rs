//! Temporal constraints (§2.3, §4.3).
//!
//! A temporal query asks that the *matched* subtrajectory's time span
//! `[T_i, T_j]` overlap (or be contained in) a query interval `I`. The
//! engine supports both semantics, with two evaluation strategies compared
//! in Figure 12:
//!
//! * **TF** (temporal filtering): prune candidates whose whole-trajectory
//!   span `I^(id) = [T_1, T_n]` is disjoint from `I` *before* verification —
//!   sound because the match span is contained in the trajectory span;
//! * **no-TF**: verify everything, filter match spans afterwards.
//!
//! Both finish with an exact per-match check on `[T_s, T_t]`. The §4.3
//! by-departure refinement reads
//! [`PostingSource::postings_departing_by`](crate::index::PostingSource::postings_departing_by)
//! and is sound for any postings layout (a sharded source binary-searches
//! each shard's own departure-sorted lists).

/// A closed time interval `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeInterval {
    pub start: f64,
    pub end: f64,
}

impl TimeInterval {
    pub fn new(start: f64, end: f64) -> Self {
        assert!(start <= end, "interval must be ordered");
        TimeInterval { start, end }
    }

    /// `[a, b] ∩ self ≠ ∅`.
    pub fn overlaps(&self, a: f64, b: f64) -> bool {
        a <= self.end && b >= self.start
    }

    /// `[a, b] ⊆ self`.
    pub fn contains(&self, a: f64, b: f64) -> bool {
        self.start <= a && b <= self.end
    }
}

/// Which relation the matched span must satisfy w.r.t. the query interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalPredicate {
    /// `[T_i, T_j] ∩ I ≠ ∅` (the Figure 12 workload).
    Overlaps,
    /// `[T_i, T_j] ⊆ I`.
    Within,
}

/// A temporal constraint: interval + predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalConstraint {
    pub interval: TimeInterval,
    pub predicate: TemporalPredicate,
}

impl TemporalConstraint {
    pub fn overlaps(interval: TimeInterval) -> Self {
        TemporalConstraint {
            interval,
            predicate: TemporalPredicate::Overlaps,
        }
    }

    pub fn within(interval: TimeInterval) -> Self {
        TemporalConstraint {
            interval,
            predicate: TemporalPredicate::Within,
        }
    }

    /// Exact check on a matched span `[a, b]`.
    pub fn accepts(&self, a: f64, b: f64) -> bool {
        match self.predicate {
            TemporalPredicate::Overlaps => self.interval.overlaps(a, b),
            TemporalPredicate::Within => self.interval.contains(a, b),
        }
    }

    /// Candidate-level pruning test on the whole-trajectory span (§4.3):
    /// if the trajectory span is disjoint from `I`, no subspan can overlap
    /// `I`, let alone be contained in it — safe for both predicates.
    pub(crate) fn may_contain_match(&self, traj_span: (f64, f64)) -> bool {
        self.interval.overlaps(traj_span.0, traj_span.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_semantics() {
        let i = TimeInterval::new(10.0, 20.0);
        assert!(i.overlaps(5.0, 10.0)); // touching counts
        assert!(i.overlaps(15.0, 25.0));
        assert!(i.overlaps(12.0, 13.0));
        assert!(!i.overlaps(0.0, 9.9));
        assert!(!i.overlaps(20.1, 30.0));
    }

    #[test]
    fn containment_semantics() {
        let i = TimeInterval::new(10.0, 20.0);
        assert!(i.contains(10.0, 20.0));
        assert!(i.contains(12.0, 13.0));
        assert!(!i.contains(9.0, 13.0));
        assert!(!i.contains(12.0, 21.0));
    }

    #[test]
    fn constraint_accepts_match_spans() {
        let c = TemporalConstraint::overlaps(TimeInterval::new(0.0, 10.0));
        assert!(c.accepts(9.0, 30.0));
        let w = TemporalConstraint::within(TimeInterval::new(0.0, 10.0));
        assert!(!w.accepts(9.0, 30.0));
        assert!(w.accepts(1.0, 9.0));
    }

    #[test]
    fn pruning_is_sound_for_both_predicates() {
        // If the trajectory span is pruned, no subspan may be accepted.
        let cases = [
            TemporalConstraint::overlaps(TimeInterval::new(10.0, 20.0)),
            TemporalConstraint::within(TimeInterval::new(10.0, 20.0)),
        ];
        for c in cases {
            let span = (30.0, 40.0);
            assert!(!c.may_contain_match(span));
            // every subspan of a pruned span must be rejected
            for (a, b) in [(30.0, 31.0), (35.0, 40.0), (30.0, 40.0)] {
                assert!(!c.accepts(a, b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn reversed_interval_rejected() {
        TimeInterval::new(5.0, 1.0);
    }
}
