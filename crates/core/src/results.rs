//! Result collection with exact-distance merging.
//!
//! Verification may reach the same subtrajectory `(id, s, t)` from several
//! candidates `(id, j, iq)`; each candidate contributes the cost of the best
//! alignment *through* its anchor (Eq. 10), which upper-bounds the true WED.
//! By Lemma 1 the optimal alignment of every true match passes through at
//! least one candidate anchor, so the per-triple minimum over candidates is
//! the exact WED. [`ResultSet`] performs that min-merge.

use std::collections::HashMap;
use traj::TrajId;

crate::wire_struct! {
    /// One similarity-search result: `wed(P^(id)[s..=t], Q) = dist < τ`
    /// (0-based inclusive positions).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MatchResult {
        pub id: TrajId,
        pub start: usize,
        pub end: usize,
        pub dist: f64,
    }
}

/// Deduplicating accumulator for `(id, s, t)` triples keeping the minimum
/// observed distance.
#[derive(Debug, Default)]
pub struct ResultSet {
    map: HashMap<(TrajId, u32, u32), f64>,
}

impl ResultSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a (possibly duplicate) match with an upper-bound distance.
    pub fn push(&mut self, id: TrajId, start: usize, end: usize, dist: f64) {
        let key = (id, start as u32, end as u32);
        self.map
            .entry(key)
            .and_modify(|d| {
                if dist < *d {
                    *d = dist;
                }
            })
            .or_insert(dist);
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drains into a deterministic ordering (by id, start, end).
    pub fn into_sorted_vec(self) -> Vec<MatchResult> {
        let mut v: Vec<MatchResult> = self
            .map
            .into_iter()
            .map(|((id, s, t), dist)| MatchResult {
                id,
                start: s as usize,
                end: t as usize,
                dist,
            })
            .collect();
        v.sort_by_key(|a| (a.id, a.start, a.end));
        v
    }

    /// Filters in place by a predicate on the triple (used by temporal
    /// post-filtering).
    pub fn retain(&mut self, mut keep: impl FnMut(TrajId, usize, usize) -> bool) {
        self.map
            .retain(|&(id, s, t), _| keep(id, s as usize, t as usize));
    }
}

/// Sorts a plain result vector into the canonical order (test helper shared
/// by baselines).
pub fn sort_results(v: &mut [MatchResult]) {
    v.sort_by_key(|a| (a.id, a.start, a.end));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_minimum_distance() {
        let mut r = ResultSet::new();
        r.push(1, 2, 5, 3.0);
        r.push(1, 2, 5, 1.5);
        r.push(1, 2, 5, 2.0);
        let v = r.into_sorted_vec();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].dist, 1.5);
    }

    #[test]
    fn distinct_triples_kept_separately() {
        let mut r = ResultSet::new();
        r.push(1, 2, 5, 1.0);
        r.push(1, 2, 6, 1.0);
        r.push(2, 2, 5, 1.0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn sorted_output_is_deterministic() {
        let mut r = ResultSet::new();
        r.push(2, 0, 1, 0.5);
        r.push(1, 3, 4, 0.5);
        r.push(1, 0, 9, 0.5);
        let v = r.into_sorted_vec();
        let keys: Vec<_> = v.iter().map(|m| (m.id, m.start, m.end)).collect();
        assert_eq!(keys, vec![(1, 0, 9), (1, 3, 4), (2, 0, 1)]);
    }

    #[test]
    fn retain_filters_triples() {
        let mut r = ResultSet::new();
        r.push(1, 0, 1, 0.5);
        r.push(2, 0, 1, 0.5);
        r.retain(|id, _, _| id == 2);
        let v = r.into_sorted_vec();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].id, 2);
    }
}
