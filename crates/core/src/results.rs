//! Result collection with exact-distance merging.
//!
//! Verification may reach the same subtrajectory `(id, s, t)` from several
//! candidates `(id, j, iq)`; each candidate contributes the cost of the best
//! alignment *through* its anchor (Eq. 10), which upper-bounds the true WED.
//! By Lemma 1 the optimal alignment of every true match passes through at
//! least one candidate anchor, so the per-triple minimum over candidates is
//! the exact WED. `ResultSet` performs that min-merge.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use traj::TrajId;
use wed::hash::MixHasher;

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
///
/// Verification pushes a trajectory's triples together, many times over
/// (each `(s, t)` once per candidate anchor through it), so the set keeps
/// one **open** map for the trajectory being pushed, keyed by the packed
/// word `s << 32 | t` under `wed`'s multiplicative hasher. When the pushed
/// id changes, the open map drains, sorted by `(s, t)`, onto the closed
/// list. Pushes in any id order stay correct: [`ResultSet::into_sorted_vec`]
/// sorts the closed list once and min-merges equal triples, and the minimum
/// does not depend on the order it was taken in.
#[derive(Debug, Default)]
pub(crate) struct ResultSet {
    /// Triples of trajectories no longer open, one sorted run per visit.
    closed: Vec<MatchResult>,
    /// The trajectory whose triples `open` holds.
    id: TrajId,
    /// `s << 32 | t` → least distance so far, for trajectory `id`.
    open: HashMap<u64, f64, BuildHasherDefault<MixHasher>>,
}

impl ResultSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a (possibly duplicate) match with an upper-bound distance.
    pub fn push(&mut self, id: TrajId, start: usize, end: usize, dist: f64) {
        if id != self.id {
            self.close();
            self.id = id;
        }
        let key = (start as u64) << 32 | end as u64;
        self.open
            .entry(key)
            .and_modify(|d| {
                if dist < *d {
                    *d = dist;
                }
            })
            .or_insert(dist);
    }

    /// Drains the open map, sorted by `(s, t)`, onto the closed list.
    fn close(&mut self) {
        let at = self.closed.len();
        let id = self.id;
        self.closed
            .extend(self.open.drain().map(|(key, dist)| MatchResult {
                id,
                start: (key >> 32) as usize,
                end: key as u32 as usize,
                dist,
            }));
        self.closed[at..].sort_unstable_by_key(|m| (m.start, m.end));
    }

    /// Closes the open map, sorts by `(id, s, t)` and min-merges equal
    /// triples (a trajectory pushed in two visits has two runs).
    fn settle(&mut self) {
        self.close();
        // Stable and run-adaptive: the common case, runs already in id
        // order, is one linear pass.
        self.closed.sort_by_key(|a| (a.id, a.start, a.end));
        self.closed.dedup_by(|next, kept| {
            let same = (next.id, next.start, next.end) == (kept.id, kept.start, kept.end);
            if same && next.dist < kept.dist {
                kept.dist = next.dist;
            }
            same
        });
    }

    /// Drains into a deterministic ordering (by id, start, end).
    pub(crate) fn into_sorted_vec(mut self) -> Vec<MatchResult> {
        self.settle();
        // The answer outlives the query (callers keep it, servers queue
        // it), so it must not carry the closed list's doubling slack.
        self.closed.shrink_to_fit();
        self.closed
    }

    /// Filters in place by a predicate on the triple (used by temporal
    /// post-filtering).
    pub fn retain(&mut self, mut keep: impl FnMut(TrajId, usize, usize) -> bool) {
        self.settle();
        self.closed.retain(|m| keep(m.id, m.start, m.end));
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
        assert_eq!(r.into_sorted_vec().len(), 3);
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

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// `(id, s, t, dist)` pushes from drawn small integers, so ids, pairs
    /// and distances repeat; `wide` spreads positions over the whole `u32`
    /// range the packed key holds.
    fn pushes(raw: &[(u32, u32, u32, u32)], wide: bool) -> Vec<(TrajId, usize, usize, f64)> {
        let scale = if wide { 1 << 30 } else { 1 };
        raw.iter()
            .map(|&(id, s, t, d)| {
                (
                    id,
                    (s * scale) as usize,
                    (t * scale) as usize,
                    0.25 * d as f64,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a `BTreeMap` min-merge: the same triples, in `(id, s, t)`
        /// order, each at its least pushed distance, whether a trajectory's
        /// pushes come together or interleaved with others, and after a
        /// `retain`.
        #[test]
        fn result_set_is_a_min_merge(
            raw in proptest::collection::vec((0u32..4, 0u32..4, 0u32..4, 0u32..8), 0..64),
            contiguous in 0u32..2,
            wide in 0u32..2,
            cut in 0usize..3,
        ) {
            let mut pushes = pushes(&raw, wide == 1);
            if contiguous == 1 {
                pushes.sort_by_key(|p| p.0);
            }
            let mut want = BTreeMap::new();
            for &(id, s, t, d) in &pushes {
                let e = want.entry((id, s, t)).or_insert(d);
                if d < *e {
                    *e = d;
                }
            }
            let keep = |id: TrajId, s: usize, t: usize| !(id as usize + s + t + cut).is_multiple_of(3);
            for filtered in [false, true] {
                let mut r = ResultSet::new();
                for &(id, s, t, d) in &pushes {
                    r.push(id, s, t, d);
                }
                if filtered {
                    r.retain(keep);
                }
                let want: Vec<MatchResult> = want
                    .iter()
                    .filter(|(&(id, s, t), _)| !filtered || keep(id, s, t))
                    .map(|(&(id, start, end), &dist)| MatchResult { id, start, end, dist })
                    .collect();
                prop_assert_eq!(r.into_sorted_vec(), want, "retain: {}", filtered);
            }
        }
    }
}
