//! Inverted index over trajectory symbols (§4.1).
//!
//! For every symbol `q ∈ Σ` the postings list `L_q` holds `(id, j)` records:
//! trajectory `id` passes symbol `q` at position `j`. The index also keeps
//! the global frequency table `n(q)` that the MinCand optimizer consumes,
//! and (when timestamps are present) a by-departure ordering that enables
//! the binary-search refinement for temporal constraints described in §4.3.
//!
//! The index is built once over a whole store. §4.1 notes that a list could
//! take appended records; none of the paper's experiments appends, so no
//! layout here does.

use crate::json::{Reader, Wire};
use traj::{TrajId, TrajectoryStore};
use wed::Sym;

/// A single postings record: trajectory `id` has the indexed symbol at
/// position `j` (0-based).
pub type Posting = (TrajId, u32);

/// On the wire: `[traj_id, pos]`.
impl Wire for Posting {
    fn write_wire(&self, out: &mut String) {
        out.push('[');
        self.0.write_wire(out);
        out.push(',');
        self.1.write_wire(out);
        out.push(']');
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        r.tuple(2, "must be a [traj_id, pos] pair", |r| {
            Ok((
                u32::read_wire(r.element(0)?)?,
                u32::read_wire(r.element(1)?)?,
            ))
        })
    }
}

/// Everything the filtering and search layers consume from a postings
/// index, abstracted so the storage layout is swappable: contiguous
/// per-symbol lists ([`InvertedIndex`]), postings partitioned by trajectory
/// id ([`ShardedIndex`](crate::sharded::ShardedIndex)), or future layouts
/// (compressed, trie-backed, remote shards) — without changing query
/// semantics.
///
/// All consumers are monomorphized over the implementor (no `dyn` in the
/// hot path). The contract mirrors the paper's §4.1 index:
///
/// * [`postings`](PostingSource::postings) iterates `L_q`. **Iteration
///   order is source-defined** — a sharded source yields shard-major order
///   — and consumers must not rely on it; verification sorts and dedups
///   candidates before any DP work, which is what makes search results
///   independent of the layout.
/// * [`freq`](PostingSource::freq) is the global `n(q)` (with
///   multiplicity), identical across layouts so the MinCand plan — and
///   hence the candidate set — is byte-identical.
/// * [`postings_departing_by`](PostingSource::postings_departing_by) is the
///   §4.3 temporal refinement: every posting of `L_q` whose trajectory
///   departs no later than `t_max`, again in source-defined order.
pub trait PostingSource {
    /// Iterates the postings list `L_q` in source-defined order.
    fn postings(&self, q: Sym) -> impl Iterator<Item = Posting> + '_;

    /// Symbol frequency `n(q)` (with multiplicity, per the Definition 5
    /// remark). Layout-independent: equals `postings(q).count()`.
    fn freq(&self, q: Sym) -> u32;

    /// Trajectory time span `[T_1, T_n]` (the `I^(id)` of §4.3).
    fn span(&self, id: TrajId) -> (f64, f64);

    /// Every posting of `L_q` whose trajectory departs no later than
    /// `t_max`, in source-defined order, paired with the departure time.
    ///
    /// # Panics
    /// Panics if temporal postings were not enabled on the source.
    fn postings_departing_by(
        &self,
        q: Sym,
        t_max: f64,
    ) -> impl Iterator<Item = (f64, Posting)> + '_;

    /// Whether the by-departure ordering is available (and hence
    /// [`postings_departing_by`](PostingSource::postings_departing_by) may
    /// be called).
    fn has_temporal_postings(&self) -> bool;

    /// `|Σ|`: the number of per-symbol postings lists.
    fn alphabet_size(&self) -> usize;

    /// Number of indexed trajectories.
    fn num_trajectories(&self) -> usize;

    /// Total number of postings records across all symbols.
    fn total_postings(&self) -> usize;

    /// Approximate index memory footprint in bytes (Table 6), **including**
    /// the optional by-departure orderings when they are built.
    fn size_bytes(&self) -> usize;
}

/// The one list layout under [`InvertedIndex`],
/// [`ShardedIndex`](crate::sharded::ShardedIndex) and
/// [`IndexShard`](crate::sharded::IndexShard): per-symbol postings lists over
/// the trajectories with `id % num_shards == shard_id`. Postings carry
/// *global* ids. The spans live beside the lists, in one table by global id
/// ([`span_table`]); a standalone `IndexShard` serves postings only.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    pub(crate) postings: Vec<Vec<Posting>>,
    pub(crate) total_postings: usize,
    /// §4.3 extension: per-symbol postings sorted by trajectory departure
    /// time, so temporal candidate generation can binary-search instead of
    /// scanning. Built on demand by
    /// [`enable_temporal_postings`](Shard::enable_temporal_postings).
    pub(crate) dep_postings: Option<Vec<Vec<(f64, Posting)>>>,
}

impl Shard {
    /// Single pass over the trajectories this shard owns.
    pub(crate) fn build(
        store: &TrajectoryStore,
        alphabet_size: usize,
        shard_id: usize,
        num_shards: usize,
    ) -> Self {
        // Visit only owned ids: per-shard cost is O(total/num_shards), not a
        // full store scan.
        let mut shard = Shard {
            postings: vec![Vec::new(); alphabet_size],
            total_postings: 0,
            dep_postings: None,
        };
        for id in (shard_id..store.len()).step_by(num_shards) {
            let t = store.get(id as TrajId);
            for (j, &q) in t.path().iter().enumerate() {
                shard.postings[q as usize].push((id as TrajId, j as u32));
            }
            shard.total_postings += t.len();
        }
        shard
    }

    /// Builds the by-departure ordering of every list, sorting by the
    /// departures of `spans` (the [`span_table`] of the store); idempotent.
    pub(crate) fn enable_temporal_postings(&mut self, spans: &[(f64, f64)]) {
        if self.dep_postings.is_some() {
            return;
        }
        let mut dp: Vec<Vec<(f64, Posting)>> = Vec::with_capacity(self.postings.len());
        for list in &self.postings {
            let mut v: Vec<(f64, Posting)> = list
                .iter()
                .map(|&(id, j)| (spans[id as usize].0, (id, j)))
                .collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            dp.push(v);
        }
        self.dep_postings = Some(dp);
    }

    /// The departure-sorted prefix of this shard's `L_q` whose trajectories
    /// depart no later than `t_max`, found by binary search; `None` until
    /// the ordering is built.
    pub(crate) fn departing_by(&self, q: Sym, t_max: f64) -> Option<&[(f64, Posting)]> {
        let list = &self.dep_postings.as_ref()?[q as usize];
        let cut = list.partition_point(|&(dep, _)| dep <= t_max);
        Some(&list[..cut])
    }

    /// Postings records, per-symbol list headers and, when built, the
    /// by-departure ordering with its list headers.
    pub(crate) fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        let by_departure = self.dep_postings.as_ref().map_or(0, |dp| {
            self.total_postings * size_of::<(f64, Posting)>()
                + dp.len() * size_of::<Vec<(f64, Posting)>>()
        });
        self.total_postings * size_of::<Posting>()
            + self.postings.len() * size_of::<Vec<Posting>>()
            + by_departure
    }
}

/// `(departure, arrival)` of every trajectory of `store`, by global id.
pub(crate) fn span_table(store: &TrajectoryStore) -> Vec<(f64, f64)> {
    store.iter().map(|(_, t)| t.span()).collect()
}

/// Bytes of a [`span_table`] over `n` trajectories.
pub(crate) fn span_table_bytes(n: usize) -> usize {
    n * std::mem::size_of::<(f64, f64)>()
}

/// Inverted index with per-symbol postings and frequencies: shard 0 of 1
/// of the list layout, so global ids index the lists and the span table
/// directly.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    lists: Shard,
    spans: Vec<(f64, f64)>,
}

impl InvertedIndex {
    /// Builds the index over `store`; `alphabet_size` is `|V|` (vertex
    /// representation) or `|E|` (edge representation).
    pub fn build(store: &TrajectoryStore, alphabet_size: usize) -> Self {
        InvertedIndex {
            lists: Shard::build(store, alphabet_size, 0, 1),
            spans: span_table(store),
        }
    }

    /// Builds the by-departure ordering of every postings list (§4.3:
    /// "we may sort the records in each postings list by their temporal
    /// information such as departure time"). Doubles postings memory;
    /// enables [`postings_departing_by`].
    ///
    /// [`postings_departing_by`]: InvertedIndex::postings_departing_by
    pub fn enable_temporal_postings(&mut self) {
        self.lists.enable_temporal_postings(&self.spans);
    }

    /// Whether [`enable_temporal_postings`] has been called.
    ///
    /// [`enable_temporal_postings`]: InvertedIndex::enable_temporal_postings
    pub fn has_temporal_postings(&self) -> bool {
        self.lists.dep_postings.is_some()
    }

    /// The prefix of `L_q` whose trajectories depart no later than `t_max`,
    /// found by binary search on the by-departure ordering. A trajectory
    /// departing after the query interval ends cannot overlap it, so this
    /// prefix is a complete candidate source for overlap constraints.
    ///
    /// # Panics
    /// Panics if temporal postings were not enabled.
    pub fn postings_departing_by(&self, q: Sym, t_max: f64) -> &[(f64, Posting)] {
        self.lists
            .departing_by(q, t_max)
            .expect("temporal postings not enabled")
    }

    /// The postings list `L_q`.
    pub fn postings(&self, q: Sym) -> &[Posting] {
        &self.lists.postings[q as usize]
    }

    /// Symbol frequency `n(q)` (with multiplicity, per the Definition 5
    /// remark).
    pub fn freq(&self, q: Sym) -> u32 {
        self.lists.postings[q as usize].len() as u32
    }

    pub fn alphabet_size(&self) -> usize {
        self.lists.postings.len()
    }

    pub fn num_trajectories(&self) -> usize {
        self.spans.len()
    }

    pub fn total_postings(&self) -> usize {
        self.lists.total_postings
    }

    /// Trajectory time span `[T_1, T_n]` (the `I^(id)` of §4.3).
    pub fn span(&self, id: TrajId) -> (f64, f64) {
        self.spans[id as usize]
    }

    /// Approximate index memory footprint in bytes (postings + spans +
    /// per-symbol list headers + the by-departure ordering when built),
    /// reported in Table 6.
    pub fn size_bytes(&self) -> usize {
        self.lists.size_bytes() + span_table_bytes(self.spans.len())
    }

    /// Compacts this index into the immutable delta+varint arena layout
    /// ([`CompactIndex`](crate::compact::CompactIndex)), the one a
    /// reopened `trajsearch-persist` snapshot serves.
    pub fn to_compact(&self) -> crate::compact::CompactIndex {
        crate::compact::CompactIndex::from_source(self)
    }
}

/// The contiguous single-list layout is the canonical [`PostingSource`]
/// (and the 1-shard special case of
/// [`ShardedIndex`](crate::sharded::ShardedIndex)). The trait methods
/// delegate to the inherent slice-returning accessors, which remain the
/// preferred API when the concrete type is known.
impl PostingSource for InvertedIndex {
    fn postings(&self, q: Sym) -> impl Iterator<Item = Posting> + '_ {
        InvertedIndex::postings(self, q).iter().copied()
    }

    fn freq(&self, q: Sym) -> u32 {
        InvertedIndex::freq(self, q)
    }

    fn span(&self, id: TrajId) -> (f64, f64) {
        InvertedIndex::span(self, id)
    }

    fn postings_departing_by(
        &self,
        q: Sym,
        t_max: f64,
    ) -> impl Iterator<Item = (f64, Posting)> + '_ {
        InvertedIndex::postings_departing_by(self, q, t_max)
            .iter()
            .copied()
    }

    fn has_temporal_postings(&self) -> bool {
        InvertedIndex::has_temporal_postings(self)
    }

    fn alphabet_size(&self) -> usize {
        InvertedIndex::alphabet_size(self)
    }

    fn num_trajectories(&self) -> usize {
        InvertedIndex::num_trajectories(self)
    }

    fn total_postings(&self) -> usize {
        InvertedIndex::total_postings(self)
    }

    fn size_bytes(&self) -> usize {
        InvertedIndex::size_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj::Trajectory;

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![0, 1, 2], vec![10.0, 11.0, 12.0]));
        s.push(Trajectory::new(vec![2, 1, 2], vec![5.0, 6.0, 7.0]));
        s
    }

    #[test]
    fn postings_record_all_occurrences() {
        let idx = InvertedIndex::build(&store(), 4);
        assert_eq!(idx.postings(0), &[(0, 0)]);
        assert_eq!(idx.postings(1), &[(0, 1), (1, 1)]);
        assert_eq!(idx.postings(2), &[(0, 2), (1, 0), (1, 2)]);
        assert!(idx.postings(3).is_empty());
    }

    #[test]
    fn frequencies_match_postings() {
        let idx = InvertedIndex::build(&store(), 4);
        assert_eq!(idx.freq(2), 3);
        assert_eq!(idx.freq(3), 0);
        assert_eq!(idx.total_postings(), 6);
        assert_eq!(idx.alphabet_size(), 4);
        assert_eq!(idx.num_trajectories(), 2);
    }

    #[test]
    fn spans_are_departure_arrival() {
        let idx = InvertedIndex::build(&store(), 4);
        assert_eq!(idx.span(0), (10.0, 12.0));
        assert_eq!(idx.span(1), (5.0, 7.0));
    }

    #[test]
    fn empty_store_builds_an_empty_index() {
        let s = TrajectoryStore::new();
        let mut idx = InvertedIndex::build(&s, 5);
        assert_eq!(idx.num_trajectories(), 0);
        assert_eq!(idx.total_postings(), 0);
        assert_eq!(idx.alphabet_size(), 5);
        for q in 0..5u32 {
            assert!(idx.postings(q).is_empty());
            assert_eq!(idx.freq(q), 0);
        }
        // Headers are still accounted for.
        assert_eq!(idx.size_bytes(), 5 * std::mem::size_of::<Vec<Posting>>());
        // Temporal ordering over nothing is fine.
        idx.enable_temporal_postings();
        assert!(idx.has_temporal_postings());
        assert!(idx.postings_departing_by(0, f64::INFINITY).is_empty());
    }

    #[test]
    fn symbol_with_no_postings_is_empty_everywhere() {
        let mut idx = InvertedIndex::build(&store(), 4);
        assert!(idx.postings(3).is_empty());
        assert_eq!(idx.freq(3), 0);
        idx.enable_temporal_postings();
        assert!(idx.postings_departing_by(3, f64::INFINITY).is_empty());
        // The trait view agrees with the inherent one.
        assert_eq!(PostingSource::postings(&idx, 3).count(), 0);
        assert_eq!(
            PostingSource::postings_departing_by(&idx, 3, 1e9).count(),
            0
        );
    }

    #[test]
    fn temporal_postings_binary_search_prefix() {
        let mut idx = InvertedIndex::build(&store(), 4);
        assert!(!idx.has_temporal_postings());
        idx.enable_temporal_postings();
        assert!(idx.has_temporal_postings());
        // Symbol 1 appears in trajectory 0 (departs 10) and 1 (departs 5).
        let all = idx.postings_departing_by(1, 100.0);
        assert_eq!(all.len(), 2);
        assert!(all[0].0 <= all[1].0, "must be departure-sorted");
        // Only the early trajectory departs by t=7.
        let early = idx.postings_departing_by(1, 7.0);
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].1 .0, 1);
        // Nothing departs by t=1.
        assert!(idx.postings_departing_by(1, 1.0).is_empty());
        // Idempotent.
        idx.enable_temporal_postings();
    }

    #[test]
    #[should_panic(expected = "temporal postings not enabled")]
    fn temporal_postings_require_enabling() {
        let idx = InvertedIndex::build(&store(), 4);
        idx.postings_departing_by(1, 10.0);
    }

    #[test]
    fn size_bytes_counts_the_temporal_ordering() {
        use std::mem::size_of;
        let mut idx = InvertedIndex::build(&store(), 4);
        let before = idx.size_bytes();
        assert_eq!(
            before,
            6 * size_of::<Posting>() + 4 * size_of::<Vec<Posting>>() + 2 * 2 * size_of::<f64>()
        );
        idx.enable_temporal_postings();
        assert_eq!(
            idx.size_bytes() - before,
            6 * size_of::<(f64, Posting)>() + 4 * size_of::<Vec<(f64, Posting)>>()
        );
    }

    #[test]
    fn size_bytes_grows_with_postings() {
        let idx_small = InvertedIndex::build(&store(), 4);
        let mut s = store();
        s.push(Trajectory::untimed(vec![0, 1, 2, 3, 0, 1]));
        let idx_big = InvertedIndex::build(&s, 4);
        assert!(idx_big.size_bytes() > idx_small.size_bytes());
    }
}
