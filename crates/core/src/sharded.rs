//! Sharded inverted index: postings partitioned by trajectory id.
//!
//! The paper's index (§4.1) is one set of per-symbol postings lists. This
//! crate keeps **one list layout** for it — the crate-private `Shard` of
//! [`crate::index`]: the lists of the trajectories with
//! `id % num_shards == shard_id`, global ids in the postings — and three
//! views over it: [`InvertedIndex`](crate::index::InvertedIndex) is shard 0
//! of 1, [`ShardedIndex`] is all `n` shards of one partition in one
//! process, and [`IndexShard`] is one of them standing alone, ready to be
//! served. The first two keep one span table by global id beside their
//! lists; an `IndexShard` holds postings only, because a coordinator takes
//! spans from the store it holds. What the partition buys:
//!
//! * **Parallel build** — each shard indexes a disjoint subset of
//!   trajectories, so [`ShardedIndex::build_parallel`] constructs all shards
//!   concurrently on `std::thread::scope` workers with no synchronization
//!   (workers share only the read-only store). Like the single list, the
//!   partition is built once; it takes no appends.
//! * **Lock-free reads** — queries iterate shards through the
//!   [`PostingSource`] trait with plain shared references; there is no
//!   interior mutability anywhere.
//! * **Placement** — shards can live in other processes
//!   (`trajsearch-distrib`); a coordinator concatenating them in shard-id
//!   order reproduces [`ShardedIndex`]'s iteration order exactly.
//!
//! The layout is invisible to search: `freq`, spans and the candidate
//! *multiset* are identical to the single-list index, and verification
//! sorts/dedups candidates, so `SearchEngine` results are byte-identical at
//! any shard count (enforced by `tests/index_equivalence.rs`).

use crate::index::{span_table, span_table_bytes, Posting, PostingSource, Shard};
use traj::{TrajId, TrajectoryStore};
use wed::Sym;

/// Inverted index partitioned by `traj_id % num_shards` — same query
/// semantics as [`InvertedIndex`](crate::index::InvertedIndex) (which is the
/// 1-shard special case) and parallel construction. See the [module
/// docs](self) for the layout.
#[derive(Debug, Clone)]
pub struct ShardedIndex {
    shards: Vec<Shard>,
    alphabet_size: usize,
    /// `(departure, arrival)` by global id.
    spans: Vec<(f64, f64)>,
}

impl ShardedIndex {
    /// Builds all shards concurrently, one `std::thread::scope` worker per
    /// shard. Workers share only the read-only store, so no locks are
    /// needed.
    ///
    /// # Panics
    /// Panics if `num_shards == 0`.
    pub fn build_parallel(
        store: &TrajectoryStore,
        alphabet_size: usize,
        num_shards: usize,
    ) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        let build = |s| Shard::build(store, alphabet_size, s, num_shards);
        let shards = if num_shards > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..num_shards)
                    .map(|s| scope.spawn(move || build(s)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard build worker panicked"))
                    .collect()
            })
        } else {
            vec![build(0)]
        };
        ShardedIndex {
            shards,
            alphabet_size,
            spans: span_table(store),
        }
    }

    /// Builds the by-departure ordering of every shard's postings lists
    /// (§4.3), in parallel (one scoped worker per shard); idempotent.
    pub fn enable_temporal_postings(&mut self) {
        let spans = &self.spans;
        std::thread::scope(|scope| {
            for shard in &mut self.shards {
                scope.spawn(move || shard.enable_temporal_postings(spans));
            }
        });
    }

    /// Number of shards the postings are partitioned into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

/// One shard of the partitioned index as a **standalone, servable** unit —
/// the building block for running shards in separate processes (see the
/// `trajsearch-serve` shard-server role and `trajsearch-distrib`).
///
/// `IndexShard::build(store, a, k, n)` constructs byte-for-byte the same
/// postings as shard `k` inside `ShardedIndex::build_parallel(store, a, n)` —
/// both are the same list layout from the same builder. That identity is
/// what makes remote placement provably equivalent to in-process sharding:
/// a coordinator concatenating remote shards in shard-id order reproduces
/// [`ShardedIndex`]'s iteration order exactly.
///
/// An `IndexShard` holds postings only: no span table and no by-departure
/// ordering. A coordinator takes spans from the store it holds and derives
/// by-departure candidates from the postings it fetched.
///
/// Postings carry **global** trajectory ids. Accessors return borrowed
/// slices so a serving layer can encode them without copies.
#[derive(Debug, Clone)]
pub struct IndexShard {
    shard: Shard,
    shard_id: usize,
    num_shards: usize,
    num_trajectories: usize,
}

impl IndexShard {
    /// Builds shard `shard_id` of an `num_shards`-way partition over
    /// `store`. Cost is `O(total_postings / num_shards)`.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or `shard_id >= num_shards`.
    pub fn build(
        store: &TrajectoryStore,
        alphabet_size: usize,
        shard_id: usize,
        num_shards: usize,
    ) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(
            shard_id < num_shards,
            "shard_id {shard_id} out of range for {num_shards} shards"
        );
        IndexShard {
            shard: Shard::build(store, alphabet_size, shard_id, num_shards),
            shard_id,
            num_shards,
            num_trajectories: store.len(),
        }
    }

    pub fn shard_id(&self) -> usize {
        self.shard_id
    }

    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    pub fn alphabet_size(&self) -> usize {
        self.shard.postings.len()
    }

    /// Trajectories owned by this shard: under the `id % n` placement,
    /// shard `k` holds the ids `k, k + n, …` of the store.
    pub fn num_local_trajectories(&self) -> usize {
        self.num_trajectories
            .saturating_sub(self.shard_id)
            .div_ceil(self.num_shards)
    }

    /// Trajectories in the *whole* store the shard was cut from — what the
    /// assembled [`PostingSource`] must report.
    pub fn num_trajectories(&self) -> usize {
        self.num_trajectories
    }

    /// This shard's share of symbol `q`'s postings list, in build order
    /// (ascending global id, then position).
    pub fn postings(&self, q: Sym) -> &[Posting] {
        &self.shard.postings[q as usize]
    }

    pub fn total_postings(&self) -> usize {
        self.shard.total_postings
    }

    pub fn size_bytes(&self) -> usize {
        self.shard.size_bytes()
    }
}

impl PostingSource for ShardedIndex {
    /// Shard-major order: shard 0's records (in build order), then
    /// shard 1's, … Consumers must treat `L_q` as a multiset.
    fn postings(&self, q: Sym) -> impl Iterator<Item = Posting> + '_ {
        self.shards
            .iter()
            .flat_map(move |s| s.postings[q as usize].iter().copied())
    }

    fn freq(&self, q: Sym) -> u32 {
        self.shards
            .iter()
            .map(|s| s.postings[q as usize].len() as u32)
            .sum()
    }

    fn span(&self, id: TrajId) -> (f64, f64) {
        self.spans[id as usize]
    }

    /// Shard-major; **departure-sorted within each shard only**. Complete
    /// (every qualifying record appears exactly once), which is all the
    /// temporal candidate generation needs.
    fn postings_departing_by(
        &self,
        q: Sym,
        t_max: f64,
    ) -> impl Iterator<Item = (f64, Posting)> + '_ {
        self.shards.iter().flat_map(move |s| {
            s.departing_by(q, t_max)
                .expect("temporal postings not enabled")
                .iter()
                .copied()
        })
    }

    fn has_temporal_postings(&self) -> bool {
        self.shards.iter().all(|s| s.dep_postings.is_some())
    }

    fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    fn num_trajectories(&self) -> usize {
        self.spans.len()
    }

    fn total_postings(&self) -> usize {
        self.shards.iter().map(|s| s.total_postings).sum()
    }

    /// Every shard keeps a full per-symbol list table, so the list headers
    /// are the one component that grows with the shard count; the span
    /// table is held once.
    fn size_bytes(&self) -> usize {
        self.shards.iter().map(Shard::size_bytes).sum::<usize>()
            + span_table_bytes(self.spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::InvertedIndex;
    use traj::Trajectory;

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![0, 1, 2], vec![10.0, 11.0, 12.0]));
        s.push(Trajectory::new(vec![2, 1, 2], vec![5.0, 6.0, 7.0]));
        s.push(Trajectory::new(vec![3, 0], vec![20.0, 21.0]));
        s.push(Trajectory::new(vec![1, 1, 1, 3], vec![1.0, 2.0, 3.0, 4.0]));
        s.push(Trajectory::new(vec![2], vec![30.0]));
        s
    }

    fn sorted_postings(idx: &impl PostingSource, q: Sym) -> Vec<Posting> {
        let mut v: Vec<Posting> = idx.postings(q).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn parallel_build_equals_inverted() {
        let s = store();
        let reference = InvertedIndex::build(&s, 6);
        for shards in [1, 2, 3, 5, 8] {
            let parallel = ShardedIndex::build_parallel(&s, 6, shards);
            assert_eq!(parallel.num_shards(), shards);
            assert_eq!(parallel.num_trajectories(), reference.num_trajectories());
            assert_eq!(parallel.total_postings(), reference.total_postings());
            for q in 0..6u32 {
                let want: Vec<Posting> = reference.postings(q).to_vec();
                assert_eq!(sorted_postings(&parallel, q), want, "parallel, q={q}");
                assert_eq!(PostingSource::freq(&parallel, q), reference.freq(q));
            }
            for id in 0..s.len() as TrajId {
                assert_eq!(parallel.span(id), reference.span(id));
            }
        }
    }

    #[test]
    fn one_shard_preserves_build_order() {
        // The 1-shard layout *is* the InvertedIndex layout, order included.
        let s = store();
        let reference = InvertedIndex::build(&s, 6);
        let sharded = ShardedIndex::build_parallel(&s, 6, 1);
        for q in 0..6u32 {
            let got: Vec<Posting> = PostingSource::postings(&sharded, q).collect();
            assert_eq!(got, reference.postings(q));
        }
    }

    #[test]
    fn departing_by_is_complete_and_bounded() {
        let s = store();
        let mut idx = ShardedIndex::build_parallel(&s, 6, 3);
        idx.enable_temporal_postings();
        let mut reference = InvertedIndex::build(&s, 6);
        reference.enable_temporal_postings();
        for q in 0..6u32 {
            for t_max in [0.0, 4.5, 10.0, 25.0, 1e9] {
                let mut got: Vec<(f64, Posting)> = idx.postings_departing_by(q, t_max).collect();
                got.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut want = reference.postings_departing_by(q, t_max).to_vec();
                want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                assert_eq!(got, want, "q={q} t_max={t_max}");
            }
        }
    }

    #[test]
    fn index_shard_is_byte_identical_to_the_sharded_index_shard() {
        let s = store();
        for num_shards in [1, 2, 3, 5] {
            let whole = ShardedIndex::build_parallel(&s, 6, num_shards);
            for k in 0..num_shards {
                let solo = IndexShard::build(&s, 6, k, num_shards);
                let inner = &whole.shards[k];
                assert_eq!(solo.shard_id(), k);
                assert_eq!(solo.num_shards(), num_shards);
                assert_eq!(solo.num_trajectories(), s.len());
                assert_eq!(
                    solo.num_local_trajectories(),
                    (k..s.len()).step_by(num_shards).count()
                );
                assert_eq!(solo.total_postings(), inner.total_postings);
                for q in 0..6u32 {
                    assert_eq!(solo.postings(q), &inner.postings[q as usize][..]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_shard_rejects_out_of_range_ids() {
        IndexShard::build(&store(), 6, 3, 3);
    }

    #[test]
    fn size_bytes_replicates_only_the_list_headers() {
        use std::mem::size_of;
        let s = store();
        let single = ShardedIndex::build_parallel(&s, 6, 1);
        let wide = ShardedIndex::build_parallel(&s, 6, 4);
        // Postings records and spans are partition-invariant; every shard
        // keeps its own per-symbol list table.
        assert_eq!(
            single.size_bytes(),
            InvertedIndex::build(&s, 6).size_bytes()
        );
        assert_eq!(
            wide.size_bytes() - single.size_bytes(),
            3 * 6 * size_of::<Vec<Posting>>()
        );
        // The whole is the sum of its standalone shards plus one span table.
        let solo_sum: usize = (0..4)
            .map(|k| IndexShard::build(&s, 6, k, 4).size_bytes())
            .sum();
        assert_eq!(wide.size_bytes(), solo_sum + s.len() * 2 * size_of::<f64>());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedIndex::build_parallel(&store(), 6, 0);
    }

    #[test]
    #[should_panic(expected = "temporal postings not enabled")]
    fn departing_by_requires_enabling() {
        let idx = ShardedIndex::build_parallel(&store(), 6, 2);
        let _ = idx.postings_departing_by(1, 10.0).count();
    }

    #[test]
    fn empty_store_and_more_shards_than_trajectories() {
        let empty = ShardedIndex::build_parallel(&TrajectoryStore::new(), 4, 3);
        assert_eq!(empty.num_trajectories(), 0);
        assert_eq!(empty.total_postings(), 0);
        assert_eq!(PostingSource::postings(&empty, 0).count(), 0);

        let s = store();
        let idx = ShardedIndex::build_parallel(&s, 6, 16);
        assert_eq!(idx.num_trajectories(), s.len());
        let reference = InvertedIndex::build(&s, 6);
        for q in 0..6u32 {
            assert_eq!(sorted_postings(&idx, q), reference.postings(q));
        }
    }
}
