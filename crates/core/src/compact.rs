//! Compact postings: delta+varint encoded lists in one contiguous arena.
//!
//! [`CompactIndex`] is the third [`PostingSource`] layout, the one a
//! reopened snapshot serves (the `trajsearch-persist` crate stores only the
//! trajectories and builds this index from them on open): every symbol's
//! postings list is kept in ascending `(id, j)` order and encoded as
//! `varint(id - prev_id), varint(j)` records into **one arena** shared by
//! the whole alphabet. Per symbol the index keeps only a `u64` arena offset
//! and a `u32` frequency — no per-list `Vec` headers, no per-record
//! padding — so the footprint comes in well under
//! [`InvertedIndex::size_bytes`](crate::index::InvertedIndex::size_bytes)
//! (8 bytes per posting + 24 bytes per symbol there, typically 2–4 bytes
//! per posting + 12 per symbol here). Iteration decodes on the fly with no
//! allocation, and because consumers treat `L_q` as a multiset (the
//! [`PostingSource`] contract), search results over a `CompactIndex` are
//! byte-identical to the other layouts — enforced by
//! `tests/index_equivalence.rs` exactly like sharding was.
//!
//! The optional §4.3 by-departure ordering gets its own arena: per symbol
//! the records in ascending `(departure, id, j)` order, encoded as
//! `varint(zigzag(id - prev_id)), varint(j)` (ids are not monotone once
//! sorted by departure, hence the zigzag). Departure times are not stored
//! again — they are looked up in the span table while decoding, and the
//! iterator early-stops at the first record departing after `t_max`.
//!
//! Both arenas are derived data. [`CompactIndex::build`] writes them from a
//! store in one walk each (ids in order, then ids by departure), appending
//! every occurrence to its symbol's run as the walk meets it;
//! [`CompactIndex::from_source`] compacts an index that holds no store.
//! Both encode through the same run encoder, so they produce the same
//! arenas. The index is immutable, like every layout here. An engine serves
//! it through [`EngineBuilder::build_with`](crate::EngineBuilder::build_with).

use crate::index::{Posting, PostingSource};
use traj::{TrajId, TrajectoryStore};
use wed::Sym;

// ---------------------------------------------------------------------------
// Varint primitives (shared with the snapshot format in trajsearch-persist)
// ---------------------------------------------------------------------------

/// Appends `v` as a LEB128 varint (7 bits per byte, high bit = continue).
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes one LEB128 varint at `*pos`, advancing it. Returns `None` on
/// truncation or a value wider than 64 bits — never panics, so corrupt
/// bytes surface as typed errors upstream.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Maps a signed delta onto the unsigned varint domain (0, -1, 1, -2, …).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// CompactIndex
// ---------------------------------------------------------------------------

/// The run encoder: appends `(id, j)` to a symbol's run as
/// `varint(id - prev), varint(j)`, the delta zigzagged when `signed`
/// (by-departure runs, whose ids are not monotone), and makes `id` the
/// run's `prev`.
fn put(run: &mut Vec<u8>, prev: &mut TrajId, (id, j): Posting, signed: bool) {
    let delta = i64::from(id) - i64::from(*prev);
    write_varint(run, if signed { zigzag(delta) } else { delta as u64 });
    write_varint(run, u64::from(j));
    *prev = id;
}

/// One arena: every symbol's run of records, back to back. A symbol past
/// the offset table has an empty run.
#[derive(Debug, Clone)]
struct Runs {
    /// One prefix offset into `arena` per symbol, plus one.
    offsets: Vec<u64>,
    arena: Vec<u8>,
}

impl Runs {
    fn with_capacity(symbols: usize, bytes: usize) -> Runs {
        let mut offsets = Vec::with_capacity(symbols + 1);
        offsets.push(0);
        Runs {
            offsets,
            arena: Vec::with_capacity(bytes),
        }
    }

    /// Appends the next symbol's run, encoding `postings` in order.
    fn encode(&mut self, postings: impl IntoIterator<Item = Posting>, signed: bool) {
        let mut prev = 0;
        for posting in postings {
            put(&mut self.arena, &mut prev, posting, signed);
        }
        self.offsets.push(self.arena.len() as u64);
    }

    /// Encodes the occurrences `ids`' paths hold, in walk order, as one run
    /// per symbol below `freqs.len()`: each occurrence goes straight to
    /// its symbol's buffer, and the buffers are then laid end to end.
    fn from_walk(
        store: &TrajectoryStore,
        ids: impl IntoIterator<Item = TrajId>,
        freqs: &[u32],
        signed: bool,
    ) -> Runs {
        // Three bytes a record: a one-byte position and an id delta below
        // 2^14 fit, so a run seldom grows.
        let mut runs: Vec<(Vec<u8>, TrajId)> = freqs
            .iter()
            .map(|&f| (Vec::with_capacity(3 * f as usize), 0))
            .collect();
        for id in ids {
            for (j, &q) in store.get(id).path().iter().enumerate() {
                let (run, prev) = &mut runs[q as usize];
                put(run, prev, (id, j as u32), signed);
            }
        }
        let bytes = runs.iter().map(|(run, _)| run.len()).sum();
        let mut out = Runs::with_capacity(runs.len(), bytes);
        for (run, _) in &runs {
            out.arena.extend_from_slice(run);
            out.offsets.push(out.arena.len() as u64);
        }
        out
    }

    fn run(&self, q: Sym) -> &[u8] {
        match self.offsets.get(q as usize..q as usize + 2) {
            Some(&[lo, hi]) => &self.arena[lo as usize..hi as usize],
            _ => &[],
        }
    }

    fn size_bytes(&self) -> usize {
        self.arena.len() + self.offsets.len() * std::mem::size_of::<u64>()
    }
}

/// Delta+varint postings in one contiguous arena — the compact, immutable
/// [`PostingSource`] a reopened snapshot serves. See the [module
/// docs](self) for the encoding.
#[derive(Debug, Clone)]
pub struct CompactIndex {
    alphabet_size: usize,
    /// Per-symbol `n(q)` (the MinCand frequency table), as long as the
    /// offset tables; a symbol past it occurs nowhere.
    freqs: Vec<u32>,
    /// `L_q` in ascending `(id, j)` order.
    lists: Runs,
    departures: Vec<f64>,
    arrivals: Vec<f64>,
    /// `L_q` in ascending `(departure, id, j)` order, if built.
    temporal: Option<Runs>,
    total_postings: usize,
}

impl CompactIndex {
    /// Indexes `store` over an alphabet of `alphabet` symbols, with the
    /// by-departure arena when `temporal`. Frequencies are counted once;
    /// then each arena is one walk of the store (ids ascending for `L_q`,
    /// ids by `(departure, id)` for the by-departure one), which meets
    /// every symbol's occurrences in that arena's order.
    ///
    /// The per-symbol tables are as long as the largest symbol that occurs,
    /// plus one, not as the alphabet: a claimed alphabet costs nothing until
    /// its symbols occur.
    ///
    /// # Panics
    /// Panics if a path symbol is not below `alphabet`.
    pub fn build(store: &TrajectoryStore, alphabet: usize, temporal: bool) -> CompactIndex {
        let mut freqs: Vec<u32> = Vec::new();
        for (_, t) in store.iter() {
            let top = t.path().iter().max().map_or(0, |&q| q as usize);
            assert!(
                top < alphabet,
                "store symbol {top} outside the alphabet ({alphabet})"
            );
            if top >= freqs.len() {
                freqs.resize(top + 1, 0);
            }
            for &q in t.path() {
                freqs[q as usize] += 1;
            }
        }
        let (departures, arrivals): (Vec<f64>, Vec<f64>) =
            store.iter().map(|(_, t)| t.span()).unzip();
        let ids = 0..store.len() as TrajId;
        let lists = Runs::from_walk(store, ids.clone(), &freqs, false);
        let temporal = temporal.then(|| {
            // A stable sort: ids that tie on departure stay ascending.
            let mut ids: Vec<TrajId> = ids.collect();
            ids.sort_by(|&a, &b| departures[a as usize].total_cmp(&departures[b as usize]));
            Runs::from_walk(store, ids, &freqs, true)
        });
        CompactIndex {
            alphabet_size: alphabet,
            total_postings: freqs.iter().map(|&f| f as usize).sum(),
            freqs,
            lists,
            departures,
            arrivals,
            temporal,
        }
    }

    /// Compacts any [`PostingSource`]: collects each symbol's postings,
    /// sorts them into ascending `(id, j)` order and encodes the arena. If
    /// the source has temporal postings, the by-departure arena is built
    /// too (ascending `(departure, id, j)`), so the compact index answers
    /// the same temporal queries.
    ///
    /// The sorts make the result **layout-independent**: the same logical
    /// index compacted from an `InvertedIndex` or any `ShardedIndex`
    /// produces the arenas [`build`](CompactIndex::build) writes from its
    /// store.
    pub fn from_source<I: PostingSource>(source: &I) -> CompactIndex {
        let alphabet = source.alphabet_size();
        // Every record takes at least two bytes.
        let bytes = 2 * source.total_postings();
        let mut freqs = Vec::with_capacity(alphabet);
        let mut lists = Runs::with_capacity(alphabet, bytes);
        let mut scratch: Vec<Posting> = Vec::new();
        for q in 0..alphabet as Sym {
            scratch.clear();
            scratch.extend(source.postings(q));
            scratch.sort_unstable();
            freqs.push(scratch.len() as u32);
            lists.encode(scratch.iter().copied(), false);
        }
        let (departures, arrivals) = (0..source.num_trajectories() as TrajId)
            .map(|id| source.span(id))
            .unzip();
        let temporal = source.has_temporal_postings().then(|| {
            let mut runs = Runs::with_capacity(alphabet, bytes);
            let mut by_departure: Vec<(f64, Posting)> = Vec::new();
            for q in 0..alphabet as Sym {
                by_departure.clear();
                by_departure.extend(source.postings_departing_by(q, f64::INFINITY));
                by_departure.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                runs.encode(by_departure.iter().map(|&(_, p)| p), true);
            }
            runs
        });
        CompactIndex {
            alphabet_size: alphabet,
            total_postings: freqs.iter().map(|&f| f as usize).sum(),
            freqs,
            lists,
            departures,
            arrivals,
            temporal,
        }
    }
}

/// Decode-on-iterate view of one symbol's arena slice.
struct PostingsIter<'a> {
    slice: &'a [u8],
    pos: usize,
    prev_id: u64,
}

impl Iterator for PostingsIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        if self.pos >= self.slice.len() {
            return None;
        }
        // The arena was encoded here, so decode cannot fail; the guards
        // keep even a logic bug from panicking in release.
        let delta = read_varint(self.slice, &mut self.pos)?;
        let j = read_varint(self.slice, &mut self.pos)?;
        self.prev_id += delta;
        Some((self.prev_id as TrajId, j as u32))
    }
}

/// Decode-on-iterate view of one symbol's temporal slice, early-stopping at
/// the first record departing after `t_max`.
struct DepartingIter<'a> {
    slice: &'a [u8],
    departures: &'a [f64],
    pos: usize,
    prev_id: i64,
    t_max: f64,
}

impl Iterator for DepartingIter<'_> {
    type Item = (f64, Posting);

    fn next(&mut self) -> Option<(f64, Posting)> {
        if self.pos >= self.slice.len() {
            return None;
        }
        let delta = read_varint(self.slice, &mut self.pos)?;
        let j = read_varint(self.slice, &mut self.pos)?;
        self.prev_id += unzigzag(delta);
        let dep = self.departures[self.prev_id as usize];
        if dep > self.t_max {
            // Departure-sorted: nothing later can qualify.
            self.pos = self.slice.len();
            return None;
        }
        Some((dep, (self.prev_id as TrajId, j as u32)))
    }
}

impl PostingSource for CompactIndex {
    /// Ascending `(id, j)` order.
    fn postings(&self, q: Sym) -> impl Iterator<Item = Posting> + '_ {
        PostingsIter {
            slice: self.lists.run(q),
            pos: 0,
            prev_id: 0,
        }
    }

    fn freq(&self, q: Sym) -> u32 {
        self.freqs.get(q as usize).copied().unwrap_or(0)
    }

    fn span(&self, id: TrajId) -> (f64, f64) {
        (self.departures[id as usize], self.arrivals[id as usize])
    }

    /// Ascending departure order; departures come from the span table, not
    /// the arena, so each record costs two varint decodes plus one lookup.
    fn postings_departing_by(
        &self,
        q: Sym,
        t_max: f64,
    ) -> impl Iterator<Item = (f64, Posting)> + '_ {
        let t = self
            .temporal
            .as_ref()
            .expect("temporal postings not enabled");
        DepartingIter {
            slice: t.run(q),
            departures: &self.departures,
            pos: 0,
            prev_id: 0,
            t_max,
        }
    }

    fn has_temporal_postings(&self) -> bool {
        self.temporal.is_some()
    }

    fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    fn num_trajectories(&self) -> usize {
        self.departures.len()
    }

    fn total_postings(&self) -> usize {
        self.total_postings
    }

    /// The arena, the offset and frequency tables, the span tables and,
    /// when built, the temporal arena with its offsets.
    fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        self.lists.size_bytes()
            + self.freqs.len() * size_of::<u32>()
            + (self.departures.len() + self.arrivals.len()) * size_of::<f64>()
            + self.temporal.as_ref().map_or(0, Runs::size_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::InvertedIndex;
    use crate::sharded::ShardedIndex;
    use traj::{Trajectory, TrajectoryStore};

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![0, 1, 2], vec![10.0, 11.0, 12.0]));
        s.push(Trajectory::new(vec![2, 1, 2], vec![5.0, 6.0, 7.0]));
        s.push(Trajectory::new(vec![3, 0], vec![20.0, 21.0]));
        s.push(Trajectory::new(vec![1, 1, 1, 3], vec![1.0, 2.0, 3.0, 4.0]));
        s
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        assert_eq!(read_varint(&buf, &mut pos), None, "past the end");
        // Truncated continuation byte.
        assert_eq!(read_varint(&[0x80], &mut 0), None);
        // 11-byte over-wide encoding must be rejected, not wrap.
        let wide = [0xff; 10];
        assert_eq!(read_varint(&wide, &mut 0), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn compact_matches_inverted_surface() {
        let s = store();
        let mut reference = InvertedIndex::build(&s, 5);
        reference.enable_temporal_postings();
        let built = CompactIndex::build(&s, 5, true);
        for compact in [CompactIndex::from_source(&reference), built] {
            check_surface(&compact, &reference, &s);
        }
    }

    fn check_surface(compact: &CompactIndex, reference: &InvertedIndex, s: &TrajectoryStore) {
        assert_eq!(compact.alphabet_size(), 5);
        assert_eq!(compact.num_trajectories(), s.len());
        assert_eq!(
            PostingSource::total_postings(compact),
            reference.total_postings()
        );
        assert!(compact.has_temporal_postings());
        for q in 0..5u32 {
            let got: Vec<Posting> = PostingSource::postings(compact, q).collect();
            assert_eq!(got, reference.postings(q), "q={q}");
            assert_eq!(PostingSource::freq(compact, q), reference.freq(q));
            for t_max in [0.0, 6.5, 15.0, 1e9] {
                let got: Vec<(f64, Posting)> =
                    PostingSource::postings_departing_by(compact, q, t_max).collect();
                let want = reference.postings_departing_by(q, t_max).to_vec();
                assert_eq!(got, want, "q={q} t_max={t_max}");
            }
        }
        for id in 0..s.len() as TrajId {
            assert_eq!(PostingSource::span(compact, id), reference.span(id));
        }
    }

    /// Every symbol's run in both arenas, over the whole alphabet.
    fn runs(c: &CompactIndex) -> (Vec<&[u8]>, Option<Vec<&[u8]>>) {
        let symbols = 0..c.alphabet_size() as Sym;
        let temporal = c.temporal.as_ref();
        (
            symbols.clone().map(|q| c.lists.run(q)).collect(),
            temporal.map(|t| symbols.map(|q| t.run(q)).collect()),
        )
    }

    #[test]
    fn canonical_across_layouts() {
        let s = store();
        for temporal in [false, true] {
            let built = CompactIndex::build(&s, 5, temporal);
            let mut inv = InvertedIndex::build(&s, 5);
            let mut sharded: Vec<ShardedIndex> = [1, 2, 3]
                .map(|shards| ShardedIndex::build_parallel(&s, 5, shards))
                .into();
            if temporal {
                inv.enable_temporal_postings();
                sharded
                    .iter_mut()
                    .for_each(ShardedIndex::enable_temporal_postings);
            }
            let want = runs(&built);
            assert_eq!(runs(&CompactIndex::from_source(&inv)), want);
            for sh in &sharded {
                assert_eq!(runs(&CompactIndex::from_source(sh)), want);
            }
            // Symbol 4 never occurs: its tables stop at symbol 3.
            assert_eq!((built.freqs.len(), built.lists.offsets.len()), (4, 5));
            assert_eq!((built.freq(4), built.postings(4).count()), (0, 0));
        }
    }

    #[test]
    fn compact_is_smaller_than_inverted() {
        let s = store();
        let reference = InvertedIndex::build(&s, 5);
        let compact = CompactIndex::from_source(&reference);
        assert!(
            PostingSource::size_bytes(&compact) < reference.size_bytes(),
            "{} !< {}",
            PostingSource::size_bytes(&compact),
            reference.size_bytes()
        );
        assert_eq!(
            PostingSource::size_bytes(&compact),
            compact.lists.arena.len() + 6 * 8 + 5 * 4 + 2 * s.len() * 8
        );
    }

    #[test]
    #[should_panic(expected = "store symbol 3 outside the alphabet (3)")]
    fn build_refuses_a_symbol_outside_the_alphabet() {
        CompactIndex::build(&store(), 3, false);
    }

    #[test]
    #[should_panic(expected = "temporal postings not enabled")]
    fn departing_by_requires_temporal() {
        let s = store();
        let c = CompactIndex::from_source(&InvertedIndex::build(&s, 5));
        let _ = c.postings_departing_by(1, 10.0).count();
    }

    #[test]
    fn empty_store_compacts() {
        let empty = TrajectoryStore::new();
        let built = CompactIndex::build(&empty, 4, false);
        for c in [
            CompactIndex::from_source(&InvertedIndex::build(&empty, 4)),
            built,
        ] {
            assert_eq!(c.num_trajectories(), 0);
            assert_eq!(c.alphabet_size(), 4);
            assert_eq!(PostingSource::total_postings(&c), 0);
            assert_eq!(PostingSource::postings(&c, 0).count(), 0);
            assert!(!c.has_temporal_postings());
        }
    }
}
