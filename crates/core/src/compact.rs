//! Compact postings: delta+varint encoded lists in one contiguous arena.
//!
//! [`CompactIndex`] is the third [`PostingSource`] layout, built for the
//! persistence path (the `trajsearch-persist` crate snapshots it to disk
//! and reopens it without a rebuild): every symbol's postings list is
//! canonicalized to ascending `(id, j)` order and encoded as
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
//! the qualifying records in ascending `(departure, id, j)` order, encoded
//! as `varint(zigzag(id - prev_id)), varint(j)` (ids are not monotone once
//! sorted by departure, hence the zigzag). Departure times are not stored
//! again — they are looked up in the span table while decoding, and the
//! iterator early-stops at the first record departing after `t_max`.
//!
//! The arena is immutable, like every layout here. An engine serves it
//! through [`EngineBuilder::build_with`](crate::EngineBuilder::build_with),
//! given either a built index compacted by [`CompactIndex::from_source`]
//! (or [`InvertedIndex::to_compact`](crate::index::InvertedIndex::to_compact))
//! or a reopened snapshot.

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
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// CompactIndex
// ---------------------------------------------------------------------------

/// The by-departure arena: same shape as the main one, zigzag id deltas.
#[derive(Debug, Clone)]
struct TemporalArena {
    /// `alphabet_size + 1` prefix offsets into `arena`.
    offsets: Vec<u64>,
    arena: Vec<u8>,
}

/// Delta+varint postings in one contiguous arena — the compact, immutable
/// [`PostingSource`] the snapshot format loads into. See the [module
/// docs](self) for the encoding.
#[derive(Debug, Clone)]
pub struct CompactIndex {
    /// Per-symbol `n(q)` (the MinCand frequency table).
    freqs: Vec<u32>,
    /// `alphabet_size + 1` prefix offsets into `arena`.
    offsets: Vec<u64>,
    /// All symbols' encoded postings, back to back.
    arena: Vec<u8>,
    departures: Vec<f64>,
    arrivals: Vec<f64>,
    temporal: Option<TemporalArena>,
    total_postings: usize,
}

impl CompactIndex {
    /// Compacts any [`PostingSource`]: collects each symbol's postings,
    /// sorts them into the canonical ascending `(id, j)` order and encodes
    /// the arena. If the source has temporal postings, the by-departure
    /// arena is built too (ascending `(departure, id, j)`), so the compact
    /// index answers the same temporal queries.
    ///
    /// Canonicalization makes the result **layout-independent**: the same
    /// logical index compacted from an `InvertedIndex` or any
    /// `ShardedIndex` produces identical bytes — which is what gives the
    /// snapshot format reproducible files.
    pub fn from_source<I: PostingSource>(source: &I) -> CompactIndex {
        let alphabet = source.alphabet_size();
        let n = source.num_trajectories();

        let mut freqs = Vec::with_capacity(alphabet);
        let mut offsets = Vec::with_capacity(alphabet + 1);
        let mut arena = Vec::new();
        let mut scratch: Vec<Posting> = Vec::new();
        let mut total = 0usize;
        offsets.push(0);
        for q in 0..alphabet as Sym {
            scratch.clear();
            scratch.extend(source.postings(q));
            scratch.sort_unstable();
            let mut prev = 0u64;
            for &(id, j) in &scratch {
                write_varint(&mut arena, u64::from(id) - prev);
                write_varint(&mut arena, u64::from(j));
                prev = u64::from(id);
            }
            freqs.push(scratch.len() as u32);
            offsets.push(arena.len() as u64);
            total += scratch.len();
        }

        let mut departures = Vec::with_capacity(n);
        let mut arrivals = Vec::with_capacity(n);
        for id in 0..n as TrajId {
            let (dep, arr) = source.span(id);
            departures.push(dep);
            arrivals.push(arr);
        }

        let temporal = source.has_temporal_postings().then(|| {
            let mut offsets = Vec::with_capacity(alphabet + 1);
            let mut arena = Vec::new();
            let mut scratch: Vec<(f64, Posting)> = Vec::new();
            offsets.push(0);
            for q in 0..alphabet as Sym {
                scratch.clear();
                scratch.extend(source.postings_departing_by(q, f64::INFINITY));
                scratch.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let mut prev = 0i64;
                for &(_, (id, j)) in &scratch {
                    write_varint(&mut arena, zigzag(i64::from(id) - prev));
                    write_varint(&mut arena, u64::from(j));
                    prev = i64::from(id);
                }
                offsets.push(arena.len() as u64);
            }
            TemporalArena { offsets, arena }
        });

        CompactIndex {
            freqs,
            offsets,
            arena,
            departures,
            arrivals,
            temporal,
            total_postings: total,
        }
    }

    /// Reassembles a `CompactIndex` from decoded snapshot sections, **proving
    /// they index `store`**: each arena is walked once, in lockstep with the
    /// store, and must be record for record the sequence
    /// [`from_source`](CompactIndex::from_source) would have written (see
    /// [`PartsError`] for what that covers). The span tables are taken from
    /// `store` itself. On success the iterators can neither panic nor
    /// mis-answer; on failure the error names the first record that lies.
    ///
    /// By-departure records that tie on departure have one accepted order,
    /// ascending `(id, j)` — the one `from_source` writes. Any other
    /// permutation of a tie answers queries identically but is refused as
    /// non-canonical.
    pub fn from_parts(
        store: &TrajectoryStore,
        freqs: Vec<u32>,
        offsets: Vec<u64>,
        arena: Vec<u8>,
        temporal: Option<(Vec<u64>, Vec<u8>)>,
    ) -> Result<CompactIndex, PartsError> {
        let n = store.len() as TrajId;
        prove_arena(Arena::Main, store, 0..n, &freqs, &offsets, &arena)?;
        let (departures, arrivals): (Vec<f64>, Vec<f64>) =
            store.iter().map(|(_, t)| t.span()).unzip();
        let temporal = match temporal {
            None => None,
            Some((t_offsets, t_arena)) => {
                let mut ids: Vec<TrajId> = (0..n).collect();
                let key = |id: TrajId| departures[id as usize];
                ids.sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
                prove_arena(Arena::Temporal, store, ids, &freqs, &t_offsets, &t_arena)?;
                Some(TemporalArena {
                    offsets: t_offsets,
                    arena: t_arena,
                })
            }
        };
        let total_postings = freqs.iter().map(|&f| f as usize).sum();
        Ok(CompactIndex {
            freqs,
            offsets,
            arena,
            departures,
            arrivals,
            temporal,
            total_postings,
        })
    }

    /// Per-symbol frequency table, dense over the alphabet.
    pub fn freqs(&self) -> &[u32] {
        &self.freqs
    }

    /// Prefix offsets into [`arena`](CompactIndex::arena)
    /// (`alphabet_size + 1` entries).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The encoded postings arena (all symbols, back to back).
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// Dense per-trajectory departure times.
    pub fn departures(&self) -> &[f64] {
        &self.departures
    }

    /// Dense per-trajectory arrival times.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// The by-departure arena as `(offsets, arena)`, if built.
    pub fn temporal_parts(&self) -> Option<(&[u64], &[u8])> {
        self.temporal
            .as_ref()
            .map(|t| (t.offsets.as_slice(), t.arena.as_slice()))
    }
}

/// Which arena a [`PartsError`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arena {
    /// The `L_q` arena: ascending `(id, j)`, plain id deltas.
    Main,
    /// The by-departure arena: ascending `(departure, id, j)`, zigzag deltas.
    Temporal,
}

/// Why [`CompactIndex::from_parts`] refused its input: where an arena first
/// stops being the store's own occurrence sequence.
///
/// The canonical order of a list is the order in which a walk over the
/// store meets that symbol, so acceptance is *sequence equality* with the
/// walk. That one condition covers ids and positions in range, strict
/// order, no duplicate and no missing record, `freqs[q]` records per list,
/// no trailing bytes — and that every record is a real occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartsError {
    pub arena: Arena,
    /// The symbol whose list (or offset-table entry) is at fault.
    pub symbol: Sym,
    /// Records of that list already matched when the fault showed.
    pub record: u32,
    pub reason: &'static str,
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (arena, symbol, record) = (self.arena, self.symbol, self.record);
        write!(f, "{arena:?} arena, symbol {symbol}, record {record}: ")?;
        f.write_str(self.reason)
    }
}

impl std::error::Error for PartsError {}

/// One list's state in the lockstep walk: where its next record starts,
/// the id that record's delta is relative to, and how many records `freqs`
/// still promises. 16 bytes, so a road network's alphabet stays in cache.
struct Cursor {
    pos: usize,
    prev: TrajId,
    left: u32,
}

/// Visits `ids` in order and each path left to right — which meets every
/// symbol's occurrences in `which` arena's canonical order — and requires
/// the next undecoded record of list `path[j]` to be `(id, j)`; at the end
/// every list must be used up.
fn prove_arena(
    which: Arena,
    store: &TrajectoryStore,
    ids: impl IntoIterator<Item = TrajId>,
    freqs: &[u32],
    offsets: &[u64],
    arena: &[u8],
) -> Result<(), PartsError> {
    let fail = |q: usize, record: u32, reason: &'static str| PartsError {
        arena: which,
        symbol: q as Sym,
        record,
        reason,
    };
    if offsets.len() != freqs.len() + 1 {
        return Err(fail(0, 0, "offset table is not alphabet + 1 entries"));
    }
    if offsets[0] != 0 || offsets[freqs.len()] != arena.len() as u64 {
        return Err(fail(0, 0, "offset table does not span the arena"));
    }
    if let Some(q) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(fail(q, 0, "offset table is not monotone"));
    }
    let mut cursors: Vec<Cursor> = std::iter::zip(freqs, offsets)
        .map(|(&left, &offset)| Cursor {
            pos: offset as usize,
            prev: 0,
            left,
        })
        .collect();
    let at = |q: usize, c: &Cursor, reason| fail(q, freqs[q] - c.left, reason);
    for id in ids {
        for (j, &q) in store.get(id).path().iter().enumerate() {
            let q = q as usize;
            let Some(c) = cursors.get_mut(q) else {
                return Err(fail(q, 0, "store symbol outside the index alphabet"));
            };
            if c.left == 0 {
                return Err(at(q, c, "the store has more occurrences"));
            }
            // Bounded by the arena, not the list: a cursor only moves
            // forward and must finish exactly on its list's end (below), so
            // a record that strays past that end cannot go unnoticed.
            let (delta, pos) = (
                read_varint(arena, &mut c.pos),
                read_varint(arena, &mut c.pos),
            );
            let want = match which {
                Arena::Main => u64::from(id - c.prev),
                Arena::Temporal => zigzag(i64::from(id) - i64::from(c.prev)),
            };
            if (delta, pos) != (Some(want), Some(j as u64)) {
                return Err(at(q, c, "not the store's next occurrence"));
            }
            c.prev = id;
            c.left -= 1;
        }
    }
    for (q, c) in cursors.iter().enumerate() {
        if c.left != 0 {
            return Err(at(q, c, "the store has no more occurrences"));
        }
        if c.pos as u64 != offsets[q + 1] {
            return Err(at(q, c, "list does not end at its offset-table entry"));
        }
    }
    Ok(())
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
        // Construction validated the arena, so decode cannot fail here;
        // the guards keep even a logic bug from panicking in release.
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
    /// Canonical ascending `(id, j)` order (the sort applied at build).
    fn postings(&self, q: Sym) -> impl Iterator<Item = Posting> + '_ {
        let (lo, hi) = (self.offsets[q as usize], self.offsets[q as usize + 1]);
        PostingsIter {
            slice: &self.arena[lo as usize..hi as usize],
            pos: 0,
            prev_id: 0,
        }
    }

    fn freq(&self, q: Sym) -> u32 {
        self.freqs[q as usize]
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
        let (lo, hi) = (t.offsets[q as usize], t.offsets[q as usize + 1]);
        DepartingIter {
            slice: &t.arena[lo as usize..hi as usize],
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
        self.freqs.len()
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
        let temporal = self
            .temporal
            .as_ref()
            .map_or(0, |t| t.arena.len() + t.offsets.len() * size_of::<u64>());
        self.arena.len()
            + self.offsets.len() * size_of::<u64>()
            + self.freqs.len() * size_of::<u32>()
            + (self.departures.len() + self.arrivals.len()) * size_of::<f64>()
            + temporal
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
        let compact = CompactIndex::from_source(&reference);

        assert_eq!(compact.alphabet_size(), 5);
        assert_eq!(compact.num_trajectories(), s.len());
        assert_eq!(
            PostingSource::total_postings(&compact),
            reference.total_postings()
        );
        assert!(compact.has_temporal_postings());
        for q in 0..5u32 {
            let got: Vec<Posting> = PostingSource::postings(&compact, q).collect();
            assert_eq!(got, reference.postings(q), "q={q}");
            assert_eq!(PostingSource::freq(&compact, q), reference.freq(q));
            for t_max in [0.0, 6.5, 15.0, 1e9] {
                let got: Vec<(f64, Posting)> =
                    PostingSource::postings_departing_by(&compact, q, t_max).collect();
                let want = reference.postings_departing_by(q, t_max).to_vec();
                assert_eq!(got, want, "q={q} t_max={t_max}");
            }
        }
        for id in 0..s.len() as TrajId {
            assert_eq!(PostingSource::span(&compact, id), reference.span(id));
        }
    }

    #[test]
    fn canonical_across_layouts() {
        let s = store();
        let mut inv = InvertedIndex::build(&s, 5);
        inv.enable_temporal_postings();
        let a = CompactIndex::from_source(&inv);
        for shards in [1, 2, 3] {
            let mut sh = ShardedIndex::build_parallel(&s, 5, shards);
            sh.enable_temporal_postings();
            let b = CompactIndex::from_source(&sh);
            assert_eq!(a.arena(), b.arena(), "shards={shards}");
            assert_eq!(a.offsets(), b.offsets());
            assert_eq!(a.freqs(), b.freqs());
            assert_eq!(a.temporal_parts().unwrap().1, b.temporal_parts().unwrap().1);
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
            compact.arena().len() + 6 * 8 + 5 * 4 + 2 * s.len() * 8
        );
    }

    #[test]
    fn from_parts_round_trips_and_rejects_garbage() {
        let s = store();
        let mut reference = InvertedIndex::build(&s, 5);
        reference.enable_temporal_postings();
        let c = CompactIndex::from_source(&reference);
        let temporal = || c.temporal_parts().map(|(o, a)| (o.to_vec(), a.to_vec()));
        let (freqs, offsets, arena) = (c.freqs().to_vec(), c.offsets().to_vec(), c.arena());
        let rebuilt = CompactIndex::from_parts(
            &s,
            freqs.clone(),
            offsets.clone(),
            arena.to_vec(),
            temporal(),
        )
        .expect("faithful parts must validate");
        assert_eq!(rebuilt.arena(), c.arena());
        assert_eq!(rebuilt.temporal_parts(), c.temporal_parts());
        assert_eq!(rebuilt.departures(), c.departures());
        assert_eq!(rebuilt.arrivals(), c.arrivals());
        assert_eq!(rebuilt.total_postings, c.total_postings);

        let refused = |s: &TrajectoryStore, freqs: &[u32], offsets: &[u64], arena: &[u8]| {
            CompactIndex::from_parts(s, freqs.to_vec(), offsets.to_vec(), arena.to_vec(), None)
                .expect_err("garbage must be refused")
        };
        // Truncated arena.
        let e = refused(&s, &freqs, &offsets, &arena[..arena.len() - 1]);
        assert_eq!(e.reason, "offset table does not span the arena");
        // Non-monotone offsets.
        let mut bad = offsets.clone();
        bad[1] = bad[2] + 1;
        let e = refused(&s, &freqs, &bad, arena);
        assert_eq!((e.symbol, e.reason), (1, "offset table is not monotone"));
        // Frequency table lying about a list's length, either way.
        let mut bad = freqs.clone();
        bad[1] += 1;
        let e = refused(&s, &bad, &offsets, arena);
        assert_eq!((e.arena, e.symbol, e.record), (Arena::Main, 1, freqs[1]));
        bad[1] -= 2;
        let e = refused(&s, &bad, &offsets, arena);
        assert_eq!((e.arena, e.symbol, e.record), (Arena::Main, 1, bad[1]));
        // Two frequencies swapped: offsets stay valid prefix sums.
        let mut bad = freqs.clone();
        bad.swap(0, 1);
        assert_eq!(refused(&s, &bad, &offsets, arena).arena, Arena::Main);
        // Faithful parts of a *different* store: the first record of symbol
        // 0's list is (0, 0), but this store's trajectory 0 starts with 4.
        let mut other = TrajectoryStore::new();
        other.push(Trajectory::new(vec![4, 1, 2], vec![10.0, 11.0, 12.0]));
        for (_, t) in s.iter().skip(1) {
            other.push(t.clone());
        }
        let e = refused(&other, &freqs, &offsets, arena);
        assert_eq!((e.symbol, e.record), (4, 0));
        // A symbol the index alphabet does not have.
        other = TrajectoryStore::new();
        other.push(Trajectory::untimed(vec![5]));
        let e = refused(&other, &freqs, &offsets, arena);
        assert_eq!(e.reason, "store symbol outside the index alphabet");
        // A lie confined to the by-departure arena is named as such.
        let (t_offsets, mut t_arena) = temporal().unwrap();
        t_arena[1] ^= 1; // position of symbol 0's first by-departure record
        let e = CompactIndex::from_parts(
            &s,
            freqs,
            offsets,
            arena.to_vec(),
            Some((t_offsets, t_arena)),
        )
        .expect_err("temporal lie");
        assert_eq!((e.arena, e.symbol, e.record), (Arena::Temporal, 0, 0));
        assert_eq!(
            e.to_string(),
            "Temporal arena, symbol 0, record 0: not the store's next occurrence"
        );
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
        let c = CompactIndex::from_source(&InvertedIndex::build(&TrajectoryStore::new(), 4));
        assert_eq!(c.num_trajectories(), 0);
        assert_eq!(PostingSource::total_postings(&c), 0);
        assert_eq!(PostingSource::postings(&c, 0).count(), 0);
        assert!(!c.has_temporal_postings());
    }
}
