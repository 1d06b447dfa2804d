//! The snapshot file format and its reader/writer.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TSNP"
//! 4       2     format version (little-endian, currently 1)
//! 6       2     flags  (bit 0: temporal section present)
//! 8       4     section count
//! 12      4     header CRC32 (over bytes 0..12 ++ the manifest)
//! 16      24·k  manifest: per section {kind u32, offset u64, len u64, crc u32}
//! ...           section payloads (contiguous, in manifest order)
//! ```
//!
//! Sections of version 1 (`kind`):
//!
//! | kind | name     | payload                                              |
//! |------|----------|------------------------------------------------------|
//! | 1    | meta     | varints: num_trajectories, alphabet_size, postings   |
//! | 2    | paths    | per trajectory: varint len, then varint symbols      |
//! | 3    | times    | raw `f64` LE timestamps, trajectory-major            |
//! | 4    | spans    | raw `f64` LE departures ×n, then arrivals ×n         |
//! | 5    | postings | freqs `u32` LE ×a · offsets `u64` LE ×(a+1) · arena  |
//! | 6    | temporal | offsets `u64` LE ×(a+1) · arena (flag bit 0 only)    |
//!
//! The reader validates in strict order, each step trusting only what the
//! steps before it established:
//!
//! 1. header: magic, version, flags, section count;
//! 2. the header + manifest CRC, before any offset in it is believed;
//! 3. manifest entries: known kinds, no duplicates, ranges inside the file;
//! 4. each section's CRC, before its payload is parsed;
//! 5. `meta`, every count bounded by the bytes that actually exist;
//! 6. `paths` + `times` into the store, with nothing left over in either;
//! 7. `spans`, bitwise equal to the store's own first and last times;
//! 8. `postings` and `temporal`: each arena is walked **once, in lockstep
//!    with the store** ([`CompactIndex::from_parts`]) and must be, record for
//!    record, the sequence the store's occurrences form in canonical order.
//!
//! Step 8 is the structural and the semantic validation at once, so even a
//! CRC-consistent file written by a buggy tool cannot serve wrong answers.
//! Canonical order is part of the format: by-departure records that tie on
//! departure are accepted in ascending `(id, j)` order only. No writer in
//! this repository produces another order.

use crate::error::SnapshotError;
use crate::format::{crc32, read_f64, read_u16, read_u32, read_u64};
use std::path::Path;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::compact::{read_varint, write_varint, Arena};
use trajsearch_core::{CompactIndex, PostingSource};

/// First four bytes of every snapshot file.
pub const MAGIC: [u8; 4] = *b"TSNP";
/// The format version this build writes and the newest it can read.
pub const FORMAT_VERSION: u16 = 1;
/// Flags bit 0: the temporal (by-departure) section is present.
pub const FLAG_TEMPORAL: u16 = 1 << 0;
/// Fixed header size in bytes (the manifest follows immediately).
pub const HEADER_LEN: usize = 16;
/// Size of one manifest entry in bytes.
pub const MANIFEST_ENTRY_LEN: usize = 24;

const SEC_META: u32 = 1;
const SEC_PATHS: u32 = 2;
const SEC_TIMES: u32 = 3;
const SEC_SPANS: u32 = 4;
const SEC_POSTINGS: u32 = 5;
const SEC_TEMPORAL: u32 = 6;
/// Backstop against absurd manifests before any allocation happens.
const MAX_SECTIONS: u32 = 64;

fn section_name(kind: u32) -> &'static str {
    match kind {
        SEC_META => "meta",
        SEC_PATHS => "paths",
        SEC_TIMES => "times",
        SEC_SPANS => "spans",
        SEC_POSTINGS => "postings",
        SEC_TEMPORAL => "temporal",
        _ => "unknown",
    }
}

/// What [`Snapshot::write`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Total file size in bytes.
    pub file_bytes: usize,
    /// Number of sections in the manifest.
    pub sections: usize,
    /// Whether the by-departure orderings were included.
    pub temporal: bool,
}

/// A decoded snapshot: the trajectory store plus the compact index, ready
/// for [`EngineBuilder::build_with`](trajsearch_core::EngineBuilder::build_with).
#[derive(Debug, Clone)]
pub struct Snapshot {
    store: TrajectoryStore,
    index: CompactIndex,
    file_bytes: usize,
}

impl Snapshot {
    /// Serializes `store` + `index` and writes the file atomically: the
    /// bytes go to `<file name>.tmp` beside `path`, which is then renamed
    /// over it, and removed again if either step fails. A process that
    /// crashes mid-write therefore never leaves a torn snapshot under the
    /// real name. Power loss is not covered: nothing here calls `sync_all`,
    /// so the rename can reach the disk before the data does.
    ///
    /// `index` may be any [`PostingSource`] — single-list, sharded at any
    /// count, or an already-compact index; canonicalization makes the bytes
    /// identical in every case.
    pub fn write<I: PostingSource>(
        path: &Path,
        store: &TrajectoryStore,
        index: &I,
    ) -> Result<SnapshotInfo, SnapshotError> {
        let (bytes, info) = encode_sections(store, index)?;
        let mut tmp_name = path
            .file_name()
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
            })?
            .to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        if let Err(e) = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path)) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(info)
    }

    /// The in-memory half of [`Snapshot::write`]: the exact file bytes.
    ///
    /// Fails with [`SnapshotError::StoreIndexMismatch`] if `index` does not
    /// describe `store`'s trajectories (count, spans, or total postings
    /// disagree, or a path symbol is outside the index alphabet).
    pub fn encode<I: PostingSource>(
        store: &TrajectoryStore,
        index: &I,
    ) -> Result<Vec<u8>, SnapshotError> {
        encode_sections(store, index).map(|(bytes, _)| bytes)
    }

    /// Reads and [`decode`](Snapshot::decode)s the file at `path`.
    pub fn open(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Snapshot::decode(&bytes)
    }

    /// Validates and decodes snapshot bytes. Validation runs in strict
    /// order — magic, version, flags, manifest bounds, header CRC,
    /// per-section CRCs, bounded parses, then one lockstep walk of each
    /// arena against the decoded store ([`CompactIndex::from_parts`]); any
    /// defect yields a typed [`SnapshotError`], never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let (store, index) = decode_validated(bytes)?;
        Ok(Snapshot {
            store,
            index,
            file_bytes: bytes.len(),
        })
    }

    /// The decoded trajectory store.
    pub fn store(&self) -> &TrajectoryStore {
        &self.store
    }

    /// The decoded compact index.
    pub fn index(&self) -> &CompactIndex {
        &self.index
    }

    /// Size of the file (or byte buffer) this snapshot was decoded from.
    pub fn file_bytes(&self) -> usize {
        self.file_bytes
    }

    /// Consumes the snapshot into `(store, index)` — the pair
    /// [`EngineBuilder::build_with`](trajsearch_core::EngineBuilder::build_with)
    /// wants.
    pub fn into_parts(self) -> (TrajectoryStore, CompactIndex) {
        (self.store, self.index)
    }
}

fn check_encode_coherence<I: PostingSource>(
    store: &TrajectoryStore,
    index: &I,
) -> Result<(), SnapshotError> {
    let mismatch = |detail: String| Err(SnapshotError::StoreIndexMismatch { detail });
    if index.num_trajectories() != store.len() {
        return mismatch(format!(
            "index covers {} trajectories, store holds {}",
            index.num_trajectories(),
            store.len()
        ));
    }
    let alphabet = index.alphabet_size();
    let mut total = 0usize;
    for (id, t) in store.iter() {
        total += t.path().len();
        if let Some(&sym) = t.path().iter().find(|&&s| s as usize >= alphabet) {
            return mismatch(format!(
                "trajectory {id} uses symbol {sym}, outside the index alphabet ({alphabet})"
            ));
        }
        let (dep, arr) = index.span(id);
        if dep.to_bits() != t.departure().to_bits() || arr.to_bits() != t.arrival().to_bits() {
            return mismatch(format!(
                "span of trajectory {id}: index says ({dep}, {arr}), store says ({}, {})",
                t.departure(),
                t.arrival()
            ));
        }
    }
    if total != index.total_postings() {
        return mismatch(format!(
            "store holds {total} path positions, index holds {} postings",
            index.total_postings()
        ));
    }
    Ok(())
}

/// Writes every section straight into the file buffer: the header and
/// manifest are reserved up front, each payload is appended in place, and
/// the manifest is filled in from the ranges that were actually written.
fn encode_sections<I: PostingSource>(
    store: &TrajectoryStore,
    index: &I,
) -> Result<(Vec<u8>, SnapshotInfo), SnapshotError> {
    check_encode_coherence(store, index)?;
    let compact = CompactIndex::from_source(index);
    let (n, total) = (store.len(), compact.total_postings());
    let temporal = compact.temporal_parts();
    let temporal_len = temporal.map_or(0, |(offsets, arena)| offsets.len() * 8 + arena.len());

    let section_count = if temporal.is_some() { 6 } else { 5 };
    let body_start = HEADER_LEN + section_count * MANIFEST_ENTRY_LEN;
    // Exact but for `paths`, budgeted at two bytes a symbol (alphabets up
    // to 16 384); past that the buffer grows, the bytes are the same.
    let mut out = Vec::with_capacity(
        body_start
            + 3 * 10
            + (n + total) * 2
            + (total + 2 * n) * 8
            + compact.freqs().len() * 4
            + compact.offsets().len() * 8
            + compact.arena().len()
            + temporal_len,
    );
    out.resize(body_start, 0);
    let mut starts = Vec::with_capacity(section_count);
    let put_f64s = |out: &mut Vec<u8>, values: &[f64]| {
        out.extend(values.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    };
    let put_u64s = |out: &mut Vec<u8>, values: &[u64]| {
        out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    };

    starts.push((SEC_META, out.len()));
    for count in [n, compact.alphabet_size(), total] {
        write_varint(&mut out, count as u64);
    }
    starts.push((SEC_PATHS, out.len()));
    for (_, t) in store.iter() {
        write_varint(&mut out, t.path().len() as u64);
        for &sym in t.path() {
            write_varint(&mut out, u64::from(sym));
        }
    }
    starts.push((SEC_TIMES, out.len()));
    for (_, t) in store.iter() {
        put_f64s(&mut out, t.times());
    }
    starts.push((SEC_SPANS, out.len()));
    put_f64s(&mut out, compact.departures());
    put_f64s(&mut out, compact.arrivals());
    starts.push((SEC_POSTINGS, out.len()));
    for f in compact.freqs() {
        out.extend_from_slice(&f.to_le_bytes());
    }
    put_u64s(&mut out, compact.offsets());
    out.extend_from_slice(compact.arena());
    if let Some((t_offsets, t_arena)) = temporal {
        starts.push((SEC_TEMPORAL, out.len()));
        put_u64s(&mut out, t_offsets);
        out.extend_from_slice(t_arena);
    }

    debug_assert_eq!(starts.len(), section_count, "manifest space reserved");
    for (i, &(kind, start)) in starts.iter().enumerate() {
        let end = starts.get(i + 1).map_or(out.len(), |&(_, next)| next);
        let crc = crc32(&out[start..end]);
        let entry = &mut out[HEADER_LEN + i * MANIFEST_ENTRY_LEN..][..MANIFEST_ENTRY_LEN];
        entry[..4].copy_from_slice(&kind.to_le_bytes());
        entry[4..12].copy_from_slice(&(start as u64).to_le_bytes());
        entry[12..20].copy_from_slice(&((end - start) as u64).to_le_bytes());
        entry[20..].copy_from_slice(&crc.to_le_bytes());
    }
    let flags = if temporal.is_some() { FLAG_TEMPORAL } else { 0 };
    out[..4].copy_from_slice(&MAGIC);
    out[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[6..8].copy_from_slice(&flags.to_le_bytes());
    out[8..12].copy_from_slice(&(starts.len() as u32).to_le_bytes());
    let crc = header_crc(&out, body_start);
    out[12..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());

    let info = SnapshotInfo {
        file_bytes: out.len(),
        sections: starts.len(),
        temporal: temporal.is_some(),
    };
    Ok((out, info))
}

/// The header CRC covers bytes `0..12` and the manifest — everything before
/// the payloads except the four bytes that hold the CRC itself.
fn header_crc(bytes: &[u8], body_start: usize) -> u32 {
    let mut head = Vec::with_capacity(body_start - 4);
    head.extend_from_slice(&bytes[..12]);
    head.extend_from_slice(&bytes[HEADER_LEN..body_start]);
    crc32(&head)
}

fn decode_validated(bytes: &[u8]) -> Result<(TrajectoryStore, CompactIndex), SnapshotError> {
    let have = bytes.len() as u64;
    let truncated =
        |what: &'static str, needed: u64| SnapshotError::Truncated { what, needed, have };
    let corrupt =
        |section: &'static str, detail: String| SnapshotError::Corrupt { section, detail };

    // 1. Header: magic, version, flags — checked before anything else so a
    //    foreign or future file is identified as such, not as "corrupt".
    if bytes.len() < HEADER_LEN {
        return Err(truncated("header", HEADER_LEN as u64));
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic {
            found: [bytes[0], bytes[1], bytes[2], bytes[3]],
        });
    }
    let version = read_u16(bytes, 4).expect("header length checked");
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let flags = read_u16(bytes, 6).expect("header length checked");
    if flags & !FLAG_TEMPORAL != 0 {
        return Err(SnapshotError::UnknownFlags { flags });
    }
    let section_count = read_u32(bytes, 8).expect("header length checked");
    if section_count > MAX_SECTIONS {
        return Err(corrupt(
            "header",
            format!("implausible section count {section_count}"),
        ));
    }
    let manifest_len = section_count as usize * MANIFEST_ENTRY_LEN;
    let body_start = HEADER_LEN + manifest_len;
    if bytes.len() < body_start {
        return Err(truncated("manifest", body_start as u64));
    }

    // 2. Header + manifest CRC, before trusting any offset in it.
    let stored_crc = read_u32(bytes, 12).expect("header length checked");
    let computed_crc = header_crc(bytes, body_start);
    if stored_crc != computed_crc {
        return Err(SnapshotError::ChecksumMismatch {
            section: "header",
            stored: stored_crc,
            computed: computed_crc,
        });
    }

    // 3. Manifest entries: known kinds, unique, in-bounds ranges.
    let mut sections: [Option<&[u8]>; 6] = [None; 6];
    for i in 0..section_count as usize {
        let base = HEADER_LEN + i * MANIFEST_ENTRY_LEN;
        let kind = read_u32(bytes, base).expect("manifest length checked");
        let offset = read_u64(bytes, base + 4).expect("manifest length checked");
        let len = read_u64(bytes, base + 12).expect("manifest length checked");
        let crc = read_u32(bytes, base + 20).expect("manifest length checked");
        if !(SEC_META..=SEC_TEMPORAL).contains(&kind) {
            return Err(corrupt("manifest", format!("unknown section kind {kind}")));
        }
        let name = section_name(kind);
        let slot = &mut sections[kind as usize - 1];
        if slot.is_some() {
            return Err(corrupt("manifest", format!("duplicate {name} section")));
        }
        if offset < body_start as u64 {
            return Err(corrupt(
                "manifest",
                format!("{name} section overlaps the header"),
            ));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt("manifest", format!("{name} section range overflows")))?;
        if end > have {
            return Err(truncated(name, end));
        }
        let payload = &bytes[offset as usize..end as usize];
        // 4. Section CRC before its payload is parsed.
        let computed = crc32(payload);
        if crc != computed {
            return Err(SnapshotError::ChecksumMismatch {
                section: name,
                stored: crc,
                computed,
            });
        }
        *slot = Some(payload);
    }
    let want_temporal = flags & FLAG_TEMPORAL != 0;
    let required: &[u32] = &[SEC_META, SEC_PATHS, SEC_TIMES, SEC_SPANS, SEC_POSTINGS];
    for &kind in required {
        if sections[kind as usize - 1].is_none() {
            return Err(corrupt(
                "manifest",
                format!("missing {} section", section_name(kind)),
            ));
        }
    }
    if want_temporal != sections[SEC_TEMPORAL as usize - 1].is_some() {
        return Err(corrupt(
            "manifest",
            "temporal flag and temporal section disagree".into(),
        ));
    }
    let section = |kind: u32| sections[kind as usize - 1].expect("presence checked above");

    // 5. Meta, with every count bounded by real bytes before allocation.
    let meta = section(SEC_META);
    let mut pos = 0usize;
    let mut meta_varint = |what: &'static str| {
        read_varint(meta, &mut pos).ok_or_else(|| corrupt("meta", format!("{what} truncated")))
    };
    let n = meta_varint("trajectory count")?;
    let alphabet = meta_varint("alphabet size")?;
    let total = meta_varint("total postings")?;
    if pos != meta.len() {
        return Err(corrupt("meta", "trailing bytes".into()));
    }
    if n > u64::from(u32::MAX) {
        return Err(corrupt(
            "meta",
            format!("{n} trajectories overflow u32 ids"),
        ));
    }
    if alphabet > u64::from(u32::MAX) {
        return Err(corrupt(
            "meta",
            format!("alphabet {alphabet} overflows u32"),
        ));
    }
    let paths_sec = section(SEC_PATHS);
    let times_sec = section(SEC_TIMES);
    let spans_sec = section(SEC_SPANS);
    let postings_sec = section(SEC_POSTINGS);
    // Each trajectory needs >= 2 bytes of path encoding (length + one
    // symbol) and 16 span bytes; each posting one time stamp.
    if n * 2 > paths_sec.len() as u64 || n * 16 != spans_sec.len() as u64 {
        return Err(corrupt(
            "meta",
            format!("{n} trajectories do not fit the paths/spans sections"),
        ));
    }
    let time_bytes = total.checked_mul(8).ok_or_else(|| {
        corrupt(
            "meta",
            format!("{total} postings overflow the times section size"),
        )
    })?;
    if time_bytes != times_sec.len() as u64 {
        return Err(corrupt(
            "meta",
            format!(
                "{total} postings need {time_bytes} time bytes, section has {}",
                times_sec.len()
            ),
        ));
    }
    let tables_len = (alphabet * 4)
        .checked_add((alphabet + 1) * 8)
        .filter(|&need| need <= postings_sec.len() as u64)
        .ok_or_else(|| {
            corrupt(
                "meta",
                format!("alphabet {alphabet} does not fit the postings section"),
            )
        })?;
    let (n, alphabet) = (n as usize, alphabet as usize);

    // 6. Store sections.
    let mut store = TrajectoryStore::new();
    let mut path_pos = 0usize;
    let mut stamps = times_sec.chunks_exact(8);
    for id in 0..n {
        let len = read_varint(paths_sec, &mut path_pos)
            .ok_or_else(|| corrupt("paths", format!("trajectory {id} length truncated")))?;
        if len == 0 {
            return Err(corrupt("paths", format!("trajectory {id} is empty")));
        }
        if len > (paths_sec.len() - path_pos) as u64 {
            return Err(corrupt(
                "paths",
                format!("trajectory {id} claims {len} symbols, section has fewer bytes"),
            ));
        }
        let mut path = Vec::with_capacity(len as usize);
        for k in 0..len {
            let sym = read_varint(paths_sec, &mut path_pos).ok_or_else(|| {
                corrupt("paths", format!("trajectory {id} truncated at symbol {k}"))
            })?;
            if sym >= alphabet as u64 {
                return Err(corrupt(
                    "paths",
                    format!("trajectory {id} symbol {sym} outside alphabet {alphabet}"),
                ));
            }
            path.push(sym as u32);
        }
        let mut times = Vec::with_capacity(len as usize);
        let mut last = f64::NEG_INFINITY;
        for k in 0..len {
            let stamp = stamps
                .next()
                .ok_or_else(|| corrupt("times", format!("trajectory {id} truncated at {k}")))?;
            let t = f64::from_le_bytes(stamp.try_into().expect("chunk of 8"));
            if t.is_nan() || t < last {
                return Err(corrupt(
                    "times",
                    format!("trajectory {id} timestamps not non-decreasing at {k}"),
                ));
            }
            last = t;
            times.push(t);
        }
        store.push(Trajectory::new(path, times));
    }
    if path_pos != paths_sec.len() {
        return Err(corrupt("paths", "trailing bytes".into()));
    }
    if stamps.next().is_some() {
        return Err(corrupt("times", "trailing bytes".into()));
    }

    // 7. Spans must agree bitwise with the store's own times (the index
    //    takes its span tables from the store, so this is their check).
    for (id, t) in store.iter() {
        let dep = read_f64(spans_sec, id as usize * 8).expect("length checked");
        let arr = read_f64(spans_sec, (n + id as usize) * 8).expect("length checked");
        if dep.to_bits() != t.departure().to_bits() || arr.to_bits() != t.arrival().to_bits() {
            return Err(corrupt(
                "spans",
                format!("span of trajectory {id} disagrees with the times section"),
            ));
        }
    }

    // 8. Postings tables + arenas, proven against the store in one lockstep
    //    walk each. With step 6 (`total` time stamps, all consumed) this
    //    also settles that the frequencies sum to `total`.
    let u64s = |table: &[u8]| -> Vec<u64> {
        let le = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        table.chunks_exact(8).map(le).collect()
    };
    let (tables, arena) = postings_sec.split_at(tables_len as usize);
    let (freqs, offsets) = tables.split_at(alphabet * 4);
    let freqs = freqs
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect();
    let temporal = if want_temporal {
        let temporal_sec = section(SEC_TEMPORAL);
        let (t_offsets, t_arena) = temporal_sec
            .split_at_checked((alphabet + 1) * 8)
            .ok_or_else(|| corrupt("temporal", "shorter than its offset table".into()))?;
        Some((u64s(t_offsets), t_arena.to_vec()))
    } else {
        None
    };
    let index = CompactIndex::from_parts(&store, freqs, u64s(offsets), arena.to_vec(), temporal)
        .map_err(|e| {
            let section = match e.arena {
                Arena::Main => "postings",
                Arena::Temporal => "temporal",
            };
            corrupt(section, e.to_string())
        })?;

    Ok((store, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SnapshotErrorKind;
    use trajsearch_core::{InvertedIndex, Posting, ShardedIndex};

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![0, 1, 2], vec![10.0, 11.0, 12.0]));
        s.push(Trajectory::new(vec![2, 1, 2], vec![5.0, 6.0, 7.0]));
        s.push(Trajectory::new(vec![3, 0], vec![20.0, 21.0]));
        s.push(Trajectory::new(vec![1, 1, 1, 3], vec![1.0, 2.0, 3.0, 4.0]));
        s
    }

    fn encode_with_temporal() -> (TrajectoryStore, Vec<u8>) {
        let s = store();
        let mut idx = InvertedIndex::build(&s, 5);
        idx.enable_temporal_postings();
        let bytes = Snapshot::encode(&s, &idx).unwrap();
        (s, bytes)
    }

    #[test]
    fn round_trip_preserves_store_and_index() {
        let (s, bytes) = encode_with_temporal();
        let snap = Snapshot::decode(&bytes).unwrap();
        assert_eq!(snap.file_bytes(), bytes.len());
        assert_eq!(snap.store().len(), s.len());
        for (id, t) in s.iter() {
            assert_eq!(snap.store().get(id).path(), t.path());
            assert_eq!(snap.store().get(id).times(), t.times());
        }
        let mut reference = InvertedIndex::build(&s, 5);
        reference.enable_temporal_postings();
        let idx = snap.index();
        assert!(idx.has_temporal_postings());
        assert_eq!(idx.total_postings(), reference.total_postings());
        for q in 0..5u32 {
            let got: Vec<Posting> = idx.postings(q).collect();
            assert_eq!(got, reference.postings(q), "q={q}");
            for t_max in [0.0, 6.5, 15.0, 1e9] {
                let got: Vec<(f64, Posting)> = idx.postings_departing_by(q, t_max).collect();
                assert_eq!(got, reference.postings_departing_by(q, t_max), "q={q}");
            }
        }
    }

    #[test]
    fn bytes_are_canonical_across_layouts() {
        let s = store();
        let mut inv = InvertedIndex::build(&s, 5);
        inv.enable_temporal_postings();
        let reference = Snapshot::encode(&s, &inv).unwrap();
        for shards in [1, 2, 3, 7] {
            let mut sh = ShardedIndex::build_parallel(&s, 5, shards);
            sh.enable_temporal_postings();
            assert_eq!(
                Snapshot::encode(&s, &sh).unwrap(),
                reference,
                "shards={shards}"
            );
        }
        // And re-encoding a decoded snapshot is a fixed point.
        let snap = Snapshot::decode(&reference).unwrap();
        assert_eq!(
            Snapshot::encode(snap.store(), snap.index()).unwrap(),
            reference
        );
    }

    #[test]
    fn write_open_round_trip_is_atomic_and_faithful() {
        let s = store();
        let idx = InvertedIndex::build(&s, 5);
        let path = std::env::temp_dir().join("trajsearch_persist_unit.snap");
        let info = Snapshot::write(&path, &s, &idx).unwrap();
        assert!(!info.temporal);
        assert_eq!(info.sections, 5);
        assert_eq!(
            info.file_bytes,
            std::fs::metadata(&path).unwrap().len() as usize
        );
        let snap = Snapshot::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!snap.index().has_temporal_postings());
        assert_eq!(snap.index().total_postings(), idx.total_postings());
    }

    #[test]
    fn empty_store_round_trips() {
        let s = TrajectoryStore::new();
        let idx = InvertedIndex::build(&s, 3);
        let bytes = Snapshot::encode(&s, &idx).unwrap();
        let snap = Snapshot::decode(&bytes).unwrap();
        assert_eq!(snap.store().len(), 0);
        assert_eq!(snap.index().alphabet_size(), 3);
        assert_eq!(snap.index().total_postings(), 0);
    }

    #[test]
    fn open_missing_file_is_io() {
        let err = Snapshot::open(Path::new("/nonexistent/definitely.snap")).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::Io);
    }

    #[test]
    fn wrong_magic_and_future_version_are_typed() {
        let (_, bytes) = encode_with_temporal();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(
            Snapshot::decode(&wrong).unwrap_err().kind(),
            SnapshotErrorKind::BadMagic
        );
        let mut future = bytes.clone();
        future[4] = 99; // version LE low byte
        match Snapshot::decode(&future).unwrap_err() {
            SnapshotError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, 99);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        let mut flags = bytes.clone();
        flags[6] |= 0x80;
        assert_eq!(
            Snapshot::decode(&flags).unwrap_err().kind(),
            SnapshotErrorKind::UnknownFlags
        );
        assert_eq!(
            Snapshot::decode(&[]).unwrap_err().kind(),
            SnapshotErrorKind::Truncated
        );
        assert_eq!(
            Snapshot::decode(&bytes[..HEADER_LEN - 1])
                .unwrap_err()
                .kind(),
            SnapshotErrorKind::Truncated
        );
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let (_, bytes) = encode_with_temporal();
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let err = Snapshot::decode(&bad).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::ChecksumMismatch);
    }

    #[test]
    fn truncation_is_typed() {
        let (_, bytes) = encode_with_temporal();
        for cut in [bytes.len() - 1, bytes.len() / 2, HEADER_LEN + 3] {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    SnapshotErrorKind::Truncated | SnapshotErrorKind::ChecksumMismatch
                ),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn mismatched_store_and_index_refuse_to_encode() {
        let s = store();
        let idx = InvertedIndex::build(&s, 5);
        let mut bigger = store();
        bigger.push(Trajectory::untimed(vec![1, 2]));
        assert_eq!(
            Snapshot::encode(&bigger, &idx).unwrap_err().kind(),
            SnapshotErrorKind::StoreIndexMismatch
        );
        // Same counts, different trajectories: spans disagree.
        let mut other = TrajectoryStore::new();
        other.push(Trajectory::new(vec![0, 1, 2], vec![0.0, 1.0, 2.0]));
        other.push(Trajectory::new(vec![2, 1, 2], vec![5.0, 6.0, 7.0]));
        other.push(Trajectory::new(vec![3, 0], vec![20.0, 21.0]));
        other.push(Trajectory::new(vec![1, 1, 1, 3], vec![1.0, 2.0, 3.0, 4.0]));
        assert_eq!(
            Snapshot::encode(&other, &idx).unwrap_err().kind(),
            SnapshotErrorKind::StoreIndexMismatch
        );
    }

    fn tmp_files_in(dir: &Path) -> Vec<std::ffi::OsString> {
        let names = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name());
        names
            .filter(|name| Path::new(name).extension().is_some_and(|ext| ext == "tmp"))
            .collect()
    }

    #[test]
    fn same_stem_targets_do_not_share_a_temp_file() {
        // `day.v1` and `day.v2` both used to stage through `day.snap.tmp`.
        let dir =
            std::env::temp_dir().join(format!("trajsearch_persist_stem_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = store();
        let plain = InvertedIndex::build(&s, 5);
        let mut temporal = InvertedIndex::build(&s, 5);
        temporal.enable_temporal_postings();
        let infos = [
            Snapshot::write(&dir.join("day.v1"), &s, &plain).unwrap(),
            Snapshot::write(&dir.join("day.v2"), &s, &temporal).unwrap(),
        ];
        assert_eq!(
            infos.map(|i| (i.sections, i.temporal)),
            [(5, false), (6, true)]
        );
        for (name, info) in ["day.v1", "day.v2"].iter().zip(infos) {
            let snap = Snapshot::open(&dir.join(name)).unwrap();
            assert_eq!(snap.file_bytes(), info.file_bytes);
            assert_eq!(snap.index().has_temporal_postings(), info.temporal);
        }
        assert_eq!(tmp_files_in(&dir), Vec::<std::ffi::OsString>::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_is_io_and_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("trajsearch_persist_fail_{}", std::process::id()));
        // The target is a non-empty directory: the rename must fail.
        let target = dir.join("taken.snap");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let s = store();
        let err = Snapshot::write(&target, &s, &InvertedIndex::build(&s, 5)).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::Io);
        assert_eq!(tmp_files_in(&dir), Vec::<std::ffi::OsString>::new());
        assert!(target.is_dir(), "the target itself is untouched");
        std::fs::remove_dir_all(&dir).ok();
    }
}
