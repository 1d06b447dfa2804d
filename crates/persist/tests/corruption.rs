//! Corruption coverage (satellite 3): every way a snapshot file can go bad
//! must surface as a typed [`SnapshotError`] — never a panic, never an
//! `Ok` carrying silently wrong data.
//!
//! The properties cover, over valid snapshots with and without the
//! temporal section:
//!
//! * truncation at **every** possible length (proptest samples the range,
//!   a unit test sweeps short files exhaustively);
//! * a single byte flipped at any position, with any non-zero XOR mask —
//!   every byte of the file is covered by some checksum or typed header
//!   check, so no flip may survive;
//! * targeted flips inside each manifest-declared section, which must be
//!   attributed to **that** section by name;
//! * wrong magic, future/unknown version, unknown flag bits, and absurd
//!   section counts;
//! * **CRC-consistent lies**: a payload rewritten and [`reseal`]ed so every
//!   checksum agrees — only the decoder's store-vs-arena proof can refuse
//!   these, and it must name the section that lies.

use proptest::prelude::*;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::compact::{read_varint, unzigzag, write_varint, zigzag};
use trajsearch_core::{InvertedIndex, Posting, PostingSource};
use trajsearch_persist::{
    crc32, Snapshot, SnapshotError, SnapshotErrorKind, FLAG_TEMPORAL, FORMAT_VERSION, HEADER_LEN,
    MAGIC, MANIFEST_ENTRY_LEN,
};

const ALPHABET: usize = 9;

/// A deterministic, non-trivial store: enough trajectories that every
/// section has real content and multi-byte varints appear in the arena.
fn store() -> TrajectoryStore {
    let mut s = TrajectoryStore::new();
    for i in 0..40u64 {
        let len = 1 + (i * 7 % 9) as usize;
        let path: Vec<u32> = (0..len)
            .map(|k| ((i as usize * 31 + k * 13) % ALPHABET) as u32)
            .collect();
        let t0 = i as f64 * 3.5;
        let times: Vec<f64> = (0..len).map(|k| t0 + k as f64 * 0.5).collect();
        s.push(Trajectory::new(path, times));
    }
    s
}

fn snapshot_bytes(temporal: bool) -> Vec<u8> {
    let s = store();
    let mut idx = InvertedIndex::build(&s, ALPHABET);
    if temporal {
        idx.enable_temporal_postings();
    }
    Snapshot::encode(&s, &idx).expect("valid inputs encode")
}

fn section_name(kind: u32) -> &'static str {
    ["meta", "paths", "times", "spans", "postings", "temporal"][kind as usize - 1]
}

/// Manifest entries parsed from *pristine* bytes using only the public
/// format constants, so tests can aim mutations at specific sections.
fn manifest(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let base = HEADER_LEN + i * MANIFEST_ENTRY_LEN;
            let kind = u32::from_le_bytes(bytes[base..base + 4].try_into().unwrap());
            let offset =
                u64::from_le_bytes(bytes[base + 4..base + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[base + 12..base + 20].try_into().unwrap()) as usize;
            (kind, offset, len)
        })
        .collect()
}

#[test]
fn pristine_snapshots_decode() {
    for temporal in [false, true] {
        let bytes = snapshot_bytes(temporal);
        let snap = Snapshot::decode(&bytes).expect("pristine bytes decode");
        assert_eq!(snap.store().len(), 40);
        assert_eq!(snap.index().has_temporal_postings(), temporal);
        // The manifest is well-formed and covers the whole file.
        let entries = manifest(&bytes);
        assert_eq!(entries.len(), if temporal { 6 } else { 5 });
        let end = entries.iter().map(|&(_, o, l)| o + l).max().unwrap();
        assert_eq!(end, bytes.len());
    }
}

#[test]
fn every_short_prefix_is_rejected_without_panic() {
    let bytes = snapshot_bytes(true);
    // Exhaustive over the header + manifest region, where parsing is most
    // position-sensitive; the payload region is sampled by the proptest.
    let dense = HEADER_LEN + 7 * MANIFEST_ENTRY_LEN;
    for cut in 0..dense.min(bytes.len()) {
        let err = Snapshot::decode(&bytes[..cut]).expect_err("prefix must fail");
        assert!(
            matches!(
                err.kind(),
                SnapshotErrorKind::Truncated | SnapshotErrorKind::ChecksumMismatch
            ),
            "cut={cut}: unexpected {err:?}"
        );
    }
}

#[test]
fn wrong_magic_future_version_unknown_flags() {
    let bytes = snapshot_bytes(false);
    for i in 0..4 {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        match Snapshot::decode(&bad).expect_err("magic") {
            SnapshotError::BadMagic { found } => assert_ne!(found, MAGIC),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }
    for version in [0u16, FORMAT_VERSION + 1, 0x7fff, u16::MAX] {
        let mut bad = bytes.clone();
        bad[4..6].copy_from_slice(&version.to_le_bytes());
        match Snapshot::decode(&bad).expect_err("version") {
            SnapshotError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, version);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
    for flag_bit in 1..16 {
        let flags = 1u16 << flag_bit;
        if flags == FLAG_TEMPORAL {
            continue; // known bit: flipping it is covered by the CRC tests
        }
        let mut bad = bytes.clone();
        let new_flags = flags | (bad[6] as u16);
        bad[6..8].copy_from_slice(&new_flags.to_le_bytes());
        assert_eq!(
            Snapshot::decode(&bad).expect_err("flags").kind(),
            SnapshotErrorKind::UnknownFlags,
            "flag bit {flag_bit}"
        );
    }
    // An absurd section count is refused before any allocation.
    let mut bad = bytes.clone();
    bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        Snapshot::decode(&bad).expect_err("count").kind(),
        SnapshotErrorKind::Corrupt
    );
}

#[test]
fn flips_inside_each_section_are_attributed_to_it() {
    for temporal in [false, true] {
        let bytes = snapshot_bytes(temporal);
        for (kind, offset, len) in manifest(&bytes) {
            assert!(len > 0, "section {} is empty", section_name(kind));
            for probe in [0, len / 2, len - 1] {
                let mut bad = bytes.clone();
                bad[offset + probe] ^= 0x55;
                match Snapshot::decode(&bad).expect_err("flip must fail") {
                    SnapshotError::ChecksumMismatch { section, .. } => {
                        assert_eq!(section, section_name(kind), "flip at {probe} misattributed");
                    }
                    other => panic!(
                        "expected ChecksumMismatch in {}, got {other:?}",
                        section_name(kind)
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-consistent lies: every checksum agrees, the index does not describe
// the store. Only the decoder's store-vs-arena proof can refuse these.
// ---------------------------------------------------------------------------

const META: u32 = 1;
const TIMES: u32 = 3;
const SPANS: u32 = 4;
const POSTINGS: u32 = 5;
const TEMPORAL: u32 = 6;

fn payload(bytes: &[u8], kind: u32) -> &[u8] {
    let (_, offset, len) = manifest(bytes)
        .into_iter()
        .find(|e| e.0 == kind)
        .expect("section present");
    &bytes[offset..offset + len]
}

/// Swaps in `new_payload` for section `kind` and recomputes every manifest
/// offset, every section CRC and the header CRC: the result is exactly what
/// a coherent-but-wrong writer would have produced.
fn reseal(bytes: &[u8], kind: u32, new_payload: &[u8]) -> Vec<u8> {
    let entries = manifest(bytes);
    let body_start = HEADER_LEN + entries.len() * MANIFEST_ENTRY_LEN;
    let mut head = bytes[..12].to_vec(); // magic, version, flags, count
    let mut body = Vec::new();
    for &(k, offset, len) in &entries {
        let section = if k == kind {
            new_payload
        } else {
            &bytes[offset..offset + len]
        };
        head.extend_from_slice(&k.to_le_bytes());
        head.extend_from_slice(&((body_start + body.len()) as u64).to_le_bytes());
        head.extend_from_slice(&(section.len() as u64).to_le_bytes());
        head.extend_from_slice(&crc32(section).to_le_bytes());
        body.extend_from_slice(section);
    }
    let mut out = head[..12].to_vec();
    out.extend_from_slice(&crc32(&head).to_le_bytes());
    out.extend_from_slice(&head[12..]);
    out.extend_from_slice(&body);
    out
}

/// Per-symbol record lists, in stored order.
type Lists = Vec<Vec<Posting>>;

/// Decodes the `postings` section (`temporal = false`: frequency table,
/// offset table, plain id deltas) or the `temporal` one (offset table,
/// zigzag id deltas) into record lists.
fn decode_lists(payload: &[u8], alphabet: usize, temporal: bool) -> Lists {
    let tables = if temporal { 0 } else { alphabet * 4 };
    let offset =
        |q: usize| u64::from_le_bytes(payload[tables + q * 8..][..8].try_into().unwrap()) as usize;
    let arena = &payload[tables + (alphabet + 1) * 8..];
    (0..alphabet)
        .map(|q| {
            let slice = &arena[offset(q)..offset(q + 1)];
            let (mut pos, mut id, mut list) = (0, 0i64, Vec::new());
            while pos < slice.len() {
                let delta = read_varint(slice, &mut pos).unwrap();
                let j = read_varint(slice, &mut pos).unwrap();
                id += if temporal {
                    unzigzag(delta)
                } else {
                    delta as i64
                };
                list.push((id as u32, j as u32));
            }
            list
        })
        .collect()
}

/// Inverse of [`decode_lists`]; the frequency table is the list lengths, so
/// an edit that moves a record between lists keeps both counts consistent.
fn encode_lists(lists: &Lists, temporal: bool) -> Vec<u8> {
    let mut arena = Vec::new();
    let mut offsets = vec![0u64];
    for list in lists {
        let mut prev = 0i64;
        for &(id, j) in list {
            let delta = i64::from(id) - prev;
            let delta = if temporal {
                zigzag(delta)
            } else {
                u64::try_from(delta).expect("main lists are written with ascending ids")
            };
            write_varint(&mut arena, delta);
            write_varint(&mut arena, u64::from(j));
            prev = i64::from(id);
        }
        offsets.push(arena.len() as u64);
    }
    let mut out = Vec::new();
    if !temporal {
        for list in lists {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
        }
    }
    for off in offsets {
        out.extend_from_slice(&off.to_le_bytes());
    }
    out.extend_from_slice(&arena);
    out
}

/// `"Ok"`, or `"<Kind>/<section>"` for a `Corrupt` refusal, or `"<Kind>"`.
fn verdict(bytes: &[u8]) -> String {
    match Snapshot::decode(bytes) {
        Ok(_) => "Ok".into(),
        Err(SnapshotError::Corrupt { section, .. }) => format!("Corrupt/{section}"),
        Err(other) => format!("{:?}", other.kind()),
    }
}

#[test]
fn reseal_and_the_list_codec_reproduce_pristine_bytes() {
    // The helpers model the format exactly, so a lie built with them
    // differs from a valid file only in the edit the test made.
    let bytes = snapshot_bytes(true);
    for (kind, offset, len) in manifest(&bytes) {
        assert_eq!(reseal(&bytes, kind, &bytes[offset..offset + len]), bytes);
    }
    for (kind, temporal) in [(POSTINGS, false), (TEMPORAL, true)] {
        let section = payload(&bytes, kind);
        let lists = decode_lists(section, ALPHABET, temporal);
        let positions: usize = store().iter().map(|(_, t)| t.len()).sum();
        assert_eq!(lists.iter().map(Vec::len).sum::<usize>(), positions);
        assert_eq!(encode_lists(&lists, temporal), section);
    }
}

/// The matrix: `(what the file lies about, the resealed bytes, the section
/// that must be named)`.
fn semantic_lies() -> Vec<(String, Vec<u8>, &'static str)> {
    let mut rows = Vec::new();
    for with_temporal in [false, true] {
        let bytes = snapshot_bytes(with_temporal);
        let file = if with_temporal { "temporal" } else { "plain" };
        let main = decode_lists(payload(&bytes, POSTINGS), ALPHABET, false);
        // The longest list, and the runner-up as "another symbol".
        let mut by_len: Vec<usize> = (0..ALPHABET).collect();
        by_len.sort_by_key(|&q| std::cmp::Reverse(main[q].len()));
        let (q, r) = (by_len[0], by_len[1]);
        let main_row = |name: &str, lists: &Lists| {
            (
                format!("{name} ({file} file)"),
                reseal(&bytes, POSTINGS, &encode_lists(lists, false)),
                "postings",
            )
        };

        let mut lists = main.clone();
        lists[q][0].1 += 1;
        rows.push(main_row("main posting with j + 1", &lists));

        let mut lists = main.clone();
        let k = lists[q].iter().position(|&(_, j)| j >= 1).unwrap();
        lists[q][k].1 -= 1;
        rows.push(main_row("main posting with j - 1", &lists));

        let mut lists = main.clone();
        lists[q][1] = lists[q][0];
        rows.push(main_row("main record duplicating its neighbour", &lists));

        // Move the last record of `q` into `r`'s list at its sorted place:
        // both lists stay strictly ascending and both `freqs` follow.
        let move_last = |lists: &mut Lists| {
            let rec = lists[q].pop().unwrap();
            let at = lists[r].partition_point(|&p| p < rec);
            lists[r].insert(at, rec);
        };
        let mut lists = main.clone();
        move_last(&mut lists);
        let (name, mut moved, section) = main_row("posting moved to another symbol", &lists);
        if with_temporal {
            // Tell the same lie in the by-departure arena (departures rise
            // with the id in this store, so the order there is the same).
            let mut t = decode_lists(payload(&bytes, TEMPORAL), ALPHABET, true);
            assert_eq!(t, main);
            move_last(&mut t);
            moved = reseal(&moved, TEMPORAL, &encode_lists(&t, true));
        }
        rows.push((name, moved, section));

        let spans = payload(&bytes, SPANS);
        let dep0 = u64::from_le_bytes(spans[..8].try_into().unwrap());
        let mut lie = spans.to_vec();
        lie[..8].copy_from_slice(&(dep0 + 1).to_le_bytes());
        rows.push((
            format!("departure moved by one ulp ({file} file)"),
            reseal(&bytes, SPANS, &lie),
            "spans",
        ));

        let times = payload(&bytes, TIMES);
        let mut lie = times.to_vec();
        lie.extend_from_slice(&times[times.len() - 8..]);
        let meta = payload(&bytes, META);
        let mut pos = 0;
        let [n, alphabet, total] = [(); 3].map(|()| read_varint(meta, &mut pos).unwrap());
        let mut meta_lie = Vec::new();
        for v in [n, alphabet, total + 1] {
            write_varint(&mut meta_lie, v);
        }
        rows.push((
            format!("8 trailing time bytes and meta.total + 1 ({file} file)"),
            reseal(&reseal(&bytes, TIMES, &lie), META, &meta_lie),
            "times",
        ));

        if !with_temporal {
            continue;
        }
        let temporal = decode_lists(payload(&bytes, TEMPORAL), ALPHABET, true);
        let temporal_row = |name: &str, lists: &Lists| {
            (
                name.to_string(),
                reseal(&bytes, TEMPORAL, &encode_lists(lists, true)),
                "temporal",
            )
        };

        // Count unchanged: a check that only counts records misses this.
        let mut lists = temporal.clone();
        lists[q][1] = lists[q][0];
        rows.push(temporal_row(
            "temporal record duplicating its neighbour",
            &lists,
        ));

        let mut lists = temporal.clone();
        lists[q][0] = main[r][0];
        rows.push(temporal_row(
            "temporal record re-pointed at an occurrence of another symbol",
            &lists,
        ));

        let mut lists = temporal.clone();
        let k = (1..lists[q].len())
            .find(|&k| lists[q][k - 1].0 != lists[q][k].0)
            .unwrap();
        lists[q].swap(k - 1, k);
        rows.push(temporal_row(
            "temporal records swapped across a departure boundary",
            &lists,
        ));
    }
    rows
}

#[test]
fn crc_consistent_lies_are_corrupt_in_the_section_that_lies() {
    let wrong: Vec<String> = semantic_lies()
        .into_iter()
        .filter_map(|(name, bytes, section)| {
            let got = verdict(&bytes);
            (got != format!("Corrupt/{section}"))
                .then(|| format!("{name}: want Corrupt/{section}, got {got}"))
        })
        .collect();
    assert!(wrong.is_empty(), "{wrong:#?}");
}

/// The by-departure arena has one canonical order, `(departure, id, j)`:
/// records that tie on departure — two positions of one trajectory, or two
/// trajectories departing together — are still a fixed sequence. No writer
/// in this repository can produce another order, so another order is a lie.
#[test]
fn equal_departure_records_out_of_canonical_order_are_refused() {
    let mut s = TrajectoryStore::new();
    s.push(Trajectory::new(vec![1, 2, 1], vec![5.0, 6.0, 7.0]));
    s.push(Trajectory::new(vec![1, 3], vec![5.0, 9.0]));
    s.push(Trajectory::new(vec![2, 1], vec![1.0, 2.0]));
    let mut idx = InvertedIndex::build(&s, 4);
    idx.enable_temporal_postings();
    let bytes = Snapshot::encode(&s, &idx).unwrap();
    let lists = decode_lists(payload(&bytes, TEMPORAL), 4, true);
    assert_eq!(lists[1], [(2, 1), (0, 0), (0, 2), (1, 0)]);
    for (a, b) in [(1, 2), (2, 3)] {
        let mut lie = lists.clone();
        lie[1].swap(a, b);
        let resealed = reseal(&bytes, TEMPORAL, &encode_lists(&lie, true));
        assert_eq!(verdict(&resealed), "Corrupt/temporal", "swap {a}<->{b}");
    }
}

/// An id delta chosen so that `previous id + delta` overflows must be a
/// typed refusal, not an arithmetic panic (debug) or a wrapped id (release).
#[test]
fn overflowing_id_delta_is_typed() {
    let mut s = TrajectoryStore::new();
    s.push(Trajectory::new(vec![1], vec![0.0]));
    s.push(Trajectory::new(vec![0, 0], vec![1.0, 2.0]));
    let mut idx = InvertedIndex::build(&s, 2);
    idx.enable_temporal_postings();
    let bytes = Snapshot::encode(&s, &idx).unwrap();
    // Symbol 0's list is (1, 0), (1, 1) in both arenas; the second record's
    // delta becomes the largest the encoding can carry.
    for (kind, tables, section) in [(POSTINGS, 2 * 4, "postings"), (TEMPORAL, 0, "temporal")] {
        let mut arena = Vec::new();
        write_varint(&mut arena, if kind == TEMPORAL { zigzag(1) } else { 1 });
        write_varint(&mut arena, 0);
        let huge = if kind == TEMPORAL {
            zigzag(i64::MAX)
        } else {
            u64::MAX
        };
        write_varint(&mut arena, huge);
        write_varint(&mut arena, 1);
        let list0_end = arena.len() as u64;
        write_varint(&mut arena, 0); // symbol 1: (0, 0)
        write_varint(&mut arena, 0);
        let mut lie = payload(&bytes, kind)[..tables].to_vec();
        for off in [0, list0_end, arena.len() as u64] {
            lie.extend_from_slice(&off.to_le_bytes());
        }
        lie.extend_from_slice(&arena);
        assert_eq!(
            verdict(&reseal(&bytes, kind, &lie)),
            format!("Corrupt/{section}")
        );
    }
}

/// Regression: a crafted meta `total` used to overflow `total * 8` in
/// decode (a panic in debug builds); it must be a typed error.
#[test]
fn huge_total_in_meta_must_not_panic() {
    let bytes = snapshot_bytes(false);
    let mut meta = Vec::new();
    for v in [40, ALPHABET as u64, 1u64 << 61] {
        write_varint(&mut meta, v);
    }
    assert_eq!(verdict(&reseal(&bytes, META, &meta)), "Corrupt/meta");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation anywhere in the file: typed error, never a panic and
    /// never a short-but-valid decode.
    #[test]
    fn truncation_anywhere_is_typed(cut_frac in 0.0f64..1.0, temporal_i in 0usize..2) {
        let bytes = snapshot_bytes(temporal_i == 1);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < bytes.len());
        let err = Snapshot::decode(&bytes[..cut]).expect_err("truncated file must fail");
        prop_assert!(
            matches!(
                err.kind(),
                SnapshotErrorKind::Truncated | SnapshotErrorKind::ChecksumMismatch
            ),
            "cut={}: unexpected {:?}",
            cut,
            err
        );
    }

    /// A single flipped byte anywhere: typed error, never Ok. (Every byte
    /// of the file is covered by a checksum or a typed header check.)
    #[test]
    fn single_byte_flip_anywhere_is_typed(
        pos_frac in 0.0f64..1.0,
        mask in 1u32..256,
        temporal_i in 0usize..2,
    ) {
        let mask = mask as u8;
        let bytes = snapshot_bytes(temporal_i == 1);
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= mask;
        let err = Snapshot::decode(&bad).expect_err("flipped byte must fail");
        // Any typed kind is acceptable — flips in the header region can
        // legitimately surface as BadMagic / UnsupportedVersion / flags /
        // truncation — but it must never panic and never decode.
        let _ = err.kind();
    }

    /// Flips restricted to the payload region (past header + manifest)
    /// must be checksum mismatches attributed to a real section.
    #[test]
    fn payload_flip_is_a_section_checksum_mismatch(
        pos_frac in 0.0f64..1.0,
        mask in 1u32..256,
        temporal_i in 0usize..2,
    ) {
        let mask = mask as u8;
        let bytes = snapshot_bytes(temporal_i == 1);
        let entries = manifest(&bytes);
        let body_start = HEADER_LEN + entries.len() * MANIFEST_ENTRY_LEN;
        let span = bytes.len() - body_start - 1;
        let pos = body_start + ((span as f64) * pos_frac) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= mask;
        match Snapshot::decode(&bad).expect_err("payload flip must fail") {
            SnapshotError::ChecksumMismatch { section, .. } => {
                let (kind, ..) = entries
                    .iter()
                    .find(|&&(_, o, l)| pos >= o && pos < o + l)
                    .expect("payload byte belongs to a section");
                prop_assert_eq!(section, section_name(*kind));
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    /// One record of one list rewritten to any other value, the arena
    /// re-encoded and every checksum resealed: the proof refuses it and
    /// names the arena that lies.
    #[test]
    fn any_single_record_mutation_is_refused(
        in_temporal in 0usize..2,
        q in 0usize..ALPHABET,
        rec_frac in 0.0f64..1.0,
        id_pick in 0u32..41,
        j_pick in 0u32..10,
    ) {
        let bytes = snapshot_bytes(true);
        let (kind, temporal, section) = if in_temporal == 1 {
            (TEMPORAL, true, "temporal")
        } else {
            (POSTINGS, false, "postings")
        };
        let mut lists = decode_lists(payload(&bytes, kind), ALPHABET, temporal);
        let list = &mut lists[q];
        prop_assume!(!list.is_empty());
        let k = ((list.len() as f64) * rec_frac) as usize;
        // Plain deltas cannot step backwards, so a main record's new id
        // stays between its neighbours' (40, one past the store, at the
        // end); a zigzag delta can point anywhere.
        let id = if temporal {
            id_pick
        } else {
            let lo = if k > 0 { list[k - 1].0 } else { 0 };
            let hi = list.get(k + 1).map_or(40, |p| p.0);
            lo + id_pick % (hi - lo + 1)
        };
        prop_assume!((id, j_pick) != list[k]);
        list[k] = (id, j_pick);
        let lie = reseal(&bytes, kind, &encode_lists(&lists, temporal));
        prop_assert_eq!(verdict(&lie), format!("Corrupt/{section}"));
    }
}
