//! Corruption coverage: every way a snapshot file can go bad must surface
//! as a typed [`SnapshotError`] — never a panic, never an `Ok` carrying
//! silently wrong data.
//!
//! The properties cover, over valid snapshots with and without the
//! temporal flag:
//!
//! * truncation at **every** possible length (proptest samples the range,
//!   a unit test sweeps short files exhaustively);
//! * a single byte flipped at any position, with any non-zero XOR mask —
//!   every byte of the file is covered by some checksum or typed header
//!   check, so no flip may survive;
//! * targeted flips inside each manifest-declared section, which must be
//!   attributed to **that** section by name;
//! * wrong magic, future/unknown version, unknown flag bits, absurd
//!   section counts, and version 1's index sections in a version-2 file;
//! * **CRC-consistent lies**: a `meta`, `paths` or `times` payload
//!   rewritten and [`reseal`]ed so every checksum agrees — only the
//!   decoder's bounded parses can refuse these, and they must name the
//!   section that lies;
//! * a `meta` alphabet no section bounds, which must cost no memory.
//!
//! The file holds no index: the decoder builds it from the store, so there
//! is no index for a lie to hide in.

use proptest::prelude::*;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::compact::{read_varint, write_varint};
use trajsearch_core::{InvertedIndex, PostingSource};
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
    ["meta", "paths", "times"][kind as usize - 1]
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
        assert_eq!(entries.iter().map(|e| e.0).collect::<Vec<_>>(), [1, 2, 3]);
        let end = entries.iter().map(|&(_, o, l)| o + l).max().unwrap();
        assert_eq!(end, bytes.len());
        // Resealing a section with its own payload changes nothing, so a
        // lie built with `reseal` differs from a valid file only in its edit.
        for (kind, offset, len) in entries {
            assert_eq!(reseal(&bytes, kind, &bytes[offset..offset + len]), bytes);
        }
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
// CRC-consistent lies: every checksum agrees, a payload breaks the format.
// Only the decoder's bounded parses can refuse these.
// ---------------------------------------------------------------------------

const META: u32 = 1;
const PATHS: u32 = 2;
const TIMES: u32 = 3;

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

/// `"Ok"`, or `"<Kind>/<section>"` for a `Corrupt` refusal, or `"<Kind>"`.
fn verdict(bytes: &[u8]) -> String {
    match Snapshot::decode(bytes) {
        Ok(_) => "Ok".into(),
        Err(SnapshotError::Corrupt { section, .. }) => format!("Corrupt/{section}"),
        Err(other) => format!("{:?}", other.kind()),
    }
}

/// The matrix: `(what the file lies about, the resealed bytes, the section
/// that must be named)`.
fn semantic_lies() -> Vec<(String, Vec<u8>, &'static str)> {
    let mut rows = Vec::new();
    for with_temporal in [false, true] {
        let bytes = snapshot_bytes(with_temporal);
        let file = if with_temporal { "temporal" } else { "plain" };
        let mut row = |name: &str, lie: Vec<u8>, section| {
            rows.push((format!("{name} ({file} file)"), lie, section));
        };

        let meta = payload(&bytes, META);
        let mut pos = 0;
        let [n, alphabet, total] = [(); 3].map(|()| read_varint(meta, &mut pos).unwrap());
        let meta_of = |values: &[u64]| {
            let mut out = Vec::new();
            for &v in values {
                write_varint(&mut out, v);
            }
            out
        };
        row(
            "meta.total + 1",
            reseal(&bytes, META, &meta_of(&[n, alphabet, total + 1])),
            "meta",
        );
        let paths_len = payload(&bytes, PATHS).len() as u64;
        row(
            "more trajectories than path bytes",
            reseal(&bytes, META, &meta_of(&[paths_len, alphabet, total])),
            "meta",
        );
        row(
            "alphabet past u32",
            reseal(&bytes, META, &meta_of(&[n, 1 << 32, total])),
            "meta",
        );
        row(
            "a fourth meta varint",
            reseal(&bytes, META, &meta_of(&[n, alphabet, total, 0])),
            "meta",
        );

        // Paths: one varint length, then the symbols, per trajectory; every
        // value here fits one byte. Trajectory 0 is [0], trajectory 1
        // starts [31 % 9, 44 % 9].
        let paths = payload(&bytes, PATHS);
        assert_eq!(paths[..4], [1, 0, 8, 4]);
        let mut lie = paths.to_vec();
        lie[1] = ALPHABET as u8;
        row(
            "a symbol at the alphabet size",
            reseal(&bytes, PATHS, &lie),
            "paths",
        );
        let mut lie = paths.to_vec();
        lie[0] = 0;
        row("an empty trajectory", reseal(&bytes, PATHS, &lie), "paths");
        let mut lie = paths.to_vec();
        lie.push(0);
        row("a trailing path byte", reseal(&bytes, PATHS, &lie), "paths");

        // Times: trajectory 0 is stamped 0.0, trajectory 1 from 3.5 in
        // steps of 0.5.
        let times = payload(&bytes, TIMES);
        let stamp = |t: f64| t.to_bits().to_le_bytes();
        let mut lie = times.to_vec();
        lie[8..16].copy_from_slice(&stamp(5.0));
        row(
            "a stamp after its successor",
            reseal(&bytes, TIMES, &lie),
            "times",
        );
        let mut lie = times.to_vec();
        lie[..8].copy_from_slice(&stamp(f64::NAN));
        row("a NaN departure", reseal(&bytes, TIMES, &lie), "times");
        let mut lie = times.to_vec();
        lie.extend_from_slice(&times[times.len() - 8..]);
        row(
            "8 trailing time bytes and meta.total + 1",
            reseal(
                &reseal(&bytes, TIMES, &lie),
                META,
                &meta_of(&[n, alphabet, total + 1]),
            ),
            "times",
        );
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

/// `meta`'s alphabet is bounded by no section: a file may claim `u32::MAX`
/// symbols over a tiny store. It decodes, answers like the store it holds,
/// and its index is sized by the symbols that occur, not by the claim.
#[test]
fn a_huge_alphabet_in_meta_costs_no_memory() {
    let mut four = TrajectoryStore::new();
    four.push(Trajectory::new(vec![0, 1, 2], vec![10.0, 11.0, 12.0]));
    four.push(Trajectory::new(vec![2, 1, 2], vec![5.0, 6.0, 7.0]));
    four.push(Trajectory::new(vec![3, 0], vec![20.0, 21.0]));
    four.push(Trajectory::new(vec![1, 1, 1, 3], vec![1.0, 2.0, 3.0, 4.0]));
    for s in [four, TrajectoryStore::new()] {
        let mut reference = InvertedIndex::build(&s, 5);
        reference.enable_temporal_postings();
        let bytes = Snapshot::encode(&s, &reference).unwrap();
        let mut meta = Vec::new();
        for v in [
            s.len() as u64,
            u64::from(u32::MAX),
            reference.total_postings() as u64,
        ] {
            write_varint(&mut meta, v);
        }
        let snap = Snapshot::decode(&reseal(&bytes, META, &meta)).expect("a valid claim");
        let index = snap.index();
        assert_eq!(index.alphabet_size(), u32::MAX as usize);
        assert_eq!(snap.store().len(), s.len());
        // Tables for at most symbols 0..=3, two arenas, two span tables.
        assert!(index.size_bytes() <= 4 * 4 + 2 * 5 * 8 + 2 * 24 + 2 * 4 * 8);
        for q in 0..5 {
            assert_eq!(index.freq(q), reference.freq(q));
            assert!(index.postings(q).eq(reference.postings(q).iter().copied()));
            assert!(index.postings_departing_by(q, f64::INFINITY).eq(reference
                .postings_departing_by(q, f64::INFINITY)
                .iter()
                .copied()));
        }
        assert_eq!(index.freq(u32::MAX - 1), 0);
        assert_eq!(index.postings(u32::MAX - 1).count(), 0);
    }
}

/// Rewrites one manifest entry's kind and reseals the header CRC.
fn retag(bytes: &[u8], entry: usize, kind: u32) -> Vec<u8> {
    let body_start = HEADER_LEN + manifest(bytes).len() * MANIFEST_ENTRY_LEN;
    let mut out = bytes.to_vec();
    let base = HEADER_LEN + entry * MANIFEST_ENTRY_LEN;
    out[base..base + 4].copy_from_slice(&kind.to_le_bytes());
    let mut head = out[..12].to_vec();
    head.extend_from_slice(&out[HEADER_LEN..body_start]);
    out[12..16].copy_from_slice(&crc32(&head).to_le_bytes());
    out
}

/// Kinds 4–6 (`spans`, `postings`, `temporal`) belong to version 1 only.
#[test]
fn version_1_index_sections_are_unknown_kinds_in_version_2() {
    let bytes = snapshot_bytes(true);
    assert_eq!(retag(&bytes, 2, TIMES), bytes);
    for kind in [4, 5, 6, 7] {
        match Snapshot::decode(&retag(&bytes, 2, kind)).expect_err("unknown kind") {
            SnapshotError::Corrupt { section, detail } => {
                assert_eq!(section, "manifest");
                assert_eq!(detail, format!("unknown section kind {kind}"));
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
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
}
