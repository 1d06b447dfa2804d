//! Format version 1, pinned byte for byte.
//!
//! The two literals below are `Snapshot::encode` of the four-trajectory
//! unit-test store, without and with the by-departure section, **as written
//! by the commit before the encoder and decoder were rewritten** (PR 18). A
//! writer change that moves one byte, or a reader change that stops
//! accepting these files, fails here by assertion rather than by proptest
//! luck. Regenerating a literal is a format change: bump `FORMAT_VERSION`.

use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::{InvertedIndex, Posting, PostingSource};
use trajsearch_persist::{Snapshot, FORMAT_VERSION};

/// 407 bytes: five sections.
const GOLDEN_PLAIN: &str = "\
    54534e50010000000500000047d2355401000000880000000000000003000000\
    00000000a0c9898c020000008b0000000000000010000000000000009a55c769\
    030000009b0000000000000060000000000000005b47d11704000000fb000000\
    000000004000000000000000984d8df6050000003b010000000000005c000000\
    000000005a1e594204050c030001020302010202030004010101030000000000\
    0024400000000000002640000000000000284000000000000014400000000000\
    0018400000000000001c40000000000000344000000000000035400000000000\
    00f03f0000000000000040000000000000084000000000000010400000000000\
    00244000000000000014400000000000003440000000000000f03f0000000000\
    0028400000000000001c40000000000000354000000000000010400200000005\
    000000030000000200000000000000000000000000000004000000000000000e\
    0000000000000014000000000000001800000000000000180000000000000000\
    0002010001010102000001000200020100000202000103\
";

/// 503 bytes: the same five sections plus `temporal`.
const GOLDEN_TEMPORAL: &str = "\
    54534e5001000100060000005a9392b201000000a00000000000000003000000\
    00000000a0c9898c02000000a30000000000000010000000000000009a55c769\
    03000000b30000000000000060000000000000005b47d1170400000013010000\
    000000004000000000000000984d8df60500000053010000000000005c000000\
    000000005a1e594206000000af0100000000000048000000000000007c52d59b\
    04050c0300010203020102020300040101010300000000000024400000000000\
    0026400000000000002840000000000000144000000000000018400000000000\
    001c4000000000000034400000000000003540000000000000f03f0000000000\
    0000400000000000000840000000000000104000000000000024400000000000\
    0014400000000000003440000000000000f03f00000000000028400000000000\
    001c400000000000003540000000000000104002000000050000000300000002\
    00000000000000000000000000000004000000000000000e0000000000000014\
    0000000000000018000000000000001800000000000000000002010001010102\
    000001000200020100000202000103000000000000000004000000000000000e\
    0000000000000014000000000000001800000000000000180000000000000000\
    0004010600000100020301010102000002010206030100\
";

fn store() -> TrajectoryStore {
    let mut s = TrajectoryStore::new();
    s.push(Trajectory::new(vec![0, 1, 2], vec![10.0, 11.0, 12.0]));
    s.push(Trajectory::new(vec![2, 1, 2], vec![5.0, 6.0, 7.0]));
    s.push(Trajectory::new(vec![3, 0], vec![20.0, 21.0]));
    s.push(Trajectory::new(vec![1, 1, 1, 3], vec![1.0, 2.0, 3.0, 4.0]));
    s
}

fn index(store: &TrajectoryStore, temporal: bool) -> InvertedIndex {
    let mut idx = InvertedIndex::build(store, 5);
    if temporal {
        idx.enable_temporal_postings();
    }
    idx
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
        .collect()
}

#[test]
fn version_1_bytes_are_pinned() {
    assert_eq!(FORMAT_VERSION, 1, "new version, new golden files");
    let s = store();
    for (golden, temporal) in [(GOLDEN_PLAIN, false), (GOLDEN_TEMPORAL, true)] {
        // The writer produces exactly the pinned file ...
        let reference = index(&s, temporal);
        assert_eq!(
            hex(&Snapshot::encode(&s, &reference).unwrap()),
            golden,
            "temporal={temporal}"
        );

        // ... the reader accepts it and recovers store and index ...
        let snap = Snapshot::decode(&unhex(golden)).expect("golden file decodes");
        assert_eq!(snap.file_bytes(), golden.len() / 2);
        assert_eq!(snap.store().len(), s.len());
        for (id, t) in s.iter() {
            assert_eq!(snap.store().get(id).path(), t.path());
            assert_eq!(snap.store().get(id).times(), t.times());
        }
        assert_eq!(snap.index().has_temporal_postings(), temporal);
        for q in 0..5u32 {
            let got: Vec<Posting> = snap.index().postings(q).collect();
            assert_eq!(got, reference.postings(q), "q={q}");
            if temporal {
                let got: Vec<(f64, Posting)> = snap
                    .index()
                    .postings_departing_by(q, f64::INFINITY)
                    .collect();
                assert_eq!(got, reference.postings_departing_by(q, f64::INFINITY));
            }
        }

        // ... and writing what was read is a fixed point.
        assert_eq!(
            hex(&Snapshot::encode(snap.store(), snap.index()).unwrap()),
            golden
        );
    }
}
