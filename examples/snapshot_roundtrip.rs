//! Snapshot persistence round trip: build a store + index, persist the
//! store to a versioned, checksummed snapshot file, reopen cold (which
//! builds the index from the stored trajectories), and serve a query from
//! the reopened engine — verified byte-identical to the engine that never
//! left memory.
//!
//! The reopened index is a `CompactIndex`: delta+varint postings in one
//! contiguous arena, decoded on iteration, with a footprint well below the
//! in-memory `InvertedIndex`. The example also demonstrates the typed
//! failure surface: a bit-flipped copy of the file refuses to open with a
//! `SnapshotError` instead of panicking or serving wrong data.
//!
//! ```sh
//! cargo run --release --example snapshot_roundtrip
//! ```

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use std::time::Instant;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, InvertedIndex, PostingSource, Query};
use trajsearch_persist::Snapshot;
use wed::models::Edr;
use wed::Sym;

fn main() {
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(42).generate());
    let store = TripConfig::default()
        .count(800)
        .lengths(30, 80)
        .seed(7)
        .generate(&net);
    let edr = Edr::new(net.clone(), 150.0);
    let alphabet = net.num_vertices();

    // Build once — the cost a snapshot lets every later process skip.
    let t0 = Instant::now();
    let mut index = InvertedIndex::build(&store, alphabet);
    index.enable_temporal_postings();
    println!(
        "built: {} trajectories, {} postings, {} index bytes in {:.1?}",
        store.len(),
        index.total_postings(),
        index.size_bytes(),
        t0.elapsed()
    );

    let query = {
        let q: Vec<Sym> = store.get(3).path()[5..25].to_vec();
        Query::threshold(q, 4.0).build().expect("valid")
    };
    let warm = EngineBuilder::new(&edr, &store, alphabet).build_with(index);
    let want = warm.run(&query).expect("warm run");
    println!("warm engine: {} matches", want.matches.len());

    // Persist. The write is atomic (tmp file + rename) and canonical: any
    // layout of the same logical index produces identical bytes.
    let path = std::env::temp_dir().join("trajsearch_example.snap");
    let t0 = Instant::now();
    let info = Snapshot::write(&path, &store, warm.index()).expect("snapshot written");
    println!(
        "snapshot: {} bytes, {} sections (temporal: {}) in {:.1?}",
        info.file_bytes,
        info.sections,
        info.temporal,
        t0.elapsed()
    );

    // Cold start in a "new process": open + checksum + validated decode +
    // one build pass over the decoded store. The reopened index answers
    // byte-identically.
    let t0 = Instant::now();
    let snapshot = Snapshot::open(&path).expect("snapshot reopens");
    let (cold_store, compact) = snapshot.into_parts();
    let cold = EngineBuilder::new(&edr, &cold_store, alphabet).build_with(compact);
    let got = cold.run(&query).expect("cold run");
    println!(
        "cold engine: {} matches in {:.1?} from open to answer, {} index bytes ({:.0}% of in-memory)",
        got.matches.len(),
        t0.elapsed(),
        cold.index().size_bytes(),
        100.0 * cold.index().size_bytes() as f64 / warm.index().size_bytes() as f64
    );
    assert_eq!(got.matches, want.matches, "cold results must be identical");

    // Corruption refuses loudly: flip one payload byte and reopen.
    let mut bytes = std::fs::read(&path).expect("read back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let corrupted = path.with_extension("corrupt.snap");
    std::fs::write(&corrupted, &bytes).expect("write corrupt copy");
    match Snapshot::open(&corrupted) {
        Err(e) => println!("corrupted copy refused as expected: {e}"),
        Ok(_) => unreachable!("a flipped byte must never decode"),
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&corrupted).ok();
}
