//! End-to-end snapshot persistence: a realistic store is indexed, snapped
//! to disk through the facade re-exports, reopened cold, and then serves a
//! **mixed** workload — threshold, top-k, temporal, and non-WED metric
//! queries — byte-identically to the engine that never left memory.
//!
//! This is the facade-level complement to `crates/persist/tests/`: those
//! proptest the format and the option grid at small scale; this exercises
//! the public `trajsearch::persist` path end to end on generated city
//! data, exactly like a consumer would wire it.

use std::sync::Arc;
use trajsearch::persist::{Snapshot, SnapshotErrorKind};
use trajsearch::prelude::*;

fn build_world() -> (Arc<RoadNetwork>, TrajectoryStore) {
    let net = Arc::new(CityParams::tiny(NetworkKind::City).seed(5).generate());
    let store = TripConfig::default()
        .count(120)
        .lengths(8, 24)
        .seed(31)
        .generate(&net);
    (net, store)
}

#[test]
fn reopened_snapshot_serves_a_mixed_workload_identically() {
    let (net, store) = build_world();
    let alphabet = net.num_vertices();

    let mut index = InvertedIndex::build(&store, alphabet);
    index.enable_temporal_postings();
    let inverted_bytes = index.size_bytes();
    let warm = EngineBuilder::new(Lev, &store, alphabet).build_with(index);

    let path = std::env::temp_dir().join(format!(
        "trajsearch_integration_{}.snap",
        std::process::id()
    ));
    let info = Snapshot::write(&path, &store, warm.index()).expect("snapshot written");
    assert!(info.temporal);
    let snapshot = Snapshot::open(&path).expect("snapshot reopens");
    std::fs::remove_file(&path).ok();
    let (cold_store, compact) = snapshot.into_parts();
    assert!(
        compact.size_bytes() < inverted_bytes,
        "reopened CompactIndex ({}) must undercut the InvertedIndex ({inverted_bytes})",
        compact.size_bytes()
    );
    let cold = EngineBuilder::new(Lev, &cold_store, alphabet).build_with(compact);

    // Mixed workload: threshold at two verify modes, temporal overlap with
    // the by-departure postings path, top-k, and a DTW metric query.
    let probe: Vec<Sym> = {
        let t = store.get(9);
        t.path()[0..=t.len().min(8) - 1].to_vec()
    };
    let window = TimeInterval::new(store.get(3).departure(), store.get(40).arrival());
    let queries: Vec<Query> = vec![
        Query::threshold(probe.clone(), 2.0).build().unwrap(),
        Query::threshold(probe.clone(), 3.0)
            .verify(VerifyMode::Sw)
            .build()
            .unwrap(),
        Query::threshold(probe.clone(), 2.5)
            .temporal(TemporalConstraint::overlaps(window))
            .temporal_filter(true)
            .temporal_postings(true)
            .build()
            .unwrap(),
        Query::top_k(probe.clone(), 5, 1.0, 8.0).build().unwrap(),
        Query::threshold(probe, 3.0)
            .metric(Metric::Dtw)
            .build()
            .unwrap(),
    ];

    for (i, query) in queries.iter().enumerate() {
        let want = warm.run(query).expect("warm run");
        let got = cold.run(query).expect("cold run");
        assert_eq!(got.matches, want.matches, "query {i} diverged");
        assert_eq!(
            got.stats.candidates, want.stats.candidates,
            "query {i} candidate count diverged"
        );
    }

    // And the batch path over the whole mix at once.
    let want = warm
        .run_batch(&queries, BatchOptions::with_threads(2))
        .expect("warm batch");
    let got = cold
        .run_batch(&queries, BatchOptions::with_threads(2))
        .expect("cold batch");
    for (i, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
        assert_eq!(g.matches, w.matches, "batch query {i} diverged");
    }
}

#[test]
fn snapshot_of_sharded_layout_is_the_same_file() {
    let (net, store) = build_world();
    let alphabet = net.num_vertices();
    let inverted = InvertedIndex::build(&store, alphabet);
    let sharded = ShardedIndex::build_parallel(&store, alphabet, 3);
    let a = Snapshot::encode(&store, &inverted).expect("encode inverted");
    let b = Snapshot::encode(&store, &sharded).expect("encode sharded");
    assert_eq!(a, b, "snapshot bytes must be layout-canonical");
}

#[test]
fn corrupted_file_is_refused_with_a_typed_error() {
    let (net, store) = build_world();
    let alphabet = net.num_vertices();
    let index = InvertedIndex::build(&store, alphabet);
    let mut bytes = Snapshot::encode(&store, &index).expect("encode");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let err = Snapshot::decode(&bytes).expect_err("flip must be refused");
    assert_eq!(err.kind(), SnapshotErrorKind::ChecksumMismatch);
}
