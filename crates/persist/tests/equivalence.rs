//! Randomized equivalence: an engine over a snapshot-reopened
//! `CompactIndex` must answer byte-identically to the in-memory layouts.
//!
//! This gates persistence exactly like sharding was gated: for random
//! timed stores and workloads, the snapshot round trip (encode → decode,
//! plus a real file write → open leg) must not change a single byte of any
//! response — matches including `f64` distances, plus the deterministic
//! stats counters — across all verify modes × temporal options ×
//! sequential / batch execution. A second property
//! pins the canonical-bytes guarantee: every layout of the same logical
//! index serializes to the identical file.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::batch::BatchOptions;
use trajsearch_core::{
    AnyIndex, EngineBuilder, InvertedIndex, PostingSource, Query, SearchEngine, SearchOptions,
    ShardedIndex, TemporalConstraint, TimeInterval, VerifyMode,
};
use trajsearch_persist::Snapshot;
use wed::models::Lev;
use wed::Sym;

const ALPHABET: usize = 12;

/// Timed store: trajectory `i` departs at `10·i` with unit steps, matching
/// the core equivalence suites so temporal windows split the store.
fn timed_store(paths: Vec<Vec<Sym>>) -> TrajectoryStore {
    paths
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let t0 = 10.0 * i as f64;
            let times: Vec<f64> = (0..p.len()).map(|k| t0 + k as f64).collect();
            Trajectory::new(p, times)
        })
        .collect()
}

fn unified_queries(
    workload: &[(Vec<Sym>, f64)],
    opts: SearchOptions,
    available: bool,
) -> Vec<Query> {
    workload
        .iter()
        .map(|(q, tau)| {
            let mut b = Query::threshold(q.clone(), *tau)
                .verify(opts.verify)
                .temporal_filter(opts.temporal_filter)
                .temporal_postings(
                    opts.use_temporal_postings && available && opts.temporal.is_some(),
                );
            if let Some(c) = opts.temporal {
                b = b.temporal(c);
            }
            b.build().expect("workload queries are valid")
        })
        .collect()
}

fn check_outcomes<I: PostingSource + Sync>(
    reference: &SearchEngine<'_, Lev, AnyIndex>,
    engine: &SearchEngine<'_, Lev, I>,
    workload: &[(Vec<Sym>, f64)],
    opts: SearchOptions,
    label: &str,
) -> Result<(), TestCaseError> {
    let available = engine.index().has_temporal_postings();
    let queries = unified_queries(workload, opts, available);
    for ((q, tau), query) in workload.iter().zip(&queries) {
        let want = reference.run(query).expect("reference run");
        let got = engine.run(query).expect("run");
        prop_assert_eq!(
            &got.matches,
            &want.matches,
            "matches diverged ({}, q={:?}, tau={})",
            label,
            q,
            tau
        );
        prop_assert_eq!(got.stats.fallback, want.stats.fallback);
        prop_assert_eq!(got.stats.candidates, want.stats.candidates);
        prop_assert_eq!(got.stats.candidates_deduped, want.stats.candidates_deduped);
        prop_assert_eq!(got.stats.tsubseq_len, want.stats.tsubseq_len);
        prop_assert_eq!(got.stats.results, want.stats.results);
    }
    let batch = engine
        .run_batch(&queries, BatchOptions::with_threads(2))
        .expect("batch admitted");
    for (i, (query, got)) in queries.iter().zip(&batch.responses).enumerate() {
        let want = reference.run(query).expect("reference run");
        prop_assert_eq!(
            &got.matches,
            &want.matches,
            "run_batch query {} diverged ({})",
            i,
            label
        );
    }
    Ok(())
}

/// Every verify mode × no-temporal / temporal with and without the TF
/// pre-filter and the by-departure postings path — the same grid the
/// sharding suite runs.
fn option_grid(constraint: TemporalConstraint) -> Vec<SearchOptions> {
    let mut grid = Vec::new();
    for verify in [VerifyMode::Trie, VerifyMode::Local, VerifyMode::Sw] {
        grid.push(SearchOptions {
            verify,
            ..Default::default()
        });
        for (tf, use_dep) in [(false, false), (true, false), (false, true), (true, true)] {
            grid.push(SearchOptions {
                verify,
                temporal: Some(constraint),
                temporal_filter: tf,
                use_temporal_postings: use_dep,
                ..Default::default()
            });
        }
    }
    grid
}

static FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

fn unique_snapshot_path() -> std::path::PathBuf {
    let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "trajsearch_persist_equiv_{}_{seq}.snap",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine surface: the snapshot round trip changes no byte of any
    /// response, across the full option grid, in-memory and through a file.
    #[test]
    fn snapshot_reopened_engine_is_byte_identical(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..10),
            1..8,
        ),
        queries in proptest::collection::vec(
            (proptest::collection::vec(0u32..(ALPHABET as u32), 1..5), 1u32..4),
            1..4,
        ),
        win_start in 0.0f64..60.0,
        win_len in 1.0f64..40.0,
    ) {
        let store = timed_store(paths);
        let workload: Vec<(Vec<Sym>, f64)> = queries
            .into_iter()
            .map(|(q, tau_i)| (q, tau_i as f64))
            .collect();
        let constraint =
            TemporalConstraint::overlaps(TimeInterval::new(win_start, win_start + win_len));
        let reference = EngineBuilder::new(Lev, &store, ALPHABET)
            .temporal_postings(true)
            .build();

        let mut idx = InvertedIndex::build(&store, ALPHABET);
        idx.enable_temporal_postings();
        let bytes = Snapshot::encode(&store, &idx).expect("coherent inputs encode");
        let snap = Snapshot::decode(&bytes).expect("round trip decodes");
        let (reopened_store, compact) = snap.into_parts();
        prop_assert_eq!(reopened_store.len(), store.len());
        // The reopened index must be strictly smaller than what it replaces.
        prop_assert!(
            compact.size_bytes() <= idx.size_bytes(),
            "compact {} > inverted {}",
            compact.size_bytes(),
            idx.size_bytes()
        );
        let engine = EngineBuilder::new(Lev, &reopened_store, ALPHABET).build_with(compact);
        for opts in option_grid(constraint) {
            check_outcomes(&reference, &engine, &workload, opts, &format!("opts={opts:?}"))?;
        }

        // One leg through a real file: write → open must equal decode.
        let path = unique_snapshot_path();
        Snapshot::write(&path, &store, &idx).expect("write");
        let from_file = Snapshot::open(&path).expect("open");
        std::fs::remove_file(&path).ok();
        let (file_store, file_compact) = from_file.into_parts();
        let file_engine = EngineBuilder::new(Lev, &file_store, ALPHABET).build_with(file_compact);
        let opts = SearchOptions {
            temporal: Some(constraint),
            use_temporal_postings: true,
            ..Default::default()
        };
        check_outcomes(&reference, &file_engine, &workload, opts, "file round trip")?;
    }

    /// Canonical bytes: the same logical index serializes identically from
    /// every layout, with and without temporal postings, and a decoded
    /// snapshot re-encodes to a fixed point.
    #[test]
    fn snapshot_bytes_canonical_across_layouts(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..10),
            0..10,
        ),
        temporal_i in 0usize..2,
    ) {
        let temporal = temporal_i == 1;
        let store = timed_store(paths);
        let mut inv = InvertedIndex::build(&store, ALPHABET);
        if temporal {
            inv.enable_temporal_postings();
        }
        let reference = Snapshot::encode(&store, &inv).expect("encode inverted");
        for shards in [1, 2, 3, 7] {
            let mut sh = ShardedIndex::build_parallel(&store, ALPHABET, shards);
            if temporal {
                sh.enable_temporal_postings();
            }
            prop_assert_eq!(
                &Snapshot::encode(&store, &sh).expect("encode sharded"),
                &reference,
                "shards={} produced different bytes",
                shards
            );
        }
        let snap = Snapshot::decode(&reference).expect("decode");
        prop_assert_eq!(
            &Snapshot::encode(snap.store(), snap.index()).expect("re-encode"),
            &reference,
            "re-encoding a decoded snapshot moved the bytes"
        );
    }
}
