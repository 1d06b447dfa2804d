//! Randomized equivalence: `ShardedIndex` and `CompactIndex` must be
//! indistinguishable from `InvertedIndex` through every consumer surface.
//!
//! Sharding partitions the postings lists by `traj_id % num_shards`, and
//! compaction re-encodes them delta+varint in one arena; nothing downstream
//! may observe either. The suite checks, for random stores and shard counts
//! in {1, 2, 3, 7}:
//!
//! * the *index* surface — postings sets, `freq`, spans,
//!   `postings_departing_by` — agrees record-for-record (as multisets; the
//!   trait documents iteration order as source-defined);
//! * the *engine* surface — full `SearchEngine` results — is byte-identical
//!   (`assert_eq!` on matches including `f64` distances, no epsilon) across
//!   shard counts, for all verify modes × temporal on/off (TF and
//!   by-departure postings included).

use proptest::prelude::*;
use traj::{TrajId, Trajectory, TrajectoryStore};
use trajsearch_core::batch::BatchOptions;
use trajsearch_core::{
    AnyIndex, CompactIndex, EngineBuilder, InvertedIndex, Posting, PostingSource, Query,
    SearchEngine, SearchOptions, ShardedIndex, TemporalConstraint, TimeInterval, VerifyMode,
};
use wed::models::Lev;
use wed::Sym;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];
const ALPHABET: usize = 12;

/// Timed store: trajectory `i` departs at `10·i` with unit steps, so small
/// query intervals split the store into in-window and out-of-window parts.
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

fn sorted_postings(idx: &impl PostingSource, q: Sym) -> Vec<Posting> {
    let mut v: Vec<Posting> = idx.postings(q).collect();
    v.sort_unstable();
    v
}

fn sorted_departing(idx: &impl PostingSource, q: Sym, t_max: f64) -> Vec<(f64, Posting)> {
    let mut v: Vec<(f64, Posting)> = idx.postings_departing_by(q, t_max).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    v
}

/// Index-surface equivalence: sizes, freqs, spans, postings sets, and (when
/// both sides have temporal postings) the by-departure prefixes at several
/// cut points.
fn check_index_surface(
    candidate: &impl PostingSource,
    reference: &InvertedIndex,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(candidate.alphabet_size(), reference.alphabet_size());
    prop_assert_eq!(candidate.num_trajectories(), reference.num_trajectories());
    prop_assert_eq!(candidate.total_postings(), reference.total_postings());
    for q in 0..reference.alphabet_size() as Sym {
        prop_assert_eq!(candidate.freq(q), reference.freq(q));
        prop_assert_eq!(
            sorted_postings(candidate, q),
            reference.postings(q).to_vec(),
            "postings set of symbol {} diverged",
            q
        );
    }
    for id in 0..reference.num_trajectories() as TrajId {
        prop_assert_eq!(candidate.span(id), reference.span(id));
    }
    prop_assert_eq!(
        candidate.has_temporal_postings(),
        reference.has_temporal_postings()
    );
    if reference.has_temporal_postings() {
        let horizon = 10.0 * reference.num_trajectories() as f64 + 20.0;
        for q in 0..reference.alphabet_size() as Sym {
            for t_max in [-1.0, 0.0, 5.0, 17.0, horizon] {
                prop_assert_eq!(
                    sorted_departing(candidate, q, t_max),
                    sorted_departing(reference, q, t_max),
                    "departing-by set of symbol {} at t_max {} diverged",
                    q,
                    t_max
                );
            }
        }
    }
    Ok(())
}

/// Engine-surface equivalence: byte-identical outcomes for one option set,
/// through the sequential and batch paths (the latter is generic over the
/// source as well, so a regression that makes it sensitive to shard-major
/// candidate order must fail here).
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
                // The unified surface rejects temporal-postings requests the
                // index cannot serve, so mirror availability here.
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

/// The full option grid: every verify mode × no-temporal / temporal with
/// and without the TF pre-filter and the by-departure postings path.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Index surface: every build agrees with the single-list reference at
    /// every shard count.
    #[test]
    fn sharded_index_surface_matches_inverted(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..10),
            0..10,
        ),
        shard_i in 0usize..SHARD_COUNTS.len(),
    ) {
        let shards = SHARD_COUNTS[shard_i];
        let full = timed_store(paths);
        let mut reference = InvertedIndex::build(&full, ALPHABET);
        let mut sharded = ShardedIndex::build_parallel(&full, ALPHABET, shards);
        check_index_surface(&sharded, &reference)?;
        check_index_surface(&reference.to_compact(), &reference)?;
        check_index_surface(&CompactIndex::build(&full, ALPHABET, false), &reference)?;
        reference.enable_temporal_postings();
        sharded.enable_temporal_postings();
        check_index_surface(&sharded, &reference)?;
        // Compacting either layout yields the same surface again.
        check_index_surface(&reference.to_compact(), &reference)?;
        check_index_surface(&CompactIndex::from_source(&sharded), &reference)?;
        // So does building from the store.
        check_index_surface(&CompactIndex::build(&full, ALPHABET, true), &reference)?;
    }

    /// Engine surface: full search results are byte-identical across shard
    /// counts, for all verify modes × temporal on/off.
    #[test]
    fn search_results_identical_across_shard_counts(
        paths in proptest::collection::vec(
            proptest::collection::vec(0u32..(ALPHABET as u32), 1..10),
            1..8,
        ),
        queries in proptest::collection::vec(
            // tau up to 4 > |Q| is possible: exercises the fallback scan.
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

        for &shards in &SHARD_COUNTS {
            let mut idx = ShardedIndex::build_parallel(&store, ALPHABET, shards);
            idx.enable_temporal_postings();
            let compact = CompactIndex::from_source(&idx);
            let engine = EngineBuilder::new(Lev, &store, ALPHABET).build_with(idx);
            let compact_engine = EngineBuilder::new(Lev, &store, ALPHABET).build_with(compact);
            for opts in option_grid(constraint) {
                check_outcomes(
                    &reference,
                    &engine,
                    &workload,
                    opts,
                    &format!("{shards} shards, opts={opts:?}"),
                )?;
                check_outcomes(
                    &reference,
                    &compact_engine,
                    &workload,
                    opts,
                    &format!("compact of {shards} shards, opts={opts:?}"),
                )?;
            }
        }
    }
}
