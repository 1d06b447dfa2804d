//! Absolute counter pins for the execution core.
//!
//! Every other suite in this crate is a *relative* equivalence (layout A ==
//! layout B, batch == sequential). This one pins literal values: one
//! fixed seeded store, a handful of queries covering every execution path
//! (the three WED verification strategies, DTW, Fréchet, LCSS, both
//! fallback scans, TF + by-departure temporal candidates, top-k growth),
//! and for each the deterministic
//! [`SearchStats`] counters plus an FNV-1a digest of the matches (ids,
//! spans, `f64::to_bits` of the distances). A refactor of the execution
//! core that moves any of them — a double-counted column, a lost dedup, a
//! different fallback contract — fails here even if all paths still agree
//! with each other. Each case also runs a second time under a live
//! [`TraceSink`]: recording spans must leave the whole row untouched.
//!
//! [`BATCH_GOLDEN`] does the same for the batch-level trie cache: one fixed
//! 1-thread `run_batch` of repeated and overlapping Trie-mode queries with
//! `share_tries` off and on, pinning the merged fresh-column and cache
//! hit/miss counters.
//!
//! The constants in [`GOLDEN`] and [`BATCH_GOLDEN`] are regenerated with
//! `cargo test -p trajsearch-core --test counter_golden -- --ignored --nocapture`
//! and must only change together with a deliberate change to what a counter
//! means — or, for the verification-work cells alone (`columns_passed`,
//! `stepdp_calls`, `verify_cost`), to how far verification walks, and then
//! only downward. Digests never move.

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::generator::TripConfig;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::{
    AnyIndex, BatchOptions, EngineBuilder, Metric, Query, QueryBuilder, Response, SearchEngine,
    TemporalConstraint, TimeInterval, TraceSink, VerifyMode,
};
use wed::models::{Edr, Erp};
use wed::{Sym, WedInstance};

/// `candidates`, `candidates_after_temporal`, `candidates_deduped`,
/// `tsubseq_len`, `sw_columns`, `columns_passed`, `stepdp_calls`,
/// `verify_cost`, `results`, `fallback`, matches digest.
type Row = [u64; 11];

/// Merged `stepdp_calls`, `trie_cache_hits`, `trie_cache_misses` of one
/// batch, digest of all its matches.
type BatchRow = [u64; 4];

/// 80 purposeful trips on the 8×8 grid. The generator's timestamps go
/// through a normal sampler; restamp them with plain integer arithmetic so
/// the temporal rows depend on nothing but the paths.
fn fixture() -> (Arc<rnet::RoadNetwork>, TrajectoryStore) {
    let net = Arc::new(CityParams::tiny(NetworkKind::Grid).seed(13).generate());
    let trips = TripConfig::default()
        .count(80)
        .lengths(12, 30)
        .seed(29)
        .generate(&net);
    let store = trips
        .iter()
        .map(|(id, t)| {
            let t0 = (id as usize * 37 % 2000) as f64;
            let times = (0..t.len()).map(|i| t0 + 10.0 * i as f64).collect();
            Trajectory::new(t.path().to_vec(), times)
        })
        .collect();
    (net, store)
}

/// Eight symbols out of trajectory `id`.
fn exact_pattern(store: &TrajectoryStore, id: u32) -> Vec<Sym> {
    store.get(id).path()[2..10].to_vec()
}

/// [`exact_pattern`] with the fourth symbol replaced by one further down
/// the trip, so the pattern is near but not in the store.
fn near_pattern(store: &TrajectoryStore, id: u32) -> Vec<Sym> {
    let mut q = exact_pattern(store, id);
    q[3] = store.get(id).path()[11];
    q
}

/// FNV-1a over the matches of `responses`, in order.
fn digest(responses: &[Response]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    };
    for m in responses.iter().flat_map(|r| &r.matches) {
        eat(&m.id.to_le_bytes());
        eat(&(m.start as u64).to_le_bytes());
        eat(&(m.end as u64).to_le_bytes());
        eat(&m.dist.to_bits().to_le_bytes());
    }
    h
}

fn row(r: &Response) -> Row {
    let s = &r.stats;
    [
        s.candidates as u64,
        s.candidates_after_temporal as u64,
        s.candidates_deduped as u64,
        s.tsubseq_len as u64,
        s.sw_columns,
        s.columns_passed,
        s.stepdp_calls,
        s.verify_cost,
        s.results as u64,
        s.fallback as u64,
        digest(std::slice::from_ref(r)),
    ]
}

/// The row of one query, asserted identical with span recording on.
fn traced_row<M: WedInstance + Sync>(
    engine: &SearchEngine<'_, M, AnyIndex>,
    query: &Query,
    sink: &TraceSink,
    name: &str,
) -> Row {
    let plain = row(&engine.run(query).unwrap());
    let id = sink.next_trace_id();
    let traced = row(&engine.run_traced(query, sink.tracer(id)).unwrap());
    assert_eq!(traced, plain, "{name}: tracing moved a counter or a match");
    assert!(!sink.spans_for(id).is_empty(), "{name}: no spans recorded");
    plain
}

/// Runs every case at both schedules, in [`GOLDEN`] order.
fn measure() -> Vec<(String, Row)> {
    let (net, store) = fixture();
    let alphabet = net.num_vertices();
    // ε just above the block length: B(q) holds q and its grid neighbours.
    let edr = Edr::new(net.clone(), 130.0);
    let erp = Erp::new(net.clone(), 5.0);
    let edr_engine = EngineBuilder::new(&edr, &store, alphabet)
        .temporal_postings(true)
        .build();
    let erp_engine = EngineBuilder::new(&erp, &store, alphabet).build();

    let q = near_pattern(&store, 7);
    let exact = exact_pattern(&store, 7);
    let window = TemporalConstraint::overlaps(TimeInterval::new(300.0, 900.0));
    let threshold = |tau: f64| Query::threshold(q.clone(), tau);
    let edr_cases: Vec<(&str, QueryBuilder)> = vec![
        ("wed_trie", threshold(2.5).verify(VerifyMode::Trie)),
        ("wed_local", threshold(2.5).verify(VerifyMode::Local)),
        ("wed_sw", threshold(2.5).verify(VerifyMode::Sw)),
        ("dtw", threshold(2.5).metric(Metric::Dtw)),
        (
            "frechet",
            Query::threshold(exact.clone(), 0.5).metric(Metric::Frechet),
        ),
        ("lcss", threshold(2.5).metric(Metric::Lcss { eps: 0.0 })),
        // τ > |Q| = Σ c(q): no τ-subsequence exists.
        ("wed_fallback", threshold(8.5).temporal(window)),
        (
            "dtw_fallback",
            threshold(8.5).metric(Metric::Dtw).temporal(window),
        ),
        (
            "temporal_tf",
            threshold(2.5).temporal(window).temporal_filter(true),
        ),
        (
            "temporal_postings",
            threshold(2.5)
                .temporal(window)
                .temporal_filter(true)
                .temporal_postings(true),
        ),
        ("top_k", Query::top_k(q.clone(), 5, 0.5, 8.0)),
    ];
    let erp_cases: Vec<(&str, QueryBuilder)> = vec![
        ("erp_trie", Query::threshold(exact.clone(), 250.0)),
        ("erp_fallback", threshold(1e9).temporal(window)),
    ];

    let sink = TraceSink::new(1 << 12);
    let mut out = Vec::new();
    for (name, b) in edr_cases {
        let query = b.build().unwrap();
        let name = format!("{name}/seq");
        let row = traced_row(&edr_engine, &query, &sink, &name);
        out.push((name, row));
    }
    for (name, b) in erp_cases {
        let query = b.build().unwrap();
        let name = format!("{name}/seq");
        let row = traced_row(&erp_engine, &query, &sink, &name);
        out.push((name, row));
    }
    out
}

/// One batch on one thread, private tries then shared, in [`BATCH_GOLDEN`]
/// order: three patterns four times each at one threshold (repeated), then
/// each at three thresholds (overlapping — distinct queries whose anchor
/// suffixes, the cache key, coincide).
fn measure_batch() -> Vec<(&'static str, BatchRow)> {
    let (net, store) = fixture();
    let edr = Edr::new(net.clone(), 130.0);
    let engine = EngineBuilder::new(&edr, &store, net.num_vertices()).build();

    let patterns = [
        near_pattern(&store, 7),
        exact_pattern(&store, 7),
        near_pattern(&store, 11),
    ];
    let repeated = patterns.iter().flat_map(|q| [(q, 2.5); 4]);
    let overlapping = patterns
        .iter()
        .flat_map(|q| [2.0, 2.5, 3.0].map(|tau| (q, tau)));
    let queries: Vec<Query> = repeated
        .chain(overlapping)
        .map(|(q, tau)| {
            Query::threshold(q.clone(), tau)
                .verify(VerifyMode::Trie)
                .build()
                .unwrap()
        })
        .collect();

    [("batch_private", false), ("batch_shared", true)]
        .map(|(name, share)| {
            let opts = BatchOptions::with_threads(1).share_tries(share);
            let out = engine.run_batch(&queries, opts).unwrap();
            let m = &out.stats.merged;
            let row = [
                m.stepdp_calls,
                m.trie_cache_hits,
                m.trie_cache_misses,
                digest(&out.responses),
            ];
            (name, row)
        })
        .to_vec()
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("wed_trie/seq", [431, 431, 431, 3, 9275, 1831, 828, 1831, 41, 0, 0x31f25821c10ced53]),
    ("wed_local/seq", [431, 431, 431, 3, 9275, 1831, 1831, 1831, 41, 0, 0x31f25821c10ced53]),
    ("wed_sw/seq", [431, 431, 431, 3, 1441, 0, 0, 1441, 41, 0, 0x31f25821c10ced53]),
    ("dtw/seq", [431, 431, 431, 3, 0, 0, 0, 5397, 198, 0, 0x11bcb86199d13075]),
    ("frechet/seq", [129, 129, 129, 1, 0, 0, 0, 545, 36, 0, 0xb80d432bc79e412c]),
    ("lcss/seq", [1664, 1664, 1664, 0, 0, 0, 0, 19244, 856, 1, 0xbd099b9c71068b67]),
    ("wed_fallback/seq", [1664, 1664, 1664, 0, 1664, 0, 0, 1664, 5589, 1, 0x71d9410280802c39]),
    ("dtw_fallback/seq", [1664, 1664, 1664, 0, 0, 0, 0, 14620, 5906, 1, 0xeb25ef0789ceb9c8]),
    ("temporal_tf/seq", [431, 271, 271, 3, 5748, 1182, 640, 1182, 34, 0, 0xb93219d5239811b1]),
    ("temporal_postings/seq", [271, 271, 271, 3, 5748, 1182, 640, 1182, 34, 0, 0xb93219d5239811b1]),
    ("top_k/seq", [1124, 1124, 1124, 8, 24385, 4531, 1984, 4531, 5, 0, 0x0f4da223c29c651e]),
    ("erp_trie/seq", [99, 99, 99, 3, 2096, 262, 87, 262, 2, 0, 0x534387723afcf81f]),
    ("erp_fallback/seq", [1664, 1664, 1664, 0, 1664, 0, 0, 1664, 8721, 1, 0xfc8f51f17143b30a]),
];

#[test]
fn counters_and_matches_are_pinned() {
    let got = measure();
    assert_eq!(got.len(), GOLDEN.len(), "case list and GOLDEN diverged");
    for ((name, row), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        assert_eq!(row, want, "{name}: counters moved");
    }
}

#[rustfmt::skip]
const BATCH_GOLDEN: &[(&str, BatchRow)] = &[
    ("batch_private", [14613, 0, 0, 0xd9cd8847634327a4]),
    ("batch_shared", [2268, 106, 14, 0xd9cd8847634327a4]),
];

#[test]
fn batch_trie_cache_counters_are_pinned() {
    assert_eq!(measure_batch(), BATCH_GOLDEN, "batch counters moved");
}

/// Prints the tables to paste into [`GOLDEN`] and [`BATCH_GOLDEN`].
#[test]
#[ignore = "regenerates the GOLDEN tables"]
fn print_golden() {
    for (name, r) in measure() {
        let [a, b, c, d, e, f, g, h, i, j, k] = r;
        println!("    ({name:?}, [{a}, {b}, {c}, {d}, {e}, {f}, {g}, {h}, {i}, {j}, {k:#018x}]),");
    }
    for (name, [a, b, c, d]) in measure_batch() {
        println!("    ({name:?}, [{a}, {b}, {c}, {d:#018x}]),");
    }
}
