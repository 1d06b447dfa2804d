//! Byte-identity gate for the wire protocol (minors 1–5).
//!
//! Every `Request` and `Reply` variant — each optional field both present
//! and absent — and one `Query` body per objective × option set is pinned
//! as a `(value, literal frame)` row: `to_json()` must render the literal
//! byte-for-byte and `from_json(literal)` must decode back to the value. A
//! second table holds *legacy* frames (no `"v"`, fields later minors
//! added missing, unknown keys present) that must keep decoding.
//!
//! The same literals seed a mutation fuzz: truncated, byte-flipped,
//! key-edited and type-swapped frames must come back as typed errors or as
//! values that round-trip — never a panic.
//!
//! Values are hand-built with fixed nanosecond fields — live responses vary
//! in digit count from run to run — and the literals were rendered by the
//! hand-paired codec that preceded the `Wire` field table, so a refactor of
//! the codec that changes one byte of one frame fails here.

use proptest::prelude::*;
use std::time::Duration;
use trajsearch_core::json::JsonValue;
use trajsearch_core::{
    MatchResult, Metric, Query, Response, SearchStats, TemporalConstraint, TimeInterval, VerifyMode,
};
use trajsearch_serve::{
    DegradedInfo, LatencySummary, MetricsSnapshot, Reply, Request, ServerError, ServerErrorKind,
    ShardInfo, TraceEntry, WireSpan,
};

fn plain_query() -> Query {
    Query::threshold(vec![1, 2, 3], 1.5).build().unwrap()
}

/// A response carrying all 15 `SearchStats` keys with distinct values.
fn full_response() -> Response {
    Response {
        matches: vec![
            MatchResult {
                id: 3,
                start: 1,
                end: 4,
                dist: 0.5,
            },
            MatchResult {
                id: 17,
                start: 0,
                end: 2,
                dist: 1.0 / 3.0,
            },
        ],
        stats: SearchStats {
            mincand_time: Duration::from_nanos(1_001),
            lookup_time: Duration::from_nanos(20_002),
            verify_time: Duration::from_nanos(300_003),
            candidates: 40,
            candidates_after_temporal: 35,
            candidates_deduped: 30,
            tsubseq_len: 2,
            fallback: true,
            sw_columns: 900,
            columns_passed: 800,
            stepdp_calls: 700,
            verify_cost: 600,
            trie_cache_hits: 5,
            trie_cache_misses: 4,
            results: 2,
        },
    }
}

fn empty_response() -> Response {
    Response {
        matches: Vec::new(),
        stats: SearchStats::default(),
    }
}

fn summary(base: u64) -> LatencySummary {
    LatencySummary {
        count: base,
        p50_ns: base + 1,
        p95_ns: base + 2,
        p99_ns: base + 3,
        max_ns: base + 4,
    }
}

fn full_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        queue_depth: 1,
        queue_capacity: 64,
        workers: 4,
        admitted: 100,
        rejected_overload: 7,
        rejected_shutdown: 2,
        timed_out: 3,
        completed: 88,
        degraded: 6,
        invalid: 5,
        malformed: 9,
        queue: summary(1_000),
        wall: summary(20_000),
        cpu: summary(300_000),
    }
}

fn span(span_id: u64, parent_id: u64, name: &str, detail: u64) -> WireSpan {
    WireSpan {
        span_id,
        parent_id,
        name: name.into(),
        detail,
        start_ns: span_id * 100,
        dur_ns: 5_000 / span_id,
    }
}

fn degraded_info() -> DegradedInfo {
    DegradedInfo {
        missing_shards: vec![0, 2],
        reason: "shard 2: connection reset".into(),
    }
}

fn request_rows() -> Vec<(Request, &'static str)> {
    let deadline_query = Query::threshold(vec![1, 2, 3], 1.5)
        .deadline_ms(250)
        .build()
        .unwrap();
    vec![
        (
            Request::Query {
                id: 7,
                query: plain_query(),
                trace_id: None,
            },
            r#"{"v":1,"type":"query","id":7,"query":{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","temporal_filter":false,"temporal_postings":false}}"#,
        ),
        (
            Request::Query {
                id: 42,
                query: deadline_query,
                trace_id: Some(77),
            },
            r#"{"v":1,"type":"query","id":42,"query":{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","temporal_filter":false,"temporal_postings":false,"deadline_ms":250},"trace_id":77}"#,
        ),
        (Request::Stats { id: 8 }, r#"{"v":1,"type":"stats","id":8}"#),
        (
            Request::Trace {
                id: 5,
                trace_id: None,
            },
            r#"{"v":1,"type":"trace","id":5}"#,
        ),
        (
            Request::Trace {
                id: 5,
                trace_id: Some(9),
            },
            r#"{"v":1,"type":"trace","id":5,"trace_id":9}"#,
        ),
        (
            Request::MetricsText { id: 9 },
            r#"{"v":1,"type":"metrics_text","id":9}"#,
        ),
        (
            Request::Hello {
                id: 1,
                major: 1,
                minor: 3,
            },
            r#"{"v":1,"type":"hello","id":1,"major":1,"minor":3}"#,
        ),
        (
            Request::ShardInfo { id: 2 },
            r#"{"v":1,"type":"shard_info","id":2}"#,
        ),
        // The two module-doc shard data RPC frames, then each with the optional
        // fields flipped.
        (
            Request::ShardPostings {
                id: 4,
                epoch: 7,
                deadline_ms: None,
                trace_id: None,
                syms: vec![4],
            },
            r#"{"v":1,"type":"shard_postings","id":4,"epoch":7,"syms":[4]}"#,
        ),
        (
            Request::ShardPostings {
                id: 12,
                epoch: u64::MAX,
                deadline_ms: Some(1),
                trace_id: Some(31),
                syms: vec![0, u32::MAX],
            },
            r#"{"v":1,"type":"shard_postings","id":12,"epoch":18446744073709551615,"deadline_ms":1,"trace_id":31,"syms":[0,4294967295]}"#,
        ),
    ]
}

fn reply_rows() -> Vec<(Reply, &'static str)> {
    vec![
        (
            Reply::Response {
                id: 7,
                response: full_response(),
            },
            r#"{"v":1,"type":"response","id":7,"response":{"matches":[{"id":3,"start":1,"end":4,"dist":0.5},{"id":17,"start":0,"end":2,"dist":0.3333333333333333}],"stats":{"mincand_ns":1001,"lookup_ns":20002,"verify_ns":300003,"candidates":40,"candidates_after_temporal":35,"candidates_deduped":30,"tsubseq_len":2,"fallback":true,"sw_columns":900,"columns_passed":800,"stepdp_calls":700,"verify_cost":600,"trie_cache_hits":5,"trie_cache_misses":4,"results":2}}}"#,
        ),
        (
            Reply::Response {
                id: 8,
                response: empty_response(),
            },
            r#"{"v":1,"type":"response","id":8,"response":{"matches":[],"stats":{"mincand_ns":0,"lookup_ns":0,"verify_ns":0,"candidates":0,"candidates_after_temporal":0,"candidates_deduped":0,"tsubseq_len":0,"fallback":false,"sw_columns":0,"columns_passed":0,"stepdp_calls":0,"verify_cost":0,"trie_cache_hits":0,"trie_cache_misses":0,"results":0}}}"#,
        ),
        (
            Reply::Degraded {
                id: 25,
                degraded: degraded_info(),
                response: None,
            },
            r#"{"v":1,"type":"degraded","id":25,"degraded":{"missing_shards":[0,2],"reason":"shard 2: connection reset"}}"#,
        ),
        (
            Reply::Degraded {
                id: 26,
                degraded: DegradedInfo::default(),
                response: Some(full_response()),
            },
            r#"{"v":1,"type":"degraded","id":26,"degraded":{"missing_shards":[],"reason":""},"response":{"matches":[{"id":3,"start":1,"end":4,"dist":0.5},{"id":17,"start":0,"end":2,"dist":0.3333333333333333}],"stats":{"mincand_ns":1001,"lookup_ns":20002,"verify_ns":300003,"candidates":40,"candidates_after_temporal":35,"candidates_deduped":30,"tsubseq_len":2,"fallback":true,"sw_columns":900,"columns_passed":800,"stepdp_calls":700,"verify_cost":600,"trie_cache_hits":5,"trie_cache_misses":4,"results":2}}}"#,
        ),
        (
            Reply::Error {
                id: Some(9),
                error: ServerError::new(ServerErrorKind::Overloaded, "queue full (cap 64)"),
            },
            r#"{"v":1,"type":"error","id":9,"error":{"kind":"overloaded","message":"queue full (cap 64)"}}"#,
        ),
        (
            Reply::Error {
                id: None,
                error: ServerError::new(ServerErrorKind::Malformed, "unparseable \"frame\"\n"),
            },
            r#"{"v":1,"type":"error","id":null,"error":{"kind":"malformed","message":"unparseable \"frame\"\n"}}"#,
        ),
        (
            Reply::Error {
                id: Some(10),
                error: ServerError::new(ServerErrorKind::EpochMismatch, ""),
            },
            r#"{"v":1,"type":"error","id":10,"error":{"kind":"epoch_mismatch","message":""}}"#,
        ),
        (
            Reply::Stats {
                id: 8,
                stats: full_snapshot(),
            },
            r#"{"v":1,"type":"stats","id":8,"stats":{"queue_depth":1,"queue_capacity":64,"workers":4,"admitted":100,"rejected_overload":7,"rejected_shutdown":2,"timed_out":3,"completed":88,"degraded":6,"invalid":5,"malformed":9,"queue":{"count":1000,"p50_ns":1001,"p95_ns":1002,"p99_ns":1003,"max_ns":1004},"wall":{"count":20000,"p50_ns":20001,"p95_ns":20002,"p99_ns":20003,"max_ns":20004},"cpu":{"count":300000,"p50_ns":300001,"p95_ns":300002,"p99_ns":300003,"max_ns":300004}}}"#,
        ),
        (
            Reply::Trace {
                id: 5,
                entries: vec![
                    TraceEntry {
                        trace_id: 9,
                        query_id: Some(12),
                        wall_ns: 5_000,
                        spans: vec![span(1, 0, "query", 0), span(2, 1, "verify", 3)],
                    },
                    TraceEntry {
                        trace_id: 10,
                        query_id: None,
                        wall_ns: 1,
                        spans: Vec::new(),
                    },
                ],
            },
            r#"{"v":1,"type":"trace","id":5,"entries":[{"trace_id":9,"query_id":12,"wall_ns":5000,"spans":[{"span_id":1,"parent_id":0,"name":"query","detail":0,"start_ns":100,"dur_ns":5000},{"span_id":2,"parent_id":1,"name":"verify","detail":3,"start_ns":200,"dur_ns":2500}]},{"trace_id":10,"wall_ns":1,"spans":[]}]}"#,
        ),
        (
            Reply::Trace {
                id: 6,
                entries: Vec::new(),
            },
            r#"{"v":1,"type":"trace","id":6,"entries":[]}"#,
        ),
        (
            Reply::MetricsText {
                id: 6,
                text: "# HELP x X.\n# TYPE x counter\nx 1\n".into(),
            },
            r##"{"v":1,"type":"metrics_text","id":6,"text":"# HELP x X.\n# TYPE x counter\nx 1\n"}"##,
        ),
        (
            Reply::Hello {
                id: 3,
                major: 1,
                minor: 3,
                metrics: vec!["wed".into(), "dtw".into(), "lcss".into(), "frechet".into()],
            },
            r#"{"v":1,"type":"hello","id":3,"major":1,"minor":3,"metrics":["wed","dtw","lcss","frechet"]}"#,
        ),
        (
            Reply::Hello {
                id: 3,
                major: 1,
                minor: 1,
                metrics: Vec::new(),
            },
            r#"{"v":1,"type":"hello","id":3,"major":1,"minor":1}"#,
        ),
        (
            Reply::ShardInfo {
                id: 20,
                info: ShardInfo {
                    shard_id: 1,
                    num_shards: 3,
                    epoch: 7,
                    alphabet_size: 64,
                    local_trajectories: 40,
                    num_trajectories: 120,
                    total_postings: 960,
                    size_bytes: 7680,
                },
            },
            r#"{"v":1,"type":"shard_info","id":20,"info":{"shard_id":1,"num_shards":3,"epoch":7,"alphabet_size":64,"local_trajectories":40,"num_trajectories":120,"total_postings":960,"size_bytes":7680}}"#,
        ),
        (
            Reply::ShardPostings {
                id: 22,
                lists: vec![vec![(1, 0), (4, 2)], vec![]],
            },
            r#"{"v":1,"type":"shard_postings","id":22,"lists":[[[1,0],[4,2]],[]]}"#,
        ),
    ]
}

/// One query body per objective × {plain, every optional field set, each
/// non-WED metric}.
fn query_rows() -> Vec<(Query, &'static str)> {
    let everything = |b: trajsearch_core::QueryBuilder| {
        b.verify(VerifyMode::Local)
            .temporal(TemporalConstraint::within(TimeInterval::new(-1.5, 9e9)))
            .temporal_filter(true)
            .temporal_postings(true)
            .deadline_ms(2000)
            .build()
            .unwrap()
    };
    let threshold = || Query::threshold(vec![1, 2, 3], 1.5);
    let top_k = || Query::top_k(vec![3, 1, 4, 1, 5], 7, 0.1, 1.0 / 3.0);
    vec![
        (
            threshold().build().unwrap(),
            r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","temporal_filter":false,"temporal_postings":false}"#,
        ),
        (
            everything(threshold().metric(Metric::Dtw)),
            r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"local","metric":{"name":"dtw"},"temporal":{"predicate":"within","start":-1.5,"end":9000000000},"temporal_filter":true,"temporal_postings":true,"deadline_ms":2000}"#,
        ),
        (
            threshold().metric(Metric::Dtw).build().unwrap(),
            r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","metric":{"name":"dtw"},"temporal_filter":false,"temporal_postings":false}"#,
        ),
        (
            threshold()
                .metric(Metric::Lcss { eps: 0.25 })
                .verify(VerifyMode::Sw)
                .build()
                .unwrap(),
            r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"sw","metric":{"name":"lcss","eps":0.25},"temporal_filter":false,"temporal_postings":false}"#,
        ),
        (
            threshold().metric(Metric::Frechet).build().unwrap(),
            r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","metric":{"name":"frechet"},"temporal_filter":false,"temporal_postings":false}"#,
        ),
        (
            top_k().build().unwrap(),
            r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"trie","temporal_filter":false,"temporal_postings":false}"#,
        ),
        (
            everything(top_k()),
            r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"local","temporal":{"predicate":"within","start":-1.5,"end":9000000000},"temporal_filter":true,"temporal_postings":true,"deadline_ms":2000}"#,
        ),
        (
            top_k().metric(Metric::Dtw).build().unwrap(),
            r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"trie","metric":{"name":"dtw"},"temporal_filter":false,"temporal_postings":false}"#,
        ),
        (
            top_k()
                .metric(Metric::Lcss { eps: 0.0 })
                .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 15.0)))
                .build()
                .unwrap(),
            r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"trie","metric":{"name":"lcss","eps":0},"temporal":{"predicate":"overlaps","start":0,"end":15},"temporal_filter":false,"temporal_postings":false}"#,
        ),
        (
            top_k().metric(Metric::Frechet).build().unwrap(),
            r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"trie","metric":{"name":"frechet"},"temporal_filter":false,"temporal_postings":false}"#,
        ),
    ]
}

/// [`query_rows`]' bodies as protocol minors 1–3 rendered them, row for
/// row: each carried a `parallelism` member (an in-query thread count, or
/// `sequential`) that this build no longer has.
const PARALLELISM_BODIES: [&str; 10] = [
    r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}"#,
    r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"local","metric":{"name":"dtw"},"temporal":{"predicate":"within","start":-1.5,"end":9000000000},"temporal_filter":true,"temporal_postings":true,"parallelism":{"type":"in_query","threads":4},"deadline_ms":2000}"#,
    r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","metric":{"name":"dtw"},"temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}"#,
    r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"sw","metric":{"name":"lcss","eps":0.25},"temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}"#,
    r#"{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","metric":{"name":"frechet"},"temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}"#,
    r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"trie","temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}"#,
    r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"local","temporal":{"predicate":"within","start":-1.5,"end":9000000000},"temporal_filter":true,"temporal_postings":true,"parallelism":{"type":"in_query","threads":4},"deadline_ms":2000}"#,
    r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"trie","metric":{"name":"dtw"},"temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}"#,
    r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"trie","metric":{"name":"lcss","eps":0},"temporal":{"predicate":"overlaps","start":0,"end":15},"temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}"#,
    r#"{"pattern":[3,1,4,1,5],"objective":{"type":"top_k","k":7,"initial_tau":0.1,"max_tau":0.3333333333333333},"verify":"trie","metric":{"name":"frechet"},"temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}"#,
];

/// `body` with its `parallelism` member's value replaced by `schedule`.
fn with_schedule(body: &str, schedule: &str) -> String {
    let at = body
        .find(r#""parallelism":"#)
        .expect("a parallelism member")
        + 14;
    let end = at + body[at..].find('}').expect("an object value") + 1;
    format!("{}{schedule}{}", &body[..at], &body[end..])
}

#[test]
fn request_frames_are_byte_identical_and_decode_back() {
    for (value, literal) in request_rows() {
        assert_eq!(value.to_json(), literal, "{value:?}");
        assert_eq!(Request::from_json(literal).unwrap(), value, "{literal}");
    }
}

#[test]
fn reply_frames_are_byte_identical_and_decode_back() {
    for (value, literal) in reply_rows() {
        assert_eq!(value.to_json(), literal, "{value:?}");
        assert_eq!(Reply::from_json(literal).unwrap(), value, "{literal}");
    }
}

#[test]
fn query_bodies_are_byte_identical_and_decode_back() {
    for (value, literal) in query_rows() {
        assert_eq!(value.to_json(), literal, "{value:?}");
        assert_eq!(Query::from_json(literal).unwrap(), value, "{literal}");
    }
    // The response body on its own (the `Reply::Response` rows embed it).
    let body = full_response().to_json();
    assert!(reply_rows()[0].1.contains(&body));
    assert_eq!(Response::from_json(&body).unwrap(), full_response());
}

/// Frames an older (or merely sloppier) peer sends: no `"v"`, fields that
/// later minors added missing, keys this build does not know. They are not
/// what `to_json` renders, but they must keep decoding.
#[test]
fn legacy_frames_keep_decoding() {
    let minimal_query = Query::threshold(vec![1, 2], 1.5).build().unwrap();
    let requests = [
        // Pre-versioning peers send no "v".
        (r#"{"type":"stats","id":1}"#, Request::Stats { id: 1 }),
        // A query body with every defaulted key absent, `null` optionals,
        // an explicit WED metric, and an unknown key at both levels.
        (
            r#"{"type":"query","id":7,"future":{"x":[1]},"query":{"pattern":[1,2],"objective":{"type":"threshold","tau":1.5},"metric":null,"temporal":null,"deadline_ms":null,"hint":"fast"}}"#,
            Request::Query {
                id: 7,
                query: minimal_query.clone(),
                trace_id: None,
            },
        ),
        (
            r#"{"v":1,"type":"query","id":7,"trace_id":null,"query":{"pattern":[1,2],"objective":{"type":"threshold","tau":1.5},"metric":{"name":"wed"}}}"#,
            Request::Query {
                id: 7,
                query: minimal_query,
                trace_id: None,
            },
        ),
        // The query frames minors 1–3 rendered, `parallelism` included.
        (
            r#"{"v":1,"type":"query","id":7,"query":{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"}}}"#,
            Request::Query {
                id: 7,
                query: Query::threshold(vec![1, 2, 3], 1.5).build().unwrap(),
                trace_id: None,
            },
        ),
        (
            r#"{"v":1,"type":"query","id":42,"query":{"pattern":[1,2,3],"objective":{"type":"threshold","tau":1.5},"verify":"trie","temporal_filter":false,"temporal_postings":false,"parallelism":{"type":"sequential"},"deadline_ms":250},"trace_id":77}"#,
            Request::Query {
                id: 42,
                query: Query::threshold(vec![1, 2, 3], 1.5)
                    .deadline_ms(250)
                    .build()
                    .unwrap(),
                trace_id: Some(77),
            },
        ),
        // `trace_id: null` on a shard RPC means untraced.
        (
            r#"{"v":1,"type":"shard_postings","id":3,"epoch":7,"trace_id":null,"syms":[4]}"#,
            Request::ShardPostings {
                id: 3,
                epoch: 7,
                deadline_ms: None,
                trace_id: None,
                syms: vec![4],
            },
        ),
    ];
    for (literal, value) in requests {
        assert_eq!(Request::from_json(literal).unwrap(), value, "{literal}");
    }

    // Every schedule older peers could send, the zero thread count older
    // builds rejected included, is skipped as an unknown key: the body and
    // a traced `query` frame around it decode to the key-less query.
    for ((query, _), old) in query_rows().into_iter().zip(PARALLELISM_BODIES) {
        for schedule in [
            r#"{"type":"sequential"}"#,
            r#"{"type":"in_query","threads":4}"#,
            r#"{"type":"in_query","threads":0}"#,
        ] {
            let body = with_schedule(old, schedule);
            assert_eq!(Query::from_json(&body).unwrap(), query, "{body}");
            let frame = format!(r#"{{"v":1,"type":"query","id":9,"query":{body},"trace_id":5}}"#);
            let want = Request::Query {
                id: 9,
                query: query.clone(),
                trace_id: Some(5),
            };
            assert_eq!(Request::from_json(&frame).unwrap(), want, "{frame}");
        }
    }

    let legacy_stats = MetricsSnapshot {
        degraded: 0,
        queue: LatencySummary::default(),
        ..full_snapshot()
    };
    let mut legacy_response = full_response();
    legacy_response.stats.verify_cost = 0;
    legacy_response.stats.trie_cache_hits = 0;
    legacy_response.stats.trie_cache_misses = 0;
    let replies = [
        // Stats from a server that predates the `degraded` counter and the
        // `queue` series.
        (
            r#"{"type":"stats","id":8,"stats":{"queue_depth":1,"queue_capacity":64,"workers":4,"admitted":100,"rejected_overload":7,"rejected_shutdown":2,"timed_out":3,"completed":88,"invalid":5,"malformed":9,"wall":{"count":20000,"p50_ns":20001,"p95_ns":20002,"p99_ns":20003,"max_ns":20004},"cpu":{"count":300000,"p50_ns":300001,"p95_ns":300002,"p99_ns":300003,"max_ns":300004}}}"#,
            Reply::Stats {
                id: 8,
                stats: legacy_stats,
            },
        ),
        // Response stats without `verify_cost` / `trie_cache_*`.
        (
            r#"{"type":"response","id":7,"response":{"matches":[{"id":3,"start":1,"end":4,"dist":0.5},{"id":17,"start":0,"end":2,"dist":0.3333333333333333}],"stats":{"mincand_ns":1001,"lookup_ns":20002,"verify_ns":300003,"candidates":40,"candidates_after_temporal":35,"candidates_deduped":30,"tsubseq_len":2,"fallback":true,"sw_columns":900,"columns_passed":800,"stepdp_calls":700,"results":2}}}"#,
            Reply::Response {
                id: 7,
                response: legacy_response,
            },
        ),
        // A minor-1 hello reply: no "v", no `metrics`.
        (
            r#"{"type":"hello","id":3,"major":1,"minor":1}"#,
            Reply::Hello {
                id: 3,
                major: 1,
                minor: 1,
                metrics: Vec::new(),
            },
        ),
        (
            r#"{"v":1,"type":"hello","id":3,"major":1,"minor":2,"metrics":null,"extra":true}"#,
            Reply::Hello {
                id: 3,
                major: 1,
                minor: 2,
                metrics: Vec::new(),
            },
        ),
        // An error without a message, a degraded reply without a reason.
        (
            r#"{"type":"error","id":null,"error":{"kind":"shutting_down"}}"#,
            Reply::Error {
                id: None,
                error: ServerError::new(ServerErrorKind::ShuttingDown, ""),
            },
        ),
        (
            r#"{"type":"error","error":{"kind":"deadline_exceeded","message":"late"}}"#,
            Reply::Error {
                id: None,
                error: ServerError::new(ServerErrorKind::DeadlineExceeded, "late"),
            },
        ),
        (
            r#"{"type":"degraded","id":25,"degraded":{"missing_shards":[1]}}"#,
            Reply::Degraded {
                id: 25,
                degraded: DegradedInfo {
                    missing_shards: vec![1],
                    reason: String::new(),
                },
                response: None,
            },
        ),
        // A trace entry whose `query_id` is an explicit null.
        (
            r#"{"v":1,"type":"trace","id":5,"entries":[{"trace_id":9,"query_id":null,"wall_ns":1,"spans":[]}]}"#,
            Reply::Trace {
                id: 5,
                entries: vec![TraceEntry {
                    trace_id: 9,
                    query_id: None,
                    wall_ns: 1,
                    spans: Vec::new(),
                }],
            },
        ),
    ];
    for (literal, value) in replies {
        assert_eq!(Reply::from_json(literal).unwrap(), value, "{literal}");
    }
}

/// The two decode behaviours the single leaf impls changed, each of which
/// fails on the hand-paired codec: `null` means absent on *every* optional
/// key (a shard RPC's `deadline_ms` used to be the exception), and a float
/// that overflows to ∞ is rejected wherever it appears (a match's `dist`
/// used to decode to +∞, which cannot be re-encoded).
#[test]
fn null_is_absent_and_floats_are_finite_on_every_key() {
    assert_eq!(
        Request::from_json(
            r#"{"v":1,"type":"shard_postings","id":3,"epoch":7,"deadline_ms":null,"syms":[4]}"#
        )
        .unwrap(),
        Request::ShardPostings {
            id: 3,
            epoch: 7,
            deadline_ms: None,
            trace_id: None,
            syms: vec![4],
        }
    );
    let overflowing = reply_rows()[0]
        .1
        .replace(r#""dist":0.5"#, r#""dist":1e999"#);
    let err = Reply::from_json(&overflowing).unwrap_err();
    assert!(err.contains("\"dist\": must be a finite number"), "{err}");
}

/// Characters that keep a flipped byte "almost JSON".
const SOUP: &[u8] = br#"{}[]",:.-+eE0123456789 truefalsenul\"abc"#;

/// Applies `edit` to the `n`-th node (depth-first) that `edit` accepts.
fn edit_nth(v: &mut JsonValue, n: &mut usize, edit: &dyn Fn(&mut JsonValue) -> bool) -> bool {
    let mut probe = v.clone();
    if edit(&mut probe) {
        if *n == 0 {
            *v = probe;
            return true;
        }
        *n -= 1;
    }
    match v {
        JsonValue::Arr(items) => items.iter_mut().any(|item| edit_nth(item, n, edit)),
        JsonValue::Obj(pairs) => pairs.iter_mut().any(|(_, item)| edit_nth(item, n, edit)),
        _ => false,
    }
}

/// One seeded mutation of a golden frame.
fn mutate(frame: &str, kind: u8, at: usize, pick: usize) -> String {
    let structural = |edit: &dyn Fn(&mut JsonValue) -> bool| {
        let mut doc = JsonValue::parse(frame).unwrap();
        edit_nth(&mut doc, &mut (at % 8), edit);
        doc.to_string()
    };
    match kind {
        0 => frame[..at % frame.len()].to_string(),
        1 => {
            let mut bytes = frame.as_bytes().to_vec();
            bytes[at % frame.len()] = SOUP[pick % SOUP.len()];
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Delete, or duplicate, the `pick`-th key of an object.
        2 | 3 => structural(&|v| match v {
            JsonValue::Obj(pairs) if !pairs.is_empty() => {
                let i = pick % pairs.len();
                if kind == 2 {
                    pairs.remove(i);
                } else {
                    pairs.push(pairs[i].clone());
                }
                true
            }
            _ => false,
        }),
        // Swap a number for a string, an array or `null`.
        4 => structural(&|v| {
            let is_num = matches!(v, JsonValue::Num(_));
            if is_num {
                *v = [
                    JsonValue::Str("7".into()),
                    JsonValue::Arr(vec![]),
                    JsonValue::Null,
                ][pick % 3]
                    .clone();
            }
            is_num
        }),
        // Splice in a nesting bomb.
        _ => {
            let at = at % (frame.len() + 1);
            format!("{}{}{}", &frame[..at], "[".repeat(10_000), &frame[at..])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_golden_frames_are_typed_errors_or_round_trip(
        row in 0usize..1024,
        kind in 0u8..6,
        at in 0usize..65_536,
        pick in 0usize..1024,
    ) {
        let requests = request_rows();
        let replies = reply_rows();
        let literals: Vec<&str> = requests.iter().map(|r| r.1).chain(replies.iter().map(|r| r.1)).collect();
        let text = mutate(literals[row % literals.len()], kind, at, pick);
        match Request::from_json(&text) {
            Ok(request) => {
                prop_assert_eq!(Request::from_json(&request.to_json()).unwrap(), request);
            }
            Err((id, error)) => {
                prop_assert!(matches!(
                    error.kind,
                    ServerErrorKind::Malformed
                        | ServerErrorKind::InvalidQuery
                        | ServerErrorKind::UnsupportedVersion
                ), "{}: {}", text, error);
                // The error stays addressable whenever the frame's id survived.
                if let Ok(doc) = JsonValue::parse(&text) {
                    prop_assert_eq!(id, doc.get("id").and_then(|v| v.as_u64()), "{}", text);
                }
            }
        }
        if let Ok(reply) = Reply::from_json(&text) {
            prop_assert_eq!(Reply::from_json(&reply.to_json()).unwrap(), reply);
        }
    }
}

/// A seeded xorshift stream, for reproducible permutations.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Rewrites a golden document the way a sloppier peer might: every
/// object's keys in a seeded order, an unknown key with a nested value in
/// each, and a duplicate of one key carrying another value appended (the
/// first occurrence wins, so the duplicate must change nothing).
fn scramble(v: &mut JsonValue, rng: &mut Rng) {
    match v {
        JsonValue::Arr(items) => items.iter_mut().for_each(|item| scramble(item, rng)),
        JsonValue::Obj(pairs) => {
            pairs.iter_mut().for_each(|(_, item)| scramble(item, rng));
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.below(i + 1));
            }
            let unknown = JsonValue::parse(r#"{"a":[1,{"b":null,"c":"é"}],"type":"x"}"#);
            pairs.insert(
                rng.below(pairs.len() + 1),
                ("later_minor".into(), unknown.unwrap()),
            );
            let (key, _) = pairs[rng.below(pairs.len())].clone();
            pairs.push((key, JsonValue::Arr(vec![JsonValue::Str("dup".into())])));
        }
        _ => {}
    }
}

/// Renders `v` with whitespace between tokens.
fn render_spaced(v: &JsonValue, rng: &mut Rng) -> String {
    let ws = |rng: &mut Rng| [" ", "", "\n", " \t "][rng.below(4)];
    let mut out = String::from(ws(rng));
    match v {
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(&render_spaced(item, rng));
            }
            out.push_str(ws(rng));
            out.push(']');
        }
        JsonValue::Obj(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(ws(rng));
                out.push_str(&JsonValue::Str(key.clone()).to_string());
                out.push_str(ws(rng));
                out.push(':');
                out.push_str(&render_spaced(item, rng));
            }
            out.push_str(ws(rng));
            out.push('}');
        }
        leaf => out.push_str(&leaf.to_string()),
    }
    out.push_str(ws(rng));
    out
}

#[test]
fn any_key_order_decodes_like_the_canonical_frame() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut rewrite = |literal: &str| {
        let mut doc = JsonValue::parse(literal).unwrap();
        scramble(&mut doc, &mut rng);
        render_spaced(&doc, &mut rng)
    };
    for _ in 0..8 {
        for (value, literal) in request_rows() {
            let text = rewrite(literal);
            assert_eq!(Request::from_json(&text).unwrap(), value, "{text}");
        }
        for (value, literal) in reply_rows() {
            let text = rewrite(literal);
            assert_eq!(Reply::from_json(&text).unwrap(), value, "{text}");
        }
        for (value, literal) in query_rows() {
            let text = rewrite(literal);
            assert_eq!(Query::from_json(&text).unwrap(), value, "{text}");
        }
    }
}

/// Decoding reads a frame once, wherever its `"type"` tag sits: a frame
/// whose tag comes after a 4 MiB member costs a skim of the object to find
/// the tag, not a re-scan per key.
#[test]
fn decode_is_linear_whatever_the_key_order() {
    let item = r#"{"k":[1,2.5,"text",null,true]},"#;
    let bulk = format!("[{}0]", item.repeat((4 << 20) / item.len() + 1));
    assert!(bulk.len() >= 4 << 20);
    let query = plain_query().to_json();
    let first = format!(r#"{{"v":1,"type":"query","id":7,"bulk":{bulk},"query":{query}}}"#);
    let last = format!(r#"{{"v":1,"id":7,"bulk":{bulk},"query":{query},"type":"query"}}"#);
    let best_of_three = |frame: &str| {
        (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let request = Request::from_json(frame).unwrap();
                let elapsed = t0.elapsed();
                assert_eq!(request.id(), 7);
                elapsed
            })
            .min()
            .unwrap()
    };
    let (first, last) = (best_of_three(&first), best_of_three(&last));
    assert!(
        last <= first * 8,
        "type first {first:?}, type last {last:?}"
    );
}
