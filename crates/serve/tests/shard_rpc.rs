//! The versioned shard-RPC surface, hardened the same way `json_hardening`
//! hardens the query codec, plus its end-to-end loopback semantics.
//!
//! * **Codec** — every shard-RPC request and reply frame round-trips
//!   through its JSON rendering exactly; truncated frames classify as
//!   typed `malformed` (never a panic); an unknown protocol major is a
//!   typed `unsupported_version` — the bytes were fine, the dialect was
//!   not — while an absent `v` stays major-1 back-compatible.
//! * **Shard role** — `serve_shard` answers its half of the
//!   `PostingSource` contract byte-identically to the local `IndexShard`,
//!   and every guard (epoch, deadline, wrong role, a frame retired in
//!   minor 4 or 5) is a typed error that leaves the connection usable.
//! * **Exactly once** — the client never resubmits: a counting handler
//!   proves a pipelined batch applies each query once, an `overloaded`
//!   admission rejection applies none, and a `deadline_exceeded` query is
//!   admitted once.
//! * **Degraded** — a handler answering `Handled::Degraded` surfaces as a
//!   typed [`QueryOutcome::Degraded`] carrying the exact `DegradedInfo`,
//!   counts in the server's `degraded` metric, and fails the strict
//!   single-query path as [`ClientError::Degraded`].

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::{
    Deadline, EngineBuilder, IndexShard, Query, TemporalConstraint, TimeInterval, VerifyMode,
};
use trajsearch_serve::{
    Client, ClientError, DegradedInfo, Handled, IndexShardSource, QueryHandler, QueryOutcome,
    Reply, Request, Server, ServerConfig, ServerErrorKind, ServerHandle, ShardInfo, ShardSource,
    PROTO_MAJOR, PROTO_MINOR, SUPPORTED_METRICS,
};
use wed::models::Lev;
use wed::Sym;

const ALPHABET: usize = 16;

/// Shuts the server down when dropped so a failing assertion inside a
/// `thread::scope` unwinds into a clean exit instead of a hang.
struct ShutdownOnDrop(ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Deterministic store (no RNG): enough symbol overlap that every list is
/// non-trivial, with increasing timestamps.
fn small_store(n: usize, len: usize) -> TrajectoryStore {
    let mut store = TrajectoryStore::new();
    for i in 0..n {
        let path: Vec<Sym> = (0..len)
            .map(|j| ((i * 3 + j * 5 + i * j) % ALPHABET) as u32)
            .collect();
        let t0 = (i * 11) as f64;
        let times: Vec<f64> = (0..len).map(|j| t0 + j as f64).collect();
        store.push(Trajectory::new(path, times));
    }
    store
}

/// Random store for the timing-sensitive tests (same idiom as `loopback`).
fn big_store(n: usize, len: usize, seed: u64) -> TrajectoryStore {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut store = TrajectoryStore::new();
    for i in 0..n {
        let path: Vec<Sym> = (0..len)
            .map(|_| rng.gen_range(0..ALPHABET as u32))
            .collect();
        let t0 = (i * 7) as f64;
        let times: Vec<f64> = (0..len).map(|j| t0 + j as f64).collect();
        store.push(Trajectory::new(path, times));
    }
    store
}

/// A query whose cost is a store-wide fallback scan but whose reply stays
/// tiny — the deterministic slow query (see `loopback`).
fn slow_query(deadline_ms: Option<u64>) -> Query {
    let pattern: Vec<Sym> = (0..8).map(|i| (i % ALPHABET) as u32).collect();
    let builder = Query::threshold(pattern, 8.5)
        .verify(VerifyMode::Sw)
        .temporal(TemporalConstraint::within(TimeInterval::new(0.0, 2.0)));
    match deadline_ms {
        Some(ms) => builder.deadline_ms(ms).build().unwrap(),
        None => builder.build().unwrap(),
    }
}

/// One of each shard RPC, for mutation-style properties.
fn sample_request(which: usize) -> Request {
    match which % 2 {
        0 => Request::ShardPostings {
            id: 8,
            epoch: 3,
            deadline_ms: None,
            trace_id: Some(9),
            syms: vec![2, 2, 9],
        },
        _ => Request::ShardInfo { id: 9 },
    }
}

// ---------------------------------------------------------------------------
// Codec: round trips and hostile-input classification
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn shard_request_frames_round_trip(
        id in 0u64..1_000_000_000,
        epoch in 0u64..1_000_000,
        deadline in 0u64..100_000,
        has_deadline in 0usize..2,
        syms in proptest::collection::vec(0u32..4096, 0..12),
        major in 0u32..9,
        minor in 0u32..9,
        has_trace in 0usize..2,
        trace in 1u64..1_000_000_000_000,
    ) {
        let deadline_ms = (has_deadline == 1).then_some(deadline);
        let trace_id = (has_trace == 1).then_some(trace);
        let frames = vec![
            Request::ShardPostings { id, epoch, deadline_ms, trace_id, syms: syms.clone() },
            Request::ShardInfo { id },
            Request::Hello { id, major, minor },
        ];
        for frame in frames {
            let text = frame.to_json();
            prop_assert!(!text.contains('\n'), "frames must stay single-line");
            let back = Request::from_json(&text).map_err(|(_, e)| e.to_string());
            prop_assert_eq!(back, Ok(frame));
        }
    }

    #[test]
    fn shard_reply_frames_round_trip(
        id in 0u64..1_000_000_000,
        pairs in proptest::collection::vec((0u32..100_000, 0u32..256), 0..12),
        start in 0u64..10_000,
        shards in proptest::collection::vec(0u32..64, 0..6),
        major in 0u32..9,
        minor in 0u32..9,
    ) {
        let mut missing = shards.clone();
        missing.sort_unstable();
        missing.dedup();
        // Both hello shapes: the legacy empty list (field omitted on the
        // wire) and an advertised capability list.
        let metric_lists: [Vec<String>; 2] = [
            Vec::new(),
            vec!["wed".to_string(), "dtw".to_string()],
        ];
        let frames = vec![
            Reply::Hello { id, major, minor, metrics: metric_lists[(minor % 2) as usize].clone() },
            Reply::ShardInfo {
                id,
                info: ShardInfo {
                    shard_id: major,
                    num_shards: major + 1,
                    epoch: start,
                    alphabet_size: 4096,
                    local_trajectories: start / 2,
                    num_trajectories: start,
                    total_postings: id,
                    size_bytes: id * 2,
                },
            },
            Reply::ShardPostings { id, lists: vec![pairs.clone(), Vec::new()] },
            Reply::Degraded {
                id,
                degraded: DegradedInfo {
                    missing_shards: missing,
                    reason: "shard unreachable: connection reset".into(),
                },
                response: None,
            },
        ];
        for frame in frames {
            let text = frame.to_json();
            prop_assert!(!text.contains('\n'), "frames must stay single-line");
            prop_assert_eq!(Reply::from_json(&text), Ok(frame));
        }
    }

    #[test]
    fn truncated_shard_frames_classify_as_malformed(
        which in 0usize..2,
        cut in 0usize..4096,
    ) {
        let full = sample_request(which).to_json();
        // The frame opens with '{', so every strict prefix is incomplete.
        let cut = cut % full.len();
        match Request::from_json(&full[..cut]) {
            Err((_, e)) => prop_assert_eq!(e.kind, ServerErrorKind::Malformed),
            Ok(r) => prop_assert!(false, "strict prefix of len {} parsed: {:?}", cut, r),
        }
    }

    #[test]
    fn byte_flipped_shard_frames_never_panic(
        which in 0usize..2,
        at in 0usize..4096,
        flip in 0usize..1024,
    ) {
        const SOUP: &[u8] = br#"{}[]",:.-+eE0123456789 truefalsenul\"abc"#;
        let mut bytes = sample_request(which).to_json().into_bytes();
        let at = at % bytes.len();
        bytes[at] = SOUP[flip % SOUP.len()];
        let text = String::from_utf8_lossy(&bytes).into_owned();
        // Typed results only; a panic fails the property by construction.
        let _ = Request::from_json(&text);
        let _ = Reply::from_json(&text);
    }
}

#[test]
fn unknown_major_is_unsupported_version_not_malformed() {
    for text in [
        r#"{"v":2,"type":"shard_postings","id":9,"epoch":1,"syms":[1]}"#,
        r#"{"v":99,"type":"hello","id":9,"major":99,"minor":0}"#,
        r#"{"v":2,"type":"no_such_rpc","id":9}"#,
    ] {
        match Request::from_json(text) {
            Err((id, e)) => {
                assert_eq!(id, Some(9), "id extracted so the error can be addressed");
                assert_eq!(e.kind, ServerErrorKind::UnsupportedVersion, "for {text}");
            }
            Ok(r) => panic!("future-major frame decoded as {r:?}"),
        }
    }
    // An absent "v" is the major-1 back-compat path, not an error.
    assert_eq!(
        Request::from_json(r#"{"type":"shard_info","id":3}"#),
        Ok(Request::ShardInfo { id: 3 })
    );
    // A non-numeric "v" is bad bytes, not a future dialect.
    match Request::from_json(r#"{"v":"two","type":"shard_info","id":3}"#) {
        Err((_, e)) => assert_eq!(e.kind, ServerErrorKind::Malformed),
        Ok(r) => panic!("non-numeric version decoded as {r:?}"),
    }
}

// ---------------------------------------------------------------------------
// Shard role over a real socket
// ---------------------------------------------------------------------------

/// One split-phase RPC round trip on an established client.
fn rpc(client: &mut Client, make: impl FnOnce(u64) -> Request) -> Reply {
    let id = client.allocate_id();
    client.send_request(&make(id)).expect("send");
    client.flush().expect("flush");
    let reply = client.recv_reply().expect("recv");
    assert_eq!(reply.id(), Some(id), "replies echo the request id");
    reply
}

#[test]
fn serve_shard_answers_the_posting_source_contract_over_the_wire() {
    const EPOCH: u64 = 42;
    let store = small_store(24, 12);
    let shard = IndexShard::build(&store, ALPHABET, 1, 3);
    let source = IndexShardSource::new(&shard, EPOCH);

    let server = Server::bind(ServerConfig::default()).expect("bind shard server");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve_shard(&source));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        // Version negotiation, then self-description — the same opening
        // handshake RemoteShards performs.
        assert_eq!(client.hello().expect("hello"), (PROTO_MAJOR, PROTO_MINOR));
        assert_eq!(client.shard_info().expect("shard_info"), source.info());

        // The data RPC answers byte-identically to the local shard,
        // including an out-of-alphabet symbol (empty, not an error).
        let syms: Vec<Sym> = (0..ALPHABET as u32).chain([999]).collect();
        match rpc(&mut client, |id| Request::ShardPostings {
            id,
            epoch: EPOCH,
            deadline_ms: Some(30_000),
            trace_id: None,
            syms: syms.clone(),
        }) {
            Reply::ShardPostings { lists, .. } => assert_eq!(lists, source.postings(&syms)),
            other => panic!("expected postings, got {other:?}"),
        }
        for sym in [1u32, 5, 9] {
            match rpc(&mut client, |id| Request::ShardPostings {
                id,
                epoch: EPOCH,
                deadline_ms: None,
                trace_id: None,
                syms: vec![sym],
            }) {
                Reply::ShardPostings { lists, .. } => {
                    assert_eq!(lists, source.postings(&[sym]), "sym {sym}")
                }
                other => panic!("expected postings, got {other:?}"),
            }
        }
        // Guards, in order: stale epoch, expired deadline, wrong role.
        // Each is a typed error — and the connection survives all three.
        match rpc(&mut client, |id| Request::ShardPostings {
            id,
            epoch: EPOCH + 1,
            deadline_ms: None,
            trace_id: None,
            syms: vec![1],
        }) {
            Reply::Error { error, .. } => assert_eq!(error.kind, ServerErrorKind::EpochMismatch),
            other => panic!("expected epoch mismatch, got {other:?}"),
        }
        // A zero budget has always already expired — the deterministic
        // deadline hook.
        match rpc(&mut client, |id| Request::ShardPostings {
            id,
            epoch: EPOCH,
            deadline_ms: Some(0),
            trace_id: None,
            syms: vec![1],
        }) {
            Reply::Error { error, .. } => {
                assert_eq!(error.kind, ServerErrorKind::DeadlineExceeded)
            }
            other => panic!("expected deadline exceeded, got {other:?}"),
        }
        let query = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        match rpc(&mut client, |id| Request::Query {
            id,
            query: query.clone(),
            trace_id: None,
        }) {
            Reply::Error { error, .. } => {
                assert_eq!(error.kind, ServerErrorKind::InvalidQuery);
                assert!(error.message.contains("coordinator"), "got {error}");
            }
            other => panic!("expected a wrong-role error, got {other:?}"),
        }
        match rpc(&mut client, |id| Request::ShardPostings {
            id,
            epoch: EPOCH,
            deadline_ms: None,
            trace_id: None,
            syms: vec![1],
        }) {
            Reply::ShardPostings { lists, .. } => {
                assert_eq!(
                    lists,
                    source.postings(&[1]),
                    "connection survives typed errors"
                )
            }
            other => panic!("expected postings after errors, got {other:?}"),
        }

        // The role-independent surface works on shard servers too, and the
        // dispositions landed in the right counters.
        let stats = client.stats().expect("stats on a shard server");
        assert!(stats.completed >= 4, "data RPCs count as completed");
        assert_eq!(stats.timed_out, 1);
        assert!(
            stats.invalid >= 2,
            "epoch + wrong-role, got {}",
            stats.invalid
        );

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

/// Minor 4 retired `shard_freqs` and `shard_spans`, minor 5
/// `shard_departing_by`. A coordinator from before them still sends them:
/// each gets a typed `malformed` reply that echoes its id, and the
/// connection keeps serving the RPCs that remain.
#[test]
fn retired_shard_rpcs_are_malformed_and_the_connection_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    const EPOCH: u64 = 3;
    let store = small_store(12, 6);
    let shard = IndexShard::build(&store, ALPHABET, 0, 1);
    let source = IndexShardSource::new(&shard, EPOCH);

    let server = Server::bind(ServerConfig::default()).expect("bind shard server");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve_shard(&source));
        let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
        let mut replies = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut roundtrip = |frame: &str| {
            stream
                .write_all(format!("{frame}\n").as_bytes())
                .expect("send");
            let mut line = String::new();
            replies.read_line(&mut line).expect("recv");
            Reply::from_json(line.trim_end()).expect("a reply frame")
        };
        for (id, frame) in [
            (
                21,
                r#"{"v":1,"type":"shard_freqs","id":21,"epoch":3,"deadline_ms":250,"syms":[4,9]}"#,
            ),
            (
                22,
                r#"{"v":1,"type":"shard_spans","id":22,"epoch":3,"start":0,"count":65536}"#,
            ),
            (
                24,
                r#"{"v":1,"type":"shard_departing_by","id":24,"epoch":3,"deadline_ms":250,"sym":4,"t_max":180.5}"#,
            ),
        ] {
            match roundtrip(frame) {
                Reply::Error { id: got, error } => {
                    assert_eq!(got, Some(id), "{frame}");
                    assert_eq!(error.kind, ServerErrorKind::Malformed, "{frame}");
                }
                other => panic!("{frame}: expected malformed, got {other:?}"),
            }
        }
        let postings = Request::ShardPostings {
            id: 23,
            epoch: EPOCH,
            deadline_ms: None,
            trace_id: None,
            syms: vec![1],
        };
        match roundtrip(&postings.to_json()) {
            Reply::ShardPostings { id, lists } => {
                assert_eq!(id, 23);
                assert_eq!(lists, source.postings(&[1]));
            }
            other => panic!("expected postings, got {other:?}"),
        }

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

/// The capability half of the handshake (protocol minor 2): a server
/// advertises its metric list on the hello reply. The decode of a
/// pre-minor-2 hello (no list) is pinned by `wire_golden`'s minor-1 row.
#[test]
fn hello_advertises_metric_capabilities() {
    let store = small_store(8, 6);
    let shard = IndexShard::build(&store, ALPHABET, 0, 1);
    let source = IndexShardSource::new(&shard, 1);

    let server = Server::bind(ServerConfig::default()).expect("bind shard server");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve_shard(&source));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        let hello = |id| Request::Hello {
            id,
            major: PROTO_MAJOR,
            minor: PROTO_MINOR,
        };
        match rpc(&mut client, hello) {
            Reply::Hello {
                major,
                minor,
                metrics,
                ..
            } => {
                assert_eq!((major, minor), (PROTO_MAJOR, PROTO_MINOR));
                assert_eq!(metrics, SUPPORTED_METRICS.map(String::from));
            }
            other => panic!("expected a hello reply, got {other:?}"),
        }
        assert_eq!(client.hello().expect("hello"), (PROTO_MAJOR, PROTO_MINOR));

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

#[test]
fn query_servers_refuse_shard_rpcs_with_a_typed_error() {
    let store = small_store(24, 12);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        match rpc(&mut client, |id| Request::ShardPostings {
            id,
            epoch: 0,
            deadline_ms: None,
            trace_id: None,
            syms: vec![1],
        }) {
            Reply::Error { error, .. } => {
                assert_eq!(error.kind, ServerErrorKind::InvalidQuery);
                assert!(error.message.contains("shard"), "got {error}");
            }
            other => panic!("expected a wrong-role error, got {other:?}"),
        }
        // The refusal is per-frame: ordinary queries still answer.
        let q = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        client.query(&q).expect("queries unaffected");

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

// ---------------------------------------------------------------------------
// Exactly once: the client never resubmits
// ---------------------------------------------------------------------------

/// Counts handler invocations — the "applied exactly once" probe.
struct Counting<'h, H: QueryHandler> {
    inner: &'h H,
    calls: AtomicU64,
}

impl<'h, H: QueryHandler> Counting<'h, H> {
    fn new(inner: &'h H) -> Counting<'h, H> {
        Counting {
            inner,
            calls: AtomicU64::new(0),
        }
    }
}

impl<H: QueryHandler> QueryHandler for Counting<'_, H> {
    fn handle(&self, query: &Query, deadline: Deadline) -> Handled {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.handle(query, deadline)
    }
}

#[test]
fn overload_is_rejected_without_applying_work() {
    let store = small_store(24, 12);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let counting = Counting::new(&engine);
    // Capacity 0: every query meets a full queue, and the handler can never
    // run.
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&counting));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        let q = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        let outcome = client.query_batch(&[q]).expect("transport ok").remove(0);
        assert!(
            matches!(outcome.rejection(), Some(e) if e.kind == ServerErrorKind::Overloaded),
            "a full queue is a typed overload: {outcome:?}"
        );
        let stats = client.stats().expect("stats");
        assert_eq!(stats.rejected_overload, 1, "one attempt, not resubmitted");
        assert_eq!(stats.admitted, 0);
        assert_eq!(counting.calls.load(Ordering::Relaxed), 0, "no work applied");

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

#[test]
fn successful_queries_are_applied_exactly_once() {
    let store = small_store(24, 12);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let counting = Counting::new(&engine);
    let server = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&counting));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        // A non-idempotent-looking mix (different patterns, thresholds,
        // top-k): the pipelined batch must not re-apply any of it.
        let workload: Vec<Query> = (0..9)
            .map(|i| {
                let q = vec![(i % ALPHABET) as u32, ((i + 1) % ALPHABET) as u32];
                if i % 3 == 0 {
                    Query::top_k(q, 2, 0.5, 4.0).build().unwrap()
                } else {
                    Query::threshold(q, 1.0 + (i % 2) as f64).build().unwrap()
                }
            })
            .collect();
        let outcomes = client.query_batch(&workload).expect("transport ok");
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, QueryOutcome::Answered(_))));
        assert_eq!(
            counting.calls.load(Ordering::Relaxed),
            workload.len() as u64,
            "each query applied exactly once"
        );
        let stats = client.stats().expect("stats");
        assert_eq!(stats.admitted, workload.len() as u64);

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

#[test]
fn deadline_exceeded_is_never_retried() {
    // Big enough that the slow query's store-wide scan outlives a 1ms
    // budget (checked at cooperative checkpoints).
    let store = big_store(1200, 64, 0xDEAD);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let counting = Counting::new(&engine);
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&counting));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        let outcome = client
            .query_batch(&[slow_query(Some(1))])
            .expect("transport ok")
            .remove(0);
        assert!(
            matches!(outcome.rejection(), Some(e) if e.kind == ServerErrorKind::DeadlineExceeded),
            "got {outcome:?}"
        );
        let stats = client.stats().expect("stats");
        assert_eq!(stats.timed_out, 1, "one attempt");
        assert_eq!(stats.admitted, 1, "the timeout was not resubmitted");

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

// ---------------------------------------------------------------------------
// Degraded replies end to end
// ---------------------------------------------------------------------------

/// Wraps a handler so every successful answer comes back degraded — the
/// single-process stand-in for a coordinator with dead shards.
struct DegradeAll<'h, H: QueryHandler>(&'h H);

impl<H: QueryHandler> QueryHandler for DegradeAll<'_, H> {
    fn handle(&self, query: &Query, deadline: Deadline) -> Handled {
        match self.0.handle(query, deadline) {
            Handled::Response(response) => Handled::Degraded {
                degraded: DegradedInfo {
                    missing_shards: vec![2, 5],
                    reason: "shard 2 unreachable: connection reset".into(),
                },
                response: Some(response),
            },
            other => other,
        }
    }
}

#[test]
fn degraded_answers_surface_typed_with_the_partial_response() {
    let store = small_store(24, 12);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let want = DegradedInfo {
        missing_shards: vec![2, 5],
        reason: "shard 2 unreachable: connection reset".into(),
    };
    let handler = DegradeAll(&engine);
    let server = Server::bind(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&handler));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        let q = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        let in_process = engine.handle(&q, Deadline::NONE);
        let Handled::Response(want_response) = in_process else {
            panic!("reference query must answer in-process");
        };

        let outcome = client
            .query_batch(std::slice::from_ref(&q))
            .expect("transport ok")
            .remove(0);
        match &outcome {
            QueryOutcome::Degraded { degraded, response } => {
                assert_eq!(degraded, &want, "DegradedInfo round-trips exactly");
                let got = response.as_ref().expect("partial answer rides along");
                assert_eq!(got.matches, want_response.matches);
            }
            other => panic!("expected a degraded outcome, got {other:?}"),
        }
        assert!(
            outcome.response().is_none(),
            "degraded is not a clean answer"
        );

        // The strict single-query path refuses to paper over it.
        match client.query(&q).expect_err("strict path must fail") {
            ClientError::Degraded(d) => assert_eq!(d, want),
            other => panic!("expected ClientError::Degraded, got {other}"),
        }

        let stats = client.stats().expect("stats");
        assert_eq!(stats.degraded, 2);
        assert_eq!(stats.completed, 0, "degraded answers count separately");
        assert_eq!(stats.admitted, 2, "degraded answers are never resubmitted");

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}
