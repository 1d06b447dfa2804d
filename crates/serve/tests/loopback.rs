//! Loopback integration suite: the server's externally observable
//! semantics, end to end over real sockets.
//!
//! * **Equivalence** — every `Response` received over the socket is
//!   byte-identical (matches and stats counters) to in-process
//!   `SearchEngine::run_batch` on the same workload, across the built
//!   index layouts and a compacted index.
//! * **Backpressure** — a full admission queue answers a typed
//!   `overloaded` error; nothing buffers without bound.
//! * **Deadlines** — an expired `deadline_ms` answers a typed
//!   `deadline_exceeded` error (queued or mid-execution), never a late
//!   answer.
//! * **Drain** — shutdown with in-flight queries answers every admitted
//!   query before `serve` returns.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;
use traj::{Trajectory, TrajectoryStore};
use trajsearch_core::{
    BatchOptions, EngineBuilder, IndexLayout, InvertedIndex, Metric, PostingSource, Query,
    Response, SearchEngine, TemporalConstraint, TimeInterval, VerifyMode,
};
use trajsearch_serve::{
    Client, ClientError, QueryOutcome, Server, ServerConfig, ServerErrorKind, ServerHandle,
};
use wed::models::Lev;
use wed::Sym;

const ALPHABET: usize = 64;

/// Shuts the server down when dropped, so a failing assertion inside a
/// `thread::scope` unwinds into a clean server exit instead of a hang
/// (the scope joins the serving thread before propagating the panic).
struct ShutdownOnDrop(ServerHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Synthetic store: `n` random walks of length `len` with increasing
/// timestamps, seeded for reproducibility.
fn store(n: usize, len: usize, seed: u64) -> TrajectoryStore {
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

/// A pattern copied out of the store (so matches exist), possibly perturbed.
fn pattern_from(store: &TrajectoryStore, rng: &mut ChaCha8Rng, len: usize) -> Vec<Sym> {
    let id = rng.gen_range(0..store.len() as u32);
    let path = store.get(id).path();
    let start = rng.gen_range(0..path.len().saturating_sub(len).max(1));
    let mut q: Vec<Sym> = path[start..(start + len).min(path.len())].to_vec();
    if rng.gen_range(0..2) == 1 && !q.is_empty() {
        let at = rng.gen_range(0..q.len());
        q[at] = rng.gen_range(0..ALPHABET as u32);
    }
    q
}

/// A mixed workload: thresholds (all verify modes), top-k, temporal and
/// deadline-carrying queries.
fn mixed_workload(store: &TrajectoryStore, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let q = pattern_from(store, &mut rng, 4 + i % 4);
            let tau = 1.0 + (i % 3) as f64 * 0.75;
            match i % 5 {
                0 => Query::threshold(q, tau).build().unwrap(),
                1 => Query::threshold(q, tau)
                    .verify(VerifyMode::Sw)
                    .build()
                    .unwrap(),
                2 => Query::top_k(q, 3, 0.5, 6.0).build().unwrap(),
                3 => Query::threshold(q, tau)
                    .verify(VerifyMode::Local)
                    .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 200.0)))
                    .temporal_filter(true)
                    .build()
                    .unwrap(),
                _ => Query::threshold(q, tau)
                    .deadline_ms(3_600_000)
                    .build()
                    .unwrap(),
            }
        })
        .collect()
}

/// "Byte-identical" in the sense the wire can preserve: matches exactly
/// equal (ids, spans, bit-for-bit distances) and every deterministic stats
/// counter equal. Timings are execution-dependent and excluded.
fn assert_equivalent(got: &Response, want: &Response, ctx: &str) {
    assert_eq!(got.matches, want.matches, "{ctx}: matches diverged");
    let (g, w) = (&got.stats, &want.stats);
    assert_eq!(g.candidates, w.candidates, "{ctx}: candidates");
    assert_eq!(
        g.candidates_after_temporal, w.candidates_after_temporal,
        "{ctx}: candidates_after_temporal"
    );
    assert_eq!(
        g.candidates_deduped, w.candidates_deduped,
        "{ctx}: candidates_deduped"
    );
    assert_eq!(g.tsubseq_len, w.tsubseq_len, "{ctx}: tsubseq_len");
    assert_eq!(g.fallback, w.fallback, "{ctx}: fallback");
    assert_eq!(g.sw_columns, w.sw_columns, "{ctx}: sw_columns");
    assert_eq!(g.verify_cost, w.verify_cost, "{ctx}: verify_cost");
    assert_eq!(g.results, w.results, "{ctx}: results");
}

/// A query whose *cost* is a full exact scan of the store (Lev is
/// infeasible once `tau > |Q|`, forcing the fallback) but whose *response*
/// stays tiny: the temporal post-check discards almost every match after
/// the scan has already paid for them. The deterministic "slow query" for
/// deadline and drain tests — its runtime scales with the store, its reply
/// does not.
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

/// Serves `workload` from `engine` and checks every reply against
/// in-process `run_batch`, pipelined and single-query.
fn served_equals_run_batch<I: PostingSource + Sync>(
    engine: &SearchEngine<'_, Lev, I>,
    workload: &[Query],
    layout_name: &str,
) {
    let want = engine
        .run_batch(workload, BatchOptions::with_threads(2))
        .expect("workload admissible");

    let server = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(engine));

        let mut client = Client::connect(handle.local_addr()).expect("connect");
        // Pipelined batch: replies may arrive out of order, the client
        // restores submission order.
        let outcomes = client.query_batch(workload).expect("transport ok");
        assert_eq!(outcomes.len(), workload.len());
        for (i, (got, want)) in outcomes.iter().zip(&want.responses).enumerate() {
            let got = got.response().expect("no rejections in this workload");
            assert_equivalent(got, want, &format!("{layout_name} query {i}"));
        }
        // Single-query path agrees too.
        let got = client.query(&workload[0]).expect("single query");
        assert_equivalent(&got, &want.responses[0], &format!("{layout_name} single"));

        let stats = client.stats().expect("stats over the wire");
        assert_eq!(stats.completed, workload.len() as u64 + 1);
        assert_eq!(stats.rejected_overload, 0);
        assert!(stats.wall.count >= stats.completed);

        drop(guard); // orderly shutdown
        let final_metrics = serving.join().expect("serve thread").expect("serve ok");
        assert_eq!(final_metrics.completed, workload.len() as u64 + 1);
        assert_eq!(final_metrics.queue_depth, 0, "drained");
    });
}

#[test]
fn loopback_responses_match_in_process_run_batch_across_layouts() {
    let store = store(120, 24, 0xA11CE);
    let workload = mixed_workload(&store, 25, 0xB0B);
    for (layout, layout_name) in [
        (IndexLayout::Single, "single"),
        (IndexLayout::Sharded(3), "sharded(3)"),
    ] {
        let engine = EngineBuilder::new(Lev, &store, ALPHABET)
            .layout(layout)
            .build();
        served_equals_run_batch(&engine, &workload, layout_name);
    }
    let compact = InvertedIndex::build(&store, ALPHABET).to_compact();
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build_with(compact);
    served_equals_run_batch(&engine, &workload, "compact");
}

/// Mixed-metric batches over the serve wire: the metric rides each query's
/// JSON frame (absent for WED), and every served response — `verify_cost`
/// included — is byte-identical to in-process `run_batch`.
#[test]
fn mixed_metric_batch_over_the_wire_matches_in_process() {
    let store = store(80, 20, 0x5EED);
    let mut rng = ChaCha8Rng::seed_from_u64(0xD1CE);
    let workload: Vec<Query> = (0..12)
        .map(|i| {
            let q = pattern_from(&store, &mut rng, 4 + i % 3);
            let metric = match i % 4 {
                0 => Metric::Wed,
                1 => Metric::Dtw,
                2 => Metric::Lcss { eps: 0.0 },
                _ => Metric::Frechet,
            };
            Query::threshold(q, 1.0 + (i % 3) as f64)
                .metric(metric)
                .build()
                .unwrap()
        })
        .collect();
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let want = engine
        .run_batch(&workload, BatchOptions::with_threads(2))
        .expect("workload admissible");

    let server = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine));

        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let outcomes = client.query_batch(&workload).expect("transport ok");
        assert_eq!(outcomes.len(), workload.len());
        for (i, (got, want)) in outcomes.iter().zip(&want.responses).enumerate() {
            let got = got.response().expect("metric queries answered cleanly");
            assert_equivalent(got, want, &format!("mixed-metric query {i}"));
        }

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

#[test]
fn full_admission_queue_rejects_with_typed_overload() {
    let store = store(40, 16, 7);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    // Capacity 0: every query meets a full queue — the deterministic
    // worst-case overload.
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        let q = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        let err = client.query(&q).expect_err("must be rejected");
        match err {
            ClientError::Server(e) => {
                assert_eq!(e.kind, ServerErrorKind::Overloaded);
                assert!(e.message.contains("capacity 0"), "got {e}");
            }
            other => panic!("expected a typed overload, got {other}"),
        }
        // Batch submission: every outcome is an independent typed
        // rejection; the transport stays healthy.
        let outcomes = client
            .query_batch(&vec![q.clone(); 8])
            .expect("transport ok");
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.rejection(), Some(e) if e.kind == ServerErrorKind::Overloaded)));

        let stats = client.stats().expect("stats");
        assert_eq!(stats.rejected_overload, 9);
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.queue_capacity, 0);

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

#[test]
fn expired_deadline_returns_typed_timeout_not_a_slow_answer() {
    // Big enough that the slow query's store-wide scan takes well over a
    // millisecond (the scan checks its deadline between trajectories).
    let store = store(1200, 64, 0xDEAD);
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

        // 1ms against a store-wide scan: expires while queued or at a
        // cooperative checkpoint — either way the reply is typed.
        let err = client
            .query(&slow_query(Some(1)))
            .expect_err("must time out");
        match err {
            ClientError::Server(e) => assert_eq!(e.kind, ServerErrorKind::DeadlineExceeded),
            other => panic!("expected a typed timeout, got {other}"),
        }

        // The same query with a generous budget completes fine.
        let ok = client
            .query(&slow_query(Some(120_000)))
            .expect("generous deadline");
        assert!(ok.stats.fallback, "slow query exercises the fallback scan");

        // Pipelined mix: the timeout of one query does not disturb the
        // others' responses.
        let fast = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        let outcomes = client
            .query_batch(&[fast.clone(), slow_query(Some(1)), fast])
            .expect("transport ok");
        assert!(matches!(outcomes[0], QueryOutcome::Answered(_)));
        assert!(matches!(
            outcomes[1].rejection(),
            Some(e) if e.kind == ServerErrorKind::DeadlineExceeded
        ));
        assert!(matches!(outcomes[2], QueryOutcome::Answered(_)));

        let stats = client.stats().expect("stats");
        assert!(stats.timed_out >= 2, "got {}", stats.timed_out);
        assert!(stats.completed >= 3);

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let store = store(1000, 64, 42);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let server = Server::bind(ServerConfig {
        workers: 1,
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.handle();
    let addr = handle.local_addr();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine));
        let mut client = Client::connect(addr).expect("connect");

        // Pipeline several store-wide scans, then shut down while most of
        // them are still queued behind the single worker.
        const N: usize = 6;
        let workload = vec![slow_query(None); N];
        let shutdown_handle = handle.clone();
        let drainer = scope.spawn(move || {
            // Wait until every query is admitted (admission happens in the
            // reader, well before the worker drains them), then pull the
            // plug. Returns whether shutdown really caught work in flight;
            // asserted after the joins so a failure cannot hang the scope.
            for _ in 0..2000 {
                if shutdown_handle.metrics().admitted >= N as u64 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let caught_in_flight = shutdown_handle.metrics().completed < N as u64;
            shutdown_handle.shutdown();
            caught_in_flight
        });
        // Every admitted query still gets its real answer.
        let outcomes = client.query_batch(&workload).expect("transport ok");
        assert_eq!(outcomes.len(), N);
        for (i, o) in outcomes.iter().enumerate() {
            let r = o
                .response()
                .unwrap_or_else(|| panic!("query {i} not answered"));
            assert!(r.stats.fallback);
        }
        let caught_in_flight = drainer.join().expect("drainer");

        drop(guard);
        let final_metrics = serving.join().expect("serve thread").expect("serve ok");
        assert!(
            caught_in_flight,
            "shutdown must have caught queries in flight"
        );
        assert_eq!(final_metrics.completed, N as u64, "all in-flight drained");
        assert_eq!(final_metrics.queue_depth, 0);

        // The drained server is really gone: new connections are refused.
        assert!(Client::connect(addr).is_err(), "listener must be closed");
    });
}

#[test]
fn queries_after_shutdown_are_rejected_as_shutting_down() {
    let store = store(400, 48, 43);
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

        // Complete one query so the connection is known-good, then close
        // admission and try another on the same connection.
        let fast = Query::threshold(vec![1, 2], 1.0).build().unwrap();
        client.query(&fast).expect("pre-shutdown query");
        handle.shutdown();
        let err = client.query(&fast).expect_err("admission is closed");
        match err {
            // The queue rejects atomically: never admitted, typed refusal.
            ClientError::Server(e) => assert_eq!(e.kind, ServerErrorKind::ShuttingDown),
            // Or the reader already exited on the shutdown tick and the
            // connection dropped — an acceptable transport-level refusal.
            ClientError::Io(_) | ClientError::Protocol(_) => {}
            ClientError::Degraded(d) => panic!("unexpected degraded reply: {d}"),
        }
        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

#[test]
fn malformed_and_invalid_frames_get_typed_errors() {
    use std::io::{BufRead, BufReader, Write};
    let store = store(30, 16, 9);
    // No temporal postings in the index: a temporal-postings query is a
    // typed engine-admission failure.
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine));

        let mut raw = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut read_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            line
        };

        // Unparseable frame → malformed, unattributed.
        raw.write_all(b"this is not json\n").expect("write");
        let line = read_line();
        assert!(
            line.contains("\"malformed\"") && line.contains("\"id\":null"),
            "{line}"
        );

        // Parseable envelope, bad query → invalid_query, attributed.
        raw.write_all(b"{\"type\":\"query\",\"id\":5,\"query\":{\"pattern\":[]}}\n")
            .expect("write");
        let line = read_line();
        assert!(
            line.contains("\"invalid_query\"") && line.contains("\"id\":5"),
            "{line}"
        );

        // Valid query shape, engine-admission failure → invalid_query.
        let q = Query::threshold(vec![1, 2], 1.0)
            .temporal(TemporalConstraint::overlaps(TimeInterval::new(0.0, 5.0)))
            .temporal_postings(true)
            .build()
            .unwrap();
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        let err = client
            .query(&q)
            .expect_err("index has no temporal postings");
        match err {
            ClientError::Server(e) => {
                assert_eq!(e.kind, ServerErrorKind::InvalidQuery);
                assert!(e.message.contains("temporal postings"), "{e}");
            }
            other => panic!("expected invalid_query, got {other}"),
        }

        let stats = client.stats().expect("stats");
        assert!(stats.malformed >= 1);
        assert!(stats.invalid >= 2);

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

/// A pattern symbol past the index alphabet is refused at admission with a
/// typed `invalid_query`; it must not reach the postings lookup, and the
/// server keeps answering afterwards.
#[test]
fn symbol_outside_the_alphabet_is_invalid_and_the_server_lives_on() {
    let store = store(30, 16, 11);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let hostile =
        Query::from_json(r#"{"pattern":[500,1],"objective":{"type":"threshold","tau":1.0}}"#)
            .unwrap();
    let valid = Query::threshold(store.get(0).path()[..3].to_vec(), 1.0)
        .build()
        .unwrap();
    let want = engine.run(&valid).expect("valid query");
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
        // A worker that dies on the frame never replies; fail, don't hang.
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        match client
            .query(&hostile)
            .expect_err("symbol 500 is not indexed")
        {
            ClientError::Server(e) => {
                assert_eq!(e.kind, ServerErrorKind::InvalidQuery);
                assert!(e.message.contains("symbol 500"), "{e}");
            }
            other => panic!("expected invalid_query, got {other}"),
        }
        let got = client.query(&valid).expect("the same server still answers");
        assert_equivalent(&got, &want, "after the hostile frame");

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}

/// A one-shot fake server for driving [`Client`] with bytes no real server
/// sends: accepts one connection, reads one request line, writes `reply`
/// verbatim and closes.
fn answer_once(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut request = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut request)
            .expect("read request");
        // The client may hang up before the last byte of a refused frame.
        let _ = stream.write_all(&reply);
    });
    (addr, thread)
}

/// The frame limit is one number at both ends of a connection: content of
/// exactly `MAX_FRAME_BYTES` passes the server's reader and the client's,
/// one byte more is refused by both.
#[test]
fn one_frame_limit_at_both_ends() {
    use std::io::{BufRead, BufReader, Write};
    use trajsearch_serve::MAX_FRAME_BYTES;

    // The server end.
    let store = store(30, 16, 9);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine));
        let mut raw = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        let mut read_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            line
        };

        // Invalid UTF-8 is junk like any other: a typed reply, and the
        // connection stays usable.
        raw.write_all(b"\xff\xfe{\"type\":\"stats\"\n")
            .expect("write");
        let line = read_line();
        assert!(
            line.contains("\"malformed\"") && line.contains("\"id\":null"),
            "{line}"
        );
        // So is a frame that would decode but for one bad byte inside a
        // string its shape never reads: an unknown key's value.
        raw.write_all(b"{\"v\":1,\"type\":\"stats\",\"id\":1,\"note\":\"\xff\"}\n")
            .expect("write");
        let line = read_line();
        assert!(
            line.contains("\"malformed\"") && line.contains("\"id\":null"),
            "{line}"
        );

        // Exactly the limit: the framer passes it on, the parser refuses it.
        let mut frame = vec![b'x'; MAX_FRAME_BYTES];
        frame.push(b'\n');
        raw.write_all(&frame).expect("write");
        let line = read_line();
        assert!(
            line.contains("\"malformed\"") && line.contains("unparseable"),
            "{line}"
        );
        raw.write_all(b"{\"type\":\"stats\",\"id\":9}\n")
            .expect("write");
        let line = read_line();
        assert!(
            line.contains("\"type\":\"stats\"") && line.contains("\"id\":9"),
            "{line}"
        );

        // One byte more: the framer refuses it — still with a typed reply —
        // and closes the connection.
        raw.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
            .expect("write");
        let line = read_line();
        assert!(
            line.contains("\"malformed\"") && line.contains("exceeds MAX_FRAME_BYTES"),
            "{line}"
        );
        assert_eq!(read_line(), "", "the connection is closed");

        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });

    // The client end: a `metrics_text` reply padded to the byte.
    let reply_of = |content_len: usize| {
        let (head, tail) = (r#"{"v":1,"type":"metrics_text","id":1,"text":""#, "\"}\n");
        let pad = content_len + 1 - head.len() - tail.len();
        let mut reply = head.as_bytes().to_vec();
        reply.resize(head.len() + pad, b'x');
        reply.extend_from_slice(tail.as_bytes());
        (reply, pad)
    };
    let (reply, pad) = reply_of(MAX_FRAME_BYTES);
    let (addr, fake) = answer_once(reply);
    let text = Client::connect(addr)
        .expect("connect")
        .metrics_text()
        .expect("a frame of exactly the limit is read");
    assert_eq!(text.len(), pad);
    fake.join().expect("fake server");

    let (reply, _) = reply_of(MAX_FRAME_BYTES + 1);
    let (addr, fake) = answer_once(reply);
    let err = Client::connect(addr)
        .expect("connect")
        .metrics_text()
        .expect_err("one byte over the limit");
    match err {
        ClientError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        other => panic!("expected the framer's refusal, got {other}"),
    }
    fake.join().expect("fake server");
}

/// A typed error frame is `ClientError::Server` on every single-reply
/// request — `stats` used to report it as a protocol failure.
#[test]
fn a_typed_error_reply_to_stats_is_a_server_error() {
    let reply = br#"{"v":1,"type":"error","id":1,"error":{"kind":"overloaded","message":"busy"}}"#;
    let (addr, fake) = answer_once([&reply[..], b"\n"].concat());
    let err = Client::connect(addr)
        .expect("connect")
        .stats()
        .expect_err("the server refused");
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.kind, ServerErrorKind::Overloaded);
            assert_eq!(e.message, "busy");
        }
        other => panic!("expected a typed server error, got {other}"),
    }
    fake.join().expect("fake server");
}

/// Framing cost is linear in the frame: a reader thread answers a junk
/// frame just under the limit in about 8× the time of a 1 MiB one, not the
/// 56× of a splitter that rescans its buffer after every read. Run in
/// release for a meaningful ratio (CI does); the bound leaves 3× headroom.
#[test]
fn max_size_frame_costs_time_linear_in_its_size() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;
    use trajsearch_serve::MAX_FRAME_BYTES;

    let store = store(30, 16, 9);
    let engine = EngineBuilder::new(Lev, &store, ALPHABET).build();
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let handle = server.handle();
    std::thread::scope(|scope| {
        let guard = ShutdownOnDrop(handle.clone());
        let serving = scope.spawn(|| server.serve(&engine));
        let mut raw = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(raw.try_clone().expect("clone"));
        // Best of three: first byte written → typed reply read.
        let mut reply_time = |content_len: usize| {
            let mut frame = vec![b'x'; content_len];
            frame.push(b'\n');
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    raw.write_all(&frame).expect("write");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read");
                    assert!(line.contains("\"malformed\""), "{line}");
                    t0.elapsed()
                })
                .min()
                .expect("three runs")
        };
        let small = reply_time(1 << 20);
        let large = reply_time(MAX_FRAME_BYTES - 16);
        assert!(
            large <= small * 24,
            "1 MiB frame answered in {small:?}, 8 MiB frame in {large:?}"
        );
        drop(guard);
        serving.join().expect("serve thread").expect("serve ok");
    });
}
