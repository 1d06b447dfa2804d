//! `serve_loopback` — two client connections, each a closed loop of
//! `Client::query`, against `Server::serve(&engine)` with two workers on
//! 127.0.0.1. The queries are light (|Q| 10–20, τ-ratio 0.1), so frame
//! decode, the admission queue, reply encode and socket writes are a large
//! share of what a caller waits for — the one workload where they are.

use super::{light_queries, oracle_sample, report, Report};
use crate::data::Dataset;
use crate::harness::{self, percentile, Cfg, Lane};
use crate::ledger;
use crate::metrics::Values;
use crate::oracle::{self, CELL_BUDGET};
use crate::spans::Recorder;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;
use trajsearch_core::{EngineBuilder, PostingSource, Query, Response};
use trajsearch_serve::{Client, Reply, Request, Server, ServerConfig};

pub const NAME: &str = "serve_loopback";

/// Queries per pass, split between the two connections.
const QUERIES: usize = 4_000;
const SMALL_QUERIES: usize = 64;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

const CLIENT_QUERY: &str = "serve.client.query";

struct Connection<'a> {
    client: Client,
    queries: &'a [Query],
}

impl Lane for Connection<'_> {
    fn exec(&mut self, op: usize, rec: Option<&mut Recorder>) -> Result<Vec<Response>, String> {
        let query = &self.queries[op];
        let response = match rec {
            Some(rec) => rec.span(CLIENT_QUERY, |_| self.client.query(query)),
            None => self.client.query(query),
        };
        response.map(|r| vec![r]).map_err(|e| e.to_string())
    }
}

/// Encode and decode cost of the query frame and the reply frame, and
/// their size on the wire, over every operation of a pass.
fn proto_probe(queries: &[Query], reference: &[Vec<Response>], layers: &mut Values) {
    let (mut decode_ns, mut encode_ns, mut bytes) = (0u128, 0u128, 0usize);
    for (i, (query, answers)) in queries.iter().zip(reference).enumerate() {
        let frame = Request::Query {
            id: i as u64,
            query: query.clone(),
            trace_id: None,
        }
        .to_json();
        let t = Instant::now();
        black_box(Request::from_json(black_box(&frame)).is_ok());
        decode_ns += t.elapsed().as_nanos();

        let reply = Reply::Response {
            id: i as u64,
            response: answers[0].clone(),
        };
        let t = Instant::now();
        let wire = black_box(&reply).to_json();
        encode_ns += t.elapsed().as_nanos();
        // Each frame ends in one newline.
        bytes += frame.len() + wire.len() + 2;
    }
    let n = queries.len().max(1) as f64;
    layers.set("serve.proto.request_decode_us", decode_ns as f64 / n / 1e3);
    layers.set("serve.proto.reply_encode_us", encode_ns as f64 / n / 1e3);
    layers.set("serve.frame_bytes_per_op", bytes as f64 / n);
}

pub fn run(ds: &Dataset, cfg: &Cfg) -> Report {
    let model = ds.edr();
    let queries = light_queries(ds, &model, cfg.ops(QUERIES, SMALL_QUERIES), 0x3001);
    let engine = EngineBuilder::new(&model, &ds.store, ds.alphabet).build();
    let index_bytes = engine.index().size_bytes();

    let server = Server::bind(ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .expect("bind a loopback server");
    let handle = server.handle();
    let addr: SocketAddr = handle.local_addr();

    let (m, mut layers) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&engine));
        let mut connections: Vec<Connection<'_>> = (0..CLIENTS)
            .map(|_| Connection {
                client: Client::connect(addr).expect("connect to the loopback server"),
                queries: &queries,
            })
            .collect();
        let mut lanes: Vec<&mut dyn Lane> =
            connections.iter_mut().map(|c| c as &mut dyn Lane).collect();
        let m = harness::measure(&mut lanes, queries.len(), cfg);

        let mut layers = Values::default();
        if cfg.traced {
            let served = handle.metrics();
            let refused = served.rejected_overload + served.rejected_shutdown;
            layers.set("serve.queue_wait_p50_us", served.queue.p50_ns as f64 / 1e3);
            layers.set("serve.server_wall_p50_us", served.wall.p50_ns as f64 / 1e3);
            layers.set(
                "serve.rejected_ratio",
                refused as f64 / (served.admitted + refused).max(1) as f64,
            );
        }
        drop(connections);
        handle.shutdown();
        serving
            .join()
            .expect("server thread panicked")
            .expect("the server shuts down cleanly");
        (m, layers)
    });

    let cases = || queries.iter().zip(&m.reference).map(|(q, a)| (q, &a[0]));
    let mut verdict = oracle_sample(ds, queries.iter(), |i, rng| {
        let (query, response) = (&queries[i], &m.reference[i][0]);
        oracle::check(&model, ds, CELL_BUDGET, query, response, rng)
    });

    let mut probes = Vec::new();
    ledger::counters(cases().map(|(_, r)| r), &mut layers);
    if cfg.traced {
        let (rec, decomposed) = ledger::engine_probe(&engine, cases(), CLIENTS, &mut layers);
        verdict.result = verdict.result.and(decomposed);
        proto_probe(&queries, &m.reference, &mut layers);

        // The same operations in-process: what the front end adds is the
        // caller's median minus this one.
        let mut inproc_ms: Vec<f64> = queries
            .iter()
            .map(|q| {
                let t = Instant::now();
                black_box(engine.run(q).expect("ran in the warm-up pass"));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        inproc_ms.sort_by(f64::total_cmp);
        let mut caller_ms: Vec<f64> = m.lat_ms.iter().flatten().copied().collect();
        caller_ms.sort_by(f64::total_cmp);
        layers.set(
            "serve.overhead_us",
            (percentile(&caller_ms, 0.5) - percentile(&inproc_ms, 0.5)) * 1e3,
        );
        layers.set("serve.lat_p99_ms", percentile(&caller_ms, 0.99));
        probes.push(rec);
    }
    report(NAME, cfg, m, CLIENTS, index_bytes, verdict, layers, probes)
}
