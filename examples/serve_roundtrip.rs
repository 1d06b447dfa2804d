//! Serve round trip: start the TCP front-end on a loopback ephemeral port,
//! drive a mixed workload through the [`Client`], and verify every served
//! `Response` equals the in-process answer.
//!
//! Demonstrates the full serving contract on one screen: bounded admission
//! (watch `queue_capacity` in the stats), per-query deadlines (a 1 ms
//! budget against a store-wide scan comes back as a typed
//! `deadline_exceeded`, not a late answer), live metrics over the wire,
//! and graceful shutdown draining in-flight queries.
//!
//! ```sh
//! cargo run --release --example serve_roundtrip
//! ```

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, Query, TemporalConstraint, TimeInterval, VerifyMode};
use trajsearch_serve::{Client, ClientError, Server, ServerConfig, ServerErrorKind};
use wed::models::Edr;

fn main() {
    // A synthetic city, a database of trips, and an EDR engine over it.
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(42).generate());
    let store = TripConfig::default()
        .count(600)
        .lengths(30, 80)
        .seed(7)
        .generate(&net);
    let model = Edr::new(net.clone(), 100.0);
    let engine = EngineBuilder::new(&model, &store, net.num_vertices()).build();

    // Mixed workload cut from stored trips: thresholds and top-k.
    let workload: Vec<Query> = (0..24)
        .map(|i| {
            let t = store.get((i * 13) % store.len() as u32);
            let len = t.len().min(40);
            let q = t.path()[0..=len - 1].to_vec();
            let tau = (0.1 * len as f64).max(1.0);
            if i % 3 == 2 {
                Query::top_k(q, 5, tau, 4.0 * tau).build().expect("valid")
            } else {
                Query::threshold(q, tau).build().expect("valid")
            }
        })
        .collect();

    let server = Server::bind(ServerConfig {
        workers: 2,
        queue_capacity: 256,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let handle = server.handle();
    println!(
        "serving {} trajectories at {} with 2 workers, queue capacity 256",
        store.len(),
        handle.local_addr()
    );

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&engine));
        let mut client = Client::connect(handle.local_addr()).expect("connect");

        // Pipelined batch over one connection; replies return in
        // submission order even though workers finish out of order.
        let outcomes = client.query_batch(&workload).expect("batch transport");
        let mut total_matches = 0usize;
        for (i, (query, outcome)) in workload.iter().zip(&outcomes).enumerate() {
            let served = outcome.response().expect("no rejections at this load");
            let local = engine.run(query).expect("in-process reference");
            assert_eq!(served.matches, local.matches, "query {i} diverged");
            total_matches += served.matches.len();
        }
        println!(
            "{} queries served over TCP, {} matches, all byte-identical to in-process",
            workload.len(),
            total_matches
        );

        // A deadline the engine cannot meet: an infeasible-threshold query
        // forces a store-wide exact scan, and the 1 ms budget expires at a
        // cooperative checkpoint — the reply is a *typed* timeout.
        let q = store.get(0).path()[0..=7].to_vec();
        let hopeless = Query::threshold(q, 1e7)
            .verify(VerifyMode::Sw)
            .temporal(TemporalConstraint::within(TimeInterval::new(0.0, 1.0)))
            .deadline_ms(1)
            .build()
            .expect("valid");
        match client.query(&hopeless) {
            Err(ClientError::Server(e)) if e.kind == ServerErrorKind::DeadlineExceeded => {
                println!("1 ms deadline query: typed timeout as expected ({e})");
            }
            other => println!("1 ms deadline query: unexpectedly {other:?}"),
        }

        // Metrics over the same protocol.
        let stats = client.stats().expect("stats");
        println!(
            "server metrics: {} completed, {} timed out, {} rejected, p99 wall {:.2} ms",
            stats.completed,
            stats.timed_out,
            stats.rejected_overload,
            stats.wall.p99_ns as f64 / 1e6
        );

        // Graceful shutdown: drains anything in flight, then serve returns.
        handle.shutdown();
        let final_metrics = serving.join().expect("serve thread").expect("serve ok");
        println!(
            "drained and stopped: queue depth {} at exit",
            final_metrics.queue_depth
        );
    });
}
