//! Distributed cluster on one screen: three shard servers answering the
//! versioned shard-RPC surface, a coordinator serving the ordinary query
//! protocol over them, and a client that cannot tell the difference — until
//! a shard dies, when replies turn into *typed* degraded envelopes naming
//! the missing shard instead of silently wrong answers.
//!
//! Topology (all loopback TCP, in one process for the example):
//!
//! ```text
//! Client ──query──▶ Coordinator ──shard RPCs──▶ shard 0 │ shard 1 │ shard 2
//! ```
//!
//! ```sh
//! cargo run --release --example distributed_cluster
//! ```

use rnet::{CityParams, NetworkKind};
use std::sync::Arc;
use traj::TripConfig;
use trajsearch_core::{EngineBuilder, IndexShard, Query, RemoteSpec};
use trajsearch_distrib::Coordinator;
use trajsearch_serve::{Client, IndexShardSource, QueryOutcome, Server, ServerConfig};
use wed::models::Edr;

const NUM_SHARDS: usize = 3;
const EPOCH: u64 = 1;

fn main() {
    // A synthetic city, a database of trips, and an EDR model over it. The
    // coordinator and every shard server hold the same store: shards serve
    // postings, the coordinator verifies candidates locally.
    let net = Arc::new(CityParams::small(NetworkKind::City).seed(42).generate());
    let store = TripConfig::default()
        .count(600)
        .lengths(30, 80)
        .seed(7)
        .generate(&net);
    let model = Edr::new(net.clone(), 100.0);
    let alphabet = net.num_vertices();

    // One IndexShard per server: trajectories with id % NUM_SHARDS == k.
    let shards: Vec<IndexShard> = (0..NUM_SHARDS)
        .map(|k| IndexShard::build(&store, alphabet, k, NUM_SHARDS))
        .collect();
    let sources: Vec<IndexShardSource<'_>> = shards
        .iter()
        .map(|s| IndexShardSource::new(s, EPOCH))
        .collect();
    let shard_servers: Vec<Server> = sources
        .iter()
        .map(|_| Server::bind(ServerConfig::default()).expect("bind shard server"))
        .collect();
    let shard_handles: Vec<_> = shard_servers.iter().map(Server::handle).collect();
    let endpoints: Vec<String> = shard_servers
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    println!("shard servers: {}", endpoints.join(", "));

    // The in-process reference the cluster must match byte for byte.
    let reference = EngineBuilder::new(&model, &store, alphabet).build();

    let workload: Vec<Query> = (0..12)
        .map(|i| {
            let t = store.get((i * 13) % store.len() as u32);
            let len = t.len().min(40);
            let q = t.path()[0..=len - 1].to_vec();
            let tau = (0.1 * len as f64).max(1.0);
            Query::threshold(q, tau).build().expect("valid")
        })
        .collect();

    std::thread::scope(|scope| {
        let mut shard_threads = Vec::new();
        for (server, source) in shard_servers.into_iter().zip(&sources) {
            shard_threads.push(scope.spawn(move || server.serve_shard(source)));
        }

        // The coordinator: a full engine whose postings arrive over the
        // shard RPCs (version-negotiated, epoch-checked), fronted by the
        // ordinary query server.
        let coordinator = Coordinator::connect(
            &model,
            &store,
            alphabet,
            &RemoteSpec::new(endpoints.iter().cloned()),
        )
        .expect("connect shard cluster");
        let coord_server = Server::bind(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("bind coordinator");
        let coord_handle = coord_server.handle();
        println!("coordinator:   {}", coord_handle.local_addr());
        let coord_thread = scope.spawn(move || coord_server.serve(&coordinator));

        // A client speaking the ordinary query protocol; the shard RPCs
        // behind each answer are invisible to it.
        let mut client = Client::connect(coord_handle.local_addr()).expect("connect");
        let outcomes = client.query_batch(&workload).expect("batch transport");
        for (i, (query, outcome)) in workload.iter().zip(&outcomes).enumerate() {
            let served = outcome.response().expect("healthy cluster answers cleanly");
            let local = reference.run(query).expect("in-process reference");
            assert_eq!(served.matches, local.matches, "query {i} diverged");
        }
        println!(
            "{} queries answered through the cluster, byte-identical to in-process",
            workload.len()
        );

        // Kill shard 1. The next query needing its postings cannot be
        // answered completely — the reply is a typed degraded envelope
        // naming the missing shard (carrying the partial answer), never a
        // silently wrong result.
        shard_handles[1].shutdown();
        let fresh = store.get(101).path()[0..=9].to_vec();
        let probe = Query::threshold(fresh, 2.0).build().expect("valid");
        match client
            .query_batch(&[probe])
            .expect("transport ok")
            .remove(0)
        {
            QueryOutcome::Degraded { degraded, response } => {
                println!(
                    "shard 1 down: typed degraded reply (missing shards {:?}, partial answer \
                     with {} matches) — \"{}\"",
                    degraded.missing_shards,
                    response.map(|r| r.matches.len()).unwrap_or(0),
                    degraded.reason
                );
            }
            other => println!("shard 1 down: unexpectedly {other:?}"),
        }
        let stats = client.stats().expect("stats");
        println!(
            "coordinator metrics: {} completed, {} degraded",
            stats.completed, stats.degraded
        );

        // Orderly teardown: coordinator first, then the surviving shards.
        coord_handle.shutdown();
        coord_thread
            .join()
            .expect("coordinator thread")
            .expect("serve ok");
        for handle in &shard_handles {
            handle.shutdown();
        }
        for t in shard_threads {
            t.join().expect("shard thread").expect("serve ok");
        }
        println!("cluster drained and stopped");
    });
}
