//! Remote-loopback leg of the metric equivalence matrix (the in-process
//! Single/Sharded legs live in `crates/core/tests/metric_equivalence.rs`,
//! which cannot open sockets):
//!
//! * **Equivalence** — DTW / LCSS(ε) / Fréchet / WED queries answered
//!   through [`RemoteShards`] over real loopback shard servers are
//!   byte-identical (matches and deterministic stats, `verify_cost`
//!   included) to the in-process `Single` layout.
//! * **Coordinator** — shards serve postings only and the coordinator
//!   verifies every metric itself, so [`Coordinator`] answers every metric
//!   byte-identically to `Single`, whatever metric list a shard advertises
//!   at `hello` (nothing reads it).

use std::thread;
use traj::TrajectoryStore;
use trajsearch_core::{Deadline, EngineBuilder, IndexShard, Metric, Query, Response};
use trajsearch_distrib::{testdata, Coordinator, RemoteShards, ShardEndpoint};
use trajsearch_serve::{
    Handled, IndexShardSource, QueryHandler, Server, ServerConfig, ServerHandle,
};
use wed::models::Lev;
use wed::Sym;

const ALPHABET: usize = 16;
const EPOCH: u64 = 3;

/// Shuts every server down when dropped, so a failing assertion inside the
/// `thread::scope` unwinds into a clean exit instead of a hang.
struct ShutdownOnDrop(Vec<ServerHandle>);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        for handle in &self.0 {
            handle.shutdown();
        }
    }
}

/// Runs `body` against `n` in-process shard servers on loopback sockets.
fn with_shard_servers(store: &TrajectoryStore, n: usize, body: impl FnOnce(Vec<ShardEndpoint>)) {
    let shards: Vec<IndexShard> = (0..n)
        .map(|k| IndexShard::build(store, ALPHABET, k, n))
        .collect();
    let sources: Vec<IndexShardSource<'_>> = shards
        .iter()
        .map(|shard| IndexShardSource::new(shard, EPOCH))
        .collect();
    let servers: Vec<Server> = (0..n)
        .map(|_| Server::bind(ServerConfig::default()).expect("bind shard server"))
        .collect();
    let endpoints: Vec<ShardEndpoint> = servers
        .iter()
        .map(|s| ShardEndpoint::new(s.handle().local_addr().to_string()))
        .collect();
    let handles: Vec<ServerHandle> = servers.iter().map(|s| s.handle()).collect();
    thread::scope(|scope| {
        let guard = ShutdownOnDrop(handles);
        let serving: Vec<_> = servers
            .into_iter()
            .zip(&sources)
            .map(|(server, source)| scope.spawn(move || server.serve_shard(source)))
            .collect();
        body(endpoints);
        drop(guard);
        for thread in serving {
            thread.join().expect("serve thread").expect("serve ok");
        }
    });
}

/// A pattern that occurs verbatim in the store, so τ-ball matches exist
/// under every metric and the equivalence is non-vacuous.
fn embedded_pattern(store: &TrajectoryStore) -> Vec<Sym> {
    store.get(0).path()[2..6].to_vec()
}

#[test]
fn metric_queries_over_remote_shards_match_in_process() {
    let store = testdata::store(40, 12, 11, ALPHABET);
    with_shard_servers(&store, 2, |endpoints| {
        let remote = RemoteShards::connect(&endpoints, &store).expect("connect cluster");
        let remote_engine = EngineBuilder::new(Lev, &store, ALPHABET).build_with(remote);
        let single = EngineBuilder::new(Lev, &store, ALPHABET).build();

        let pattern = embedded_pattern(&store);
        for metric in [
            Metric::Wed,
            Metric::Dtw,
            Metric::Lcss { eps: 0.0 },
            Metric::Frechet,
        ] {
            let query = Query::threshold(pattern.clone(), 2.0)
                .metric(metric)
                .build()
                .unwrap();
            let want = single.run(&query).expect("single run");
            assert!(
                !want.matches.is_empty(),
                "embedded pattern must match under {metric:?}"
            );
            let got = remote_engine.run(&query).expect("remote run");
            let ctx = format!("metric={metric:?}");
            assert_eq!(got.matches, want.matches, "{ctx}: matches diverged");
            let (g, w) = (&got.stats, &want.stats);
            assert_eq!(g.candidates, w.candidates, "{ctx}: candidates");
            assert_eq!(
                g.candidates_deduped, w.candidates_deduped,
                "{ctx}: candidates_deduped"
            );
            assert_eq!(g.fallback, w.fallback, "{ctx}: fallback");
            assert_eq!(g.verify_cost, w.verify_cost, "{ctx}: verify_cost");
            assert_eq!(g.results, w.results, "{ctx}: results");
        }
        assert_eq!(
            remote_engine.index().degraded_total(),
            0,
            "healthy cluster must not degrade"
        );
    });
}

#[test]
fn coordinator_answers_every_metric() {
    let store = testdata::store(24, 10, 5, ALPHABET);
    with_shard_servers(&store, 2, |endpoints| {
        let remote = RemoteShards::connect(&endpoints, &store).expect("connect cluster");
        let coordinator =
            Coordinator::new(EngineBuilder::new(Lev, &store, ALPHABET).build_with(remote));
        let single = EngineBuilder::new(Lev, &store, ALPHABET).build();
        let pattern = embedded_pattern(&store);

        // Shards serve postings only: the coordinator verifies every metric
        // itself.
        for metric in [
            Metric::Dtw,
            Metric::Lcss { eps: 0.0 },
            Metric::Frechet,
            Metric::Wed,
        ] {
            let query = Query::threshold(pattern.clone(), 2.0)
                .metric(metric)
                .build()
                .unwrap();
            let want = single.run(&query).expect("single run");
            assert!(!want.matches.is_empty(), "{metric:?} must match");
            let got = match coordinator.handle(&query, Deadline::NONE) {
                Handled::Response(response) => response,
                other => panic!("{metric:?}: expected a clean answer, got {other:?}"),
            };
            assert_eq!(got.matches, want.matches, "{metric:?}: matches diverged");
            let bits =
                |r: &Response| -> Vec<u64> { r.matches.iter().map(|m| m.dist.to_bits()).collect() };
            assert_eq!(bits(&got), bits(&want), "{metric:?}: distance bits");
            assert_eq!(got.stats.verify_cost, want.stats.verify_cost, "{metric:?}");
            assert_eq!(got.stats.fallback, want.stats.fallback, "{metric:?}");
        }
        assert_eq!(coordinator.remote().degraded_total(), 0);
    });
}
