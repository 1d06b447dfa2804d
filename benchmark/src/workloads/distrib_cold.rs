//! `distrib_cold` — one thread calls `Coordinator::handle` over
//! `RemoteShards` connected to two `Server::serve_shard` threads
//! (placement `traj_id % 2`). The coordinator reconnects at the start of
//! every pass, so its postings cache starts each pass empty; a pass visits
//! the same queries three times, so the working set begins outside the
//! cache and ends inside it. Shard RPC round trips and their JSON dominate.

use super::{light_queries, oracle_sample, report, Report};
use crate::data::Dataset;
use crate::harness::{self, median, Cfg, Lane};
use crate::ledger;
use crate::metrics::Values;
use crate::oracle::{self, CELL_BUDGET};
use crate::spans::Recorder;
use std::hint::black_box;
use std::time::Instant;
use trajsearch_core::{
    Deadline, EngineBuilder, IndexLayout, IndexShard, Query, RemoteSpec, Response,
};
use trajsearch_distrib::Coordinator;
use trajsearch_serve::{
    Handled, IndexShardSource, QueryHandler, Server, ServerConfig, ServerHandle,
};
use wed::models::Edr;

pub const NAME: &str = "distrib_cold";

/// Distinct queries; a pass visits them `ROUNDS` times in the same order.
const DISTINCT: usize = 1_024;
const SMALL_DISTINCT: usize = 16;
const ROUNDS: usize = 3;
const SHARDS: usize = 2;
const EPOCH: u64 = 1;

const HANDLE: &str = "distrib.coordinator.handle";

struct Caller<'a> {
    model: &'a Edr,
    ds: &'a Dataset,
    spec: &'a RemoteSpec,
    queries: &'a [Query],
    coordinator: Option<Coordinator<'a, &'a Edr>>,
    connect_ms: Vec<f64>,
    degraded: u64,
}

impl Lane for Caller<'_> {
    fn begin_pass(&mut self) -> Result<(), String> {
        if let Some(old) = self.coordinator.take() {
            self.degraded += old.remote().degraded_total();
        }
        let t = Instant::now();
        let fresh = Coordinator::connect(self.model, &self.ds.store, self.ds.alphabet, self.spec)
            .map_err(|e| e.to_string())?;
        self.connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.coordinator = Some(fresh);
        Ok(())
    }

    fn exec(&mut self, op: usize, rec: Option<&mut Recorder>) -> Result<Vec<Response>, String> {
        let coordinator = self.coordinator.as_ref().expect("a pass begins connected");
        let query = &self.queries[op % self.queries.len()];
        let handled = match rec {
            Some(rec) => rec.span(HANDLE, |_| coordinator.handle(query, Deadline::NONE)),
            None => coordinator.handle(query, Deadline::NONE),
        };
        match handled {
            Handled::Response(r) => Ok(vec![r]),
            Handled::Degraded { degraded, .. } => Err(format!("degraded reply: {degraded:?}")),
            Handled::Rejected(e) => Err(e.to_string()),
        }
    }
}

fn completed_rpcs(handles: &[ServerHandle]) -> u64 {
    handles.iter().map(|h| h.metrics().completed).sum()
}

pub fn run(ds: &Dataset, cfg: &Cfg) -> Report {
    let model = ds.edr();
    let queries = light_queries(ds, &model, cfg.ops(DISTINCT, SMALL_DISTINCT), 0x4001);
    let n_ops = queries.len() * ROUNDS;

    let shards: Vec<IndexShard> = (0..SHARDS)
        .map(|k| IndexShard::build(&ds.store, ds.alphabet, k, SHARDS))
        .collect();
    let index_bytes: usize = shards.iter().map(IndexShard::size_bytes).sum();
    let sources: Vec<IndexShardSource<'_>> = shards
        .iter()
        .map(|s| IndexShardSource::new(s, EPOCH))
        .collect();
    let servers: Vec<Server> = (0..SHARDS)
        .map(|_| Server::bind(ServerConfig::default()).expect("bind a shard server"))
        .collect();
    let handles: Vec<ServerHandle> = servers.iter().map(Server::handle).collect();
    let spec = RemoteSpec::new(servers.iter().map(|s| s.local_addr().to_string()));

    std::thread::scope(|scope| {
        let serving: Vec<_> = servers
            .into_iter()
            .zip(&sources)
            .map(|(server, source)| scope.spawn(move || server.serve_shard(source)))
            .collect();

        let mut caller = Caller {
            model: &model,
            ds,
            spec: &spec,
            queries: &queries,
            coordinator: None,
            connect_ms: Vec::new(),
            degraded: 0,
        };
        let rpcs_before = completed_rpcs(&handles);
        let m = harness::measure(&mut [&mut caller], n_ops, cfg);
        let rpcs = completed_rpcs(&handles) - rpcs_before;

        let cases = || {
            queries
                .iter()
                .zip(&m.reference)
                .map(|(q, answers)| (q, &answers[0]))
        };
        let mut verdict = oracle_sample(ds, queries.iter(), |i, rng| {
            let (query, response) = (&queries[i], &m.reference[i][0]);
            oracle::check(&model, ds, CELL_BUDGET, query, response, rng)
        });

        let mut layers = Values::default();
        let mut probes = Vec::new();
        ledger::counters(cases().map(|(_, r)| r), &mut layers);
        if cfg.traced {
            // What one connect costs in RPCs, to leave it out of the
            // per-operation count.
            let before = completed_rpcs(&handles);
            caller
                .begin_pass()
                .expect("reconnect to the loopback shards");
            let connect_rpcs = completed_rpcs(&handles) - before;
            let passes = (1 + m.pass_wall_s.len() + m.traced_pass_wall_s.len()) as u64;
            layers.set(
                "distrib.rpcs_per_op",
                (rpcs - passes * connect_rpcs) as f64 / (passes * n_ops as u64) as f64,
            );
            layers.set("distrib.connect_ms", median(&caller.connect_ms));

            // The calls decompose on the coordinator's own engine, its
            // cache empty again: the lookup span includes the shard RPCs.
            let coordinator = caller.coordinator.as_ref().expect("just reconnected");
            let (rec, decomposed) =
                ledger::engine_probe(coordinator.engine(), cases(), 1, &mut layers);
            verdict.result = verdict.result.and(decomposed);
            probes.push(rec);
            layers.set(
                "distrib.degraded_total",
                (caller.degraded + coordinator.remote().degraded_total()) as f64,
            );

            // The same pass on in-process shards is the base of the RPC
            // overhead ratio.
            let local = EngineBuilder::new(&model, &ds.store, ds.alphabet)
                .layout(IndexLayout::Sharded(SHARDS))
                .build();
            let t = Instant::now();
            for op in 0..n_ops {
                black_box(
                    local
                        .run(&queries[op % queries.len()])
                        .expect("ran in the warm-up pass"),
                );
            }
            layers.set(
                "distrib.rpc_overhead_ratio",
                median(&m.pass_wall_s) / t.elapsed().as_secs_f64(),
            );

            // The first round of a pass runs cold, the last one warm.
            let round_us = |round: usize| -> f64 {
                let us: Vec<f64> = m.lat_ms[round * queries.len()..(round + 1) * queries.len()]
                    .iter()
                    .flatten()
                    .map(|ms| ms * 1e3)
                    .collect();
                median(&us)
            };
            layers.set("distrib.cold_query_us", round_us(0));
            layers.set("distrib.warm_query_us", round_us(ROUNDS - 1));
        }

        drop(caller);
        for handle in &handles {
            handle.shutdown();
        }
        for thread in serving {
            thread
                .join()
                .expect("shard server thread panicked")
                .expect("the shard server shuts down cleanly");
        }
        report(NAME, cfg, m, 1, index_bytes, verdict, layers, probes)
    })
}
