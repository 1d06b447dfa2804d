//! The coordinator role: the full search engine (store, model, MinCand
//! plan, verification) running locally, with *only the postings* fetched
//! from remote shard servers through [`RemoteShards`]. Shards never see a
//! query's metric, so a coordinator answers every metric whatever its shard
//! servers advertise at `hello`.
//!
//! A [`Coordinator`] implements
//! [`QueryHandler`], so
//! [`Server::serve`](trajsearch_serve::Server::serve) turns it into a
//! network front-end: clients speak the ordinary query protocol and never
//! see the shard RPCs behind it. Each query is bracketed with a degraded
//! mark — if any shard failed to answer while the query ran, the reply is
//! a typed `degraded` envelope naming the missing shards (carrying the
//! partial answer), never a silent partial result.

use crate::remote::{DistribError, RemoteShards, ShardEndpoint};
use std::sync::Arc;
use traj::TrajectoryStore;
use trajsearch_core::{
    Deadline, EngineBuilder, PostingSource, Query, RemoteSpec, SearchEngine, TraceSink, Tracer,
};
use trajsearch_serve::{Handled, QueryHandler};
use wed::WedInstance;

/// A [`SearchEngine`] over [`RemoteShards`] plus the degraded-reply
/// bookkeeping; build one with [`Coordinator::connect`] (or wrap an
/// engine you built yourself with [`Coordinator::new`]).
pub struct Coordinator<'a, M: WedInstance> {
    engine: SearchEngine<'a, M, RemoteShards>,
}

impl<'a, M: WedInstance + Sync> Coordinator<'a, M> {
    /// Connects a [`RemoteShards`] from `spec` and wires it under an
    /// engine over `store` — the networked counterpart of
    /// [`EngineBuilder::build`], which only constructs local layouts.
    /// The store must be the same one the shard servers indexed.
    pub fn connect(
        model: M,
        store: &'a TrajectoryStore,
        alphabet_size: usize,
        spec: &RemoteSpec,
    ) -> Result<Coordinator<'a, M>, DistribError> {
        let endpoints: Vec<ShardEndpoint> = spec.endpoints.iter().map(ShardEndpoint::new).collect();
        let remote = RemoteShards::connect(&endpoints, store)?;
        // Admission trusts the index's alphabet; the model may not cover a
        // larger one.
        if remote.alphabet_size() != alphabet_size {
            return Err(DistribError::Topology(format!(
                "shards index an alphabet of {}, the coordinator's is {alphabet_size}",
                remote.alphabet_size()
            )));
        }
        Ok(Coordinator::new(
            EngineBuilder::new(model, store, alphabet_size).build_with(remote),
        ))
    }

    /// As [`connect`](Coordinator::connect), with tracing wired in: the
    /// [`RemoteShards`] records its per-shard `shard_rpc` spans into
    /// `sink`. Pass the serving [`Server`](trajsearch_serve::Server)'s sink
    /// (via [`ServerConfig::sink`](trajsearch_serve::ServerConfig)) so a
    /// traced query's engine phases, fan-out spans and queue wait land in
    /// one ring under one trace id.
    pub fn connect_traced(
        model: M,
        store: &'a TrajectoryStore,
        alphabet_size: usize,
        spec: &RemoteSpec,
        sink: Arc<TraceSink>,
    ) -> Result<Coordinator<'a, M>, DistribError> {
        let mut coordinator = Coordinator::connect(model, store, alphabet_size, spec)?;
        coordinator.engine.index_mut().set_trace_sink(sink);
        Ok(coordinator)
    }

    pub fn new(engine: SearchEngine<'a, M, RemoteShards>) -> Coordinator<'a, M> {
        Coordinator { engine }
    }

    pub fn engine(&self) -> &SearchEngine<'a, M, RemoteShards> {
        &self.engine
    }

    pub fn remote(&self) -> &RemoteShards {
        self.engine.index()
    }
}

impl<M: WedInstance + Sync> QueryHandler for Coordinator<'_, M> {
    fn handle(&self, query: &Query, deadline: Deadline) -> Handled {
        self.handle_traced(query, deadline, Tracer::disabled())
    }

    fn handle_traced(&self, query: &Query, deadline: Deadline, tracer: Tracer<'_>) -> Handled {
        let remote = self.engine.index();
        let mark = remote.degraded_mark();
        // Park the trace id where the fan-outs this query triggers can see
        // it: each stamps the id onto its shard RPC frames (so shard
        // servers record their serve-side spans under the same trace) and
        // records a coordinator-side `shard_rpc` span. The guard restores
        // the previous context even on panic.
        let _scope = remote.trace_scope(tracer.trace_id().unwrap_or(0));
        match self.engine.execute(query, deadline, tracer) {
            Ok(response) => match remote.degraded_since(mark) {
                Some(degraded) => Handled::Degraded {
                    degraded,
                    response: Some(response),
                },
                None => Handled::Response(response),
            },
            Err(e) => Handled::Rejected(e),
        }
    }
}
