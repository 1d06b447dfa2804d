//! [`RemoteShards`]: the [`PostingSource`] contract answered by remote
//! shard servers over the serve wire protocol.
//!
//! One `RemoteShards` holds a pooled [`Client`] connection per shard server
//! and fans every postings fetch out across them, reassembling the replies
//! in **shard-major order** — exactly the iteration order of the in-process
//! [`ShardedIndex`](trajsearch_core::ShardedIndex), so a search over
//! `RemoteShards` is byte-identical to one over `Sharded(n)` at any
//! placement of the shards onto processes.
//!
//! The `PostingSource` trait is sync and infallible; the network is
//! neither. The gap is bridged three ways:
//!
//! * **From the store** — the coordinator holds the store the shards
//!   indexed, so [`RemoteShards::connect`] derives each symbol's frequency
//!   and each trajectory's span from it in one pass: `freq` and `span`
//!   never touch the network. The same pass checks the shards' self
//!   descriptions against the store.
//! * **Caching** — one cache: each symbol's postings list, after its first
//!   fetch, shared (`Arc<[Posting]>`) with every reader rather than copied
//!   per query. By-departure candidates (§4.3) come from that list
//!   filtered by the store's departures, so they cost no RPC and no second
//!   copy. Only
//!   *complete* lists (every shard answered, every posting checked) enter
//!   the cache, so a degraded fetch is retried on the next query rather
//!   than frozen in.
//! * **Degradation** — a shard that fails to answer (transport error,
//!   epoch mismatch, expired RPC deadline), or that lies (a posting of a
//!   trajectory it does not hold, or at a position past that trajectory's
//!   end), contributes nothing to that fetch and the failure is recorded
//!   in a degraded log. A [`Coordinator`](crate::Coordinator) brackets each
//!   query with a mark of that log and turns a non-empty window into a
//!   typed degraded reply ([`DegradedInfo`]) instead of passing off a
//!   partial answer as complete.
//!
//! No lock here turns a panicked thread into a panic for every later query.
//! The cache and the degraded log hold whole answers and whole
//! events only, so a poisoned one is recovered and used as it is. A shard
//! connection poisoned mid-RPC may hold half a frame, so it is marked dead
//! and the shard degrades, as after a transport failure.
//!
//! Fan-outs are pipelined: requests are written to every live shard before
//! any reply is read, so a k-shard fetch costs one round trip, not k. Data
//! RPCs echo each shard's build **epoch** (learned from `shard_info` at
//! connect) and carry a fixed RPC deadline, so a restarted shard or
//! an overloaded one degrades loudly instead of answering from the wrong
//! index build or stalling the coordinator.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::ToSocketAddrs;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use traj::{TrajId, TrajectoryStore};
use trajsearch_core::{Posting, PostingSource, TraceSink};
use trajsearch_serve::{Client, ClientError, DegradedInfo, Reply, Request, ShardInfo};
use wed::Sym;

thread_local! {
    /// The trace id of the query currently executing on this thread, or 0.
    ///
    /// [`PostingSource`] is a sync trait with no room for per-call context,
    /// so the coordinator parks the active query's trace id here (via
    /// [`RemoteShards::trace_scope`]) before running the engine; every
    /// [`RemoteShards::fanout`] the query triggers reads it back, stamps
    /// the id onto each shard RPC frame, and records a `shard_rpc` span
    /// per shard. Thread-local because server workers run queries
    /// concurrently — each worker's engine calls happen on its own thread.
    static TRACE_CTX: Cell<u64> = const { Cell::new(0) };
}

/// Clears (restores) the thread's trace context on drop, so a panicking or
/// early-returning query cannot leak its id into the next query on the
/// worker.
pub(crate) struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        TRACE_CTX.with(|c| c.set(self.prev));
    }
}

/// One shard server's address, as given to [`RemoteShards::connect`].
/// Order does not matter: shards identify themselves via `shard_info` and
/// the pool is arranged by shard id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEndpoint {
    addr: String,
}

impl ShardEndpoint {
    pub fn new(addr: impl Into<String>) -> ShardEndpoint {
        ShardEndpoint { addr: addr.into() }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl<T: Into<String>> From<T> for ShardEndpoint {
    fn from(addr: T) -> ShardEndpoint {
        ShardEndpoint::new(addr)
    }
}

/// Dial timeout per endpoint: a dead endpoint fails the connect fast
/// instead of hanging the whole cluster bring-up.
const DIAL_TIMEOUT: Duration = Duration::from_secs(2);

/// Per-RPC budget in ms: sent as `deadline_ms` on every data RPC *and*
/// installed as the socket read timeout, so a stalled shard degrades within
/// this bound instead of blocking a query forever.
const RPC_DEADLINE_MS: u64 = 10_000;

/// The degraded-log entry for a data reply of the wrong kind or shape.
const WRONG_REPLY: &str = "protocol error: reply of the wrong kind or shape";

/// Why a [`RemoteShards::connect`] failed.
#[derive(Debug)]
pub enum DistribError {
    /// Could not reach or negotiate with an endpoint.
    Connect {
        endpoint: String,
        source: ClientError,
    },
    /// The endpoints do not form one coherent cluster (wrong shard count,
    /// duplicate or missing shard ids), or describe a store other than the
    /// coordinator's (trajectory or posting counts, alphabet).
    Topology(String),
}

impl fmt::Display for DistribError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistribError::Connect { endpoint, source } => {
                write!(f, "shard endpoint {endpoint}: {source}")
            }
            DistribError::Topology(msg) => write!(f, "cluster topology: {msg}"),
        }
    }
}

impl std::error::Error for DistribError {}

/// One pooled shard connection. The [`Client`] is behind a mutex because
/// the engine may call the posting source from several threads (batch and
/// server workers); `dead` latches after a transport failure or a poisoned
/// lock so later fetches degrade immediately instead of re-timing-out.
struct ShardConn {
    endpoint: String,
    info: ShardInfo,
    client: Mutex<ConnState>,
}

struct ConnState {
    client: Client,
    dead: bool,
}

/// Append-only record of shard failures; `events.len()` is the generation
/// counter handed out by [`RemoteShards::degraded_mark`].
#[derive(Default)]
struct DegradedLog {
    events: Vec<(u32, String)>,
}

/// A [`PostingSource`] whose postings live in remote shard-server
/// processes; see the [module docs](self) for the contract.
pub struct RemoteShards {
    /// Ordered by shard id (position == `shard_id`).
    conns: Vec<ShardConn>,
    alphabet_size: usize,
    total_postings: usize,
    size_bytes: usize,
    /// Postings-list lengths by symbol, counted from the store the shards
    /// indexed; shorter than the alphabet when its top symbols never occur.
    freqs: Vec<u32>,
    /// `(departure, arrival)` by global id, from the store.
    spans: Vec<(f64, f64)>,
    /// Trajectory lengths by global id, from the store: a posting's
    /// position must fall inside its trajectory.
    lens: Vec<u32>,
    postings_cache: Mutex<HashMap<Sym, Arc<[Posting]>>>,
    log: Mutex<DegradedLog>,
    /// Span sink for `shard_rpc` intervals; `None` leaves fan-outs
    /// untraced even inside a trace scope.
    sink: Option<Arc<TraceSink>>,
}

impl fmt::Debug for RemoteShards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteShards")
            .field(
                "endpoints",
                &self.conns.iter().map(|c| &c.endpoint).collect::<Vec<_>>(),
            )
            .field("num_trajectories", &self.spans.len())
            .field("alphabet_size", &self.alphabet_size)
            .finish_non_exhaustive()
    }
}

impl RemoteShards {
    /// Dials every endpoint, negotiates the protocol version (`hello`),
    /// learns each shard's identity and epoch (`shard_info`), checks the
    /// endpoints form exactly one shard 0..n cluster over `store` (the
    /// store the shards indexed), and derives frequencies and spans from
    /// `store`. Endpoint order is irrelevant — shards are arranged by their
    /// self-reported id.
    pub fn connect(
        endpoints: &[ShardEndpoint],
        store: &TrajectoryStore,
    ) -> Result<RemoteShards, DistribError> {
        if endpoints.is_empty() {
            return Err(DistribError::Topology("no shard endpoints given".into()));
        }
        let n = endpoints.len();
        let mut by_id: Vec<Option<ShardConn>> = Vec::new();
        by_id.resize_with(n, || None);
        for ep in endpoints {
            let fail = |source: ClientError| DistribError::Connect {
                endpoint: ep.addr.clone(),
                source,
            };
            let mut client = dial(&ep.addr).map_err(|e| fail(e.into()))?;
            client
                .set_read_timeout(Some(Duration::from_millis(RPC_DEADLINE_MS)))
                .map_err(|e| fail(e.into()))?;
            // hello: a major-version mismatch surfaces here as a typed
            // `unsupported_version` server error, before any data moves.
            // The server's metric list does not matter: shards serve
            // postings, and the coordinator verifies every metric itself.
            client.hello().map_err(fail)?;
            let info = client.shard_info().map_err(fail)?;
            if info.num_shards as usize != n {
                return Err(DistribError::Topology(format!(
                    "{} believes the cluster has {} shards, but {} endpoints were given",
                    ep.addr, info.num_shards, n
                )));
            }
            let slot = info.shard_id as usize;
            if slot >= n || by_id[slot].is_some() {
                return Err(DistribError::Topology(format!(
                    "shard id {} at {} is {} for this cluster",
                    info.shard_id,
                    ep.addr,
                    if slot >= n {
                        "out of range"
                    } else {
                        "duplicated"
                    }
                )));
            }
            by_id[slot] = Some(ShardConn {
                endpoint: ep.addr.clone(),
                info,
                client: Mutex::new(ConnState {
                    client,
                    dead: false,
                }),
            });
        }
        let conns: Vec<ShardConn> = by_id
            .into_iter()
            .map(|c| c.expect("all slots filled: n endpoints, n distinct ids in range"))
            .collect();

        let first = &conns[0].info;
        for c in &conns[1..] {
            if c.info.alphabet_size != first.alphabet_size
                || c.info.num_trajectories != first.num_trajectories
            {
                return Err(DistribError::Topology(format!(
                    "shard {} at {} indexes a different store (alphabet {}, {} trajectories) \
                     than shard 0 (alphabet {}, {} trajectories)",
                    c.info.shard_id,
                    c.endpoint,
                    c.info.alphabet_size,
                    c.info.num_trajectories,
                    first.alphabet_size,
                    first.num_trajectories
                )));
            }
        }
        let num_trajectories = store.len();
        if first.num_trajectories != num_trajectories as u64 {
            return Err(DistribError::Topology(format!(
                "shards index {} trajectories, the store holds {num_trajectories}",
                first.num_trajectories
            )));
        }

        // One pass over the store: what `freq`, `span` and the posting
        // checks read, and each shard's share of the positions.
        let alphabet = first.alphabet_size;
        let mut freqs: Vec<u32> = Vec::new();
        let mut spans = Vec::with_capacity(num_trajectories);
        let mut lens = Vec::with_capacity(num_trajectories);
        let mut positions = vec![0u64; n];
        for (id, t) in store.iter() {
            for &q in t.path() {
                if u64::from(q) >= alphabet {
                    return Err(DistribError::Topology(format!(
                        "trajectory {id} holds symbol {q}, past the shards' alphabet of {alphabet}"
                    )));
                }
                if q as usize >= freqs.len() {
                    freqs.resize(q as usize + 1, 0);
                }
                freqs[q as usize] += 1;
            }
            spans.push(t.span());
            lens.push(t.len() as u32);
            positions[id as usize % n] += t.len() as u64;
        }
        for (k, c) in conns.iter().enumerate() {
            // The `id % n` placement gives shard k the ids k, k + n, ….
            let placed = num_trajectories.saturating_sub(k).div_ceil(n);
            if c.info.local_trajectories != placed as u64 {
                return Err(DistribError::Topology(format!(
                    "shard {k} holds {} trajectories, its share of the store is {placed}",
                    c.info.local_trajectories
                )));
            }
            if c.info.total_postings != positions[k] {
                return Err(DistribError::Topology(format!(
                    "shard {k} holds {} postings, its share of the store has {} positions",
                    c.info.total_postings, positions[k]
                )));
            }
        }

        Ok(RemoteShards {
            alphabet_size: alphabet as usize,
            total_postings: positions.iter().sum::<u64>() as usize,
            size_bytes: conns.iter().map(|c| c.info.size_bytes as usize).sum(),
            freqs,
            spans,
            lens,
            conns,
            postings_cache: Mutex::new(HashMap::new()),
            log: Mutex::new(DegradedLog::default()),
            sink: None,
        })
    }

    /// Number of shard servers in the pool.
    pub fn num_shards(&self) -> usize {
        self.conns.len()
    }

    /// Installs the sink `shard_rpc` spans are recorded into. Fan-outs
    /// record only while a [`trace_scope`](RemoteShards::trace_scope) is
    /// active on the calling thread.
    pub(crate) fn set_trace_sink(&mut self, sink: Arc<TraceSink>) {
        self.sink = Some(sink);
    }

    /// Marks the calling thread as executing a query under `trace_id`
    /// until the returned guard drops: every fan-out on this thread stamps
    /// the id onto its shard RPC frames (cross-process stitching) and
    /// records a per-shard `shard_rpc` span. A zero id (untraced) is a
    /// no-op scope.
    pub(crate) fn trace_scope(&self, trace_id: u64) -> TraceScope {
        TRACE_CTX.with(|c| TraceScope {
            prev: c.replace(trace_id),
        })
    }

    /// The generation mark for [`degraded_since`](RemoteShards::degraded_since):
    /// take it before running a query.
    pub(crate) fn degraded_mark(&self) -> u64 {
        recover(&self.log).events.len() as u64
    }

    /// Folds every shard failure recorded after `mark` into one
    /// [`DegradedInfo`]; `None` when the window is clean. With concurrent
    /// queries the log is shared, so a window may include a *neighbor*
    /// query's failures — degradation is over-reported under concurrency,
    /// never under-reported.
    pub(crate) fn degraded_since(&self, mark: u64) -> Option<DegradedInfo> {
        let log = recover(&self.log);
        let events = log.events.get(mark as usize..).unwrap_or(&[]);
        if events.is_empty() {
            return None;
        }
        let mut missing: Vec<u32> = events.iter().map(|&(shard, _)| shard).collect();
        missing.sort_unstable();
        missing.dedup();
        let reason = events
            .iter()
            .map(|(shard, what)| format!("shard {shard}: {what}"))
            .collect::<Vec<_>>()
            .join("; ");
        Some(DegradedInfo {
            missing_shards: missing,
            reason,
        })
    }

    /// Total shard failures ever recorded — zero on a healthy cluster.
    pub fn degraded_total(&self) -> u64 {
        self.degraded_mark()
    }

    fn record_degraded(&self, shard: u32, what: impl Into<String>) {
        recover(&self.log).events.push((shard, what.into()));
    }

    /// Pipelined fan-out of one data RPC to every live shard: all requests
    /// are written and flushed before any reply is read (one round trip for
    /// the whole cluster), holding each shard's client lock from send to
    /// receive so concurrent fan-outs cannot steal each other's replies.
    /// Locks are taken in shard order, which makes the lock acquisition
    /// deadlock-free. Returns one `Some(reply)` per answering shard;
    /// failures are logged and yield `None`.
    fn fanout(&self, make: impl Fn(u64, &ShardInfo) -> Request) -> Vec<Option<Reply>> {
        // The active trace, if any: stamp it onto every frame so each
        // shard server records its serve-side spans under the same id, and
        // bracket each RPC with a coordinator-side `shard_rpc` span.
        let trace_id = match &self.sink {
            Some(_) => TRACE_CTX.with(Cell::get),
            None => 0,
        };
        let mut guards: Vec<Option<(MutexGuard<'_, ConnState>, u64, Instant)>> = Vec::new();
        for (k, conn) in self.conns.iter().enumerate() {
            let mut state = conn.client.lock().unwrap_or_else(|poisoned| {
                // A thread died mid-RPC: the connection may hold half a
                // frame, so it is as good as a failed one.
                let mut state = poisoned.into_inner();
                state.dead = true;
                state
            });
            if state.dead {
                self.record_degraded(k as u32, "connection previously failed");
                guards.push(None);
                continue;
            }
            let id = state.client.allocate_id();
            let mut request = make(id, &conn.info);
            if trace_id != 0 {
                request.set_trace_id(trace_id);
            }
            let sent_at = Instant::now();
            let sent = state
                .client
                .send_request(&request)
                .and_then(|()| state.client.flush());
            match sent {
                Ok(()) => guards.push(Some((state, id, sent_at))),
                Err(e) => {
                    state.dead = true;
                    self.record_degraded(k as u32, format!("send failed: {e}"));
                    guards.push(None);
                }
            }
        }
        guards
            .into_iter()
            .enumerate()
            .map(|(k, guard)| {
                let (mut state, id, sent_at) = guard?;
                let reply = state.client.recv_reply();
                if trace_id != 0 {
                    if let Some(sink) = &self.sink {
                        // Send → reply-read, per shard: includes the wire
                        // and the shard server's `rpc_serve` time (which
                        // that server reports under the same trace id).
                        sink.record_interval(
                            trace_id,
                            0,
                            "shard_rpc",
                            k as u64,
                            sent_at,
                            Instant::now(),
                        );
                    }
                }
                match reply {
                    Ok(Reply::Error { error, .. }) => {
                        // A typed per-RPC refusal (epoch mismatch, expired
                        // deadline): the connection itself is still good.
                        self.record_degraded(k as u32, error.to_string());
                        None
                    }
                    Ok(reply) if reply.id() == Some(id) => Some(reply),
                    Ok(other) => {
                        state.dead = true;
                        self.record_degraded(
                            k as u32,
                            format!("protocol error: unexpected reply {other:?}"),
                        );
                        None
                    }
                    Err(e) => {
                        state.dead = true;
                        self.record_degraded(k as u32, format!("receive failed: {e}"));
                        None
                    }
                }
            })
            .collect()
    }

    /// Checks, once per fetched list, that shard `k` sent only postings of
    /// its own trajectories (`id % n == k`) at positions inside them: the
    /// verifier indexes the store with both, and `postings_departing_by`
    /// the span table with the id.
    fn check_postings(&self, k: usize, postings: &[Posting]) -> Result<(), String> {
        let n = self.conns.len();
        let lying = postings.iter().find(|&&(id, j)| {
            let id = id as usize;
            id % n != k || self.lens.get(id).is_none_or(|&len| j >= len)
        });
        match lying {
            None => Ok(()),
            Some((id, j)) => Err(format!(
                "sent posting ({id}, {j}), not a position of one of its trajectories"
            )),
        }
    }

    /// Fetches one symbol's postings from every shard, concatenated
    /// shard-major, or shares the cached list; cached only when every shard answered with a checked
    /// list. A reply of the wrong shape or with a posting that is not the
    /// shard's comes from a lying shard, which degrades like a silent one.
    fn fetch_postings(&self, q: Sym) -> Arc<[Posting]> {
        if let Some(hit) = recover(&self.postings_cache).get(&q) {
            return Arc::clone(hit);
        }
        let replies = self.fanout(|id, info| Request::ShardPostings {
            id,
            epoch: info.epoch,
            deadline_ms: Some(RPC_DEADLINE_MS),
            trace_id: None,
            syms: vec![q],
        });
        let mut out = Vec::new();
        let mut complete = true;
        for (k, reply) in replies.into_iter().enumerate() {
            let checked = match reply {
                None => {
                    complete = false;
                    continue;
                }
                Some(Reply::ShardPostings { mut lists, .. }) if lists.len() == 1 => {
                    let list = lists.pop().expect("one list");
                    self.check_postings(k, &list).map(|()| list)
                }
                Some(_) => Err(WRONG_REPLY.to_string()),
            };
            match checked {
                Ok(list) => out.extend(list),
                Err(why) => {
                    self.record_degraded(k as u32, why);
                    complete = false;
                }
            }
        }
        let out: Arc<[Posting]> = out.into();
        if complete {
            recover(&self.postings_cache).insert(q, Arc::clone(&out));
        }
        out
    }
}

/// Locks a cache or the degraded log whether or not a thread panicked
/// holding it: each update is one whole insert or push, so the data behind
/// a poisoned lock is still complete.
fn recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolve-and-dial within [`DIAL_TIMEOUT`]; `ToSocketAddrs` may yield
/// several candidates, any one suffices.
fn dial(addr: &str) -> io::Result<Client> {
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
    for candidate in addr.to_socket_addrs()? {
        match Client::connect_timeout(&candidate, DIAL_TIMEOUT) {
            Ok(client) => return Ok(client),
            Err(e) => last = e,
        }
    }
    Err(last)
}

impl PostingSource for RemoteShards {
    /// Shard-major, matching
    /// [`ShardedIndex::postings`](trajsearch_core::ShardedIndex) exactly:
    /// shard 0's build-order records, then shard 1's, …
    fn postings(&self, q: Sym) -> impl Iterator<Item = Posting> + '_ {
        let list = self.fetch_postings(q);
        (0..list.len()).map(move |i| list[i])
    }

    /// From the store, so equal to the sum of the shards' list lengths.
    fn freq(&self, q: Sym) -> u32 {
        self.freqs.get(q as usize).copied().unwrap_or(0)
    }

    fn span(&self, id: TrajId) -> (f64, f64) {
        self.spans[id as usize]
    }

    /// The (cached) postings list filtered by the store's departures: the
    /// postings whose trajectory departs no later than `t_max`, in the
    /// shard-major order of [`postings`](PostingSource::postings).
    fn postings_departing_by(
        &self,
        q: Sym,
        t_max: f64,
    ) -> impl Iterator<Item = (f64, Posting)> + '_ {
        let list = self.fetch_postings(q);
        (0..list.len()).filter_map(move |i| {
            let posting = list[i];
            let departure = self.spans[posting.0 as usize].0;
            (departure <= t_max).then_some((departure, posting))
        })
    }

    /// Always: by-departure candidates need only postings and spans.
    fn has_temporal_postings(&self) -> bool {
        true
    }

    fn alphabet_size(&self) -> usize {
        self.alphabet_size
    }

    fn num_trajectories(&self) -> usize {
        self.spans.len()
    }

    fn total_postings(&self) -> usize {
        self.total_postings
    }

    fn size_bytes(&self) -> usize {
        self.size_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;
    use traj::{Trajectory, TrajectoryStore};
    use trajsearch_core::{IndexShard, ShardedIndex};
    use trajsearch_serve::{IndexShardSource, Server, ServerConfig, ServerHandle};

    const ALPHABET: usize = 16;

    /// Shuts the server down when dropped, so a failing assertion unwinds
    /// into the scope's join instead of hanging it.
    struct ShutdownOnDrop(ServerHandle);

    impl Drop for ShutdownOnDrop {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// Runs `body` against one loopback shard server holding all of
    /// `store`.
    fn with_one_shard(store: &TrajectoryStore, body: impl FnOnce(&[ShardEndpoint])) {
        let shard = IndexShard::build(store, ALPHABET, 0, 1);
        let source = IndexShardSource::new(&shard, 1);
        let server = Server::bind(ServerConfig::default()).expect("bind shard server");
        let handle = server.handle();
        let endpoints = [ShardEndpoint::new(handle.local_addr().to_string())];
        std::thread::scope(|scope| {
            let guard = ShutdownOnDrop(handle);
            let serving = scope.spawn(|| server.serve_shard(&source));
            body(&endpoints);
            drop(guard);
            serving.join().expect("serve thread").expect("serve ok");
        });
    }

    /// Lets a thread die holding `m`, which leaves it poisoned.
    fn poison<T: Send>(m: &Mutex<T>) {
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = m.lock();
                    // Unwinds like a panic, without the hook's stderr noise.
                    std::panic::resume_unwind(Box::new("died holding the lock"));
                })
                .join()
        });
        assert!(died.is_err() && m.is_poisoned());
    }

    #[test]
    fn a_thread_dying_with_a_lock_held_never_panics_a_later_fetch() {
        let store = testdata::store(30, 10, 3, ALPHABET);
        with_one_shard(&store, |endpoints| {
            let clean = RemoteShards::connect(endpoints, &store).expect("connect");
            let remote = RemoteShards::connect(endpoints, &store).expect("connect");
            let fetch = |r: &RemoteShards, q: Sym| {
                let departing: Vec<_> = r.postings_departing_by(q, 150.0).collect();
                (r.freq(q), r.postings(q).collect::<Vec<_>>(), departing)
            };
            // Warm half the symbols, then let a thread die in the cache and
            // in the degraded log.
            for q in 0..4 {
                fetch(&remote, q);
            }
            poison(&remote.postings_cache);
            poison(&remote.log);
            // Cached and fresh symbols alike get the right value, and nothing
            // degrades: those locks guard whole answers and whole events.
            for q in 0..8 {
                assert_eq!(fetch(&remote, q), fetch(&clean, q), "symbol {q}");
            }
            assert_eq!(remote.degraded_total(), 0);
            assert!(remote.degraded_since(0).is_none());

            // At a realised departure the bound is inclusive, as in-process.
            let mut local = ShardedIndex::build_parallel(&store, ALPHABET, 1);
            local.enable_temporal_postings();
            let t_max = store.get(21).departure();
            let sorted = |mut v: Vec<(f64, Posting)>| {
                v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                v
            };
            for q in 0..8 {
                let got = sorted(remote.postings_departing_by(q, t_max).collect());
                let want = sorted(local.postings_departing_by(q, t_max).collect());
                assert_eq!(got, want, "symbol {q}");
            }
            assert!((0..8).any(|q| {
                local
                    .postings_departing_by(q, t_max)
                    .any(|(departure, _)| departure == t_max)
            }));

            // A connection poisoned mid-RPC may hold half a frame: the shard
            // is dead from then on, and each later fetch is a degraded
            // partial that records exactly one event.
            poison(&remote.conns[0].client);
            for q in 8..10 {
                assert!(clean.freq(q) > 0, "symbol {q} occurs in the store");
                let before = remote.degraded_total();
                assert_eq!(remote.postings(q).count(), 0);
                assert_eq!(remote.degraded_total(), before + 1);
            }
            assert_eq!(clean.degraded_total(), 0);
        });
    }

    #[test]
    fn connect_refuses_a_store_symbol_past_the_shards_alphabet() {
        let store = testdata::store(30, 10, 3, ALPHABET);
        // The same store with one position of trajectory 7 out of range.
        let mut other = TrajectoryStore::new();
        for (id, t) in store.iter() {
            let mut path = t.path().to_vec();
            if id == 7 {
                path[2] = ALPHABET as Sym;
            }
            other.push(Trajectory::new(path, t.times().to_vec()));
        }
        with_one_shard(&store, |endpoints| {
            match RemoteShards::connect(endpoints, &other) {
                Err(DistribError::Topology(msg)) => assert!(msg.contains("alphabet"), "{msg}"),
                got => panic!("expected a topology error, got {got:?}"),
            }
            RemoteShards::connect(endpoints, &store).expect("the store the shard indexed");
        });
    }

    #[test]
    fn endpoint_conversions() {
        let a: ShardEndpoint = "127.0.0.1:9000".into();
        assert_eq!(a.addr(), "127.0.0.1:9000");
        assert_eq!(ShardEndpoint::new(String::from("h:1")).addr(), "h:1");
    }

    #[test]
    fn connect_rejects_an_empty_cluster() {
        match RemoteShards::connect(&[], &TrajectoryStore::new()) {
            Err(DistribError::Topology(msg)) => assert!(msg.contains("no shard endpoints")),
            other => panic!("expected a topology error, got {other:?}"),
        }
    }

    #[test]
    fn connect_fails_fast_on_a_dead_endpoint() {
        // A port nothing listens on: the dial must fail, not hang.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        }; // listener dropped — the port is free again
        let err = RemoteShards::connect(
            &[ShardEndpoint::new(dead.to_string())],
            &TrajectoryStore::new(),
        )
        .expect_err("nothing listens there");
        match err {
            DistribError::Connect { endpoint, .. } => {
                assert_eq!(endpoint, dead.to_string())
            }
            other => panic!("expected a connect error, got {other}"),
        }
    }
}
