//! The server: one acceptor thread, one reader thread per connection, and a
//! bounded worker pool — all `std` scoped threads, no async runtime.
//!
//! ```text
//!           accept()            try_push (bounded)           pop (blocks)
//! clients ──────────▶ readers ───────────────────▶ queue ──────────────▶ workers
//!    ▲                  │  overloaded / malformed /           │ deadline check at
//!    │                  ▼  shutting-down replies              ▼ dequeue, then
//!    └───────────── shared per-connection writer ◀── engine.execute
//! ```
//!
//! Design points, mirroring the batch engine's scheduling:
//!
//! * **Backpressure, never unbounded memory** — admission is a
//!   non-blocking push onto a bounded queue; a full queue is a typed
//!   `overloaded` reply, and per-frame size is capped by
//!   [`crate::proto::MAX_FRAME_BYTES`] inside the one frame reader both
//!   ends of a connection read through.
//! * **Deadlines start at admission** — the reader stamps arrival; workers
//!   re-check at dequeue (a query that aged out while queued is answered
//!   `deadline_exceeded` without touching the engine) and the engine checks
//!   cooperatively between verification groups
//!   ([`trajsearch_core::deadline`]).
//! * **Graceful drain** — [`ServerHandle::shutdown`] closes admission
//!   (readers answer `shutting_down`), workers finish every query already
//!   admitted and write its reply, then [`Server::serve`] returns a final
//!   [`MetricsSnapshot`]. In-flight queries are never dropped.
//! * **Scoped threads** — `serve` borrows the engine (and through it the
//!   trajectory store), so serving needs no `'static` gymnastics and no
//!   `Arc` over the dataset.

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::proto::{
    write_frame, DegradedInfo, FrameReader, Reply, Request, ServerError, ServerErrorKind,
    TraceEntry, WireSpan, PROTO_MAJOR, PROTO_MINOR,
};
use crate::queue::{BoundedQueue, PushError};
use crate::shard::{answer_shard_rpc, RpcDisposition, ShardSource};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use trajsearch_core::{Deadline, PostingSource, Query, QueryError, Response, SearchEngine};
use trajsearch_obs::{LogHistogram, PromText, TraceSink, Tracer};
use wed::WedInstance;

/// How a [`QueryHandler`] answered one query — the server maps each arm
/// onto the corresponding wire reply.
#[derive(Debug)]
pub enum Handled {
    /// A complete answer.
    Response(Response),
    /// The query ran but shards were missing; becomes a typed `degraded`
    /// reply (optionally carrying the partial answer).
    Degraded {
        degraded: DegradedInfo,
        response: Option<Response>,
    },
    /// The query was not answered (validation, deadline, …); becomes a
    /// typed `error` reply.
    Rejected(QueryError),
}

/// What [`Server::serve`] serves: anything that can answer a [`Query`]
/// under a [`Deadline`]. [`SearchEngine`] implements it directly (the
/// single-process server), and `trajsearch-distrib`'s coordinator
/// implements it over [`RemoteShards`-backed
/// engines](trajsearch_core::PostingSource) to add degraded-reply
/// tracking. Handlers run concurrently on the worker pool, hence `Sync`.
pub trait QueryHandler: Sync {
    fn handle(&self, query: &Query, deadline: Deadline) -> Handled;

    /// As [`handle`](QueryHandler::handle), but with a [`Tracer`] for
    /// per-phase span recording. The server calls this entry point for
    /// every query; the default ignores the tracer, so untraced handlers
    /// need not change. Handlers that can attribute time to phases (the
    /// engine, the distributed coordinator) override it.
    fn handle_traced(&self, query: &Query, deadline: Deadline, tracer: Tracer<'_>) -> Handled {
        let _ = tracer;
        self.handle(query, deadline)
    }
}

impl<M, I> QueryHandler for SearchEngine<'_, M, I>
where
    M: WedInstance + Sync,
    I: PostingSource + Sync,
{
    fn handle(&self, query: &Query, deadline: Deadline) -> Handled {
        self.handle_traced(query, deadline, Tracer::disabled())
    }

    fn handle_traced(&self, query: &Query, deadline: Deadline, tracer: Tracer<'_>) -> Handled {
        match self.execute(query, deadline, tracer) {
            Ok(response) => Handled::Response(response),
            Err(e) => Handled::Rejected(e),
        }
    }
}

/// Server configuration; the [`Default`] is a loopback server on an
/// ephemeral port sized to the host.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address. Port 0 picks an ephemeral port — read the real one
    /// from [`Server::local_addr`].
    pub addr: SocketAddr,
    /// Worker pool size (`0` means [`std::thread::available_parallelism`]).
    pub workers: usize,
    /// Admission queue bound. `0` is legal and rejects every query with
    /// `overloaded` — useful for drills and tests.
    pub queue_capacity: usize,
    /// Read timeout of the connection readers — how often a reader on an
    /// idle connection re-checks the shutdown flag, and hence how long
    /// shutdown can lag — and the back-off after a failed `accept`.
    /// Workers do not poll: they block on the queue and its close wakes
    /// them.
    pub poll_interval: Duration,
    /// Queries whose wall time reaches this threshold are captured — spans
    /// and all — in the slow-query log readable via the `trace` wire
    /// request. `None` (default) disables the log; with it armed, every
    /// query is traced (into the bounded sink) even when the client sent no
    /// `trace_id`.
    pub slow_query_threshold: Option<Duration>,
    /// How many slow-query captures the log retains (oldest evicted first).
    pub slow_log_capacity: usize,
    /// Span sink shared by tracing and the slow-query log. `None` (default)
    /// lets the server allocate a private sink; pass a shared
    /// [`TraceSink`] to read spans out-of-band or to share one ring across
    /// co-located servers.
    pub sink: Option<Arc<TraceSink>>,
}

/// Span capacity of the sink [`Server::bind`] allocates when
/// [`ServerConfig::sink`] is `None`.
pub const DEFAULT_SINK_SPANS: usize = 16 * 1024;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 0,
            queue_capacity: 1024,
            poll_interval: Duration::from_millis(20),
            slow_query_threshold: None,
            slow_log_capacity: 32,
            sink: None,
        }
    }
}

impl ServerConfig {
    fn resolve_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One admitted query waiting for (or held by) a worker.
struct Job {
    id: u64,
    query: Query,
    /// Admission time — the deadline epoch, so queueing counts against the
    /// budget.
    accepted_at: Instant,
    /// The wire frame's `trace_id`, if the client asked for tracing.
    trace_id: Option<u64>,
    writer: Arc<Mutex<TcpStream>>,
}

/// Per-phase latency histograms backing the `metrics_text` exposition —
/// fixed log2 buckets ([`LogHistogram`]), lock-free to record.
struct PhaseHistograms {
    /// Admission → dequeue, per dequeued query.
    queue: LogHistogram,
    /// Dequeue → reply written, per completed query.
    wall: LogHistogram,
    /// Engine phase times per completed query, from [`Response`] stats.
    mincand: LogHistogram,
    lookup: LogHistogram,
    verify: LogHistogram,
}

impl PhaseHistograms {
    fn new() -> PhaseHistograms {
        PhaseHistograms {
            queue: LogHistogram::new(),
            wall: LogHistogram::new(),
            mincand: LogHistogram::new(),
            lookup: LogHistogram::new(),
            verify: LogHistogram::new(),
        }
    }
}

/// Last-N ring of slow-query captures (threshold-armed via
/// [`ServerConfig::slow_query_threshold`]).
struct SlowLog {
    threshold_ns: u64,
    capacity: usize,
    entries: Mutex<VecDeque<TraceEntry>>,
}

impl SlowLog {
    /// The log is a log: a thread that died holding it left whole entries
    /// behind, so captures and reads recover the guard instead of failing.
    fn lock(&self) -> MutexGuard<'_, VecDeque<TraceEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a capture, evicting the oldest at capacity.
    fn push(&self, entry: TraceEntry) {
        let mut entries = self.lock();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The captures, oldest first.
    fn snapshot(&self) -> Vec<TraceEntry> {
        self.lock().iter().cloned().collect()
    }
}

/// State shared between acceptor, readers, workers and handles.
struct Shared {
    shutdown: AtomicBool,
    queue: BoundedQueue<Job>,
    metrics: Metrics,
    workers: usize,
    sink: Arc<TraceSink>,
    phases: PhaseHistograms,
    slow: Option<SlowLog>,
    /// Queries that crossed the slow-query threshold (counter for the
    /// exposition surface; the log itself holds only the last N).
    slow_queries: AtomicU64,
}

/// A bound-but-not-yet-serving server. [`Server::serve`] blocks the calling
/// thread; grab a [`ServerHandle`] first for shutdown and metrics.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    poll_interval: Duration,
}

/// Clonable remote control for a serving [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (with the real port when the config used 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown: admission closes immediately, queued
    /// and in-flight queries drain to completion, then
    /// [`Server::serve`] returns. Idempotent; returns without waiting for
    /// the drain (join the thread running `serve` to wait).
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.queue.close();
        // Wake the acceptor out of `accept()` with a throwaway connection;
        // if connect fails the listener is already gone, which is fine.
        let _ = TcpStream::connect(self.addr);
    }

    /// Live metrics snapshot, no round trip needed.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(
            self.shared.queue.len(),
            self.shared.queue.capacity(),
            self.shared.workers,
        )
    }

    /// The Prometheus text exposition, identical to the `metrics_text` wire
    /// reply, no round trip needed.
    pub fn metrics_text(&self) -> String {
        render_metrics_text(&self.shared)
    }
}

impl Server {
    /// Binds the listener. The server is not yet accepting — call
    /// [`serve`](Server::serve).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.resolve_workers();
        let sink = config
            .sink
            .unwrap_or_else(|| Arc::new(TraceSink::new(DEFAULT_SINK_SPANS)));
        let slow = config.slow_query_threshold.map(|threshold| SlowLog {
            threshold_ns: u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX),
            capacity: config.slow_log_capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        });
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                queue: BoundedQueue::new(config.queue_capacity),
                metrics: Metrics::new(),
                workers,
                sink,
                phases: PhaseHistograms::new(),
                slow,
                slow_queries: AtomicU64::new(0),
            }),
            poll_interval: config.poll_interval,
        })
    }

    /// The bound address (with the real port when the config used 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The remote control; clone freely across threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves queries until [`ServerHandle::shutdown`]. The handler is
    /// usually a [`SearchEngine`] (which implements [`QueryHandler`]
    /// directly); a distributed coordinator passes its own handler to add
    /// degraded-reply tracking. Blocks the calling thread (spawn it inside
    /// [`std::thread::scope`] to keep borrowing the engine); returns the
    /// final metrics snapshot once every admitted query has been answered
    /// and all threads have joined.
    pub fn serve<H: QueryHandler>(self, handler: &H) -> io::Result<MetricsSnapshot> {
        self.serve_role(&QueryRole { handler })
    }

    /// Serves the two shard RPCs (`shard_info`, `shard_postings`) from
    /// `source` until shutdown — the *shard-server role*. RPCs are answered inline
    /// on reader threads (no worker pool: every RPC is a bounded slice
    /// lookup); `query` frames get a typed `invalid_query` pointing the
    /// client at a coordinator.
    pub fn serve_shard<S: ShardSource>(self, source: &S) -> io::Result<MetricsSnapshot> {
        self.serve_role(&ShardRole { source })
    }

    fn serve_role<R: Role>(self, role: &R) -> io::Result<MetricsSnapshot> {
        let Server {
            listener,
            addr,
            shared,
            poll_interval: poll,
        } = self;
        let handle = ServerHandle {
            addr,
            shared: Arc::clone(&shared),
        };
        let shared = &*handle.shared;
        let accept_result = std::thread::scope(|scope| {
            role.spawn_pool(scope, shared);
            // Transient accept() failures must not kill a long-running
            // server: ECONNABORTED/ECONNRESET mean one *client* vanished
            // mid-handshake (accept(2) documents these as retryable), and
            // resource exhaustion (EMFILE/ENFILE) clears when connections
            // close. Only a persistent failure streak is listener death.
            let mut consecutive_errors = 0u32;
            const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 16;
            let accept_result = loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        consecutive_errors = 0;
                        if shared.shutdown.load(Ordering::SeqCst) {
                            // The shutdown wake-up connection (or a client
                            // racing it) — drop it and stop accepting.
                            break Ok(());
                        }
                        // Replies are small frames answered immediately;
                        // Nagle + the peer's delayed ACK would add ~40ms to
                        // every request/reply round trip without this.
                        stream.set_nodelay(true).ok();
                        scope.spawn(move || connection_loop(stream, shared, poll, role));
                    }
                    Err(_) if shared.shutdown.load(Ordering::SeqCst) => break Ok(()),
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted
                                | io::ErrorKind::ConnectionAborted
                                | io::ErrorKind::ConnectionReset
                        ) =>
                    {
                        continue
                    }
                    Err(e) => {
                        consecutive_errors += 1;
                        if consecutive_errors < MAX_CONSECUTIVE_ACCEPT_ERRORS {
                            // Likely fd exhaustion or another transient
                            // condition: back off one poll tick and retry.
                            std::thread::sleep(poll);
                            continue;
                        }
                        // Listener is persistently broken: fail, but still
                        // drain what was admitted so no client hangs.
                        shared.shutdown.store(true, Ordering::SeqCst);
                        shared.queue.close();
                        break Err(e);
                    }
                }
            };
            drop(listener);
            accept_result
            // Scope join: readers exit on their next poll tick (shutdown
            // flag), workers once the closed queue is empty — the graceful
            // drain.
        });
        accept_result?;
        Ok(handle.metrics())
    }
}

/// A server personality: what runs alongside the acceptor, and how frames
/// other than the common `stats`/`hello` are answered.
trait Role: Sync {
    /// Spawns any pool threads (the query role's workers) inside the serve
    /// scope; the shard role spawns nothing.
    fn spawn_pool<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        shared: &'env Shared,
    );

    /// Handles one decoded request. `arrived` is the frame's read-off-the-
    /// socket time — the deadline epoch for whatever budget it carries.
    fn dispatch(
        &self,
        request: Request,
        arrived: Instant,
        shared: &Shared,
        writer: &Arc<Mutex<TcpStream>>,
    );
}

/// The query-serving personality (PR 5): queries go through the bounded
/// admission queue to the worker pool; shard RPCs are refused.
struct QueryRole<'h, H: QueryHandler> {
    handler: &'h H,
}

impl<H: QueryHandler> Role for QueryRole<'_, H> {
    fn spawn_pool<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        shared: &'env Shared,
    ) {
        for _ in 0..shared.workers {
            let handler = self.handler;
            scope.spawn(move || worker_loop(shared, handler));
        }
    }

    fn dispatch(
        &self,
        request: Request,
        arrived: Instant,
        shared: &Shared,
        writer: &Arc<Mutex<TcpStream>>,
    ) {
        let Request::Query {
            id,
            query,
            trace_id,
        } = request
        else {
            Metrics::bump(&shared.metrics.invalid);
            reject(
                writer,
                Some(request.id()),
                ServerErrorKind::InvalidQuery,
                "shard RPCs are answered by shard servers, not query servers",
            );
            return;
        };
        let job = Job {
            id,
            query,
            accepted_at: arrived,
            trace_id,
            writer: Arc::clone(writer),
        };
        match shared.queue.try_push(job) {
            Ok(()) => Metrics::bump(&shared.metrics.admitted),
            Err(PushError::Full(job)) => {
                Metrics::bump(&shared.metrics.rejected_overload);
                reject(
                    writer,
                    Some(job.id),
                    ServerErrorKind::Overloaded,
                    format!(
                        "admission queue full (capacity {})",
                        shared.queue.capacity()
                    ),
                );
            }
            Err(PushError::Closed(job)) => {
                Metrics::bump(&shared.metrics.rejected_shutdown);
                reject(
                    writer,
                    Some(job.id),
                    ServerErrorKind::ShuttingDown,
                    "server is draining; no new queries admitted",
                );
            }
        }
    }
}

/// The shard-serving personality: shard RPCs answered inline on reader
/// threads; queries are refused.
struct ShardRole<'s, S: ShardSource> {
    source: &'s S,
}

impl<S: ShardSource> Role for ShardRole<'_, S> {
    fn spawn_pool<'scope, 'env>(
        &'env self,
        _scope: &'scope std::thread::Scope<'scope, 'env>,
        _shared: &'env Shared,
    ) {
    }

    fn dispatch(
        &self,
        request: Request,
        arrived: Instant,
        shared: &Shared,
        writer: &Arc<Mutex<TcpStream>>,
    ) {
        if let Request::Query { id, .. } = &request {
            Metrics::bump(&shared.metrics.invalid);
            reject(
                writer,
                Some(*id),
                ServerErrorKind::InvalidQuery,
                "this is a shard server; send queries to a coordinator",
            );
            return;
        }
        // A coordinator-stamped trace id yields a serve-side span so the
        // stitched timeline shows time inside the shard server (vs the
        // coordinator's own `shard_rpc` span, which includes the network).
        let trace_id = request.trace_id().unwrap_or(0);
        let rpc_id = request.id();
        let (reply, disposition) = answer_shard_rpc(self.source, request, arrived);
        if trace_id != 0 {
            shared
                .sink
                .record_interval(trace_id, 0, "rpc_serve", rpc_id, arrived, Instant::now());
        }
        Metrics::bump(match disposition {
            RpcDisposition::Ok => &shared.metrics.completed,
            RpcDisposition::TimedOut => &shared.metrics.timed_out,
            RpcDisposition::Invalid => &shared.metrics.invalid,
        });
        send_reply(writer, &reply);
    }
}

/// Writes one reply frame on a connection's shared writer. A send failure
/// means the client vanished; the query's work is simply discarded.
///
/// A writer poisoned by a thread that died mid-write may have left half a
/// frame on the stream. The reply is dropped and the socket shut down, so
/// the client sees EOF — never a desynchronised stream.
fn send_reply(writer: &Mutex<TcpStream>, reply: &Reply) {
    let json = reply.to_json();
    match writer.lock() {
        Ok(mut w) => {
            let _ = write_frame(&mut *w, json).and_then(|()| w.flush());
        }
        Err(poisoned) => {
            let _ = poisoned.into_inner().shutdown(Shutdown::Both);
        }
    }
}

/// Answers a request with a typed error; `id` is `None` when the offending
/// frame carried none.
fn reject(
    writer: &Mutex<TcpStream>,
    id: Option<u64>,
    kind: ServerErrorKind,
    message: impl Into<String>,
) {
    let error = ServerError::new(kind, message);
    send_reply(writer, &Reply::Error { id, error });
}

/// Per-connection reader: reads frames, answers `stats`/`hello` and
/// protocol errors inline, hands everything else to the role.
fn connection_loop<R: Role>(stream: TcpStream, shared: &Shared, poll: Duration, role: &R) {
    // Read timeouts turn the blocking reader into a shutdown-aware poller.
    if stream.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => return,
    };
    let mut frames = FrameReader::new(stream);
    // Shutdown stops the reading of new requests. Replies for this
    // connection's in-flight queries are written by workers through
    // `writer`, which stays alive inside their jobs until drained.
    while !shared.shutdown.load(Ordering::SeqCst) {
        match frames.read_frame() {
            Ok(Some(frame)) => match std::str::from_utf8(&frame) {
                Ok(text) => handle_frame(text, shared, &writer, role),
                // Invalid UTF-8 is junk like any other: a typed `malformed`
                // reply, on a connection that stays open.
                Err(e) => {
                    Metrics::bump(&shared.metrics.malformed);
                    let message = format!("frame is not valid UTF-8: {e}");
                    reject(&writer, None, ServerErrorKind::Malformed, message);
                }
            },
            Ok(None) => return, // client closed
            Err(e) => match e.kind() {
                // Poll tick: the partial frame stays in `frames`.
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {}
                io::ErrorKind::InvalidData => {
                    Metrics::bump(&shared.metrics.malformed);
                    reject(&writer, None, ServerErrorKind::Malformed, e.to_string());
                    return; // close the connection: framing is unrecoverable
                }
                _ => return,
            },
        }
    }
}

fn handle_frame<R: Role>(text: &str, shared: &Shared, writer: &Arc<Mutex<TcpStream>>, role: &R) {
    if text.trim().is_empty() {
        return; // tolerate blank keep-alive lines
    }
    let arrived = Instant::now();
    let request = match Request::from_json(text) {
        Ok(request) => request,
        Err((id, error)) => {
            Metrics::bump(if error.kind == ServerErrorKind::InvalidQuery {
                &shared.metrics.invalid
            } else {
                &shared.metrics.malformed
            });
            send_reply(writer, &Reply::Error { id, error });
            return;
        }
    };
    // stats, hello, trace and metrics_text are role-independent and
    // answered inline (shard servers expose their spans and metrics too —
    // cross-process stitching reads each process's `trace` surface).
    match request {
        Request::Trace { id, trace_id } => {
            let entries = match trace_id {
                Some(t) => trace_entries_for(shared, t),
                None => slow_log_entries(shared),
            };
            send_reply(writer, &Reply::Trace { id, entries });
        }
        Request::MetricsText { id } => {
            let text = render_metrics_text(shared);
            send_reply(writer, &Reply::MetricsText { id, text });
        }
        Request::Stats { id } => {
            let stats = shared.metrics.snapshot(
                shared.queue.len(),
                shared.queue.capacity(),
                shared.workers,
            );
            send_reply(writer, &Reply::Stats { id, stats });
        }
        Request::Hello { id, major, .. } => {
            if major == PROTO_MAJOR {
                let metrics = crate::proto::SUPPORTED_METRICS
                    .iter()
                    .map(|m| m.to_string())
                    .collect();
                send_reply(
                    writer,
                    &Reply::Hello {
                        id,
                        major: PROTO_MAJOR,
                        minor: PROTO_MINOR,
                        metrics,
                    },
                );
            } else {
                Metrics::bump(&shared.metrics.malformed);
                reject(
                    writer,
                    Some(id),
                    ServerErrorKind::UnsupportedVersion,
                    format!("client speaks major {major}; this server speaks {PROTO_MAJOR}"),
                );
            }
        }
        other => role.dispatch(other, arrived, shared, writer),
    }
}

/// Worker: claim → dequeue-time deadline check → handler (with cooperative
/// checkpoints) → reply.
fn worker_loop<H: QueryHandler>(shared: &Shared, handler: &H) {
    while let Some(job) = shared.queue.pop() {
        process(job, shared, handler);
    }
}

fn process<H: QueryHandler>(job: Job, shared: &Shared, handler: &H) {
    let deadline = Deadline::for_query(job.accepted_at, job.query.deadline_ms());
    let dequeued = Instant::now();
    let queue_ns =
        u64::try_from(dequeued.duration_since(job.accepted_at).as_nanos()).unwrap_or(u64::MAX);
    shared.metrics.record_queue_wait(queue_ns);
    shared.phases.queue.record(queue_ns);
    // Dequeue-time check: a query that aged out while queued is answered
    // without paying for any engine work.
    if deadline.expired() {
        Metrics::bump(&shared.metrics.timed_out);
        reject(
            &job.writer,
            Some(job.id),
            ServerErrorKind::DeadlineExceeded,
            "deadline expired while queued",
        );
        return;
    }
    // Wire-traced queries record under the client's id; an armed slow-query
    // log traces everything else under a server-allocated id so a capture
    // has spans to show. Untraced otherwise (trace id 0 disables recording).
    let trace_id = match job.trace_id {
        Some(t) => t,
        None if shared.slow.is_some() => shared.sink.next_trace_id(),
        None => 0,
    };
    let tracer = shared.sink.tracer(trace_id);
    if tracer.enabled() {
        shared
            .sink
            .record_interval(trace_id, 0, "queue_wait", 0, job.accepted_at, dequeued);
    }
    let t0 = Instant::now();
    match handler.handle_traced(&job.query, deadline, tracer) {
        Handled::Response(response) => {
            let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let cpu_ns = u64::try_from(response.stats.total_time().as_nanos()).unwrap_or(u64::MAX);
            shared.metrics.record_latency(wall_ns, cpu_ns);
            record_phase_histograms(shared, wall_ns, &response);
            maybe_capture_slow(shared, trace_id, job.id, wall_ns);
            Metrics::bump(&shared.metrics.completed);
            send_reply(
                &job.writer,
                &Reply::Response {
                    id: job.id,
                    response,
                },
            );
        }
        Handled::Degraded { degraded, response } => {
            Metrics::bump(&shared.metrics.degraded);
            send_reply(
                &job.writer,
                &Reply::Degraded {
                    id: job.id,
                    degraded,
                    response,
                },
            );
        }
        Handled::Rejected(QueryError::DeadlineExceeded) => {
            Metrics::bump(&shared.metrics.timed_out);
            reject(
                &job.writer,
                Some(job.id),
                ServerErrorKind::DeadlineExceeded,
                "deadline expired during execution",
            );
        }
        Handled::Rejected(e) => {
            Metrics::bump(&shared.metrics.invalid);
            reject(
                &job.writer,
                Some(job.id),
                ServerErrorKind::InvalidQuery,
                e.to_string(),
            );
        }
    }
}

fn record_phase_histograms(shared: &Shared, wall_ns: u64, response: &Response) {
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    shared.phases.wall.record(wall_ns);
    shared
        .phases
        .mincand
        .record(ns(response.stats.mincand_time));
    shared.phases.lookup.record(ns(response.stats.lookup_time));
    shared.phases.verify.record(ns(response.stats.verify_time));
}

/// Captures a completed query into the slow-query log when its wall time
/// crossed the threshold. The capture snapshots the trace's retained spans
/// immediately, so later sink evictions can't hollow out a log entry.
fn maybe_capture_slow(shared: &Shared, trace_id: u64, query_id: u64, wall_ns: u64) {
    let Some(slow) = &shared.slow else { return };
    if wall_ns < slow.threshold_ns || trace_id == 0 {
        return;
    }
    shared.slow_queries.fetch_add(1, Ordering::Relaxed);
    let entry = TraceEntry {
        trace_id,
        query_id: Some(query_id),
        wall_ns,
        spans: wire_spans(&shared.sink.spans_for(trace_id)),
    };
    slow.push(entry);
}

fn wire_spans(spans: &[trajsearch_obs::SpanRecord]) -> Vec<WireSpan> {
    spans
        .iter()
        .map(|s| WireSpan {
            span_id: s.span_id,
            parent_id: s.parent_id,
            name: s.name.to_string(),
            detail: s.detail,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        })
        .collect()
}

/// Answers `trace` with an explicit id: this process's retained spans for
/// that trace (empty `entries` when none survive — evicted or never
/// recorded here).
fn trace_entries_for(shared: &Shared, trace_id: u64) -> Vec<TraceEntry> {
    let spans = shared.sink.spans_for(trace_id);
    if spans.is_empty() {
        return Vec::new();
    }
    let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = spans.iter().map(|s| s.end_ns()).max().unwrap_or(start);
    vec![TraceEntry {
        trace_id,
        query_id: None,
        wall_ns: end.saturating_sub(start),
        spans: wire_spans(&spans),
    }]
}

/// Answers `trace` without an id: the slow-query log, oldest first.
fn slow_log_entries(shared: &Shared) -> Vec<TraceEntry> {
    shared
        .slow
        .as_ref()
        .map_or_else(Vec::new, SlowLog::snapshot)
}

/// Renders the Prometheus text exposition: every admission counter, queue
/// gauges, trace-sink counters, and the per-phase log2 histograms.
fn render_metrics_text(shared: &Shared) -> String {
    let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let m = &shared.metrics;
    let mut p = PromText::new();
    p.counter(
        "trajsearch_queries_admitted_total",
        "Queries accepted into the admission queue",
        c(&m.admitted),
    );
    p.counter(
        "trajsearch_queries_completed_total",
        "Queries answered with a full response",
        c(&m.completed),
    );
    p.counter(
        "trajsearch_queries_degraded_total",
        "Queries answered degraded (missing shards)",
        c(&m.degraded),
    );
    p.counter(
        "trajsearch_queries_timed_out_total",
        "Queries that exceeded their deadline",
        c(&m.timed_out),
    );
    p.counter(
        "trajsearch_queries_rejected_overload_total",
        "Queries refused because the admission queue was full",
        c(&m.rejected_overload),
    );
    p.counter(
        "trajsearch_queries_rejected_shutdown_total",
        "Queries refused during graceful drain",
        c(&m.rejected_shutdown),
    );
    p.counter(
        "trajsearch_requests_invalid_total",
        "Frames rejected as invalid queries",
        c(&m.invalid),
    );
    p.counter(
        "trajsearch_requests_malformed_total",
        "Frames rejected as malformed",
        c(&m.malformed),
    );
    p.counter(
        "trajsearch_slow_queries_total",
        "Queries that crossed the slow-query threshold",
        shared.slow_queries.load(Ordering::Relaxed),
    );
    p.counter(
        "trajsearch_trace_spans_recorded_total",
        "Spans recorded into the trace sink",
        shared.sink.recorded(),
    );
    p.counter(
        "trajsearch_trace_spans_evicted_total",
        "Spans overwritten in the bounded trace sink",
        shared.sink.evicted(),
    );
    p.gauge(
        "trajsearch_queue_depth",
        "Queries currently waiting in the admission queue",
        shared.queue.len() as f64,
    );
    p.gauge(
        "trajsearch_queue_capacity",
        "Admission queue bound",
        shared.queue.capacity() as f64,
    );
    p.gauge(
        "trajsearch_workers",
        "Worker pool size",
        shared.workers as f64,
    );
    p.histogram(
        "trajsearch_queue_wait_ns",
        "Admission to dequeue, nanoseconds",
        &shared.phases.queue.snapshot(),
    );
    p.histogram(
        "trajsearch_query_wall_ns",
        "Dequeue to reply, nanoseconds",
        &shared.phases.wall.snapshot(),
    );
    p.histogram(
        "trajsearch_phase_mincand_ns",
        "mincandidate filter phase, nanoseconds",
        &shared.phases.mincand.snapshot(),
    );
    p.histogram(
        "trajsearch_phase_lookup_ns",
        "Posting-list lookup phase, nanoseconds",
        &shared.phases.lookup.snapshot(),
    );
    p.histogram(
        "trajsearch_phase_verify_ns",
        "Verification phase, nanoseconds",
        &shared.phases.verify.snapshot(),
    );
    p.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// Poisons `lock` with a scoped thread that dies holding it.
    fn poison<T: Send>(lock: &Mutex<T>) {
        std::thread::scope(|scope| {
            let died = scope.spawn(|| {
                let _guard = lock.lock();
                panic!("dies holding the lock");
            });
            assert!(died.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    #[test]
    fn a_poisoned_writer_drops_the_reply_and_closes_the_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let writer = Mutex::new(listener.accept().expect("accept").0);
        let reply = |id| Reply::MetricsText {
            id,
            text: "x 1\n".into(),
        };
        send_reply(&writer, &reply(1));
        poison(&writer);
        send_reply(&writer, &reply(2));
        // The first reply arrives whole; the second is dropped and the
        // stream ends instead.
        let mut received = String::new();
        client
            .read_to_string(&mut received)
            .expect("EOF, not a hang");
        assert_eq!(received, format!("{}\n", reply(1).to_json()));
    }

    #[test]
    fn a_poisoned_slow_log_keeps_capturing_and_answering() {
        let slow = SlowLog {
            threshold_ns: 0,
            capacity: 2,
            entries: Mutex::new(VecDeque::new()),
        };
        let entry = |trace_id| TraceEntry {
            trace_id,
            query_id: Some(trace_id),
            wall_ns: 1,
            spans: Vec::new(),
        };
        slow.push(entry(1));
        poison(&slow.entries);
        for t in 2..=3 {
            slow.push(entry(t));
        }
        assert_eq!(slow.snapshot(), [entry(2), entry(3)]);
    }
}
