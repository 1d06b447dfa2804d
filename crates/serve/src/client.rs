//! Synchronous client for the serve protocol, with pipelined batch
//! submission and typed per-query outcomes.
//!
//! [`Client::query`] is one request / one reply. [`Client::query_batch`]
//! pipelines a whole workload, keeping a bounded window of requests in
//! flight ahead of the replies it reads, and collects replies **by id** —
//! the server's workers finish out of order — returning them in
//! submission order. One TCP connection carries the whole conversation; a
//! transport failure is a [`ClientError`], while each query's server-side
//! fate is a typed [`QueryOutcome`] *value* so a batch can mix answers,
//! degraded answers and rejections. The client never re-submits a query:
//! an `overloaded` rejection is the caller's to retry.

use crate::metrics::MetricsSnapshot;
use crate::proto::{
    write_frame, DegradedInfo, FrameReader, Reply, Request, ServerError, ShardInfo, TraceEntry,
    PROTO_MAJOR, PROTO_MINOR,
};
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use trajsearch_core::{Query, Response};

/// A client-side failure. `Server` wraps the typed per-query error for the
/// single-query convenience APIs; transport and protocol failures poison
/// the connection (drop the client and reconnect).
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server spoke something that is not the protocol (or closed
    /// mid-conversation).
    Protocol(String),
    /// The server answered with a typed error frame.
    Server(ServerError),
    /// The server answered, but with a degraded reply (shards missing) —
    /// surfaced as an error only by the strict single-query [`Client::query`];
    /// [`Client::query_batch`] returns it as a [`QueryOutcome`] value.
    Degraded(DegradedInfo),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Degraded(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One query's fate inside a [`Client::query_batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// A complete answer.
    Answered(Response),
    /// The query ran on a coordinator that lost shards; the partial answer
    /// (when the server chose to include one) plus the typed account of
    /// what is missing.
    Degraded {
        degraded: DegradedInfo,
        response: Option<Response>,
    },
    /// A typed server-side rejection (overload, deadline, invalid, …).
    Rejected(ServerError),
}

impl QueryOutcome {
    /// The complete answer, if this outcome is one.
    pub fn response(&self) -> Option<&Response> {
        match self {
            QueryOutcome::Answered(r) => Some(r),
            _ => None,
        }
    }

    /// The typed rejection, if this outcome is one.
    pub fn rejection(&self) -> Option<&ServerError> {
        match self {
            QueryOutcome::Rejected(e) => Some(e),
            _ => None,
        }
    }
}

/// Maximum requests in flight per connection during
/// [`Client::query_batch`]. Deep enough to keep every worker busy and
/// amortize flushes; bounded so the pipeline can never wedge both sockets'
/// buffers with unread frames.
const PIPELINE_WINDOW: usize = 64;

/// One connection to a serve front-end (query server, coordinator or shard
/// server — the framing and the `stats`/`hello` surface are shared).
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: FrameReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects (blocking, no read timeout: replies to admitted queries
    /// always arrive — the server's drain guarantee).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a dial timeout — what a fan-out client uses so one
    /// dead shard endpoint cannot block the whole cluster connect.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect_timeout(addr, timeout)?)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true).ok();
        let reader = FrameReader::new(stream.try_clone()?);
        Ok(Client {
            writer: BufWriter::new(stream),
            reader,
            next_id: 1,
        })
    }

    /// Bounds every reply wait; `None` restores blocking reads. With a
    /// timeout set, a slow or dead server surfaces as
    /// [`ClientError::Io`] (`WouldBlock`/`TimedOut`) instead of a hang —
    /// the per-shard deadline mechanism of the fan-out client.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Allocates the next request id — for callers driving
    /// [`send_request`](Client::send_request) /
    /// [`recv_reply`](Client::recv_reply) directly.
    pub fn allocate_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Writes one request frame without flushing — callers batch frames
    /// and [`flush`](Client::flush) once.
    pub fn send_request(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, request.to_json())?;
        Ok(())
    }

    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one reply frame (respecting any read timeout; a frame the
    /// timeout interrupted is resumed by the next call).
    pub fn recv_reply(&mut self) -> Result<Reply, ClientError> {
        let frame = self
            .reader
            .read_frame()?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        let text = std::str::from_utf8(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Reply::from_json(text).map_err(ClientError::Protocol)
    }

    /// The one single-reply path: sends `make(id)` under a fresh id and
    /// returns the reply to it. Strict: a typed error frame is
    /// [`ClientError::Server`] and a degraded reply
    /// [`ClientError::Degraded`], whatever the request; a reply under
    /// another id is a protocol error, as is (at the caller, through
    /// [`unexpected`]) one of another shape.
    fn call(&mut self, make: impl FnOnce(u64) -> Request) -> Result<Reply, ClientError> {
        let id = self.allocate_id();
        self.send_request(&make(id))?;
        self.flush()?;
        match self.recv_reply()? {
            Reply::Error { error, .. } => Err(ClientError::Server(error)),
            Reply::Degraded { degraded, .. } => Err(ClientError::Degraded(degraded)),
            reply if reply.id() == Some(id) => Ok(reply),
            other => Err(unexpected(other)),
        }
    }

    /// Version negotiation: announces [`PROTO_MAJOR`]/[`PROTO_MINOR`],
    /// returns the server's `(major, minor)`. A major mismatch comes back
    /// as [`ClientError::Server`] with kind `unsupported_version`.
    pub fn hello(&mut self) -> Result<(u32, u32), ClientError> {
        let (major, minor) = (PROTO_MAJOR, PROTO_MINOR);
        match self.call(|id| Request::Hello { id, major, minor })? {
            Reply::Hello { major, minor, .. } => Ok((major, minor)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches a shard server's self-description.
    pub fn shard_info(&mut self) -> Result<ShardInfo, ClientError> {
        match self.call(|id| Request::ShardInfo { id })? {
            Reply::ShardInfo { info, .. } => Ok(info),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one query and waits for its reply. Strict: a degraded reply
    /// or typed rejection is an `Err` here — use
    /// [`query_batch`](Client::query_batch) to observe outcomes as values.
    pub fn query(&mut self, query: &Query) -> Result<Response, ClientError> {
        self.query_with(query, None)
    }

    /// Pipelines the whole workload on this connection: request frames are
    /// written ahead of the replies being read — but never more than
    /// `PIPELINE_WINDOW` (64) ahead, so the client is always draining
    /// replies whenever the window is full. (Writing an unbounded batch
    /// before reading anything can deadlock once both sockets' kernel
    /// buffers fill: the server blocks writing replies nobody reads, the
    /// client blocks writing requests nobody accepts.) Replies are
    /// collected by id and returned in submission order; per-query outcomes
    /// are independent — one query's rejection does not fail its neighbors.
    pub fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, ClientError> {
        let ids: Vec<u64> = queries.iter().map(|_| self.allocate_id()).collect();

        let mut slots: Vec<Option<QueryOutcome>> = vec![None; queries.len()];
        let mut sent = 0usize;
        let mut remaining = queries.len();
        while remaining > 0 {
            // Top the window up, then flush once for the burst.
            if sent < queries.len() && sent - (queries.len() - remaining) < PIPELINE_WINDOW {
                while sent < queries.len() && sent - (queries.len() - remaining) < PIPELINE_WINDOW {
                    self.send_request(&Request::Query {
                        id: ids[sent],
                        query: queries[sent].clone(),
                        trace_id: None,
                    })?;
                    sent += 1;
                }
                self.flush()?;
            }
            let reply = self.recv_reply()?;
            let (id, outcome) = match reply {
                Reply::Response { id, response } => (id, QueryOutcome::Answered(response)),
                Reply::Degraded {
                    id,
                    degraded,
                    response,
                } => (id, QueryOutcome::Degraded { degraded, response }),
                Reply::Error {
                    id: Some(id),
                    error,
                } => (id, QueryOutcome::Rejected(error)),
                Reply::Error { id: None, error } => {
                    // The server could not attribute the failure to a
                    // request — the conversation is broken.
                    return Err(ClientError::Protocol(format!(
                        "unattributed server error: {error}"
                    )));
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected {other:?} during a query batch"
                    )));
                }
            };
            let slot = ids
                .iter()
                .position(|&want| want == id)
                .ok_or_else(|| ClientError::Protocol(format!("reply for unknown id {id}")))?;
            if slots[slot].replace(outcome).is_some() {
                return Err(ClientError::Protocol(format!(
                    "duplicate reply for id {id}"
                )));
            }
            remaining -= 1;
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all slots filled when remaining hits zero"))
            .collect())
    }

    /// Fetches the server's metrics snapshot over the wire.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(|id| Request::Stats { id })? {
            Reply::Stats { stats, .. } => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one query stamped with `trace_id` (obtain one from
    /// [`TraceSink::next_trace_id`](trajsearch_obs::TraceSink::next_trace_id)
    /// or any per-client unique nonzero source) and waits for its reply.
    /// Afterwards [`Client::trace`] with the same id fetches the server's
    /// per-phase spans; a coordinator forwards the id into every shard RPC,
    /// so the same id read from each shard server stitches the distributed
    /// timeline. Requires a minor ≥ 3 server (older ones reject the frame
    /// as malformed).
    pub fn query_traced(&mut self, query: &Query, trace_id: u64) -> Result<Response, ClientError> {
        self.query_with(query, Some(trace_id))
    }

    /// [`query`](Client::query) and [`query_traced`](Client::query_traced):
    /// one query frame through [`call`](Client::call).
    fn query_with(
        &mut self,
        query: &Query,
        trace_id: Option<u64>,
    ) -> Result<Response, ClientError> {
        let request = |id| Request::Query {
            id,
            query: query.clone(),
            trace_id,
        };
        match self.call(request)? {
            Reply::Response { response, .. } => Ok(response),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches trace timelines. `Some(trace_id)` returns that trace's spans
    /// as retained by *this* server (one entry, or none when nothing
    /// survives); `None` returns the slow-query log (empty unless the
    /// server was configured with
    /// [`slow_query_threshold`](crate::ServerConfig::slow_query_threshold)).
    pub fn trace(&mut self, trace_id: Option<u64>) -> Result<Vec<TraceEntry>, ClientError> {
        match self.call(|id| Request::Trace { id, trace_id })? {
            Reply::Trace { entries, .. } => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the Prometheus text exposition (`metrics_text` request).
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.call(|id| Request::MetricsText { id })? {
            Reply::MetricsText { text, .. } => Ok(text),
            other => Err(unexpected(other)),
        }
    }
}

/// A well-formed reply that is not an answer to the request it follows.
fn unexpected(reply: Reply) -> ClientError {
    ClientError::Protocol(format!("unexpected reply {reply:?}"))
}
