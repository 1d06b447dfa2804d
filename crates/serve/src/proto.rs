//! The wire protocol: newline-delimited JSON frames over TCP.
//!
//! One frame is one JSON document followed by `\n`. The core codec
//! ([`trajsearch_core::json`]) never emits a raw newline (control
//! characters are `\u`-escaped inside strings), so the framing is
//! unambiguous and a newline scan recovers frame boundaries. Both ends read
//! through one frame reader; a frame whose content exceeds
//! [`MAX_FRAME_BYTES`] is rejected before parsing — the peer controls the
//! bytes, the reader bounds the memory.
//!
//! Every frame and payload below is declared **once**, through
//! [`wire_enum!`]/[`wire_struct!`] (see [`trajsearch_core::json`] for the
//! rules): adding a frame or a field is one declaration. An additive field
//! must be an `Option` or `= default` — that is what keeps a minor bump
//! compatible — and `null` means absent on every optional key.
//!
//! Requests (client → server):
//!
//! ```json
//! {"type":"query","id":7,"query":{ ...Query::to_json()... }}
//! {"type":"stats","id":8}
//! ```
//!
//! Replies (server → client), correlated by `id` — pipelined requests may
//! be answered **out of submission order**, workers finish when they
//! finish:
//!
//! ```json
//! {"type":"response","id":7,"response":{ ...Response::to_json()... }}
//! {"type":"error","id":7,"error":{"kind":"overloaded","message":"..."}}
//! {"type":"stats","id":8,"stats":{ ...MetricsSnapshot... }}
//! ```
//!
//! An error frame's `id` is `null` when the offending frame was too
//! malformed to carry one.
//!
//! # Protocol versioning
//!
//! Every frame carries the protocol-version field `"v"` (the
//! `proto_version` of the envelope), holding the **major** version the
//! sender speaks — currently [`PROTO_MAJOR`]. The compatibility rule:
//!
//! * **Absent `"v"`** means major 1 — frames from pre-versioning (PR 5)
//!   peers keep working, and because the decoder has always ignored unknown
//!   object keys, versioned frames parse on old peers too.
//! * **Same major, any minor** is compatible. Minors only *add* frame
//!   types and optional fields; a peer that doesn't know a frame type
//!   answers it `malformed`, never mis-parses it. Minors are discovered via
//!   `hello`, not carried per frame.
//! * **Different major** is incompatible: the receiver rejects the frame
//!   with the typed [`ServerErrorKind::UnsupportedVersion`] — distinct from
//!   `malformed`, so clients can tell "speak an older protocol" apart from
//!   "you sent garbage".
//!
//! Minors 4 and 5 are the two minors that removed frames, all of them
//! shard RPCs whose answers a coordinator now derives from the store it
//! holds and the postings it fetches. Only this workspace's coordinator
//! ever sent them. Minor 4 retired `shard_freqs` and `shard_spans`; minor 5
//! retired `shard_departing_by` and the `has_temporal_postings` key of
//! [`ShardInfo`]. A shard server answers a retired frame `malformed`, with
//! its `id` echoed, and keeps serving the connection. An older coordinator
//! therefore fails `connect` with a typed error, never with a wrong answer:
//! a minor-3 one when it pages the span table, a minor-4 one when it
//! decodes a `shard_info` reply without `has_temporal_postings`.
//!
//! Peers that care negotiate up front with `hello` (and get the server's
//! `major`/`minor` back); peers that don't just send frames and rely on the
//! typed rejection:
//!
//! ```json
//! {"v":1,"type":"hello","id":1,"major":1,"minor":1}
//! {"v":1,"type":"hello","id":1,"major":1,"minor":1}
//! ```
//!
//! # Shard RPCs
//!
//! A server in the *shard-server role* (`Server::serve_shard`) exposes one
//! shard of the partitioned index over the same framing — the remote half
//! of the [`trajsearch_core::PostingSource`] contract. Data RPCs carry the
//! shard's build `epoch` (stale epoch → typed `epoch_mismatch`, so a
//! coordinator can never mix results from different index builds) and an
//! optional `deadline_ms` budget measured from frame arrival:
//!
//! ```json
//! {"v":1,"type":"shard_info","id":2}
//! {"v":1,"type":"shard_postings","id":4,"epoch":7,"syms":[4]}
//! ```
//!
//! Postings are `[traj_id, pos]` pairs (global ids). Floats use Rust's
//! shortest round-trip rendering, so values survive the wire bit-for-bit.
//!
//! # Tracing (minor 3)
//!
//! A `query` frame (and every shard data RPC) may carry an optional
//! `trace_id` — a non-zero u64 naming one end-to-end query timeline.
//! Absent means untraced, and an untraced frame is byte-identical to the
//! minor-2 encoding. A coordinator propagates the id into the shard RPCs it
//! fans out, so each process's spans (tagged with the shared id) can be
//! stitched into one cross-process timeline afterwards. Two requests read
//! the results back:
//!
//! ```json
//! {"v":1,"type":"trace","id":8,"trace_id":7}
//! {"v":1,"type":"metrics_text","id":9}
//! ```
//!
//! `trace` with a `trace_id` returns that timeline's spans from the
//! server's trace sink; without one it returns the slow-query log. The
//! reply's spans carry start/duration nanoseconds relative to the serving
//! process's sink epoch. `metrics_text` returns the server's counters and
//! per-phase latency histograms in the Prometheus text exposition format.
//!
//! # Degraded replies
//!
//! A coordinator that lost shards mid-query answers with a typed
//! `degraded` frame instead of overloading `error` — the query *ran*, but
//! its answer may be missing contributions from [`DegradedInfo::missing_shards`]:
//!
//! ```json
//! {"v":1,"type":"degraded","id":7,"degraded":{"missing_shards":[2],"reason":"..."}}
//! ```

use crate::metrics::MetricsSnapshot;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use trajsearch_core::json::{self, write_str, Reader, Wire};
use trajsearch_core::{wire_enum, wire_struct, Posting, Query, Response};
use wed::Sym;

/// Hard bound on a single frame's content (the newline not counted), both
/// directions and both ends (one frame reader serves both). Large enough for
/// any realistic query batch element; small enough that a hostile peer
/// cannot balloon server memory through one connection.
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// Wire-protocol major version — breaking changes only. Carried on every
/// frame as `"v"`; see the [module docs](self) for the compatibility rule.
pub const PROTO_MAJOR: u32 = 1;

/// Wire-protocol minor version (minor 1 added `hello`, the shard RPCs and
/// `degraded`; minor 2 added the `metrics` capability list on the hello
/// reply; minor 3 added the optional `trace_id` field on `query` and shard
/// data RPCs plus the `trace` and `metrics_text` requests; minor 4 retired
/// the shard RPCs `shard_freqs` and `shard_spans`; minor 5 retired
/// `shard_departing_by` and `ShardInfo`'s `has_temporal_postings`, see the
/// [module docs](self)). Exchanged via `hello`, not per frame.
pub const PROTO_MINOR: u32 = 5;

/// Distance metrics this build can verify, in the wire names of
/// `trajsearch_core::Metric`. Advertised on the hello reply (minor ≥ 2) so
/// a client of a query server can tell whether a non-WED query will be
/// answered. A coordinator ignores it: its shard servers serve postings
/// only, and it verifies every metric itself.
pub const SUPPORTED_METRICS: [&str; 4] = ["wed", "dtw", "lcss", "frechet"];

/// Checks a frame's `"v"` field — its raw value text, if the frame has
/// one — against [`PROTO_MAJOR`]. Absent means major 1 (pre-versioning
/// peers).
fn check_version(v: Option<&str>) -> Result<(), ServerError> {
    match v.map(str::parse::<u64>) {
        None => Ok(()),
        Some(Ok(m)) if m == PROTO_MAJOR as u64 => Ok(()),
        Some(Ok(m)) => Err(ServerError::new(
            ServerErrorKind::UnsupportedVersion,
            format!("unsupported protocol major {m}; this peer speaks {PROTO_MAJOR}"),
        )),
        Some(Err(_)) => Err(ServerError::new(
            ServerErrorKind::Malformed,
            "\"v\" must be an unsigned integer",
        )),
    }
}

/// Renders a frame: `{"v":<major>,` and then the shape's own keys
/// (`type`, `id`, fields in declaration order).
fn render_frame(shape: &impl Wire) -> String {
    let mut frame = String::with_capacity(256);
    frame.push_str("{\"v\":");
    PROTO_MAJOR.write_wire(&mut frame);
    let body = frame.len();
    shape.write_wire(&mut frame);
    // The shape opens its own object; continue the envelope's instead.
    frame.replace_range(body..body + 1, ",");
    frame
}

/// Decodes a frame in one pass, reading the envelope's `"v"` on the way.
/// `Err` carries the decode error; the version is checked by the caller.
fn read_frame<T: Wire>(text: &str) -> (Result<T, String>, Option<&str>) {
    let mut r = Reader::capturing(text, "v");
    let decoded = T::read_wire(&mut r).and_then(|frame| r.finish().map(|()| frame));
    (decoded, r.captured())
}

// ---------------------------------------------------------------------------
// Typed server errors
// ---------------------------------------------------------------------------

/// Why the server answered a request with an error instead of a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerErrorKind {
    /// The bounded admission queue was full — backpressure, retry later.
    Overloaded,
    /// The query's `deadline_ms` budget expired (while queued or at a
    /// cooperative checkpoint mid-execution); no partial answer exists.
    DeadlineExceeded,
    /// The server is draining for shutdown and admits no new queries.
    ShuttingDown,
    /// The query failed validation or admission in the engine (the message
    /// carries the `QueryError` rendering).
    InvalidQuery,
    /// The frame was not a well-formed request envelope.
    Malformed,
    /// The frame declared a protocol major this peer does not speak
    /// (distinct from [`Malformed`](ServerErrorKind::Malformed): the bytes
    /// were fine, the dialect was not).
    UnsupportedVersion,
    /// A shard RPC carried an `epoch` that does not match the shard's
    /// current index build; the caller must re-`shard_info` and retry.
    EpochMismatch,
}

impl ServerErrorKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            ServerErrorKind::Overloaded => "overloaded",
            ServerErrorKind::DeadlineExceeded => "deadline_exceeded",
            ServerErrorKind::ShuttingDown => "shutting_down",
            ServerErrorKind::InvalidQuery => "invalid_query",
            ServerErrorKind::Malformed => "malformed",
            ServerErrorKind::UnsupportedVersion => "unsupported_version",
            ServerErrorKind::EpochMismatch => "epoch_mismatch",
        }
    }

    fn from_str(s: &str) -> Option<ServerErrorKind> {
        Some(match s {
            "overloaded" => ServerErrorKind::Overloaded,
            "deadline_exceeded" => ServerErrorKind::DeadlineExceeded,
            "shutting_down" => ServerErrorKind::ShuttingDown,
            "invalid_query" => ServerErrorKind::InvalidQuery,
            "malformed" => ServerErrorKind::Malformed,
            "unsupported_version" => ServerErrorKind::UnsupportedVersion,
            "epoch_mismatch" => ServerErrorKind::EpochMismatch,
            _ => return None,
        })
    }
}

impl Wire for ServerErrorKind {
    fn write_wire(&self, out: &mut String) {
        write_str(out, self.as_str())
    }

    fn read_wire(r: &mut Reader<'_>) -> Result<Self, String> {
        r.string()?
            .as_deref()
            .and_then(ServerErrorKind::from_str)
            .ok_or_else(|| "must be a known error kind".to_string())
    }
}

wire_struct! {
    /// A typed error reply; `kind` is the machine-readable classification
    /// (overload vs timeout vs invalid), `message` the human-readable detail.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServerError {
        pub kind: ServerErrorKind,
        pub message: String = default,
    }
}

impl ServerError {
    pub fn new(kind: ServerErrorKind, message: impl Into<String>) -> ServerError {
        ServerError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ServerError {}

// ---------------------------------------------------------------------------
// Shard-RPC payloads
// ---------------------------------------------------------------------------

wire_struct! {
    /// Why a reply is partial: the answer was computed, but these shards did
    /// not contribute (dropped connection, missed deadline, stale epoch).
    /// Carried by the `degraded` reply frame — an explicit envelope, *not* an
    /// error: the caller gets real matches plus an honest account of what may
    /// be missing.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct DegradedInfo {
        /// Shard ids (ascending, deduplicated) whose data may be missing.
        pub missing_shards: Vec<u32>,
        /// Human-readable detail for the first failure observed.
        pub reason: String = default,
    }
}

impl fmt::Display for DegradedInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded (missing shards {:?}): {}",
            self.missing_shards, self.reason
        )
    }
}

wire_struct! {
    /// What a shard server reports about itself — everything a coordinator
    /// needs to validate a cluster (complete, non-overlapping partition of one
    /// dataset) and to fill the size/count half of the `PostingSource`
    /// contract without further round trips.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ShardInfo {
        /// This server's slice: trajectories with `id % num_shards == shard_id`.
        pub shard_id: u32,
        pub num_shards: u32,
        /// Identifies the index build; all data RPCs must echo it.
        pub epoch: u64,
        pub alphabet_size: u64,
        /// Trajectories owned by this shard.
        pub local_trajectories: u64,
        /// Trajectories in the whole dataset the shard was cut from.
        pub num_trajectories: u64,
        /// Postings held by this shard.
        pub total_postings: u64,
        pub size_bytes: u64,
    }
}

wire_struct! {
    /// One span on the wire — a [`trajsearch_obs::SpanRecord`] with the name
    /// owned (the in-process record borrows a `&'static str`, which cannot be
    /// decoded) and without the trace id (the enclosing [`TraceEntry`] carries
    /// it once). Times are nanoseconds relative to the serving process's sink
    /// epoch.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireSpan {
        pub span_id: u64,
        /// 0 for a root span.
        pub parent_id: u64,
        pub name: String,
        /// Span-specific payload (candidate count, worker index, round index).
        pub detail: u64,
        pub start_ns: u64,
        pub dur_ns: u64,
    }
}

wire_struct! {
    /// One traced query's timeline as the `trace` request returns it: the
    /// trace id, the wire id of the query when the server knows it (slow-log
    /// entries do; ad-hoc sink lookups answer `None`), the query's wall time
    /// and its spans sorted by start.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceEntry {
        pub trace_id: u64,
        pub query_id: Option<u64>,
        pub wall_ns: u64,
        pub spans: Vec<WireSpan>,
    }
}

// ---------------------------------------------------------------------------
// Request / Reply envelopes
// ---------------------------------------------------------------------------

wire_enum! {
    /// A client → server frame. Every variant's first field is the `id` that
    /// correlates the eventual reply. Shard data RPCs carry the shard's build
    /// `epoch`, an optional `deadline_ms` budget and an optional `trace_id`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Answer one query. `trace_id` (minor 3, optional) names the
        /// end-to-end trace this query belongs to; `None` (the wire default)
        /// means untraced and encodes byte-identically to the minor-2 frame.
        Query as "query" {
            id: u64,
            query: Query,
            trace_id: Option<u64>,
        },
        /// Return the server's metrics snapshot.
        Stats as "stats" { id: u64 },
        /// Return trace timelines: the spans of `trace_id` when given, the
        /// slow-query log otherwise (minor 3).
        Trace as "trace" { id: u64, trace_id: Option<u64> },
        /// Return the Prometheus text exposition of the server's metrics
        /// (minor 3).
        MetricsText as "metrics_text" { id: u64 },
        /// Version negotiation: the client announces what it speaks, the
        /// server replies with its own `major`/`minor`.
        Hello as "hello" { id: u64, major: u32, minor: u32 },
        /// Describe the served shard ([`ShardInfo`]), including the `epoch`
        /// every data RPC must echo.
        ShardInfo as "shard_info" { id: u64 },
        /// Full postings lists for a batch of symbols, in this shard's build
        /// order.
        ShardPostings as "shard_postings" {
            id: u64,
            epoch: u64,
            deadline_ms: Option<u64>,
            trace_id: Option<u64>,
            syms: Vec<Sym>,
        },
    }
    pub fn id(&self) -> u64;
}

impl Request {
    /// The trace id this frame carries, for the variants that can.
    pub fn trace_id(&self) -> Option<u64> {
        match self {
            Request::Query { trace_id, .. } | Request::ShardPostings { trace_id, .. } => *trace_id,
            _ => None,
        }
    }

    /// Stamps a trace id onto the frame if the variant carries one — how a
    /// coordinator propagates the active trace into shard RPCs it builds
    /// generically. A no-op for variants without the field.
    pub fn set_trace_id(&mut self, trace: u64) {
        match self {
            Request::Query { trace_id, .. } | Request::ShardPostings { trace_id, .. } => {
                *trace_id = Some(trace)
            }
            _ => {}
        }
    }

    pub fn to_json(&self) -> String {
        render_frame(self)
    }

    /// Decodes a request frame. The error side carries the frame's `id`
    /// when one could be extracted, so the server can still address its
    /// error reply. An unknown protocol major is a typed
    /// `unsupported_version`, a query body that fails validation a typed
    /// `invalid_query`, anything else wrong with the envelope `malformed`.
    pub fn from_json(text: &str) -> Result<Request, (Option<u64>, ServerError)> {
        match read_frame(text) {
            (Ok(request), v) if check_version(v).is_ok() => Ok(request),
            (decoded, _) => Err(Request::classify(text, decoded.err().unwrap_or_default())),
        }
    }

    /// The error path of [`from_json`](Request::from_json): scans the frame
    /// again to classify the failure in the order a parse-then-decode
    /// reader would — syntax, then version, then `id`, then the query body.
    fn classify(text: &str, msg: String) -> (Option<u64>, ServerError) {
        let malformed =
            |id: Option<u64>, msg: String| (id, ServerError::new(ServerErrorKind::Malformed, msg));
        if let Err(e) = json::check(text) {
            return malformed(None, format!("unparseable frame: {e}"));
        }
        let frame = Reader::new(text);
        let id = frame.member("id").and_then(|raw| raw.parse::<u64>().ok());
        if let Err(error) = check_version(frame.member("v")) {
            return (id, error);
        }
        if id.is_none() {
            return malformed(None, "request frame needs a u64 \"id\"".into());
        }
        // Decode the query body once more, on this error path only, to tell
        // the caller's query being wrong from the frame being wrong.
        let is_query = frame.tag().as_deref() == Some("query");
        match frame.member("query").map(Query::from_json) {
            Some(Err(e)) if is_query => (
                id,
                ServerError::new(ServerErrorKind::InvalidQuery, e.to_string()),
            ),
            _ => malformed(id, msg),
        }
    }
}

wire_enum! {
    /// A server → client frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Reply {
        Response as "response" { id: u64, response: Response },
        /// The query ran but the answer may be missing shard contributions —
        /// a first-class outcome, deliberately not an [`Reply::Error`].
        Degraded as "degraded" {
            id: u64,
            degraded: DegradedInfo,
            response: Option<Response>,
        },
        /// `id` is `None` (rendered `null`) when the offending frame was too
        /// malformed to carry one.
        Error as "error" { id: Option<u64>, error: ServerError },
        Stats as "stats" { id: u64, stats: MetricsSnapshot },
        /// Trace timelines (minor 3): the requested trace's spans, or the
        /// slow-query log when the request named no trace id.
        Trace as "trace" { id: u64, entries: Vec<TraceEntry> },
        /// Prometheus text exposition of the server's metrics (minor 3).
        MetricsText as "metrics_text" { id: u64, text: String },
        Hello as "hello" {
            id: u64,
            major: u32,
            minor: u32,
            /// Metric capability list ([`SUPPORTED_METRICS`] on a current
            /// server). Empty means the peer predates minor 2: assume WED
            /// only. Omitted when empty, keeping the minor-1 frame unchanged.
            metrics: Vec<String> = sparse,
        },
        ShardInfo as "shard_info" { id: u64, info: ShardInfo },
        /// Lists, parallel to the request's `syms`.
        ShardPostings as "shard_postings" { id: u64, lists: Vec<Vec<Posting>> },
    }
}

impl Reply {
    pub fn id(&self) -> Option<u64> {
        match self {
            Reply::Error { id, .. } => *id,
            Reply::Response { id, .. }
            | Reply::Degraded { id, .. }
            | Reply::Stats { id, .. }
            | Reply::Trace { id, .. }
            | Reply::MetricsText { id, .. }
            | Reply::Hello { id, .. }
            | Reply::ShardInfo { id, .. }
            | Reply::ShardPostings { id, .. } => Some(*id),
        }
    }

    pub fn to_json(&self) -> String {
        let mut frame = render_frame(self);
        if let Reply::Error { id: None, .. } = self {
            // The one key that renders `null` instead of being omitted: an
            // error addressed to nobody still shows its `id`, after `type`.
            const TAGGED: &str = "\"type\":\"error\"";
            let at = frame.find(TAGGED).expect("an error frame is tagged") + TAGGED.len();
            frame.insert_str(at, ",\"id\":null");
        }
        frame
    }

    pub fn from_json(text: &str) -> Result<Reply, String> {
        match read_frame::<Reply>(text) {
            (Ok(reply), v) => {
                check_version(v).map_err(|e| e.to_string())?;
                Ok(reply)
            }
            // Error path: a syntax error, then the version, win over the
            // decode error, as for a parse-then-decode reader.
            (Err(msg), _) => {
                json::check(text)?;
                check_version(Reader::new(text).member("v")).map_err(|e| e.to_string())?;
                Err(msg)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame — the rendered document plus `\n` — as **one**
/// `write_all`, so an unbuffered `TCP_NODELAY` socket carries a reply in one
/// `write(2)`. The caller flushes — batch writers amortize one flush over
/// many frames.
pub(crate) fn write_frame(w: &mut impl Write, mut json: String) -> io::Result<()> {
    debug_assert!(!json.contains('\n'), "frames are single-line by contract");
    json.push('\n');
    w.write_all(json.as_bytes())
}

/// The frame reader of both ends of a connection: a buffered reader plus
/// the bytes of the frame in progress, so a read that times out mid-frame
/// loses nothing and the next [`read_frame`](FrameReader::read_frame)
/// carries on where it stopped.
pub(crate) struct FrameReader<R: Read> {
    inner: BufReader<R>,
    partial: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner: BufReader::new(inner),
            partial: Vec::new(),
        }
    }

    /// The underlying stream (to set socket options on it).
    pub(crate) fn get_ref(&self) -> &R {
        self.inner.get_ref()
    }

    /// Reads one frame's content (the newline stripped; UTF-8 is the
    /// caller's check). `Ok(None)` is a clean EOF, EOF inside a frame is
    /// `UnexpectedEof`, and content longer than [`MAX_FRAME_BYTES`] is
    /// `InvalidData`: the read itself is capped one byte past the bound, so
    /// a peer that never sends a newline cannot grow the buffer beyond it.
    /// Any other error — a socket read timeout (`WouldBlock`/`TimedOut`)
    /// above all — leaves the partial frame in place for the next call.
    pub(crate) fn read_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let room = (MAX_FRAME_BYTES + 1 - self.partial.len()) as u64;
        // On error `read_until` keeps what it read in the buffer (std's
        // documented contract), which is what makes this resumable.
        (&mut self.inner)
            .take(room)
            .read_until(b'\n', &mut self.partial)?;
        if self.partial.last() == Some(&b'\n') {
            let mut frame = std::mem::take(&mut self.partial);
            frame.pop();
            Ok(Some(frame))
        } else if self.partial.len() > MAX_FRAME_BYTES {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME_BYTES",
            ))
        } else if self.partial.is_empty() {
            Ok(None)
        } else {
            // Under the cap, `read_until` stops short of a newline only at EOF.
            Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let query = Query::threshold(vec![1, 2, 3], 1.5)
            .deadline_ms(250)
            .build()
            .unwrap();
        let req = Request::Query {
            id: 42,
            query,
            trace_id: None,
        };
        let back = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.id(), 42);
        let req = Request::Stats { id: 7 };
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn untraced_query_frames_are_byte_identical_to_legacy() {
        let query = Query::threshold(vec![1, 2, 3], 1.5)
            .deadline_ms(250)
            .build()
            .unwrap();
        // The minor-2 frame shape, built by hand: envelope + query object.
        let legacy = format!(
            r#"{{"v":{PROTO_MAJOR},"type":"query","id":42,"query":{}}}"#,
            query.to_json()
        );
        let untraced = Request::Query {
            id: 42,
            query: query.clone(),
            trace_id: None,
        }
        .to_json();
        assert_eq!(untraced, legacy);
        assert!(!untraced.contains("trace_id"));
        // A legacy frame (no trace_id key) decodes as untraced.
        assert_eq!(
            Request::from_json(&legacy).unwrap(),
            Request::Query {
                id: 42,
                query,
                trace_id: None,
            }
        );
    }

    #[test]
    fn traced_frames_round_trip_and_stamping_works() {
        let query = Query::threshold(vec![1, 2], 0.5).build().unwrap();
        let req = Request::Query {
            id: 1,
            query,
            trace_id: Some(77),
        };
        let json = req.to_json();
        assert!(json.contains("\"trace_id\":77"), "frame: {json}");
        let back = Request::from_json(&json).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.trace_id(), Some(77));
        // set_trace_id stamps every data RPC and ignores the rest.
        let mut rpc = Request::ShardPostings {
            id: 2,
            epoch: 7,
            deadline_ms: None,
            trace_id: None,
            syms: vec![1],
        };
        rpc.set_trace_id(77);
        assert_eq!(rpc.trace_id(), Some(77));
        assert_eq!(Request::from_json(&rpc.to_json()).unwrap(), rpc);
        let mut stats = Request::Stats { id: 3 };
        stats.set_trace_id(77);
        assert_eq!(stats.trace_id(), None);
    }

    #[test]
    fn malformed_requests_carry_ids_when_possible() {
        // No id at all → addressable to nobody.
        let (id, err) = Request::from_json("{}").unwrap_err();
        assert_eq!(id, None);
        assert_eq!(err.kind, ServerErrorKind::Malformed);
        // Unparseable bytes.
        let (id, err) = Request::from_json("not json").unwrap_err();
        assert_eq!(id, None);
        assert_eq!(err.kind, ServerErrorKind::Malformed);
        // Id present, type wrong → the error reply can be addressed.
        let (id, err) = Request::from_json(r#"{"type":"nope","id":3}"#).unwrap_err();
        assert_eq!(id, Some(3));
        assert_eq!(err.kind, ServerErrorKind::Malformed);
        // Id present, query invalid → typed InvalidQuery.
        let (id, err) =
            Request::from_json(r#"{"type":"query","id":4,"query":{"pattern":[]}}"#).unwrap_err();
        assert_eq!(id, Some(4));
        assert_eq!(err.kind, ServerErrorKind::InvalidQuery);
    }

    #[test]
    fn error_reply_round_trips_with_and_without_id() {
        for id in [Some(9u64), None] {
            let reply = Reply::Error {
                id,
                error: ServerError::new(ServerErrorKind::Overloaded, "queue full (cap 64)"),
            };
            assert_eq!(Reply::from_json(&reply.to_json()).unwrap(), reply);
        }
    }

    #[test]
    fn framing_round_trips_and_bounds_size() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"a":1}"#.to_string()).unwrap();
        write_frame(&mut buf, r#"{"b":2}"#.to_string()).unwrap();
        let mut r = FrameReader::new(&buf[..]);
        assert_eq!(r.read_frame().unwrap().as_deref(), Some(&b"{\"a\":1}"[..]));
        assert_eq!(r.read_frame().unwrap().as_deref(), Some(&b"{\"b\":2}"[..]));
        assert_eq!(r.read_frame().unwrap(), None);

        // A frame cut off mid-document is an error, not a silent partial.
        let mut r = FrameReader::new(&b"{\"a\":1"[..]);
        assert_eq!(
            r.read_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn read_frame_bounds_a_stream_that_never_sends_a_newline() {
        /// Yields `x` forever and counts what the consumer pulled.
        struct Endless(usize);
        impl io::Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                buf.fill(b'x');
                self.0 += buf.len();
                Ok(buf.len())
            }
        }
        let mut r = FrameReader::new(Endless(0));
        let err = r.read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The bound holds on the read itself, not only on its result: at
        // most the frame limit plus one buffer was ever pulled in.
        let pulled = r.get_ref().0;
        assert!(
            pulled <= MAX_FRAME_BYTES + 1 + r.inner.capacity(),
            "{pulled}"
        );
        // The refusal is sticky and pulls nothing more.
        assert_eq!(
            r.read_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(r.get_ref().0, pulled);
        // Content of exactly the limit still passes; one byte more does not.
        let mut exact = vec![b'x'; MAX_FRAME_BYTES];
        exact.push(b'\n');
        let frame = FrameReader::new(&exact[..]).read_frame().unwrap();
        assert_eq!(frame.map(|f| f.len()), Some(MAX_FRAME_BYTES));
        exact.insert(0, b'x');
        let err = FrameReader::new(&exact[..]).read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_timed_out_read_resumes_where_it_stopped() {
        /// Hands out the stream in the given chunks, answering `WouldBlock`
        /// (a socket read timeout) before each one.
        struct Stuttering {
            chunks: std::vec::IntoIter<&'static [u8]>,
            timed_out: bool,
        }
        impl io::Read for Stuttering {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.timed_out = !self.timed_out;
                if self.timed_out {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let chunk = self.chunks.next().unwrap_or(&[]);
                buf[..chunk.len()].copy_from_slice(chunk);
                Ok(chunk.len())
            }
        }
        // Two frames cut mid-document, across the newline, and mid-document
        // again; the second chunk ends one frame and starts the next.
        let chunks: Vec<&'static [u8]> = vec![b"{\"a\"", b":1}\n{\"b", b"\":", b"2}", b"\n"];
        let mut r = FrameReader::new(Stuttering {
            chunks: chunks.into_iter(),
            timed_out: false,
        });
        let mut frames = Vec::new();
        let mut timeouts = 0;
        loop {
            match r.read_frame() {
                Ok(Some(frame)) => frames.push(String::from_utf8(frame).unwrap()),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(frames, [r#"{"a":1}"#, r#"{"b":2}"#]);
        assert!(timeouts >= 5, "every chunk was preceded by a timeout");
    }

    #[test]
    fn server_error_kinds_are_stable_strings() {
        for kind in [
            ServerErrorKind::Overloaded,
            ServerErrorKind::DeadlineExceeded,
            ServerErrorKind::ShuttingDown,
            ServerErrorKind::InvalidQuery,
            ServerErrorKind::Malformed,
            ServerErrorKind::UnsupportedVersion,
            ServerErrorKind::EpochMismatch,
        ] {
            assert_eq!(ServerErrorKind::from_str(kind.as_str()), Some(kind));
        }
        assert_eq!(ServerErrorKind::from_str("nope"), None);
        assert_eq!(
            ServerErrorKind::UnsupportedVersion.as_str(),
            "unsupported_version"
        );
    }

    #[test]
    fn frames_carry_the_protocol_major() {
        let frame = Request::Stats { id: 1 }.to_json();
        assert!(frame.contains("\"v\":1"), "frame: {frame}");
        let frame = Reply::Error {
            id: None,
            error: ServerError::new(ServerErrorKind::Malformed, "x"),
        }
        .to_json();
        assert!(frame.contains("\"v\":1"), "frame: {frame}");
    }

    #[test]
    fn version_rule_absent_means_major_one_and_unknown_major_is_typed() {
        // Pre-versioning peers (no "v") keep working.
        assert_eq!(
            Request::from_json(r#"{"type":"stats","id":1}"#).unwrap(),
            Request::Stats { id: 1 }
        );
        // A future major is a typed unsupported_version, not malformed —
        // and it still carries the frame id so the reply is addressable.
        let (id, err) = Request::from_json(r#"{"v":2,"type":"stats","id":5}"#).unwrap_err();
        assert_eq!(id, Some(5));
        assert_eq!(err.kind, ServerErrorKind::UnsupportedVersion);
        // A non-numeric "v" is garbage, hence malformed.
        let (_, err) = Request::from_json(r#"{"v":"x","type":"stats","id":5}"#).unwrap_err();
        assert_eq!(err.kind, ServerErrorKind::Malformed);
        // Same rule on the client side.
        let e = Reply::from_json(r#"{"v":9,"type":"stats","id":1,"stats":{}}"#).unwrap_err();
        assert!(e.contains("unsupported protocol major 9"), "got: {e}");
    }

    #[test]
    fn hello_round_trips_both_directions() {
        let req = Request::Hello {
            id: 3,
            major: PROTO_MAJOR,
            minor: PROTO_MINOR,
        };
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
        let reply = Reply::Hello {
            id: 3,
            major: 1,
            minor: 4,
            metrics: SUPPORTED_METRICS.iter().map(|m| m.to_string()).collect(),
        };
        assert_eq!(Reply::from_json(&reply.to_json()).unwrap(), reply);
        // A minor-1 reply (no "metrics" key) decodes as the empty list, and
        // an empty list encodes without the key — the legacy frame shape.
        let legacy = Reply::Hello {
            id: 3,
            major: 1,
            minor: 1,
            metrics: Vec::new(),
        };
        assert!(!legacy.to_json().contains("metrics"));
        assert_eq!(Reply::from_json(&legacy.to_json()).unwrap(), legacy);
    }

    #[test]
    fn shard_rpc_argument_validation_is_malformed_not_a_panic() {
        // Missing epoch.
        let (id, err) =
            Request::from_json(r#"{"v":1,"type":"shard_postings","id":1,"syms":[1]}"#).unwrap_err();
        assert_eq!(id, Some(1));
        assert_eq!(err.kind, ServerErrorKind::Malformed);
        // Negative symbol.
        let (_, err) =
            Request::from_json(r#"{"v":1,"type":"shard_postings","id":3,"epoch":0,"syms":[-1]}"#)
                .unwrap_err();
        assert_eq!(err.kind, ServerErrorKind::Malformed);
    }

    #[test]
    fn degraded_with_partial_response_round_trips() {
        // A degraded reply may still carry the partial answer it computed.
        let text = Reply::Degraded {
            id: 9,
            degraded: DegradedInfo {
                missing_shards: vec![0, 2],
                reason: "deadline".into(),
            },
            response: None,
        }
        .to_json();
        match Reply::from_json(&text).unwrap() {
            Reply::Degraded {
                degraded, response, ..
            } => {
                assert_eq!(degraded.missing_shards, vec![0, 2]);
                assert!(response.is_none());
            }
            other => panic!("expected degraded, got {other:?}"),
        }
    }
}
