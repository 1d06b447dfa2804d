//! # trajsearch-obs — structured tracing and metrics exposition
//!
//! Std-only observability primitives for the trajsearch workspace, matching
//! the shim policy: no tokio, no `tracing`, no external crates. Three
//! pieces:
//!
//! * **Spans** — [`TraceSink`] collects [`SpanRecord`]s (monotonic start +
//!   duration relative to the sink's epoch, u64 trace and span ids, parent
//!   links) into a bounded, lock-sharded ring: memory stays fixed under
//!   unbounded traffic, and concurrent recorders contend only per shard.
//!   Code under instrumentation holds a [`Tracer`] — a `Copy` handle that
//!   is either bound to a sink + trace id or disabled; every operation on a
//!   disabled tracer is an inlined no-op, so untraced queries pay only an
//!   `Option` check per instrumentation point.
//! * **Histograms** — [`LogHistogram`], 64 fixed log2 buckets of lock-free
//!   atomic counters for per-phase latency distributions (the ring-based
//!   percentiles in `trajsearch-serve` are recency-weighted; histograms
//!   are complete and mergeable).
//! * **Exposition** — [`PromText`] renders counters, gauges and histogram
//!   snapshots in the Prometheus text exposition format, so a server can
//!   answer a scrape without pulling in an HTTP or metrics dependency.
//!
//! ## Span lifecycle
//!
//! ```
//! use trajsearch_obs::{TraceSink, Tracer};
//!
//! let sink = TraceSink::new(1024);
//! let trace_id = sink.next_trace_id();
//! let tracer = sink.tracer(trace_id);
//! {
//!     let root = tracer.span("query");
//!     let child = root.child(); // spans opened here are parented at `root`
//!     child.span("filter").finish();
//! } // `root` records itself on drop
//! let spans = sink.spans_for(trace_id);
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].name, "query");
//! assert_eq!(spans[1].parent_id, spans[0].span_id);
//!
//! // Disabled tracers cost an Option check and record nothing.
//! let off = Tracer::disabled();
//! off.span("filter").finish();
//! ```

mod hist;
mod prom;

pub use hist::{HistogramSnapshot, LogHistogram};
pub use prom::PromText;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One finished span: a named interval on a trace's timeline.
///
/// Times are nanoseconds relative to the owning [`TraceSink`]'s epoch (its
/// construction instant), so spans from one process order totally;
/// cross-process stitching aligns per-process timelines by trace id and
/// reads each process's spans relative to its own epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to (0 is never a valid trace id).
    pub trace_id: u64,
    /// Unique (per sink) span id; never 0.
    pub span_id: u64,
    /// The enclosing span's id, or 0 for a root span.
    pub parent_id: u64,
    /// Phase name from the span taxonomy (`"query"`, `"filter"`, …).
    pub name: &'static str,
    /// Phase-specific payload: shard id for `shard_rpc`, round index for
    /// `topk_round`, 0 where meaningless.
    pub detail: u64,
    /// Start, nanoseconds since the sink epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End of the span, nanoseconds since the sink epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Number of independently locked ring shards; recording threads contend
/// only when they hash to the same shard.
const RING_SHARDS: usize = 8;

struct RingShard {
    records: Vec<SpanRecord>,
    next: usize,
}

/// Bounded collector of finished spans.
///
/// The sink owns the monotonic epoch every span start is measured against,
/// allocates span ids (and, for convenience, trace ids), and keeps the most
/// recent spans in `RING_SHARDS` independently locked rings — total
/// capacity is fixed at construction, old spans are overwritten, and a
/// recording thread takes exactly one uncontended-in-the-common-case lock.
pub struct TraceSink {
    epoch: Instant,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    recorded: AtomicU64,
    evicted: AtomicU64,
    shards: Vec<Mutex<RingShard>>,
    shard_cap: usize,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl TraceSink {
    /// A sink retaining at most (roughly) `capacity` spans; a zero capacity
    /// is raised to one span per shard so recording never panics.
    pub fn new(capacity: usize) -> TraceSink {
        let shard_cap = capacity.div_ceil(RING_SHARDS).max(1);
        TraceSink {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            shards: (0..RING_SHARDS)
                .map(|_| {
                    Mutex::new(RingShard {
                        records: Vec::new(),
                        next: 0,
                    })
                })
                .collect(),
            shard_cap,
        }
    }

    /// Total span capacity across all ring shards.
    pub fn capacity(&self) -> usize {
        self.shard_cap * RING_SHARDS
    }

    /// Spans recorded over the sink's lifetime (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans overwritten because a ring shard was full.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The instant all span `start_ns` values are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Allocates a fresh trace id (never 0). Distributed setups allocate at
    /// the coordinator and ship the id to shards, so per-process uniqueness
    /// is enough.
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// A root tracer recording into this sink under `trace_id`. A zero
    /// `trace_id` yields a disabled tracer (0 marks "untraced" on the
    /// wire).
    pub fn tracer(&self, trace_id: u64) -> Tracer<'_> {
        if trace_id == 0 {
            return Tracer { inner: None };
        }
        Tracer {
            inner: Some(TracerInner {
                sink: self,
                trace_id,
                parent: 0,
            }),
        }
    }

    /// Records one finished span built from explicit instants — the hook
    /// for intervals whose start predates tracer creation (queue wait is
    /// measured from admission, but the tracer exists only at dequeue).
    /// Returns the span id.
    pub fn record_interval(
        &self,
        trace_id: u64,
        parent_id: u64,
        name: &'static str,
        detail: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let span_id = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name,
            detail,
            start_ns: self.ns_since_epoch(start),
            dur_ns: saturating_ns(end.saturating_duration_since(start)),
        });
        span_id
    }

    /// All retained spans of `trace_id`, sorted by start time (span id
    /// breaks ties, so a trace's span order is deterministic).
    pub fn spans_for(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            let ring = lock(shard);
            out.extend(ring.records.iter().filter(|r| r.trace_id == trace_id));
        }
        out.sort_by_key(|r| (r.start_ns, r.span_id));
        out
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        saturating_ns(at.saturating_duration_since(self.epoch))
    }

    fn push(&self, record: SpanRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[(record.span_id as usize) % RING_SHARDS];
        let mut ring = lock(shard);
        if ring.records.len() < self.shard_cap {
            ring.records.push(record);
        } else {
            let slot = ring.next;
            ring.records[slot] = record;
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.next = (ring.next + 1) % self.shard_cap;
    }
}

/// Locks a ring shard whether or not a thread panicked while holding it:
/// the ring is a log whose every update leaves it valid (a push or an
/// in-place overwrite, then the cursor), so poison says a recorder died,
/// not that the spans are wrong — later queries must still trace.
fn lock(shard: &Mutex<RingShard>) -> MutexGuard<'_, RingShard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Clone, Copy)]
struct TracerInner<'a> {
    sink: &'a TraceSink,
    trace_id: u64,
    parent: u64,
}

/// A `Copy` handle instrumentation points hold: either bound to a
/// [`TraceSink`] + trace id + parent span, or disabled.
///
/// Disabled is the common case (untraced queries), so every method is an
/// `#[inline]` `Option` check that the optimizer folds to nothing — the
/// query path can be instrumented unconditionally. `Tracer` is `Copy` and
/// `Send` (the sink is behind a shared reference and [`TraceSink`] is
/// `Sync`), so it crosses scoped-thread boundaries into verification
/// workers as a plain value.
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    inner: Option<TracerInner<'a>>,
}

impl<'a> Tracer<'a> {
    /// The no-op tracer; coerces to any lifetime.
    #[inline]
    pub const fn disabled() -> Tracer<'static> {
        Tracer { inner: None }
    }

    /// Whether spans recorded through this tracer go anywhere.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The bound trace id, or `None` when disabled.
    #[inline]
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.map(|i| i.trace_id)
    }

    /// Opens a span named `name`, parented at this tracer's parent span.
    /// The span records itself when the guard drops (or on
    /// [`SpanGuard::finish`]).
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'a> {
        self.span_with(name, 0)
    }

    /// [`Tracer::span`] with a `detail` payload (shard id, round index…).
    #[inline]
    pub fn span_with(&self, name: &'static str, detail: u64) -> SpanGuard<'a> {
        let inner = match self.inner {
            Some(inner) => inner,
            None => return SpanGuard { inner: None },
        };
        let span_id = inner.sink.next_span.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            inner: Some(GuardInner {
                sink: inner.sink,
                trace_id: inner.trace_id,
                span_id,
                parent_id: inner.parent,
                name,
                detail,
                start: Instant::now(),
            }),
        }
    }

    /// Records an already-measured interval as a finished span (no guard;
    /// useful where the code already brackets a phase with its own
    /// `Instant`s for stats accounting). Returns the span id, 0 when
    /// disabled.
    #[inline]
    pub fn record_interval(
        &self,
        name: &'static str,
        detail: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        match self.inner {
            Some(inner) => {
                inner
                    .sink
                    .record_interval(inner.trace_id, inner.parent, name, detail, start, end)
            }
            None => 0,
        }
    }
}

struct GuardInner<'a> {
    sink: &'a TraceSink,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    detail: u64,
    start: Instant,
}

/// An open span; records a [`SpanRecord`] when dropped.
pub struct SpanGuard<'a> {
    inner: Option<GuardInner<'a>>,
}

impl<'a> SpanGuard<'a> {
    /// This span's id (0 when the tracer was disabled).
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.span_id)
    }

    /// A tracer whose spans are parented at this span — pass it down to
    /// instrument sub-phases.
    #[inline]
    pub fn child(&self) -> Tracer<'a> {
        Tracer {
            inner: self.inner.as_ref().map(|i| TracerInner {
                sink: i.sink,
                trace_id: i.trace_id,
                parent: i.span_id,
            }),
        }
    }

    /// Ends the span now (equivalent to dropping the guard; named for
    /// call sites where an explicit end reads better).
    #[inline]
    pub fn finish(self) {}
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let start_ns = inner.sink.ns_since_epoch(inner.start);
            inner.sink.push(SpanRecord {
                trace_id: inner.trace_id,
                span_id: inner.span_id,
                parent_id: inner.parent_id,
                name: inner.name,
                detail: inner.detail,
                start_ns,
                dur_ns: saturating_ns(inner.start.elapsed()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_with_parent_links() {
        let sink = TraceSink::new(64);
        let trace = sink.next_trace_id();
        let tracer = sink.tracer(trace);
        {
            let root = tracer.span("query");
            let inner = root.child();
            inner.span_with("filter", 3).finish();
            inner.span("verify").finish();
        }
        let spans = sink.spans_for(trace);
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "query").unwrap();
        assert_eq!(root.parent_id, 0);
        for child in spans.iter().filter(|s| s.name != "query") {
            assert_eq!(child.parent_id, root.span_id);
            assert!(child.start_ns >= root.start_ns);
            assert!(child.end_ns() <= root.end_ns());
        }
        assert_eq!(spans.iter().find(|s| s.name == "filter").unwrap().detail, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        assert_eq!(tracer.trace_id(), None);
        let g = tracer.span("query");
        assert_eq!(g.id(), 0);
        g.child().span("filter").finish();
        let now = Instant::now();
        assert_eq!(tracer.record_interval("queue_wait", 0, now, now), 0);
    }

    #[test]
    fn zero_trace_id_means_untraced() {
        let sink = TraceSink::new(16);
        assert!(!sink.tracer(0).enabled());
        sink.tracer(0).span("query").finish();
        assert_eq!(sink.recorded(), 0);
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let sink = TraceSink::new(16); // 2 per shard
        let tracer = sink.tracer(7);
        for _ in 0..100 {
            tracer.span("query").finish();
        }
        assert_eq!(sink.recorded(), 100);
        assert!(sink.evicted() > 0);
        let spans = sink.spans_for(7);
        assert!(spans.len() <= sink.capacity());
        // The retained spans are the most recent ones.
        let min_kept = spans.iter().map(|s| s.span_id).min().unwrap();
        assert!(min_kept > 100 - sink.capacity() as u64 - RING_SHARDS as u64);
    }

    #[test]
    fn record_interval_measures_the_given_window() {
        let sink = TraceSink::new(16);
        let start = Instant::now();
        let end = start + Duration::from_millis(5);
        let id = sink.record_interval(9, 0, "queue_wait", 0, start, end);
        assert!(id > 0);
        let spans = sink.spans_for(9);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].dur_ns, 5_000_000);
        // A start before the sink epoch clamps to 0 instead of panicking.
        let early = sink.epoch() - Duration::from_secs(1);
        sink.record_interval(9, 0, "queue_wait", 0, early, early + Duration::from_secs(2));
        let spans = sink.spans_for(9);
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[0].dur_ns, 2_000_000_000);
    }

    #[test]
    fn spans_for_is_sorted_and_trace_scoped() {
        let sink = TraceSink::new(64);
        let a = sink.next_trace_id();
        let b = sink.next_trace_id();
        sink.tracer(b).span("query").finish();
        sink.tracer(a).span("query").finish();
        sink.tracer(a).span("filter").finish();
        let spans = sink.spans_for(a);
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.trace_id == a));
        assert!(spans
            .windows(2)
            .all(|w| (w[0].start_ns, w[0].span_id) <= (w[1].start_ns, w[1].span_id)));
    }

    #[test]
    fn poisoned_ring_keeps_recording_and_reading() {
        let sink = TraceSink::new(64);
        let tracer = sink.tracer(5);
        tracer.span("query").finish();

        // A recorder dies holding every ring shard.
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _rings: Vec<_> = sink.shards.iter().map(|s| s.lock().unwrap()).collect();
                    // Unwinds like a panic, without the hook's stderr noise.
                    std::panic::resume_unwind(Box::new("recorder died"));
                })
                .join()
        });
        assert!(died.is_err());
        assert!(sink.shards.iter().all(|s| s.is_poisoned()));

        // One span per shard, so every poisoned lock is taken for a write,
        // then all of them for the read.
        for _ in 0..RING_SHARDS {
            tracer.span("verify").finish();
        }
        assert_eq!(sink.recorded(), 1 + RING_SHARDS as u64);
        assert_eq!(sink.spans_for(5).len(), 1 + RING_SHARDS);
    }

    #[test]
    fn concurrent_recording_is_safe_and_complete() {
        let sink = TraceSink::new(100_000);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let tracer = sink.tracer(t + 1);
                scope.spawn(move || {
                    for i in 0..1000 {
                        tracer.span_with("verify_shard", i).finish();
                    }
                });
            }
        });
        assert_eq!(sink.recorded(), 4000);
        assert_eq!(sink.evicted(), 0);
        for t in 1..=4 {
            assert_eq!(sink.spans_for(t).len(), 1000);
        }
    }
}
