//! Per-server metrics: admission counters and latency percentiles,
//! exposed live through [`ServerHandle::metrics`](crate::ServerHandle::metrics)
//! and over the wire via the `stats` request.
//!
//! Counters are lock-free atomics bumped on the hot path. Latencies go into
//! a fixed-size ring of the most recent `SAMPLE_CAP` (4096) queries (bounded
//! memory under unbounded traffic, recency-weighted percentiles — the
//! usual dashboard trade-off). Three series are kept per query: **queue**
//! time (admission → dequeue, what backpressure costs the client), **wall**
//! time (dequeue → reply written) and **CPU** time (the engine's summed
//! phase time from
//! [`SearchStats::total_time`](trajsearch_core::SearchStats)), whose gap
//! against wall measures scheduling overhead and what the engine's phase
//! timers do not cover (reply encoding, socket writes).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use trajsearch_core::wire_struct;

/// Ring capacity of each latency series on a server.
const SAMPLE_CAP: usize = 4096;

/// Fixed-size ring of the most recent samples.
struct Ring {
    samples: Vec<u64>,
    cap: usize,
    next: usize,
    seen: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            samples: Vec::with_capacity(cap),
            cap,
            next: 0,
            seen: 0,
        }
    }

    fn push(&mut self, v: u64) {
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            self.samples[self.next] = v;
        }
        self.next = (self.next + 1) % self.cap;
        self.seen += 1;
    }

    #[cfg(test)]
    fn summary(&self) -> LatencySummary {
        summarize(self.samples.clone(), self.seen)
    }
}

/// Locks a latency series whether or not a thread panicked while holding
/// it: the ring is a sample log whose every update leaves it valid (see
/// [`Ring::push`]), so poison says a worker died, not that the samples are
/// wrong — later queries must still be counted and `stats` still answered.
fn lock(series: &Mutex<Option<Ring>>) -> MutexGuard<'_, Option<Ring>> {
    series.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Percentile math over an owned sample copy — runs **outside** any ring
/// lock, so a dashboard's `O(n log n)` sort never stalls the hot path's
/// latency recording. Quantiles are nearest-rank: the
/// `ceil(q·n)`-th smallest sample, so p99 over 100 samples is the 99th —
/// not the rounded interpolation that collapsed p99 into p100 on small
/// windows.
fn summarize(mut samples: Vec<u64>, seen: u64) -> LatencySummary {
    if samples.is_empty() {
        return LatencySummary::default();
    }
    samples.sort_unstable();
    let at = |q: f64| {
        let rank = (q * samples.len() as f64).ceil() as usize;
        samples[rank.clamp(1, samples.len()) - 1]
    };
    LatencySummary {
        count: seen,
        p50_ns: at(0.50),
        p95_ns: at(0.95),
        p99_ns: at(0.99),
        max_ns: *samples.last().unwrap(),
    }
}

wire_struct! {
    /// Percentiles over the retained window; `count` is total observations
    /// (may exceed the window size).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LatencySummary {
        pub count: u64,
        pub p50_ns: u64,
        pub p95_ns: u64,
        pub p99_ns: u64,
        pub max_ns: u64,
    }
}

/// Live server metrics; snapshot with [`Metrics::snapshot`].
pub struct Metrics {
    pub admitted: AtomicU64,
    pub rejected_overload: AtomicU64,
    pub rejected_shutdown: AtomicU64,
    pub timed_out: AtomicU64,
    pub completed: AtomicU64,
    pub degraded: AtomicU64,
    pub invalid: AtomicU64,
    pub malformed: AtomicU64,
    sample_cap: usize,
    queue_ns: Mutex<Option<Ring>>,
    wall_ns: Mutex<Option<Ring>>,
    cpu_ns: Mutex<Option<Ring>>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::with_sample_cap(SAMPLE_CAP)
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Metrics whose latency rings retain the most recent `cap` samples
    /// each (clamped to at least 1); [`Metrics::new`] uses `SAMPLE_CAP` (4096).
    fn with_sample_cap(cap: usize) -> Metrics {
        Metrics {
            admitted: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            sample_cap: cap.max(1),
            queue_ns: Mutex::new(None),
            wall_ns: Mutex::new(None),
            cpu_ns: Mutex::new(None),
        }
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn push_sample(&self, series: &Mutex<Option<Ring>>, v: u64) {
        lock(series)
            .get_or_insert_with(|| Ring::new(self.sample_cap))
            .push(v);
    }

    /// Records one completed query's wall and engine-CPU time.
    pub(crate) fn record_latency(&self, wall_ns: u64, cpu_ns: u64) {
        self.push_sample(&self.wall_ns, wall_ns);
        self.push_sample(&self.cpu_ns, cpu_ns);
    }

    /// Records one dequeued query's time spent waiting in the admission
    /// queue (admission → dequeue) — recorded for every dequeued query,
    /// including ones that then age out at the dequeue deadline check.
    pub(crate) fn record_queue_wait(&self, queue_ns: u64) {
        self.push_sample(&self.queue_ns, queue_ns);
    }

    /// Consistent-enough snapshot for dashboards (counters are relaxed;
    /// each series is internally consistent).
    pub fn snapshot(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        workers: usize,
    ) -> MetricsSnapshot {
        // Copy each ring's raw samples under its lock, then sort and take
        // percentiles on the copy with the lock released: a `stats` request
        // summarizing a full window must not block concurrent
        // `record_latency` calls for the duration of a 4096-element sort.
        let ring_summary = |m: &Mutex<Option<Ring>>| {
            let raw = lock(m).as_ref().map(|r| (r.samples.clone(), r.seen));
            match raw {
                Some((samples, seen)) => summarize(samples, seen),
                None => LatencySummary::default(),
            }
        };
        MetricsSnapshot {
            queue_depth,
            queue_capacity,
            workers,
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            queue: ring_summary(&self.queue_ns),
            wall: ring_summary(&self.wall_ns),
            cpu: ring_summary(&self.cpu_ns),
        }
    }
}

wire_struct! {
    /// A point-in-time copy of the server's metrics — what a `stats` request
    /// returns over the wire. `degraded` and `queue` were added after the
    /// first release of the frame, so a snapshot from an older server
    /// decodes them as zero.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MetricsSnapshot {
        /// Queries currently waiting for a worker.
        pub queue_depth: usize,
        /// The admission bound those queries sit under.
        pub queue_capacity: usize,
        /// Worker pool size.
        pub workers: usize,
        /// Queries accepted into the queue.
        pub admitted: u64,
        /// Queries rejected because the queue was full (backpressure).
        pub rejected_overload: u64,
        /// Queries rejected because the server was draining.
        pub rejected_shutdown: u64,
        /// Queries whose deadline expired (queued or mid-execution).
        pub timed_out: u64,
        /// Queries answered successfully.
        pub completed: u64,
        /// Queries answered with a typed `degraded` reply (shards missing; the
        /// coordinator role only — always 0 on single-process servers).
        pub degraded: u64 = default,
        /// Queries failing engine admission (typed `invalid_query` replies).
        pub invalid: u64,
        /// Frames that were not well-formed requests.
        pub malformed: u64,
        /// Admission → dequeue queue-wait time of dequeued queries.
        pub queue: LatencySummary = default,
        /// Dequeue → reply-written wall time of completed queries.
        pub wall: LatencySummary,
        /// Engine CPU time (summed phases) of completed queries.
        pub cpu: LatencySummary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajsearch_core::json::{self, JsonValue};

    #[test]
    fn percentiles_over_a_known_series() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record_latency(i * 1000, i * 10);
        }
        let s = m.snapshot(3, 64, 4);
        assert_eq!(s.wall.count, 100);
        // Nearest-rank over 100 samples {1000, …, 100000}: the
        // ceil(q·100)-th smallest. The old round((n−1)·q) interpolation
        // returned the 51st sample for p50 and the 100th for p99 —
        // collapsing p99 into the max on any 100-sample window.
        assert_eq!(s.wall.p50_ns, 50_000);
        assert_eq!(s.wall.p95_ns, 95_000);
        assert_eq!(s.wall.p99_ns, 99_000);
        assert_eq!(s.wall.max_ns, 100_000);
        assert_eq!(s.cpu.max_ns, 1000);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.queue_capacity, 64);
        assert_eq!(s.workers, 4);
    }

    #[test]
    fn nearest_rank_edge_cases() {
        // One sample answers every quantile.
        let one = summarize(vec![7], 1);
        assert_eq!((one.p50_ns, one.p99_ns, one.max_ns), (7, 7, 7));
        // Two samples: p50 is the 1st (ceil(0.5·2) = 1), p99 the 2nd.
        let two = summarize(vec![3, 9], 2);
        assert_eq!((two.p50_ns, two.p99_ns), (3, 9));
    }

    #[test]
    fn poisoned_series_keep_counting_and_summarizing() {
        let m = Metrics::new();
        m.record_latency(1_000, 100);
        m.record_queue_wait(10);

        // A worker dies holding all three series.
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = [&m.queue_ns, &m.wall_ns, &m.cpu_ns].map(|s| s.lock().unwrap());
                    // Unwinds like a panic, without the hook's stderr noise.
                    std::panic::resume_unwind(Box::new("worker died"));
                })
                .join()
        });
        assert!(died.is_err());
        assert!(m.wall_ns.is_poisoned() && m.cpu_ns.is_poisoned() && m.queue_ns.is_poisoned());

        m.record_latency(3_000, 300);
        m.record_queue_wait(30);
        let s = m.snapshot(0, 8, 1);
        assert_eq!((s.wall.count, s.wall.max_ns), (2, 3_000));
        assert_eq!((s.cpu.count, s.cpu.max_ns), (2, 300));
        assert_eq!((s.queue.count, s.queue.max_ns), (2, 30));
    }

    #[test]
    fn queue_wait_series_is_independent() {
        let m = Metrics::new();
        m.record_queue_wait(2_000);
        m.record_queue_wait(4_000);
        let s = m.snapshot(0, 8, 1);
        assert_eq!(s.queue.count, 2);
        assert_eq!(s.queue.p50_ns, 2_000);
        assert_eq!(s.queue.max_ns, 4_000);
        // No completed query yet: the wall/cpu series stay empty.
        assert_eq!(s.wall, LatencySummary::default());
    }

    #[test]
    fn sample_cap_is_configurable() {
        let m = Metrics::with_sample_cap(8);
        for i in 1..=100u64 {
            m.record_latency(i, i);
        }
        let s = m.snapshot(0, 8, 1);
        assert_eq!(s.wall.count, 100);
        // Only the last 8 samples are retained, so the minimum is 93.
        assert_eq!(s.wall.p50_ns, 96);
        assert_eq!(s.wall.max_ns, 100);
        // Cap 0 clamps to 1 instead of dividing by zero.
        let tiny = Metrics::with_sample_cap(0);
        tiny.record_latency(5, 5);
        tiny.record_latency(9, 9);
        assert_eq!(tiny.snapshot(0, 8, 1).wall.p50_ns, 9);
    }

    #[test]
    fn ring_retains_only_the_recent_window() {
        let mut r = Ring::new(SAMPLE_CAP);
        for i in 0..(SAMPLE_CAP as u64 + 10) {
            r.push(i);
        }
        let s = r.summary();
        assert_eq!(s.count, SAMPLE_CAP as u64 + 10);
        // The 10 oldest samples were evicted, so the minimum retained is 10.
        assert_eq!(r.samples.len(), SAMPLE_CAP);
        assert!(r.samples.iter().all(|&v| v >= 10));
        assert_eq!(s.max_ns, SAMPLE_CAP as u64 + 9);
    }

    #[test]
    fn empty_metrics_snapshot_is_zeroed() {
        let s = Metrics::new().snapshot(0, 8, 1);
        assert_eq!(s.wall, LatencySummary::default());
        assert_eq!(s.completed, 0);
    }

    #[test]
    fn summary_does_not_block_concurrent_pushes() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // Regression: `snapshot` used to sort the 4096-sample window while
        // holding the ring mutex, stalling every concurrent
        // `record_latency`. With the sort moved outside the lock, pushers
        // and a snapshotting reader make progress together; this exercises
        // that interleaving (and would deadlock/stall under the old
        // lock-held sort with poisoning or re-entry bugs).
        let m = Arc::new(Metrics::new());
        for i in 0..SAMPLE_CAP as u64 {
            m.record_latency(i, i); // full window => maximal sort cost
        }
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (m, stop) = (Arc::clone(&m), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut snaps = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let s = m.snapshot(0, 8, 1);
                    assert!(s.wall.count >= SAMPLE_CAP as u64);
                    snaps += 1;
                }
                snaps
            })
        };
        let pushers: Vec<_> = (0..4)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        m.record_latency(t * 10_000 + i, i);
                    }
                })
            })
            .collect();
        for p in pushers {
            p.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let snaps = reader.join().unwrap();
        assert!(snaps > 0, "reader never completed a snapshot");
        let s = m.snapshot(0, 8, 1);
        // Every push landed: total observations = warmup + 4 × 2000.
        assert_eq!(s.wall.count, SAMPLE_CAP as u64 + 8_000);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let m = Metrics::new();
        Metrics::bump(&m.admitted);
        Metrics::bump(&m.completed);
        Metrics::bump(&m.rejected_overload);
        m.record_latency(123_456, 98_765);
        m.record_queue_wait(2_222);
        let s = m.snapshot(1, 32, 2);
        let text = json::encode(&s);
        assert_eq!(json::decode::<MetricsSnapshot>(&text).unwrap(), s);
        // A pre-queue-series snapshot (no "queue" key) still decodes.
        let legacy = match JsonValue::parse(&text).unwrap() {
            JsonValue::Obj(fields) => {
                JsonValue::Obj(fields.into_iter().filter(|(k, _)| k != "queue").collect())
            }
            other => other,
        };
        let back: MetricsSnapshot = json::decode(&legacy.to_string()).unwrap();
        assert_eq!(back.queue, LatencySummary::default());
        assert_eq!(back.wall, s.wall);
    }
}
