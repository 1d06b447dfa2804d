//! Fixed log2-bucket latency histograms.
//!
//! 64 buckets, one per bit length: bucket 0 holds the value 0, bucket `i`
//! (1 ≤ i ≤ 62) holds values in `[2^(i−1), 2^i)`, bucket 63 holds
//! everything from `2^62` up. Recording is one lock-free atomic increment
//! plus an atomic add to the sum — cheap enough for the query hot path —
//! and the fixed geometry makes snapshots mergeable across servers and
//! renderable as a Prometheus histogram with stable bucket bounds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets.
pub const BUCKETS: usize = 64;

/// A concurrent histogram over u64 samples (nanoseconds, by convention).
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index of `v`: its bit length, clamped to the last bucket.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last —
    /// rendered as `+Inf` by the Prometheus exposition).
    pub(crate) fn bucket_le(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy (counters are relaxed: the snapshot is
    /// consistent enough for dashboards, not a linearization point).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// An owned copy of a [`LogHistogram`]'s state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (non-cumulative).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate: the inclusive upper bound of the
    /// bucket containing the `ceil(q·count)`-th smallest sample. An upper
    /// bound (within 2× for log2 buckets), good for flame-style summaries;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LogHistogram::bucket_le(i);
            }
        }
        LogHistogram::bucket_le(BUCKETS - 1)
    }

    /// Mean sample value; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(1023), 10);
        assert_eq!(LogHistogram::bucket_of(1024), 11);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
        // Bounds are inclusive and consistent with bucket_of.
        for i in 0..BUCKETS - 1 {
            let le = LogHistogram::bucket_le(i);
            assert!(LogHistogram::bucket_of(le) <= i);
            assert_eq!(LogHistogram::bucket_of(le + 1), i + 1);
        }
        assert_eq!(LogHistogram::bucket_le(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_and_snapshot() {
        let h = LogHistogram::new();
        for v in [0, 1, 1, 5, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_001_007);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 2); // 1, 1
        assert_eq!(s.buckets[3], 1); // 5
        assert_eq!(s.buckets[10], 1); // 1000
        assert_eq!(s.buckets[20], 1); // 1_000_000
        assert!((s.mean() - 1_001_007.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_is_a_bucket_upper_bound() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, le 127
        }
        h.record(1_000_000); // bucket 20
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 127);
        assert_eq!(s.quantile(0.99), 127);
        assert_eq!(s.quantile(1.0), LogHistogram::bucket_le(20));
        assert_eq!(HistogramSnapshot::default_empty().quantile(0.5), 0);
    }

    impl HistogramSnapshot {
        fn default_empty() -> HistogramSnapshot {
            HistogramSnapshot {
                buckets: [0; BUCKETS],
                count: 0,
                sum: 0,
            }
        }
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = LogHistogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..10_000u64 {
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 40_000);
    }
}
