//! Log-bucketed histogram with quantile estimation.
//!
//! Values (u64, typically nanoseconds) land in buckets whose width grows
//! geometrically: each power-of-two octave is split into 4 sub-buckets,
//! so bucket width is at most 1/4 of the bucket's lower bound and any
//! interpolated quantile carries ≤ 25% relative error. 252 fixed buckets
//! cover the full u64 range; recording is a handful of relaxed atomic
//! operations and never allocates.

use crate::snapshot::{quantile_from_buckets, BucketSnapshot, ExemplarSnapshot, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Total number of buckets: 4 unit buckets for values 0..4, then 4
/// sub-buckets per octave for exponents 2..=63.
pub(crate) const N_BUCKETS: usize = 252;

/// Bucket index for a value. Monotone in `v`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize; // floor(log2 v), >= 2
        let sub = ((v >> (e - 2)) & 0b11) as usize; // 2 bits below the MSB
        4 * e + sub - 4
    }
}

/// Inclusive lower bound of bucket `i` (the smallest value mapping to it).
pub(crate) fn bucket_lo(i: usize) -> u64 {
    debug_assert!(i < N_BUCKETS);
    if i < 4 {
        i as u64
    } else {
        let e = (i + 4) / 4;
        let sub = ((i + 4) % 4) as u64;
        (4 + sub) << (e - 2)
    }
}

/// Exclusive upper bound of bucket `i` (saturating at `u64::MAX`).
pub(crate) fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(i + 1)
    }
}

#[derive(Debug)]
pub(crate) struct HistInner {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    // Per-bucket exemplar slots: the raw value and the trace sequence
    // number (stored as seq+1 so 0 means "no exemplar yet") of the most
    // recent tagged observation that landed in the bucket. Last-writer-
    // wins under races; exemplars are advisory links, not counted data.
    ex_value: [AtomicU64; N_BUCKETS],
    ex_seq: [AtomicU64; N_BUCKETS],
}

impl HistInner {
    fn new() -> HistInner {
        HistInner {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            ex_value: [const { AtomicU64::new(0) }; N_BUCKETS],
            ex_seq: [const { AtomicU64::new(0) }; N_BUCKETS],
        }
    }
}

/// A shareable handle to a log-bucketed histogram. Cloning is cheap (an
/// `Arc` bump) and every clone records into the same buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, unregistered histogram (registries hand out registered
    /// ones; this is for standalone use and tests).
    pub fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistInner::new()),
        }
    }

    /// Record one sample. A no-op while recording is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_with_exemplar(v, None);
    }

    /// Record one sample, optionally tagging the bucket it lands in with
    /// an exemplar linking to trace sequence number `seq` (typically
    /// `emd_trace::TraceSink::next_seq()` captured at span start, so the
    /// trace events emitted during the measured span carry `seq` or
    /// higher). The newest tagged observation per bucket wins. A no-op
    /// while recording is disabled.
    #[inline]
    pub fn record_with_exemplar(&self, v: u64, seq: Option<u64>) {
        if !crate::enabled() {
            return;
        }
        let i = &self.inner;
        let b = bucket_index(v);
        i.buckets[b].fetch_add(1, Ordering::Relaxed);
        i.count.fetch_add(1, Ordering::Relaxed);
        i.sum.fetch_add(v, Ordering::Relaxed);
        i.min.fetch_min(v, Ordering::Relaxed);
        i.max.fetch_max(v, Ordering::Relaxed);
        if let Some(seq) = seq {
            i.ex_value[b].store(v, Ordering::Relaxed);
            i.ex_seq[b].store(seq.saturating_add(1), Ordering::Relaxed);
        }
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples recorded so far.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            // The empty sentinel is u64::MAX; don't leak it (and don't
            // confuse it with a genuinely recorded u64::MAX).
            0
        } else {
            self.inner.min.load(Ordering::Relaxed)
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by locating the bucket
    /// holding the sample of rank `ceil(q·count)` and interpolating
    /// linearly inside it. The estimate lies in the same bucket as the
    /// exact order statistic, so its relative error is bounded by the
    /// bucket width (≤ 25%); the result is additionally clamped to the
    /// observed `[min, max]`. Computed from the same single read of the
    /// buckets as [`Histogram::snapshot`]. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let s = self.snapshot("");
        quantile_from_buckets(&s.buckets, s.count, s.min, s.max, q)
    }

    /// Serializable snapshot: aggregate stats (count, sum, min/max,
    /// p50/p90/p99) plus the non-empty buckets and any per-bucket
    /// exemplars. This is the one place the aggregates are computed. Each
    /// bucket is read once and the aggregates are reconciled with those
    /// reads, so a snapshot taken while writers record is still internally
    /// coherent: `count` is the bucket total (the `+Inf` bucket never
    /// trails a finite one), `[min, max]` reaches into the first and last
    /// non-empty bucket even when a sample's bucket bump landed before its
    /// min/max update, and the quantiles are estimated from the same reads
    /// and clamped to that range. A quiescent snapshot is exact.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut exemplars = Vec::new();
        for i in 0..N_BUCKETS {
            let c = self.inner.buckets[i].load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            let lo = bucket_lo(i);
            buckets.push(BucketSnapshot {
                lo,
                hi: bucket_hi(i),
                count: c,
            });
            let seq = self.inner.ex_seq[i].load(Ordering::Relaxed);
            if seq != 0 {
                exemplars.push(ExemplarSnapshot {
                    lo,
                    value: self.inner.ex_value[i].load(Ordering::Relaxed),
                    trace_seq: seq - 1,
                });
            }
        }
        let count: u64 = buckets.iter().map(|b| b.count).sum();
        let (min, max) = match (buckets.first(), buckets.last()) {
            (Some(first), Some(last)) => {
                let first_top = if first.hi == u64::MAX {
                    first.hi
                } else {
                    first.hi - 1
                };
                let min = self.inner.min.load(Ordering::Relaxed).min(first_top);
                let max = self.inner.max.load(Ordering::Relaxed).max(last.lo);
                (min, max.max(min))
            }
            _ => (0, 0),
        };
        let quantile = |q| quantile_from_buckets(&buckets, count, min, max, q);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum(),
            min,
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            buckets,
            exemplars,
        }
    }

    /// Zero every bucket, aggregate, and exemplar slot (used by
    /// [`crate::Registry::reset`]).
    pub fn reset(&self) {
        for b in &self.inner.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.inner.count.store(0, Ordering::Relaxed);
        self.inner.sum.store(0, Ordering::Relaxed);
        self.inner.min.store(u64::MAX, Ordering::Relaxed);
        self.inner.max.store(0, Ordering::Relaxed);
        for (v, s) in self.inner.ex_value.iter().zip(self.inner.ex_seq.iter()) {
            v.store(0, Ordering::Relaxed);
            s.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn bucket_scheme_is_monotone_and_self_inverse() {
        // Every bucket's lower bound maps back to its own index, bounds
        // tile the u64 range, and the index is monotone across edges.
        let mut prev_hi = 0u64;
        for i in 0..N_BUCKETS {
            let lo = bucket_lo(i);
            let hi = bucket_hi(i);
            assert_eq!(lo, prev_hi, "buckets must tile without gaps at {i}");
            assert!(lo < hi || (i == N_BUCKETS - 1 && hi == u64::MAX));
            assert_eq!(bucket_index(lo), i, "lower bound maps to own bucket");
            if hi != u64::MAX {
                assert_eq!(bucket_index(hi), i + 1, "upper bound starts the next");
                assert_eq!(bucket_index(hi - 1), i, "last value stays inside");
            }
            prev_hi = hi;
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for i in 4..N_BUCKETS - 1 {
            let lo = bucket_lo(i);
            let width = bucket_hi(i) - lo;
            assert!(
                4 * width <= lo,
                "bucket {i}: width {width} exceeds lo/4 ({lo})"
            );
        }
    }

    #[test]
    fn exact_values_round_trip_through_edges() {
        let _g = test_lock::enable();
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            assert_eq!(h.count(), 1);
            assert_eq!(h.min(), v);
            assert_eq!(h.max(), v);
            // The single sample is its own every-quantile; clamping to
            // [min, max] makes the estimate exact.
            assert_eq!(h.quantile(0.5), v as f64);
        }
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.99), 0.0);
    }
}
