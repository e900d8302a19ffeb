//! Fixed-bucket log₂ latency histogram.
//!
//! Recording is **one relaxed atomic add**: the value's bit length
//! picks one of [`NUM_BUCKETS`] power-of-two buckets, so bucket `b`
//! (for `b ≥ 1`) holds all samples `v` with `2^(b-1) ≤ v < 2^b`;
//! bucket 0 holds exactly `v = 0`. The top bucket is open-ended.
//! There is no sum, min or per-sample storage — quantiles (p50, p90,
//! p99) and the max are *estimated* from the bucket counts, each
//! reported as the inclusive upper bound of the bucket the rank falls
//! in. The estimate is therefore exact to within one power-of-two
//! bucket, which is the resolution contract the concurrent proptests
//! pin down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of histogram buckets. Bucket 0 is the zero bucket; bucket
/// `b ≥ 1` covers `[2^(b-1), 2^b)`; the last bucket is open-ended
/// (everything ≥ 2^(NUM_BUCKETS-2), ≈ 73 minutes in nanoseconds).
pub const NUM_BUCKETS: usize = 43;

/// The bucket a value lands in: its bit length, clamped to the open
/// top bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the open top
/// bucket). Bucket 0 (the zero bucket) has upper bound 0.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

pub(crate) struct HistCells {
    pub(crate) buckets: [AtomicU64; NUM_BUCKETS],
}

impl HistCells {
    pub(crate) fn new() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A lock-free latency/size histogram handle.
///
/// Handles are cheap to clone and share one set of atomic buckets. A
/// handle from a disabled registry (or [`Histogram::noop`]) skips the
/// atomic entirely — recording against it is a branch on a null
/// `Option`.
#[derive(Clone)]
pub struct Histogram {
    pub(crate) cell: Option<Arc<HistCells>>,
}

/// An in-flight latency measurement started by [`Histogram::start`].
///
/// Holds the start instant only when the histogram is live, so the
/// disabled path never touches the clock.
#[must_use = "finish the timer with Histogram::finish to record the sample"]
pub struct OpTimer(Option<Instant>);

impl OpTimer {
    /// A timer that records nothing when finished.
    pub fn noop() -> OpTimer {
        OpTimer(None)
    }
}

impl Histogram {
    /// A detached handle that records nothing.
    pub fn noop() -> Histogram {
        Histogram { cell: None }
    }

    /// Whether samples recorded here are actually stored.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Records one sample (one relaxed atomic add).
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(c) = &self.cell {
            c.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Starts a latency measurement; reads the clock only when the
    /// histogram is live.
    #[inline]
    pub fn start(&self) -> OpTimer {
        OpTimer(self.cell.is_some().then(Instant::now))
    }

    /// Ends a measurement from [`Histogram::start`], recording the
    /// elapsed nanoseconds.
    #[inline]
    pub fn finish(&self, timer: OpTimer) {
        if let Some(t0) = timer.0 {
            self.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Estimated quantile `q ∈ [0, 1]` of the samples recorded so far
    /// — one bucket-count read plus [`HistSnapshot::quantile`]'s rank
    /// walk, exact to within one power-of-two bucket. Returns 0 for a
    /// disabled or empty histogram. This is the live-handle
    /// convenience the slow-query threshold autotuner uses (trailing
    /// p99 × 4); callers needing several quantiles from one consistent
    /// count read should [`Histogram::load`] once instead.
    pub fn quantile(&self, q: f64) -> u64 {
        self.load().quantile(q)
    }

    /// Estimated quantiles for each `q` in `qs`, all computed from
    /// **one** consistent bucket read (unlike repeated
    /// [`Histogram::quantile`] calls, which each re-read the counts).
    pub fn percentiles(&self, qs: &[f64]) -> Vec<u64> {
        self.load().percentiles(qs)
    }

    /// Reads the current bucket counts (relaxed; counts only grow).
    pub fn load(&self) -> HistSnapshot {
        let mut counts = [0u64; NUM_BUCKETS];
        if let Some(c) = &self.cell {
            for (out, b) in counts.iter_mut().zip(c.buckets.iter()) {
                *out = b.load(Ordering::Relaxed);
            }
        }
        HistSnapshot { counts }
    }
}

/// A point-in-time copy of a histogram's bucket counts, with quantile
/// estimation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub counts: [u64; NUM_BUCKETS],
}

impl HistSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated quantile `q ∈ [0, 1]`: the inclusive upper bound of
    /// the bucket holding the rank-`⌈q·n⌉` sample. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// Estimated quantiles for each `q` in `qs` against this one
    /// consistent snapshot.
    pub fn percentiles(&self, qs: &[f64]) -> Vec<u64> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// Adds `other`'s bucket counts into `self` — merging histograms
    /// of the same unit (e.g. per-op latency series into one
    /// all-traffic distribution) is exact because the buckets are
    /// fixed and aligned.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Estimated maximum: the upper bound of the highest non-empty
    /// bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_upper_bound)
    }
}

/// Exact quantile of per-sample data: the value at rank
/// `round((n - 1) · q)` of an ascending slice, 0 for an empty one.
/// This is what load generators and benches holding every sample
/// report; [`Histogram`] estimates the same thing from bucket counts.
pub fn exact_percentile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n - 1) as f64 * q).round() as usize] as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentile_is_the_rounded_rank() {
        assert_eq!(exact_percentile(&[], 0.5), 0.0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(exact_percentile(&[7], q), 7.0);
        }
        let v = [10, 20, 30, 40, 50];
        assert_eq!(exact_percentile(&v, 0.0), 10.0);
        assert_eq!(exact_percentile(&v, 0.5), 30.0);
        assert_eq!(exact_percentile(&v, 1.0), 50.0);
        // Rank (n - 1)·q rounds to nearest: 3·0.5 = 1.5 → index 2.
        assert_eq!(exact_percentile(&[1, 2, 3, 4], 0.5), 3.0);
        assert_eq!(exact_percentile(&v, 0.99), 50.0);
    }

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let b = bucket_index(v);
            assert!(v <= bucket_upper_bound(b));
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1));
            }
        }
    }

    /// Pins the off-by-one at exact powers of two: `2^k` has bit
    /// length `k+1`, so it lands in bucket `k+1` (whose range is
    /// `[2^k, 2^(k+1))`), **not** in bucket `k` — bucket `k`'s
    /// inclusive upper bound is `2^k - 1`. A naive `floor(log2(v))`
    /// bucketer would put `2^k` one bucket lower and under-report
    /// every quantile that falls on a power of two by up to 2×.
    /// Above the clamp (`2^k` for `k ≥ NUM_BUCKETS - 2`) everything
    /// collapses into the open top bucket.
    #[test]
    fn power_of_two_boundaries_are_exclusive_below() {
        for k in 0..NUM_BUCKETS - 2 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k + 1, "2^{k} must open bucket {}", k + 1);
            // The 1-off audit: 2^k is strictly above bucket k's bound…
            assert!(v > bucket_upper_bound(k));
            // …and exactly covered by bucket k+1's inclusive bound.
            assert!(v <= bucket_upper_bound(k + 1));
            // 2^k - 1 stays in bucket k (bit length k).
            assert_eq!(bucket_index(v - 1), k);
        }
        // The clamp region: every power of two at or past the top
        // bucket's lower bound lands in the open top bucket.
        for k in NUM_BUCKETS - 2..64 {
            assert_eq!(bucket_index(1u64 << k), NUM_BUCKETS - 1);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // A histogram holding exactly one power-of-two sample reports
        // every quantile as that sample's bucket upper bound.
        let h = Histogram {
            cell: Some(std::sync::Arc::new(HistCells::new())),
        };
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), (1u64 << 21) - 1);
        assert_eq!(h.quantile(1.0), (1u64 << 21) - 1);
    }

    #[test]
    fn live_handle_quantile_and_percentiles() {
        let h = Histogram {
            cell: Some(std::sync::Arc::new(HistCells::new())),
        };
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        let expect_low = bucket_upper_bound(bucket_index(100));
        let expect_hi = bucket_upper_bound(bucket_index(1_000_000));
        assert_eq!(h.quantile(0.50), expect_low);
        assert_eq!(h.quantile(0.99), expect_low);
        assert_eq!(
            h.percentiles(&[0.5, 0.99, 1.0]),
            vec![expect_low, expect_low, expect_hi]
        );
        // Disabled handles answer 0 without touching anything.
        assert_eq!(Histogram::noop().quantile(0.99), 0);
        assert_eq!(Histogram::noop().percentiles(&[0.5, 0.9]), vec![0, 0]);
    }

    #[test]
    fn snapshot_merge_is_exact() {
        let a = Histogram {
            cell: Some(std::sync::Arc::new(HistCells::new())),
        };
        let b = Histogram {
            cell: Some(std::sync::Arc::new(HistCells::new())),
        };
        for _ in 0..10 {
            a.record(100);
        }
        b.record(1 << 30);
        let mut m = a.load();
        m.merge(&b.load());
        assert_eq!(m.count(), 11);
        assert_eq!(m.quantile(1.0), bucket_upper_bound(bucket_index(1 << 30)));
        assert_eq!(m.p50(), bucket_upper_bound(bucket_index(100)));
    }

    #[test]
    fn quantiles_from_known_distribution() {
        let h = Histogram {
            cell: Some(std::sync::Arc::new(HistCells::new())),
        };
        // 90 samples of ~100ns, 9 of ~10_000ns, 1 of ~1_000_000ns.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let s = h.load();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), bucket_upper_bound(bucket_index(100)));
        assert_eq!(s.p90(), bucket_upper_bound(bucket_index(100)));
        assert_eq!(s.p99(), bucket_upper_bound(bucket_index(10_000)));
        assert_eq!(s.max(), bucket_upper_bound(bucket_index(1_000_000)));
    }

    #[test]
    fn noop_records_nothing_and_skips_clock() {
        let h = Histogram::noop();
        h.record(42);
        let t = h.start();
        h.finish(t);
        assert_eq!(h.load().count(), 0);
        assert!(!h.is_enabled());
    }
}
