//! Log-linear bucketed [`Histogram`] with lock-free recording and
//! quantile/max extraction.
//!
//! Values are non-negative integers in whatever unit the caller picks
//! (nanoseconds for latencies, counts for sizes). The bucket layout is
//! log-linear: each power-of-two octave is split into [`SUB`] equal linear
//! sub-buckets, which bounds the relative quantile error at `1/SUB` (25%)
//! with a fixed 252-bucket table covering the whole `u64` range — the same
//! trade HDR-style histograms make, with no allocation and no dependency.
//!
//! Recording is four relaxed atomic adds (bucket, count, sum, max), so a
//! histogram can sit on a hot path shared by many threads. Snapshots are
//! taken with plain relaxed loads: they are not a consistent cut, but each
//! series is monotone so the error is bounded by in-flight updates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave.
const SUB: usize = 4;
const SUB_BITS: u32 = 2; // log2(SUB)

/// Total bucket count: `SUB` unit buckets for values `< SUB`, then `SUB`
/// sub-buckets for each of the 62 remaining octaves up to `u64::MAX`.
const NUM_BUCKETS: usize = SUB + (63 - SUB_BITS as usize + 1) * SUB;

/// Bucket index of a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB - 1);
        SUB + ((msb - SUB_BITS) as usize) * SUB + sub
    }
}

/// Inclusive upper bound of bucket `idx` (the Prometheus `le` edge).
fn bucket_upper_bound(idx: usize) -> u64 {
    debug_assert!(idx < NUM_BUCKETS);
    if idx < SUB {
        idx as u64
    } else {
        let octave = ((idx - SUB) / SUB) as u32 + SUB_BITS;
        let sub = ((idx - SUB) % SUB) as u64;
        let step = 1u64 << (octave - SUB_BITS);
        // Written as `(2^octave - 1) + k*step` so the top bucket reaches
        // `u64::MAX` without the intermediate sum overflowing.
        ((1u64 << octave) - 1) + (sub + 1) * step
    }
}

/// A lock-free log-linear histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (in the recorded unit).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time snapshot for quantile extraction / rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// A consistent-enough copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; NUM_BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) of the recorded distribution,
    /// linearly interpolated inside the containing bucket. Returns 0.0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, in [1, count].
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cumulative + n;
            if rank <= next {
                let upper = bucket_upper_bound(idx) as f64;
                let lower = if idx == 0 {
                    0.0
                } else {
                    bucket_upper_bound(idx - 1) as f64
                };
                // Interpolate by the rank's position inside this bucket.
                let within = (rank - cumulative) as f64 / n as f64;
                let estimate = lower + (upper - lower) * within;
                // Never report beyond the observed maximum.
                return estimate.min(self.max as f64);
            }
            cumulative = next;
        }
        self.max as f64
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Cumulative `(upper_bound, count ≤ bound)` pairs for every bucket
    /// with a nonzero delta — exactly the points a Prometheus `_bucket`
    /// series needs (the caller appends `+Inf`).
    pub(crate) fn cumulative_nonzero(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cumulative += n;
                out.push((bucket_upper_bound(idx), cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every value maps into a bucket whose bounds contain it, and
        // bucket upper bounds strictly increase.
        let mut prev = None;
        for idx in 0..NUM_BUCKETS {
            let bound = bucket_upper_bound(idx);
            if let Some(p) = prev {
                assert!(bound > p, "bucket {idx} bound {bound} <= {p}");
            }
            prev = Some(bound);
            assert_eq!(bucket_index(bound), idx, "upper bound maps to itself");
        }
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 3, 4, 7, 8, 9, 100, 1_000, 123_456_789, u64::MAX] {
            let idx = bucket_index(v);
            assert!(v <= bucket_upper_bound(idx));
            if idx > 0 {
                assert!(v > bucket_upper_bound(idx - 1));
            }
        }
    }

    #[test]
    fn quantiles_of_a_uniform_distribution() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10_000);
        assert_eq!(snap.max, 10_000);
        assert_eq!(snap.sum, 10_000 * 10_001 / 2);
        // Log-linear buckets with SUB=4 bound the relative error at 25%.
        for (q, expected) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = snap.quantile(q);
            let err = (got - expected).abs() / expected;
            assert!(err < 0.25, "q={q}: got {got}, expected ~{expected}");
        }
        assert!(snap.quantile(1.0) <= 10_000.0);
    }

    #[test]
    fn quantile_of_a_point_mass_is_exactish() {
        let h = Histogram::new();
        for _ in 0..1_000 {
            h.observe(42);
        }
        let snap = h.snapshot();
        let p50 = snap.p50();
        assert!(p50 <= 42.0 && p50 > 30.0, "{p50}");
        assert_eq!(snap.max, 42);
        assert!(snap.p99() <= 42.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0.0);
        assert!(snap.cumulative_nonzero().is_empty());
    }

    #[test]
    fn cumulative_points_are_monotone_and_end_at_count() {
        let h = Histogram::new();
        for v in [1u64, 1, 5, 80, 80, 80, 1_000_000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        let points = snap.cumulative_nonzero();
        let mut prev_bound = 0u64;
        let mut prev_cum = 0u64;
        for &(bound, cum) in &points {
            assert!(bound > prev_bound || prev_cum == 0);
            assert!(cum > prev_cum);
            prev_bound = bound;
            prev_cum = cum;
        }
        assert_eq!(prev_cum, snap.count);
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..25_000u64 {
                        h.observe(t * 1_000 + (i % 97));
                    }
                });
            }
        });
        assert_eq!(h.count(), 100_000);
    }
}
