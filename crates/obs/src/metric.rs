//! The metric primitives: striped counters and gauges, log2 histograms.
//!
//! Recording never takes a lock or synchronizes with readers, and
//! aggregation work happens entirely on the read side. Counters and gauges
//! record with one relaxed add on a per-thread cache line (a stripe). A
//! [`Histogram`] records into atomics every thread shares: two relaxed adds
//! and a `fetch_max`, which is a compare&swap loop on most targets — it
//! retries only while other threads raise the maximum, and its lines bounce
//! between recording cores. None of them count as base-object steps —
//! observing the system costs zero in the paper's cost model by
//! construction.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Stripes per counter/gauge. Threads hash onto stripes by their dense
/// [`thread_index`](crate::thread_index); with more live threads than
/// stripes two threads may share a line, which costs throughput on that
/// stripe, never correctness.
const STRIPES: usize = 32;

/// One cache line per stripe so concurrent recorders never false-share.
#[repr(align(64))]
#[derive(Default)]
struct StripeU64(AtomicU64);

#[repr(align(64))]
#[derive(Default)]
struct StripeI64(AtomicI64);

#[inline]
fn stripe() -> usize {
    crate::thread_index() % STRIPES
}

/// A monotone event counter, striped per thread and summed on read.
#[derive(Default)]
pub struct Counter {
    stripes: [StripeU64; STRIPES],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` (one relaxed add on the calling thread's stripe).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.stripes[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all stripes. Concurrent with recording the
    /// total is a valid value the counter held at some recent instant.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A signed level gauge (queue depths, live-version counts): striped
/// increments and decrements, summed on read.
#[derive(Default)]
pub struct Gauge {
    stripes: [StripeI64; STRIPES],
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Adds `n` to the level.
    #[inline]
    pub fn add(&self, n: i64) {
        if !crate::enabled() {
            return;
        }
        self.stripes[stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the level.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current level. Because increments and matching decrements may
    /// land on different threads' stripes, individual stripes go negative;
    /// only the sum is meaningful.
    pub fn get(&self) -> i64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Histogram buckets: bucket 0 holds the value 0, bucket `i >= 1` holds
/// `[2^(i-1), 2^i - 1]` — 65 buckets cover all of `u64`.
const BUCKETS: usize = 65;

#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket.
#[inline]
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// step counts, chain lengths).
///
/// Recording is two relaxed adds plus a relaxed `fetch_max`. Quantiles are
/// resolved from the buckets on read: `percentile(q)` returns the upper
/// bound of the bucket holding the `q`-th sample, clamped by the exact
/// maximum — so `max` is exact, and `p50`/`p99` are exact up to the 2×
/// bucket resolution (always an upper bound, never an underestimate).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A point-in-time read of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
    /// Median (bucket upper bound, clamped by `max`).
    pub p50: u64,
    /// 99th percentile (bucket upper bound, clamped by `max`).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding that sample, clamped by the exact maximum. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// A consistent-enough point-in-time read (individual fields may lag
    /// each other by in-flight records; each is monotone).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.percentile(0.50),
            p99: self.percentile(0.99),
        }
    }
}

/// Differentiates a vector of cumulative-monotone counter readings into
/// **windowed rates** (EWMA-smoothed deltas per observation tick).
///
/// [`Counter`]s only ever go up, which makes `{prefix}.heat.k` useless as a
/// load signal on its own: a shard that was hot an hour ago and idle since
/// still dominates the totals. Feeding successive [`Counter::get`] readings
/// through [`observe`](RateTracker::observe) yields per-entry rates over
/// the recent past instead — the signal a reshard policy (or any
/// controller) actually wants. Smoothing is a standard exponentially
/// weighted moving average, `rate ← α·delta + (1−α)·rate`, the same family
/// as the serve layer's coalescing-window controller.
///
/// The tracker is plain mutable state for a single observer (the stats
/// reporter / reshard driver tick) — it takes no locks and is not meant to
/// be shared. The observed vector may **grow** between ticks (a split
/// appends a shard): new entries start with zero history. It never shrinks;
/// merged-away entries simply decay toward zero.
#[derive(Debug, Clone)]
pub struct RateTracker {
    alpha: f64,
    last: Vec<u64>,
    rates: Vec<f64>,
    primed: bool,
}

impl RateTracker {
    /// A tracker smoothing with factor `alpha` in `(0, 1]` — `1.0` means
    /// "last window only", smaller values remember more history.
    pub fn new(alpha: f64) -> RateTracker {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA factor must be in (0, 1], got {alpha}"
        );
        RateTracker {
            alpha,
            last: Vec::new(),
            rates: Vec::new(),
            primed: false,
        }
    }

    /// Folds one reading of the cumulative totals into the rates and
    /// returns the updated rate slice (aligned with `totals` by index).
    ///
    /// The first observation only primes the baseline (rates stay zero):
    /// counters existing before the tracker must not register their whole
    /// history as one infinite-rate spike. Entries appended after priming
    /// are treated the same way — their first delta is measured from zero,
    /// which is correct for freshly created (zero-valued) counters like a
    /// split's new shard.
    pub fn observe(&mut self, totals: &[u64]) -> &[f64] {
        if totals.len() > self.last.len() {
            self.last.resize(totals.len(), 0);
            self.rates.resize(totals.len(), 0.0);
        }
        if !self.primed {
            self.last[..totals.len()].copy_from_slice(totals);
            self.primed = true;
            return &self.rates;
        }
        for (i, &total) in totals.iter().enumerate() {
            // saturating: a counter handle swapped for a fresh one (rare,
            // e.g. diagnostics resets) reads as a quiet window, not a
            // u64-wrapping spike.
            let delta = total.saturating_sub(self.last[i]) as f64;
            self.last[i] = total;
            self.rates[i] = self.alpha * delta + (1.0 - self.alpha) * self.rates[i];
        }
        &self.rates
    }

    /// The current rate estimates (per observation tick).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_levels() {
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        g.dec();
        g.inc();
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn buckets_partition_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 5, 1023, 1024, 1025, u64::MAX] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b));
            if b > 0 {
                assert!(v > bucket_upper(b - 1));
            }
        }
    }

    #[test]
    fn histogram_quantiles_and_max() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.max, 100);
        // p50 falls in bucket [32, 63]; the upper bound is 63.
        assert_eq!(snap.p50, 63);
        // p99 falls in the [64, 127] bucket, clamped by the exact max.
        assert_eq!(snap.p99, 100);
        assert!((snap.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap, HistogramSnapshot::default());
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact_bounds() {
        let h = Histogram::new();
        h.record(1000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.max, 1000);
        // Bucket [512, 1023] upper bound 1023, clamped by max 1000.
        assert_eq!(snap.p50, 1000);
        assert_eq!(snap.p99, 1000);
    }

    #[test]
    fn rate_tracker_differentiates_and_smooths() {
        let mut t = RateTracker::new(0.5);
        // Priming: pre-existing totals are a baseline, not a spike.
        assert_eq!(t.observe(&[1000, 0]), &[0.0, 0.0]);
        assert_eq!(t.observe(&[1100, 10]), &[50.0, 5.0]);
        // Second identical delta converges toward it.
        assert_eq!(t.observe(&[1200, 20]), &[75.0, 7.5]);
        // Quiet window decays.
        assert_eq!(t.observe(&[1200, 20]), &[37.5, 3.75]);
    }

    #[test]
    fn rate_tracker_accepts_appended_entries() {
        let mut t = RateTracker::new(1.0);
        t.observe(&[10]);
        // A split appended a shard whose counter starts cold.
        assert_eq!(t.observe(&[30, 5]), &[20.0, 5.0]);
        assert_eq!(t.observe(&[30, 12]), &[0.0, 7.0]);
    }

    #[test]
    fn rate_tracker_treats_counter_regression_as_quiet() {
        let mut t = RateTracker::new(1.0);
        t.observe(&[100]);
        assert_eq!(t.observe(&[40]), &[0.0], "regression must not wrap");
        assert_eq!(t.observe(&[50]), &[10.0]);
    }

    #[test]
    #[should_panic(expected = "EWMA factor")]
    fn rate_tracker_rejects_zero_alpha() {
        let _ = RateTracker::new(0.0);
    }
}
