//! The metric primitives: striped counters and gauges, striped log2
//! histograms.
//!
//! Recording never takes a lock or synchronizes with readers; aggregation
//! happens entirely on the read side. Every metric is an array of 32
//! cache-line-aligned stripes, and a thread records into the stripe of its
//! **metric slot**:
//!
//! * **Owned stripes.** Slots `0..31` each own one stripe of every metric.
//!   A thread leases a slot from a process-wide free list on its first
//!   record, and a thread-local destructor returns it when the thread
//!   exits — so live threads hold distinct slots, and a process that
//!   churns threads never runs out. The slot's holder is its stripe's only
//!   writer, so a record there is a relaxed load plus a relaxed store on a
//!   line no other thread writes (a histogram's `max` is store-if-greater).
//! * **The overflow stripe.** The last stripe is shared. It takes the
//!   records of any thread without an owned slot — beyond 31 live
//!   recorders, or a record made during thread teardown after the lease
//!   went back — with atomic read-modify-writes (`fetch_add`,
//!   `fetch_max`).
//!
//! **Exactness.** Totals are exact under any number of threads. An owned
//! stripe has one writer at a time, so no store of its load-plus-store
//! overwrites another thread's record. A slot passes between threads only
//! through the free-list mutex: the old owner's last store is sequenced
//! before its unlock, which synchronizes with the new owner's lock, which
//! is sequenced before the new owner's first load — so that load sees the
//! last store. The overflow stripe's updates are atomic. Readers sum the
//! stripes with relaxed loads; concurrent with recording, each stripe they
//! read holds a value it had at some recent instant.
//!
//! None of this counts as base-object steps — observing the system costs
//! zero in the paper's cost model by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Stripes per metric: one per owned slot, then the overflow stripe.
const STRIPES: usize = 32;

/// The stripe shared by threads without an owned slot.
const OVERFLOW: usize = STRIPES - 1;

/// The owned slots no live thread holds: `next` and above were never
/// leased, `free` holds the ones exited threads returned.
struct SlotPool {
    next: usize,
    free: Vec<usize>,
}

static SLOTS: Mutex<SlotPool> = Mutex::new(SlotPool {
    next: 0,
    free: Vec::new(),
});

/// The calling thread's metric slot; returned to the pool at thread exit.
struct Lease(usize);

impl Lease {
    /// A free owned slot, or [`OVERFLOW`] when every owned slot is held.
    fn take() -> Lease {
        // Pushes and pops leave the pool valid at every step, so a poisoned
        // lock still guards a consistent pool.
        let mut pool = SLOTS.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = match pool.free.pop() {
            Some(slot) => slot,
            None if pool.next < OVERFLOW => {
                let slot = pool.next;
                pool.next += 1;
                slot
            }
            None => OVERFLOW,
        };
        Lease(slot)
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.0 != OVERFLOW {
            let mut pool = SLOTS.lock().unwrap_or_else(PoisonError::into_inner);
            pool.free.push(self.0);
        }
    }
}

thread_local! {
    static LEASE: Lease = Lease::take();
}

/// The stripe the calling thread records into: its owned slot, or
/// [`OVERFLOW`] if it holds none or its lease has already gone back.
#[inline]
fn slot() -> usize {
    LEASE.try_with(|lease| lease.0).unwrap_or(OVERFLOW)
}

/// Adds `n` to one cell of stripe `slot`: a load and a store on an owned
/// stripe (its one writer), an atomic add on the overflow stripe.
#[inline]
fn add_at(cell: &AtomicU64, n: u64, slot: usize) {
    if slot == OVERFLOW {
        cell.fetch_add(n, Ordering::Relaxed);
    } else {
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }
}

/// One cache line per stripe so concurrent recorders never false-share.
#[repr(align(64))]
#[derive(Default)]
struct Line(AtomicU64);

/// One `u64` per stripe, added to by its slot's holder and summed on read
/// (wrapping, so a [`Gauge`]'s two's-complement stripes sum to its level).
#[derive(Default)]
struct Striped([Line; STRIPES]);

impl Striped {
    #[inline]
    fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        let slot = slot();
        add_at(&self.0[slot].0, n, slot);
    }

    fn sum(&self) -> u64 {
        self.0.iter().fold(0, |sum, line| {
            sum.wrapping_add(line.0.load(Ordering::Relaxed))
        })
    }
}

/// A monotone event counter, striped per metric slot and summed on read.
#[derive(Default)]
pub struct Counter {
    stripes: Striped,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` (a relaxed load and store on the calling thread's stripe).
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes.add(n);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total across all stripes. Concurrent with recording the
    /// total is a valid value the counter held at some recent instant.
    pub fn get(&self) -> u64 {
        self.stripes.sum()
    }
}

/// A signed level gauge (queue depths, live-version counts): striped
/// increments and decrements, summed on read.
#[derive(Default)]
pub struct Gauge {
    stripes: Striped,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Adds `n` to the level.
    #[inline]
    pub fn add(&self, n: i64) {
        self.stripes.add(n as u64);
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
    /// land on different threads' stripes, individual stripes go negative
    /// (in two's complement); only the sum is meaningful.
    pub fn get(&self) -> i64 {
        self.stripes.sum() as i64
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

/// One histogram stripe: its buckets, sum and maximum. The alignment keeps
/// two stripes off each other's cache lines.
#[repr(align(64))]
struct HistogramStripe {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramStripe {
    fn default() -> HistogramStripe {
        HistogramStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// step counts, chain lengths).
///
/// Striped like [`Counter`]: each metric slot owns a stripe of 65 buckets,
/// a sum and a maximum, and the overflow stripe takes everyone else. On an
/// owned stripe a record is two relaxed load-and-stores plus a
/// store-if-greater of the maximum; on the overflow stripe two relaxed
/// `fetch_add`s and a `fetch_max`. A histogram is 32 stripes of 576 bytes,
/// 18,432 bytes in all.
///
/// Reads sum the stripes. Quantiles are resolved from the buckets:
/// `percentile(q)` returns the upper bound of the bucket holding the `q`-th
/// sample, clamped by the exact maximum — so `max` is exact, and
/// `p50`/`p99` are exact up to the 2× bucket resolution (always an upper
/// bound, never an underestimate).
pub struct Histogram {
    stripes: [HistogramStripe; STRIPES],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            stripes: std::array::from_fn(|_| HistogramStripe::default()),
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

/// A histogram's stripes summed into one.
struct Totals {
    buckets: [u64; BUCKETS],
    sum: u64,
    max: u64,
}

impl Totals {
    fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
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
        let slot = slot();
        let stripe = &self.stripes[slot];
        add_at(&stripe.buckets[bucket_of(value)], 1, slot);
        add_at(&stripe.sum, value, slot);
        if slot == OVERFLOW {
            stripe.max.fetch_max(value, Ordering::Relaxed);
        } else if value > stripe.max.load(Ordering::Relaxed) {
            stripe.max.store(value, Ordering::Relaxed);
        }
    }

    /// Every stripe summed, in one pass.
    fn totals(&self) -> Totals {
        let mut totals = Totals {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        };
        for stripe in &self.stripes {
            for (total, bucket) in totals.buckets.iter_mut().zip(&stripe.buckets) {
                *total += bucket.load(Ordering::Relaxed);
            }
            totals.sum = totals.sum.wrapping_add(stripe.sum.load(Ordering::Relaxed));
            totals.max = totals.max.max(stripe.max.load(Ordering::Relaxed));
        }
        totals
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.totals().count()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.totals().sum
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.totals().max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding that sample, clamped by the exact maximum. 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        self.totals().percentile(q)
    }

    /// A consistent-enough point-in-time read, summed in one pass over the
    /// stripes (individual fields may lag each other by in-flight records;
    /// each is monotone).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let totals = self.totals();
        HistogramSnapshot {
            count: totals.count(),
            sum: totals.sum,
            max: totals.max,
            p50: totals.percentile(0.50),
            p99: totals.percentile(0.99),
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
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::{Arc, Barrier};
    use std::thread;

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

    #[test]
    fn footprints_match_the_docs() {
        assert_eq!(std::mem::size_of::<Counter>(), 32 * 64);
        assert_eq!(std::mem::size_of::<Gauge>(), 32 * 64);
        assert_eq!(std::mem::size_of::<HistogramStripe>(), 576);
        assert_eq!(std::mem::size_of::<Histogram>(), 18_432);
    }

    #[test]
    fn more_live_recorders_than_slots_stay_exact() {
        const THREADS: usize = 2 * OVERFLOW + 2;
        const OPS: u64 = 20_000;
        let _turn = crate::tests::recording_turn();
        let (counter, gauge, histogram) = (Counter::new(), Gauge::new(), Histogram::new());
        let barrier = Barrier::new(THREADS);
        let overflowed = AtomicUsize::new(0);
        thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let (counter, gauge, histogram) = (&counter, &gauge, &histogram);
                let (barrier, overflowed) = (&barrier, &overflowed);
                s.spawn(move || {
                    // Every thread leases before any records in earnest, so
                    // all of them are live at once and at most 31 own a slot.
                    if slot() == OVERFLOW {
                        overflowed.fetch_add(1, Ordering::Relaxed);
                    }
                    barrier.wait();
                    for i in 1..=OPS {
                        // Yielding often keeps all 64 threads taking turns
                        // on the cores, so every stripe sees its recorders
                        // interleave rather than run one after another.
                        if i % 64 == 0 {
                            thread::yield_now();
                        }
                        counter.inc();
                        gauge.add(t as i64 + 1);
                        gauge.sub(t as i64);
                        histogram.record(i);
                    }
                    histogram.record(OPS + t);
                });
            }
        });
        let threads = THREADS as u64;
        assert_eq!(counter.get(), threads * OPS);
        assert_eq!(gauge.get(), (threads * OPS) as i64);
        let snap = histogram.snapshot();
        assert_eq!(snap.count, threads * (OPS + 1));
        let tails: u64 = (0..threads).map(|t| OPS + t).sum();
        assert_eq!(snap.sum, threads * OPS * (OPS + 1) / 2 + tails);
        assert_eq!(snap.max, OPS + threads - 1);
        assert!(
            overflowed.load(Ordering::Relaxed) >= THREADS - OVERFLOW,
            "{} of {THREADS} live threads recorded on the overflow stripe",
            overflowed.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn churned_threads_give_their_slots_back() {
        let _turn = crate::tests::recording_turn();
        let (counter, histogram) = (Counter::new(), Histogram::new());
        // An explicit join waits for the thread's local destructors, so
        // each lease is back in the pool before the next thread starts.
        for i in 0..1000u64 {
            thread::scope(|s| {
                s.spawn(|| {
                    counter.inc();
                    histogram.record(i);
                })
                .join()
                .unwrap()
            });
        }
        let owned = thread::scope(|s| {
            s.spawn(|| {
                counter.inc();
                slot() != OVERFLOW
            })
            .join()
            .unwrap()
        });
        assert!(owned, "a fresh thread after 1,000 exits must own a slot");
        assert_eq!(counter.get(), 1001);
        let snap = histogram.snapshot();
        assert_eq!(
            (snap.count, snap.sum, snap.max),
            (1000, 999 * 1000 / 2, 999)
        );
    }

    /// Records once from a thread-local destructor and notes whether the
    /// thread's lease had already gone back by then.
    struct RecordOnExit {
        counter: Arc<Counter>,
        histogram: Arc<Histogram>,
        lease_was_gone: Arc<AtomicBool>,
    }

    impl Drop for RecordOnExit {
        fn drop(&mut self) {
            self.lease_was_gone
                .store(slot() == OVERFLOW, Ordering::SeqCst);
            self.counter.inc();
            self.histogram.record(7);
        }
    }

    thread_local! {
        static ON_EXIT: RefCell<Option<RecordOnExit>> = const { RefCell::new(None) };
    }

    #[test]
    fn a_record_after_the_lease_went_back_lands() {
        let _turn = crate::tests::recording_turn();
        let counter = Arc::new(Counter::new());
        let histogram = Arc::new(Histogram::new());
        let lease_was_gone = Arc::new(AtomicBool::new(false));
        let on_exit = RecordOnExit {
            counter: Arc::clone(&counter),
            histogram: Arc::clone(&histogram),
            lease_was_gone: Arc::clone(&lease_was_gone),
        };
        let recorder = Arc::clone(&counter);
        thread::spawn(move || {
            // Thread-local destructors run last registered, first run:
            // registering `ON_EXIT` before the lease makes it record after
            // the lease has gone back.
            ON_EXIT.with(|slot| *slot.borrow_mut() = Some(on_exit));
            recorder.inc();
        })
        .join()
        .unwrap();
        assert!(lease_was_gone.load(Ordering::SeqCst));
        assert_eq!(counter.get(), 2);
        let snap = histogram.snapshot();
        assert_eq!((snap.count, snap.sum, snap.max), (1, 7, 7));
    }
}
