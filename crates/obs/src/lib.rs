//! Live observability for the partial snapshot stack.
//!
//! The paper's whole contribution is a *cost model* — yet before this crate
//! the repo could only see its costs offline, through harness runs. This
//! crate makes the running system observable, with the same discipline the
//! step counters in `psnap-shmem::steps` established: **recording must never
//! perturb the algorithms being measured**. Concretely:
//!
//! * [`Counter`], [`Gauge`] and [`Histogram`] are striped across
//!   cache-line-aligned stripes, one per leased **metric slot** plus one
//!   shared overflow stripe ([`metric`]) — a record is a relaxed load and
//!   a relaxed store on a line only the recording thread writes,
//!   aggregated only on read;
//! * [`Histogram`] buckets values by log2 and tracks the exact maximum on
//!   the side, so `p50`/`p99`/`max` come out of a read without any
//!   recording-side sorting;
//! * [`trace`] keeps a bounded ring of timestamped events *per thread*
//!   (scan announce/retry/fallback, help-finalize, batch commit, epoch
//!   advance, queue push/drain, coalesce decisions), drained on demand into
//!   one merged timeline — overflow drops the oldest events and is
//!   accounted, never silent. Event collection is **opt-in**
//!   ([`set_trace_enabled`]): each event costs a clock read and a ring
//!   push, a price worth paying for a debugging window but not on every
//!   production operation;
//! * [`Registry`] names metrics into process-wide families, carries
//!   declarative **partition invariants** over its counters (e.g. every
//!   accepted scan is served by exactly one path), and exposes everything
//!   as text or [`psnap_json`] for scraping;
//! * [`span`] adds *causality* on top of the flat event stream: a
//!   [`Span`] is a timed (id, parent, kind) triple recorded by the flight
//!   recorder when it ends, and a [`SpanContext`] crosses threads with a
//!   request so one client scan yields a tree spanning submitter, scan
//!   server, and executor workers. Span collection is opt-in
//!   ([`set_span_enabled`]), independent of the trace switch;
//! * [`flight`] is the flight recorder: a bounded process-wide ring of
//!   recently completed span trees plus a registry snapshot, frozen into a
//!   [`FlightDump`] (exportable as Chrome trace-event JSON) when an
//!   [anomaly trigger](flight::trigger) fires.
//!
//! The whole layer sits behind one global switch ([`set_enabled`]): when
//! disabled, every record path is a single relaxed load and an early
//! return, which is what the repo benchmark's `obs.metrics_overhead_share`
//! measures the enabled layer against (and `obs.span_overhead_share` the
//! span layer).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flight;
pub mod metric;
pub mod registry;
pub mod span;
pub mod trace;

pub use flight::{AnomalyKind, FlightDump, SpanRecord, SpanTree};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, RateTracker};
pub use registry::{Metric, MetricSnapshot, Registry};
pub use span::{
    set_span_enabled, set_span_sample_every, span_enabled, span_sample_every, Span, SpanContext,
    SpanKind,
};
pub use trace::{set_trace_enabled, trace_enabled, Timeline, TraceEvent, TraceKind};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Global recording switch, on by default. Reads are always allowed; when
/// off, every record path returns after one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns recording on or off process-wide. Disabling mid-run freezes every
/// metric where it stands (partition invariants still hold — all the legs
/// of a partition stop together). The repo benchmark uses it to price the
/// instrumentation itself.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static NEXT_THREAD_INDEX: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: usize = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
}

/// A small id for the calling thread, assigned on first use and never
/// reused. It labels trace events and spans only — metrics record into the
/// thread's leased metric slot instead ([`metric`]) — and is unrelated to
/// the paper's process-id space. During thread exit (the id already
/// destroyed) it degrades to 0.
#[inline]
pub fn thread_index() -> usize {
    THREAD_INDEX.try_with(|i| *i).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Tests that switch recording off, or that read which metric slots
    /// their threads leased, take turns: a switch-off would drop another
    /// test's records, and another test's threads would hold slots.
    static RECORDING: Mutex<()> = Mutex::new(());

    pub(crate) fn recording_turn() -> MutexGuard<'static, ()> {
        RECORDING.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn thread_indices_are_distinct() {
        let mine = thread_index();
        let other = std::thread::spawn(thread_index).join().unwrap();
        assert_ne!(mine, other);
        // Stable within a thread.
        assert_eq!(mine, thread_index());
    }

    #[test]
    fn disabling_freezes_counters() {
        let _turn = recording_turn();
        let c = Counter::new();
        c.add(3);
        set_enabled(false);
        c.add(5);
        set_enabled(true);
        c.add(4);
        assert_eq!(c.get(), 7);
    }
}
