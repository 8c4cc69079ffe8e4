//! Live observability for the partial snapshot stack.
//!
//! The paper's whole contribution is a *cost model* — yet before this crate
//! the repo could only see its costs offline, through harness runs. This
//! crate makes the running system observable, with the same discipline the
//! step counters in `psnap-shmem::steps` established: **recording must never
//! perturb the algorithms being measured**. Concretely:
//!
//! * [`Counter`] and [`Gauge`] are striped across cache-line-padded
//!   per-thread cells — a record is one relaxed atomic add on a cell no
//!   other running thread normally touches, aggregated only on read;
//! * [`Histogram`] buckets values by log2 (one relaxed add per record) and
//!   tracks the exact maximum on the side, so `p50`/`p99`/`max` come out of
//!   a read without any recording-side sorting;
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
//!   [`Span`] is a (id, parent, kind) triple whose begin/end ride the
//!   existing trace rings, and a [`SpanContext`] crosses threads with a
//!   request so one client scan yields a tree spanning submitter, scan
//!   server, and executor workers. Span collection is opt-in
//!   ([`set_span_enabled`]) on top of the trace switch;
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

/// A small dense id for the calling thread, assigned on first use. Indexes
/// the counter stripes and labels trace events; unrelated to the paper's
/// process-id space. During thread exit (the id's slot already destroyed)
/// it degrades to 0 — records still land, on a shared stripe.
#[inline]
pub fn thread_index() -> usize {
    THREAD_INDEX.try_with(|i| *i).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let c = Counter::new();
        c.add(3);
        set_enabled(false);
        c.add(5);
        set_enabled(true);
        c.add(4);
        assert_eq!(c.get(), 7);
    }
}
