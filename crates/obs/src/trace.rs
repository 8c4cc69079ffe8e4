//! Bounded per-thread trace rings, drained into one merged timeline.
//!
//! Every thread that emits gets its own fixed-capacity ring; an emit locks
//! only the emitter's ring (uncontended in steady state — the only other
//! party is a drain), pushes one timestamped event, and on overflow drops
//! the **oldest** event and counts the drop. [`drain_timeline`] empties
//! every ring into a single timeline sorted by timestamp, carrying the total
//! overflow count so a truncated trace is never mistaken for a quiet one.
//!
//! Timestamps are nanoseconds since the first trace-related call of the
//! process — comparable across threads, meaningless across processes.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use psnap_json::Json;

/// Default per-thread ring capacity (see [`set_ring_capacity`]).
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// The event vocabulary of the snapshot stack, one variant per decision
/// point worth seeing on a timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A scanner announced itself / its timestamp (`a` = scan timestamp or
    /// announce round).
    ScanAnnounce,
    /// A reader help-finalized a pending single write (`a` = timestamp it
    /// assigned).
    HelpFinalize,
    /// A batched update committed (`a` = writes in the batch).
    BatchCommit,
    /// The global reclamation epoch advanced (`a` = new epoch).
    EpochAdvance,
    /// A request entered a service queue (`a` = 0 ingest / 1 scan,
    /// `b` = queue depth after the push).
    QueuePush,
    /// A drain collected queued work (`a` = 0 ingest / 1 scan, `b` = items
    /// drained).
    QueueDrain,
    /// The scan server coalesced pending requests into one backing scan
    /// (`a` = requests merged, `b` = deduplicated components read).
    Coalesce,
    /// A scan request was answered (`a` = 0 backing / 1 cache / 2 empty).
    ScanServe,
    /// A register chain was pruned (`a` = versions unlinked, `b` = chain
    /// length kept).
    Prune,
    /// A live reshard retired one partition-map generation for the next
    /// (`a` = new generation, `b` = components migrated).
    Reshard,
    /// A causal span began (`span` = its id, `a` = parent span id,
    /// `b` = [`SpanKind`](crate::span::SpanKind) code).
    SpanBegin,
    /// A causal span ended (same arguments as [`SpanBegin`]).
    ///
    /// [`SpanBegin`]: TraceKind::SpanBegin
    SpanEnd,
}

impl TraceKind {
    /// Every kind, in [`index`](TraceKind::index) order.
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::ScanAnnounce,
        TraceKind::HelpFinalize,
        TraceKind::BatchCommit,
        TraceKind::EpochAdvance,
        TraceKind::QueuePush,
        TraceKind::QueueDrain,
        TraceKind::Coalesce,
        TraceKind::ScanServe,
        TraceKind::Prune,
        TraceKind::Reshard,
        TraceKind::SpanBegin,
        TraceKind::SpanEnd,
    ];

    /// Number of kinds (the width of per-kind drop accounting).
    pub const COUNT: usize = 12;

    /// Dense index of this kind (indexes [`Timeline::dropped_by_kind`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name used in exposition.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceKind::ScanAnnounce => "scan_announce",
            TraceKind::HelpFinalize => "help_finalize",
            TraceKind::BatchCommit => "batch_commit",
            TraceKind::EpochAdvance => "epoch_advance",
            TraceKind::QueuePush => "queue_push",
            TraceKind::QueueDrain => "queue_drain",
            TraceKind::Coalesce => "coalesce",
            TraceKind::ScanServe => "scan_serve",
            TraceKind::Prune => "prune",
            TraceKind::Reshard => "reshard",
            TraceKind::SpanBegin => "span_begin",
            TraceKind::SpanEnd => "span_end",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timestamped event. The meaning of `a` and `b` is per-[`TraceKind`];
/// unused arguments are 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace clock started.
    pub at_ns: u64,
    /// Dense index of the emitting thread ([`crate::thread_index`]).
    pub thread: usize,
    /// What happened.
    pub kind: TraceKind,
    /// The causal span this event belongs to (0 = none): the id of the
    /// span [entered](crate::span::enter) on the emitting thread, or —
    /// for [`SpanBegin`](TraceKind::SpanBegin) /
    /// [`SpanEnd`](TraceKind::SpanEnd) — the span the event is about.
    pub span: u64,
    /// First argument (see [`TraceKind`]).
    pub a: u64,
    /// Second argument (see [`TraceKind`]).
    pub b: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12}ns t{:<3} {:<13} span={} a={} b={}",
            self.at_ns, self.thread, self.kind, self.span, self.a, self.b
        )
    }
}

struct Ring {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Overflow drops broken down by the dropped event's kind, so a
    /// flooded ring still tells you *what* it lost.
    dropped_by_kind: [u64; TraceKind::COUNT],
}

/// All rings ever created, so a drain reaches threads that have exited.
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

/// Capacity applied to rings created after the last [`set_ring_capacity`].
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Event collection switch, **off by default**: metrics are an always-on
/// production surface (priced by the repo benchmark's
/// `obs.metrics_overhead_share`), but every trace event costs a clock
/// read and a ring push on a hot path — a debugging tool you switch on for
/// the window you care about, not a tax on every operation.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns event collection on or off process-wide (independent of the metric
/// switch, though [`crate::set_enabled`]`(false)` also suppresses events).
pub fn set_trace_enabled(enabled: bool) {
    TRACE_ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether event collection is currently enabled.
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

fn clock() -> &'static Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now)
}

/// Nanoseconds on the process trace clock (comparable across threads,
/// meaningless across processes). Shared by the span and flight layers so
/// every timestamp in a dump lives on one axis.
pub fn now_ns() -> u64 {
    clock().elapsed().as_nanos() as u64
}

thread_local! {
    static MY_RING: Arc<Mutex<Ring>> = {
        let ring = Arc::new(Mutex::new(Ring {
            events: VecDeque::new(),
            capacity: RING_CAPACITY.load(Ordering::Relaxed).max(1),
            dropped: 0,
            dropped_by_kind: [0; TraceKind::COUNT],
        }));
        RINGS.lock().unwrap_or_else(|e| e.into_inner()).push(Arc::clone(&ring));
        ring
    };
}

/// Sets the capacity of rings created from now on (existing rings keep
/// theirs). Call before the traffic of interest starts.
pub fn set_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

/// Emits one event into the calling thread's ring (no-op unless
/// [`set_trace_enabled`]`(true)` and recording is not
/// [disabled](crate::set_enabled)). On overflow the oldest event is dropped
/// and accounted.
#[inline]
pub fn emit(kind: TraceKind, a: u64, b: u64) {
    emit_spanned(kind, crate::span::current(), a, b);
}

/// Like [`emit`], with an explicit span id instead of the thread's
/// [current](crate::span::current) one (used by the span layer for its own
/// begin/end events, whose subject span is not the entered one).
#[inline]
pub fn emit_spanned(kind: TraceKind, span: u64, a: u64, b: u64) {
    if !trace_enabled() || !crate::enabled() {
        return;
    }
    emit_spanned_at(kind, span, a, b, now_ns());
}

/// Like [`emit_spanned`] with the timestamp already in hand: the span layer
/// reads the clock once per edge and shares it between the interval
/// bookkeeping and the ring event, instead of paying two reads.
#[inline]
pub(crate) fn emit_spanned_at(kind: TraceKind, span: u64, a: u64, b: u64, at_ns: u64) {
    if !trace_enabled() || !crate::enabled() {
        return;
    }
    let thread = crate::thread_index();
    // `try_with`: an emit from inside a thread-local destructor (epoch
    // reclamation during thread exit) finds the ring already destroyed;
    // dropping that event is better than aborting the thread.
    let _ = MY_RING.try_with(|ring| {
        let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.events.len() == ring.capacity {
            if let Some(oldest) = ring.events.pop_front() {
                ring.dropped += 1;
                ring.dropped_by_kind[oldest.kind.index()] += 1;
            }
        }
        ring.events.push_back(TraceEvent {
            at_ns,
            thread,
            kind,
            span,
            a,
            b,
        });
    });
}

/// The merged timeline of every thread's drained events.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// Events sorted by timestamp (ties in emit order per thread).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow since the last drain.
    pub dropped: u64,
    /// [`dropped`](Timeline::dropped) broken down by the dropped event's
    /// kind, indexed by [`TraceKind::index`].
    pub dropped_by_kind: [u64; TraceKind::COUNT],
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline {
            events: Vec::new(),
            dropped: 0,
            dropped_by_kind: [0; TraceKind::COUNT],
        }
    }
}

impl Timeline {
    /// JSON exposition of the timeline.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "events",
                Json::arr(self.events.iter().map(|e| {
                    Json::obj([
                        ("at_ns", Json::Num(e.at_ns as f64)),
                        ("thread", Json::Num(e.thread as f64)),
                        ("kind", Json::Str(e.kind.as_str().to_string())),
                        ("span", Json::Num(e.span as f64)),
                        ("a", Json::Num(e.a as f64)),
                        ("b", Json::Num(e.b as f64)),
                    ])
                })),
            ),
            ("dropped", Json::Num(self.dropped as f64)),
            (
                "dropped_by_kind",
                Json::obj(TraceKind::ALL.iter().filter_map(|kind| {
                    let n = self.dropped_by_kind[kind.index()];
                    (n > 0).then(|| (kind.as_str(), Json::Num(n as f64)))
                })),
            ),
        ])
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        write!(
            f,
            "({} events, {} dropped)",
            self.events.len(),
            self.dropped
        )?;
        for kind in TraceKind::ALL {
            let n = self.dropped_by_kind[kind.index()];
            if n > 0 {
                write!(f, "\n  dropped {kind}: {n}")?;
            }
        }
        Ok(())
    }
}

/// Empties every thread's ring (and its overflow count) into one merged,
/// timestamp-sorted [`Timeline`]. Events emitted concurrently with the
/// drain land in the next one.
pub fn drain_timeline() -> Timeline {
    let rings: Vec<Arc<Mutex<Ring>>> = RINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(Arc::clone)
        .collect();
    let mut timeline = Timeline::default();
    for ring in rings {
        let mut ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        timeline.events.extend(ring.events.drain(..));
        timeline.dropped += ring.dropped;
        ring.dropped = 0;
        for (total, per_ring) in timeline
            .dropped_by_kind
            .iter_mut()
            .zip(ring.dropped_by_kind.iter_mut())
        {
            *total += *per_ring;
            *per_ring = 0;
        }
    }
    timeline.events.sort_by_key(|e| e.at_ns);
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring store is process-global and a drain empties every ring, so
    // the draining tests serialize against each other and filter their own
    // events by a marker value.
    static DRAIN_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn events_merge_in_timestamp_order() {
        let _serial = DRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_trace_enabled(true);
        const MARK: u64 = 0xE1E1;
        emit(TraceKind::ScanAnnounce, MARK, 1);
        std::thread::spawn(|| emit(TraceKind::BatchCommit, MARK, 2))
            .join()
            .unwrap();
        emit(TraceKind::Prune, MARK, 3);
        let timeline = drain_timeline();
        let mine: Vec<&TraceEvent> = timeline.events.iter().filter(|e| e.a == MARK).collect();
        assert_eq!(mine.len(), 3);
        assert!(timeline.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        // The two threads involved have distinct indices.
        assert_ne!(
            mine[0].thread,
            mine.iter().find(|e| e.b == 2).unwrap().thread
        );
        let text = timeline.to_string();
        assert!(text.contains("batch_commit"));
    }

    #[test]
    fn overflow_drops_oldest_and_accounts() {
        let _serial = DRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_trace_enabled(true);
        // A dedicated thread gets a fresh ring with a small capacity.
        set_ring_capacity(8);
        std::thread::spawn(|| {
            // Two kinds flood the ring; the drop accounting must say which
            // kinds the overflow discarded, not just how many events.
            for i in 0..6u64 {
                emit(TraceKind::Coalesce, 0xF00D, i);
            }
            for i in 0..20u64 {
                emit(TraceKind::QueuePush, 0xF00D, i);
            }
            let timeline = drain_timeline();
            let mine: Vec<&TraceEvent> = timeline.events.iter().filter(|e| e.a == 0xF00D).collect();
            // Exactly the capacity survived, and they are the newest.
            assert_eq!(mine.len(), 8);
            assert!(mine
                .iter()
                .all(|e| e.kind == TraceKind::QueuePush && e.b >= 12));
            assert!(timeline.dropped >= 18);
            assert_eq!(timeline.dropped_by_kind[TraceKind::Coalesce.index()], 6);
            assert!(timeline.dropped_by_kind[TraceKind::QueuePush.index()] >= 12);
            assert_eq!(timeline.dropped_by_kind[TraceKind::Reshard.index()], 0);
            let json = timeline.to_json();
            let drops = json.get("dropped_by_kind").unwrap();
            assert_eq!(drops.get("coalesce").and_then(Json::as_u64), Some(6));
            assert!(drops.get("reshard").is_none());
            assert!(timeline.to_string().contains("dropped coalesce: 6"));
        })
        .join()
        .unwrap();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
    }
}
