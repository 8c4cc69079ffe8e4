//! Causal spans: who caused what, across threads.
//!
//! The flat [`trace`] events say *that* a retry or a commit
//! happened; they cannot say which client request it happened *for*. A
//! [`Span`] is a timed interval with an identity (`id`), a cause (`parent`),
//! and a tree (`root`): the serve layer opens a root span per client
//! request, hands its [`SpanContext`] across queues and executor workers,
//! and opens child spans around each pipeline stage. An ended span is
//! recorded by the [`flight`](crate::flight) recorder, which collects
//! whole per-request trees; spans write nothing to the trace rings, whose
//! flat events carry the id of the span [entered](enter) when they fired.
//!
//! Everything here follows the obs discipline of not perturbing what it
//! measures:
//!
//! * ids come from a **block-striped atomic** — one global `fetch_add`
//!   hands each thread a block of [`ID_BLOCK`] ids, so allocating a span id
//!   is a thread-local bump in steady state;
//! * the whole layer is **opt-in** ([`set_span_enabled`]); disabled, every
//!   constructor returns an inert span (id 0) and every method is an early
//!   return;
//! * cross-thread causality is **explicit**: a [`SpanContext`] is `Copy`
//!   and travels inside the work item (a queue entry, a coalesced batch, a
//!   union job), never through hidden global state. The only ambient state
//!   is the per-thread *current* span ([`current`] / [`enter`]), which
//!   exists so deep layers (shard scan retries, batch commits, epoch
//!   advances) stamp their flat events with the span that caused them
//!   without threading arguments through every signature.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::trace;

/// Ids handed to a thread per global `fetch_add` (see [`Span`] docs).
pub const ID_BLOCK: u64 = 256;

/// The stage vocabulary of the serve pipeline, one variant per interval
/// worth attributing latency to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// Root of one client scan: submit to answer. End args: `a` = serving
    /// path (0 backing / 2 empty), `b` = latency ns.
    ScanRequest,
    /// Root of one client submission: submit to applied.
    Ingest,
    /// Time an accepted request sat in its queue before a drain.
    QueueWait,
    /// A coalescing window the request waited through (`a` = window ns).
    Window,
    /// One union backing scan (`a` = requests in the job, `b` = deduped
    /// components scanned).
    BackingScan,
    /// Per-request fan-out of a union's results (assemble + complete).
    Merge,
    /// One `update_many` chunk applied by an ingest round
    /// (`a` = writes applied, `b` = writes coalesced away).
    Apply,
    /// One accepted reshard operation (`a` = new generation).
    Reshard,
    /// One flight-auditor tick (`a` = invariant violations seen).
    Audit,
    /// Root of one wire-protocol request, opened at frame decode: the
    /// in-process request tree (queue wait, window, backing scan, ...)
    /// hangs beneath it (`a` = request opcode, `b` = payload bytes).
    WireRequest,
}

impl SpanKind {
    /// Every kind, in declaration order.
    pub const ALL: [SpanKind; 10] = [
        SpanKind::ScanRequest,
        SpanKind::Ingest,
        SpanKind::QueueWait,
        SpanKind::Window,
        SpanKind::BackingScan,
        SpanKind::Merge,
        SpanKind::Apply,
        SpanKind::Reshard,
        SpanKind::Audit,
        SpanKind::WireRequest,
    ];

    /// Stable lowercase name used in exposition.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::ScanRequest => "scan_request",
            SpanKind::Ingest => "ingest",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Window => "window",
            SpanKind::BackingScan => "backing_scan",
            SpanKind::Merge => "merge",
            SpanKind::Apply => "apply",
            SpanKind::Reshard => "reshard",
            SpanKind::Audit => "audit",
            SpanKind::WireRequest => "wire_request",
        }
    }

    /// Inverse of [`as_str`](SpanKind::as_str).
    pub fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The identity a span hands to work that crosses a thread boundary: its
/// own id (to parent children under) and its tree's root id (so the flight
/// recorder reassembles the tree without walking parents). `id == 0` means
/// "no span" (the layer was disabled when the work was submitted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanContext {
    /// This span's id (0 = none).
    pub id: u64,
    /// The root span's id of this span's tree (0 = none).
    pub root: u64,
}

impl SpanContext {
    /// The "no span" context.
    pub const NONE: SpanContext = SpanContext { id: 0, root: 0 };

    /// Whether this context names a real span.
    pub fn is_some(&self) -> bool {
        self.id != 0
    }
}

/// Span collection switch, **off by default** — same rationale as the trace
/// switch: every span costs two clock reads and one flight-collector
/// push, a debugging/attribution tool rather than an
/// always-on tax. The repo benchmark's `obs.span_overhead_share` prices
/// exactly this switch.
static SPAN_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span collection on or off process-wide. Spans begun while enabled
/// still end (and are collected) if the switch flips mid-flight.
pub fn set_span_enabled(enabled: bool) {
    SPAN_ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether span collection is currently enabled.
#[inline]
pub fn span_enabled() -> bool {
    SPAN_ENABLED.load(Ordering::Relaxed)
}

/// Root sampling divisor: record one root per `n` root creations per
/// thread. Children follow their parent's decision (a sampled-out root is
/// inert, so its whole tree is), which keeps every *recorded* tree
/// complete. The default of 1 records every root — right for request-scale
/// sites (the serve pipeline); high-frequency sites that would otherwise
/// span sub-microsecond operations (e.g. every raw store batch) use a
/// larger divisor to bound the collection tax, trading attribution
/// coverage for overhead.
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);

/// Sets the root sampling divisor (0 is treated as 1: record every root).
pub fn set_span_sample_every(n: u64) {
    SAMPLE_EVERY.store(n.max(1), Ordering::SeqCst);
}

/// The current root sampling divisor.
#[inline]
pub fn span_sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

thread_local! {
    /// Per-thread root-creation counter driving the sampling decision.
    static ROOT_TICK: Cell<u64> = const { Cell::new(0) };
}

/// Global id block allocator; a thread takes `ID_BLOCK` ids per touch.
static NEXT_BLOCK: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(next, end)` of the calling thread's current id block.
    static MY_IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn next_id() -> u64 {
    MY_IDS
        .try_with(|cell| {
            let (next, end) = cell.get();
            if next < end {
                cell.set((next + 1, end));
                next
            } else {
                let start = NEXT_BLOCK.fetch_add(ID_BLOCK, Ordering::Relaxed);
                cell.set((start + 1, start + ID_BLOCK));
                start
            }
        })
        // Thread exit: the block cell is gone; pay one shared fetch_add.
        .unwrap_or_else(|_| NEXT_BLOCK.fetch_add(ID_BLOCK, Ordering::Relaxed))
}

thread_local! {
    /// The span "currently executing" on this thread (see [`enter`]).
    static CURRENT: Cell<SpanContext> = const { Cell::new(SpanContext::NONE) };
}

/// The id of the span currently entered on this thread (0 = none). Every
/// [`trace::emit`] stamps this onto its event, which is how shard-level
/// events (scan retries, batch commits, reshards) gain a span argument
/// without any signature change.
#[inline]
pub fn current() -> u64 {
    CURRENT.try_with(Cell::get).unwrap_or(SpanContext::NONE).id
}

/// The full context of the span currently entered on this thread
/// ([`SpanContext::NONE`] when none). This is what lets a transport layer
/// root a request tree at frame decode: it enters the decode-time span, and
/// anything beneath that would otherwise begin a fresh root (see
/// [`Span::root_or_child`]) parents into the entered tree instead.
#[inline]
pub fn current_context() -> SpanContext {
    CURRENT.try_with(Cell::get).unwrap_or(SpanContext::NONE)
}

/// Marks `ctx` as the thread's current span until the guard drops (the
/// previous current span is restored). Used around backing-object calls so
/// events emitted underneath attribute to the request being served.
pub fn enter(ctx: SpanContext) -> EnterGuard {
    let prev = current_context();
    let _ = CURRENT.try_with(|c| c.set(ctx));
    EnterGuard { prev }
}

/// Restores the previously current span on drop (see [`enter`]).
pub struct EnterGuard {
    prev: SpanContext,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        let _ = CURRENT.try_with(|c| c.set(self.prev));
    }
}

/// A timed causal interval. Begin is the constructor; end is `Drop` (or
/// [`end`](Span::end) to end early and keep control of the timing). The
/// end hands a record to the [`flight`](crate::flight) collector, which
/// reassembles whole trees.
///
/// A span constructed while the layer is disabled is inert: id 0, no
/// collection — so holding spans in request structs costs
/// nothing in production unless the switch is on.
#[derive(Debug)]
pub struct Span {
    ctx: SpanContext,
    parent: u64,
    kind: SpanKind,
    begin_ns: u64,
    a: u64,
    b: u64,
}

impl Span {
    /// Begins a root span: its own id is its tree's root. Subject to the
    /// sampling divisor (see [`set_span_sample_every`]) — a sampled-out
    /// root is inert, and so is its whole tree.
    pub fn root(kind: SpanKind) -> Span {
        if !span_enabled() || !crate::enabled() {
            return Span::inert(kind);
        }
        let every = span_sample_every();
        if every > 1 {
            let tick = ROOT_TICK
                .try_with(|c| {
                    let t = c.get().wrapping_add(1);
                    c.set(t);
                    t
                })
                .unwrap_or(0);
            if !tick.is_multiple_of(every) {
                return Span::inert(kind);
            }
        }
        let id = next_id();
        Span::begin(SpanContext { id, root: id }, 0, kind)
    }

    /// Begins a root span — unless a span is currently
    /// [entered](crate::span::enter) on this thread, in which case the new
    /// span parents under it instead of starting a tree of its own. This is
    /// the seam a transport uses to root request trees at frame decode:
    /// in-process callers have no ambient span and get ordinary sampled
    /// roots, while a wire server enters its decode-time span and the whole
    /// in-process tree (ingest / scan request and everything beneath)
    /// assembles under the wire root.
    pub fn root_or_child(kind: SpanKind) -> Span {
        let ambient = current_context();
        if ambient.is_some() {
            Span::child(ambient, kind)
        } else {
            Span::root(kind)
        }
    }

    /// Begins a child span under `parent` (inert if `parent` is, so a
    /// disabled tree never grows live branches).
    pub fn child(parent: SpanContext, kind: SpanKind) -> Span {
        if !parent.is_some() || !span_enabled() || !crate::enabled() {
            return Span::inert(kind);
        }
        let id = next_id();
        Span::begin(
            SpanContext {
                id,
                root: parent.root,
            },
            parent.id,
            kind,
        )
    }

    fn inert(kind: SpanKind) -> Span {
        Span {
            ctx: SpanContext::NONE,
            parent: 0,
            kind,
            begin_ns: 0,
            a: 0,
            b: 0,
        }
    }

    fn begin(ctx: SpanContext, parent: u64, kind: SpanKind) -> Span {
        Span {
            ctx,
            parent,
            kind,
            begin_ns: trace::now_ns(),
            a: 0,
            b: 0,
        }
    }

    /// This span's context, for parenting children (possibly on another
    /// thread — the context is `Copy` and travels inside work items).
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Whether this span is live (the layer was enabled at begin).
    pub fn is_recording(&self) -> bool {
        self.ctx.is_some()
    }

    /// Sets the kind-specific arguments carried on the collected record.
    pub fn set_args(&mut self, a: u64, b: u64) {
        self.a = a;
        self.b = b;
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.ctx.is_some() {
            return;
        }
        crate::flight::record(crate::flight::SpanRecord {
            id: self.ctx.id,
            parent: self.parent,
            root: self.ctx.root,
            kind: self.kind,
            begin_ns: self.begin_ns,
            end_ns: trace::now_ns(),
            thread: crate::thread_index(),
            a: self.a,
            b: self.b,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        set_span_enabled(false);
        let root = Span::root(SpanKind::ScanRequest);
        assert!(!root.is_recording());
        assert_eq!(root.context(), SpanContext::NONE);
        let child = Span::child(root.context(), SpanKind::Merge);
        assert!(!child.is_recording());
    }

    #[test]
    fn ids_are_unique_across_threads() {
        set_span_enabled(true);
        let mine: Vec<u64> = (0..ID_BLOCK * 2).map(|_| next_id()).collect();
        let theirs: Vec<u64> =
            std::thread::spawn(|| (0..ID_BLOCK * 2).map(|_| next_id()).collect())
                .join()
                .unwrap();
        let mut all: Vec<u64> = mine.iter().chain(theirs.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), (ID_BLOCK * 4) as usize);
        set_span_enabled(false);
    }

    #[test]
    fn enter_restores_the_previous_span() {
        let outer = SpanContext { id: 41, root: 41 };
        let inner = SpanContext { id: 42, root: 41 };
        assert_eq!(current(), 0);
        {
            let _g1 = enter(outer);
            assert_eq!(current(), 41);
            {
                let _g2 = enter(inner);
                assert_eq!(current(), 42);
            }
            assert_eq!(current(), 41);
        }
        assert_eq!(current(), 0);
    }

    #[test]
    fn sampling_records_one_root_in_n() {
        set_span_enabled(true);
        set_span_sample_every(4);
        let recording = (0..8)
            .filter(|_| {
                let span = Span::root(SpanKind::Apply);
                let live = span.is_recording();
                // Forget rather than drop: this test counts sampling
                // decisions and must not race other tests' assertions on
                // the shared flight collector.
                std::mem::forget(span);
                live
            })
            .count();
        set_span_sample_every(1);
        set_span_enabled(false);
        // 8 consecutive roots at a divisor of 4 sample exactly 2,
        // whatever phase the thread's tick counter started at.
        assert_eq!(recording, 2);
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("no_such_kind"), None);
    }
}
