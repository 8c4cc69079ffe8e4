//! The flight recorder: a bounded ring of recently completed span trees,
//! frozen into a dump when an anomaly fires.
//!
//! Production incidents are diagnosed from the instants *around* the
//! anomaly, which are gone by the time anyone attaches a debugger. The
//! recorder keeps the recent past on hand at all times: every [`Span`](crate::Span) that
//! ends is routed here, reassembled into its request's tree when the tree's
//! root ends, and the last [`DEFAULT_TREE_CAPACITY`] whole trees ride in a
//! process-wide ring. An **anomaly trigger** ([`trigger`]) freezes that
//! ring — plus a [`Registry`] metrics snapshot — into an immutable
//! [`FlightDump`], exportable as [`psnap_json`] (round-trippable) or as
//! Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//!
//! Triggers are **armed** explicitly ([`set_armed`]): the serve layer fires
//! them on latency-SLO breaches, `Busy` backpressure bursts, accepted
//! reshards, and stuck partition-invariant violations (the periodic
//! auditor); tests and the sim chaos layer call [`trigger`] directly.
//! Disarmed, a trigger is one relaxed load.
//!
//! This is the paper's discipline applied to the system's own telemetry:
//! capture a consistent cut of a live system without stopping it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use psnap_json::Json;

use crate::span::SpanKind;
use crate::Registry;

/// Completed trees kept by default (see [`set_tree_capacity`]).
pub const DEFAULT_TREE_CAPACITY: usize = 256;

/// Unfinished trees (roots with ended children but a live root span) kept
/// before the oldest is evicted and its spans counted as dropped.
const PENDING_CAPACITY: usize = 1024;

/// Frozen dumps kept (newest kept, oldest evicted).
const DUMP_CAPACITY: usize = 8;

/// One ended span, as collected into trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's id.
    pub id: u64,
    /// The parent span's id (0 for a root).
    pub parent: u64,
    /// The tree's root span id (== `id` for a root).
    pub root: u64,
    /// Pipeline stage.
    pub kind: SpanKind,
    /// Begin, nanoseconds on the process clock ([`now_ns`](crate::span::now_ns)).
    pub begin_ns: u64,
    /// End, nanoseconds on the process clock ([`now_ns`](crate::span::now_ns)).
    pub end_ns: u64,
    /// Dense index of the thread the span ended on.
    pub thread: usize,
    /// Kind-specific argument (see [`SpanKind`]).
    pub a: u64,
    /// Kind-specific argument (see [`SpanKind`]).
    pub b: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            ("parent", Json::Num(self.parent as f64)),
            ("root", Json::Num(self.root as f64)),
            ("kind", Json::Str(self.kind.as_str().to_string())),
            ("begin_ns", Json::Num(self.begin_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            ("thread", Json::Num(self.thread as f64)),
            ("a", Json::Num(self.a as f64)),
            ("b", Json::Num(self.b as f64)),
        ])
    }

    fn from_json(json: &Json) -> Option<SpanRecord> {
        Some(SpanRecord {
            id: json.get("id")?.as_u64()?,
            parent: json.get("parent")?.as_u64()?,
            root: json.get("root")?.as_u64()?,
            kind: SpanKind::parse(json.get("kind")?.as_str()?)?,
            begin_ns: json.get("begin_ns")?.as_u64()?,
            end_ns: json.get("end_ns")?.as_u64()?,
            thread: json.get("thread")?.as_usize()?,
            a: json.get("a")?.as_u64()?,
            b: json.get("b")?.as_u64()?,
        })
    }
}

/// One request's completed span tree: the root span first, then every
/// descendant sorted by begin time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanTree {
    /// Root first, descendants by begin time.
    pub spans: Vec<SpanRecord>,
}

impl SpanTree {
    /// The root span.
    pub fn root(&self) -> &SpanRecord {
        &self.spans[0]
    }

    /// Whole-tree wall time: the root span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.root().duration_ns()
    }

    /// The spans of one stage, in begin order.
    pub fn spans_of(&self, kind: SpanKind) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// JSON exposition (inverse of [`SpanTree::from_json`]).
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(SpanRecord::to_json))
    }

    /// Parses a tree serialized by [`SpanTree::to_json`].
    pub fn from_json(json: &Json) -> Option<SpanTree> {
        let spans: Vec<SpanRecord> = json
            .as_array()?
            .iter()
            .map(SpanRecord::from_json)
            .collect::<Option<_>>()?;
        if spans.is_empty() {
            return None;
        }
        Some(SpanTree { spans })
    }
}

struct Collector {
    /// Ended non-root spans awaiting their tree's root, keyed by root id.
    pending: BTreeMap<u64, Vec<SpanRecord>>,
    /// Completed trees, oldest first.
    completed: VecDeque<SpanTree>,
    tree_capacity: usize,
    /// Spans lost to pending-table eviction (root never ended, or ended
    /// before a straggling child).
    dropped_spans: u64,
    /// Span `Vec`s recycled from evicted trees, so steady-state collection
    /// (ring full, every root end evicts the oldest tree) does not pay an
    /// allocation per completed span tree. Capped at [`FREELIST_CAPACITY`].
    free: Vec<Vec<SpanRecord>>,
}

/// Recycled tree buffers kept (see [`Collector::free`]).
const FREELIST_CAPACITY: usize = 64;

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    pending: BTreeMap::new(),
    completed: VecDeque::new(),
    tree_capacity: DEFAULT_TREE_CAPACITY,
    dropped_spans: 0,
    free: Vec::new(),
});

fn collector() -> std::sync::MutexGuard<'static, Collector> {
    COLLECTOR.lock().unwrap_or_else(|e| e.into_inner())
}

/// Routes one ended span into the collector (called by [`Span`]'s drop;
/// not meant for direct use).
///
/// [`Span`]: crate::span::Span
pub fn record(record: SpanRecord) {
    let mut c = collector();
    if record.id == record.root {
        // The root ended: its tree is complete (children end inside their
        // parent's interval by construction — stages that outlive the
        // request's answer are ended before the answer is fanned out).
        let mut spans = c.free.pop().unwrap_or_default();
        spans.push(record);
        let root = spans[0].id;
        if let Some(mut children) = c.pending.remove(&root) {
            children.sort_by_key(|s| s.begin_ns);
            spans.append(&mut children);
        }
        c.completed.push_back(SpanTree { spans });
        while c.completed.len() > c.tree_capacity {
            if let Some(tree) = c.completed.pop_front() {
                if c.free.len() < FREELIST_CAPACITY {
                    let mut spans = tree.spans;
                    spans.clear();
                    c.free.push(spans);
                }
            }
        }
    } else {
        c.pending.entry(record.root).or_default().push(record);
        while c.pending.len() > PENDING_CAPACITY {
            // Oldest root id ≈ oldest tree: ids are allocated in blocks,
            // close enough for an eviction order.
            let (&oldest, _) = c.pending.iter().next().expect("pending non-empty");
            let evicted = c.pending.remove(&oldest).unwrap_or_default();
            c.dropped_spans += evicted.len() as u64;
        }
    }
}

/// Clones the recently completed trees, oldest first.
pub fn recent_trees() -> Vec<SpanTree> {
    collector().completed.iter().cloned().collect()
}

/// Spans lost so far to pending-table eviction.
pub fn dropped_spans() -> u64 {
    collector().dropped_spans
}

/// Sets how many completed trees the recorder keeps (existing overflow is
/// evicted immediately). Clamped to ≥ 1.
pub fn set_tree_capacity(capacity: usize) {
    let mut c = collector();
    c.tree_capacity = capacity.max(1);
    while c.completed.len() > c.tree_capacity {
        c.completed.pop_front();
    }
}

/// Clears every collected tree, pending span, stored dump, and drop count.
/// For tests and experiment phases sharing one process.
pub fn reset() {
    let mut c = collector();
    c.pending.clear();
    c.completed.clear();
    c.dropped_spans = 0;
    drop(c);
    dumps_store().clear();
}

/// Why a dump was frozen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    /// A burst of consecutive `Busy` backpressure rejections.
    BusyBurst,
    /// An accepted online reshard.
    Reshard,
    /// A request's latency exceeded the configured SLO.
    LatencySlo,
    /// A registry partition invariant stayed violated across auditor ticks.
    InvariantViolation,
}

impl AnomalyKind {
    /// Every kind.
    pub const ALL: [AnomalyKind; 4] = [
        AnomalyKind::BusyBurst,
        AnomalyKind::Reshard,
        AnomalyKind::LatencySlo,
        AnomalyKind::InvariantViolation,
    ];

    /// Stable lowercase name used in exposition.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnomalyKind::BusyBurst => "busy_burst",
            AnomalyKind::Reshard => "reshard",
            AnomalyKind::LatencySlo => "latency_slo",
            AnomalyKind::InvariantViolation => "invariant_violation",
        }
    }

    /// Inverse of [`as_str`](AnomalyKind::as_str).
    pub fn parse(s: &str) -> Option<AnomalyKind> {
        AnomalyKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A frozen cut of the recorder at the moment an anomaly fired.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightDump {
    /// What fired.
    pub reason: AnomalyKind,
    /// Free-form trigger detail (the violated invariant, the slow
    /// request's latency, ...).
    pub detail: String,
    /// When it fired, nanoseconds on the process clock ([`now_ns`](crate::span::now_ns)).
    pub at_ns: u64,
    /// The completed trees at freeze time, oldest first.
    pub trees: Vec<SpanTree>,
    /// A registry metrics snapshot ([`Registry::to_json`]), or `Null` when
    /// no registry was supplied.
    pub metrics: Json,
    /// Spans the collector had dropped before the freeze.
    pub dropped_spans: u64,
}

impl FlightDump {
    /// JSON exposition (inverse of [`FlightDump::from_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("reason", Json::Str(self.reason.as_str().to_string())),
            ("detail", Json::Str(self.detail.clone())),
            ("at_ns", Json::Num(self.at_ns as f64)),
            ("trees", Json::arr(self.trees.iter().map(SpanTree::to_json))),
            ("metrics", self.metrics.clone()),
            ("dropped_spans", Json::Num(self.dropped_spans as f64)),
        ])
    }

    /// Parses a dump serialized by [`FlightDump::to_json`].
    pub fn from_json(json: &Json) -> Option<FlightDump> {
        Some(FlightDump {
            reason: AnomalyKind::parse(json.get("reason")?.as_str()?)?,
            detail: json.get("detail")?.as_str()?.to_string(),
            at_ns: json.get("at_ns")?.as_u64()?,
            trees: json
                .get("trees")?
                .as_array()?
                .iter()
                .map(SpanTree::from_json)
                .collect::<Option<_>>()?,
            metrics: json.get("metrics")?.clone(),
            dropped_spans: json.get("dropped_spans")?.as_u64()?,
        })
    }

    /// The dump's spans in Chrome trace-event JSON (the `chrome://tracing`
    /// / Perfetto format): one complete (`"ph": "X"`) event per span,
    /// timestamps and durations in microseconds, thread index as `tid`,
    /// span identity and arguments under `args`.
    pub fn to_chrome_trace(&self) -> Json {
        let events = self.trees.iter().flat_map(|tree| {
            tree.spans.iter().map(|s| {
                Json::obj([
                    ("name", Json::Str(s.kind.as_str().to_string())),
                    ("cat", Json::Str("psnap".to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.begin_ns as f64 / 1000.0)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1000.0)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.thread as f64)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("root", Json::Num(s.root as f64)),
                            ("a", Json::Num(s.a as f64)),
                            ("b", Json::Num(s.b as f64)),
                        ]),
                    ),
                ])
            })
        });
        Json::obj([
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
            (
                "otherData",
                Json::obj([
                    ("reason", Json::Str(self.reason.as_str().to_string())),
                    ("detail", Json::Str(self.detail.clone())),
                ]),
            ),
        ])
    }
}

/// Anomaly triggers armed? Off by default: arming is a deployment decision
/// (dumps clone the whole tree ring), not a side effect of span collection.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Cumulative dumps frozen since process start (monotone; survives
/// [`reset`] eviction of the stored dumps).
static TOTAL_DUMPS: AtomicU64 = AtomicU64::new(0);

static DUMPS: Mutex<Vec<FlightDump>> = Mutex::new(Vec::new());

fn dumps_store() -> std::sync::MutexGuard<'static, Vec<FlightDump>> {
    DUMPS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arms or disarms anomaly triggers process-wide.
pub fn set_armed(armed: bool) {
    ARMED.store(armed, Ordering::SeqCst);
}

/// Whether anomaly triggers are currently armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Fires an anomaly: freezes the completed-tree ring and a metrics
/// snapshot of `registry` (if any) into a [`FlightDump`], stores it (the
/// last 8 are kept, readable via [`dumps`]), and returns
/// it. Returns `None` when triggers are [disarmed](set_armed).
pub fn trigger(
    reason: AnomalyKind,
    detail: String,
    registry: Option<&Registry>,
) -> Option<FlightDump> {
    if !armed() {
        return None;
    }
    let (trees, dropped_spans) = {
        let c = collector();
        (c.completed.iter().cloned().collect(), c.dropped_spans)
    };
    let dump = FlightDump {
        reason,
        detail,
        at_ns: crate::span::now_ns(),
        trees,
        metrics: registry.map(Registry::to_json).unwrap_or(Json::Null),
        dropped_spans,
    };
    TOTAL_DUMPS.fetch_add(1, Ordering::Relaxed);
    let mut dumps = dumps_store();
    dumps.push(dump.clone());
    let excess = dumps.len().saturating_sub(DUMP_CAPACITY);
    if excess > 0 {
        dumps.drain(..excess);
    }
    Some(dump)
}

/// Clones the stored dumps, oldest first.
pub fn dumps() -> Vec<FlightDump> {
    dumps_store().clone()
}

/// Removes and returns the stored dumps, oldest first.
pub fn take_dumps() -> Vec<FlightDump> {
    std::mem::take(&mut *dumps_store())
}

/// Cumulative dumps frozen since process start.
pub fn dump_count() -> u64 {
    TOTAL_DUMPS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector and dump store are process-global; tests that reset or
    // count serialize against each other.
    static FLIGHT_LOCK: Mutex<()> = Mutex::new(());

    fn rec(id: u64, parent: u64, root: u64, kind: SpanKind, begin: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            root,
            kind,
            begin_ns: begin,
            end_ns: end,
            thread: 0,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn trees_assemble_root_first_children_by_begin_time() {
        let _serial = FLIGHT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        record(rec(1002, 1001, 1001, SpanKind::Merge, 30, 40));
        record(rec(1003, 1001, 1001, SpanKind::QueueWait, 10, 20));
        record(rec(1001, 0, 1001, SpanKind::ScanRequest, 5, 50));
        let trees = recent_trees();
        assert_eq!(trees.len(), 1);
        let kinds: Vec<SpanKind> = trees[0].spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::ScanRequest, SpanKind::QueueWait, SpanKind::Merge]
        );
        assert_eq!(trees[0].duration_ns(), 45);
        reset();
    }

    #[test]
    fn tree_ring_is_bounded() {
        let _serial = FLIGHT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_tree_capacity(4);
        for i in 0..10u64 {
            let id = 2000 + i;
            record(rec(id, 0, id, SpanKind::Ingest, i, i + 1));
        }
        let trees = recent_trees();
        assert_eq!(trees.len(), 4);
        assert_eq!(trees[0].root().id, 2006);
        set_tree_capacity(DEFAULT_TREE_CAPACITY);
        reset();
    }

    #[test]
    fn dump_round_trips_through_json_and_exports_chrome_trace() {
        let _serial = FLIGHT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_armed(true);
        record(rec(3002, 3001, 3001, SpanKind::BackingScan, 12, 34));
        record(rec(3001, 0, 3001, SpanKind::ScanRequest, 10, 40));
        let registry = Registry::new();
        registry.counter("t.hits").add(7);
        let dump = trigger(
            AnomalyKind::LatencySlo,
            "scan took 30ns against a 1ns SLO".to_string(),
            Some(&registry),
        )
        .expect("armed trigger returns a dump");
        set_armed(false);

        let json = dump.to_json();
        let text = json.to_string_pretty();
        let reparsed = Json::parse(&text).expect("dump JSON parses");
        let restored = FlightDump::from_json(&reparsed).expect("dump deserializes");
        assert_eq!(restored, dump);

        let chrome = dump.to_chrome_trace();
        let events = chrome.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("scan_request")));
        reset();
    }

    #[test]
    fn disarmed_triggers_are_silent() {
        let _serial = FLIGHT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(false);
        assert!(trigger(AnomalyKind::BusyBurst, String::new(), None).is_none());
    }
}
