//! [`SnapshotService`]: an async frontend over any [`PartialSnapshot`].
//!
//! Callers stop owning threads that call the snapshot object in-process;
//! instead they hold a [`ClientHandle`] and talk to three pipelines:
//!
//! 1. **Ingestion** — [`ClientHandle::submit`] / [`ClientHandle::submit_batch`] push writes
//!    into the client's own bounded MPSC queue and return an
//!    [`UpdateTicket`]. A single drainer task collects every client queue,
//!    concatenates the submissions in arrival order, coalesces duplicate
//!    components **last-write-wins** (legal because the whole chunk is
//!    applied by one `update_many`, i.e. at one linearization point, and a
//!    superseded write linearizes immediately before its superseder), and
//!    applies one [`PartialSnapshot::update_many`] per chunk. Client batch
//!    boundaries are respected: a submission's writes are never split across
//!    two `update_many` calls, so every client batch stays atomic.
//! 2. **Scan coalescing** — [`ClientHandle::scan`] enqueues a scan request.
//!    The scan server — one task on one process id — drains all pending
//!    requests (optionally waiting a [`Coalescing::Window`] to accumulate
//!    more), merges their component sets into one deduplicated
//!    [`ScanUnion`], runs **one** backing scan, and fans each requester's
//!    subset back out. A projection of one
//!    linearizable scan is itself a legal scan at the same linearization
//!    point, which is what the lincheck conformance suite verifies end to
//!    end. A union job is *plan → scan → fan out → publish*, and only the
//!    scan costs more than the slots requested: the union is one flat pass
//!    with no routing (the backing object plans per shard itself), per-job
//!    bookkeeping (clock, counters, span vectors) is paid once per job, and
//!    the cut enters the freshness cache by **moving** the two vectors the
//!    job already holds — the lookup index is built by the first stale
//!    reader, if one ever comes. `{prefix}.scan.plan_ns`, `.backing_latency_ns`,
//!    `.fanout_ns` and `.publish_ns` time the four stages per job.
//! 3. **Backpressure** — both queue families are bounded; a full queue fails
//!    the submit with [`SubmitError::Busy`] immediately and enqueues
//!    nothing. Accepted work is never dropped: every ticket resolves, even
//!    across [`SnapshotService::shutdown`].
//!
//! Per-request **freshness bounds** sort scans into three serving tiers. A
//! scan submitted with [`Freshness::Fresh`] is always answered by a backing
//! scan that starts after the request arrived (strict linearizability).
//! With [`Freshness::AtMostStale`], the service first tries the **cache
//! tier** — a recent backing scan's union that covers the request within
//! the bound, an atomic view at zero backing cost — and then the **mv
//! tier**: if the backing object has version history
//! ([`PartialSnapshot::scan_stale`]), the request is answered directly from
//! the version chains, touching only its own components, with no union
//! amplification and no coalescing wait. Only when both fast tiers decline
//! does a stale request join the backing tier.
//!
//! The backing tier has one lever, the [`Coalescing::Window`]: how long the
//! scan server waits for more requests before it scans. A lone request at
//! an idle server is dispatched at once, whatever the window. Everything the
//! server drained goes into one union on its one pid: on a multiversioned
//! store a union scan is one camera tick plus a read per component, so
//! splitting it by shard would buy parallelism but no consistency. The
//! freshness cache belongs to the scan server too: every entry is pushed and
//! read by that one task, newest first.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use psnap_core::{PartialSnapshot, ProcessId};
use psnap_obs::{
    flight, span, trace, AnomalyKind, Counter, Gauge, Histogram, HistogramSnapshot, Metric,
    RateTracker, Registry, Span, SpanKind, TraceKind,
};
use psnap_shard::{last_write_wins, ReshardPolicy, ReshardPolicyConfig, ScanUnion};

use crate::executor::{block_on_timeout, Executor, Handle};
use crate::queue::{BoundedQueue, Notify, OpCell, SubmitError, Ticket};

/// How the scan server merges concurrent scan requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coalescing {
    /// Merge everything pending when the scan server wakes; with a non-zero
    /// window, first sleep that long so more requests accumulate (larger
    /// unions, higher latency floor). A lone request at an idle server is
    /// dispatched immediately — a window with no possible coalescing
    /// partners buys nothing. Every window decision (including the zero
    /// ones) is recorded in the `scan.window_ns` histogram.
    Window(Duration),
}

/// Per-request freshness bound of a scan (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Freshness {
    /// Linearizable: answered by a backing scan started after the request.
    Fresh,
    /// May be served without a fresh backing scan: from a cached union cut
    /// at most this old that covers the requested components, or — on
    /// multiversioned backends — by a bounded targeted read of the version
    /// chains (`scan_stale`), whose cut is taken inside the request's
    /// service time and therefore satisfies any bound.
    AtMostStale(Duration),
}

/// Configuration of a [`SnapshotService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Capacity of each client's ingestion queue (submissions, not writes).
    pub ingest_capacity: usize,
    /// Capacity of the shared scan-request queue.
    pub scan_capacity: usize,
    /// Scan-merging policy.
    pub coalescing: Coalescing,
    /// Maximum writes per `update_many` call. Chunks always contain whole
    /// submissions; a single submission larger than this still goes out as
    /// one (atomic) call.
    pub max_batch: usize,
    /// Process id the ingestion drainer uses on the backing object.
    pub drain_pid: ProcessId,
    /// Process id the scan server uses on the backing object.
    pub scan_pid: ProcessId,
    /// Per-request scan latency SLO: a served scan whose request-to-answer
    /// latency exceeds this fires the flight recorder's
    /// [`LatencySlo`](psnap_obs::AnomalyKind::LatencySlo) trigger (no-op
    /// unless triggers are [armed](psnap_obs::flight::set_armed)).
    /// `None` (the default) disables the check entirely.
    pub scan_slo: Option<Duration>,
    /// Consecutive [`SubmitError::Busy`] rejections (across submits and
    /// scans) **on one client** that fire the flight recorder's
    /// [`BusyBurst`](psnap_obs::AnomalyKind::BusyBurst) trigger, once per
    /// streak. The streak is tracked per [`ClientHandle`] so other clients'
    /// accepted traffic cannot mask a starved client's burst. `0` (the
    /// default) disables the check.
    pub busy_burst_threshold: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            ingest_capacity: 64,
            scan_capacity: 256,
            coalescing: Coalescing::Window(Duration::ZERO),
            max_batch: 256,
            drain_pid: ProcessId(0),
            scan_pid: ProcessId(1),
            scan_slo: None,
            busy_burst_threshold: 0,
        }
    }
}

/// Ticket resolving once the submitted write(s) have been applied.
pub type UpdateTicket = Ticket<()>;

/// Ticket resolving with the scan's values (request order, one per
/// requested component).
pub type ScanTicket<T> = Ticket<Vec<T>>;

struct Submission<T> {
    writes: Vec<(usize, T)>,
    cell: Arc<OpCell<()>>,
    submitted: Instant,
    /// Child span covering the queue dwell; taken and ended at drain time.
    /// Declared before the root so that a rejected submission (dropped
    /// whole by `try_push`) ends the child first and its stunted tree
    /// still assembles.
    queue_wait: Option<Span>,
    /// Root of the request's span tree (kind `Ingest`); taken and ended
    /// when the submission resolves. Inert unless spans are enabled.
    span: Option<Span>,
}

struct ScanRequest<T> {
    components: Vec<usize>,
    freshness: Freshness,
    cell: Arc<OpCell<Vec<T>>>,
    submitted: Instant,
    /// Child span covering the queue dwell; taken and ended at drain time.
    /// Declared before the root so that a rejected request (dropped whole
    /// by `try_push`) ends the child first and its stunted tree still
    /// assembles.
    queue_wait: Option<Span>,
    /// Root of the request's span tree (kind `ScanRequest`): begun on the
    /// submitting thread, carried through the queue and any executor worker
    /// with the request, ended when the answer is completed — so its drop
    /// is the moment the flight recorder assembles the whole tree. Inert
    /// unless spans are enabled.
    span: Span,
}

/// One backing scan's union view, for freshness-bounded requests. The scan
/// server keeps the most recent [`CACHE_ENTRIES`] of these; each entry is
/// one scan's atomic cut and entries are **never merged** — two union jobs
/// have different linearization points, and a merged map could show a cut
/// no single scan ever saw.
struct ScanCache<T> {
    /// The cut as the scan that took it held it: distinct components and
    /// their values, in parallel, moved in rather than copied.
    components: Vec<usize>,
    values: Vec<T>,
    taken_at: Instant,
    /// Partition-map generation the entry was taken under, with each
    /// component's shard at that time (parallel to `components`). On a
    /// later generation, only components whose shard assignment actually
    /// moved are dropped (a projection of an atomic cut is still atomic);
    /// unmigrated components keep serving. The shards cannot wait for a
    /// reader the way `by_component` does: once the generation moves, the
    /// assignment the entry was taken under is gone.
    generation: u64,
    shards: Vec<u32>,
    /// Positions of `components` in ascending component order — the lookup
    /// index. Empty until the first stale reader consults the entry; most
    /// entries are evicted without ever being read.
    by_component: Vec<u32>,
}

impl<T: Clone> ScanCache<T> {
    /// The values of `components` if the entry covers them all.
    fn lookup(&mut self, components: &[usize]) -> Option<Vec<T>> {
        if self.by_component.is_empty() {
            self.by_component = (0..self.components.len() as u32).collect();
            self.by_component
                .sort_unstable_by_key(|&at| self.components[at as usize]);
        }
        components
            .iter()
            .map(|component| {
                self.by_component
                    .binary_search_by_key(component, |&at| self.components[at as usize])
                    .ok()
                    .map(|found| self.values[self.by_component[found] as usize].clone())
            })
            .collect()
    }

    /// Moves the entry to `generation`, dropping every component whose
    /// shard is no longer the one it was published under. Returns how many
    /// were dropped.
    fn revalidate(&mut self, generation: u64, shard_of: impl Fn(usize) -> usize) -> usize {
        self.generation = generation;
        let before = self.components.len();
        let mut kept = 0;
        for at in 0..before {
            if shard_of(self.components[at]) == self.shards[at] as usize {
                self.components.swap(kept, at);
                self.values.swap(kept, at);
                self.shards.swap(kept, at);
                kept += 1;
            }
        }
        if kept < before {
            self.components.truncate(kept);
            self.values.truncate(kept);
            self.shards.truncate(kept);
            self.by_component.clear();
        }
        before - kept
    }
}

/// Cache entries kept (newest first). Union jobs and mv-served answers each
/// push one, so a handful covers the recent past without letting an old
/// deployment accumulate unbounded state.
const CACHE_ENTRIES: usize = 8;

/// EWMA weight of the newest heat-rate observation (see
/// [`ServiceObs::shard_heat_rate`]): responsive within a few ticks, but one
/// noisy window cannot swing the rate by itself.
const HEAT_EWMA_ALPHA: f64 = 0.5;

/// The service's live metric handles — obs counters (striped, aggregated on
/// read), latency histograms, and queue-depth gauges. Shared into any
/// [`Registry`] by [`SnapshotService::register_obs`] without copying.
struct Counters {
    submits_ok: Arc<Counter>,
    submits_busy: Arc<Counter>,
    submits_closed: Arc<Counter>,
    writes_submitted: Arc<Counter>,
    batches_applied: Arc<Counter>,
    writes_applied: Arc<Counter>,
    writes_coalesced_away: Arc<Counter>,
    submits_resolved: Arc<Counter>,
    scans_ok: Arc<Counter>,
    scans_busy: Arc<Counter>,
    scans_closed: Arc<Counter>,
    scans_served_backing: Arc<Counter>,
    scans_served_cache: Arc<Counter>,
    scans_served_mv: Arc<Counter>,
    scans_served_empty: Arc<Counter>,
    backing_scans: Arc<Counter>,
    backing_components: Arc<Counter>,
    requested_components: Arc<Counter>,
    /// Cache entries lazily revalidated after a reshard (generation moved).
    cache_revalidated: Arc<Counter>,
    /// Cached components dropped by revalidation (their shard migrated).
    cache_invalidated_components: Arc<Counter>,
    /// Submit-to-applied latency per resolved submission (nanoseconds).
    submit_latency: Arc<Histogram>,
    /// Request-to-answer latency per served scan (nanoseconds).
    scan_latency: Arc<Histogram>,
    /// Duration of each backing scan against the snapshot object
    /// (nanoseconds).
    backing_latency: Arc<Histogram>,
    /// Coalescing-window width chosen per serve round (nanoseconds),
    /// including the zero decisions of lone-request dispatch.
    window_ns: Arc<Histogram>,
    /// Per union job, beside `backing_latency`: building the deduplicated
    /// union, answering every request of the job, and publishing the cut
    /// to the freshness cache (nanoseconds each).
    plan_ns: Arc<Histogram>,
    fanout_ns: Arc<Histogram>,
    publish_ns: Arc<Histogram>,
    /// Submissions currently queued across all clients.
    ingest_depth: Arc<Gauge>,
    /// Scan requests currently queued.
    scan_depth: Arc<Gauge>,
}

impl Default for Counters {
    fn default() -> Counters {
        Counters {
            submits_ok: Arc::new(Counter::new()),
            submits_busy: Arc::new(Counter::new()),
            submits_closed: Arc::new(Counter::new()),
            writes_submitted: Arc::new(Counter::new()),
            batches_applied: Arc::new(Counter::new()),
            writes_applied: Arc::new(Counter::new()),
            writes_coalesced_away: Arc::new(Counter::new()),
            submits_resolved: Arc::new(Counter::new()),
            scans_ok: Arc::new(Counter::new()),
            scans_busy: Arc::new(Counter::new()),
            scans_closed: Arc::new(Counter::new()),
            scans_served_backing: Arc::new(Counter::new()),
            scans_served_cache: Arc::new(Counter::new()),
            scans_served_mv: Arc::new(Counter::new()),
            scans_served_empty: Arc::new(Counter::new()),
            backing_scans: Arc::new(Counter::new()),
            backing_components: Arc::new(Counter::new()),
            requested_components: Arc::new(Counter::new()),
            cache_revalidated: Arc::new(Counter::new()),
            cache_invalidated_components: Arc::new(Counter::new()),
            submit_latency: Arc::new(Histogram::new()),
            scan_latency: Arc::new(Histogram::new()),
            backing_latency: Arc::new(Histogram::new()),
            window_ns: Arc::new(Histogram::new()),
            plan_ns: Arc::new(Histogram::new()),
            fanout_ns: Arc::new(Histogram::new()),
            publish_ns: Arc::new(Histogram::new()),
            ingest_depth: Arc::new(Gauge::new()),
            scan_depth: Arc::new(Gauge::new()),
        }
    }
}

/// A point-in-time snapshot of the service's counters.
///
/// The counters **partition**: every accepted submission is eventually resolved
/// (`submits_ok == submits_resolved` at quiescence), every submitted write is
/// either applied or coalesced away (`writes_submitted == writes_applied +
/// writes_coalesced_away`), and every accepted scan is served by exactly one
/// of the backing, cache, mv, or empty paths (`scans_ok ==
/// scans_served_backing + scans_served_cache + scans_served_mv +
/// scans_served_empty`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions accepted into an ingestion queue.
    pub submits_ok: u64,
    /// Submissions rejected with [`SubmitError::Busy`].
    pub submits_busy: u64,
    /// Submissions rejected with [`SubmitError::Closed`].
    pub submits_closed: u64,
    /// Component writes accepted (a batch of `k` counts `k`).
    pub writes_submitted: u64,
    /// `update_many` calls issued by the drainer.
    pub batches_applied: u64,
    /// Component writes actually passed to `update_many`.
    pub writes_applied: u64,
    /// Writes superseded by a later same-component write in the same chunk.
    pub writes_coalesced_away: u64,
    /// Submit-to-applied latency distribution (nanoseconds) over resolved
    /// submissions — count, sum, exact max, and log2-resolution p50/p99.
    pub submit_latency: HistogramSnapshot,
    /// Submissions whose ticket has been completed.
    pub submits_resolved: u64,
    /// Scan requests accepted into the scan queue.
    pub scans_ok: u64,
    /// Scan requests rejected with [`SubmitError::Busy`].
    pub scans_busy: u64,
    /// Scan requests rejected with [`SubmitError::Closed`].
    pub scans_closed: u64,
    /// Scan requests answered by a backing scan.
    pub scans_served_backing: u64,
    /// Scan requests answered from the freshness cache.
    pub scans_served_cache: u64,
    /// Freshness-relaxed requests answered straight from the backing
    /// object's version chains ([`PartialSnapshot::scan_stale`]).
    pub scans_served_mv: u64,
    /// Scan requests for zero components, answered inline without backing
    /// work.
    pub scans_served_empty: u64,
    /// Backing scans issued against the snapshot object.
    pub backing_scans: u64,
    /// Deduplicated components read by backing scans.
    pub backing_components: u64,
    /// Components requested by scans served via the backing path.
    pub requested_components: u64,
    /// Cache entries lazily revalidated after a reshard moved the
    /// partition-map generation past the entry's.
    pub cache_revalidated: u64,
    /// Cached components dropped by revalidation because their shard
    /// migrated (unmigrated components of the same entry keep serving).
    pub cache_invalidated_components: u64,
    /// Request-to-answer latency distribution (nanoseconds) over served
    /// scans — count, sum, exact max, and log2-resolution p50/p99.
    pub scan_latency: HistogramSnapshot,
    /// Per-backing-scan duration distribution (nanoseconds).
    pub backing_latency: HistogramSnapshot,
    /// Coalescing-window widths chosen per serve round (nanoseconds),
    /// zero decisions included.
    pub window_ns: HistogramSnapshot,
    /// Per-union-job time to build the deduplicated union (nanoseconds).
    pub plan_ns: HistogramSnapshot,
    /// Per-union-job time to answer every request of the job (nanoseconds).
    pub fanout_ns: HistogramSnapshot,
    /// Per-union-job time to publish the cut to the freshness cache
    /// (nanoseconds).
    pub publish_ns: HistogramSnapshot,
}

impl ServiceStats {
    /// Client scans answered per backing scan — the scan-coalescing win
    /// (`> 1` means merging happened).
    pub fn coalescing_ratio(&self) -> f64 {
        if self.backing_scans == 0 {
            0.0
        } else {
            self.scans_served_backing as f64 / self.backing_scans as f64
        }
    }

    /// Components requested per component actually read by the backing
    /// object (overlap between merged requests raises it above 1).
    pub fn component_dedup_ratio(&self) -> f64 {
        if self.backing_components == 0 {
            0.0
        } else {
            self.requested_components as f64 / self.backing_components as f64
        }
    }

    /// Mean submit-to-applied latency in nanoseconds.
    pub fn mean_submit_latency_ns(&self) -> f64 {
        self.submit_latency.mean()
    }

    /// Mean scan request-to-answer latency in nanoseconds.
    pub fn mean_scan_latency_ns(&self) -> f64 {
        self.scan_latency.mean()
    }
}

/// One observability snapshot of a live service: the counter stats, the
/// derived ratios, the queue-depth gauges, the backing object's per-shard
/// heat, and the process-wide multiversion chain gauges — everything the
/// acceptance dashboard of a deployment needs, in one read.
#[derive(Clone, Debug)]
pub struct ServiceObs {
    /// The counter/latency stats (see [`ServiceStats`]).
    pub stats: ServiceStats,
    /// Client scans answered per backing scan (`> 1` means coalescing won).
    pub coalescing_ratio: f64,
    /// Components requested per component actually read.
    pub component_dedup_ratio: f64,
    /// Submissions currently queued across all clients (live gauge).
    pub ingest_depth: i64,
    /// Scan requests currently queued (live gauge).
    pub scan_depth: i64,
    /// Client queues currently registered.
    pub client_count: usize,
    /// Per-shard operation heat of the backing object (empty when the
    /// backing object is unsharded).
    pub shard_heat: Vec<u64>,
    /// EWMA-smoothed per-shard heat **rate** (operations per observation
    /// tick), differentiated from the cumulative [`shard_heat`] counters
    /// across successive obs snapshots. This is the windowed view a
    /// reshard policy consumes: a shard that was hot an hour ago but is
    /// idle now decays toward `0` here while its cumulative counter never
    /// moves backwards. Zeros on the first snapshot (nothing to diff yet).
    ///
    /// [`shard_heat`]: ServiceObs::shard_heat
    pub shard_heat_rate: Vec<f64>,
    /// Partition-map generation of the backing object: `0` forever on a
    /// static object, bumped once per accepted reshard on an
    /// epoch-versioned one.
    pub generation: u64,
    /// Process-wide count of live multiversion chain entries
    /// ([`psnap_shmem::metrics::mv_live_versions`]).
    pub mv_live_versions: i64,
    /// Process-wide chain-length-at-prune distribution
    /// ([`psnap_shmem::metrics::mv_chain_len`]).
    pub mv_chain_len: HistogramSnapshot,
    /// Process-wide flight-recorder dumps frozen so far
    /// ([`psnap_obs::flight::dump_count`]) — a dashboard's anomaly pulse.
    pub flight_dumps: u64,
}

impl ServiceObs {
    /// JSON exposition of the whole snapshot.
    pub fn to_json(&self) -> psnap_json::Json {
        use psnap_json::Json;
        let hist = |h: &HistogramSnapshot| {
            Json::obj([
                ("count", Json::Num(h.count as f64)),
                ("sum", Json::Num(h.sum as f64)),
                ("max", Json::Num(h.max as f64)),
                ("p50", Json::Num(h.p50 as f64)),
                ("p99", Json::Num(h.p99 as f64)),
            ])
        };
        Json::obj([
            ("submits_ok", Json::Num(self.stats.submits_ok as f64)),
            ("submits_busy", Json::Num(self.stats.submits_busy as f64)),
            (
                "submits_resolved",
                Json::Num(self.stats.submits_resolved as f64),
            ),
            (
                "writes_applied",
                Json::Num(self.stats.writes_applied as f64),
            ),
            ("scans_ok", Json::Num(self.stats.scans_ok as f64)),
            ("backing_scans", Json::Num(self.stats.backing_scans as f64)),
            (
                "scans_served_backing",
                Json::Num(self.stats.scans_served_backing as f64),
            ),
            (
                "scans_served_cache",
                Json::Num(self.stats.scans_served_cache as f64),
            ),
            (
                "scans_served_mv",
                Json::Num(self.stats.scans_served_mv as f64),
            ),
            ("submit_latency_ns", hist(&self.stats.submit_latency)),
            ("scan_latency_ns", hist(&self.stats.scan_latency)),
            ("backing_latency_ns", hist(&self.stats.backing_latency)),
            ("window_ns", hist(&self.stats.window_ns)),
            ("plan_ns", hist(&self.stats.plan_ns)),
            ("fanout_ns", hist(&self.stats.fanout_ns)),
            ("publish_ns", hist(&self.stats.publish_ns)),
            ("coalescing_ratio", Json::Num(self.coalescing_ratio)),
            (
                "component_dedup_ratio",
                Json::Num(self.component_dedup_ratio),
            ),
            ("ingest_depth", Json::Num(self.ingest_depth as f64)),
            ("scan_depth", Json::Num(self.scan_depth as f64)),
            ("client_count", Json::Num(self.client_count as f64)),
            (
                "shard_heat",
                Json::arr(self.shard_heat.iter().map(|&h| Json::Num(h as f64))),
            ),
            (
                "shard_heat_rate",
                Json::arr(self.shard_heat_rate.iter().map(|&r| Json::Num(r))),
            ),
            ("generation", Json::Num(self.generation as f64)),
            ("mv_live_versions", Json::Num(self.mv_live_versions as f64)),
            ("mv_chain_len", hist(&self.mv_chain_len)),
            (
                "cache_revalidated",
                Json::Num(self.stats.cache_revalidated as f64),
            ),
            (
                "cache_invalidated_components",
                Json::Num(self.stats.cache_invalidated_components as f64),
            ),
            ("flight_dumps", Json::Num(self.flight_dumps as f64)),
        ])
    }
}

/// The client-queue registry. The `closed` flag lives under the same mutex
/// as the queue list so shutdown's close sweep, client registration, and the
/// drainer's exit sample are totally ordered: once the drainer observes
/// `closed` with every listed queue closed, any registration it missed must
/// come later in the mutex order, see `closed == true`, and be born closed —
/// so no queue the final drain skips can ever hold an accepted submission.
/// (A bare atomic flag cannot give this: a registration could read a stale
/// `false` with no happens-before edge and accept a write the exiting
/// drainer never sees, stranding its ticket.)
struct ClientRegistry<T> {
    closed: bool,
    queues: Vec<Arc<BoundedQueue<Submission<T>>>>,
}

struct ServiceCore<T, S> {
    snapshot: S,
    config: ServiceConfig,
    clients: Mutex<ClientRegistry<T>>,
    ingest_notify: Arc<Notify>,
    scan_notify: Arc<Notify>,
    scan_queue: BoundedQueue<ScanRequest<T>>,
    /// Fast-path mirror of [`ClientRegistry::closed`] for background tasks
    /// (reporter, reshard driver, auditor) that only need an eventually
    /// consistent answer. The registry field is authoritative.
    closed: AtomicBool,
    /// Differentiates the backing object's cumulative `shard_heat` into
    /// per-tick rates, advanced once per obs snapshot (see
    /// [`ServiceObs::shard_heat_rate`]).
    heat_rates: Mutex<RateTracker>,
    counters: Counters,
    drain_done: Arc<OpCell<()>>,
    scan_done: Arc<OpCell<()>>,
}

impl<T, S> ServiceCore<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    /// The values of `components` from the newest entry of `cache` that is
    /// at most `bound` old and covers them all.
    fn try_cache(
        &self,
        cache: &mut Vec<ScanCache<T>>,
        components: &[usize],
        bound: Duration,
    ) -> Option<Vec<T>> {
        let current_generation = self.snapshot.generation();
        // Lazy per-shard revalidation: a reshard does not wipe the cache —
        // an entry taken under an older generation drops only the
        // components whose shard assignment actually moved (a projection
        // of an atomic cut is still atomic at the same point), and keeps
        // serving the rest. Entries drained of every component disappear.
        for entry in cache.iter_mut() {
            if entry.generation == current_generation {
                continue;
            }
            let dropped = entry.revalidate(current_generation, |component| {
                self.snapshot.shard_of(component)
            });
            self.counters.cache_revalidated.inc();
            self.counters
                .cache_invalidated_components
                .add(dropped as u64);
        }
        cache.retain(|entry| !entry.components.is_empty());
        // One task pushes every entry, so the cache is newest first and the
        // first entry past the bound ends the search.
        for entry in cache.iter_mut() {
            if entry.taken_at.elapsed() > bound {
                return None;
            }
            if let Some(values) = entry.lookup(components) {
                return Some(values);
            }
        }
        None
    }

    /// Publishes one scan's atomic cut — distinct `components` and their
    /// `values`, moved in as they are — as the newest cache entry, tagged
    /// with the current partition generation and each component's shard
    /// (the inputs of lazy revalidation — see [`try_cache`]).
    ///
    /// [`try_cache`]: ServiceCore::try_cache
    fn push_cache(
        &self,
        cache: &mut Vec<ScanCache<T>>,
        components: Vec<usize>,
        values: Vec<T>,
        taken_at: Instant,
    ) {
        let generation = self.snapshot.generation();
        let shards = components
            .iter()
            .map(|&component| self.snapshot.shard_of(component) as u32)
            .collect();
        cache.insert(
            0,
            ScanCache {
                components,
                values,
                taken_at,
                generation,
                shards,
                by_component: Vec::new(),
            },
        );
        cache.truncate(CACHE_ENTRIES);
    }

    /// Resolves one scan request: records its latency, emits the
    /// [`ScanServe`](TraceKind::ScanServe) event attributed to the
    /// request's span, stamps the root span's end arguments (serving tier,
    /// latency), completes the ticket, and — because the request struct
    /// owns the root [`Span`] — ends the tree, which is the moment the
    /// flight recorder assembles it. Breaching [`ServiceConfig::scan_slo`]
    /// fires the latency trigger *after* the tree is collected, so the
    /// dump always contains the offending request. `answered` is the
    /// instant the latency is measured to; a union job reads the clock once
    /// for all its requests.
    fn complete_scan(
        &self,
        mut request: ScanRequest<T>,
        answered: Instant,
        tier: u64,
        tier_b: u64,
        values: Vec<T>,
    ) {
        let latency_ns = answered
            .saturating_duration_since(request.submitted)
            .as_nanos() as u64;
        self.counters.scan_latency.record(latency_ns);
        {
            let _in_span = span::enter(request.span.context());
            trace::emit(TraceKind::ScanServe, tier, tier_b);
        }
        request.span.set_args(tier, latency_ns);
        request.queue_wait.take();
        request.cell.complete(values);
        drop(request);
        if let Some(slo) = self.config.scan_slo {
            let slo_ns = slo.as_nanos() as u64;
            if latency_ns > slo_ns && flight::armed() {
                flight::trigger(
                    AnomalyKind::LatencySlo,
                    format!(
                        "scan answered in {latency_ns}ns against a {slo_ns}ns SLO (tier {tier})"
                    ),
                    Some(Registry::global()),
                );
            }
        }
    }

    /// Answers a batch of scan requests on the scan server: empty ones
    /// inline, freshness-relaxed ones from `cache` or the backing object's
    /// version chains, and the rest with one union backing scan.
    fn serve_scans(&self, requests: Vec<ScanRequest<T>>, cache: &mut Vec<ScanCache<T>>) {
        let mut live = Vec::with_capacity(requests.len());
        for request in requests {
            // An empty request needs no backing work at all; answering it
            // inline keeps it from issuing a zero-width "backing scan" that
            // would skew the coalescing ratio and wipe the freshness cache
            // with an empty union.
            if request.components.is_empty() {
                self.counters.scans_served_empty.inc();
                self.complete_scan(request, Instant::now(), 2, 0, Vec::new());
                continue;
            }
            if let Freshness::AtMostStale(bound) = request.freshness {
                // Cache tier first (a map lookup), then the mv tier: a
                // direct read of the version chains, touching only this
                // request's components. Both leave the backing-scan
                // pipeline untouched.
                if let Some(values) = self.try_cache(cache, &request.components, bound) {
                    self.counters.scans_served_cache.inc();
                    self.complete_scan(request, Instant::now(), 1, 0, values);
                    continue;
                }
                let taken_at = Instant::now();
                let mut stale_span = Span::child(request.span.context(), SpanKind::StaleRead);
                let stale = {
                    let _in_span = span::enter(stale_span.context());
                    self.snapshot
                        .scan_stale(self.config.scan_pid, &request.components)
                };
                if let Some((ts, values)) = stale {
                    // The cut linearizes inside this call, so it is fresher
                    // than any bound; publish it for the next stale reader.
                    // A union's positions count up one at a time, so the
                    // value of each distinct component is the one at the
                    // position that first names it.
                    let union = ScanUnion::of([request.components.as_slice()]);
                    let mut cut = Vec::with_capacity(union.components.len());
                    for (&at, value) in union.positions.iter().zip(&values) {
                        if at == cut.len() {
                            cut.push(value.clone());
                        }
                    }
                    self.push_cache(cache, union.components, cut, taken_at);
                    stale_span.set_args(ts, values.len() as u64);
                    drop(stale_span);
                    self.counters.scans_served_mv.inc();
                    self.complete_scan(request, Instant::now(), 3, ts, values);
                    continue;
                }
                drop(stale_span);
            }
            live.push(request);
        }
        if !live.is_empty() {
            self.run_union_job(live, cache);
        }
    }

    /// Runs one union backing scan for `requests`: builds the deduplicated
    /// union, scans it, fans each requester's subset back out, and
    /// publishes the union to `cache`.
    fn run_union_job(&self, requests: Vec<ScanRequest<T>>, cache: &mut Vec<ScanCache<T>>) {
        let started = Instant::now();
        let union = ScanUnion::of(requests.iter().map(|r| r.components.as_slice()));
        // Exactly one backing scan of the deduplicated union. The cache
        // timestamp is taken *before* the scan starts: the scan's
        // linearization point is no earlier than this instant, so
        // `AtMostStale(d)` measured against it never under-reports
        // staleness, however long the scan itself takes under contention.
        let taken_at = Instant::now();
        // One `BackingScan` child per request in the job: each request's
        // tree carries the union-scan interval it waited on. Entering the first one attributes the backing object's own
        // events (scan retries, fallbacks) to this job's trees.
        let mut backing_spans: Vec<Span> = if psnap_obs::span_enabled() {
            requests
                .iter()
                .map(|r| Span::child(r.span.context(), SpanKind::BackingScan))
                .collect()
        } else {
            Vec::new()
        };
        let values: Vec<T> = {
            let _in_span =
                span::enter(backing_spans.first().map(Span::context).unwrap_or_default());
            self.snapshot.scan(self.config.scan_pid, &union.components)
        };
        // The one clock read every request's latency is measured to.
        let scanned_at = Instant::now();
        let elapsed_ns = scanned_at.duration_since(taken_at).as_nanos() as u64;
        let (served, forwarded) = (requests.len() as u64, union.components.len() as u64);
        self.counters.backing_scans.inc();
        self.counters.backing_latency.record(elapsed_ns);
        self.counters.backing_components.add(forwarded);
        self.counters
            .requested_components
            .add(union.positions.len() as u64);
        self.counters.scans_served_backing.add(served);
        trace::emit(TraceKind::Coalesce, served, forwarded);
        for backing_span in &mut backing_spans {
            backing_span.set_args(served, forwarded);
        }
        drop(backing_spans);
        let mut positions = union.positions.as_slice();
        for request in requests {
            let (own, rest) = positions.split_at(request.components.len());
            positions = rest;
            let mut merge_span = Span::child(request.span.context(), SpanKind::Merge);
            let answer: Vec<T> = own.iter().map(|&at| values[at].clone()).collect();
            merge_span.set_args(answer.len() as u64, 0);
            drop(merge_span);
            self.complete_scan(request, scanned_at, 0, 0, answer);
        }
        let fanned_out_at = Instant::now();
        // Answers first, then the cache: the vectors are free to move once
        // the last request has copied out of them, and no stale reader can
        // miss the entry — stale requests are served by this same task,
        // which gets to them only after this job has returned.
        self.push_cache(cache, union.components, values, taken_at);
        let published_at = Instant::now();
        let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
        self.counters.plan_ns.record(ns(started, taken_at));
        self.counters
            .fanout_ns
            .record(ns(scanned_at, fanned_out_at));
        self.counters
            .publish_ns
            .record(ns(fanned_out_at, published_at));
    }

    /// Applies `pending` as `update_many` chunks that respect submission
    /// boundaries, coalescing duplicate components last-write-wins within
    /// each chunk, and resolves every ticket.
    fn apply_pending(&self, pending: &mut Vec<Submission<T>>) {
        let mut start = 0;
        while start < pending.len() {
            let mut end = start + 1;
            let mut width = pending[start].writes.len();
            while end < pending.len() && width + pending[end].writes.len() <= self.config.max_batch
            {
                width += pending[end].writes.len();
                end += 1;
            }
            let chunk = &pending[start..end];
            let writes = coalesce_last_write_wins(chunk);
            // The `Apply` span is parented under the chunk's first
            // submission (inert when spans are off); entering it attributes
            // the backing object's `BatchCommit` event to that tree.
            let mut apply_span = Span::child(
                pending[start]
                    .span
                    .as_ref()
                    .map(Span::context)
                    .unwrap_or_default(),
                SpanKind::Apply,
            );
            {
                let _in_span = span::enter(apply_span.context());
                self.snapshot.update_many(self.config.drain_pid, &writes);
            }
            apply_span.set_args(writes.len() as u64, (width - writes.len()) as u64);
            drop(apply_span);
            self.counters.batches_applied.inc();
            self.counters.writes_applied.add(writes.len() as u64);
            self.counters
                .writes_coalesced_away
                .add((width - writes.len()) as u64);
            let now = Instant::now();
            for submission in &mut pending[start..end] {
                let latency_ns = now
                    .saturating_duration_since(submission.submitted)
                    .as_nanos() as u64;
                self.counters.submit_latency.record(latency_ns);
                self.counters.submits_resolved.inc();
                if let Some(mut root) = submission.span.take() {
                    root.set_args(submission.writes.len() as u64, latency_ns);
                }
                submission.cell.complete(());
            }
            start = end;
        }
        pending.clear();
    }
}

/// Concatenates the chunk's writes in arrival order and keeps only the last
/// write per component ([`last_write_wins`], the definition the sharded
/// stores' own `update_many` uses). All surviving components are distinct,
/// so one `update_many` applies them atomically; the dropped writes are
/// exactly those a sequential observer could never have distinguished (each
/// linearizes immediately before the write that superseded it).
fn coalesce_last_write_wins<T: Clone>(chunk: &[Submission<T>]) -> Vec<(usize, T)> {
    last_write_wins(chunk.iter().map(|submission| submission.writes.as_slice()))
        .into_iter()
        .map(|(component, value)| (component, value.clone()))
        .collect()
}

async fn drain_loop<T, S>(core: Arc<ServiceCore<T, S>>)
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    let mut pending: Vec<Submission<T>> = Vec::new();
    loop {
        // Exit precondition and queue clone, sampled under ONE registry lock
        // acquisition: shutdown has begun AND every registered queue is
        // already closed. Sampling the flag and the list together matters —
        // shutdown flips `closed` and closes every queue in one critical
        // section, and registration checks `closed` under the same lock, so
        // once this observation holds, any registration not in the clone is
        // later in the mutex order, sees `closed == true`, and is born
        // closed: it can never accept a submission this final drain would
        // miss. (A stale clone plus a separately-read atomic flag allowed
        // exactly that — an open queue registered after the clone could
        // accept a write whose ticket the exiting drainer stranded.)
        let (queues, closing) = {
            let registry = core.clients.lock().unwrap_or_else(|e| e.into_inner());
            let closing = registry.closed && registry.queues.iter().all(|queue| queue.is_closed());
            (registry.queues.clone(), closing)
        };
        let before = pending.len();
        for queue in &queues {
            queue.drain_into(&mut pending);
        }
        let drained = (pending.len() - before) as u64;
        if drained > 0 {
            core.counters.ingest_depth.sub(drained as i64);
            trace::emit(TraceKind::QueueDrain, 0, drained);
            for submission in &mut pending[before..] {
                submission.queue_wait.take();
            }
        }
        // Prune queues of dropped clients: closed means no further push can
        // succeed, and empty (checked after the drain above) means nothing
        // accepted is left to resolve — so removal strands no ticket. This
        // keeps a long-lived service with short-lived clients from scanning
        // an ever-growing list of dead queues.
        core.clients
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queues
            .retain(|queue| !(queue.is_closed() && queue.is_empty()));
        if pending.is_empty() {
            if closing {
                break;
            }
            // Mid-sweep shutdown wakes us again: every queue close notifies.
            core.ingest_notify.wait().await;
            continue;
        }
        core.apply_pending(&mut pending);
    }
    core.drain_done.complete(());
}

/// One `Window` child per request about to wait through a coalescing
/// window, carrying the chosen width; dropped (ended) by the caller once
/// the window closes. Requests arriving *during* the window get none —
/// they did not wait through it. Empty (free) when spans are disabled.
fn open_window_spans<T>(requests: &[ScanRequest<T>], window: Duration) -> Vec<Span> {
    if !psnap_obs::span_enabled() {
        return Vec::new();
    }
    requests
        .iter()
        .map(|request| {
            let mut window_span = Span::child(request.span.context(), SpanKind::Window);
            window_span.set_args(window.as_nanos() as u64, 0);
            window_span
        })
        .collect()
}

/// Drains the scan queue into `requests` and accounts for what it took.
fn drain_scans<T, S>(core: &ServiceCore<T, S>, requests: &mut Vec<ScanRequest<T>>) {
    let before = requests.len();
    core.scan_queue.drain_into(requests);
    let drained = &mut requests[before..];
    if !drained.is_empty() {
        core.counters.scan_depth.sub(drained.len() as i64);
        trace::emit(TraceKind::QueueDrain, 1, drained.len() as u64);
        for request in drained {
            request.queue_wait.take();
        }
    }
}

/// The scan server: one task, one pid, one union per round. It owns the
/// freshness cache, so no other task ever reads or writes it.
async fn scan_loop<T, S>(core: Arc<ServiceCore<T, S>>, handle: Handle)
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    let Coalescing::Window(window) = core.config.coalescing;
    let mut requests: Vec<ScanRequest<T>> = Vec::new();
    let mut cache: Vec<ScanCache<T>> = Vec::new();
    // When the last batch was dispatched; `None` until the first dispatch.
    // A lone request is served immediately only if the server has been idle
    // for at least one window — arrivals within a window of the previous
    // dispatch are treated as part of an ongoing trickle and still wait, so
    // sub-window jitter between clients keeps coalescing.
    let mut last_dispatch: Option<Instant> = None;
    loop {
        // Same discipline as the drainer: the exit precondition (the scan
        // queue itself is closed — shutdown's sweep, not just the global
        // flag) is sampled *before* the drain, so any request accepted
        // before the close is seen by this or an earlier drain and no
        // ScanTicket is ever stranded.
        let closing = core.scan_queue.is_closed();
        drain_scans(&core, &mut requests);
        if requests.is_empty() {
            if closing {
                break;
            }
            core.scan_notify.wait().await;
            continue;
        }
        // A lone request at an idle server has no coalescing partners to
        // wait for: any window would be pure added latency, so it is
        // dispatched immediately. "Idle" means no other request is queued
        // AND at least one window has passed since the last dispatch.
        let lone = requests.len() == 1
            && core.scan_queue.is_empty()
            && last_dispatch.is_none_or(|at| at.elapsed() >= window);
        let wait = if lone { Duration::ZERO } else { window };
        core.counters.window_ns.record(wait.as_nanos() as u64);
        if !wait.is_zero() {
            let window_spans = open_window_spans(&requests, wait);
            handle.sleep(wait).await;
            drain_scans(&core, &mut requests);
            drop(window_spans);
        }
        core.serve_scans(std::mem::take(&mut requests), &mut cache);
        last_dispatch = Some(Instant::now());
    }
    core.scan_done.complete(());
}

/// The async service frontend. See the module docs for the architecture.
///
/// Dropping the service performs a best-effort bounded shutdown; call
/// [`shutdown`](SnapshotService::shutdown) explicitly (before dropping the
/// [`Executor`]) for the deterministic drain used by the tests.
pub struct SnapshotService<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    core: Arc<ServiceCore<T, S>>,
    shutdown_done: Mutex<bool>,
}

impl<T, S> SnapshotService<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T> + 'static,
{
    /// Starts the service over `snapshot`, spawning its pipeline tasks on
    /// `executor`. The backing object must have been built for at least
    /// `max(drain_pid, scan_pid) + 1` processes; wrap it in an [`Arc`] to
    /// keep direct access on the side.
    pub fn start(snapshot: S, config: ServiceConfig, executor: &Executor) -> Self {
        assert!(
            snapshot.max_processes() > config.drain_pid.index().max(config.scan_pid.index()),
            "backing object has too few processes for the service pids"
        );
        assert!(
            config.drain_pid != config.scan_pid,
            "drainer and scan server pids must differ"
        );
        let scan_notify = Arc::new(Notify::new());
        let core = Arc::new(ServiceCore {
            snapshot,
            scan_queue: BoundedQueue::new(config.scan_capacity, Arc::clone(&scan_notify)),
            config,
            clients: Mutex::new(ClientRegistry {
                closed: false,
                queues: Vec::new(),
            }),
            ingest_notify: Arc::new(Notify::new()),
            scan_notify,
            closed: AtomicBool::new(false),
            heat_rates: Mutex::new(RateTracker::new(HEAT_EWMA_ALPHA)),
            counters: Counters::default(),
            drain_done: OpCell::new(),
            scan_done: OpCell::new(),
        });
        executor.spawn(drain_loop(Arc::clone(&core)));
        executor.spawn(scan_loop(Arc::clone(&core), executor.handle()));
        SnapshotService {
            core,
            shutdown_done: Mutex::new(false),
        }
    }

    /// Runs `tick` on `executor` every `every` until the returned handle is
    /// stopped or the service shuts down — whichever its next tick
    /// observes first.
    fn spawn_periodic<F>(&self, executor: &Executor, every: Duration, mut tick: F) -> PeriodicTask
    where
        F: FnMut(&ServiceCore<T, S>) + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let core = Arc::clone(&self.core);
        let handle = executor.handle();
        executor.spawn(async move {
            loop {
                handle.sleep(every).await;
                if flag.load(Ordering::Acquire) || core.closed.load(Ordering::Acquire) {
                    break;
                }
                tick(&core);
            }
        });
        PeriodicTask { stop }
    }

    /// Spawns a periodic reporter task on `executor`: every `every`, it
    /// takes one [`ServiceObs`] snapshot and hands it to `sink`. The task
    /// exits when [`PeriodicTask::stop`] is called or the service shuts
    /// down.
    pub fn spawn_stats_reporter<F>(
        &self,
        executor: &Executor,
        every: Duration,
        mut sink: F,
    ) -> PeriodicTask
    where
        F: FnMut(ServiceObs) + Send + 'static,
    {
        self.spawn_periodic(executor, every, move |core| sink(obs_of(core)))
    }

    /// Spawns the online reshard driver on `executor`: every `every`, it
    /// samples the backing object's cumulative shard heat, differentiates
    /// it into windowed rates (its own [`RateTracker`], so the obs cadence
    /// cannot distort the decision window), asks the [`ReshardPolicy`] for
    /// a split/merge, and applies any proposal through
    /// [`PartialSnapshot::reshard`] while traffic keeps flowing. On a
    /// backing object that does not support resharding (or reports no
    /// shard heat) the driver ticks harmlessly forever. The task exits
    /// when [`PeriodicTask::stop`] is called or the service shuts down;
    /// an in-flight reshard completes (it runs synchronously inside the
    /// tick).
    pub fn spawn_reshard_driver(
        &self,
        executor: &Executor,
        every: Duration,
        policy: ReshardPolicyConfig,
    ) -> PeriodicTask {
        let mut policy = ReshardPolicy::new(policy);
        let mut rates = RateTracker::new(HEAT_EWMA_ALPHA);
        self.spawn_periodic(executor, every, move |core| {
            let heat = core.snapshot.shard_heat();
            if heat.is_empty() {
                return;
            }
            let sizes = core.snapshot.shard_sizes();
            let window = rates.observe(&heat);
            let Some(op) = policy.decide(window, &sizes) else {
                return;
            };
            // The store may refuse (single-slot shard, merge of an
            // already-empty shard, racing driver); only an accepted op
            // starts the cooldown, so a refused proposal is retried against
            // fresher rates next tick.
            let mut reshard_span = Span::root(SpanKind::Reshard);
            let accepted = {
                let _in_span = span::enter(reshard_span.context());
                core.snapshot.reshard(op)
            };
            if accepted {
                policy.note_applied();
                let generation = core.snapshot.generation();
                reshard_span.set_args(generation, 1);
                drop(reshard_span);
                // A live migration is the moment cached cuts and in-flight
                // plans are most at risk — snapshot the recent past while it
                // is still on hand.
                if flight::armed() {
                    flight::trigger(
                        AnomalyKind::Reshard,
                        format!("accepted {op:?}, now generation {generation}"),
                        Some(Registry::global()),
                    );
                }
            }
        })
    }

    /// Spawns the flight-recorder auditor on `executor`: every `every`, it
    /// opens an `Audit` span and checks `registry`'s partition invariants
    /// ([`Registry::check_invariants`]). A violation seen under live
    /// traffic is usually a transient — a scan counted as accepted but not
    /// yet served — so the auditor only fires the
    /// [`InvariantViolation`](psnap_obs::AnomalyKind::InvariantViolation)
    /// trigger when the *same* violation messages (they embed the leg
    /// sums) come back on two consecutive ticks: identical sums under
    /// traffic means stuck, not in flight. Dumps only happen while
    /// triggers are [armed](psnap_obs::flight::set_armed). The task exits
    /// when [`PeriodicTask::stop`] is called or the service shuts down.
    pub fn spawn_flight_auditor(
        &self,
        executor: &Executor,
        every: Duration,
        registry: Arc<Registry>,
    ) -> PeriodicTask {
        let mut previous: Vec<String> = Vec::new();
        self.spawn_periodic(executor, every, move |_| {
            let mut audit_span = Span::root(SpanKind::Audit);
            let violations = registry.check_invariants();
            audit_span.set_args(violations.len() as u64, 0);
            drop(audit_span);
            if !violations.is_empty() && violations == previous && flight::armed() {
                flight::trigger(
                    AnomalyKind::InvariantViolation,
                    violations.join("; "),
                    Some(&registry),
                );
            }
            previous = violations;
        })
    }
}

/// Builds a [`ServiceObs`] straight from the core (shared by
/// [`SnapshotService::obs`] and the reporter task).
fn stats_of(c: &Counters) -> ServiceStats {
    ServiceStats {
        submits_ok: c.submits_ok.get(),
        submits_busy: c.submits_busy.get(),
        submits_closed: c.submits_closed.get(),
        writes_submitted: c.writes_submitted.get(),
        batches_applied: c.batches_applied.get(),
        writes_applied: c.writes_applied.get(),
        writes_coalesced_away: c.writes_coalesced_away.get(),
        submit_latency: c.submit_latency.snapshot(),
        submits_resolved: c.submits_resolved.get(),
        scans_ok: c.scans_ok.get(),
        scans_busy: c.scans_busy.get(),
        scans_closed: c.scans_closed.get(),
        scans_served_backing: c.scans_served_backing.get(),
        scans_served_cache: c.scans_served_cache.get(),
        scans_served_mv: c.scans_served_mv.get(),
        scans_served_empty: c.scans_served_empty.get(),
        backing_scans: c.backing_scans.get(),
        backing_components: c.backing_components.get(),
        requested_components: c.requested_components.get(),
        scan_latency: c.scan_latency.snapshot(),
        backing_latency: c.backing_latency.snapshot(),
        window_ns: c.window_ns.snapshot(),
        plan_ns: c.plan_ns.snapshot(),
        fanout_ns: c.fanout_ns.snapshot(),
        publish_ns: c.publish_ns.snapshot(),
        cache_revalidated: c.cache_revalidated.get(),
        cache_invalidated_components: c.cache_invalidated_components.get(),
    }
}

/// Builds a [`ServiceObs`] straight from the core (shared by
/// [`SnapshotService::obs`] and the reporter task).
fn obs_of<T, S>(core: &ServiceCore<T, S>) -> ServiceObs
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    let c = &core.counters;
    let stats = stats_of(c);
    let shard_heat = core.snapshot.shard_heat();
    let shard_heat_rate = core
        .heat_rates
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .observe(&shard_heat)
        .to_vec();
    ServiceObs {
        coalescing_ratio: stats.coalescing_ratio(),
        component_dedup_ratio: stats.component_dedup_ratio(),
        ingest_depth: c.ingest_depth.get(),
        scan_depth: c.scan_depth.get(),
        client_count: core
            .clients
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queues
            .len(),
        shard_heat,
        shard_heat_rate,
        generation: core.snapshot.generation(),
        mv_live_versions: psnap_shmem::metrics::mv_live_versions().get(),
        mv_chain_len: psnap_shmem::metrics::mv_chain_len().snapshot(),
        flight_dumps: flight::dump_count(),
        stats,
    }
}

/// Stop handle of a periodic task: the stats reporter, the reshard driver
/// or the flight auditor.
pub struct PeriodicTask {
    stop: Arc<AtomicBool>,
}

impl PeriodicTask {
    /// Asks the task to exit at its next tick.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl<T, S> SnapshotService<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    /// Registers a new client and returns its submit/scan handle. Each
    /// client gets its own bounded ingestion queue; dropping the handle
    /// closes the queue and the drainer prunes it once drained.
    pub fn client(&self) -> ClientHandle<T, S> {
        let queue = Arc::new(BoundedQueue::new(
            self.core.config.ingest_capacity,
            Arc::clone(&self.core.ingest_notify),
        ));
        {
            // Registration and the closed check happen under the same lock
            // shutdown uses to close every registered queue, so a queue can
            // never slip in open after the shutdown sweep (its submissions
            // would have no drainer left to resolve them). The lock-guarded
            // flag is authoritative — an atomic read here could be stale.
            let mut registry = self.core.clients.lock().unwrap_or_else(|e| e.into_inner());
            if registry.closed {
                queue.close();
            }
            registry.queues.push(Arc::clone(&queue));
        }
        ClientHandle {
            core: Arc::clone(&self.core),
            queue,
            busy_streak: AtomicU64::new(0),
        }
    }

    /// Number of components `m` of the backing object — the valid component
    /// space for submits and scans (used by transports to pre-validate
    /// requests and advertise the space in their handshake).
    pub fn components(&self) -> usize {
        self.core.snapshot.components()
    }

    /// Whether the backing object is wait-free *right now*
    /// ([`PartialSnapshot::is_wait_free`]). While it holds,
    /// every pipeline task finishes its poll in a bounded number of its own
    /// steps, so a transport thread may [`help`](crate::Handle::help)
    /// instead of waiting for a worker.
    pub fn is_wait_free(&self) -> bool {
        self.core.snapshot.is_wait_free()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        stats_of(&self.core.counters)
    }

    /// Submissions currently queued across all clients (racy gauge).
    pub fn ingest_depth(&self) -> usize {
        self.core
            .clients
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queues
            .iter()
            .map(|q| q.len())
            .sum()
    }

    /// Scan requests currently queued (racy gauge).
    pub fn scan_depth(&self) -> usize {
        self.core.scan_queue.len()
    }

    /// Client queues currently registered (racy gauge; dropped clients'
    /// queues disappear once the drainer has drained and pruned them).
    pub fn client_count(&self) -> usize {
        self.core
            .clients
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queues
            .len()
    }

    /// One observability snapshot of the live service: stats, derived
    /// ratios, queue-depth gauges, the backing object's per-shard heat, and
    /// the process-wide multiversion chain gauges.
    pub fn obs(&self) -> ServiceObs {
        obs_of(&self.core)
    }

    /// Registers the service's live metric handles into `registry` under
    /// `{prefix}.ingest.*` / `{prefix}.scan.*`, and declares the counter
    /// partition laws as checkable invariants. The invariants hold at
    /// quiescence (no accepted-but-unapplied work) — after
    /// [`shutdown`](SnapshotService::shutdown), or whenever both queue
    /// families are drained:
    ///
    /// * every accepted submission resolves (`ingest.ok == ingest.resolved`);
    /// * every submitted write is applied or coalesced away
    ///   (`ingest.writes == ingest.writes_applied + ingest.writes_coalesced`);
    /// * every accepted scan is served by exactly one of the backing, cache,
    ///   mv, or empty paths (`scan.ok == scan.served_backing +
    ///   scan.served_cache + scan.served_mv + scan.served_empty`).
    pub fn register_obs(&self, registry: &Registry, prefix: &str) {
        let c = &self.core.counters;
        let counters: [(&str, &Arc<Counter>); 20] = [
            ("ingest.ok", &c.submits_ok),
            ("ingest.busy", &c.submits_busy),
            ("ingest.closed", &c.submits_closed),
            ("ingest.writes", &c.writes_submitted),
            ("ingest.batches", &c.batches_applied),
            ("ingest.writes_applied", &c.writes_applied),
            ("ingest.writes_coalesced", &c.writes_coalesced_away),
            ("ingest.resolved", &c.submits_resolved),
            ("scan.ok", &c.scans_ok),
            ("scan.busy", &c.scans_busy),
            ("scan.closed", &c.scans_closed),
            ("scan.served_backing", &c.scans_served_backing),
            ("scan.served_cache", &c.scans_served_cache),
            ("scan.served_mv", &c.scans_served_mv),
            ("scan.served_empty", &c.scans_served_empty),
            ("scan.backing", &c.backing_scans),
            ("scan.backing_components", &c.backing_components),
            ("scan.requested_components", &c.requested_components),
            ("scan.cache_revalidated", &c.cache_revalidated),
            (
                "scan.cache_invalidated_components",
                &c.cache_invalidated_components,
            ),
        ];
        for (name, counter) in counters {
            registry.register(
                &format!("{prefix}.{name}"),
                Metric::Counter(Arc::clone(counter)),
            );
        }
        let histograms: [(&str, &Arc<Histogram>); 7] = [
            ("ingest.latency_ns", &c.submit_latency),
            ("scan.latency_ns", &c.scan_latency),
            ("scan.backing_latency_ns", &c.backing_latency),
            ("scan.window_ns", &c.window_ns),
            ("scan.plan_ns", &c.plan_ns),
            ("scan.fanout_ns", &c.fanout_ns),
            ("scan.publish_ns", &c.publish_ns),
        ];
        for (name, histogram) in histograms {
            registry.register(
                &format!("{prefix}.{name}"),
                Metric::Histogram(Arc::clone(histogram)),
            );
        }
        registry.register(
            &format!("{prefix}.ingest.depth"),
            Metric::Gauge(Arc::clone(&c.ingest_depth)),
        );
        registry.register(
            &format!("{prefix}.scan.depth"),
            Metric::Gauge(Arc::clone(&c.scan_depth)),
        );
        registry.add_invariant(
            &format!("{prefix}.submits_partition"),
            &[&format!("{prefix}.ingest.ok")],
            &[&format!("{prefix}.ingest.resolved")],
        );
        registry.add_invariant(
            &format!("{prefix}.writes_partition"),
            &[&format!("{prefix}.ingest.writes")],
            &[
                &format!("{prefix}.ingest.writes_applied"),
                &format!("{prefix}.ingest.writes_coalesced"),
            ],
        );
        registry.add_invariant(
            &format!("{prefix}.scans_partition"),
            &[&format!("{prefix}.scan.ok")],
            &[
                &format!("{prefix}.scan.served_backing"),
                &format!("{prefix}.scan.served_cache"),
                &format!("{prefix}.scan.served_mv"),
                &format!("{prefix}.scan.served_empty"),
            ],
        );
    }

    /// Stops accepting work, drains everything already accepted (resolving
    /// every outstanding ticket), and waits for both pipeline tasks to
    /// finish. Idempotent. Must be called while the executor is alive.
    pub fn shutdown(&self) {
        self.shutdown_inner(None);
    }

    fn shutdown_inner(&self, timeout: Option<Duration>) {
        let mut done = self.shutdown_done.lock().unwrap_or_else(|e| e.into_inner());
        if *done {
            return;
        }
        // Flip the authoritative flag and close every registered queue in
        // ONE registry critical section: the drainer's exit sample and any
        // concurrent registration order against this block as a whole, so
        // there is no window where the flag is up but a still-open queue can
        // accept a submission the final drain misses. The atomic mirror is
        // for background tasks' lock-free polls only.
        self.core.closed.store(true, Ordering::Release);
        {
            let mut registry = self.core.clients.lock().unwrap_or_else(|e| e.into_inner());
            registry.closed = true;
            for queue in registry.queues.iter() {
                queue.close();
            }
        }
        self.core.scan_queue.close();
        self.core.ingest_notify.notify();
        self.core.scan_notify.notify();
        let drain = Ticket::new(Arc::clone(&self.core.drain_done));
        let scan = Ticket::new(Arc::clone(&self.core.scan_done));
        match timeout {
            None => {
                drain.wait();
                scan.wait();
                *done = true;
            }
            Some(t) => {
                let finished =
                    block_on_timeout(drain, t).is_some() && block_on_timeout(scan, t).is_some();
                *done = finished;
            }
        }
    }
}

impl<T, S> Drop for SnapshotService<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    fn drop(&mut self) {
        // Best-effort: if the executor was dropped first the pipeline tasks
        // will never acknowledge, so bound the wait instead of hanging.
        self.shutdown_inner(Some(Duration::from_secs(5)));
    }
}

/// A client's handle to the service: submits writes and scan requests.
/// Cloning is deliberate-free — create one handle per logical client via
/// [`SnapshotService::client`], since each handle owns a bounded queue.
/// Dropping the handle closes that queue; whatever it already accepted is
/// still drained (and its tickets resolved) before the drainer prunes it.
pub struct ClientHandle<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    core: Arc<ServiceCore<T, S>>,
    queue: Arc<BoundedQueue<Submission<T>>>,
    /// Consecutive `Busy` rejections (submits and scans) seen by THIS
    /// client, reset by this client's own acceptances only; fires the
    /// flight recorder's busy-burst trigger at
    /// [`ServiceConfig::busy_burst_threshold`]. Per-client on purpose: a
    /// service-global streak would be reset by any healthy client's
    /// traffic, letting interleaved acceptances mask one starved client
    /// being rejected hundreds of times in a row.
    busy_streak: AtomicU64,
}

impl<T, S> ClientHandle<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    fn validate_components<'a>(&self, components: impl Iterator<Item = &'a usize>) {
        let m = self.core.snapshot.components();
        for &c in components {
            assert!(
                c < m,
                "component {c} out of range: object has {m} components"
            );
        }
    }

    fn push_submission(&self, writes: Vec<(usize, T)>) -> Result<UpdateTicket, SubmitError> {
        let cell = OpCell::new();
        let width = writes.len() as u64;
        // The root span travels with the submission and ends in the apply
        // loop; if the push is rejected, the submission (span included) is
        // consumed and the stunted tree still records the rejected request.
        // `root_or_child`: submitted under an entered ambient span (a wire
        // server's decode-time span), the request tree nests beneath it.
        let root = Span::root_or_child(SpanKind::Ingest);
        let queue_wait = Span::child(root.context(), SpanKind::QueueWait);
        let result = {
            let _in_span = span::enter(root.context());
            self.queue.try_push(Submission {
                writes,
                cell: Arc::clone(&cell),
                submitted: Instant::now(),
                span: Some(root),
                queue_wait: Some(queue_wait),
            })
        };
        match result {
            Ok(depth) => {
                self.busy_streak.store(0, Ordering::Relaxed);
                self.core.counters.submits_ok.inc();
                self.core.counters.writes_submitted.add(width);
                self.core.counters.ingest_depth.inc();
                trace::emit(TraceKind::QueuePush, 0, depth as u64);
                Ok(Ticket::new(cell))
            }
            Err(e) => {
                let counter = match e {
                    SubmitError::Busy => &self.core.counters.submits_busy,
                    SubmitError::Closed => &self.core.counters.submits_closed,
                };
                counter.inc();
                if matches!(e, SubmitError::Busy) {
                    self.note_busy();
                }
                Err(e)
            }
        }
    }

    /// Counts a `Busy` rejection toward this client's busy-burst anomaly
    /// trigger: when [`ServiceConfig::busy_burst_threshold`] consecutive
    /// rejections accumulate with no acceptance *by this client* in
    /// between, one [`BusyBurst`](AnomalyKind::BusyBurst) dump fires (the
    /// streak keeps counting but triggers only at the exact threshold, so a
    /// sustained overload yields one dump, not a dump per rejection). The
    /// streak is per-client so other clients' accepted traffic cannot mask
    /// a starved client's burst.
    fn note_busy(&self) {
        let threshold = self.core.config.busy_burst_threshold;
        if threshold == 0 {
            return;
        }
        let streak = self.busy_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak == threshold && flight::armed() {
            flight::trigger(
                AnomalyKind::BusyBurst,
                format!(
                    "{streak} consecutive Busy rejections on one client with no acceptance in between"
                ),
                Some(Registry::global()),
            );
        }
    }

    /// Submits one component write. The ticket resolves once the write has
    /// been applied to the backing object.
    pub fn submit(&self, component: usize, value: T) -> Result<UpdateTicket, SubmitError> {
        self.validate_components(std::iter::once(&component));
        self.push_submission(vec![(component, value)])
    }

    /// Submits an atomic batch: all writes take effect at one linearization
    /// point (the drainer never splits a submission across `update_many`
    /// calls). An empty batch resolves immediately.
    pub fn submit_batch(&self, writes: Vec<(usize, T)>) -> Result<UpdateTicket, SubmitError> {
        self.validate_components(writes.iter().map(|(c, _)| c));
        if writes.is_empty() {
            let cell = OpCell::new();
            cell.complete(());
            return Ok(Ticket::new(cell));
        }
        self.push_submission(writes)
    }

    /// Requests a partial scan of `components` under the given freshness
    /// bound. The ticket resolves with one value per requested component, in
    /// request order.
    pub fn scan(
        &self,
        components: Vec<usize>,
        freshness: Freshness,
    ) -> Result<ScanTicket<T>, SubmitError> {
        self.validate_components(components.iter());
        let cell = OpCell::new();
        // Root of the whole request tree: every downstream span (queue
        // wait, window, backing scan, merge) parents back to it, and its
        // end — in `complete_scan`, after the ticket resolves — is the
        // moment the flight recorder assembles the tree. Under an entered
        // ambient span (a wire server's decode-time span) the whole tree
        // nests beneath the transport root instead.
        let root = Span::root_or_child(SpanKind::ScanRequest);
        let queue_wait = Span::child(root.context(), SpanKind::QueueWait);
        let result = {
            let _in_span = span::enter(root.context());
            self.core.scan_queue.try_push(ScanRequest {
                components,
                freshness,
                cell: Arc::clone(&cell),
                submitted: Instant::now(),
                span: root,
                queue_wait: Some(queue_wait),
            })
        };
        match result {
            Ok(depth) => {
                self.busy_streak.store(0, Ordering::Relaxed);
                self.core.counters.scans_ok.inc();
                self.core.counters.scan_depth.inc();
                trace::emit(TraceKind::QueuePush, 1, depth as u64);
                Ok(Ticket::new(cell))
            }
            Err(e) => {
                let counter = match e {
                    SubmitError::Busy => &self.core.counters.scans_busy,
                    SubmitError::Closed => &self.core.counters.scans_closed,
                };
                counter.inc();
                if matches!(e, SubmitError::Busy) {
                    self.note_busy();
                }
                Err(e)
            }
        }
    }

    /// Convenience: submit and block until applied, retrying on `Busy` with
    /// a yield. Returns `false` if the service closed before acceptance.
    pub fn submit_blocking(&self, component: usize, value: T) -> bool {
        loop {
            match self.submit(component, value.clone()) {
                Ok(ticket) => {
                    ticket.wait();
                    return true;
                }
                Err(SubmitError::Busy) => std::thread::yield_now(),
                Err(SubmitError::Closed) => return false,
            }
        }
    }

    /// Convenience: request a scan and block for the values, retrying on
    /// `Busy`. Returns `None` if the service closed before acceptance.
    pub fn scan_blocking(&self, components: &[usize], freshness: Freshness) -> Option<Vec<T>> {
        loop {
            match self.scan(components.to_vec(), freshness) {
                Ok(ticket) => return Some(ticket.wait()),
                Err(SubmitError::Busy) => std::thread::yield_now(),
                Err(SubmitError::Closed) => return None,
            }
        }
    }
}

impl<T, S> Drop for ClientHandle<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    fn drop(&mut self) {
        // Close the queue (no further pushes can succeed) and wake the
        // drainer: it drains whatever was accepted, then prunes the
        // closed-and-empty queue from the client list.
        self.queue.close();
        self.core.ingest_notify.notify();
    }
}
