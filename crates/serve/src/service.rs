//! [`SnapshotService`]: a service frontend over any [`PartialSnapshot`].
//!
//! Callers stop owning threads that call the snapshot object in-process;
//! instead they hold a [`ClientHandle`] and publish requests to two
//! pipelines, guarded by backpressure:
//!
//! 1. **Ingestion** — [`ClientHandle::submit`] / [`ClientHandle::submit_batch`] push writes
//!    into the one shared ingest queue and return an [`UpdateTicket`];
//!    each client may hold at most [`ServiceConfig::ingest_capacity`]
//!    submissions in it. A round of ingestion drains that queue, takes the
//!    submissions in arrival order, coalesces duplicate
//!    components **last-write-wins** (legal because the whole chunk is
//!    applied by one `update_many`, i.e. at one linearization point, and a
//!    superseded write linearizes immediately before its superseder), and
//!    applies one [`PartialSnapshot::update_many`] per chunk. Client batch
//!    boundaries are respected: a submission's writes are never split across
//!    two `update_many` calls, so every client batch stays atomic.
//! 2. **Scan coalescing** — [`ClientHandle::scan`] enqueues a scan request.
//!    A round of scanning, on one process id, drains all pending requests
//!    (optionally waiting a [`Coalescing::Window`] to accumulate more),
//!    merges their component sets into one deduplicated [`ScanUnion`], runs
//!    **one** backing scan, and fans each requester's subset back out. A
//!    projection of one linearizable scan is itself a legal scan at the
//!    same linearization point, which is what the lincheck conformance
//!    suite verifies end to end. A union job is *plan → scan → fan out*,
//!    and only the scan costs more than the slots requested: the union is
//!    one flat pass with no routing (the backing object plans per shard
//!    itself), and per-job bookkeeping (clock, counters, span vectors) is
//!    paid once per job. `{prefix}.scan.plan_ns`, `.backing_latency_ns` and
//!    `.fanout_ns` time the three stages per job.
//! 3. **Backpressure** — both lanes are bounded, the ingest queue per
//!    client and the scan queue as a whole; a request over its bound fails
//!    with [`SubmitError::Busy`] immediately and enqueues nothing.
//!    Accepted work is never dropped: every ticket resolves, even across
//!    [`SnapshotService::shutdown`].
//!
//! **The waiter is the combiner.** Nobody runs the pipelines in the
//! background. Each has a *role*, a try-lock that owns the pipeline's pid
//! and state (ingestion: `drain_pid` and the pending buffer; scanning:
//! `scan_pid` and the last dispatch time), and the lane's one queue is its
//! publication list. A thread that waits on a ticket — or tries one with
//! [`Ticket::try_take`], or shuts the service down — runs a round of the
//! ticket's pipeline itself if that role is free; otherwise it waits, and
//! the holder serves it: a combiner that lets go of a role re-checks its
//! queue and takes the role again if anything is published, so no request
//! is left without a combiner. The two roles are independent: a combiner
//! parked in a scan never delays a write. (Flat combining, after Hendler,
//! Incze, Shavit & Tzafrir.)
//!
//! A round serves a scan in one of two ways, and every answer is
//! linearizable. A request for zero components is answered inline; every
//! other request joins the round's union and is answered by a backing scan
//! that starts after the request was published. There is no separate stale
//! path: a multiversioned object's scan already reads one timestamp's cut
//! of exactly the requested chains, so a relaxed bound would buy nothing.
//!
//! The union has one lever, the [`Coalescing::Window`]: how long the
//! scan combiner waits for more requests before it scans. A lone request at
//! an idle pipeline is dispatched at once, whatever the window. Everything a
//! round drained goes into one union on the one scan pid: on a
//! multiversioned store a union scan is one camera tick plus a read per
//! component, so splitting it by shard would buy parallelism but no
//! consistency.

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use psnap_core::{PartialSnapshot, ProcessId, Resharding};
use psnap_obs::{
    flight, AnomalyKind, Counter, Gauge, Histogram, HistogramSnapshot, Metric, RateTracker,
    Registry, Span, SpanKind,
};
use psnap_shard::{last_write_wins, ReshardPolicy, ReshardPolicyConfig, ScanUnion};

use crate::executor::Executor;
use crate::queue::{BoundedQueue, Combine, Lane, OpCell, SubmitError, Ticket};

/// How a scan round merges concurrent scan requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coalescing {
    /// Merge everything published when the round starts; with a non-zero
    /// window, the scan combiner first sleeps that long on its own thread so
    /// more requests accumulate (larger unions, higher latency floor). A
    /// lone request at an idle pipeline is dispatched immediately — a window
    /// with no possible coalescing partners buys nothing. Every window
    /// decision (including the zero ones) is recorded in the
    /// `scan.window_ns` histogram.
    Window(Duration),
}

/// Per-request freshness bound of a scan. Every answer is linearizable
/// (see the module docs), so `Fresh` is the only bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Freshness {
    /// Linearizable: answered by a backing scan started after the request.
    Fresh,
}

/// Configuration of a [`SnapshotService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Submissions (not writes) each client may have queued for ingestion
    /// at once; one more is refused with [`SubmitError::Busy`].
    pub ingest_capacity: usize,
    /// Capacity of the shared scan-request queue.
    pub scan_capacity: usize,
    /// Scan-merging policy. A window is waited out by the thread holding
    /// the scan role, on that thread.
    pub coalescing: Coalescing,
    /// Maximum writes per `update_many` call. Chunks always contain whole
    /// submissions; a single submission larger than this still goes out as
    /// one (atomic) call.
    pub max_batch: usize,
    /// Process id of the ingest role: whichever thread holds it applies
    /// writes to the backing object under this pid.
    pub drain_pid: ProcessId,
    /// Process id of the scan role: whichever thread holds it scans the
    /// backing object under this pid.
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
    /// The submitting client's count of queued submissions; the round that
    /// collects this one gives its slot back.
    owner: Arc<AtomicUsize>,
    submitted: Instant,
    /// Child span covering the queue dwell; taken and ended at drain time.
    /// Declared before the root so that a refused submission (dropped
    /// whole) ends the child first and its stunted tree still assembles.
    queue_wait: Option<Span>,
    /// Root of the request's span tree (kind `Ingest`); taken and ended
    /// when the submission resolves. Inert unless spans are enabled.
    span: Option<Span>,
}

struct ScanRequest<T> {
    components: Vec<usize>,
    cell: Arc<OpCell<Vec<T>>>,
    submitted: Instant,
    /// Child span covering the queue dwell; taken and ended at drain time.
    /// Declared before the root so that a rejected request (dropped whole
    /// by `try_push`) ends the child first and its stunted tree still
    /// assembles.
    queue_wait: Option<Span>,
    /// Root of the request's span tree (kind `ScanRequest`): begun on the
    /// submitting thread, carried through the queue and the combining
    /// thread with the request, ended when the answer is completed — so its drop
    /// is the moment the flight recorder assembles the whole tree. Inert
    /// unless spans are enabled.
    span: Span,
}

/// EWMA weight of the newest heat-rate observation (see
/// [`ServiceObs::shard_heat_rate`]): responsive within a few ticks, but one
/// noisy window cannot swing the rate by itself.
const HEAT_EWMA_ALPHA: f64 = 0.5;

/// The service's live metric handles — obs counters (striped, aggregated on
/// read), latency histograms, and queue-depth gauges. Shared into any
/// [`Registry`] by [`SnapshotService::register_obs`] without copying.
#[derive(Default)]
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
    scans_served_empty: Arc<Counter>,
    backing_scans: Arc<Counter>,
    backing_components: Arc<Counter>,
    requested_components: Arc<Counter>,
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
    /// union and answering every request of the job (nanoseconds each).
    plan_ns: Arc<Histogram>,
    fanout_ns: Arc<Histogram>,
    /// Submissions currently queued.
    ingest_depth: Arc<Gauge>,
    /// Scan requests currently queued.
    scan_depth: Arc<Gauge>,
}

/// A point-in-time snapshot of the service's counters.
///
/// The counters **partition**: every accepted submission is eventually resolved
/// (`submits_ok == submits_resolved` at quiescence), every submitted write is
/// either applied or coalesced away (`writes_submitted == writes_applied +
/// writes_coalesced_away`), and every accepted scan is served by exactly one
/// of the backing or empty paths (`scans_ok == scans_served_backing +
/// scans_served_empty`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions accepted into the ingest queue.
    pub submits_ok: u64,
    /// Submissions rejected with [`SubmitError::Busy`].
    pub submits_busy: u64,
    /// Submissions rejected with [`SubmitError::Closed`].
    pub submits_closed: u64,
    /// Component writes accepted (a batch of `k` counts `k`).
    pub writes_submitted: u64,
    /// `update_many` calls issued by ingest rounds.
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
    /// Scan requests for zero components, answered inline without backing
    /// work.
    pub scans_served_empty: u64,
    /// Backing scans issued against the snapshot object.
    pub backing_scans: u64,
    /// Deduplicated components read by backing scans.
    pub backing_components: u64,
    /// Components requested by scans served via the backing path.
    pub requested_components: u64,
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
/// derived ratios, the queue-depth gauges, the reshard driver's last
/// reading of the backing store, and the process-wide multiversion chain
/// gauges — everything the acceptance dashboard of a deployment needs, in
/// one read.
#[derive(Clone, Debug)]
pub struct ServiceObs {
    /// The counter/latency stats (see [`ServiceStats`]).
    pub stats: ServiceStats,
    /// Client scans answered per backing scan (`> 1` means coalescing won).
    pub coalescing_ratio: f64,
    /// Components requested per component actually read.
    pub component_dedup_ratio: f64,
    /// Submissions currently queued (live gauge).
    pub ingest_depth: i64,
    /// Scan requests currently queued (live gauge).
    pub scan_depth: i64,
    /// Live [`ClientHandle`]s.
    pub client_count: usize,
    /// Per-shard operation heat of the backing store
    /// ([`Resharding::shard_heat`]) as the
    /// [reshard driver](SnapshotService::spawn_reshard_driver) last read it:
    /// on each tick, and again after each reshard it applies. Empty without
    /// a driver; the store itself and the registry's `shard.heat.*` counters
    /// stay readable either way.
    pub shard_heat: Vec<u64>,
    /// EWMA-smoothed per-shard heat **rate** (operations per tick of the
    /// reshard driver), differentiated from the cumulative [`shard_heat`]
    /// counters: the window the driver's policy last decided on. A shard
    /// that was hot an hour ago but is idle now decays toward `0` here
    /// while its cumulative counter never moves backwards. Reading it
    /// advances nothing, so every caller sees the same window. Empty
    /// without a [driver](SnapshotService::spawn_reshard_driver), and zeros
    /// until its second tick (nothing to diff yet).
    ///
    /// [`shard_heat`]: ServiceObs::shard_heat
    pub shard_heat_rate: Vec<f64>,
    /// Partition-map generation of the backing store
    /// ([`Resharding::generation`]) as the driver last read it, with the
    /// same cadence as [`shard_heat`](ServiceObs::shard_heat); `0` without
    /// a driver.
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
            ("submit_latency_ns", hist(&self.stats.submit_latency)),
            ("scan_latency_ns", hist(&self.stats.scan_latency)),
            ("backing_latency_ns", hist(&self.stats.backing_latency)),
            ("window_ns", hist(&self.stats.window_ns)),
            ("plan_ns", hist(&self.stats.plan_ns)),
            ("fanout_ns", hist(&self.stats.fanout_ns)),
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
            ("flight_dumps", Json::Num(self.flight_dumps as f64)),
        ])
    }
}

/// What the scan role owns besides `scan_pid`.
struct ScanRole<T> {
    /// Requests drained and not yet answered (empty between rounds).
    requests: Vec<ScanRequest<T>>,
    /// When the last round dispatched; `None` until the first, and always
    /// under a zero window, which never reads it. Arrivals within a window
    /// of it are a trickle, not a lone request, and wait.
    last_dispatch: Option<Instant>,
}

/// Takes `role` if it is free or, if `wait`, once its holder lets go.
fn take_role<R>(role: &Mutex<R>, wait: bool) -> Option<MutexGuard<'_, R>> {
    match role.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => {
            wait.then(|| role.lock().unwrap_or_else(|e| e.into_inner()))
        }
    }
}

/// A field on cache lines of its own. The two queues, the client count and
/// the two roles are each written by different threads at once; packed side
/// by side they false-share. Unpadded, the layout `ServiceCore` has now cost
/// `serve-mix` 5 % of its throughput and 7 % on scan p50 (2-vCPU host,
/// alternating pairs). 128 bytes also covers adjacent-line prefetch.
#[repr(align(128))]
struct Padded<V>(V);

impl<V> Deref for Padded<V> {
    type Target = V;
    fn deref(&self) -> &V {
        &self.0
    }
}

/// What the reshard driver last read off the backing store (see
/// [`ServiceObs::shard_heat`]); empty and generation 0 without a driver.
#[derive(Default)]
struct ShardReading {
    heat: Vec<u64>,
    /// The heat rates the driver's policy last decided on (see
    /// [`ServiceObs::shard_heat_rate`]).
    rates: Vec<f64>,
    generation: u64,
}

struct ServiceCore<T, S> {
    snapshot: S,
    config: ServiceConfig,
    /// Every client's submissions; each [`ClientHandle`] bounds its own
    /// share, so the queue itself is unbounded.
    ingest_queue: Padded<BoundedQueue<Submission<T>>>,
    scan_queue: Padded<BoundedQueue<ScanRequest<T>>>,
    /// Live [`ClientHandle`]s.
    clients: Padded<AtomicUsize>,
    /// The ingest role: owns `drain_pid` and the pending buffer (drained
    /// submissions not yet applied; empty between rounds).
    ingest: Padded<Mutex<Vec<Submission<T>>>>,
    /// The scan role.
    scan: Padded<Mutex<ScanRole<T>>>,
    /// Held by the reshard driver for its whole tick.
    shards: Mutex<ShardReading>,
    counters: Counters,
}

impl<T, S> ServiceCore<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    /// Resolves one scan request: records its latency, stamps the root
    /// span's end arguments (serving path, latency), completes the ticket,
    /// and — because the request struct owns the root [`Span`] — ends the
    /// tree, which is the moment the flight recorder assembles it.
    /// Breaching [`ServiceConfig::scan_slo`] fires the latency trigger
    /// *after* the tree is collected, so the dump always contains the
    /// offending request. `answered` is the instant the latency is measured
    /// to; a union job reads the clock once for all its requests.
    fn complete_scan(
        &self,
        mut request: ScanRequest<T>,
        answered: Instant,
        tier: u64,
        values: Vec<T>,
    ) {
        let latency_ns = answered
            .saturating_duration_since(request.submitted)
            .as_nanos() as u64;
        self.counters.scan_latency.record(latency_ns);
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

    /// Answers a batch of scan requests under the scan role: empty ones
    /// inline, the rest with one union backing scan.
    fn serve_scans(&self, mut requests: Vec<ScanRequest<T>>) {
        // An empty request needs no backing work at all; answering it
        // inline keeps it from issuing a zero-width "backing scan" that
        // would skew the coalescing ratio.
        for request in requests.extract_if(.., |request| request.components.is_empty()) {
            self.counters.scans_served_empty.inc();
            self.complete_scan(request, Instant::now(), 2, Vec::new());
        }
        if !requests.is_empty() {
            self.run_union_job(requests);
        }
    }

    /// Runs one union backing scan for `requests`: builds the deduplicated
    /// union, scans it, and fans each requester's subset back out.
    fn run_union_job(&self, requests: Vec<ScanRequest<T>>) {
        let started = Instant::now();
        let union = ScanUnion::of(requests.iter().map(|r| r.components.as_slice()));
        // Exactly one backing scan of the deduplicated union.
        let planned_at = Instant::now();
        // One `BackingScan` child per request in the job: each request's
        // tree carries the union-scan interval it waited on.
        let mut backing_spans: Vec<Span> = if psnap_obs::span_enabled() {
            requests
                .iter()
                .map(|r| Span::child(r.span.context(), SpanKind::BackingScan))
                .collect()
        } else {
            Vec::new()
        };
        let values: Vec<T> = self.snapshot.scan(self.config.scan_pid, &union.components);
        // The one clock read every request's latency is measured to.
        let scanned_at = Instant::now();
        let elapsed_ns = scanned_at.duration_since(planned_at).as_nanos() as u64;
        let (served, forwarded) = (requests.len() as u64, union.components.len() as u64);
        self.counters.backing_scans.inc();
        self.counters.backing_latency.record(elapsed_ns);
        self.counters.backing_components.add(forwarded);
        self.counters
            .requested_components
            .add(union.positions.len() as u64);
        self.counters.scans_served_backing.add(served);
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
            self.complete_scan(request, scanned_at, 0, answer);
        }
        let ns = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as u64;
        self.counters.plan_ns.record(ns(started, planned_at));
        self.counters
            .fanout_ns
            .record(ns(scanned_at, Instant::now()));
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
            // submission (inert when spans are off).
            let mut apply_span = Span::child(
                pending[start]
                    .span
                    .as_ref()
                    .map(Span::context)
                    .unwrap_or_default(),
                SpanKind::Apply,
            );
            self.snapshot.update_many(self.config.drain_pid, &writes);
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

impl<T, S> ServiceCore<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    /// The one combining entry point of both pipelines — used by a waiting
    /// or tried [`Ticket`], a `Busy` retry and shutdown. Takes `lane`'s role
    /// if it is free (or, for shutdown's final rounds, once the holder lets
    /// go), runs one round, lets go, and takes the role again while anything
    /// is published: that re-check after every release is what lets a
    /// waiter that found the role taken wait without stranding its request.
    fn combine(&self, lane: Lane, wait: bool) {
        loop {
            match lane {
                Lane::Ingest => {
                    let Some(mut pending) = take_role(&self.ingest, wait) else {
                        return;
                    };
                    self.ingest_round(&mut pending);
                }
                Lane::Scan => {
                    let Some(mut role) = take_role(&self.scan, wait) else {
                        return;
                    };
                    self.scan_round(&mut role);
                }
            }
            let published = match lane {
                Lane::Ingest => !self.ingest_queue.is_empty(),
                Lane::Scan => !self.scan_queue.is_empty(),
            };
            if !published {
                return;
            }
        }
    }

    /// One ingest round: drains the ingest queue into `pending`, giving
    /// each submission's slot back to its client, and applies it.
    fn ingest_round(&self, pending: &mut Vec<Submission<T>>) {
        // The slots go back under the queue's lock, so a client that sees
        // the queue empty has its room back.
        let collected = self.ingest_queue.drain_into_with(pending, |submission| {
            submission.owner.fetch_sub(1, Ordering::Relaxed);
        });
        if collected == 0 {
            return;
        }
        self.counters.ingest_depth.sub(pending.len() as i64);
        for submission in pending.iter_mut() {
            submission.queue_wait.take();
        }
        self.apply_pending(pending);
    }

    /// Drains the scan queue into `requests` and accounts for what it took.
    fn drain_scans(&self, requests: &mut Vec<ScanRequest<T>>) {
        let before = requests.len();
        self.scan_queue.drain_into(requests);
        let drained = &mut requests[before..];
        if !drained.is_empty() {
            self.counters.scan_depth.sub(drained.len() as i64);
            for request in drained {
                request.queue_wait.take();
            }
        }
    }

    /// One scan round: drains the scan queue, waits out the coalescing
    /// window unless the request is alone at an idle pipeline, and answers
    /// everything drained — one union on the one scan pid.
    fn scan_round(&self, role: &mut ScanRole<T>) {
        let Coalescing::Window(window) = self.config.coalescing;
        self.drain_scans(&mut role.requests);
        if role.requests.is_empty() {
            return;
        }
        // A lone request at an idle pipeline has no coalescing partners to
        // wait for: any window would be pure added latency, so it is
        // dispatched immediately. "Idle" means no other request is queued
        // AND at least one window has passed since the last dispatch —
        // arrivals within a window of it are part of an ongoing trickle and
        // still wait, so sub-window jitter between clients keeps coalescing.
        // A zero window waits for nothing either way, so it skips the test
        // and the clock reads that feed it.
        let lone = !window.is_zero()
            && role.requests.len() == 1
            && self.scan_queue.is_empty()
            && role.last_dispatch.is_none_or(|at| at.elapsed() >= window);
        let wait = if lone { Duration::ZERO } else { window };
        self.counters.window_ns.record(wait.as_nanos() as u64);
        if !wait.is_zero() {
            let window_spans = open_window_spans(&role.requests, wait);
            std::thread::sleep(wait);
            self.drain_scans(&mut role.requests);
            drop(window_spans);
        }
        self.serve_scans(std::mem::take(&mut role.requests));
        if !window.is_zero() {
            role.last_dispatch = Some(Instant::now());
        }
    }
}

impl<T, S> Combine for ServiceCore<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    fn combine_if_free(&self, lane: Lane) {
        self.combine(lane, false);
    }
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

/// The service frontend. See the module docs for the architecture.
///
/// Dropping the service closes it without waiting: a combiner mid-round
/// still answers everything published. Call
/// [`shutdown`](SnapshotService::shutdown) for the deterministic drain used
/// by the tests.
pub struct SnapshotService<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    core: Arc<ServiceCore<T, S>>,
}

impl<T, S> SnapshotService<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T> + 'static,
{
    /// Starts the service over `snapshot`. The backing object must have
    /// been built for at least `max(drain_pid, scan_pid) + 1` processes;
    /// wrap it in an [`Arc`] to keep direct access on the side. The
    /// pipelines run on the threads that wait on their tickets, so nothing
    /// is spawned on `executor`; the periodic tasks (`spawn_*`) take it
    /// again.
    pub fn start(snapshot: S, config: ServiceConfig, _executor: &Executor) -> Self {
        assert!(
            snapshot.max_processes() > config.drain_pid.index().max(config.scan_pid.index()),
            "backing object has too few processes for the service pids"
        );
        assert!(
            config.drain_pid != config.scan_pid,
            "ingest and scan roles' pids must differ"
        );
        let core = Arc::new(ServiceCore {
            snapshot,
            ingest_queue: Padded(BoundedQueue::new(usize::MAX)),
            scan_queue: Padded(BoundedQueue::new(config.scan_capacity)),
            clients: Padded(AtomicUsize::new(0)),
            config,
            ingest: Padded(Mutex::new(Vec::new())),
            scan: Padded(Mutex::new(ScanRole {
                requests: Vec::new(),
                last_dispatch: None,
            })),
            shards: Mutex::default(),
            counters: Counters::default(),
        });
        SnapshotService { core }
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
        executor.handle().schedule(Instant::now() + every, move || {
            if core.ingest_queue.is_closed() || flag.load(Ordering::Acquire) {
                return None;
            }
            tick(&core);
            Some(Instant::now() + every)
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

impl<T, S> SnapshotService<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T> + Resharding + 'static,
{
    /// Spawns the online reshard driver on `executor`: every `every`, it
    /// samples the backing store's cumulative shard heat, differentiates
    /// it into windowed rates at its own fixed cadence, publishes heat,
    /// rates and generation as [`ServiceObs::shard_heat`],
    /// [`ServiceObs::shard_heat_rate`] and [`ServiceObs::generation`], asks
    /// the [`ReshardPolicy`] for a split/merge, and applies any proposal
    /// through [`Resharding::reshard`] while traffic keeps flowing. The task
    /// exits when [`PeriodicTask::stop`] is called or the service shuts
    /// down; an in-flight reshard completes (it runs synchronously inside
    /// the tick).
    ///
    /// Only a service over a [`Resharding`] store has a driver:
    ///
    /// ```compile_fail
    /// use std::time::Duration;
    /// use psnap_core::CasPartialSnapshot;
    /// use psnap_serve::{Executor, ServiceConfig, SnapshotService};
    /// use psnap_shard::ReshardPolicyConfig;
    ///
    /// let executor = Executor::new(1);
    /// let snapshot = CasPartialSnapshot::new(8, 2, 0u64);
    /// let service = SnapshotService::start(snapshot, ServiceConfig::default(), &executor);
    /// let every = Duration::from_millis(1);
    /// service.spawn_reshard_driver(&executor, every, ReshardPolicyConfig::default());
    /// ```
    pub fn spawn_reshard_driver(
        &self,
        executor: &Executor,
        every: Duration,
        policy: ReshardPolicyConfig,
    ) -> PeriodicTask {
        let mut policy = ReshardPolicy::new(policy);
        let mut rates = RateTracker::new(HEAT_EWMA_ALPHA);
        self.spawn_periodic(executor, every, move |core| {
            // Held for the whole tick, reshard included: an `obs()` that
            // starts after a reshard returned reads its generation.
            let mut reading = core.shards.lock().unwrap_or_else(|e| e.into_inner());
            let heat = core.snapshot.shard_heat();
            let sizes = core.snapshot.shard_sizes();
            let window = rates.observe(&heat);
            *reading = ShardReading {
                heat,
                rates: window.to_vec(),
                generation: core.snapshot.generation(),
            };
            let Some(op) = policy.decide(window, &sizes) else {
                return;
            };
            // The store may refuse (single-slot shard, merge of an
            // already-empty shard, racing driver); only an accepted op
            // starts the cooldown, so a refused proposal is retried against
            // fresher rates next tick.
            let mut reshard_span = Span::root(SpanKind::Reshard);
            if core.snapshot.reshard(op) {
                policy.note_applied();
                // A split appends a shard: the reading must show it now,
                // not a tick later.
                reading.heat = core.snapshot.shard_heat();
                reading.generation = core.snapshot.generation();
                let generation = reading.generation;
                drop(reading);
                reshard_span.set_args(generation, 0);
                drop(reshard_span);
                // A live migration is the moment in-flight scans and batches
                // are most at risk — snapshot the recent past while it is
                // still on hand.
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
}

/// Reads the counters into a [`ServiceStats`] (shared by
/// [`SnapshotService::stats`] and [`obs_of`]).
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
        scans_served_empty: c.scans_served_empty.get(),
        backing_scans: c.backing_scans.get(),
        backing_components: c.backing_components.get(),
        requested_components: c.requested_components.get(),
        scan_latency: c.scan_latency.snapshot(),
        backing_latency: c.backing_latency.snapshot(),
        window_ns: c.window_ns.snapshot(),
        plan_ns: c.plan_ns.snapshot(),
        fanout_ns: c.fanout_ns.snapshot(),
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
    let reading = core.shards.lock().unwrap_or_else(|e| e.into_inner());
    let shard_heat = reading.heat.clone();
    let mut shard_heat_rate = reading.rates.clone();
    shard_heat_rate.resize(shard_heat.len(), 0.0);
    let generation = reading.generation;
    drop(reading);
    ServiceObs {
        coalescing_ratio: stats.coalescing_ratio(),
        component_dedup_ratio: stats.component_dedup_ratio(),
        ingest_depth: c.ingest_depth.get(),
        scan_depth: c.scan_depth.get(),
        client_count: core.clients.load(Ordering::Relaxed),
        shard_heat,
        shard_heat_rate,
        generation,
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
    /// A new client's submit/scan handle. Each client may hold up to
    /// [`ServiceConfig::ingest_capacity`] submissions in the shared ingest
    /// queue; what it accepted is applied even after the handle drops.
    pub fn client(&self) -> ClientHandle<T, S> {
        self.core.clients.fetch_add(1, Ordering::Relaxed);
        ClientHandle {
            core: Arc::clone(&self.core),
            queued: Arc::new(AtomicUsize::new(0)),
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
    /// ([`PartialSnapshot::is_wait_free`]). While it holds, every pipeline
    /// round finishes in a bounded number of the combiner's own steps, so a
    /// transport thread that must not block may combine ([`Ticket::try_take`]
    /// its tickets) instead of handing them to a thread that can wait.
    pub fn is_wait_free(&self) -> bool {
        self.core.snapshot.is_wait_free()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        stats_of(&self.core.counters)
    }

    /// Submissions currently queued (racy gauge).
    pub fn ingest_depth(&self) -> usize {
        self.core.ingest_queue.len()
    }

    /// Scan requests currently queued (racy gauge).
    pub fn scan_depth(&self) -> usize {
        self.core.scan_queue.len()
    }

    /// Live [`ClientHandle`]s (racy gauge).
    pub fn client_count(&self) -> usize {
        self.core.clients.load(Ordering::Relaxed)
    }

    /// One observability snapshot of the live service: stats, derived
    /// ratios, queue-depth gauges, the reshard driver's last reading of the
    /// backing store, and the process-wide multiversion chain gauges.
    pub fn obs(&self) -> ServiceObs {
        obs_of(&self.core)
    }

    /// Registers the service's live metric handles into `registry` under
    /// `{prefix}.ingest.*` / `{prefix}.scan.*`, and declares the counter
    /// partition laws as checkable invariants. The invariants hold at
    /// quiescence (no accepted-but-unapplied work) — after
    /// [`shutdown`](SnapshotService::shutdown), or whenever both queues are
    /// drained:
    ///
    /// * every accepted submission resolves (`ingest.ok == ingest.resolved`);
    /// * every submitted write is applied or coalesced away
    ///   (`ingest.writes == ingest.writes_applied + ingest.writes_coalesced`);
    /// * every accepted scan is served by exactly one of the backing or
    ///   empty paths (`scan.ok == scan.served_backing + scan.served_empty`).
    pub fn register_obs(&self, registry: &Registry, prefix: &str) {
        let c = &self.core.counters;
        let counters: [(&str, &Arc<Counter>); 16] = [
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
            ("scan.served_empty", &c.scans_served_empty),
            ("scan.backing", &c.backing_scans),
            ("scan.backing_components", &c.backing_components),
            ("scan.requested_components", &c.requested_components),
        ];
        for (name, counter) in counters {
            registry.register(
                &format!("{prefix}.{name}"),
                Metric::Counter(Arc::clone(counter)),
            );
        }
        let histograms: [(&str, &Arc<Histogram>); 6] = [
            ("ingest.latency_ns", &c.submit_latency),
            ("scan.latency_ns", &c.scan_latency),
            ("scan.backing_latency_ns", &c.backing_latency),
            ("scan.window_ns", &c.window_ns),
            ("scan.plan_ns", &c.plan_ns),
            ("scan.fanout_ns", &c.fanout_ns),
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
                &format!("{prefix}.scan.served_empty"),
            ],
        );
    }

    /// Stops accepting work and drains everything already accepted,
    /// resolving every outstanding ticket: once the queues are closed, the
    /// calling thread waits for each role's current holder and runs the
    /// final rounds itself. Idempotent. Needs no executor.
    pub fn shutdown(&self) {
        self.close(true);
    }

    /// Closes both queues and runs the final rounds, waiting for a role
    /// that is held if `wait`. A push lands before the close, under the
    /// queue's lock, and the final rounds collect it, or it is refused.
    fn close(&self, wait: bool) {
        self.core.ingest_queue.close();
        self.core.scan_queue.close();
        self.core.combine(Lane::Ingest, wait);
        self.core.combine(Lane::Scan, wait);
    }
}

impl<T, S> Drop for SnapshotService<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    fn drop(&mut self) {
        // A role held by a combiner that never returns (a closed test gate)
        // must not hang the drop; the holder re-checks the queue when it
        // lets go, so nothing published is left behind.
        self.close(false);
    }
}

/// A client's handle to the service: submits writes and scan requests.
/// Cloning is deliberate-free — create one handle per logical client via
/// [`SnapshotService::client`], since each handle bounds its own share of
/// the ingest queue. Whatever a dropped handle already accepted is still
/// applied (and its tickets resolved) by a later ingest round.
pub struct ClientHandle<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    core: Arc<ServiceCore<T, S>>,
    /// This client's submissions in the ingest queue, at most
    /// [`ServiceConfig::ingest_capacity`].
    queued: Arc<AtomicUsize>,
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
    S: PartialSnapshot<T> + 'static,
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
        let room = self.core.config.ingest_capacity.max(1);
        let result = {
            let submission = Submission {
                writes,
                cell: Arc::clone(&cell),
                owner: Arc::clone(&self.queued),
                submitted: Instant::now(),
                span: Some(root),
                queue_wait: Some(queue_wait),
            };
            // Reserve a slot of this client's room first; a refused push
            // gives it back below.
            if self.queued.fetch_add(1, Ordering::Relaxed) < room {
                self.core.ingest_queue.try_push(submission)
            } else {
                Err(SubmitError::Busy)
            }
        };
        match result {
            Ok(()) => {
                self.busy_streak.store(0, Ordering::Relaxed);
                self.core.counters.submits_ok.inc();
                self.core.counters.writes_submitted.add(width);
                self.core.counters.ingest_depth.inc();
                Ok(Ticket::published(cell, self.core.clone(), Lane::Ingest))
            }
            Err(e) => {
                self.queued.fetch_sub(1, Ordering::Relaxed);
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
    /// point (an ingest round never splits a submission across
    /// `update_many` calls). An empty batch resolves immediately.
    pub fn submit_batch(&self, writes: Vec<(usize, T)>) -> Result<UpdateTicket, SubmitError> {
        self.validate_components(writes.iter().map(|(c, _)| c));
        if writes.is_empty() {
            let cell = OpCell::new();
            cell.complete(());
            return Ok(Ticket::new(cell));
        }
        self.push_submission(writes)
    }

    /// Requests a partial scan of `components`. The ticket resolves with one
    /// value per requested component, in request order. Every answer is
    /// fresh, whatever the [`Freshness`].
    pub fn scan(
        &self,
        components: Vec<usize>,
        _freshness: Freshness,
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
        let result = self.core.scan_queue.try_push(ScanRequest {
            components,
            cell: Arc::clone(&cell),
            submitted: Instant::now(),
            span: root,
            queue_wait: Some(queue_wait),
        });
        match result {
            Ok(()) => {
                self.busy_streak.store(0, Ordering::Relaxed);
                self.core.counters.scans_ok.inc();
                self.core.counters.scan_depth.inc();
                Ok(Ticket::published(cell, self.core.clone(), Lane::Scan))
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

    /// Convenience: submit and block until applied, retrying on `Busy`.
    /// Returns `false` if the service closed before acceptance.
    pub fn submit_blocking(&self, component: usize, value: T) -> bool {
        loop {
            match self.submit(component, value.clone()) {
                Ok(ticket) => {
                    ticket.wait();
                    return true;
                }
                Err(SubmitError::Busy) => self.make_room(Lane::Ingest),
                Err(SubmitError::Closed) => return false,
            }
        }
    }

    /// Convenience: request a scan and block for the values, retrying on
    /// `Busy`. Returns `None` if the service closed before acceptance.
    pub fn scan_blocking(&self, components: &[usize]) -> Option<Vec<T>> {
        loop {
            match self.scan(components.to_vec(), Freshness::Fresh) {
                Ok(ticket) => return Some(ticket.wait()),
                Err(SubmitError::Busy) => self.make_room(Lane::Scan),
                Err(SubmitError::Closed) => return None,
            }
        }
    }

    /// Before a retry on `Busy`: nothing drains the full queue in the
    /// background, so run `lane`'s round here if its role is free.
    fn make_room(&self, lane: Lane) {
        self.core.combine_if_free(lane);
        std::thread::yield_now();
    }
}

impl<T, S> Drop for ClientHandle<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T>,
{
    fn drop(&mut self) {
        self.core.clients.fetch_sub(1, Ordering::Relaxed);
    }
}
