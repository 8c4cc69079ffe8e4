//! [`ShardedSnapshot`]: a linearizable partial snapshot object composed of
//! independent inner partial snapshot shards.
//!
//! # Protocol
//!
//! Components are partitioned across `K` inner shards by a [`ShardRouter`].
//! `update` routes to exactly one shard, so updates to different shards never
//! share inner coordination registers — that is where the throughput
//! multiplication comes from. `scan` groups the requested indices by shard
//! and issues one inner sub-scan per shard. Each sub-scan is linearizable on
//! its own; the cross-shard question is whether the *combination* of sub-scan
//! results existed at a single instant.
//!
//! Atomicity is validated with per-shard coordination registers, in the style
//! of the per-object sequence numbers of Wei et al.'s constant-time snapshot
//! construction, validated double-collect-style:
//!
//! * `writers[s]` — number of updates currently mutating shard `s`;
//! * `epoch[s]`  — number of updates that have completed on shard `s`.
//!
//! An update executes `writers += 1; inner update; epoch += 1; writers -= 1`.
//! A cross-shard scan reads `(epoch, writers)` of every involved shard,
//! requires all `writers = 0`, runs the sub-scans, and re-reads the epochs.
//! If no epoch moved and no writer appeared, **no inner mutation of any
//! involved shard overlapped the window** (any such mutation is bracketed by
//! a `writers` increment and an `epoch` increment, one of which would have
//! been visible at one of the two validation points), so each shard's state
//! was constant across the window and the combined view is the state at any
//! point inside it. Single-shard scans skip validation entirely — the inner
//! object's own linearizability suffices, preserving the paper's locality
//! property: a scan confined to one shard costs exactly an inner scan.
//!
//! # Bounded retry and the coordinated fallback
//!
//! Validation can fail forever under a relentless update stream, so after
//! [`ShardConfig::max_optimistic_retries`] failed rounds the scan *escalates*
//! to a coordinated scan: it raises a global coordination flag and acquires
//! the writer side of a coordination latch that flagged updates acquire on
//! the reader side. New updates therefore hold back while at most `n`
//! straggler updates (those that sampled the flag before it rose) drain, so
//! the coordinated scan validates successfully once the stragglers have
//! taken their remaining steps — operation-combining in the spirit of
//! Kallimanis & Kanellou's partial snapshot coalescing, with the latch
//! playing the combiner. The price is that a coordinated scan briefly holds
//! back updates (they block on the latch rather than spin in steps), and
//! that the drain *waits on straggler progress*: a straggler suspended
//! mid-update delays the fallback indefinitely, so a multi-shard object is
//! blocking in the strict asynchronous model and reports itself accordingly
//! (see [`PartialSnapshot::is_wait_free`]). Removing that last wait needs
//! multiversioned registers (the Wei et al. constant-time snapshot
//! construction) — the designated next layer on this seam. The fast path
//! never touches the latch beyond one flag read.
//!
//! # Batched updates
//!
//! `update_many` reuses the same machinery in the write direction. A batch
//! confined to one shard is bracketed exactly like an update (`writers += 1;
//! inner update_many; epoch += 1; writers -= 1`) and is atomic on that shard
//! via the inner object's own batch path. A **cross-shard** batch runs two
//! phases: phase 1 raises `writers` *and* a dedicated `batch_writers` mark on
//! every involved shard, phase 2 applies the per-shard sub-batches, phase 3
//! bumps both epochs and lowers both marks — so an optimistic cross-shard
//! scan overlapping any part of the batch fails its `(epoch, writers)`
//! validation and retries (or escalates through the same coordination latch,
//! which flagged batches also enter on the read side). Single-shard scans
//! validate only the `batch_*` pair: they must not observe a shard whose
//! sub-batch landed while a sibling's is still pending, but plain updates
//! never raise that pair, so locality stays wait-free under update churn.
//! Concurrent multi-shard batches are serialized by a batch lock; without it
//! two batches could commit in opposite orders on different shards, producing
//! a final state no serialization explains.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use psnap_core::{PartialSnapshot, ReshardOp};
use psnap_obs::{trace, Counter, Histogram, Metric, Registry, TraceKind};
use psnap_shmem::epoch::{self, Guard};
use psnap_shmem::steps::{self, OpKind};
use psnap_shmem::{ProcessId, StepScope};

use crate::partition::{Partition, PartitionMap, ScanPlan, ShardRouter};

/// Which cross-shard scan discipline a sharded deployment uses — the knob
/// that selects between the two sharded types of this crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CrossShardPath {
    /// Epoch-validated optimistic scans with the bounded-retry/coordinated
    /// fallback of [`ShardedSnapshot`]: scans are free of extra per-scan
    /// base objects when quiet, but the fallback waits on in-flight writers
    /// (blocking in the strict model).
    #[default]
    Coordinated,
    /// Multiversioned one-shot scans
    /// ([`MvShardedSnapshot`](crate::MvShardedSnapshot)): every scan draws
    /// one shared-camera timestamp and reads the newest version `≤` it —
    /// bounded steps under any writer behaviour, at the cost of a version
    /// chain per register and one fetch&add per scan (measured by E12).
    Multiversioned,
}

/// Configuration of a sharded snapshot ([`ShardedSnapshot`] or
/// [`MvShardedSnapshot`](crate::MvShardedSnapshot), per
/// [`cross_shard`](ShardConfig::cross_shard)).
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Requested number of shards (clamped to `1..=m`).
    pub shards: usize,
    /// How components map to shards.
    pub partition: Partition,
    /// Optimistic validation rounds a cross-shard scan attempts before
    /// escalating to the coordinated path. `0` escalates immediately (useful
    /// for testing the coordinated path). Irrelevant under
    /// [`CrossShardPath::Multiversioned`], which never retries.
    pub max_optimistic_retries: usize,
    /// The cross-shard scan discipline this configuration asks for.
    pub cross_shard: CrossShardPath,
}

impl ShardConfig {
    /// `shards` contiguous shards with the default retry budget.
    pub fn contiguous(shards: usize) -> Self {
        ShardConfig {
            shards,
            partition: Partition::Contiguous,
            max_optimistic_retries: 8,
            cross_shard: CrossShardPath::Coordinated,
        }
    }

    /// `shards` hash-partitioned shards with the default retry budget.
    pub fn hashed(shards: usize) -> Self {
        ShardConfig {
            shards,
            partition: Partition::Hashed,
            max_optimistic_retries: 8,
            cross_shard: CrossShardPath::Coordinated,
        }
    }

    /// `shards` contiguous shards on the multiversioned cross-shard path.
    pub fn multiversioned(shards: usize) -> Self {
        ShardConfig {
            cross_shard: CrossShardPath::Multiversioned,
            ..ShardConfig::contiguous(shards)
        }
    }

    /// Overrides the optimistic retry budget.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.max_optimistic_retries = retries;
        self
    }
}

/// Per-shard coordination registers, padded to avoid false sharing between
/// shards (the update pair is written on every update of its shard).
#[repr(align(64))]
struct ShardEpoch {
    /// Updates currently mutating the shard.
    writers: AtomicU64,
    /// Updates completed on the shard.
    epoch: AtomicU64,
    /// Cross-shard batches whose window currently covers the shard. Raised
    /// across the *whole* batch (all involved shards, phases 1–3), unlike
    /// `writers`, which per-shard sub-operations bracket individually. This
    /// is what single-shard scans validate: they must not observe a shard
    /// whose sub-batch landed while a sibling shard's is still pending.
    /// Plain updates never touch it, so single-shard scans stay wait-free
    /// under update churn.
    batch_writers: AtomicU64,
    /// Cross-shard batch windows completed on the shard.
    batch_epoch: AtomicU64,
}

impl ShardEpoch {
    fn new() -> Self {
        ShardEpoch {
            writers: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            batch_writers: AtomicU64::new(0),
            batch_epoch: AtomicU64::new(0),
        }
    }
}

/// Counters describing how often scans needed which path (diagnostics for
/// tests and experiments; reads are racy snapshots).
///
/// `clean_scans`, `retried_scans` and `coordinated_scans` **partition** the
/// cross-shard scans: every cross-shard scan increments exactly one of the
/// three, so their sum is the total number of cross-shard scans (see
/// [`CoordinationStats::cross_shard_scans`]). `optimistic_retries` counts
/// *failed optimistic rounds* — a per-round diagnostic, deliberately not part
/// of the partition (a single escalated scan contributes `max_retries + 1`
/// failed rounds to it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoordinationStats {
    /// Cross-shard scans answered by the first optimistic round.
    pub clean_scans: u64,
    /// Cross-shard scans answered optimistically after at least one failed
    /// round.
    pub retried_scans: u64,
    /// Cross-shard scans that escalated to the coordinated path.
    pub coordinated_scans: u64,
    /// Total failed optimistic validation rounds, across all scans.
    pub optimistic_retries: u64,
}

impl CoordinationStats {
    /// Total number of cross-shard scans: the three scan counters partition
    /// them exactly.
    pub fn cross_shard_scans(&self) -> u64 {
        self.clean_scans + self.retried_scans + self.coordinated_scans
    }
}

/// One generation of the coordinated store's routing state. Immutable once
/// published behind the `AtomicPtr`; unchanged shards share their inner
/// objects with the previous generation via `Arc`, and the coordination
/// registers and heat counters are shared **by shard id** across
/// generations — an old-generation scan still in flight must validate
/// against the same `(epoch, writers)` counters that new-generation updates
/// bump, or it could combine a stale affected-shard read with a fresh
/// sibling read and never notice.
struct CoordState<S> {
    map: PartitionMap,
    router: ShardRouter,
    inner: Vec<Arc<S>>,
    epochs: Vec<Arc<ShardEpoch>>,
    heat: Vec<Arc<Counter>>,
}

/// A partial snapshot object sharded over `K` inner partial snapshot objects.
///
/// Implements [`PartialSnapshot`] itself, so everything built against the
/// trait — the scenario runner, the linearizability checkers, the experiment
/// harness, other `ShardedSnapshot`s — applies unchanged.
///
/// # Resharding (drain-and-rebuild)
///
/// The component→shard assignment lives in an epoch-versioned
/// [`CoordState`] behind an `AtomicPtr`, so this store also accepts
/// [`reshard`](PartialSnapshot::reshard) — but unlike
/// [`MvShardedSnapshot`](crate::MvShardedSnapshot)'s live migration, the
/// coordinated store has no version history to copy at a timestamp
/// boundary, so its reshard is the **naive drain-and-rebuild**: raise the
/// reshard flag, take the write side of the coordination latch and the
/// batch lock (quiescing all new mutators), drain in-flight writers, read
/// the affected components out of the frozen object, build replacement
/// shards through the stored factory, swap, and retire the old state
/// epoch-style. Scans arriving during the rebuild wait behind the latch
/// exactly like updates — the availability gap experiment E15 measures
/// against the multiversioned live path.
pub struct ShardedSnapshot<T, S> {
    /// The live routing state; readers pin the epoch, load, and use.
    state: AtomicPtr<CoordState<S>>,
    /// Rebuilds need to construct fresh inner shards.
    factory: Box<dyn Fn(usize, usize, usize, T) -> S + Send + Sync>,
    initial: T,
    /// Raised (SeqCst) while some scan wants the coordinated path.
    coord_waiters: AtomicU64,
    /// Raised (SeqCst) while a reshard is draining and rebuilding: mutators
    /// and scans hold back on the latch's read side.
    reshard_waiters: AtomicU64,
    /// The coordination latch: flagged updates enter on the read side, the
    /// coordinated scan (and the resharder) on the write side.
    coord_latch: RwLock<()>,
    /// Serializes multi-shard batches against each other: two overlapping
    /// cross-shard batches applied shard by shard could otherwise commit in
    /// opposite orders on different shards, leaving a final state no
    /// serialization produces.
    batch_lock: Mutex<()>,
    /// Serializes reshard operations against each other.
    reshard_lock: Mutex<()>,
    stats_clean: Arc<Counter>,
    stats_retried: Arc<Counter>,
    stats_retries: Arc<Counter>,
    stats_coordinated: Arc<Counter>,
    /// Total cross-shard scans (the whole the three outcome counters
    /// partition), so the partition is checkable as a registry invariant.
    stats_cross: Arc<Counter>,
    /// Reshard operations that changed the layout.
    stats_reshards: Arc<Counter>,
    /// Base-object steps per scan / per update family, via [`StepScope`].
    scan_steps: Arc<Histogram>,
    update_steps: Arc<Histogram>,
    max_retries: usize,
    m: usize,
    n: usize,
}

impl<T, S> Drop for ShardedSnapshot<T, S> {
    fn drop(&mut self) {
        // Retired predecessors belong to the epoch module; the live state
        // is ours to free.
        let ptr = self.state.load(Ordering::Acquire);
        drop(unsafe { Box::from_raw(ptr) });
    }
}

impl<T, S> ShardedSnapshot<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T> + 'static,
{
    /// Creates a sharded object over `m` components for `n` processes, all
    /// components initially `initial`. `factory(shard_index, shard_m, n,
    /// initial)` builds each inner shard; any `PartialSnapshot` factory
    /// works. The factory is retained — reshards use it to build
    /// replacement shards.
    pub fn with_factory(
        m: usize,
        max_processes: usize,
        initial: T,
        config: ShardConfig,
        factory: impl Fn(usize, usize, usize, T) -> S + Send + Sync + 'static,
    ) -> Self {
        assert!(m > 0, "a snapshot object needs at least one component");
        assert!(max_processes > 0, "at least one process must be allowed");
        assert!(
            config.cross_shard == CrossShardPath::Coordinated,
            "ShardedSnapshot implements the coordinated cross-shard path; a config \
             requesting CrossShardPath::Multiversioned needs MvShardedSnapshot"
        );
        let map = PartitionMap::new(m, config.shards, config.partition);
        let router = ShardRouter::from_map(&map);
        let inner: Vec<Arc<S>> = (0..router.shards())
            .map(|s| {
                let shard = factory(s, router.shard_size(s), max_processes, initial.clone());
                assert_eq!(
                    shard.components(),
                    router.shard_size(s),
                    "factory built shard {s} with the wrong number of components"
                );
                Arc::new(shard)
            })
            .collect();
        let shards = router.shards();
        let state = CoordState {
            map,
            router,
            inner,
            epochs: (0..shards).map(|_| Arc::new(ShardEpoch::new())).collect(),
            heat: (0..shards).map(|_| Arc::new(Counter::new())).collect(),
        };
        ShardedSnapshot {
            state: AtomicPtr::new(Box::into_raw(Box::new(state))),
            factory: Box::new(factory),
            initial,
            coord_waiters: AtomicU64::new(0),
            reshard_waiters: AtomicU64::new(0),
            coord_latch: RwLock::new(()),
            batch_lock: Mutex::new(()),
            reshard_lock: Mutex::new(()),
            stats_clean: Arc::new(Counter::new()),
            stats_retried: Arc::new(Counter::new()),
            stats_retries: Arc::new(Counter::new()),
            stats_coordinated: Arc::new(Counter::new()),
            stats_cross: Arc::new(Counter::new()),
            stats_reshards: Arc::new(Counter::new()),
            scan_steps: Arc::new(Histogram::new()),
            update_steps: Arc::new(Histogram::new()),
            max_retries: config.max_optimistic_retries,
            m,
            n: max_processes,
        }
    }

    /// The live routing state; valid for the guard's lifetime (a concurrent
    /// reshard retires the old state through the epoch module, which never
    /// frees under an active pin).
    fn state<'g>(&self, _guard: &'g Guard) -> &'g CoordState<S> {
        unsafe { &*self.state.load(Ordering::Acquire) }
    }

    /// The generation currently routing the object (callers must be
    /// pinned, which every use site is).
    fn live_generation(&self) -> u64 {
        unsafe { &*self.state.load(Ordering::Acquire) }
            .router
            .generation()
    }

    /// Number of inner shards in the current generation's id space (some
    /// may be empty after a merge).
    pub fn shards(&self) -> usize {
        let guard = epoch::pin();
        self.state(&guard).inner.len()
    }

    /// A clone of the current partition map (diagnostics and tests).
    pub fn partition_map(&self) -> PartitionMap {
        let guard = epoch::pin();
        self.state(&guard).map.clone()
    }

    /// Access to one inner shard of the current generation (diagnostics and
    /// tests); the `Arc` stays valid across subsequent reshards.
    pub fn shard(&self, s: usize) -> Arc<S> {
        let guard = epoch::pin();
        Arc::clone(&self.state(&guard).inner[s])
    }

    /// Number of reshard operations that changed the layout.
    pub fn reshards(&self) -> u64 {
        self.stats_reshards.get()
    }

    /// Snapshot of the scan-path counters.
    pub fn coordination_stats(&self) -> CoordinationStats {
        CoordinationStats {
            clean_scans: self.stats_clean.get(),
            retried_scans: self.stats_retried.get(),
            optimistic_retries: self.stats_retries.get(),
            coordinated_scans: self.stats_coordinated.get(),
        }
    }

    /// Registers this store's live metric handles into `registry` under
    /// `{prefix}.*`, and declares the scan-outcome partition (`clean +
    /// retried + coordinated == cross`) as a checkable invariant.
    pub fn register_obs(&self, registry: &Registry, prefix: &str) {
        registry.register(
            &format!("{prefix}.scan.clean"),
            Metric::Counter(Arc::clone(&self.stats_clean)),
        );
        registry.register(
            &format!("{prefix}.scan.retried"),
            Metric::Counter(Arc::clone(&self.stats_retried)),
        );
        registry.register(
            &format!("{prefix}.scan.retries"),
            Metric::Counter(Arc::clone(&self.stats_retries)),
        );
        registry.register(
            &format!("{prefix}.scan.coordinated"),
            Metric::Counter(Arc::clone(&self.stats_coordinated)),
        );
        registry.register(
            &format!("{prefix}.scan.cross"),
            Metric::Counter(Arc::clone(&self.stats_cross)),
        );
        registry.register(
            &format!("{prefix}.scan.steps"),
            Metric::Histogram(Arc::clone(&self.scan_steps)),
        );
        registry.register(
            &format!("{prefix}.update.steps"),
            Metric::Histogram(Arc::clone(&self.update_steps)),
        );
        registry.register(
            &format!("{prefix}.reshards"),
            Metric::Counter(Arc::clone(&self.stats_reshards)),
        );
        let guard = epoch::pin();
        for (i, heat) in self.state(&guard).heat.iter().enumerate() {
            registry.register(
                &format!("{prefix}.heat.{i}"),
                Metric::Counter(Arc::clone(heat)),
            );
        }
        let clean = format!("{prefix}.scan.clean");
        let retried = format!("{prefix}.scan.retried");
        let coordinated = format!("{prefix}.scan.coordinated");
        let cross = format!("{prefix}.scan.cross");
        registry.add_invariant(
            &format!("{prefix}.scan_outcomes_partition"),
            &[&clean, &retried, &coordinated],
            &[&cross],
        );
    }

    /// Per-shard operation heat for the current generation's shard id
    /// space: how many update/batch/scan operations have touched each
    /// shard. Survivors carry their count across reshards; shards appended
    /// by a split start at zero.
    pub fn heat(&self) -> Vec<u64> {
        let guard = epoch::pin();
        self.state(&guard).heat.iter().map(|c| c.get()).collect()
    }

    fn validate(&self, pid: ProcessId, components: &[usize]) {
        let m = self.m;
        assert!(
            pid.index() < self.n,
            "process id {pid} out of range: object configured for {} processes",
            self.n
        );
        for &c in components {
            assert!(
                c < m,
                "component {c} out of range: object has {m} components"
            );
        }
    }

    /// Reads the epoch of every involved shard; `None` if a writer is active.
    ///
    /// Per shard, `writers` MUST be read before `epoch`: a mutator ends with
    /// `epoch += 1; writers -= 1`, so the opposite order lets that tail slip
    /// between the two loads of the *closing* validation — the epoch load
    /// returns the pre-write count, the mutator then bumps the epoch and
    /// drops `writers`, and the writers load sees 0, "validating" a round
    /// whose sub-scans straddled the write. Writers-first closes the hole: a
    /// mutator finished before the writers load has already bumped the epoch
    /// the subsequent load reads, and one still in flight shows a non-zero
    /// count.
    fn collect_epochs(state: &CoordState<S>, plan: &ScanPlan) -> Option<Vec<u64>> {
        let mut snapshot = Vec::with_capacity(plan.groups.len());
        for &(shard, _) in &plan.groups {
            let e = &state.epochs[shard];
            steps::record(OpKind::Read);
            if e.writers.load(Ordering::SeqCst) != 0 {
                return None;
            }
            steps::record(OpKind::Read);
            snapshot.push(e.epoch.load(Ordering::SeqCst));
        }
        Some(snapshot)
    }

    /// Runs the per-shard sub-scans of `plan`.
    fn run_sub_scans(state: &CoordState<S>, pid: ProcessId, plan: &ScanPlan) -> Vec<Vec<T>> {
        plan.groups
            .iter()
            .map(|(shard, slots)| state.inner[*shard].scan(pid, slots))
            .collect()
    }

    /// One optimistic round: validate-scan-revalidate. Returns the assembled
    /// values on success.
    fn optimistic_round(state: &CoordState<S>, pid: ProcessId, plan: &ScanPlan) -> Option<Vec<T>> {
        let before = Self::collect_epochs(state, plan)?;
        let results = Self::run_sub_scans(state, pid, plan);
        let after = Self::collect_epochs(state, plan)?;
        if before == after {
            Some(plan.assemble(&results))
        } else {
            None
        }
    }

    /// The coordinated fallback: hold back new updates via the latch, then
    /// keep validating until the bounded set of straggler updates has
    /// drained. The caller records the scan's outcome counters (after its
    /// generation recheck, so a discarded attempt counts nothing).
    fn coordinated_scan(&self, state: &CoordState<S>, pid: ProcessId, plan: &ScanPlan) -> Vec<T> {
        self.coord_waiters.fetch_add(1, Ordering::SeqCst);
        let latch = self.coord_latch.write().unwrap_or_else(|e| e.into_inner());
        let result = loop {
            // Only updates that sampled the flag before it rose can still be
            // in flight; each failed round means one of them completed, so
            // this loop is bounded by the number of processes.
            if let Some(values) = Self::optimistic_round(state, pid, plan) {
                break values;
            }
            std::thread::yield_now();
        };
        drop(latch);
        self.coord_waiters.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Drain-and-rebuild resharding: quiesce every mutator, read the
    /// affected components out of the frozen object, rebuild the affected
    /// shards through the stored factory, swap, retire. Deliberately
    /// stop-the-world — the baseline the multiversioned live protocol is
    /// measured against (E15). Returns `false` (layout unchanged) for
    /// degenerate requests.
    fn reshard_rebuild(&self, op: ReshardOp) -> bool {
        let _reshard = self.reshard_lock.lock().unwrap_or_else(|e| e.into_inner());
        // Raise the flag first: updates and scans that sample it hold back
        // on the latch's read side; the write acquisition below then waits
        // only for operations already past their flag check.
        self.reshard_waiters.fetch_add(1, Ordering::SeqCst);
        let latch = self.coord_latch.write().unwrap_or_else(|e| e.into_inner());
        let serial = self.batch_lock.lock().unwrap_or_else(|e| e.into_inner());
        let guard = epoch::pin();
        let old_ptr = self.state.load(Ordering::Acquire);
        let old = unsafe { &*old_ptr };
        let new_map = match op {
            ReshardOp::Split { shard } => old.map.split(shard),
            ReshardOp::Merge { from, into } => old.map.merge(from, into),
        };
        let Some(new_map) = new_map else {
            drop(serial);
            drop(latch);
            self.reshard_waiters.fetch_sub(1, Ordering::SeqCst);
            return false;
        };
        let affected: Vec<usize> = match op {
            ReshardOp::Split { shard } => vec![shard],
            ReshardOp::Merge { from, into } => vec![from, into],
        };
        // Drain: every mutator past its flag check is bracketed by a raised
        // counter (SeqCst — either the drain observes the raise, or the
        // mutator observes the flag / the swapped pointer and backs off).
        for e in &old.epochs {
            while e.writers.load(Ordering::SeqCst) != 0
                || e.batch_writers.load(Ordering::SeqCst) != 0
            {
                std::thread::yield_now();
            }
        }
        // The object is frozen: read the moved components, rebuild.
        let new_router = ShardRouter::from_map(&new_map);
        let mut inner = Vec::with_capacity(new_map.shards());
        let mut epochs = Vec::with_capacity(new_map.shards());
        let mut heat = Vec::with_capacity(new_map.shards());
        for s in 0..new_map.shards() {
            let is_new = s >= old.inner.len();
            if !is_new && !affected.contains(&s) {
                inner.push(Arc::clone(&old.inner[s]));
                epochs.push(Arc::clone(&old.epochs[s]));
                heat.push(Arc::clone(&old.heat[s]));
                continue;
            }
            // Coordination registers and heat are shared by shard id so
            // operations straddling the swap validate against (and account
            // to) the same counters; a freshly appended shard starts cold.
            epochs.push(if is_new {
                Arc::new(ShardEpoch::new())
            } else {
                Arc::clone(&old.epochs[s])
            });
            heat.push(if is_new {
                Arc::new(Counter::new())
            } else {
                Arc::clone(&old.heat[s])
            });
            let size = new_router.shard_size(s);
            if size == 0 {
                // The emptied side of a merge: keep the drained old object
                // in the slot — no route leads to it.
                inner.push(Arc::clone(&old.inner[s]));
                continue;
            }
            let shard_obj = (self.factory)(s, size, self.n, self.initial.clone());
            assert_eq!(
                shard_obj.components(),
                size,
                "factory built shard {s} with the wrong number of components"
            );
            for slot in 0..size {
                let component = new_router.component_of(s, slot);
                let (old_shard, old_slot) = old.router.route(component);
                let value = old.inner[old_shard]
                    .scan(ProcessId(0), &[old_slot])
                    .pop()
                    .expect("sub-scan returns one value per requested slot");
                shard_obj.update(ProcessId(0), slot, value);
            }
            inner.push(Arc::new(shard_obj));
        }
        let migrated = (0..self.m)
            .filter(|&c| old.map.shard_of(c) != new_map.shard_of(c))
            .count() as u64;
        let generation = new_map.generation();
        let new_state = Box::into_raw(Box::new(CoordState {
            map: new_map,
            router: new_router,
            inner,
            epochs,
            heat,
        }));
        self.state.store(new_state, Ordering::Release);
        // Safety: `old_ptr` was just unlinked from the only shared location
        // and is retired once; our pin (and any straddling reader's) keeps
        // it alive until every in-flight operation is done with it.
        unsafe { epoch::retire(old_ptr) };
        drop(guard);
        drop(serial);
        drop(latch);
        self.reshard_waiters.fetch_sub(1, Ordering::SeqCst);
        self.stats_reshards.inc();
        trace::emit(TraceKind::Reshard, generation, migrated);
        true
    }
}

impl<T, S> PartialSnapshot<T> for ShardedSnapshot<T, S>
where
    T: Clone + Send + Sync + 'static,
    S: PartialSnapshot<T> + 'static,
{
    fn components(&self) -> usize {
        self.m
    }

    fn max_processes(&self) -> usize {
        self.n
    }

    fn update(&self, pid: ProcessId, component: usize, value: T) {
        self.validate(pid, &[component]);
        let scope = psnap_obs::enabled().then(StepScope::start);
        let mut value = Some(value);
        loop {
            // Fast path: one flag read. Slow path (a coordinated scan or a
            // reshard is waiting or running): enter the read side of the
            // latch so the drain stays bounded.
            steps::record(OpKind::Read);
            let _latch = if self.coord_waiters.load(Ordering::SeqCst) != 0
                || self.reshard_waiters.load(Ordering::SeqCst) != 0
            {
                Some(self.coord_latch.read().unwrap_or_else(|e| e.into_inner()))
            } else {
                None
            };
            let guard = epoch::pin();
            let ptr = self.state.load(Ordering::Acquire);
            let state = unsafe { &*ptr };
            let (shard, slot) = state.router.route(component);
            let e = &state.epochs[shard];
            steps::record(OpKind::FetchInc);
            e.writers.fetch_add(1, Ordering::SeqCst);
            // Raise-then-recheck against the resharder's flag-then-drain:
            // either its drain observes our raised counter (and waits for
            // this write to land before copying), or we observe the flag —
            // or, if the flag already fell, the swapped pointer — and back
            // off rather than write to a state that is being (or has been)
            // replaced.
            steps::record(OpKind::Read);
            if self.reshard_waiters.load(Ordering::SeqCst) != 0
                || self.state.load(Ordering::SeqCst) != ptr
            {
                e.writers.fetch_sub(1, Ordering::SeqCst);
                drop(guard);
                std::thread::yield_now();
                continue;
            }
            state.heat[shard].inc();
            state.inner[shard].update(pid, slot, value.take().expect("moved once"));
            steps::record(OpKind::FetchInc);
            e.epoch.fetch_add(1, Ordering::SeqCst);
            steps::record(OpKind::FetchInc);
            e.writers.fetch_sub(1, Ordering::SeqCst);
            break;
        }
        if let Some(scope) = scope {
            self.update_steps.record(scope.finish().total());
        }
    }

    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        let components: Vec<usize> = writes.iter().map(|(c, _)| *c).collect();
        self.validate(pid, &components);
        if writes.is_empty() {
            return;
        }
        let scope = psnap_obs::enabled().then(StepScope::start);
        loop {
            // Same fast/slow latch split as `update`: hold the read side
            // while a coordinated scan or a reshard is pending so the drain
            // stays bounded.
            steps::record(OpKind::Read);
            let _latch = if self.coord_waiters.load(Ordering::SeqCst) != 0
                || self.reshard_waiters.load(Ordering::SeqCst) != 0
            {
                Some(self.coord_latch.read().unwrap_or_else(|e| e.into_inner()))
            } else {
                None
            };
            let guard = epoch::pin();
            let ptr = self.state.load(Ordering::Acquire);
            let state = unsafe { &*ptr };
            // Resolve duplicates last-write-wins and group by shard (shared
            // router helper, so both sharded stores keep identical
            // semantics). Grouping is generation-specific, hence inside the
            // retry loop.
            let by_shard = state.router.group_last_write_wins(writes);
            let total: usize = by_shard.iter().map(|(_, sub)| sub.len()).sum();
            if total == 1 {
                let (shard, ref sub) = by_shard[0];
                let component = state.router.component_of(shard, sub[0].0);
                let value = sub[0].1.clone();
                drop(guard);
                // `update` enters the latch itself. Entering it a second
                // time from here deadlocks as soon as a coordinated scan
                // asks for the write side in between: std's RwLock queues
                // new readers behind a waiting writer, and that writer is
                // waiting for this guard.
                drop(_latch);
                return self.update(pid, component, value);
            }
            if by_shard.len() == 1 {
                // Single-shard batch: the inner object's own `update_many`
                // makes it atomic on that shard; bracket it exactly like an
                // update (including the reshard recheck) so cross-shard
                // scans involving this shard revalidate.
                let (shard, ref sub_batch) = by_shard[0];
                let e = &state.epochs[shard];
                steps::record(OpKind::FetchInc);
                e.writers.fetch_add(1, Ordering::SeqCst);
                steps::record(OpKind::Read);
                if self.reshard_waiters.load(Ordering::SeqCst) != 0
                    || self.state.load(Ordering::SeqCst) != ptr
                {
                    e.writers.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                    std::thread::yield_now();
                    continue;
                }
                state.heat[shard].inc();
                state.inner[shard].update_many(pid, sub_batch);
                steps::record(OpKind::FetchInc);
                e.epoch.fetch_add(1, Ordering::SeqCst);
                steps::record(OpKind::FetchInc);
                e.writers.fetch_sub(1, Ordering::SeqCst);
                trace::emit(TraceKind::BatchCommit, total as u64, 1);
                break;
            }
            // Cross-shard batch, two-phase. Phase 1 raises `writers`
            // (cross-shard scan validation) and `batch_writers`
            // (single-shard scan validation) on every involved shard before
            // any shard mutates, so a concurrent scan of *either kind* that
            // overlaps any part of the batch revalidates and sees either
            // the whole batch or none of it. Phase 2 applies the per-shard
            // sub-batches (each atomic on its shard via the inner
            // `update_many`). Phase 3 bumps the epochs and releases the
            // marks. The batch lock serializes overlapping multi-shard
            // batches, which could otherwise commit in opposite per-shard
            // orders — and a resharder holds it across its whole rebuild,
            // so after acquiring it the batch re-checks that the state it
            // planned against is still live (it may have blocked through an
            // entire rebuild). Once the recheck passes, the held batch lock
            // itself excludes any new resharder until the batch commits.
            let serial = self.batch_lock.lock().unwrap_or_else(|e| e.into_inner());
            steps::record(OpKind::Read);
            if self.reshard_waiters.load(Ordering::SeqCst) != 0
                || self.state.load(Ordering::SeqCst) != ptr
            {
                drop(serial);
                drop(guard);
                std::thread::yield_now();
                continue;
            }
            for &(shard, _) in &by_shard {
                state.heat[shard].inc();
                let e = &state.epochs[shard];
                steps::record(OpKind::FetchInc);
                e.writers.fetch_add(1, Ordering::SeqCst);
                steps::record(OpKind::FetchInc);
                e.batch_writers.fetch_add(1, Ordering::SeqCst);
            }
            for (shard, sub_batch) in &by_shard {
                state.inner[*shard].update_many(pid, sub_batch);
            }
            for &(shard, _) in &by_shard {
                let e = &state.epochs[shard];
                steps::record(OpKind::FetchInc);
                e.epoch.fetch_add(1, Ordering::SeqCst);
                steps::record(OpKind::FetchInc);
                e.batch_epoch.fetch_add(1, Ordering::SeqCst);
                steps::record(OpKind::FetchInc);
                e.writers.fetch_sub(1, Ordering::SeqCst);
                steps::record(OpKind::FetchInc);
                e.batch_writers.fetch_sub(1, Ordering::SeqCst);
            }
            drop(serial);
            trace::emit(TraceKind::BatchCommit, total as u64, by_shard.len() as u64);
            break;
        }
        if let Some(scope) = scope {
            self.update_steps.record(scope.finish().total());
        }
    }

    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        self.validate(pid, components);
        if components.is_empty() {
            return Vec::new();
        }
        let scope = psnap_obs::enabled().then(StepScope::start);
        'attempt: loop {
            // While a reshard is rebuilding, scans wait behind the latch
            // exactly like updates — drain-and-rebuild quiesces *all*
            // traffic, which is precisely the availability gap E15 measures
            // against the multiversioned live-reshard path.
            steps::record(OpKind::Read);
            let _latch = if self.reshard_waiters.load(Ordering::SeqCst) != 0 {
                Some(self.coord_latch.read().unwrap_or_else(|e| e.into_inner()))
            } else {
                None
            };
            let guard = epoch::pin();
            let state = self.state(&guard);
            let generation = state.router.generation();
            let plan = state.router.plan(components);
            for (shard, _) in &plan.groups {
                state.heat[*shard].inc();
            }
            if !plan.is_cross_shard() {
                // Locality fast path: the inner object's linearizability
                // covers a single-shard scan against updates and same-shard
                // batches, so no `(epoch, writers)` validation is needed —
                // but a *cross-shard* batch applies this shard's sub-batch
                // before or after its siblings', and even a one-component
                // scan must not observe that half-committed state (it would
                // order the batch before itself while a later scan of a
                // sibling shard orders it after). The `batch_*` pair is
                // raised only across cross-shard batch windows, so this
                // validation costs four reads and never retries under plain
                // update churn — locality stays wait-free in the paper's
                // workload, and blocks only while a cross-shard batch
                // covers the scanned shard.
                let (shard, ref slots) = plan.groups[0];
                let e = &state.epochs[shard];
                loop {
                    // `batch_writers` before `batch_epoch`, both ends of the
                    // window: a batch ends with `batch_epoch += 1;
                    // batch_writers -= 1`, so the opposite order on the
                    // closing read lets that tail land between the two loads
                    // and "validate" a scan that observed the batch
                    // half-committed (see `collect_epochs`).
                    steps::record(OpKind::Read);
                    if e.batch_writers.load(Ordering::SeqCst) != 0 {
                        if self.reshard_waiters.load(Ordering::SeqCst) != 0 {
                            continue 'attempt;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                    steps::record(OpKind::Read);
                    let before = e.batch_epoch.load(Ordering::SeqCst);
                    let values = state.inner[shard].scan(pid, slots);
                    steps::record(OpKind::Read);
                    let clean = if e.batch_writers.load(Ordering::SeqCst) != 0 {
                        false
                    } else {
                        steps::record(OpKind::Read);
                        e.batch_epoch.load(Ordering::SeqCst) == before
                    };
                    if clean {
                        // A swapped generation means the values may have
                        // come from a retired shard object that misses
                        // post-swap writes to its shared epoch registers'
                        // new counterpart; discard and replan.
                        if self.live_generation() != generation {
                            continue 'attempt;
                        }
                        if let Some(scope) = scope {
                            self.scan_steps.record(scope.finish().total());
                        }
                        return plan.assemble(&[values]);
                    }
                }
            }
            // Every *counted* cross-shard scan increments exactly one of
            // the clean / retried / coordinated counters; `stats_retries`
            // separately counts the failed rounds themselves (diagnostics,
            // not a scan count). Outcomes are recorded only after the
            // generation recheck passes, so an attempt discarded across a
            // reshard counts nothing and the partition invariant holds.
            for round in 0..=self.max_retries {
                if let Some(values) = Self::optimistic_round(state, pid, &plan) {
                    if self.live_generation() != generation {
                        continue 'attempt;
                    }
                    self.stats_cross.inc();
                    if round == 0 {
                        self.stats_clean.inc();
                    } else {
                        self.stats_retried.inc();
                        self.stats_retries.add(round as u64);
                    }
                    if let Some(scope) = scope {
                        self.scan_steps.record(scope.finish().total());
                    }
                    return values;
                }
                trace::emit(TraceKind::ScanRetry, round as u64, 0);
            }
            // All max_retries + 1 optimistic rounds failed. Release the
            // entry latch before escalating: `coordinated_scan` acquires the
            // write side of the same lock, and std's RwLock is not
            // upgradable — holding the read guard here would self-deadlock
            // (and wedge every op queued behind a waiting resharder). The
            // generation recheck below already covers any reshard that
            // slips in between the release and the coordinated round.
            drop(_latch);
            self.stats_retries.add(self.max_retries as u64 + 1);
            trace::emit(TraceKind::ScanFallback, self.max_retries as u64 + 1, 0);
            // Every optimistic round tore its validation — the flight
            // recorder's torn-scan trigger. The armed check keeps the
            // disarmed cost to one relaxed load (no detail formatting).
            if psnap_obs::flight::armed() {
                psnap_obs::flight::trigger(
                    psnap_obs::AnomalyKind::TornScan,
                    format!(
                        "scan by p{} burned {} optimistic rounds, escalating to coordinated",
                        pid.0,
                        self.max_retries as u64 + 1
                    ),
                    Some(Registry::global()),
                );
            }
            let values = self.coordinated_scan(state, pid, &plan);
            if self.live_generation() != generation {
                continue 'attempt;
            }
            self.stats_cross.inc();
            self.stats_coordinated.inc();
            if let Some(scope) = scope {
                self.scan_steps.record(scope.finish().total());
            }
            return values;
        }
    }

    fn is_wait_free(&self) -> bool {
        // With one shard every scan takes the local fast path and the object
        // inherits the inner implementation's progress guarantee. With more
        // shards, cross-shard scans are honest about their nature: the
        // optimistic path is step-bounded, but the coordinated fallback waits
        // for in-flight updates to drain — a suspended updater can therefore
        // delay it indefinitely, which is blocking by the model's definition
        // (same verdict the repo gives `LockSnapshot`). Update operations and
        // single-shard scans remain step-bounded regardless. Full cross-shard
        // wait-freedom needs multiversioned registers — `MvShardedSnapshot`.
        let guard = epoch::pin();
        let state = self.state(&guard);
        state.inner.len() == 1 && state.inner.iter().all(|s| s.is_wait_free())
    }

    fn name(&self) -> &'static str {
        "sharded-partial-snapshot"
    }

    fn shard_heat(&self) -> Vec<u64> {
        self.heat()
    }

    fn shard_sizes(&self) -> Vec<usize> {
        let guard = epoch::pin();
        self.state(&guard).map.shard_sizes()
    }

    fn shard_of(&self, component: usize) -> usize {
        let guard = epoch::pin();
        self.state(&guard).router.route(component).0
    }

    fn generation(&self) -> u64 {
        let _guard = epoch::pin();
        self.live_generation()
    }

    fn reshard(&self, op: ReshardOp) -> bool {
        self.reshard_rebuild(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_core::CasPartialSnapshot;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    fn cas_sharded(
        m: usize,
        n: usize,
        config: ShardConfig,
    ) -> ShardedSnapshot<u64, CasPartialSnapshot<u64>> {
        ShardedSnapshot::with_factory(m, n, 0u64, config, |_, sm, sn, init| {
            CasPartialSnapshot::new(sm, sn, init)
        })
    }

    /// A one-write batch delegates to `update`; it must not carry its read
    /// side of the coordination latch into that call (see `update_many`).
    /// Chaos parks the batcher at `update`'s first step, i.e. between the
    /// two latch entries, while a free-running updater tears every
    /// optimistic round of two scanners, so a coordinated scan is always
    /// running or asking for the write side.
    #[test]
    fn one_write_batches_do_not_reenter_the_latch_under_coordinated_scans() {
        use psnap_shmem::chaos::{self, ChaosConfig};
        let snap = Arc::new(cas_sharded(
            8,
            4,
            ShardConfig {
                max_optimistic_retries: 0,
                ..ShardConfig::contiguous(2)
            },
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let mut background: Vec<_> = (1..=2)
            .map(|pid| {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        snap.scan(ProcessId(pid), &[0, 7]);
                    }
                })
            })
            .collect();
        background.push({
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 1;
                    snap.update(ProcessId(3), (v % 2 * 7) as usize, v);
                }
            })
        });
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let batcher = {
            let snap = Arc::clone(&snap);
            thread::spawn(move || {
                let _chaos = chaos::enable(
                    7,
                    ChaosConfig {
                        perturb_probability: 1.0,
                        sleep_probability: 1.0,
                        max_sleep_us: 100,
                        ..ChaosConfig::default()
                    },
                );
                for k in 0..40u64 {
                    snap.update_many(ProcessId(0), &[(3, k)]);
                }
                done_tx.send(()).unwrap();
            })
        };
        let finished = done_rx.recv_timeout(std::time::Duration::from_secs(60));
        stop.store(true, Ordering::Relaxed);
        finished.expect("a one-write batch deadlocked against a coordinated scan");
        batcher.join().unwrap();
        for thread in background {
            thread.join().unwrap();
        }
        assert_eq!(snap.scan(ProcessId(0), &[3]), vec![39]);
    }

    #[test]
    fn sequential_update_and_scan_across_shards() {
        let snap = cas_sharded(16, 2, ShardConfig::contiguous(4));
        assert_eq!(snap.components(), 16);
        assert_eq!(snap.shards(), 4);
        snap.update(ProcessId(0), 0, 10);
        snap.update(ProcessId(0), 7, 70);
        snap.update(ProcessId(0), 15, 150);
        assert_eq!(
            snap.scan(ProcessId(1), &[0, 7, 15, 3]),
            vec![10, 70, 150, 0]
        );
        // Duplicates, unordered, cross-shard.
        assert_eq!(snap.scan(ProcessId(1), &[15, 0, 15]), vec![150, 10, 150]);
    }

    #[test]
    fn hashed_partition_behaves_identically_sequentially() {
        let a = cas_sharded(32, 2, ShardConfig::contiguous(4));
        let b = cas_sharded(32, 2, ShardConfig::hashed(4));
        for i in 0..32 {
            a.update(ProcessId(0), i, i as u64 * 3);
            b.update(ProcessId(0), i, i as u64 * 3);
        }
        assert_eq!(a.scan_all(ProcessId(1)), b.scan_all(ProcessId(1)));
    }

    #[test]
    fn single_shard_scans_take_the_local_fast_path() {
        let snap = cas_sharded(16, 2, ShardConfig::contiguous(4));
        // Components 0..4 live on shard 0.
        let _ = snap.scan(ProcessId(0), &[0, 1, 2]);
        let stats = snap.coordination_stats();
        assert_eq!(
            stats,
            CoordinationStats::default(),
            "no cross-shard machinery"
        );
    }

    #[test]
    fn cross_shard_scan_records_a_clean_pass_when_quiescent() {
        let snap = cas_sharded(16, 2, ShardConfig::contiguous(4));
        let _ = snap.scan(ProcessId(0), &[0, 5, 10, 15]);
        let stats = snap.coordination_stats();
        assert_eq!(stats.clean_scans, 1);
        assert_eq!(stats.coordinated_scans, 0);
    }

    #[test]
    fn zero_retry_budget_forces_the_coordinated_path_under_updates() {
        let snap = Arc::new(cas_sharded(
            8,
            3,
            ShardConfig::contiguous(2).with_retries(0),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update(ProcessId(0), (i % 8) as usize, i);
                    i += 1;
                }
            })
        };
        for _ in 0..200 {
            let v = snap.scan(ProcessId(1), &[0, 7]);
            assert_eq!(v.len(), 2);
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
        // Under a relentless updater at least some scans must have escalated;
        // all of them still returned consistent two-component answers. With a
        // zero retry budget no scan can fall in the "retried" bucket, and the
        // three counters partition the 200 cross-shard scans exactly.
        let stats = snap.coordination_stats();
        assert_eq!(stats.retried_scans, 0, "{stats:?}");
        assert_eq!(stats.cross_shard_scans(), 200, "{stats:?}");
    }

    #[test]
    fn coordination_stats_partition_cross_shard_scans_exactly() {
        // Quiescent: every scan is clean. Then a mix under contention: clean,
        // retried and coordinated must still add up to the number of
        // cross-shard scans issued, with failed rounds tracked separately.
        let snap = Arc::new(cas_sharded(
            8,
            3,
            ShardConfig::contiguous(2).with_retries(2),
        ));
        for _ in 0..50 {
            let _ = snap.scan(ProcessId(1), &[0, 7]);
        }
        let quiet = snap.coordination_stats();
        assert_eq!(quiet.clean_scans, 50);
        assert_eq!(quiet.retried_scans, 0);
        assert_eq!(quiet.coordinated_scans, 0);
        assert_eq!(quiet.optimistic_retries, 0);
        assert_eq!(quiet.cross_shard_scans(), 50);

        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update(ProcessId(0), (i % 8) as usize, i);
                    i += 1;
                }
            })
        };
        for _ in 0..300 {
            let _ = snap.scan(ProcessId(1), &[0, 7]);
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
        let stats = snap.coordination_stats();
        assert_eq!(
            stats.cross_shard_scans(),
            350,
            "clean + retried + coordinated must count every cross-shard scan: {stats:?}"
        );
        // A retried scan contributes at least one failed round; an escalated
        // scan contributes exactly max_retries + 1 of them.
        assert!(
            stats.optimistic_retries >= stats.retried_scans + 3 * stats.coordinated_scans,
            "{stats:?}"
        );
    }

    #[test]
    fn update_many_applies_batches_across_shards() {
        let snap = cas_sharded(16, 2, ShardConfig::contiguous(4));
        snap.update_many(ProcessId(0), &[(0, 10), (7, 70), (15, 150)]);
        assert_eq!(snap.scan(ProcessId(1), &[0, 7, 15]), vec![10, 70, 150]);
        // Duplicates resolve last-write-wins; empty batches are no-ops.
        snap.update_many(ProcessId(0), &[(3, 1), (3, 2), (12, 5), (3, 3)]);
        assert_eq!(snap.scan(ProcessId(1), &[3, 12]), vec![3, 5]);
        snap.update_many(ProcessId(0), &[]);
        // Single-shard batch (components 4..8 all live on shard 1).
        snap.update_many(ProcessId(0), &[(4, 40), (5, 50)]);
        assert_eq!(snap.scan(ProcessId(1), &[4, 5]), vec![40, 50]);
    }

    #[test]
    fn cross_shard_batches_are_never_observed_partially() {
        // One updater writes the same value to two components on different
        // shards with a single update_many; every scan of the pair must see
        // equal values — a strict all-or-nothing check.
        let snap = Arc::new(cas_sharded(8, 2, ShardConfig::contiguous(4)));
        snap.update_many(ProcessId(0), &[(0, 1), (6, 1)]);
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut v = 2u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update_many(ProcessId(0), &[(0, v), (6, v)]);
                    v += 1;
                }
            })
        };
        for _ in 0..3000 {
            let got = snap.scan(ProcessId(1), &[0, 6]);
            assert_eq!(got[0], got[1], "torn cross-shard batch observed: {got:?}");
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }

    #[test]
    fn per_component_monotonicity_across_shards() {
        // Single writer per component with increasing values: every scan,
        // cross-shard or not, must see per-component non-decreasing values.
        let snap = Arc::new(cas_sharded(12, 4, ShardConfig::contiguous(3)));
        let stop = Arc::new(AtomicBool::new(false));
        let updaters: Vec<_> = (0..3usize)
            .map(|t| {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut v = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        for c in (t * 4)..(t * 4 + 4) {
                            snap.update(ProcessId(t), c, v);
                        }
                        v += 1;
                    }
                })
            })
            .collect();
        let comps = [0usize, 4, 8, 11];
        let mut last = vec![0u64; comps.len()];
        for _ in 0..2000 {
            let got = snap.scan(ProcessId(3), &comps);
            for (g, l) in got.iter().zip(last.iter_mut()) {
                assert!(*g >= *l, "component went backwards: {g} < {l}");
                *l = *g;
            }
        }
        stop.store(true, Ordering::Relaxed);
        for u in updaters {
            u.join().unwrap();
        }
    }

    #[test]
    fn cross_shard_scans_never_tear_transfers() {
        // Transfers move value between components on *different* shards while
        // keeping the sum constant — the atomicity case single-shard
        // linearizability cannot cover.
        let snap = Arc::new(cas_sharded(8, 2, ShardConfig::contiguous(4)));
        snap.update(ProcessId(0), 0, 1000);
        snap.update(ProcessId(0), 6, 1000);
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut a = 1000i64;
                let mut toggle = false;
                while !stop.load(Ordering::Relaxed) {
                    let delta = if toggle { 100 } else { -100 };
                    toggle = !toggle;
                    a += delta;
                    snap.update(ProcessId(0), 0, a as u64);
                    snap.update(ProcessId(0), 6, (2000 - a) as u64);
                }
            })
        };
        for _ in 0..5000 {
            let v = snap.scan(ProcessId(1), &[0, 6]);
            let total = v[0] + v[1];
            // At most one transfer in flight: sum within one delta of 2000.
            assert!(
                (1900..=2100).contains(&total),
                "torn cross-shard scan: {v:?}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }

    #[test]
    fn nested_sharding_composes() {
        // A sharded snapshot of sharded snapshots — the trait closes over
        // itself, which is the architectural point of the tentpole.
        let snap = ShardedSnapshot::with_factory(
            16,
            2,
            0u64,
            ShardConfig::contiguous(2),
            |_, sm, sn, init| {
                ShardedSnapshot::with_factory(
                    sm,
                    sn,
                    init,
                    ShardConfig::contiguous(2),
                    |_, ssm, ssn, i| CasPartialSnapshot::new(ssm, ssn, i),
                )
            },
        );
        snap.update(ProcessId(0), 3, 33);
        snap.update(ProcessId(0), 12, 120);
        assert_eq!(snap.scan(ProcessId(1), &[3, 12]), vec![33, 120]);
    }

    #[test]
    #[should_panic(expected = "component")]
    fn out_of_range_component_is_rejected() {
        let snap = cas_sharded(8, 1, ShardConfig::contiguous(2));
        snap.update(ProcessId(0), 8, 1);
    }

    #[test]
    #[should_panic(expected = "process id")]
    fn out_of_range_pid_is_rejected() {
        let snap = cas_sharded(8, 1, ShardConfig::contiguous(2));
        let _ = snap.scan(ProcessId(1), &[0]);
    }

    #[test]
    fn metadata_is_reported() {
        let snap = cas_sharded(8, 3, ShardConfig::contiguous(2));
        assert_eq!(snap.max_processes(), 3);
        // Multi-shard: the coordinated fallback can wait on straggler
        // updates, so the object honestly reports itself blocking.
        assert!(!snap.is_wait_free());
        assert_eq!(snap.name(), "sharded-partial-snapshot");
        assert_eq!(snap.shard(0).components(), 4);
        // Degenerate single-shard placement inherits the inner guarantee.
        let single = cas_sharded(8, 3, ShardConfig::contiguous(1));
        assert!(single.is_wait_free());
    }

    #[test]
    fn drain_and_rebuild_split_and_merge_preserve_values() {
        let snap = cas_sharded(16, 2, ShardConfig::contiguous(2));
        for c in 0..16 {
            snap.update(ProcessId(0), c, 200 + c as u64);
        }
        assert_eq!(snap.generation(), 0);
        assert!(snap.reshard(psnap_core::ReshardOp::Split { shard: 0 }));
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.shards(), 3);
        let expected: Vec<u64> = (0..16).map(|c| 200 + c as u64).collect();
        assert_eq!(snap.scan_all(ProcessId(1)), expected);
        snap.update(ProcessId(0), 2, 999);
        assert_eq!(snap.scan(ProcessId(1), &[2, 3]), vec![999, 203]);
        assert!(snap.reshard(psnap_core::ReshardOp::Merge { from: 2, into: 0 }));
        assert_eq!(snap.generation(), 2);
        assert_eq!(snap.scan(ProcessId(1), &[2, 8, 15]), vec![999, 208, 215]);
        assert_eq!(snap.reshards(), 2);
        // Degenerate requests are refused without touching the layout.
        assert!(!snap.reshard(psnap_core::ReshardOp::Split { shard: 42 }));
        assert!(!snap.reshard(psnap_core::ReshardOp::Merge { from: 1, into: 1 }));
        assert_eq!(snap.generation(), 2);
    }

    #[test]
    fn drain_and_rebuild_keeps_scans_consistent_under_churn() {
        // Batches keep two cross-shard components equal while a reshard
        // storm splits and merges; every scan must see an untorn pair and
        // no write may be lost across a rebuild.
        let snap = Arc::new(cas_sharded(8, 3, ShardConfig::contiguous(2)));
        snap.update_many(ProcessId(0), &[(0, 1), (6, 1)]);
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut v = 2u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update_many(ProcessId(0), &[(0, v), (6, v)]);
                    snap.update(ProcessId(0), 3, v);
                    v += 1;
                }
            })
        };
        let resharder = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut reshards = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if snap.reshard(psnap_core::ReshardOp::Split { shard: 0 }) {
                        reshards += 1;
                        let newest = snap.shards() - 1;
                        let _ = snap.reshard(psnap_core::ReshardOp::Merge {
                            from: newest,
                            into: 0,
                        });
                    }
                    thread::yield_now();
                }
                reshards
            })
        };
        let mut last_pair = 0u64;
        let mut last_counter = 0u64;
        for _ in 0..2000 {
            let got = snap.scan(ProcessId(1), &[0, 6, 3]);
            assert_eq!(got[0], got[1], "torn batch across a rebuild: {got:?}");
            assert!(got[0] >= last_pair, "batch went backwards: {got:?}");
            assert!(
                got[2] >= last_counter,
                "update lost across a rebuild: {} < {last_counter}",
                got[2]
            );
            last_pair = got[0];
            last_counter = got[2];
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
        let reshards = resharder.join().unwrap();
        assert!(reshards > 0, "the reshard storm never resharded");
    }
}
