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
//!
//! # What is shared with the multiversioned store
//!
//! The routing state — partition map, router, inner shards, the per-shard
//! registers above, heat counters — is one generation of the crate's shared
//! generation core, which also owns the raise-then-recheck every
//! `writers += 1` above goes through and the skeleton of a reshard. This
//! module adds only the coordinated store's own protocol: the
//! epoch-validated rounds, the coordination latch, the two-phase cross-shard
//! batch, and how it quiesces and rebuilds (see [`ShardedSnapshot`]).
//!
//! [`ShardRouter`]: crate::ShardRouter

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

use psnap_core::traits::{validate_args, validate_batch_args};
use psnap_core::{PartialSnapshot, ReshardOp};
use psnap_obs::{trace, Counter, Histogram, Metric, Registry, TraceKind};
use psnap_shmem::epoch;
use psnap_shmem::steps::{self, OpKind};
use psnap_shmem::{ProcessId, StepScope};

use crate::generations::{Generations, Layout};
use crate::partition::{Partition, PartitionMap, ScanPlan};

/// Configuration of a sharded snapshot. The *type* chooses the cross-shard
/// discipline — [`ShardedSnapshot`] validates epochs and falls back to a
/// coordinated scan, [`MvShardedSnapshot`](crate::MvShardedSnapshot) reads
/// at one timestamp — and both are seeded from this.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Requested number of shards (clamped to `1..=m`).
    pub shards: usize,
    /// How components map to shards.
    pub partition: Partition,
    /// Optimistic validation rounds a cross-shard scan of [`ShardedSnapshot`]
    /// attempts before escalating to the coordinated path. `0` escalates
    /// immediately (useful for testing the coordinated path). Irrelevant to
    /// [`MvShardedSnapshot`](crate::MvShardedSnapshot), which never retries.
    pub max_optimistic_retries: usize,
}

impl ShardConfig {
    /// `shards` contiguous shards with the default retry budget.
    pub fn contiguous(shards: usize) -> Self {
        ShardConfig {
            shards,
            partition: Partition::Contiguous,
            max_optimistic_retries: 8,
        }
    }

    /// `shards` hash-partitioned shards with the default retry budget.
    pub fn hashed(shards: usize) -> Self {
        ShardConfig {
            partition: Partition::Hashed,
            ..ShardConfig::contiguous(shards)
        }
    }

    /// `shards` contiguous shards, under the name callers building a
    /// [`MvShardedSnapshot`](crate::MvShardedSnapshot) use.
    pub fn multiversioned(shards: usize) -> Self {
        ShardConfig::contiguous(shards)
    }

    /// Overrides the optimistic retry budget.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.max_optimistic_retries = retries;
        self
    }
}

/// The coordinated store's per-shard registers, kept on the cache line of
/// the shard's writer gate — whose `writers` count is the other half of the
/// `(epoch, writers)` pair — so the update pair written on every update of
/// a shard never shares a line with another shard's. Shared **by shard id**
/// across generations: an old-generation scan still in flight must validate
/// against the same `(epoch, writers)` counters that new-generation updates
/// bump, or it could combine a stale affected-shard read with a fresh
/// sibling read and never notice.
#[derive(Default)]
struct ShardEpoch {
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

/// One generation of the coordinated store's routing state.
type CoordLayout<S> = Layout<S, ShardEpoch>;

/// A partial snapshot object sharded over `K` inner partial snapshot objects.
///
/// Implements [`PartialSnapshot`] itself, so everything built against the
/// trait — the scenario runner, the linearizability checkers, the experiment
/// harness, other `ShardedSnapshot`s — applies unchanged.
///
/// # Resharding (drain-and-rebuild)
///
/// The component→shard assignment lives in an epoch-versioned generation
/// (see the module docs), so this store also accepts
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
    /// The routing state, generation by generation.
    gens: Generations<S, ShardEpoch>,
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
    stats_clean: Arc<Counter>,
    stats_retried: Arc<Counter>,
    stats_retries: Arc<Counter>,
    stats_coordinated: Arc<Counter>,
    /// Total cross-shard scans (the whole the three outcome counters
    /// partition), so the partition is checkable as a registry invariant.
    stats_cross: Arc<Counter>,
    /// Base-object steps per scan / per update family, via [`StepScope`].
    scan_steps: Arc<Histogram>,
    update_steps: Arc<Histogram>,
    max_retries: usize,
    m: usize,
    n: usize,
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
        let map = PartitionMap::new(m, config.shards, config.partition);
        ShardedSnapshot {
            gens: Generations::new(map, |s, size| {
                Self::build_shard(&factory, s, size, max_processes, initial.clone())
            }),
            factory: Box::new(factory),
            initial,
            coord_waiters: AtomicU64::new(0),
            reshard_waiters: AtomicU64::new(0),
            coord_latch: RwLock::new(()),
            batch_lock: Mutex::new(()),
            stats_clean: Arc::new(Counter::new()),
            stats_retried: Arc::new(Counter::new()),
            stats_retries: Arc::new(Counter::new()),
            stats_coordinated: Arc::new(Counter::new()),
            stats_cross: Arc::new(Counter::new()),
            scan_steps: Arc::new(Histogram::new()),
            update_steps: Arc::new(Histogram::new()),
            max_retries: config.max_optimistic_retries,
            m,
            n: max_processes,
        }
    }

    fn build_shard(
        factory: &(impl Fn(usize, usize, usize, T) -> S + ?Sized),
        s: usize,
        size: usize,
        n: usize,
        initial: T,
    ) -> S {
        let shard = factory(s, size, n, initial);
        assert_eq!(
            shard.components(),
            size,
            "factory built shard {s} with the wrong number of components"
        );
        shard
    }

    /// Number of inner shards in the current generation's id space (some
    /// may be empty after a merge).
    pub fn shards(&self) -> usize {
        self.gens.shards()
    }

    /// A clone of the current partition map (diagnostics and tests).
    pub fn partition_map(&self) -> PartitionMap {
        self.gens.partition_map()
    }

    /// Access to one inner shard of the current generation (diagnostics and
    /// tests); the `Arc` stays valid across subsequent reshards.
    pub fn shard(&self, s: usize) -> Arc<S> {
        self.gens.shard(s)
    }

    /// Number of reshard operations that changed the layout.
    pub fn reshards(&self) -> u64 {
        self.gens.reshards()
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
        for (name, counter) in [
            ("scan.clean", &self.stats_clean),
            ("scan.retried", &self.stats_retried),
            ("scan.retries", &self.stats_retries),
            ("scan.coordinated", &self.stats_coordinated),
            ("scan.cross", &self.stats_cross),
        ] {
            registry.register(
                &format!("{prefix}.{name}"),
                Metric::Counter(Arc::clone(counter)),
            );
        }
        registry.register(
            &format!("{prefix}.scan.steps"),
            Metric::Histogram(Arc::clone(&self.scan_steps)),
        );
        registry.register(
            &format!("{prefix}.update.steps"),
            Metric::Histogram(Arc::clone(&self.update_steps)),
        );
        self.gens.register_obs(registry, prefix);
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
        self.gens.heat()
    }

    /// How every mutator starts. Fast path: one flag read. Slow path (a
    /// coordinated scan or a reshard is waiting or running): enter the read
    /// side of the latch so the drain stays bounded. The guard must be
    /// released before anything asks for the latch again — std's RwLock
    /// queues new readers behind a waiting writer, so a second entry from
    /// the same thread deadlocks as soon as a coordinated scan asks for the
    /// write side in between.
    fn writer_latch(&self) -> Option<RwLockReadGuard<'_, ()>> {
        steps::record(OpKind::Read);
        (self.coord_waiters.load(Ordering::SeqCst) != 0
            || self.reshard_waiters.load(Ordering::SeqCst) != 0)
            .then(|| self.coord_latch.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The writer bracket of one shard: `writers += 1` through the shared
    /// entry (which rechecks that no reshard has frozen or replaced
    /// `layout`), the mutation, `epoch += 1`, `writers -= 1`. Returns
    /// `false`, having mutated nothing, if the entry was refused.
    #[inline]
    fn write_shard(&self, layout: &CoordLayout<S>, shard: usize, mutate: impl FnOnce(&S)) -> bool {
        let Some(permit) = self.gens.enter_writer(layout, shard) else {
            return false;
        };
        layout.heat[shard].inc();
        mutate(&layout.inner[shard]);
        steps::record(OpKind::FetchInc);
        layout.gates[shard]
            .regs
            .epoch
            .fetch_add(1, Ordering::SeqCst);
        drop(permit);
        true
    }

    /// One attempt of `update_many` against one load of the generation.
    /// Returns `false`, having written nothing and released everything it
    /// took, if a reshard froze an involved shard or replaced the
    /// generation underneath.
    fn try_update_many(&self, pid: ProcessId, writes: &[(usize, T)]) -> bool {
        // Same fast/slow latch split as `update`.
        let _latch = self.writer_latch();
        let guard = epoch::pin();
        let layout = self.gens.load(&guard);
        // Resolve duplicates last-write-wins and group by shard (shared
        // router helper, so both sharded stores keep identical semantics).
        // Grouping is generation-specific, hence once per attempt.
        let by_shard = layout.router.group_last_write_wins(writes);
        let total: usize = by_shard.iter().map(|(_, sub)| sub.len()).sum();
        if let [(shard, sub_batch)] = &by_shard[..] {
            // Single-shard batch: the inner object's own `update_many`
            // makes it atomic on that shard (and treats a one-write batch
            // as the update it is); bracket it exactly like an update so
            // cross-shard scans involving this shard revalidate. The
            // bracket is entered here, under the latch guard this call
            // already holds — never by way of `self.update`, which would
            // enter the latch a second time (see `writer_latch`).
            let entered =
                self.write_shard(layout, *shard, |inner| inner.update_many(pid, sub_batch));
            if entered {
                trace::emit(TraceKind::BatchCommit, total as u64, 1);
            }
            return entered;
        }
        // Cross-shard batch, two-phase. Phase 1 raises `writers`
        // (cross-shard scan validation) and `batch_writers` (single-shard
        // scan validation) on every involved shard before any shard
        // mutates, so a concurrent scan of *either kind* that overlaps any
        // part of the batch revalidates and sees either the whole batch or
        // none of it. Phase 2 applies the per-shard sub-batches (each
        // atomic on its shard via the inner `update_many`). Phase 3 bumps
        // the epochs and releases the marks. The batch lock serializes
        // overlapping multi-shard batches, which could otherwise commit in
        // opposite per-shard orders — and a resharder holds it across its
        // whole rebuild, so the batch may have blocked through an entire
        // rebuild by the time it owns the lock: every `writers` raise goes
        // through the shared entry, whose recheck refuses a layout that is
        // no longer live. Once the entries pass, the held batch lock itself
        // excludes any new resharder until the batch commits.
        let _serial = self.batch_lock.lock().unwrap_or_else(|e| e.into_inner());
        let permits: Vec<_> = by_shard
            .iter()
            .map_while(|&(shard, _)| self.gens.enter_writer(layout, shard))
            .collect();
        if permits.len() < by_shard.len() {
            return false;
        }
        for &(shard, _) in &by_shard {
            layout.heat[shard].inc();
            steps::record(OpKind::FetchInc);
            let marks = &layout.gates[shard].regs.batch_writers;
            marks.fetch_add(1, Ordering::SeqCst);
        }
        for (shard, sub_batch) in &by_shard {
            layout.inner[*shard].update_many(pid, sub_batch);
        }
        for (&(shard, _), permit) in by_shard.iter().zip(permits) {
            let e = &layout.gates[shard].regs;
            steps::record(OpKind::FetchInc);
            e.epoch.fetch_add(1, Ordering::SeqCst);
            steps::record(OpKind::FetchInc);
            e.batch_epoch.fetch_add(1, Ordering::SeqCst);
            drop(permit);
            steps::record(OpKind::FetchInc);
            e.batch_writers.fetch_sub(1, Ordering::SeqCst);
        }
        trace::emit(TraceKind::BatchCommit, total as u64, by_shard.len() as u64);
        true
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
    fn collect_epochs(layout: &CoordLayout<S>, plan: &ScanPlan) -> Option<Vec<u64>> {
        let mut snapshot = Vec::with_capacity(plan.groups.len());
        for &(shard, _) in &plan.groups {
            let e = &layout.gates[shard];
            steps::record(OpKind::Read);
            if e.writers() != 0 {
                return None;
            }
            steps::record(OpKind::Read);
            snapshot.push(e.regs.epoch.load(Ordering::SeqCst));
        }
        Some(snapshot)
    }

    /// One optimistic round: validate-scan-revalidate. Returns the assembled
    /// values on success.
    fn optimistic_round(
        layout: &CoordLayout<S>,
        pid: ProcessId,
        plan: &ScanPlan,
    ) -> Option<Vec<T>> {
        let before = Self::collect_epochs(layout, plan)?;
        let results: Vec<Vec<T>> = plan
            .groups
            .iter()
            .map(|(shard, slots)| layout.inner[*shard].scan(pid, slots))
            .collect();
        let after = Self::collect_epochs(layout, plan)?;
        (before == after).then(|| plan.assemble(&results))
    }

    /// The coordinated fallback: hold back new updates via the latch, then
    /// keep validating until the bounded set of straggler updates has
    /// drained. The caller records the scan's outcome counters (after its
    /// generation recheck, so a discarded attempt counts nothing).
    fn coordinated_scan(&self, layout: &CoordLayout<S>, pid: ProcessId, plan: &ScanPlan) -> Vec<T> {
        self.coord_waiters.fetch_add(1, Ordering::SeqCst);
        let latch = self.coord_latch.write().unwrap_or_else(|e| e.into_inner());
        let result = loop {
            // Only updates that sampled the flag before it rose can still be
            // in flight; each failed round means one of them completed, so
            // this loop is bounded by the number of processes.
            if let Some(values) = Self::optimistic_round(layout, pid, plan) {
                break values;
            }
            std::thread::yield_now();
        };
        drop(latch);
        self.coord_waiters.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// The scan protocol: plan against the live generation, take the
    /// locality fast path or the validated cross-shard rounds, and start
    /// over whenever a reshard replaced the generation underneath.
    fn scan_attempts(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        'attempt: loop {
            // While a reshard is rebuilding, scans wait behind the latch
            // exactly like updates — drain-and-rebuild quiesces *all*
            // traffic, which is precisely the availability gap E15 measures
            // against the multiversioned live-reshard path.
            steps::record(OpKind::Read);
            let latch = (self.reshard_waiters.load(Ordering::SeqCst) != 0)
                .then(|| self.coord_latch.read().unwrap_or_else(|e| e.into_inner()));
            let guard = epoch::pin();
            let layout = self.gens.load(&guard);
            let plan = layout.router.plan(components);
            for (shard, _) in &plan.groups {
                layout.heat[*shard].inc();
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
                let e = &layout.gates[shard].regs;
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
                    let values = layout.inner[shard].scan(pid, slots);
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
                        if !self.gens.is_live(layout) {
                            continue 'attempt;
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
                if let Some(values) = Self::optimistic_round(layout, pid, &plan) {
                    if !self.gens.is_live(layout) {
                        continue 'attempt;
                    }
                    self.stats_cross.inc();
                    if round == 0 {
                        self.stats_clean.inc();
                    } else {
                        self.stats_retried.inc();
                        self.stats_retries.add(round as u64);
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
            drop(latch);
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
            let values = self.coordinated_scan(layout, pid, &plan);
            if !self.gens.is_live(layout) {
                continue 'attempt;
            }
            self.stats_cross.inc();
            self.stats_coordinated.inc();
            return values;
        }
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
        validate_args(self.m, self.n, pid, &[component]);
        let scope = psnap_obs::enabled().then(StepScope::start);
        let mut value = Some(value);
        loop {
            let _latch = self.writer_latch();
            let guard = epoch::pin();
            let layout = self.gens.load(&guard);
            let (shard, slot) = layout.router.route(component);
            if self.write_shard(layout, shard, |inner| {
                inner.update(pid, slot, value.take().expect("moved once"))
            }) {
                break;
            }
            drop(guard);
            std::thread::yield_now();
        }
        if let Some(scope) = scope {
            self.update_steps.record(scope.finish().total());
        }
    }

    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        validate_batch_args(self.m, self.n, pid, writes);
        if writes.is_empty() {
            return;
        }
        let scope = psnap_obs::enabled().then(StepScope::start);
        while !self.try_update_many(pid, writes) {
            std::thread::yield_now();
        }
        if let Some(scope) = scope {
            self.update_steps.record(scope.finish().total());
        }
    }

    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        validate_args(self.m, self.n, pid, components);
        if components.is_empty() {
            return Vec::new();
        }
        let scope = psnap_obs::enabled().then(StepScope::start);
        let values = self.scan_attempts(pid, components);
        if let Some(scope) = scope {
            self.scan_steps.record(scope.finish().total());
        }
        values
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
        let layout = self.gens.load(&guard);
        layout.inner.len() == 1 && layout.inner.iter().all(|s| s.is_wait_free())
    }

    fn name(&self) -> &'static str {
        "sharded-partial-snapshot"
    }

    fn shard_heat(&self) -> Vec<u64> {
        self.gens.heat()
    }

    fn shard_sizes(&self) -> Vec<usize> {
        self.gens.shard_sizes()
    }

    fn shard_of(&self, component: usize) -> usize {
        self.gens.shard_of(component)
    }

    fn generation(&self) -> u64 {
        self.gens.generation()
    }

    /// Drain-and-rebuild resharding: quiesce every mutator, read the
    /// affected components out of the frozen object, rebuild the affected
    /// shards through the stored factory, swap, retire. Deliberately
    /// stop-the-world — the baseline the multiversioned live protocol is
    /// measured against (E15). Returns `false` (layout unchanged) for
    /// degenerate requests.
    fn reshard(&self, op: ReshardOp) -> bool {
        self.gens.reshard(
            op,
            |old, _| {
                // Raise the flag first: updates and scans that sample it
                // hold back on the latch's read side; the write acquisition
                // below then waits only for operations already past their
                // flag check.
                self.reshard_waiters.fetch_add(1, Ordering::SeqCst);
                let latch = self.coord_latch.write().unwrap_or_else(|e| e.into_inner());
                let serial = self.batch_lock.lock().unwrap_or_else(|e| e.into_inner());
                // Stop the world, not just the affected shards: every
                // mutator past its flag check either is drained here or
                // backs off its frozen gate. Cross-shard batches raise
                // their marks under the batch lock we now hold, so none is
                // in flight.
                let all: Vec<usize> = (0..old.gates.len()).collect();
                old.freeze_and_drain(&all);
                debug_assert!(
                    old.gates
                        .iter()
                        .all(|g| g.regs.batch_writers.load(Ordering::SeqCst) == 0),
                    "a cross-shard batch is in flight without the batch lock"
                );
                (latch, serial, all)
            },
            |_, s, sources| {
                // The object is frozen: read each moved component out of
                // the slot that held it, write it into the slot that will.
                let shard = Self::build_shard(
                    &*self.factory,
                    s,
                    sources.len(),
                    self.n,
                    self.initial.clone(),
                );
                for (slot, (from, from_slot)) in sources.iter().enumerate() {
                    let value = from
                        .scan(ProcessId(0), &[*from_slot])
                        .pop()
                        .expect("sub-scan returns one value per requested slot");
                    shard.update(ProcessId(0), slot, value);
                }
                shard
            },
            |(latch, serial, all), old, _| {
                old.unfreeze(&all);
                drop(serial);
                drop(latch);
                self.reshard_waiters.fetch_sub(1, Ordering::SeqCst);
            },
        )
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

    /// A one-write batch enters the read side of the coordination latch
    /// exactly once; a second entry from the same call — by delegating to
    /// `update`, say — deadlocks (see `writer_latch`). Chaos parks the
    /// batcher at its first steps, where such a second entry would sit,
    /// while a free-running updater tears every optimistic round of two
    /// scanners, so a coordinated scan is always running or asking for the
    /// write side.
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
