//! [`MvShardedSnapshot`]: the multiversioned cross-shard path — wait-free
//! cross-shard scans with no validation retries and no coordination latch,
//! over an **epoch-versioned partition map** that can be resharded online.
//!
//! [`ShardedSnapshot`](crate::ShardedSnapshot) validates cross-shard scans
//! against per-shard epoch counters and, when validation keeps failing,
//! escalates to a coordinated scan that *waits for in-flight updates to
//! drain* — a straggler updater suspended mid-update delays it indefinitely,
//! which is why a multi-shard placement reports `is_wait_free() == false`.
//! This type removes that wait. Every shard is a
//! [`psnap_core::MvSnapshot`] and all shards share **one**
//! [`TimestampCamera`] and one batch serializer, so a cross-shard scan is:
//!
//! 1. announce on every involved shard (one camera read + one slot write
//!    each — the announcement keeps pruners from detaching the versions the
//!    scan is about to read);
//! 2. draw one timestamp `s` with a single `camera.tick()` — the scan's
//!    linearization point, shared by every sub-read;
//! 3. read, in each involved register of each involved shard, the version
//!    with the largest timestamp `≤ s`;
//! 4. clear the announcements.
//!
//! No step re-reads anything, no step waits on a writer, and the combined
//! cut is consistent across shards because the camera is shared: the cut is
//! the state of the whole object at the instant the camera moved past `s`.
//! Cross-shard batches commit by publishing one timestamp (the shared
//! stamp's finalize), so a scan sees a batch that spans every shard either
//! everywhere or nowhere — without the two-phase `writers`/`batch_writers`
//! bracketing the coordinated path needs.
//!
//! # Online resharding
//!
//! The component→shard assignment is not fixed at construction: the whole
//! routing state (a [`PartitionMap`] generation, its router, the inner shard
//! objects, and per-shard writer gates) is one immutable generation of the
//! crate's shared generation core, the same one
//! [`ShardedSnapshot`](crate::ShardedSnapshot) routes through. Operations
//! pin the epoch ([`psnap_shmem::epoch`]), load the live generation, and
//! work against that coherent view; single updates enter their shard's
//! writer gate through the core's raise-then-recheck;
//! [`reshard`](PartialSnapshot::reshard) runs the core's skeleton — build
//! the next generation, swap the pointer, retire the old state through the
//! epoch module so in-flight readers keep a dereferenceable view — and adds
//! only the multiversioned store's own steps (marked *ours* below).
//!
//! A live reshard never stops scans. The protocol (per affected shard):
//!
//! 1. **exclude batches** *(ours)* — take the shared batch serializer
//!    (in-flight batches complete first; new ones queue);
//! 2. **freeze + drain writers** — set the affected shards' gate flags and
//!    wait for their in-flight single updates to finish (updates to other
//!    shards continue untouched);
//! 3. **cutover** *(ours)* — draw one boundary timestamp with
//!    [`TimestampCamera::cutover`]: every version finalized before it sits
//!    strictly below, every write after the swap lands at or above;
//! 4. **copy** *(ours)* — build the replacement shard objects
//!    ([`MvSnapshot::with_shared`], same camera and serializer) and install
//!    the moved components' finalized version history with its original
//!    timestamps ([`MvSnapshot::install_frozen`]) — the copies win exactly
//!    the scans the originals did and can never shadow a post-cutover write;
//! 5. **swap + retire** — publish the new generation, unfreeze the gates,
//!    and retire the old state epoch-style.
//!
//! Scans are kept correct across the swap by a **post-tick generation
//! recheck**: after drawing `s`, a scan re-reads the live generation. If it
//! moved, the scan clears its announcements and retries on the new state
//! (bounded by the number of concurrent reshard events, not by writers). If
//! it did not move, the swap — if any — happened after this scan's tick, so
//! every write the old state misses carries a timestamp `≥ s` drawn after
//! the swap and is legally ordered after the scan. Writes the scan *can*
//! see on the old state are complete: the affected shards were drained
//! before the cutover, so their old chains are immutable below the
//! boundary.
//!
//! Which path a deployment gets is chosen by the type it builds:
//! [`ShardedSnapshot`](crate::ShardedSnapshot) is the epoch-validated
//! coordinated path, this type the multiversioned one; both are seeded from
//! a [`ShardConfig`] (see `psnap-bench`'s `ImplKind::MvSharded*` kinds and
//! experiments E12/E15 for the measured trades).

use std::sync::{Arc, Mutex, MutexGuard};

use psnap_core::traits::{validate_args, validate_batch_args};
use psnap_core::{MvSnapshot, PartialSnapshot, ReshardOp};
use psnap_obs::{trace, Counter, Histogram, Metric, Registry, TraceKind};
use psnap_shmem::epoch;
use psnap_shmem::{MvStamp, ProcessId, StepScope, TimestampCamera};

use crate::generations::Generations;
use crate::partition::PartitionMap;
use crate::sharded::ShardConfig;

/// A partial snapshot object sharded over multiversioned shards that share
/// one timestamp camera, routed by an epoch-versioned partition map that
/// supports live split/merge. See the module docs.
pub struct MvShardedSnapshot<T> {
    /// The routing state, generation by generation.
    gens: Generations<MvSnapshot<T>, ()>,
    camera: Arc<TimestampCamera>,
    /// Serializes whole batches across the family — the same `Arc` every
    /// shard holds, so single-shard batches entering through an inner shard
    /// and cross-shard batches entering here can never interleave their
    /// installs. A reshard holds it across its whole migration, which is
    /// what lets batches skip the writer gates entirely.
    batches: Arc<Mutex<()>>,
    /// The initial component value (new shard objects need it before the
    /// migration copy overwrites the slots that have history).
    initial: T,
    /// Cross-shard scans served (diagnostics; every one of them is answered
    /// by the one-shot timestamp path — there is no other path to count).
    stats_cross: Arc<Counter>,
    /// Scan attempts retried because a reshard swapped the generation
    /// between their planning and their tick.
    stats_scan_regen: Arc<Counter>,
    scan_steps: Arc<Histogram>,
    update_steps: Arc<Histogram>,
    m: usize,
    n: usize,
}

impl<T: Clone + Send + Sync + 'static> MvShardedSnapshot<T> {
    /// Creates a multiversioned sharded object over `m` components for
    /// `max_processes` processes. `config.shards` and `config.partition`
    /// seed generation 0 of the partition map;
    /// `config.max_optimistic_retries` is irrelevant here (the
    /// multiversioned path never retries validation).
    pub fn new(m: usize, max_processes: usize, initial: T, config: ShardConfig) -> Self {
        assert!(m > 0, "a snapshot object needs at least one component");
        assert!(max_processes > 0, "at least one process must be allowed");
        let map = PartitionMap::new(m, config.shards, config.partition);
        let camera = Arc::new(TimestampCamera::new());
        let batches = Arc::new(Mutex::new(()));
        MvShardedSnapshot {
            gens: Generations::new(map, |_, size| {
                MvSnapshot::with_shared(
                    size,
                    max_processes,
                    initial.clone(),
                    Arc::clone(&camera),
                    Arc::clone(&batches),
                )
            }),
            camera,
            batches,
            initial,
            stats_cross: Arc::new(Counter::new()),
            stats_scan_regen: Arc::new(Counter::new()),
            scan_steps: Arc::new(Histogram::new()),
            update_steps: Arc::new(Histogram::new()),
            m,
            n: max_processes,
        }
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
    pub fn shard(&self, s: usize) -> Arc<MvSnapshot<T>> {
        self.gens.shard(s)
    }

    /// The shared timestamp camera.
    pub fn camera(&self) -> &Arc<TimestampCamera> {
        &self.camera
    }

    /// Number of cross-shard scans served so far (racy snapshot).
    pub fn cross_shard_scans(&self) -> u64 {
        self.stats_cross.get()
    }

    /// Number of reshard operations that changed the layout.
    pub fn reshards(&self) -> u64 {
        self.gens.reshards()
    }

    /// Number of scan attempts retried across a generation swap.
    pub fn scan_generation_retries(&self) -> u64 {
        self.stats_scan_regen.get()
    }

    /// Per-shard operation heat for the current generation's shard id
    /// space: how many update/batch/scan operations have touched each
    /// shard. Survivors carry their count across reshards; shards appended
    /// by a split start at zero.
    pub fn heat(&self) -> Vec<u64> {
        self.gens.heat()
    }

    /// Registers this store's live metric handles into `registry` under
    /// `{prefix}.*`. Per-shard heat counters are registered for the
    /// generation-0 shards (counters of shards appended by later splits are
    /// reachable through [`shard_heat`](PartialSnapshot::shard_heat), which
    /// always reflects the live generation).
    pub fn register_obs(&self, registry: &Registry, prefix: &str) {
        registry.register(
            &format!("{prefix}.scan.cross"),
            Metric::Counter(Arc::clone(&self.stats_cross)),
        );
        registry.register(
            &format!("{prefix}.scan.regen_retries"),
            Metric::Counter(Arc::clone(&self.stats_scan_regen)),
        );
        registry.register(
            &format!("{prefix}.scan.steps"),
            Metric::Histogram(Arc::clone(&self.scan_steps)),
        );
        registry.register(
            &format!("{prefix}.update.steps"),
            Metric::Histogram(Arc::clone(&self.update_steps)),
        );
        self.gens.register_obs(registry, prefix);
    }

    /// The one-shot cross-shard read protocol with the post-tick generation
    /// recheck, shared by `scan` and `scan_stale`. Returns the timestamp
    /// alongside the assembled values.
    fn scan_with_stamp(&self, pid: ProcessId, components: &[usize]) -> (u64, Vec<T>) {
        let scope = psnap_obs::enabled().then(StepScope::start);
        loop {
            let guard = epoch::pin();
            let layout = self.gens.load(&guard);
            let plan = layout.router.plan(components);
            // Announce on every involved shard *before* drawing the
            // timestamp: each announcement lower-bounds `s`, keeping every
            // shard's pruners away from the versions this scan may select.
            for &(shard, _) in &plan.groups {
                layout.inner[shard].announce_scan(pid);
            }
            let s = self.camera.tick();
            // The reshard seam: if the generation moved since planning, a
            // cutover may have beaten our tick, and post-swap writes could
            // carry timestamps ≤ s on shard objects this plan never reads.
            // Retry on the fresh state (bounded by concurrent reshard
            // events). If the generation is unchanged, any later swap
            // happens after this tick, so every write the old state misses
            // is stamped ≥ s and legally ordered after this scan.
            if !self.gens.is_live(layout) {
                for &(shard, _) in &plan.groups {
                    layout.inner[shard].clear_announcement(pid);
                }
                self.stats_scan_regen.inc();
                continue;
            }
            for (shard, _) in &plan.groups {
                layout.heat[*shard].inc();
            }
            if plan.is_cross_shard() {
                self.stats_cross.inc();
            }
            trace::emit(TraceKind::ScanAnnounce, s, plan.groups.len() as u64);
            let results: Vec<Vec<T>> = plan
                .groups
                .iter()
                .map(|(shard, slots)| layout.inner[*shard].scan_at(pid, slots, s))
                .collect();
            for &(shard, _) in &plan.groups {
                layout.inner[shard].clear_announcement(pid);
            }
            if let Some(scope) = scope {
                self.scan_steps.record(scope.finish().total());
            }
            return (s, plan.assemble(&results));
        }
    }

    /// Starts a cross-shard `update_many` and **parks it mid-batch**: every
    /// version is installed on every involved shard, but the single commit
    /// timestamp is not yet published. The deterministic seam of the
    /// wait-freedom harness — scans must (and do) stay within their step
    /// budget with the batch parked on every involved shard, returning the
    /// pre-batch cut. The batch serializer is held until commit; dropping
    /// the guard commits. Because the serializer is held, no reshard can
    /// run while a batch is parked — the routing the batch installed
    /// against stays live until it commits.
    pub fn begin_parked_update_many(
        &self,
        pid: ProcessId,
        writes: &[(usize, T)],
    ) -> MvShardedParked<'_, T> {
        validate_batch_args(self.m, self.n, pid, writes);
        let guard = self.batches.lock().unwrap_or_else(|e| e.into_inner());
        let pin = epoch::pin();
        let layout = self.gens.load(&pin);
        let by_shard = layout.router.group_last_write_wins(writes);
        let stamp = MvStamp::pending_batch();
        for (shard, sub_batch) in &by_shard {
            layout.inner[*shard].install_pending(pid, sub_batch, &stamp);
        }
        let touched = by_shard
            .into_iter()
            .map(|(shard, sub)| {
                (
                    Arc::clone(&layout.inner[shard]),
                    sub.into_iter().map(|(slot, _)| slot).collect(),
                )
            })
            .collect();
        MvShardedParked {
            camera: Arc::clone(&self.camera),
            stamp,
            touched,
            _serial: guard,
        }
    }
}

/// A cross-shard `update_many` parked mid-batch by
/// [`MvShardedSnapshot::begin_parked_update_many`].
#[must_use = "a parked batch holds the batch serializer until committed or dropped"]
pub struct MvShardedParked<'a, T: Clone + Send + Sync + 'static> {
    camera: Arc<TimestampCamera>,
    stamp: MvStamp,
    /// `(shard object, slots)` touched by the batch. Holding the `Arc`s
    /// keeps the installs reachable even if the surrounding object is
    /// dropped mid-park (and documents that the batch belongs to the
    /// generation it installed against — which the held serializer pins).
    touched: Vec<(Arc<MvSnapshot<T>>, Vec<usize>)>,
    _serial: MutexGuard<'a, ()>,
}

impl<T: Clone + Send + Sync + 'static> MvShardedParked<'_, T> {
    /// Publishes the batch's timestamp — the single cross-shard commit
    /// point — and prunes the touched chains on every involved shard.
    pub fn commit(self) {}
}

impl<T: Clone + Send + Sync + 'static> Drop for MvShardedParked<'_, T> {
    fn drop(&mut self) {
        self.stamp.finalize(&self.camera);
        for (shard, slots) in &self.touched {
            shard.prune_components(slots);
        }
    }
}

impl<T: Clone + Send + Sync + 'static> PartialSnapshot<T> for MvShardedSnapshot<T> {
    fn components(&self) -> usize {
        self.m
    }

    fn max_processes(&self) -> usize {
        self.n
    }

    fn update(&self, pid: ProcessId, component: usize, value: T) {
        validate_args(self.m, self.n, pid, &[component]);
        let scope = psnap_obs::enabled().then(StepScope::start);
        loop {
            let guard = epoch::pin();
            let layout = self.gens.load(&guard);
            let (shard, slot) = layout.router.route(component);
            // The writer gate: counted writers are what a reshard drains
            // before copying this shard's chains. A refused entry means a
            // reshard is mid-migration on this shard, or has replaced this
            // generation since the load above — back off and retry on the
            // state it has published or is about to.
            let Some(permit) = self.gens.enter_writer(layout, shard) else {
                drop(guard);
                std::thread::yield_now();
                continue;
            };
            layout.heat[shard].inc();
            layout.inner[shard].update(pid, slot, value);
            drop(permit);
            break;
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
        // Batches take the shared serializer *before* routing. A reshard
        // holds the serializer across its whole migration, so a batch can
        // never interleave with a generation swap: the state loaded below
        // stays live until the commit publishes. (This also means batches
        // need no writer gates.)
        let serial = self.batches.lock().unwrap_or_else(|e| e.into_inner());
        let guard = epoch::pin();
        let layout = self.gens.load(&guard);
        let by_shard = layout.router.group_last_write_wins(writes);
        let scope = psnap_obs::enabled().then(StepScope::start);
        for &(shard, _) in &by_shard {
            layout.heat[shard].inc();
        }
        // All installs under the serializer, then one finalize — the single
        // timestamp every shard's versions share is the whole commit
        // protocol. No per-shard write phases, no marks for scans to
        // validate; the single-shard case is simply the one-group instance.
        let stamp = MvStamp::pending_batch();
        for (shard, sub_batch) in &by_shard {
            layout.inner[*shard].install_pending(pid, sub_batch, &stamp);
        }
        stamp.finalize(&self.camera);
        for (shard, sub_batch) in &by_shard {
            let slots: Vec<usize> = sub_batch.iter().map(|(slot, _)| *slot).collect();
            layout.inner[*shard].prune_components(&slots);
        }
        let groups = by_shard.len() as u64;
        let total = by_shard.iter().map(|(_, sub)| sub.len()).sum::<usize>() as u64;
        drop(serial);
        trace::emit(TraceKind::BatchCommit, total, groups);
        if let Some(scope) = scope {
            self.update_steps.record(scope.finish().total());
        }
    }

    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        validate_args(self.m, self.n, pid, components);
        if components.is_empty() {
            return Vec::new();
        }
        self.scan_with_stamp(pid, components).1
    }

    fn scan_stale(&self, pid: ProcessId, components: &[usize]) -> Option<(u64, Vec<T>)> {
        validate_args(self.m, self.n, pid, components);
        if components.is_empty() {
            return Some((self.camera.timestamp(), Vec::new()));
        }
        // The same one-shot protocol, returning its timestamp: it touches
        // only the requested registers, and the single published timestamp
        // makes the combined cut consistent across shards exactly as in
        // `scan`.
        Some(self.scan_with_stamp(pid, components))
    }

    fn shard_of(&self, component: usize) -> usize {
        self.gens.shard_of(component)
    }

    fn is_wait_free(&self) -> bool {
        // The headline property: cross-shard scans are one camera tick plus
        // a bounded chain walk per register — no validation retries, no
        // coordinated drain waiting on straggler updates. Wait-freedom
        // survives sharding, and it survives resharding in the operational
        // sense: a scan retries only when a generation swap lands between
        // its planning and its tick (bounded by the number of reshard
        // events, not by other processes' scheduling), and a writer backs
        // off only while its own shard is mid-migration.
        true
    }

    fn name(&self) -> &'static str {
        "mv-sharded-partial-snapshot"
    }

    fn shard_heat(&self) -> Vec<u64> {
        self.gens.heat()
    }

    fn shard_sizes(&self) -> Vec<usize> {
        self.gens.shard_sizes()
    }

    fn generation(&self) -> u64 {
        self.gens.generation()
    }

    /// Applies a split or merge to the live object. See the module docs for
    /// the protocol and its correctness argument. Returns `false` (layout
    /// unchanged) for degenerate requests: splitting a shard with fewer
    /// than two components, merging a shard into itself, or out-of-range
    /// ids.
    fn reshard(&self, op: ReshardOp) -> bool {
        self.gens.reshard(
            op,
            |old, affected| {
                // Lock order: the core's reshard lock → batch serializer →
                // gate freeze. Batch writers take the serializer before
                // routing, so a batch in flight completes before the freeze
                // and no new one starts until the swap is published.
                let serial = self.batches.lock().unwrap_or_else(|e| e.into_inner());
                // Each drained update is a bounded store-and-finalize;
                // writers that arrive after the freeze back off and retry
                // against the new state once it is published.
                old.freeze_and_drain(affected);
                // The migration boundary: every version finalized before
                // this call is strictly below it, every post-swap write at
                // or above it. The affected shards are quiescent from here
                // until the swap, so their chains are frozen below the
                // boundary.
                (serial, self.camera.cutover())
            },
            |&(_, boundary), _, sources| {
                // Rebuilt shard: fresh object on the shared camera and
                // serializer, then copy each owned component's finalized
                // history with its original timestamps. All copied stamps
                // sit below the boundary, so a copy can never shadow a
                // post-swap write; old-generation scans still in flight
                // keep reading the old objects, which stay alive until the
                // epoch frees them.
                let fresh = MvSnapshot::with_shared(
                    sources.len(),
                    self.n,
                    self.initial.clone(),
                    Arc::clone(&self.camera),
                    Arc::clone(&self.batches),
                );
                for (slot, (from, from_slot)) in sources.iter().enumerate() {
                    for (t, v) in from.slot_versions(*from_slot) {
                        debug_assert!(
                            t < boundary,
                            "version stamped {t} at or above the cutover boundary {boundary}"
                        );
                        fresh.install_frozen(slot, t, v);
                    }
                }
                fresh
            },
            |(serial, _), old, affected| {
                old.unfreeze(affected);
                drop(serial);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;
    use psnap_shmem::StepScope;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::thread;

    fn mv_sharded(m: usize, n: usize, shards: usize) -> MvShardedSnapshot<u64> {
        MvShardedSnapshot::new(m, n, 0u64, ShardConfig::multiversioned(shards))
    }

    #[test]
    fn sequential_update_and_scan_across_shards() {
        let snap = mv_sharded(16, 2, 4);
        assert_eq!(snap.components(), 16);
        assert_eq!(snap.shards(), 4);
        snap.update(ProcessId(0), 0, 10);
        snap.update(ProcessId(0), 7, 70);
        snap.update(ProcessId(0), 15, 150);
        assert_eq!(
            snap.scan(ProcessId(1), &[0, 7, 15, 3]),
            vec![10, 70, 150, 0]
        );
        assert_eq!(snap.scan(ProcessId(1), &[15, 0, 15]), vec![150, 10, 150]);
        assert!(snap.cross_shard_scans() >= 2);
    }

    #[test]
    fn hashed_partition_behaves_identically_sequentially() {
        let a = mv_sharded(32, 2, 4);
        let b = MvShardedSnapshot::new(
            32,
            2,
            0u64,
            ShardConfig {
                partition: Partition::Hashed,
                ..ShardConfig::multiversioned(4)
            },
        );
        for i in 0..32 {
            a.update(ProcessId(0), i, i as u64 * 3);
            b.update(ProcessId(0), i, i as u64 * 3);
        }
        assert_eq!(a.scan_all(ProcessId(1)), b.scan_all(ProcessId(1)));
    }

    #[test]
    fn cross_shard_batches_commit_atomically() {
        let snap = mv_sharded(16, 2, 4);
        snap.update_many(ProcessId(0), &[(0, 10), (7, 70), (15, 150)]);
        assert_eq!(snap.scan(ProcessId(1), &[0, 7, 15]), vec![10, 70, 150]);
        snap.update_many(ProcessId(0), &[(3, 1), (3, 2), (12, 5), (3, 3)]);
        assert_eq!(snap.scan(ProcessId(1), &[3, 12]), vec![3, 5]);
        snap.update_many(ProcessId(0), &[]);
        snap.update_many(ProcessId(0), &[(4, 40), (5, 50)]); // single shard
        assert_eq!(snap.scan(ProcessId(1), &[4, 5]), vec![40, 50]);
    }

    #[test]
    fn parked_cross_shard_batch_is_invisible_until_commit_and_scans_stay_bounded() {
        let snap = mv_sharded(8, 3, 4);
        snap.update_many(ProcessId(0), &[(0, 1), (6, 1)]);
        // Park a batch spanning shards 0 and 3 — the state a writer
        // suspended between its installs and its commit leaves behind, and
        // exactly where the coordinated path would stall scans.
        let parked = snap.begin_parked_update_many(ProcessId(0), &[(0, 2), (6, 2)]);
        let budget = MvSnapshot::<u64>::scan_step_budget(2, 3, 1) + 2 * 3;
        for _ in 0..10 {
            let scope = StepScope::start();
            let got = snap.scan(ProcessId(1), &[0, 6]);
            let steps = scope.finish().total();
            assert_eq!(got, vec![1, 1], "parked cross-shard batch leaked");
            assert!(
                steps <= budget,
                "scan took {steps} steps against a parked cross-shard batch, budget {budget}"
            );
        }
        parked.commit();
        assert_eq!(snap.scan(ProcessId(1), &[0, 6]), vec![2, 2]);
    }

    #[test]
    fn cross_shard_scans_never_tear_batches_under_churn() {
        let snap = Arc::new(mv_sharded(8, 2, 4));
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
    fn single_shard_scans_order_consistently_against_cross_shard_batches() {
        // The regression the coordinated path needs `batch_writers` marks
        // for: alternating one-component scans across two shards must see a
        // monotone batch sequence. Here the single published timestamp
        // makes it hold by construction.
        let snap = Arc::new(mv_sharded(8, 2, 4));
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update_many(ProcessId(0), &[(0, v), (6, v)]);
                    v += 1;
                }
            })
        };
        let mut last = 0u64;
        for i in 0..4000 {
            let component = if i % 2 == 0 { 0 } else { 6 };
            let got = snap.scan(ProcessId(1), &[component])[0];
            assert!(
                got >= last,
                "single-shard scan of component {component} saw batch {got} after {last}"
            );
            last = got;
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }

    #[test]
    fn cross_shard_transfers_never_tear() {
        let snap = Arc::new(mv_sharded(8, 2, 4));
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
            assert!(
                (1900..=2100).contains(&total),
                "torn cross-shard scan: {v:?}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }

    #[test]
    fn metadata_reports_wait_freedom() {
        let snap = mv_sharded(8, 3, 2);
        assert_eq!(snap.max_processes(), 3);
        // The point of the type: multi-shard placements stay wait-free.
        assert!(snap.is_wait_free());
        assert_eq!(snap.name(), "mv-sharded-partial-snapshot");
        assert_eq!(snap.shard(0).components(), 4);
    }

    #[test]
    #[should_panic(expected = "component")]
    fn out_of_range_component_is_rejected() {
        let snap = mv_sharded(8, 1, 2);
        snap.update(ProcessId(0), 8, 1);
    }

    #[test]
    #[should_panic(expected = "process id")]
    fn out_of_range_pid_is_rejected() {
        let snap = mv_sharded(8, 1, 2);
        let _ = snap.scan(ProcessId(1), &[0]);
    }

    #[test]
    fn split_preserves_values_and_bumps_generation() {
        let snap = mv_sharded(16, 2, 2);
        for c in 0..16 {
            snap.update(ProcessId(0), c, 100 + c as u64);
        }
        assert_eq!(snap.generation(), 0);
        assert!(snap.reshard(ReshardOp::Split { shard: 0 }));
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.shards(), 3);
        let expected: Vec<u64> = (0..16).map(|c| 100 + c as u64).collect();
        assert_eq!(snap.scan_all(ProcessId(1)), expected);
        // Writes keep landing on the right components after the move.
        snap.update(ProcessId(0), 5, 999);
        assert_eq!(snap.scan(ProcessId(1), &[5, 6]), vec![999, 106]);
        assert_eq!(snap.reshards(), 1);
    }

    #[test]
    fn merge_preserves_values_and_empties_the_source() {
        let snap = mv_sharded(12, 2, 3);
        for c in 0..12 {
            snap.update(ProcessId(0), c, 7 * c as u64);
        }
        assert!(snap.reshard(ReshardOp::Merge { from: 2, into: 0 }));
        assert_eq!(snap.generation(), 1);
        let expected: Vec<u64> = (0..12).map(|c| 7 * c as u64).collect();
        assert_eq!(snap.scan_all(ProcessId(1)), expected);
        // Every component of the merged pair now reports the target shard.
        for c in 0..12 {
            assert_ne!(
                snap.shard_of(c),
                2,
                "component {c} still routed to the emptied shard"
            );
        }
        snap.update_many(ProcessId(0), &[(8, 1), (9, 1), (0, 1)]);
        assert_eq!(snap.scan(ProcessId(1), &[8, 9, 0]), vec![1, 1, 1]);
    }

    #[test]
    fn degenerate_reshards_are_refused() {
        let snap = mv_sharded(4, 1, 4);
        assert!(
            !snap.reshard(ReshardOp::Split { shard: 0 }),
            "singleton split"
        );
        assert!(!snap.reshard(ReshardOp::Split { shard: 9 }), "out of range");
        assert!(
            !snap.reshard(ReshardOp::Merge { from: 1, into: 1 }),
            "self merge"
        );
        assert_eq!(
            snap.generation(),
            0,
            "refusals must not advance the generation"
        );
    }

    #[test]
    fn repeated_reshards_keep_exact_ownership() {
        let snap = mv_sharded(32, 2, 2);
        for c in 0..32 {
            snap.update(ProcessId(0), c, 1000 + c as u64);
        }
        assert!(snap.reshard(ReshardOp::Split { shard: 0 }));
        assert!(snap.reshard(ReshardOp::Split { shard: 1 }));
        assert!(snap.reshard(ReshardOp::Merge { from: 2, into: 0 }));
        assert!(snap.reshard(ReshardOp::Split { shard: 0 }));
        assert_eq!(snap.generation(), 4);
        let expected: Vec<u64> = (0..32).map(|c| 1000 + c as u64).collect();
        assert_eq!(snap.scan_all(ProcessId(1)), expected);
        // Heat vector tracks the live id space.
        assert_eq!(snap.shard_heat().len(), snap.shards());
    }

    #[test]
    fn scans_and_updates_survive_live_resharding_under_churn() {
        // The tentpole's crux: a reshard storm under write traffic, with
        // every scan required to return a consistent (untorn) cut and no
        // write lost. Components 0 and 6 are always written together with
        // equal values by a batch, and component 3 is a single-update
        // counter that must never go backwards.
        let snap = Arc::new(mv_sharded(8, 3, 2));
        snap.update_many(ProcessId(0), &[(0, 1), (6, 1)]);
        let stop = Arc::new(AtomicBool::new(false));
        let batcher = {
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
        let counter = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update(ProcessId(2), 3, v);
                    v += 1;
                }
            })
        };
        let splits_seen = Arc::new(AtomicU64::new(0));
        let resharder = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            let splits_seen = Arc::clone(&splits_seen);
            thread::spawn(move || {
                let mut splits = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // Alternate splitting the hottest shard and merging the
                    // newest back, so the generation keeps moving.
                    let heat = snap.shard_heat();
                    let hottest = heat
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, h)| **h)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    if snap.reshard(ReshardOp::Split { shard: hottest }) {
                        splits += 1;
                        splits_seen.fetch_add(1, Ordering::Relaxed);
                        let newest = snap.shards() - 1;
                        let _ = snap.reshard(ReshardOp::Merge {
                            from: newest,
                            into: hottest,
                        });
                    }
                    thread::yield_now();
                }
                splits
            })
        };
        let mut last_counter = 0u64;
        let mut last_batch = 0u64;
        // At least 4000 scans, and keep scanning until the storm has landed
        // a split: on a loaded single-core box the scan loop can otherwise
        // finish inside one scheduler quantum, before the resharder thread
        // ever runs. The iteration cap keeps a genuinely wedged resharder
        // from hanging the test (the final assert then reports it).
        let mut iters = 0u64;
        loop {
            iters += 1;
            let got = snap.scan(ProcessId(1), &[0, 6, 3]);
            assert_eq!(got[0], got[1], "torn batch across a reshard: {got:?}");
            assert!(got[0] >= last_batch, "batch went backwards: {got:?}");
            assert!(
                got[2] >= last_counter,
                "counter went backwards across a reshard: {} < {last_counter}",
                got[2]
            );
            last_batch = got[0];
            last_counter = got[2];
            if (iters >= 4000 && splits_seen.load(Ordering::Relaxed) > 0) || iters >= 4_000_000 {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        batcher.join().unwrap();
        counter.join().unwrap();
        let splits = resharder.join().unwrap();
        assert!(splits > 0, "the reshard storm never actually resharded");
        assert!(snap.reshards() >= splits as u64);
    }

    #[test]
    fn acknowledged_updates_survive_a_reshard_storm_under_chaos() {
        // The window of PR 8's lost update is between a writer's load of
        // the generation, its gate raise and the recheck; chaos perturbs at
        // base-object steps, and the writer entry records its three, so an
        // aggressive schedule parks this writer inside that window while
        // the storm keeps rebuilding the very shard it writes to. Single
        // writer, increasing values: once `update` returns, a scan must
        // return exactly that value.
        use psnap_shmem::chaos::{self, ChaosConfig};
        const COMPONENT: usize = 3;
        let snap = Arc::new(mv_sharded(8, 2, 2));
        let stop = Arc::new(AtomicBool::new(false));
        let resharder = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let home = snap.shard_of(COMPONENT);
                    if snap.reshard(ReshardOp::Split { shard: home }) {
                        let newest = snap.shards() - 1;
                        let into = snap.shard_of(COMPONENT);
                        let from = if into == newest { home } else { newest };
                        assert!(snap.reshard(ReshardOp::Merge { from, into }));
                    }
                    thread::yield_now();
                }
            })
        };
        let _chaos = chaos::enable(0x5EED_0008, ChaosConfig::aggressive());
        let mut v = 0u64;
        // At least 2000 writes, and keep going until the storm has really
        // been resharding underneath them (capped, so a wedged resharder
        // fails the final assert instead of hanging the test).
        while v < 2000 || (snap.reshards() < 100 && v < 200_000) {
            v += 1;
            snap.update(ProcessId(0), COMPONENT, v);
            let got = snap.scan(ProcessId(0), &[COMPONENT])[0];
            assert_eq!(
                got,
                v,
                "acknowledged update {v} lost across a reshard (generation {})",
                snap.generation()
            );
        }
        stop.store(true, Ordering::Relaxed);
        resharder.join().unwrap();
        assert!(snap.reshards() >= 100, "the storm never got going");
    }
}
