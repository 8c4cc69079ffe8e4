//! [`MvSnapshot`]: a wait-free partial snapshot object over multiversioned
//! registers (the Wei et al. *constant-time snapshot* technique applied to
//! the paper's partial interface).
//!
//! Every other implementation in this crate makes a multi-register scan
//! consistent by *re-reading* (double collects, validated windows) or
//! by *waiting* (the batch gate, the lock). `MvSnapshot` instead lets every
//! register keep a short chain of timestamped versions
//! ([`psnap_shmem::MvRegister`]) and gives scans a one-shot protocol:
//!
//! ```text
//! scan(i1, …, ir)                     update(i, v)                update_many(batch)
//!   announce[id] ← camera.timestamp     write R[i] ← v:             lock batches
//!   s ← camera.tick                       install (v, own slot)     stamp ← pending
//!   for j: vj ← copy of the version       finalize own slot         install every (i, v, stamp)
//!          of R[ij] with the largest    b ← prune bound             finalize stamp     ← the commit
//!          timestamp ≤ s                prune R[i] below b          b ← prune bound
//!   announce[id] ← 0                                                prune every R[i] below b
//!   return (v1, …, vr)                                              unlock
//! ```
//!
//! The returned cut is the state of the object at the instant the camera
//! moved past `s` — possibly *older* than the scan's return point, but
//! consistent, and reached in a **bounded number of the scan's own steps**:
//! no validation loop, no retry, no coordination latch. A writer suspended
//! mid-update — even mid-batch, even forever — leaves only pending versions,
//! which scans resolve in O(1) each: a pending single write is
//! help-finalized on the spot, a pending batch is stepped over after its
//! floor is raised (the protocols of [`psnap_shmem::mv`], which guarantee
//! the decision agrees with the version's eventual timestamp). This is
//! precisely the schedule under which the batch gate's validation loop
//! stalls, and the wait-freedom harness in `tests/wait_freedom.rs` drives
//! it directly.
//!
//! # Linearization
//!
//! A scan linearizes at its `camera.tick()`. An update or batch linearizes
//! when its stamp is finalized (for a dropped single update — one that lost
//! its install race — immediately before the winner, as in Section 4.2 of
//! the paper): writes are ordered by **timestamp**, and a scan selects, per
//! register, the version with the largest timestamp at or below its own —
//! so a version finalized late still wins exactly the scans its timestamp
//! entitles it to, even when chain-newer versions with smaller timestamps
//! sit above it (the interleaving that makes first-from-head selection tear
//! a batch; see `tests/batched_updates.rs`). Writes with equal timestamps
//! on one register are ordered by chain position (newest wins every tie and
//! the older linearizes immediately before it). Real-time order is
//! respected because the camera is monotone: an operation that completes
//! before another begins always carries the smaller-or-equal timestamp, on
//! the right side of every later scan's `≤ s` test.
//!
//! A batch installs all its versions with **one shared stamp** and commits
//! by publishing **one timestamp** — the single `finalize`. A scan whose
//! timestamp the finalize beat sees every version of the batch (they were
//! all installed before the finalize read the camera, which returned a value
//! `≤ s` only if it ran before the scan's tick); a scan that caught any
//! register mid-batch raised the stamp's floor above its own timestamp, so
//! the whole batch — every register, installed or not — is consistently
//! excluded. All-or-nothing with no write gate and no blocked scan;
//! concurrent batches are serialized against each other by a mutex (shared
//! across a sharded family) exactly as the other implementations serialize
//! theirs, which scans never touch.
//!
//! # Pruning and announcements
//!
//! The announcement slots belong to the object's [`MvFamily`], beside the
//! camera and the batch serializer: one slot per process, shared by every
//! shard of every generation of a sharded store, so a scan announces once
//! however many shards it reads. Writers prune the registers they touch
//! below one **prune bound** ([`MvFamily::prune_bound`]): the oldest of the
//! live announcements and the camera's current value. After a prune a chain
//! holds at most one version per live scan, plus the camera's, plus pending
//! ones ([`MvRegister::prune`]). The announcement is written *before* the
//! scan draws its timestamp, and a pruner reads the camera *before* the
//! announcement slots — so a scan a pruner misses drew (or will draw) a
//! timestamp at least as large as the bound the pruner used, and the
//! version it needs is never detached. A batch reads the bound once for all
//! the registers it touched.
//!
//! The camera and the announcement slots share lines by who writes them.
//! The family's first 64-byte line holds the camera and the slots of pids
//! 0–6; pids 7 and up continue seven to a line on the lines that follow, in
//! the same allocation. Scans write these lines: the tick, and each scan's
//! announce and clear of its own slot (a reshard's cutover ticks too).
//! Writers only read them: a finalize reads the camera, a prune bound reads
//! the camera and every slot. So a scan's announce and tick hit one line
//! back to back, and a prune bound at n ≤ 7 reads one line. The batch
//! serializer (taken only by batches and reshards) and the slot count sit
//! apart, in the family's own allocation. Each register is a line of its
//! own (see [`psnap_shmem::mv`]'s "Version layout").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use psnap_shmem::epoch::Guard;
use psnap_shmem::steps::{self, OpKind};
use psnap_shmem::{MvRegister, MvStamp, ProcessId, TimestampCamera};

use crate::batch::dedupe_last_write_wins;
use crate::traits::{validate_args, validate_batch_args, PartialSnapshot};

/// Announcement slots on one [`FamilyLine`]: the line's eight words less
/// the camera word.
const SLOTS_PER_LINE: usize = 7;

/// One cache line of a family's shared words. The family's first line holds
/// the camera and the announcement slots of pids 0–6; every later line holds
/// the slots of the next seven pids and leaves its camera word unused.
#[repr(C, align(64))]
struct FamilyLine {
    camera: TimestampCamera,
    slots: [AtomicU64; SLOTS_PER_LINE],
}

impl FamilyLine {
    fn new() -> Self {
        FamilyLine {
            camera: TimestampCamera::new(),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// What a family of multiversioned objects shares — one object alone, or
/// every shard of every generation of a sharded store: the timestamp camera
/// that orders writes across all of them, the per-process scan
/// announcements pruners respect, and the serializer that makes
/// overlapping batches install in one consistent per-register order.
pub struct MvFamily {
    /// The camera and the announced scan timestamps (0 = no scan in
    /// progress), in one allocation; see [`FamilyLine`].
    lines: Box<[FamilyLine]>,
    processes: usize,
    batches: Mutex<()>,
}

impl MvFamily {
    /// A family for processes `0..max_processes`, camera at 1.
    pub fn new(max_processes: usize) -> Self {
        assert!(max_processes > 0, "at least one process must be allowed");
        MvFamily {
            lines: (0..max_processes.div_ceil(SLOTS_PER_LINE))
                .map(|_| FamilyLine::new())
                .collect(),
            processes: max_processes,
            batches: Mutex::new(()),
        }
    }

    /// Processes the family admits.
    pub fn max_processes(&self) -> usize {
        self.processes
    }

    /// The shared timestamp camera.
    pub fn camera(&self) -> &TimestampCamera {
        &self.lines[0].camera
    }

    /// `pid`'s announcement slot.
    fn slot(&self, pid: ProcessId) -> &AtomicU64 {
        let p = pid.index();
        &self.lines[p / SLOTS_PER_LINE].slots[p % SLOTS_PER_LINE]
    }

    /// The batch serializer. Scans and single updates never touch it; a
    /// reshard holds it across its whole migration.
    pub fn batches(&self) -> &Mutex<()> {
        &self.batches
    }

    /// Announces an upcoming scan by process `pid`: one camera read plus one
    /// write into the announcement slot. Must happen **before** the scan's
    /// timestamp is drawn — the announced value is a lower bound on it, and
    /// the ordering is what keeps pruners, on every member of the family,
    /// from detaching the scan's versions. Returns the announced timestamp
    /// (a lower bound on the `s` the tick will draw).
    pub fn announce_scan(&self, pid: ProcessId) -> u64 {
        let a = self.camera().timestamp();
        steps::record(OpKind::Write);
        self.slot(pid).store(a, Ordering::SeqCst);
        a
    }

    /// Clears `pid`'s scan announcement (one write).
    pub fn clear_announcement(&self, pid: ProcessId) {
        steps::record(OpKind::Write);
        self.slot(pid).store(0, Ordering::SeqCst);
    }

    /// The bound a pruner must respect: the oldest of the camera's current
    /// value (covering every future scan — their timestamps can only be
    /// larger) and every live announcement. The camera is read **first**:
    /// an announcement the sweep then misses belongs to a scan whose
    /// timestamp is at least the camera value already recorded. One camera
    /// read plus one read per process.
    pub fn prune_bound(&self) -> u64 {
        let mut bound = self.camera().timestamp();
        let slots = self.lines.iter().flat_map(|line| &line.slots);
        for slot in slots.take(self.processes) {
            steps::record(OpKind::Read);
            let a = slot.load(Ordering::SeqCst);
            if a != 0 {
                bound = bound.min(a);
            }
        }
        bound
    }
}

/// The multiversioned partial snapshot object. See the module docs.
pub struct MvSnapshot<T> {
    /// `R[1..m]` — one multiversioned register per component.
    registers: Vec<MvRegister<T>>,
    /// Camera, announcements and batch serializer, shared with every other
    /// member of the family.
    family: Arc<MvFamily>,
}

impl<T: Clone + Send + Sync + 'static> MvSnapshot<T> {
    /// Creates an object with `m` components, all holding `initial`, usable
    /// by processes `0..max_processes`, in a family of its own.
    pub fn new(m: usize, max_processes: usize, initial: T) -> Self {
        Self::in_family(m, initial, Arc::new(MvFamily::new(max_processes)))
    }

    /// Creates an object in `family` — the constructor sharded compositions
    /// use, so that one timestamp orders writes across every shard, one
    /// announcement covers a scan on all of them, and overlapping batches
    /// anywhere in the family install in one consistent order.
    pub fn in_family(m: usize, initial: T, family: Arc<MvFamily>) -> Self {
        assert!(m > 0, "a snapshot object needs at least one component");
        MvSnapshot {
            registers: (0..m).map(|_| MvRegister::new(initial.clone())).collect(),
            family,
        }
    }

    /// The shared timestamp camera.
    pub fn camera(&self) -> &TimestampCamera {
        self.family.camera()
    }

    /// The family this object belongs to.
    pub fn family(&self) -> &Arc<MvFamily> {
        &self.family
    }

    /// Reads the requested components at announced timestamp `s`.
    /// [`MvFamily::announce_scan`] must have been called (and not yet
    /// cleared) by this process with the camera at or below `s` — the
    /// trait's [`scan`](PartialSnapshot::scan) follows that protocol.
    pub fn scan_at(&self, pid: ProcessId, components: &[usize], s: u64) -> Vec<T> {
        validate_args(self.registers.len(), self.max_processes(), pid, components);
        debug_assert!(
            self.family.slot(pid).load(Ordering::SeqCst) != 0,
            "scan_at without a live announcement"
        );
        // One epoch pin for the whole sweep.
        let pin = psnap_shmem::epoch::pin();
        components
            .iter()
            .map(|&c| self.read_slot(c, s, &pin))
            .collect()
    }

    /// A copy of one slot's value at announced timestamp `s`, cloned under
    /// the caller's epoch pin — a scan's per-component read. The caller
    /// must hold a live announcement in this object's family (the same
    /// protocol as [`scan_at`](Self::scan_at)) so pruners keep the version.
    #[inline]
    pub fn read_slot(&self, slot: usize, s: u64, pin: &Guard) -> T {
        self.registers[slot]
            .read_pinned(s, self.family.camera(), pin)
            .clone()
    }

    /// The finalized version history of `slot`, oldest-first — what a
    /// reshard migration copies out of a source shard once it is frozen
    /// (writers drained, batches excluded by the serializer). See
    /// [`psnap_shmem::MvRegister::finalized_versions`].
    pub fn slot_versions(&self, slot: usize) -> Vec<(u64, T)> {
        self.registers[slot].finalized_versions()
    }

    /// Installs a version whose timestamp is **already published** into
    /// `slot` — the install half of a reshard migration copy. The frozen
    /// timestamp keeps the copied version winning exactly the scans its
    /// original did: it never shadows a post-cutover write (those carry
    /// strictly larger timestamps, see
    /// [`psnap_shmem::TimestampCamera::cutover`]) and never advances a
    /// pre-cutover value past the scans that already excluded it.
    pub fn install_frozen(&self, slot: usize, t: u64, value: T) {
        self.registers[slot].install_value(value, MvStamp::finalized(t));
        psnap_shmem::metrics::mv_migrated_versions().inc();
    }

    /// Prunes `slot`'s chain below `bound`, a value of
    /// [`MvFamily::prune_bound`] read after the write it follows. Writers
    /// call this on the registers they touched; a batch reads the bound
    /// once for all of them.
    #[inline]
    pub fn prune_slot(&self, slot: usize, bound: u64) {
        self.registers[slot].prune(&[bound]);
    }

    /// Installs `writes` as **pending** versions sharing `stamp`, without
    /// finalizing: the building block of batched updates and of the
    /// wait-freedom harness's deterministic parked-writer seam. The batch
    /// is invisible to every scan until the stamp is finalized; the caller
    /// must hold the batch serializer if `writes` is part of a larger batch
    /// and must eventually finalize the stamp (see
    /// [`begin_parked_update_many`](Self::begin_parked_update_many) for the
    /// packaged version).
    pub fn install_pending(&self, pid: ProcessId, writes: &[(usize, T)], stamp: &MvStamp) {
        validate_batch_args(self.registers.len(), self.max_processes(), pid, writes);
        for (component, value) in writes {
            self.registers[*component].install_value(value.clone(), stamp.clone());
        }
    }

    /// Starts an `update_many` and **parks it mid-batch**: every version is
    /// installed but the commit timestamp is not yet published, exactly the
    /// state a writer suspended between its last install and its finalize
    /// leaves behind. Scans must (and do) complete in their usual step
    /// budget while the batch is parked, returning pre-batch values; the
    /// wait-freedom harness asserts precisely that. The batch serializer is
    /// held until commit — other batchers queue behind a parked batch, but
    /// scans and single updates never do.
    ///
    /// Dropping the guard without [`commit`](ParkedUpdate::commit) commits
    /// anyway, so a panicking test cannot leave the object with an
    /// unpublishable batch.
    pub fn begin_parked_update_many(
        &self,
        pid: ProcessId,
        writes: &[(usize, T)],
    ) -> ParkedUpdate<'_, T> {
        validate_batch_args(self.registers.len(), self.max_processes(), pid, writes);
        let guard = self
            .family
            .batches
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let batch = dedupe_last_write_wins(writes);
        let stamp = MvStamp::pending_batch();
        let components: Vec<usize> = batch.iter().map(|(c, _)| *c).collect();
        for (component, value) in &batch {
            self.registers[*component].install_value((*value).clone(), stamp.clone());
        }
        ParkedUpdate {
            snapshot: self,
            stamp,
            components,
            _serial: guard,
        }
    }

    /// Worst-case base-object steps of one [`scan`](PartialSnapshot::scan)
    /// of `r` components when no register's chain exceeds `max_chain`
    /// versions and at most `scanners` scans run concurrently — the
    /// explicit budget the wait-freedom harness holds the implementation
    /// to. Fixed cost: announce (camera read + slot write), tick, clear.
    /// Per component: one head read, then per version visited one stamp
    /// read, one hop read, and at most `scanners + 1` floor
    /// compare&swap-with-reread rounds (floors strictly increase, at most
    /// once per concurrent scan). A sharded store's scan costs the same:
    /// it announces once for the whole family.
    pub fn scan_step_budget(r: usize, max_chain: usize, scanners: usize) -> u64 {
        let per_version = 2 + 2 * (scanners as u64 + 1);
        4 + (r as u64) * (1 + max_chain as u64 * per_version)
    }
}

/// An `update_many` parked mid-batch by
/// [`MvSnapshot::begin_parked_update_many`]: installed but uncommitted.
/// The wait-freedom harness's deterministic seam.
#[must_use = "a parked batch holds the batch serializer until committed or dropped"]
pub struct ParkedUpdate<'a, T: Clone + Send + Sync + 'static> {
    snapshot: &'a MvSnapshot<T>,
    stamp: MvStamp,
    components: Vec<usize>,
    _serial: MutexGuard<'a, ()>,
}

impl<T: Clone + Send + Sync + 'static> ParkedUpdate<'_, T> {
    /// Publishes the batch's timestamp — the single commit point — and
    /// prunes the touched chains.
    pub fn commit(self) {
        // Drop runs the commit; consuming `self` here just makes the call
        // site read naturally and releases the serializer promptly.
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for ParkedUpdate<'_, T> {
    fn drop(&mut self) {
        let snapshot = self.snapshot;
        self.stamp.finalize(snapshot.camera());
        let bound = snapshot.family.prune_bound();
        for &c in &self.components {
            snapshot.prune_slot(c, bound);
        }
    }
}

impl<T: Clone + Send + Sync + 'static> PartialSnapshot<T> for MvSnapshot<T> {
    fn components(&self) -> usize {
        self.registers.len()
    }

    fn max_processes(&self) -> usize {
        self.family.max_processes()
    }

    fn update(&self, pid: ProcessId, component: usize, value: T) {
        validate_args(
            self.registers.len(),
            self.max_processes(),
            pid,
            &[component],
        );
        // The single write: one block, stamped in its own slot, which scans
        // that meet it pending help-finalize — so its finalize takes at most
        // two rounds. A write dropped against a published winner has no
        // version to prune.
        if self.registers[component].write(value, self.family.camera()) {
            self.prune_slot(component, self.family.prune_bound());
        }
    }

    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        validate_batch_args(self.registers.len(), self.max_processes(), pid, writes);
        let batch = dedupe_last_write_wins(writes);
        match batch.len() {
            0 => return,
            1 => return self.update(pid, batch[0].0, batch[0].1.clone()),
            _ => {}
        }
        // Serialize whole batches (overlapping concurrent batches must
        // install in one consistent per-register order); scans never wait
        // on this lock — process-local coordination, not a base object.
        let serial = self
            .family
            .batches
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let stamp = MvStamp::pending_batch();
        for (component, value) in &batch {
            self.registers[*component].install_value((*value).clone(), stamp.clone());
        }
        // The commit: one published timestamp covers every version above.
        stamp.finalize(self.camera());
        let bound = self.family.prune_bound();
        for (component, _) in &batch {
            self.prune_slot(*component, bound);
        }
        drop(serial);
    }

    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        validate_args(self.registers.len(), self.max_processes(), pid, components);
        if components.is_empty() {
            return Vec::new();
        }
        // Announce, tick, read exactly the requested chains, clear. The tick
        // closes the timestamp: between ticks every finalized write shares
        // the camera's current value, so reading at the announced value
        // without ticking could include one same-timestamp write and miss
        // another that was acknowledged first.
        let _ = self.family.announce_scan(pid);
        let s = self.camera().tick();
        let values = self.scan_at(pid, components, s);
        self.family.clear_announcement(pid);
        values
    }

    fn is_wait_free(&self) -> bool {
        // Scans take a fixed number of steps per version visited, with no
        // retry loop; chains below a captured head are immutable, so the
        // step count is bounded at the scan's first read. Single updates
        // are one install attempt plus a finalize of at most two rounds
        // (scans help-finalize pending single stamps, so the writer's
        // compare&swap fails at most once — to a helper that already
        // completed its work). (Batches serialize against each other, like
        // every other implementation's `update_many` — the trait documents
        // that wait-freedom describes the single-update/scan interface.)
        true
    }

    fn name(&self) -> &'static str {
        "mv-partial-snapshot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_shmem::StepScope;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn sequential_update_and_scan() {
        let snap = MvSnapshot::new(8, 2, 0u64);
        assert_eq!(snap.components(), 8);
        assert_eq!(snap.max_processes(), 2);
        snap.update(ProcessId(0), 3, 30);
        snap.update(ProcessId(0), 5, 50);
        assert_eq!(snap.scan(ProcessId(1), &[3, 5, 0]), vec![30, 50, 0]);
        snap.update(ProcessId(1), 3, 31);
        assert_eq!(snap.scan(ProcessId(0), &[3]), vec![31]);
    }

    #[test]
    fn scan_handles_duplicates_and_arbitrary_order() {
        let snap = MvSnapshot::new(4, 1, 0i32);
        snap.update(ProcessId(0), 2, 7);
        assert_eq!(snap.scan(ProcessId(0), &[2, 0, 2, 2]), vec![7, 0, 7, 7]);
        assert!(snap.scan(ProcessId(0), &[]).is_empty());
    }

    #[test]
    fn batches_resolve_last_write_wins() {
        let snap = MvSnapshot::new(8, 2, 0u64);
        snap.update_many(ProcessId(0), &[(2, 5), (4, 1), (2, 9), (4, 2), (2, 7)]);
        assert_eq!(snap.scan(ProcessId(1), &[2, 4]), vec![7, 2]);
        snap.update_many(ProcessId(0), &[]);
        snap.update_many(ProcessId(0), &[(5, 55)]);
        assert_eq!(snap.scan(ProcessId(1), &[2, 4, 5]), vec![7, 2, 55]);
    }

    #[test]
    #[should_panic(expected = "component")]
    fn out_of_range_component_is_rejected() {
        let snap = MvSnapshot::new(2, 1, 0u8);
        snap.update(ProcessId(0), 2, 1);
    }

    #[test]
    #[should_panic(expected = "process id")]
    fn out_of_range_pid_is_rejected() {
        let snap = MvSnapshot::new(2, 1, 0u8);
        let _ = snap.scan(ProcessId(1), &[0]);
    }

    #[test]
    fn quiescent_scan_meets_the_declared_step_budget() {
        for m in [16usize, 256, 4096] {
            let snap = MvSnapshot::new(m, 2, 0u64);
            let comps: Vec<usize> = (0..8).map(|k| k * (m / 8)).collect();
            // One warm-up update per scanned register so the chains are
            // pruned to a single version, then measure.
            for &c in &comps {
                snap.update(ProcessId(0), c, 1);
            }
            let scope = StepScope::start();
            let _ = snap.scan(ProcessId(1), &comps);
            let steps = scope.finish().total();
            let budget = MvSnapshot::<u64>::scan_step_budget(8, 2, 1);
            assert!(
                steps <= budget,
                "quiescent scan of 8 of {m} components took {steps} steps, budget {budget}"
            );
        }
    }

    #[test]
    fn scans_complete_in_budget_while_a_batch_is_parked() {
        // The deterministic seam: a batch installed but not committed. A
        // scan must finish within its budget and see the pre-batch state;
        // after the commit, the whole batch appears at once.
        let snap = MvSnapshot::new(8, 3, 0u64);
        snap.update_many(ProcessId(0), &[(0, 1), (7, 1)]);
        let parked = snap.begin_parked_update_many(ProcessId(0), &[(0, 2), (7, 2)]);
        // Chains now hold the pending batch version plus the committed one
        // (plus at most one older kept version).
        let budget = MvSnapshot::<u64>::scan_step_budget(2, 3, 1);
        for _ in 0..10 {
            let scope = StepScope::start();
            let got = snap.scan(ProcessId(1), &[0, 7]);
            let steps = scope.finish().total();
            assert_eq!(got, vec![1, 1], "parked batch must be invisible");
            assert!(
                steps <= budget,
                "scan took {steps} steps against a parked batch, budget {budget}"
            );
        }
        parked.commit();
        assert_eq!(snap.scan(ProcessId(1), &[0, 7]), vec![2, 2]);
    }

    #[test]
    fn update_cost_is_constant_plus_announcement_sweep() {
        let snap = MvSnapshot::new(1024, 4, 0u64);
        snap.update(ProcessId(0), 512, 1);
        let scope = StepScope::start();
        snap.update(ProcessId(0), 512, 2);
        let steps = scope.finish().total();
        // install (1 CAS) + finalize (slot read + camera read + CAS) +
        // prune bounds (camera read + n announcement reads) + prune
        // (try-lock CAS + short walk).
        assert!(
            steps <= 12 + snap.max_processes() as u64,
            "quiescent update took {steps} steps"
        );
    }

    #[test]
    fn concurrent_batches_are_atomic_against_scans() {
        let snap = Arc::new(MvSnapshot::new(16, 2, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update_many(ProcessId(0), &[(0, v), (5, v), (10, v), (15, v)]);
                    v += 1;
                }
            })
        };
        let mut last = 0u64;
        for _ in 0..2000 {
            let got = snap.scan(ProcessId(1), &[0, 5, 10, 15]);
            assert!(got.windows(2).all(|w| w[0] == w[1]), "torn batch: {got:?}");
            assert!(got[0] >= last);
            last = got[0];
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }

    #[test]
    fn concurrent_scans_return_monotone_component_values() {
        let snap = Arc::new(MvSnapshot::new(16, 5, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    for c in 0..16 {
                        snap.update(ProcessId(0), c, v);
                    }
                    v += 1;
                }
            })
        };
        let scanners: Vec<_> = (1..5usize)
            .map(|pid| {
                let snap = Arc::clone(&snap);
                thread::spawn(move || {
                    let comps = [pid, pid + 4, pid + 8];
                    let mut last = vec![0u64; comps.len()];
                    for _ in 0..2000 {
                        let got = snap.scan(ProcessId(pid), &comps);
                        for (g, l) in got.iter().zip(last.iter_mut()) {
                            assert!(*g >= *l, "component value went backwards: {g} < {l}");
                            *l = *g;
                        }
                    }
                })
            })
            .collect();
        for s in scanners {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }

    #[test]
    fn chains_stay_short_under_churn_without_scans() {
        let snap = MvSnapshot::new(4, 2, 0u64);
        for i in 0..200u64 {
            snap.update(ProcessId(0), (i % 4) as usize, i);
        }
        // No announcements live: each chain is pruned to its newest version
        // on every write.
        for c in 0..4 {
            assert!(
                snap.registers[c].chain_len() <= 2,
                "chain of component {c} grew to {}",
                snap.registers[c].chain_len()
            );
        }
    }

    #[test]
    fn the_camera_and_the_first_seven_announcements_share_one_line() {
        for n in [2usize, 9] {
            let family = MvFamily::new(n);
            let line = |addr: usize| addr / 64;
            let camera = family.camera() as *const TimestampCamera as usize;
            assert_eq!(camera % 64, 0, "n = {n}: the camera starts a line");
            for pid in 0..n {
                let slot = family.slot(ProcessId(pid)) as *const AtomicU64 as usize;
                assert_eq!(
                    line(slot),
                    line(camera) + pid / 7,
                    "n = {n}: pid {pid}'s slot is on the wrong line"
                );
            }
        }
    }

    #[test]
    fn announcements_past_the_first_line_hold_back_pruning() {
        // At n = 9, pid 8's slot sits on the family's second line: a prune
        // bound that missed it would unlink the version the scan selects,
        // and the read would panic.
        let snap = Arc::new(MvSnapshot::new(4, 9, 0u64));
        let scanner = ProcessId(8);
        for round in 1..=50u64 {
            snap.update(ProcessId(0), 0, 10 * round);
            let _ = snap.family().announce_scan(scanner);
            let s = snap.camera().tick();
            // The writer's updates, each pruning below the family's bound,
            // land between the scan's tick and its read.
            for k in 1..=3 {
                snap.update(ProcessId(0), 0, 10 * round + k);
            }
            assert_eq!(snap.scan_at(scanner, &[0], s), vec![10 * round]);
            snap.family().clear_announcement(scanner);
        }
        // Cleared: no announcement holds the prune bound back.
        assert_eq!(snap.family().prune_bound(), snap.camera().timestamp());
        snap.update(ProcessId(0), 0, 1);
        snap.update(ProcessId(0), 1, 1);

        // The same with a writer racing on another thread: it writes `v` to
        // component 0, then 1, so every cut reads (v, v) or (v + 1, v).
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut v = 2u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update(ProcessId(0), 0, v);
                    snap.update(ProcessId(0), 1, v);
                    v += 1;
                }
            })
        };
        let mut last = 0u64;
        for _ in 0..2000 {
            let got = snap.scan(scanner, &[0, 1]);
            assert!(
                got[0] == got[1] || got[0] == got[1] + 1,
                "torn cut: {got:?}"
            );
            assert!(got[1] >= last, "component 1 went backwards");
            last = got[1];
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }

    #[test]
    fn metadata_is_reported() {
        let snap = MvSnapshot::new(8, 3, 0u64);
        assert!(snap.is_wait_free());
        assert_eq!(snap.name(), "mv-partial-snapshot");
    }
}
