//! Multiversioned registers: the base objects behind wait-free cross-shard
//! scans (the Wei et al. *constant-time snapshot* direction named in
//! ROADMAP.md).
//!
//! A [`VersionedCell`](crate::VersionedCell) holds exactly one record: a
//! reader that races a writer sees either the old or the new record, and a
//! *multi-register* scan that wants a consistent cut must validate and retry
//! (double collects) or wait writers out (the batch gate, the lock). An [`MvRegister`] instead keeps a short
//! immutable **chain** of versions, each tagged with a value of a shared
//! [`TimestampCamera`], so a scan can *announce* a timestamp `s` and read,
//! in every register, the version with the largest timestamp `≤ s` — an
//! older but mutually consistent cut — in a bounded number of its own
//! steps, with no retry loop and no waiting on in-flight writers.
//!
//! # The timestamp protocol
//!
//! The camera is a single monotone counter. A scan draws its timestamp with
//! one `fetch&add` ([`TimestampCamera::tick`]); a write installs its version
//! with a **pending** stamp and *finalizes* it to the camera's current value
//! afterwards ([`MvStamp::finalize`]). Writes linearize in timestamp order
//! (ties broken by chain position, newest first), scans at their tick:
//! [`MvRegister::read_at`] returns the version with the **largest**
//! finalized timestamp `≤ s`, so a version that is finalized late — behind
//! chain-newer versions with smaller timestamps — still wins exactly the
//! scans its timestamp entitles it to. The subtlety is the race between a
//! finalizing writer and a scan deciding whether a pending version is
//! "before" or "after" it; pending stamps come in two flavours closing it
//! from both sides:
//!
//! * **Single writes** ([`MvStamp::pending_single`]) are **help-finalized**:
//!   a scan that meets one finalizes it right there with a fresh camera read
//!   (one compare&swap; the value is `> s` because the scan's own tick
//!   already advanced the camera) and then judges the finalized timestamp.
//!   The writer's own finalize needs at most two rounds — its
//!   compare&swap fails only if a helper already finalized — so single
//!   updates are wait-free, and no scan ever skips a version whose
//!   timestamp could still land at or below it.
//! * **Batch writes** ([`MvStamp::pending_batch`]) must **not** be helped:
//!   their shared stamp may be finalized only after *every* version of the
//!   batch is installed, and only the batch writer knows when that is. A
//!   scan that meets one instead raises the slot's **floor** to its own
//!   timestamp (one compare&swap) and treats the version as not yet
//!   written; [`MvStamp::finalize`] re-reads the camera after observing any
//!   floor, so the published timestamp provably lands above every scan that
//!   stepped over the pending batch. Skips and timestamps always agree, and
//!   nobody waits: a batcher suspended mid-commit (even forever) leaves
//!   pending versions every scan steps over in O(1).
//!
//! Because a batch's versions share **one** stamp slot and the writer
//! finalizes only after every install, the whole batch commits at a single
//! point — the finalize — and the floor argument makes any scan that read
//! one register of the batch too early exclude the batch *everywhere*.
//! All-or-nothing without a write gate and without blocking scans.
//!
//! # Pruning
//!
//! Chains are kept short by [`MvRegister::prune`]: given the timestamp
//! *bounds* still in use (the announced timestamps of live scans, plus the
//! camera's current value for future scans), every finalized version that
//! no live or future scan can select — it is not the winner at the oldest
//! bound, and not above it, or it loses a timestamp tie to a chain-newer
//! version — is unlinked and handed to the epoch reclamation of
//! [`crate::epoch`]. Readers traversing a chain hold an epoch pin, so a
//! pruned version is freed only once no traversal can still reach it.
//! Pending versions are always kept (their timestamp is not yet decided).
//! After a prune the chain length is bounded by the number of live bounds
//! plus the pending versions (see the `mv_pruning` proptest suite).

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::epoch;
use crate::steps::{self, OpKind};

/// The shared timestamp source ("camera") of a multiversioned snapshot
/// object — or of a whole family of them: sharded compositions hand one
/// camera to every shard so that cross-shard cuts are consistent.
///
/// Timestamps start at 1; 0 is reserved as the stamp of initial versions
/// (and as the "no announcement" sentinel of higher layers).
#[derive(Debug)]
pub struct TimestampCamera {
    clock: AtomicU64,
}

impl Default for TimestampCamera {
    fn default() -> Self {
        TimestampCamera::new()
    }
}

impl TimestampCamera {
    /// A fresh camera at timestamp 1.
    pub fn new() -> Self {
        TimestampCamera {
            clock: AtomicU64::new(1),
        }
    }

    /// The current timestamp (one read step).
    pub fn timestamp(&self) -> u64 {
        steps::record(OpKind::Read);
        self.clock.load(Ordering::SeqCst)
    }

    /// Draws a scan timestamp and advances the camera (one fetch&increment
    /// step). Returns the pre-increment value `s`: every version finalized
    /// before this call has timestamp `≤ s`, every version finalized by a
    /// writer (or helper) that observes this tick gets a timestamp `> s`.
    pub fn tick(&self) -> u64 {
        steps::record(OpKind::FetchInc);
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Publishes a **cutover boundary**: one tick, returning the smallest
    /// timestamp any *subsequent* finalize can receive. This is the single
    /// shared timestamp a reshard migration hides behind — every version
    /// finalized before the call sits strictly below the returned value,
    /// every finalize that starts after it lands at or above, so copying
    /// pre-cutover versions (with their original timestamps frozen via
    /// [`MvStamp::finalized`]) into new registers can never collide with a
    /// post-cutover write's timestamp. One fetch&increment step, counted in
    /// `shmem.mv.cutovers`.
    pub fn cutover(&self) -> u64 {
        crate::metrics::mv_cutovers().inc();
        self.tick() + 1
    }
}

/// Stamp-slot encoding. Bit 0 distinguishes a finalized timestamp from a
/// pending state; while pending, bit 1 distinguishes a help-finalizable
/// single write from a floor-carrying batch write (bits 2.. hold the
/// timestamp or the floor).
const FINAL_BIT: u64 = 0b01;
const SINGLE_BIT: u64 = 0b10;

const fn encode_final(t: u64) -> u64 {
    (t << 2) | FINAL_BIT
}

const fn encode_floor(s: u64) -> u64 {
    s << 2
}

/// The shared timestamp slot of one write or one batch of writes. Cloning an
/// `MvStamp` shares the slot: every version of a batch holds a clone, so the
/// single [`finalize`](MvStamp::finalize) commits them all at once.
#[derive(Clone, Debug)]
pub struct MvStamp {
    slot: Arc<AtomicU64>,
}

impl MvStamp {
    /// A pending stamp for a **single** write. Scans that encounter it
    /// help-finalize it with a fresh camera read, so the writer's own
    /// [`finalize`](Self::finalize) takes at most two rounds — single
    /// updates stay wait-free.
    pub fn pending_single() -> Self {
        MvStamp {
            slot: Arc::new(AtomicU64::new(SINGLE_BIT)),
        }
    }

    /// A pending stamp for a **batch** (floor 0). Scans never finalize it —
    /// only the batch writer may, after every version of the batch is
    /// installed — they raise its floor instead, forcing the eventual
    /// timestamp above themselves. Versions carrying it are invisible until
    /// [`finalize`](Self::finalize).
    pub fn pending_batch() -> Self {
        MvStamp {
            slot: Arc::new(AtomicU64::new(encode_floor(0))),
        }
    }

    /// A stamp already finalized at `t` (used for initial versions, which
    /// carry timestamp 0 and are visible to every scan).
    pub fn finalized(t: u64) -> Self {
        MvStamp {
            slot: Arc::new(AtomicU64::new(encode_final(t))),
        }
    }

    /// The finalized timestamp, if any (diagnostics; no step recorded).
    pub fn peek(&self) -> Option<u64> {
        let v = self.slot.load(Ordering::SeqCst);
        (v & FINAL_BIT != 0).then_some(v >> 2)
    }

    /// Finalizes the stamp to the camera's current value, re-reading the
    /// camera after every observed slot movement so the published timestamp
    /// is never stale (see the module docs). Returns the timestamp the
    /// stamp ended up with. Idempotent: a later call returns the winner's
    /// value.
    ///
    /// For a single-write stamp this takes at most two rounds (the only
    /// competing transition is a helper's finalize). For a batch stamp the
    /// loop is bounded by the concurrent scans, each of which raises the
    /// floor at most once.
    pub fn finalize(&self, camera: &TimestampCamera) -> u64 {
        loop {
            steps::record(OpKind::Read);
            let cur = self.slot.load(Ordering::SeqCst);
            if cur & FINAL_BIT != 0 {
                return cur >> 2;
            }
            // Reading the camera *after* the slot observation is the crux:
            // a floor-raiser ticked the camera past its own timestamp
            // before raising the floor, so `t` strictly exceeds every
            // timestamp whose scan stepped over this pending version.
            let t = camera.timestamp();
            steps::record(OpKind::Cas);
            if self
                .slot
                .compare_exchange(cur, encode_final(t), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return t;
            }
        }
    }

    /// Resolves the stamp of an install-race **winner** so the loser can
    /// decide whether dropping its write is linearizable: returns the
    /// winner's now-published timestamp — finalizing a pending single write
    /// on the spot (one camera read + one compare&swap, like a scan's
    /// help) — or `None` if the winner is a batch still pending, whose
    /// timestamp only its own writer may publish. A loser that observes
    /// `Some(t)` may linearize immediately before the winner (the
    /// publication happened inside the loser's interval, so every scan that
    /// follows the loser's return sees the winner or something newer); on
    /// `None` it must retry its install instead.
    pub fn resolve_winner(&self, camera: &TimestampCamera) -> Option<u64> {
        loop {
            steps::record(OpKind::Read);
            let cur = self.slot.load(Ordering::SeqCst);
            if cur & FINAL_BIT != 0 {
                return Some(cur >> 2);
            }
            if cur & SINGLE_BIT == 0 {
                return None;
            }
            let t = camera.timestamp();
            steps::record(OpKind::Cas);
            if self
                .slot
                .compare_exchange(cur, encode_final(t), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                crate::metrics::mv_help_finalized().inc();
                psnap_obs::trace::emit(psnap_obs::TraceKind::HelpFinalize, t, 0);
                return Some(t);
            }
        }
    }

    /// Resolves this stamp against scan timestamp `s`: the finalized
    /// timestamp, or `None` if the version must be treated as not yet
    /// written by this scan. A pending single write is help-finalized with
    /// a fresh camera read (which lands above `s` — the scan already ticked
    /// the camera); a pending batch write gets its floor raised to `s`, so
    /// its later finalize is forced above `s`.
    ///
    /// Bounded: each retry means the slot moved — to final (at most once),
    /// or to a higher floor (at most once per concurrent scan, since floors
    /// strictly increase).
    fn read_for(&self, s: u64, camera: &TimestampCamera) -> Option<u64> {
        loop {
            steps::record(OpKind::Read);
            let cur = self.slot.load(Ordering::SeqCst);
            if cur & FINAL_BIT != 0 {
                let t = cur >> 2;
                return (t <= s).then_some(t);
            }
            if cur & SINGLE_BIT != 0 {
                // Help-finalize the single write; our camera read happens
                // after our tick, so the helped timestamp exceeds `s` and
                // the version is consistently "after us" — unless the
                // writer's own finalize won the race, in which case the
                // reload above judges its timestamp.
                let t = camera.timestamp();
                steps::record(OpKind::Cas);
                if self
                    .slot
                    .compare_exchange(cur, encode_final(t), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    debug_assert!(t > s);
                    crate::metrics::mv_help_finalized().inc();
                    psnap_obs::trace::emit(psnap_obs::TraceKind::HelpFinalize, t, 0);
                    return None;
                }
                continue;
            }
            if cur >> 2 >= s {
                // An equal or higher floor already protects this skip.
                return None;
            }
            steps::record(OpKind::Cas);
            if self
                .slot
                .compare_exchange(cur, encode_floor(s), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return None;
            }
        }
    }
}

/// One version in a register's chain. Immutable once published except for
/// `next`, which only the register's single pruner rewrites.
struct MvNode<T> {
    value: Arc<T>,
    stamp: MvStamp,
    /// The next-older version; null at the end of the chain.
    next: AtomicPtr<MvNode<T>>,
}

/// A multiversioned register: an atomic register whose overwritten values
/// remain readable at older timestamps until pruned.
///
/// * [`try_install`](MvRegister::try_install) /
///   [`install`](MvRegister::install) push a new version (one compare&swap
///   per attempt);
/// * [`read_at`](MvRegister::read_at) returns the version with the largest
///   finalized timestamp `≤ s` (ties go to the chain-newest version),
///   resolving pending versions on the way (bounded, no retries — the
///   chain below the captured head is immutable);
/// * [`prune`](MvRegister::prune) unlinks versions no live or future scan
///   can select, reclaiming them through [`crate::epoch`].
pub struct MvRegister<T> {
    head: AtomicPtr<MvNode<T>>,
    /// Single-pruner lock: pruning rewrites `next` pointers, and one pruner
    /// at a time keeps unlinking and retirement trivially exclusive. Taken
    /// opportunistically (one CAS attempt) — never waited on.
    pruner: AtomicBool,
}

// Safety: values are shared as `Arc<T>` across threads (`T: Send + Sync`)
// and node drops may run on any thread (`T: Send`); the chain itself is only
// mutated through atomics.
unsafe impl<T: Send + Sync> Send for MvRegister<T> {}
unsafe impl<T: Send + Sync> Sync for MvRegister<T> {}

impl<T: Send + Sync + 'static> MvRegister<T> {
    /// A register whose initial version carries timestamp 0 (visible to every
    /// scan).
    pub fn new(initial: T) -> Self {
        let node = Box::into_raw(Box::new(MvNode {
            value: Arc::new(initial),
            stamp: MvStamp::finalized(0),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }));
        crate::metrics::mv_installed().inc();
        crate::metrics::mv_live_versions().inc();
        MvRegister {
            head: AtomicPtr::new(node),
            pruner: AtomicBool::new(false),
        }
    }

    /// Attempts to push a new version (one compare&swap step). On a lost
    /// race returns the **winner's stamp**, because whether the loser may
    /// be dropped depends on it: linearizing a dropped write "immediately
    /// before the winner" (the Section 4.2 argument) is only sound once the
    /// winner's timestamp is published inside the loser's interval — see
    /// [`MvStamp`] and `MvSnapshot::update`. Use
    /// [`install`](Self::install) where the version *must* land (batch
    /// sub-writes).
    pub fn try_install(&self, value: Arc<T>, stamp: MvStamp) -> Result<(), MvStamp> {
        // The pin protects the winner dereference on the failure path; the
        // success path never dereferences a shared node.
        let _guard = epoch::pin();
        let cur = self.head.load(Ordering::Acquire);
        let node = Box::into_raw(Box::new(MvNode {
            value,
            stamp,
            next: AtomicPtr::new(cur),
        }));
        steps::record(OpKind::Cas);
        match self
            .head
            .compare_exchange(cur, node, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                crate::metrics::mv_installed().inc();
                crate::metrics::mv_live_versions().inc();
                Ok(())
            }
            Err(winner) => {
                // Never published: free directly.
                // Safety: `node` was allocated above and never shared;
                // `winner` is protected by the pin.
                drop(unsafe { Box::from_raw(node) });
                Err(unsafe { &*winner }.stamp.clone())
            }
        }
    }

    /// Pushes a new version, retrying lost races until it lands (one
    /// compare&swap step per attempt; lock-free — a failed attempt means a
    /// concurrent install succeeded). Batch sub-writes use this: a batch's
    /// version must enter the chain so the batch is all-or-nothing over its
    /// components.
    pub fn install(&self, value: Arc<T>, stamp: MvStamp) {
        // No pin needed — see `try_install`.
        let node = Box::into_raw(Box::new(MvNode {
            value,
            stamp,
            next: AtomicPtr::new(self.head.load(Ordering::Acquire)),
        }));
        loop {
            // Safety: `node` is still private to this thread until the CAS
            // below publishes it.
            let expected = unsafe { &*node }.next.load(Ordering::Relaxed);
            steps::record(OpKind::Cas);
            match self
                .head
                .compare_exchange(expected, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    crate::metrics::mv_installed().inc();
                    crate::metrics::mv_live_versions().inc();
                    return;
                }
                Err(winner) => unsafe { &*node }.next.store(winner, Ordering::Relaxed),
            }
        }
    }

    /// The version with the largest finalized timestamp `≤ s` (ties go to
    /// the chain-newest version — among equal timestamps only the newest is
    /// ever returned, which is what orders same-timestamp writes by install
    /// order). Pending versions met along the way are resolved per
    /// [`MvStamp`]'s protocol: singles help-finalized, batch floors raised.
    ///
    /// Bounded: the walk covers exactly the chain below the head captured
    /// by one read, and that chain is immutable (pruning only unlinks
    /// versions no announced timestamp can select, and an unlinked
    /// version's own `next` still leads back into the kept chain). Each
    /// version visited costs a stamp resolution plus one hop read.
    ///
    /// # Panics
    ///
    /// Panics if no version with timestamp `≤ s` exists — the announce
    /// protocol of the callers guarantees one (pruning never unlinks the
    /// winner at or below a live announcement).
    pub fn read_at(&self, s: u64, camera: &TimestampCamera) -> Arc<T> {
        self.read_at_stamped(s, camera).1
    }

    /// Like [`read_at`](Self::read_at), but also returns the winning
    /// version's finalized timestamp — what a reshard migration's
    /// merge-read needs to arbitrate between a component's old and new
    /// register (larger timestamp wins). Same step costs, same panic
    /// condition, same pending-version resolution.
    pub fn read_at_stamped(&self, s: u64, camera: &TimestampCamera) -> (u64, Arc<T>) {
        let _guard = epoch::pin();
        steps::record(OpKind::Read);
        let mut cur = self.head.load(Ordering::Acquire);
        let mut best: Option<(u64, Arc<T>)> = None;
        while !cur.is_null() {
            // Safety: protected by the epoch pin; the node was published to
            // the chain and not yet reclaimed.
            let node = unsafe { &*cur };
            if let Some(t) = node.stamp.read_for(s, camera) {
                // Strict `>`: on a timestamp tie the version seen first
                // (chain-newest) wins.
                if best.as_ref().is_none_or(|(bt, _)| t > *bt) {
                    best = Some((t, Arc::clone(&node.value)));
                }
            }
            steps::record(OpKind::Read);
            cur = node.next.load(Ordering::Acquire);
        }
        best.unwrap_or_else(|| {
            panic!(
                "MvRegister::read_at({s}): no version at or below the announced timestamp — \
                 the chain was pruned below a live announcement"
            )
        })
    }

    /// Every **finalized** version currently in the chain, oldest-first:
    /// `(timestamp, value)` pairs in the order a migration must re-install
    /// them into a fresh register so that chain-position tie-breaks are
    /// preserved (install pushes to the head, so installing oldest-first
    /// leaves the newest at the head, exactly as here). Pending versions are
    /// skipped — the caller (a reshard migration) runs after the source
    /// register is frozen, when none can exist. Diagnostics-priced: no steps
    /// recorded.
    pub fn finalized_versions(&self) -> Vec<(u64, Arc<T>)> {
        let _guard = epoch::pin();
        let mut out: Vec<(u64, Arc<T>)> = Vec::new();
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // Safety: protected by the epoch pin.
            let node = unsafe { &*cur };
            if let Some(t) = node.stamp.peek() {
                out.push((t, Arc::clone(&node.value)));
            }
            cur = node.next.load(Ordering::Acquire);
        }
        out.reverse();
        out
    }

    /// The newest version's value and finalized timestamp, if finalized
    /// (diagnostics and tests; no steps recorded).
    pub fn peek_newest(&self) -> (Arc<T>, Option<u64>) {
        let _guard = epoch::pin();
        // Safety: head is never null (chains always keep ≥ 1 version).
        let node = unsafe { &*self.head.load(Ordering::Acquire) };
        (Arc::clone(&node.value), node.stamp.peek())
    }

    /// Number of versions currently in the chain (diagnostics and the
    /// pruning proptests; no steps recorded).
    pub fn chain_len(&self) -> usize {
        let _guard = epoch::pin();
        let mut len = 0usize;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            len += 1;
            // Safety: protected by the epoch pin.
            cur = unsafe { &*cur }.next.load(Ordering::Acquire);
        }
        len
    }

    /// Unlinks every version no live or future scan can select, retiring it
    /// through the epoch module.
    ///
    /// `bounds` must be sorted **descending**, deduplicated and non-empty,
    /// and must contain a lower bound for every timestamp a scan may still
    /// announce plus the camera's current value (covering future scans —
    /// their timestamps can only be larger). Under timestamp-ordered
    /// selection a finalized version is selectable by some scan iff its
    /// timestamp is at least the winner's at the **oldest** bound (a scan's
    /// timestamp is at least its announcement, which is at least the oldest
    /// bound, and selection takes the largest timestamp `≤ s`) and it is
    /// the chain-newest version of its timestamp (older ties always lose).
    /// Everything else is unlinked in place; pending versions are always
    /// kept, and the head is kept unconditionally (writers race on it).
    ///
    /// Opportunistic: if another prune is in flight the call returns
    /// immediately (one compare&swap step) — chains are re-prunable on the
    /// next write, so nothing is lost by skipping. Unlinked versions stay
    /// intact (their own `next` is never rewritten) until no pinned
    /// traversal can reach them, so a reader that already stepped onto one
    /// simply walks through it back into the kept chain.
    pub fn prune(&self, bounds: &[u64]) {
        debug_assert!(!bounds.is_empty(), "prune needs at least the camera bound");
        debug_assert!(
            bounds.windows(2).all(|w| w[0] > w[1]),
            "bounds must be sorted descending and deduplicated"
        );
        steps::record(OpKind::Cas);
        if self
            .pruner
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let _guard = epoch::pin();
        // Pass 1: capture the chain (newest first) and each version's
        // finalized timestamp, if any. Safety for all dereferences below:
        // protected by the pin, and only this pruner (single-pruner lock)
        // unlinks or retires chain nodes.
        let mut chain: Vec<(*mut MvNode<T>, Option<u64>)> = Vec::new();
        steps::record(OpKind::Read);
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            steps::record(OpKind::Read);
            let node = unsafe { &*cur };
            chain.push((cur, node.stamp.peek()));
            cur = node.next.load(Ordering::Acquire);
        }
        // The winner's timestamp at the oldest bound: the largest finalized
        // timestamp ≤ it. Every selectable version has a timestamp at least
        // this (or is pending).
        let oldest = *bounds.last().expect("bounds are non-empty");
        let t_win = chain
            .iter()
            .filter_map(|(_, t)| *t)
            .filter(|t| *t <= oldest)
            .max();
        crate::metrics::mv_chain_len().record(chain.len() as u64);
        // Pass 2: unlink dead versions. `kept` tracks the last kept node,
        // whose `next` skips over everything unlinked since.
        let mut seen_ts: Vec<u64> = Vec::with_capacity(chain.len());
        let mut unlinked = 0u64;
        let mut kept = chain[0].0;
        if let Some(t) = chain[0].1 {
            seen_ts.push(t);
        }
        for &(ptr, stamp) in &chain[1..] {
            let dead = match stamp {
                None => false, // pending: timestamp undecided, always kept
                Some(t) => {
                    // Dead if below every selectable timestamp, or a
                    // chain-newer version with the same timestamp wins
                    // every tie.
                    t_win.is_some_and(|w| t < w) || seen_ts.contains(&t)
                }
            };
            if dead {
                let next = unsafe { &*ptr }.next.load(Ordering::Acquire);
                // An RMW, not a store: `epoch::retire` elides its fence on
                // x86 because the unlink is itself a full barrier. Only this
                // pruner rewrites interior links, so the swap returns `ptr`.
                // Uncounted, like the load above: the step rungs stay put.
                let was = unsafe { &*kept }.next.swap(next, Ordering::AcqRel);
                debug_assert_eq!(was, ptr, "interior link moved under the pruner");
                unlinked += 1;
                // Safety: unlinked above, never retired twice.
                unsafe { epoch::retire(ptr) };
            } else {
                if let Some(t) = stamp {
                    seen_ts.push(t);
                }
                kept = ptr;
            }
        }
        self.pruner.store(false, Ordering::Release);
        crate::metrics::mv_pruned_per_call().record(unlinked);
        if unlinked > 0 {
            crate::metrics::mv_unlinked().add(unlinked);
            crate::metrics::mv_live_versions().sub(unlinked as i64);
            psnap_obs::trace::emit(
                psnap_obs::TraceKind::Prune,
                unlinked,
                (chain.len() as u64).saturating_sub(unlinked),
            );
        }
    }
}

impl<T> Drop for MvRegister<T> {
    fn drop(&mut self) {
        // Exclusive access: free the whole chain directly. Unlinked versions
        // went through `epoch::retire` already and are not reachable from
        // the head.
        let mut cur = *self.head.get_mut();
        let mut freed = 0i64;
        while !cur.is_null() {
            // Safety: exclusively owned chain nodes, freed exactly once.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
            freed += 1;
        }
        crate::metrics::mv_live_versions().sub(freed);
    }
}

impl<T: Send + Sync + 'static + std::fmt::Debug> std::fmt::Debug for MvRegister<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (value, stamp) = self.peek_newest();
        f.debug_struct("MvRegister")
            .field("newest", &value)
            .field("stamp", &stamp)
            .field("chain_len", &self.chain_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StepScope;

    fn finalized_install(reg: &MvRegister<u64>, camera: &TimestampCamera, v: u64) -> u64 {
        let stamp = MvStamp::pending_single();
        reg.install(Arc::new(v), stamp.clone());
        stamp.finalize(camera)
    }

    #[test]
    fn initial_version_is_visible_at_every_timestamp() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(7u64);
        assert_eq!(*reg.read_at(0, &camera), 7);
        assert_eq!(*reg.read_at(1, &camera), 7);
        assert_eq!(*reg.read_at(u64::MAX >> 3, &camera), 7);
    }

    #[test]
    fn reads_at_older_timestamps_see_older_versions() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        let t1 = finalized_install(&reg, &camera, 10);
        let s = camera.tick();
        assert!(s >= t1);
        let t2 = finalized_install(&reg, &camera, 20);
        assert!(t2 > s, "a write after the tick must land above it");
        // A scan announced at `s` still sees the first write; a fresh scan
        // sees the second.
        assert_eq!(*reg.read_at(s, &camera), 10);
        assert_eq!(*reg.read_at(camera.tick(), &camera), 20);
        assert_eq!(reg.chain_len(), 3);
    }

    #[test]
    fn pending_batches_are_skipped_and_their_floor_rises() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        finalized_install(&reg, &camera, 1);
        // A batcher parked mid-commit: installed but never finalized.
        let parked = MvStamp::pending_batch();
        reg.install(Arc::new(99), parked.clone());
        let s = camera.tick();
        assert_eq!(
            *reg.read_at(s, &camera),
            1,
            "pending batch must be stepped over, not finalized"
        );
        assert_eq!(parked.peek(), None, "scans must not finalize a batch");
        // The skip raised the floor: the eventual finalize lands above `s`.
        let t = parked.finalize(&camera);
        assert!(
            t > s,
            "finalize below a skipped scan's timestamp: {t} <= {s}"
        );
        // And a scan that ticks after the finalize sees the version.
        assert_eq!(*reg.read_at(camera.tick(), &camera), 99);
    }

    #[test]
    fn pending_singles_are_help_finalized_above_the_reader() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        finalized_install(&reg, &camera, 1);
        // A single writer parked between install and finalize.
        let parked = MvStamp::pending_single();
        reg.install(Arc::new(50), parked.clone());
        let s = camera.tick();
        assert_eq!(*reg.read_at(s, &camera), 1, "helped version lands above s");
        // The reader finalized it — above its own timestamp.
        let t = parked.peek().expect("reader must help-finalize singles");
        assert!(t > s);
        // The parked writer's own finalize just observes the helped value.
        assert_eq!(parked.finalize(&camera), t);
        assert_eq!(*reg.read_at(camera.tick(), &camera), 50);
    }

    #[test]
    fn late_finalized_versions_win_the_scans_their_timestamp_entitles() {
        // The torn-batch regression, at the register level: a version
        // buried under a chain-newer version with a *smaller* timestamp
        // must still win scans at or above its own timestamp — selection is
        // by timestamp, not by chain position.
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        let batch = MvStamp::pending_batch();
        reg.install(Arc::new(10), batch.clone()); // pending, will finalize late
        finalized_install(&reg, &camera, 5); // chain-newer, t = 1
        let s1 = camera.tick();
        assert_eq!(*reg.read_at(s1, &camera), 5, "pending batch excluded");
        let t_batch = batch.finalize(&camera);
        assert!(t_batch > s1, "floor forced the batch above the first scan");
        // A scan at or above the batch's timestamp selects the batch even
        // though the single's version is newer in the chain.
        let s2 = camera.tick();
        assert_eq!(*reg.read_at(s2, &camera), 10);
        // And the old scan's answer is unchanged.
        assert_eq!(*reg.read_at(s1, &camera), 5);
    }

    #[test]
    fn equal_timestamps_resolve_to_the_chain_newest_version() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        finalized_install(&reg, &camera, 1);
        finalized_install(&reg, &camera, 2); // same camera value: same t
        assert_eq!(*reg.read_at(camera.timestamp(), &camera), 2);
    }

    #[test]
    fn finalize_is_idempotent_and_shared_across_clones() {
        let camera = TimestampCamera::new();
        let stamp = MvStamp::pending_batch();
        let clone = stamp.clone();
        let t = stamp.finalize(&camera);
        assert_eq!(clone.finalize(&camera), t);
        assert_eq!(clone.peek(), Some(t));
    }

    #[test]
    fn try_install_fails_only_against_a_concurrent_winner() {
        let reg = MvRegister::new(0u64);
        assert!(reg.try_install(Arc::new(1), MvStamp::finalized(1)).is_ok());
        assert!(reg.try_install(Arc::new(2), MvStamp::finalized(1)).is_ok());
        assert_eq!(reg.chain_len(), 3);
    }

    #[test]
    fn resolve_winner_publishes_singles_and_defers_to_batches() {
        let camera = TimestampCamera::new();
        // A finalized winner resolves immediately.
        let done = MvStamp::finalized(3);
        assert_eq!(done.resolve_winner(&camera), Some(3));
        // A pending single winner is published on the spot (the loser's
        // drop is then linearizable: the publication is inside its
        // interval).
        let single = MvStamp::pending_single();
        let t = single.resolve_winner(&camera).expect("single published");
        assert_eq!(single.peek(), Some(t));
        // A pending batch winner cannot be published by the loser.
        let batch = MvStamp::pending_batch();
        assert_eq!(batch.resolve_winner(&camera), None);
        assert_eq!(batch.peek(), None);
    }

    #[test]
    fn prune_keeps_one_version_per_live_bound() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        // Interleave writes with camera ticks so versions span timestamps.
        let mut held: Vec<(u64, u64)> = Vec::new(); // (bound, expected value)
        for i in 1..=20u64 {
            finalized_install(&reg, &camera, i);
            if i % 5 == 0 {
                let s = camera.tick();
                held.push((s, i));
            }
        }
        let mut bounds: Vec<u64> = held.iter().map(|(s, _)| *s).collect();
        bounds.push(camera.timestamp());
        bounds.sort_unstable_by(|a, b| b.cmp(a));
        bounds.dedup();
        reg.prune(&bounds);
        // One version per bound at most (all finalized, nothing pending).
        assert!(
            reg.chain_len() <= bounds.len(),
            "chain {} > bounds {}",
            reg.chain_len(),
            bounds.len()
        );
        // Every held bound still reads the value it could see before.
        for &(s, expected) in &held {
            assert_eq!(
                *reg.read_at(s, &camera),
                expected,
                "bound {s} lost its version"
            );
        }
        assert_eq!(*reg.read_at(camera.timestamp(), &camera), 20);
    }

    #[test]
    fn prune_without_announcements_keeps_only_the_newest() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        for i in 1..=50u64 {
            finalized_install(&reg, &camera, i);
            reg.prune(&[camera.timestamp()]);
        }
        assert_eq!(reg.chain_len(), 1);
        assert_eq!(*reg.read_at(camera.timestamp(), &camera), 50);
    }

    #[test]
    fn prune_keeps_pending_versions_above_the_kept_cut() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        finalized_install(&reg, &camera, 1);
        finalized_install(&reg, &camera, 3);
        // A batcher parked mid-commit: its pending version sits at the head.
        let parked = MvStamp::pending_batch();
        reg.install(Arc::new(2), parked.clone());
        reg.prune(&[camera.timestamp()]);
        // The pending version and the newest finalized one survive (1 was a
        // same-timestamp tie-loser to 3 and is gone).
        assert_eq!(reg.chain_len(), 2);
        let t = parked.finalize(&camera);
        assert_eq!(*reg.read_at(camera.tick(), &camera), 2);
        assert!(t >= 1);
    }

    #[test]
    fn prune_never_drops_pending_versions() {
        // A pending batch version below a finalized one: its timestamp is
        // undecided, so pruning must keep it — when it finalizes late, its
        // (larger) timestamp wins the scans that tick after it.
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        let parked = MvStamp::pending_batch();
        reg.install(Arc::new(99), parked.clone());
        finalized_install(&reg, &camera, 3);
        reg.prune(&[camera.timestamp()]);
        assert_eq!(reg.chain_len(), 2, "the pending version must survive");
        let s1 = camera.tick();
        assert_eq!(*reg.read_at(s1, &camera), 3);
        let t = parked.finalize(&camera);
        assert!(t > s1);
        assert_eq!(*reg.read_at(camera.tick(), &camera), 99);
    }

    #[test]
    fn cutover_bounds_every_later_finalize_from_below() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        let t_before = finalized_install(&reg, &camera, 1);
        let boundary = camera.cutover();
        assert!(
            t_before < boundary,
            "pre-cutover version above the boundary"
        );
        let t_after = finalized_install(&reg, &camera, 2);
        assert!(
            t_after >= boundary,
            "post-cutover finalize {t_after} below the boundary {boundary}"
        );
    }

    #[test]
    fn stamped_reads_report_the_winning_timestamp() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        let t1 = finalized_install(&reg, &camera, 10);
        let s = camera.tick();
        let (t, v) = reg.read_at_stamped(s, &camera);
        assert_eq!((t, *v), (t1, 10));
        let (t0, v0) = reg.read_at_stamped(0, &camera);
        assert_eq!((t0, *v0), (0, 0), "initial version carries timestamp 0");
    }

    #[test]
    fn finalized_versions_come_out_oldest_first_and_reinstall_faithfully() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        let mut expected = vec![(0u64, 0u64)];
        for v in [7u64, 8, 9] {
            camera.tick();
            expected.push((finalized_install(&reg, &camera, v), v));
        }
        // A parked batch must be skipped: its timestamp is undecided.
        reg.install(Arc::new(99), MvStamp::pending_batch());
        let versions = reg.finalized_versions();
        let got: Vec<(u64, u64)> = versions.iter().map(|(t, v)| (*t, **v)).collect();
        assert_eq!(got, expected);
        // Re-installing oldest-first into a fresh register reproduces every
        // read the source could answer (the migration copy's contract).
        let copy = MvRegister::new(0u64);
        for (t, v) in &versions {
            copy.install(Arc::clone(v), MvStamp::finalized(*t));
        }
        for s in 0..=camera.timestamp() {
            assert_eq!(
                *copy.read_at(s, &camera),
                *reg.read_at(s, &camera),
                "copy diverges at timestamp {s}"
            );
        }
    }

    #[test]
    fn quiescent_read_is_a_constant_handful_of_steps() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        finalized_install(&reg, &camera, 5);
        reg.prune(&[camera.timestamp()]);
        let scope = StepScope::start();
        let v = reg.read_at(camera.timestamp(), &camera);
        let steps = scope.finish();
        assert_eq!(*v, 5);
        // Camera read + head read + one stamp read + the hop to the end of
        // the single-version chain.
        assert!(steps.total() <= 4, "quiescent read took {steps}");
    }

    #[test]
    fn concurrent_writers_and_timestamp_readers_never_tear() {
        // Readers follow the announce discipline of the higher layers:
        // publish an announcement *before* drawing the timestamp, so the
        // writers' prune bounds always cover the versions a reader may
        // still select. A bare `read_at` with an unannounced timestamp has
        // no such protection — that is the announcement's whole job.
        use std::sync::atomic::AtomicBool;
        let camera = Arc::new(TimestampCamera::new());
        let reg = Arc::new(MvRegister::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let announce: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        std::thread::scope(|scope| {
            for w in 0..3u64 {
                let reg = Arc::clone(&reg);
                let camera = Arc::clone(&camera);
                let stop = Arc::clone(&stop);
                let announce = Arc::clone(&announce);
                scope.spawn(move || {
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        let stamp = MvStamp::pending_single();
                        reg.install(Arc::new((i, i.wrapping_mul(31))), stamp.clone());
                        stamp.finalize(&camera);
                        // Camera first, then the announcement sweep — the
                        // pruner-side ordering the safety argument needs.
                        let mut bounds = vec![camera.timestamp()];
                        for slot in announce.iter() {
                            let a = slot.load(Ordering::SeqCst);
                            if a != 0 {
                                bounds.push(a);
                            }
                        }
                        bounds.sort_unstable_by(|a, b| b.cmp(a));
                        bounds.dedup();
                        reg.prune(&bounds);
                        i += 3;
                        // Six busy threads on fewer cores: a reader that is
                        // descheduled while announced pins the chain, and
                        // writers that never yield grow it by millions of
                        // versions per time slice — which the reader then
                        // has to walk, falling further behind (minutes, one
                        // run in four on a 2-core box).
                        std::thread::yield_now();
                    }
                });
            }
            for r in 0..3usize {
                let reg = Arc::clone(&reg);
                let camera = Arc::clone(&camera);
                let stop = Arc::clone(&stop);
                let announce = Arc::clone(&announce);
                scope.spawn(move || {
                    for _ in 0..5_000 {
                        announce[r].store(camera.timestamp(), Ordering::SeqCst);
                        let s = camera.tick();
                        let v = reg.read_at(s, &camera);
                        let (a, b) = *v;
                        assert_eq!(b, a.wrapping_mul(31), "torn multiversion read");
                        announce[r].store(0, Ordering::SeqCst);
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
    }
}
