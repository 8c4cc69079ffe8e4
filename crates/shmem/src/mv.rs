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
//! * **Single writes** ([`MvRegister::write`]) are **help-finalized**:
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
//! # Ordered versions: where a read stops
//!
//! Every version's timestamp is drawn from the camera *after* its install
//! (a batch finalizes after its last install; a single write, a helper or a
//! losing writer after reading the version from the chain). So when a
//! writer, just before its install compare&swap, finds every version below
//! its own already finalized — those timestamps were drawn before it looked
//! — none of them can end up above its own. The writer records that in the
//! version's **ordered** mark: true iff every version from the one it links
//! to down to the first ordered version (or the chain's end) is finalized.
//! Below the first ordered version the check meets, induction covers the
//! rest; the register's initial version (timestamp 0, nothing below) is
//! ordered; and pruning only unlinks versions, so a mark never becomes
//! false. The check costs the writer one stamp read per version it meets
//! (plus a hop read past each unordered one): one read when the head is an
//! ordered, finalized version, as it is between writes.
//!
//! A read therefore stops at the first ordered version whose timestamp
//! resolves to `t ≤ s`: every version below it is finalized at or below
//! `t`, and the chain-newer version wins a tie, so none can be selected.
//! None of them is pending either, so the stop skips no help-finalize and
//! no floor raise. A version pushed over a pending one — a single write
//! over a batch mid-commit — is not ordered, and a read walks past it as
//! before: the batch below may still finalize above it. This is the
//! *timestamp-ordered version list* of Wei et al.'s constant-time
//! snapshots, which stamp a head before anything is pushed over it. A
//! writer here cannot stamp another writer's pending batch, so the order is
//! recorded where it already holds instead of enforced. A quiescent read is
//! one head read and one stamp read.
//!
//! # Version layout
//!
//! A version is **one heap block**: its value inline, its own stamp slot,
//! an optional pointer to a shared slot, the link to the next-older version
//! and the ordered mark (a plain `bool`, written while the block is still
//! private and published with it). Which slot is *the* stamp depends on how
//! the version was made:
//!
//! * a single write ([`MvRegister::write`]) and a register's initial
//!   version stamp in their own slot — nothing is shared, so a write
//!   allocates exactly one block and a retired version frees exactly one;
//! * a version installed with an explicit [`MvStamp`]
//!   ([`MvRegister::install_value`]) points at that stamp's shared slot:
//!   every version of a batch shares one, which is what makes the batch
//!   commit at one finalize.
//!
//! One slot protocol — read-for-a-scan, finalize, resolve-a-winner, peek —
//! serves both kinds of slot.
//!
//! The shared words sit on cache lines laid out by who writes them, so that
//! a line moves between cores only when its writing party changes:
//!
//! * **The register's line.** An [`MvRegister`] is one 64-byte-aligned line
//!   of its own: the chain head and the single-pruner flag. Its writers
//!   write it (the install compare&swap, the pruner flag's take and
//!   release); scans read the head. Packed registers would put four heads
//!   on a line, and every write would invalidate three neighbours' heads
//!   under a scanner reading them.
//! * **The version block.** A version's own stamp slot is written by its
//!   writer's finalize or a scan's help-finalize (or floor raise), its
//!   `next` link by the register's pruner; scans read both, and the
//!   ordered mark, which nobody writes after publication. Blocks come
//!   from the plain allocator, not aligned to a line: aligned allocation
//!   made every write slower by more than it saved the scans.
//! * **The camera.** Ticked by every scan, read by every finalize and every
//!   prune bound. The layer above puts it on one line with the scans'
//!   announcement slots (`MvFamily` in `psnap-core`), so a scan's writes
//!   land on one line.
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

use crate::epoch::{self, Guard};
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

/// One stamp slot and the whole timestamp protocol over it. A version's
/// own slot and a batch's shared one are both this type, so there is one
/// copy of the protocol.
#[derive(Debug)]
struct StampSlot(AtomicU64);

impl StampSlot {
    const fn new(word: u64) -> StampSlot {
        StampSlot(AtomicU64::new(word))
    }

    /// Moves the slot from `cur` to final at `t` (one compare&swap step).
    #[inline]
    fn publish(&self, cur: u64, t: u64) -> bool {
        steps::record(OpKind::Cas);
        self.0
            .compare_exchange(cur, encode_final(t), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// See [`MvStamp::peek`].
    #[inline]
    fn peek(&self) -> Option<u64> {
        let v = self.0.load(Ordering::SeqCst);
        (v & FINAL_BIT != 0).then_some(v >> 2)
    }

    /// See [`MvStamp::finalize`].
    fn finalize(&self, camera: &TimestampCamera) -> u64 {
        loop {
            steps::record(OpKind::Read);
            let cur = self.0.load(Ordering::SeqCst);
            if cur & FINAL_BIT != 0 {
                return cur >> 2;
            }
            // Reading the camera *after* the slot observation is the crux:
            // a floor-raiser ticked the camera past its own timestamp
            // before raising the floor, so `t` strictly exceeds every
            // timestamp whose scan stepped over this pending version.
            let t = camera.timestamp();
            if self.publish(cur, t) {
                return t;
            }
        }
    }

    /// See [`MvStamp::resolve_winner`].
    fn resolve_winner(&self, camera: &TimestampCamera) -> Option<u64> {
        loop {
            steps::record(OpKind::Read);
            let cur = self.0.load(Ordering::SeqCst);
            if cur & FINAL_BIT != 0 {
                return Some(cur >> 2);
            }
            if cur & SINGLE_BIT == 0 {
                return None;
            }
            let t = camera.timestamp();
            if self.publish(cur, t) {
                crate::metrics::mv_help_finalized().inc();
                return Some(t);
            }
        }
    }

    /// Resolves this slot against scan timestamp `s`: the finalized
    /// timestamp, or `None` if the version must be treated as not yet
    /// written by this scan. A pending single write is help-finalized with
    /// a fresh camera read (which lands above `s` — the scan already ticked
    /// the camera); a pending batch write gets its floor raised to `s`, so
    /// its later finalize is forced above `s`.
    ///
    /// Bounded: each retry means the slot moved — to final (at most once),
    /// or to a higher floor (at most once per concurrent scan, since floors
    /// strictly increase).
    #[inline]
    fn read_for(&self, s: u64, camera: &TimestampCamera) -> Option<u64> {
        loop {
            steps::record(OpKind::Read);
            let cur = self.0.load(Ordering::SeqCst);
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
                if self.publish(cur, t) {
                    debug_assert!(t > s);
                    crate::metrics::mv_help_finalized().inc();
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
                .0
                .compare_exchange(cur, encode_floor(s), Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return None;
            }
        }
    }
}

/// A shared timestamp slot: the stamp of a batch of writes (or of one write
/// whose writer finalizes it from outside the register). Cloning an
/// `MvStamp` shares the slot: every version of a batch holds a clone, so the
/// single [`finalize`](MvStamp::finalize) commits them all at once.
#[derive(Clone, Debug)]
pub struct MvStamp {
    slot: Arc<StampSlot>,
}

impl MvStamp {
    fn with(word: u64) -> Self {
        MvStamp {
            slot: Arc::new(StampSlot::new(word)),
        }
    }

    /// A pending stamp for a **single** write. Scans that encounter it
    /// help-finalize it with a fresh camera read, so the writer's own
    /// [`finalize`](Self::finalize) takes at most two rounds — single
    /// updates stay wait-free. ([`MvRegister::write`] gives a single write
    /// the same stamp in the version's own slot, without this allocation.)
    pub fn pending_single() -> Self {
        MvStamp::with(SINGLE_BIT)
    }

    /// A pending stamp for a **batch** (floor 0). Scans never finalize it —
    /// only the batch writer may, after every version of the batch is
    /// installed — they raise its floor instead, forcing the eventual
    /// timestamp above themselves. Versions carrying it are invisible until
    /// [`finalize`](Self::finalize).
    pub fn pending_batch() -> Self {
        MvStamp::with(encode_floor(0))
    }

    /// The finalized timestamp, if any (diagnostics; no step recorded).
    pub fn peek(&self) -> Option<u64> {
        self.slot.peek()
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
        self.slot.finalize(camera)
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
        self.slot.resolve_winner(camera)
    }
}

/// One version in a register's chain: a single heap block (see the module
/// docs' *Version layout*). Immutable once published except for its stamp
/// and for `next`, which only the register's single pruner rewrites.
struct MvNode<T> {
    /// The stamp of a single write or an initial version; unused when
    /// `shared` is set.
    own: StampSlot,
    /// The shared slot of a version installed with an explicit stamp.
    shared: Option<MvStamp>,
    /// The next-older version; null at the end of the chain.
    next: AtomicPtr<MvNode<T>>,
    /// Nothing below this version can outrank it: every version below was
    /// finalized before this one was published (see "Ordered versions" in
    /// the module docs). Set by `MvRegister::push` while the node is
    /// private; never changes once published.
    ordered: bool,
    value: T,
}

impl<T> MvNode<T> {
    fn alloc(value: T, own: u64, shared: Option<MvStamp>) -> *mut MvNode<T> {
        Box::into_raw(Box::new(MvNode {
            own: StampSlot::new(own),
            shared,
            next: AtomicPtr::new(std::ptr::null_mut()),
            ordered: false,
            value,
        }))
    }

    /// Whether a version pushed over `below` is ordered: every version from
    /// `below` down to the first ordered one (or the chain's end) is
    /// finalized. One read step per stamp read and per hop.
    ///
    /// # Safety
    ///
    /// `below` is null or a version of a register's chain, loaded while the
    /// caller was pinned, and the caller is still pinned.
    unsafe fn ordered_over(mut below: *const MvNode<T>) -> bool {
        while !below.is_null() {
            // Safety: the caller's pin keeps `below` and every version its
            // chain links to from being freed.
            let node = unsafe { &*below };
            steps::record(OpKind::Read);
            if node.stamp().peek().is_none() {
                return false;
            }
            if node.ordered {
                return true;
            }
            steps::record(OpKind::Read);
            below = node.next.load(Ordering::Acquire);
        }
        true
    }

    /// The slot that decides this version's timestamp.
    #[inline]
    fn stamp(&self) -> &StampSlot {
        match &self.shared {
            Some(stamp) => &stamp.slot,
            None => &self.own,
        }
    }
}

/// A multiversioned register: an atomic register whose overwritten values
/// remain readable at older timestamps until pruned.
///
/// * [`write`](MvRegister::write) is a single write: install, then publish
///   its timestamp (one compare&swap per install attempt);
/// * [`install_value`](MvRegister::install_value) /
///   [`install`](MvRegister::install) push a version carrying an explicit,
///   usually shared, stamp — a batch's sub-writes;
/// * [`read_at`](MvRegister::read_at) returns the version with the largest
///   finalized timestamp `≤ s` (ties go to the chain-newest version),
///   resolving pending versions on the way and stopping at the first
///   ordered version it selects (bounded, no retries — the chain below the
///   captured head is immutable);
/// * [`prune`](MvRegister::prune) unlinks versions no live or future scan
///   can select, reclaiming them through [`crate::epoch`].
///
/// A register fills one cache line of its own (see "Version layout" in the
/// module docs): a writer's head compare&swap and pruner-flag writes never
/// invalidate a neighbouring register's head.
#[repr(align(64))]
pub struct MvRegister<T> {
    head: AtomicPtr<MvNode<T>>,
    /// Single-pruner lock: pruning rewrites `next` pointers, and one pruner
    /// at a time keeps unlinking and retirement trivially exclusive. Taken
    /// opportunistically (one CAS attempt) — never waited on.
    pruner: AtomicBool,
}

// Safety: readers share values as `&T` across threads (`T: Sync`) and node
// drops may run on any thread (`T: Send`); the chain itself is only mutated
// through atomics.
unsafe impl<T: Send + Sync> Send for MvRegister<T> {}
unsafe impl<T: Send + Sync> Sync for MvRegister<T> {}

impl<T: Send + Sync + 'static> MvRegister<T> {
    /// A register whose initial version carries timestamp 0 (visible to every
    /// scan).
    pub fn new(initial: T) -> Self {
        crate::metrics::mv_installed().inc();
        crate::metrics::mv_live_versions().inc();
        let node = MvNode::alloc(initial, encode_final(0), None);
        // Safety: private until the register exists. Nothing lies below the
        // initial version.
        unsafe { (*node).ordered = true };
        MvRegister {
            head: AtomicPtr::new(node),
            pruner: AtomicBool::new(false),
        }
    }

    /// Publishes `node` at the head, one compare&swap step per attempt,
    /// after marking it ordered or not over the version it links to. A lost
    /// race re-links and re-marks the node behind the winner and retries,
    /// unless `drop_for(winner)` says the write may be dropped instead —
    /// then the node, never shared, is freed here and `false` returned. The
    /// caller must be pinned, and `node`'s stamp must not be finalized
    /// before this returns.
    fn push(&self, node: *mut MvNode<T>, mut drop_for: impl FnMut(&MvNode<T>) -> bool) -> bool {
        let mut below = self.head.load(Ordering::Acquire);
        loop {
            // Safety: `node` stays private to this thread until the CAS
            // below publishes it, which also publishes both fields; `below`
            // is the head or a winner, loaded under the caller's pin.
            unsafe {
                (*node).next.store(below, Ordering::Relaxed);
                (*node).ordered = MvNode::ordered_over(below);
            }
            steps::record(OpKind::Cas);
            match self
                .head
                .compare_exchange(below, node, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    crate::metrics::mv_installed().inc();
                    crate::metrics::mv_live_versions().inc();
                    return true;
                }
                // Safety: the caller's pin protects `winner` (see above).
                Err(winner) if drop_for(unsafe { &*winner }) => {
                    // Safety: allocated by the caller and never published.
                    drop(unsafe { Box::from_raw(node) });
                    return false;
                }
                Err(winner) => below = winner,
            }
        }
    }

    /// The **single write**: installs `value` as a new version stamped in
    /// its own slot and publishes its timestamp. One allocation, an ordered
    /// check and one compare&swap per install attempt, then a finalize of
    /// at most two rounds (scans help-finalize pending singles). Returns
    /// `false` if the write was dropped instead of installed.
    ///
    /// A lost install race may only be dropped ("linearize immediately
    /// before the winner", the Section 4.2 argument) once the winner's
    /// timestamp is *published* within this write's interval — a
    /// still-pending winner could otherwise commit after a later scan,
    /// leaving this acknowledged write invisible to it with no
    /// serialization explaining both. A pending single winner is published
    /// on the spot ([`MvStamp::resolve_winner`]); a winner that is a batch
    /// mid-install can be published by its own writer only, so the install
    /// is retried instead (bounded in practice: batches serialize
    /// family-wide, so each retry witnesses a distinct batch passing this
    /// register).
    pub fn write(&self, value: T, camera: &TimestampCamera) -> bool {
        // Pinned from before the install until after the finalize: once a
        // helper has finalized this version, another writer's prune may
        // unlink and retire it while we still finalize through it. The pin
        // also protects the winner a lost race reads.
        let _guard = epoch::pin();
        let node = MvNode::alloc(value, SINGLE_BIT, None);
        if !self.push(node, |winner| {
            winner.stamp().resolve_winner(camera).is_some()
        }) {
            return false;
        }
        // Safety: published above and protected by the pin.
        unsafe { &*node }.own.finalize(camera);
        true
    }

    /// Pushes a new version carrying `stamp`, retrying lost races until it
    /// lands (one compare&swap step per attempt; lock-free — a failed
    /// attempt means a concurrent install succeeded). Batch sub-writes use
    /// this: a batch's version must enter the chain so the batch is
    /// all-or-nothing over its components.
    ///
    /// `stamp` must still be pending when this returns: a version's ordered
    /// mark relies on its timestamp being drawn after its install (batches
    /// finalize after their last install anyway).
    pub fn install_value(&self, value: T, stamp: MvStamp) {
        debug_assert!(stamp.peek().is_none(), "installed a finalized stamp");
        // Pinned: the ordered mark reads the chain below the head, which a
        // concurrent prune may unlink and retire.
        let _guard = epoch::pin();
        self.push(MvNode::alloc(value, 0, Some(stamp)), |_| false);
    }

    /// The chain-newest version with the largest finalized timestamp `≤ s`
    /// and that timestamp, valid while `_guard` pins the caller. Pending
    /// versions met along the way are resolved per [`MvStamp`]'s protocol:
    /// singles help-finalized, batch floors raised. The walk stops after
    /// the first ordered version whose timestamp is `≤ s` (see the module
    /// docs' "Ordered versions").
    fn select<'a>(&'a self, s: u64, camera: &TimestampCamera, _guard: &'a Guard) -> (u64, &'a T) {
        steps::record(OpKind::Read);
        let mut cur = self.head.load(Ordering::Acquire);
        let mut best: Option<(u64, &T)> = None;
        while !cur.is_null() {
            // Safety: protected by the caller's pin; the node was published
            // to the chain and not yet reclaimed.
            let node = unsafe { &*cur };
            if let Some(t) = node.stamp().read_for(s, camera) {
                // Strict `>`: on a timestamp tie the version seen first
                // (chain-newest) wins.
                if best.is_none_or(|(bt, _)| t > bt) {
                    best = Some((t, &node.value));
                }
                // Every version below an ordered one is finalized at or
                // below its timestamp: none can win, and none is pending,
                // so stopping skips no help-finalize and no floor raise.
                if node.ordered {
                    break;
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

    /// [`read_at`](Self::read_at) without the copy: the selected value,
    /// borrowed for as long as `guard` pins the caller. Same steps, same
    /// panic condition.
    pub fn read_pinned<'a>(&'a self, s: u64, camera: &TimestampCamera, guard: &'a Guard) -> &'a T {
        self.select(s, camera, guard).1
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
    /// `bounds` must be sorted **descending**, deduplicated and non-empty;
    /// its last (oldest) element must be a lower bound on every timestamp a
    /// live scan announced or a future scan can draw — the announcements
    /// plus the camera's current value, read camera first. Under
    /// timestamp-ordered selection a finalized version is selectable by some
    /// scan iff its timestamp is at least the winner's at the **oldest**
    /// bound (a scan's timestamp is at least its announcement, which is at
    /// least the oldest bound, and selection takes the largest timestamp
    /// `≤ s`) and it is the chain-newest version of its timestamp (older
    /// ties always lose). Everything else is unlinked in place; pending
    /// versions are always kept, and the head is kept unconditionally
    /// (writers race on it).
    ///
    /// Opportunistic: if another prune is in flight the call returns
    /// immediately (one compare&swap step) — chains are re-prunable on the
    /// next write, so nothing is lost by skipping. Unlinked versions stay
    /// intact (their own `next` is never rewritten) until no pinned
    /// traversal can reach them, so a reader that already stepped onto one
    /// simply walks through it back into the kept chain. Allocation-free
    /// unless more than a few dozen distinct timestamps stay selectable.
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
        let oldest = *bounds.last().expect("bounds are non-empty");
        // Pass 1: the chain's length and the winner's timestamp at the
        // oldest bound — the largest finalized timestamp ≤ it. Every
        // selectable version has a timestamp at least this (or is pending).
        // Safety for all dereferences below: protected by the pin, and only
        // this pruner (single-pruner lock) unlinks or retires chain nodes,
        // so the chain below the captured head holds still.
        steps::record(OpKind::Read);
        let head = self.head.load(Ordering::Acquire);
        let mut len = 0u64;
        let mut t_win: Option<u64> = None;
        let mut cur = head;
        while !cur.is_null() {
            steps::record(OpKind::Read);
            let node = unsafe { &*cur };
            if let Some(t) = node.stamp().peek() {
                if t <= oldest && t_win.is_none_or(|w| t > w) {
                    t_win = Some(t);
                }
            }
            len += 1;
            cur = node.next.load(Ordering::Acquire);
        }
        crate::metrics::mv_chain_len().record(len);
        // Pass 2 (uncounted, like every interior link access): unlink the
        // dead. A stamp re-read here may have been finalized since pass 1;
        // judging the fresher value is just as safe — a final timestamp
        // below the winner's loses every selectable scan whenever it is
        // read. `kept` is the last kept node, whose `next` skips over
        // everything unlinked since.
        let mut seen = KeptStamps::default();
        let mut unlinked = 0u64;
        let mut kept = head;
        seen.insert(unsafe { &*head }.stamp().peek());
        cur = unsafe { &*head }.next.load(Ordering::Acquire);
        while !cur.is_null() {
            let node = unsafe { &*cur };
            let next = node.next.load(Ordering::Acquire);
            let stamp = node.stamp().peek();
            // Dead if below every selectable timestamp, or a chain-newer
            // kept version with the same timestamp wins every tie.
            if stamp.is_some_and(|t| t_win.is_some_and(|w| t < w) || seen.contains(t)) {
                // An RMW, not a store: `epoch::retire` elides its fence on
                // x86 because the unlink is itself a full barrier. Only this
                // pruner rewrites interior links, so the swap returns `cur`.
                // Uncounted, like the load above: the step rungs stay put.
                let was = unsafe { &*kept }.next.swap(next, Ordering::AcqRel);
                debug_assert_eq!(was, cur, "interior link moved under the pruner");
                unlinked += 1;
                // Safety: unlinked above, never retired twice.
                unsafe { epoch::retire(cur) };
            } else {
                seen.insert(stamp);
                kept = cur;
            }
            cur = next;
        }
        self.pruner.store(false, Ordering::Release);
        crate::metrics::mv_pruned_per_call().record(unlinked);
        if unlinked > 0 {
            crate::metrics::mv_unlinked().add(unlinked);
            crate::metrics::mv_live_versions().sub(unlinked as i64);
        }
    }
}

impl<T: Clone + Send + Sync + 'static> MvRegister<T> {
    /// [`install_value`](Self::install_value) for a value behind an `Arc`
    /// (the version stores it inline: unwrapped if unshared, else cloned).
    pub fn install(&self, value: Arc<T>, stamp: MvStamp) {
        self.install_value(Arc::unwrap_or_clone(value), stamp);
    }

    /// A copy of the version with the largest finalized timestamp `≤ s`
    /// (ties go to the chain-newest version — among equal timestamps only
    /// the newest is ever returned, which is what orders same-timestamp
    /// writes by install order), cloned under the read's epoch pin. Pending
    /// versions met along the way are resolved per [`MvStamp`]'s protocol:
    /// singles help-finalized, batch floors raised.
    ///
    /// Bounded: the walk covers at most the chain below the head captured
    /// by one read, and that chain is immutable (pruning only unlinks
    /// versions no announced timestamp can select, and an unlinked
    /// version's own `next` still leads back into the kept chain). It stops
    /// at the first ordered version it selects — nothing below can outrank
    /// it or is pending (see the module docs' "Ordered versions") — so a
    /// read of a quiescent register costs one head read and one stamp read.
    /// Each other version visited costs a stamp resolution plus one hop
    /// read.
    ///
    /// # Panics
    ///
    /// Panics if no version with timestamp `≤ s` exists — the announce
    /// protocol of the callers guarantees one (pruning never unlinks the
    /// winner at or below a live announcement).
    pub fn read_at(&self, s: u64, camera: &TimestampCamera) -> T {
        self.read_pinned(s, camera, &epoch::pin()).clone()
    }

    /// Like [`read_at`](Self::read_at), but also returns the winning
    /// version's finalized timestamp. Same step costs, same panic
    /// condition, same pending-version resolution.
    pub fn read_at_stamped(&self, s: u64, camera: &TimestampCamera) -> (u64, T) {
        let guard = epoch::pin();
        let (t, value) = self.select(s, camera, &guard);
        (t, value.clone())
    }

    /// The newest version's value and finalized timestamp, if finalized
    /// (diagnostics and tests; no steps recorded).
    pub fn peek_newest(&self) -> (T, Option<u64>) {
        let _guard = epoch::pin();
        // Safety: head is never null (chains always keep ≥ 1 version).
        let node = unsafe { &*self.head.load(Ordering::Acquire) };
        (node.value.clone(), node.stamp().peek())
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

impl<T: Clone + Send + Sync + 'static + std::fmt::Debug> std::fmt::Debug for MvRegister<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (value, stamp) = self.peek_newest();
        f.debug_struct("MvRegister")
            .field("newest", &value)
            .field("stamp", &stamp)
            .field("chain_len", &self.chain_len())
            .finish()
    }
}

/// The finalized timestamps of the versions a prune keeps: on the stack,
/// spilling to the heap only past a few dozen (a scan stalled while many
/// writes landed).
#[derive(Default)]
struct KeptStamps {
    inline: [u64; 32],
    len: usize,
    spill: Vec<u64>,
}

impl KeptStamps {
    fn insert(&mut self, stamp: Option<u64>) {
        let Some(t) = stamp else { return };
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = t;
                self.len += 1;
            }
            None => self.spill.push(t),
        }
    }

    fn contains(&self, t: u64) -> bool {
        self.inline[..self.len].contains(&t) || self.spill.contains(&t)
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
    fn a_register_fills_a_cache_line_of_its_own() {
        assert_eq!(std::mem::align_of::<MvRegister<u64>>(), 64);
        assert_eq!(std::mem::size_of::<MvRegister<u64>>(), 64);
    }

    #[test]
    fn initial_version_is_visible_at_every_timestamp() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(7u64);
        assert_eq!(reg.read_at(0, &camera), 7);
        assert_eq!(reg.read_at(1, &camera), 7);
        assert_eq!(reg.read_at(u64::MAX >> 3, &camera), 7);
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
        assert_eq!(reg.read_at(s, &camera), 10);
        assert_eq!(reg.read_at(camera.tick(), &camera), 20);
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
            reg.read_at(s, &camera),
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
        assert_eq!(reg.read_at(camera.tick(), &camera), 99);
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
        assert_eq!(reg.read_at(s, &camera), 1, "helped version lands above s");
        // The reader finalized it — above its own timestamp.
        let t = parked.peek().expect("reader must help-finalize singles");
        assert!(t > s);
        // The parked writer's own finalize just observes the helped value.
        assert_eq!(parked.finalize(&camera), t);
        assert_eq!(reg.read_at(camera.tick(), &camera), 50);
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
        assert_eq!(reg.read_at(s1, &camera), 5, "pending batch excluded");
        let t_batch = batch.finalize(&camera);
        assert!(t_batch > s1, "floor forced the batch above the first scan");
        // A scan at or above the batch's timestamp selects the batch even
        // though the single's version is newer in the chain.
        let s2 = camera.tick();
        assert_eq!(reg.read_at(s2, &camera), 10);
        // And the old scan's answer is unchanged.
        assert_eq!(reg.read_at(s1, &camera), 5);
    }

    #[test]
    fn equal_timestamps_resolve_to_the_chain_newest_version() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        finalized_install(&reg, &camera, 1);
        finalized_install(&reg, &camera, 2); // same camera value: same t
        assert_eq!(reg.read_at(camera.timestamp(), &camera), 2);
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
    fn write_lands_and_publishes_its_own_stamp() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        // Uncontended, a single write is the ordered check (one stamp read:
        // the head below is finalized and ordered), one install CAS, then
        // one finalize round: slot read, camera read, CAS.
        let scope = StepScope::start();
        assert!(reg.write(1, &camera), "an uncontended write lands");
        assert_eq!(scope.finish().total(), 5);
        assert!(reg.write(2, &camera));
        assert_eq!(reg.chain_len(), 3);
        let (newest, stamp) = reg.peek_newest();
        assert_eq!(newest, 2);
        assert!(
            stamp.is_some(),
            "a write returns with its timestamp published"
        );
        assert_eq!(reg.read_at(camera.tick(), &camera), 2);
    }

    #[test]
    fn resolve_winner_publishes_singles_and_defers_to_batches() {
        let camera = TimestampCamera::new();
        // A finalized winner resolves immediately, to its own timestamp.
        let done = MvStamp::pending_single();
        let t_done = done.finalize(&camera);
        assert_eq!(done.resolve_winner(&camera), Some(t_done));
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
                reg.read_at(s, &camera),
                expected,
                "bound {s} lost its version"
            );
        }
        assert_eq!(reg.read_at(camera.timestamp(), &camera), 20);
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
        assert_eq!(reg.read_at(camera.timestamp(), &camera), 50);
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
        assert_eq!(reg.read_at(camera.tick(), &camera), 2);
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
        assert_eq!(reg.read_at(s1, &camera), 3);
        let t = parked.finalize(&camera);
        assert!(t > s1);
        assert_eq!(reg.read_at(camera.tick(), &camera), 99);
    }

    #[test]
    fn stamped_reads_report_the_winning_timestamp() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        let t1 = finalized_install(&reg, &camera, 10);
        let s = camera.tick();
        assert_eq!(reg.read_at_stamped(s, &camera), (t1, 10));
        assert_eq!(
            reg.read_at_stamped(0, &camera),
            (0, 0),
            "initial version carries timestamp 0"
        );
    }

    /// The ordered marks of `reg`'s chain, newest first.
    fn marks(reg: &MvRegister<u64>) -> Vec<bool> {
        let _guard = epoch::pin();
        let mut marks = Vec::new();
        let mut cur = reg.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // Safety: protected by the pin.
            let node = unsafe { &*cur };
            marks.push(node.ordered);
            cur = node.next.load(Ordering::Acquire);
        }
        marks
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
        assert_eq!(v, 5);
        // Camera read + head read + one stamp read: the head is ordered, so
        // the read stops there without the hop to the chain's end.
        assert_eq!(steps.total(), 3, "quiescent read took {steps}");
    }

    #[test]
    fn a_read_stops_at_the_first_ordered_version_it_selects() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        for v in 1..=3 {
            assert!(reg.write(v, &camera));
        }
        // Unpruned: four versions, each pushed over a finalized, ordered one.
        assert_eq!(marks(&reg), vec![true; 4]);
        let s = camera.tick();
        let scope = StepScope::start();
        assert_eq!(reg.read_at(s, &camera), 3);
        // Head read + one stamp read, whatever lies below.
        assert_eq!(scope.finish().total(), 2);
    }

    #[test]
    fn a_version_pushed_over_a_pending_batch_is_not_ordered_and_scans_still_raise_the_floor() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        // A batcher parked mid-commit; its version sits over the finalized
        // initial one, so it is ordered itself.
        let batch = MvStamp::pending_batch();
        reg.install(Arc::new(10), batch.clone());
        // A single write over the pending batch: finalized at once, but the
        // batch below may still finalize above it.
        assert!(reg.write(5, &camera));
        assert_eq!(marks(&reg), vec![false, true, true]);
        let s = camera.tick();
        assert_eq!(reg.read_at(s, &camera), 5);
        // The read walked past the single to the batch and raised its floor
        // to its own timestamp.
        assert_eq!(batch.peek(), None, "scans must not finalize a batch");
        assert_eq!(batch.slot.0.load(Ordering::SeqCst), encode_floor(s));
        let t = batch.finalize(&camera);
        assert!(t > s);
        // Now the buried batch wins later scans, and a write over the chain
        // is ordered again: the check walks through the unordered single to
        // the ordered batch.
        assert_eq!(reg.read_at(camera.tick(), &camera), 10);
        assert!(reg.write(7, &camera));
        assert_eq!(marks(&reg), vec![true, false, true, true]);
        assert_eq!(reg.read_at(camera.tick(), &camera), 7);
    }

    #[test]
    fn a_version_pushed_over_a_pending_single_is_not_ordered() {
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(0u64);
        // A single writer parked between install and finalize.
        let parked = MvStamp::pending_single();
        reg.install(Arc::new(1), parked.clone());
        let stamp = MvStamp::pending_single();
        reg.install(Arc::new(2), stamp.clone());
        assert_eq!(marks(&reg), vec![false, true, true]);
        let t2 = stamp.finalize(&camera);
        // The scan walks past the unordered head, help-finalizes the parked
        // single above itself and stops at the ordered initial version.
        let s = camera.tick();
        assert!(t2 <= s);
        assert_eq!(reg.read_at(s, &camera), 2);
        assert!(parked.peek().is_some_and(|t| t > s));
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
                        reg.write((i, i.wrapping_mul(31)), &camera);
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
                        let (a, b) = reg.read_at(s, &camera);
                        assert_eq!(b, a.wrapping_mul(31), "torn multiversion read");
                        announce[r].store(0, Ordering::SeqCst);
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
        });
    }
}
