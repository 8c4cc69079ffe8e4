//! Vendored epoch-based memory reclamation for the lock-free base objects.
//!
//! [`VersionedCell`](crate::VersionedCell) swings a raw pointer between
//! immutable heap records. A reader that has just loaded the pointer may
//! dereference it *after* a concurrent writer has already swapped it out, so
//! the record must not be freed until every such reader is provably done.
//! This module provides the classic three-epoch solution (the scheme behind
//! `crossbeam-epoch`, reduced to the ~300 lines this workspace needs so the
//! build stays hermetic):
//!
//! * a **global epoch** counter;
//! * a fixed table of **per-thread epoch slots**; a thread *pins* itself by
//!   publishing the global epoch into its slot before touching any protected
//!   pointer, and clears the slot when the last [`Guard`] drops;
//! * **deferred drops**: a writer that unlinks a record hands it to
//!   [`Guard::defer_drop`], which tags it with the current global epoch and
//!   queues it thread-locally; queued garbage is freed once the global epoch
//!   has advanced far enough that no reader can still hold the pointer.
//!
//! # Safety argument
//!
//! The global epoch advances from `g` to `g + 1` only when every pinned slot
//! equals `g` (`try_advance`). Two invariants follow:
//!
//! 1. **Pins lag by at most one**: every pinned slot is `g` or `g - 1`. A
//!    thread pins by publishing its epoch and re-reading the global epoch
//!    until the two agree (with a `SeqCst` fence in between), so a settled
//!    pin starts equal to the global epoch and the epoch can advance at most
//!    once before the pinned slot blocks it.
//! 2. **Retire tag is an upper bound on reader pins**: a record is unlinked
//!    *before* `defer_drop` reads the global epoch `t`, so any reader still
//!    holding the pointer was already pinned when the tag was taken, and by
//!    invariant 1 its pin is at least `t - 1`.
//!
//! Garbage tagged `t` is freed only once the global epoch reaches `t + 2`.
//! By invariant 1, a reader pinned at `e` keeps the global epoch at most
//! `e + 1`; a reader that could hold the record is pinned at `e >= t - 1`
//! **only while** the global epoch is at most `e + 1 <= t + 1 < t + 2`. So
//! when the epoch reaches `t + 2`, every reader that could have seen the
//! record has unpinned, and freeing is safe. This holds no matter which
//! thread performs the free — including a thread that is itself pinned: its
//! own pin `p` keeps the global epoch at `p + 1` at most, so anything it can
//! still reference (tagged at `>= p`, since it was live when the thread
//! pinned) is not yet eligible.
//!
//! Threads that exit with garbage still queued push it onto a global orphan
//! list (a `Mutex`, touched only on thread exit and during collection — the
//! pin/unpin/retire fast paths are lock-free and `load` never blocks).
//! Garbage held past process exit is reclaimed by the OS.
//!
//! The chaos layer ([`crate::chaos`]) can park a thread *while pinned*
//! (`ChaosConfig::reclamation`), stalling epoch advance adversarially; the
//! reclamation tests drive exactly that schedule.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum number of concurrently *live* threads that may use the epoch
/// machinery. Slots are recycled when a thread exits, so total thread count
/// over a process lifetime is unbounded.
const MAX_THREADS: usize = 512;

/// How many retired records a thread accumulates before it attempts a
/// collection (advance the epoch, free eligible garbage). Deliberately
/// small: the slot scan it triggers is bounded by the high-water mark (a
/// handful of cache lines), while short free batches keep the allocator's
/// per-thread caches hot — with large batches every freed record has fallen
/// out of the fast path by the time it is freed, and the extra latency shows
/// directly on the store hot path. Measured on the benchmark's
/// single-threaded ladder (2 vCPUs, medians of 4 alternating pairs):
/// `shmem.cell_cas_ns` 163 ns here against 189 ns at 64, and
/// `core.cas.ns_per_update` 608 ns against 711 ns; 32 reads like 64.
/// Collecting less often would read a concurrent scanner's pin slot less
/// often, but on `object-rw` that bought under 2 % throughput.
const COLLECT_EVERY: usize = 8;

/// A record retired at epoch `t` may be freed once the global epoch is at
/// least `t + 2` (see the module-level safety argument). Garbage is kept in
/// `BAGS` bags indexed by `t % BAGS`: at epoch `now`, every item in bag
/// `(now + 1) % BAGS` has a tag `t ≡ now + 1 (mod 3)` with `t <= now`, hence
/// `t <= now - 2` — the whole bag is eligible and is freed wholesale, making
/// collection O(freed) instead of O(everything-retired-and-waiting).
const BAGS: usize = 3;

/// Epoch slots start at 1 so that 0 can mean "not pinned".
static GLOBAL_EPOCH: AtomicU64 = AtomicU64::new(1);

/// One cache line per slot: every `load` of every cell publishes into its
/// slot, so adjacent slots must not share a line.
#[repr(align(64))]
struct EpochSlot(AtomicU64);

static SLOT_EPOCH: [EpochSlot; MAX_THREADS] = [const { EpochSlot(AtomicU64::new(0)) }; MAX_THREADS];
static SLOT_CLAIMED: [AtomicBool; MAX_THREADS] = [const { AtomicBool::new(false) }; MAX_THREADS];

/// One past the highest slot index ever claimed: collection scans only
/// `0..high_water`, so a process using a handful of threads never pays for
/// the full table.
static SLOTS_HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// Garbage abandoned by exited threads, freed by whichever thread collects
/// next. Only touched on the cold paths (thread exit, collection).
static ORPHANS: Mutex<[Vec<Garbage>; BAGS]> = Mutex::new([Vec::new(), Vec::new(), Vec::new()]);

/// A retired allocation: an erased destructor plus the pointer. The retire
/// epoch is implied by which bag the item sits in (`tag % BAGS`). The pointee
/// is `Send` (enforced by [`retire`]), so any thread may run the destructor.
struct Garbage {
    ptr: *mut (),
    drop_fn: unsafe fn(*mut ()),
}

// Safety: `defer_drop` only accepts `T: Send`, and `ptr` is uniquely owned by
// this `Garbage` from retire to free.
unsafe impl Send for Garbage {}

impl Garbage {
    /// Frees the allocation. Caller asserts the epoch condition of the
    /// module-level safety argument.
    unsafe fn free(self) {
        (self.drop_fn)(self.ptr);
    }
}

unsafe fn drop_boxed<T>(ptr: *mut ()) {
    drop(unsafe { Box::from_raw(ptr.cast::<T>()) });
}

/// Per-thread participant state: the claimed slot, the pin depth (pins
/// nest), and the epoch-residue-indexed garbage bags.
struct Participant {
    slot: usize,
    depth: Cell<usize>,
    garbage: RefCell<[Vec<Garbage>; BAGS]>,
    since_collect: Cell<usize>,
}

impl Participant {
    fn register() -> Participant {
        for (slot, claimed) in SLOT_CLAIMED.iter().enumerate() {
            if claimed
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                SLOTS_HIGH_WATER.fetch_max(slot + 1, Ordering::SeqCst);
                return Participant {
                    slot,
                    depth: Cell::new(0),
                    garbage: RefCell::new([Vec::new(), Vec::new(), Vec::new()]),
                    since_collect: Cell::new(0),
                };
            }
        }
        panic!("epoch registry full: more than {MAX_THREADS} live threads use the base objects");
    }
}

impl Drop for Participant {
    fn drop(&mut self) {
        // A thread never exits while pinned (guards are scoped), so the slot
        // is already clear; store anyway for defense in depth, then hand any
        // remaining garbage to the orphan bags and recycle the slot.
        SLOT_EPOCH[self.slot].0.store(0, Ordering::Release);
        let leftover = std::mem::take(&mut *self.garbage.borrow_mut());
        if leftover.iter().any(|bag| !bag.is_empty()) {
            let mut orphans = ORPHANS.lock().unwrap_or_else(|e| e.into_inner());
            for (bag, mut local) in orphans.iter_mut().zip(leftover) {
                bag.append(&mut local);
            }
        }
        SLOT_CLAIMED[self.slot].store(false, Ordering::Release);
    }
}

thread_local! {
    static PARTICIPANT: Participant = Participant::register();
}

/// Pins the calling thread: until the returned [`Guard`] (and any nested
/// guards) drop, no record unlinked *after* this call will be freed, so
/// pointers loaded from protected locations stay dereferenceable.
#[inline]
pub fn pin() -> Guard {
    PARTICIPANT.with(|p| {
        let depth = p.depth.get();
        p.depth.set(depth + 1);
        if depth == 0 {
            let slot = &SLOT_EPOCH[p.slot].0;
            let mut e = GLOBAL_EPOCH.load(Ordering::Relaxed);
            loop {
                // A single `SeqCst` swap both publishes the slot and orders
                // the publication before the re-read and before any
                // subsequent protected load (an RMW is cheaper than a
                // relaxed store followed by a standalone `SeqCst` fence on
                // common hardware — this runs on every `VersionedCell` read).
                slot.swap(e, Ordering::SeqCst);
                let now = GLOBAL_EPOCH.load(Ordering::SeqCst);
                if now == e {
                    break;
                }
                // The epoch moved between the read and the publication;
                // republish so the settled pin equals the current epoch
                // (invariant 1 of the safety argument).
                e = now;
            }
            // Adversarial schedules: optionally park *while pinned*, stalling
            // epoch advance for every other thread.
            crate::chaos::maybe_park_pinned();
        }
    });
    Guard {
        _not_send: std::marker::PhantomData,
    }
}

/// Returns true if the calling thread currently holds at least one [`Guard`].
pub fn is_pinned() -> bool {
    PARTICIPANT.with(|p| p.depth.get() > 0)
}

/// The current global epoch (diagnostics and tests).
pub fn global_epoch() -> u64 {
    GLOBAL_EPOCH.load(Ordering::SeqCst)
}

/// An active pin on the calling thread. Dropping the last nested guard
/// unpins the thread. Guards are `!Send`: a pin is a property of one thread.
#[must_use = "the pin ends as soon as the guard is dropped"]
pub struct Guard {
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl Guard {
    /// Queues `ptr` (a `Box`-allocated `T` that the caller has just unlinked
    /// from every shared location) to be dropped once no pinned thread can
    /// still hold it.
    ///
    /// # Safety
    ///
    /// Same contract as [`retire`] (taking `&self` merely documents that the
    /// caller is pinned, which hot paths like a successful compare&swap
    /// already are).
    pub unsafe fn defer_drop<T: Send + 'static>(&self, ptr: *mut T) {
        unsafe { retire(ptr) };
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // `try_with`, not `with`: safe code may stash a guard in another
        // thread-local whose destructor runs after the participant's. The
        // participant's own destructor already cleared the slot and released
        // it, so skipping the bookkeeping here is correct — and anything
        // else would touch freed state.
        let _ = PARTICIPANT.try_with(|p| {
            let depth = p.depth.get();
            p.depth.set(depth - 1);
            if depth == 1 {
                SLOT_EPOCH[p.slot].0.store(0, Ordering::Release);
            }
        });
    }
}

/// Queues `ptr` (a `Box`-allocated `T` that the caller has just unlinked
/// from every shared location) to be dropped once no pinned thread can still
/// hold it.
///
/// The caller does **not** need to be pinned: retiring only requires that
/// the unlink has already happened (a pure writer like `VersionedCell::store`
/// swaps the pointer and retires the old record without ever dereferencing
/// it, so it skips the pin entirely).
///
/// # Safety
///
/// * `ptr` came from [`Box::into_raw`] and is not reachable from any shared
///   location anymore (it was unlinked before this call).
/// * No new reference to `ptr` will be created after this call.
/// * `ptr` is not retired twice.
pub unsafe fn retire<T: Send + 'static>(ptr: *mut T) {
    // If the thread-local participant is already destroyed (a retire from
    // inside another thread-local's destructor during thread exit), there is
    // nowhere safe to queue the garbage: leak it rather than free it under a
    // possibly-pinned concurrent reader. The OS reclaims it at process exit.
    let _ = PARTICIPANT.try_with(|p| unsafe { retire_with(p, ptr) });
}

unsafe fn retire_with<T: Send + 'static>(p: &Participant, ptr: *mut T) {
    // The tag is read *after* the unlink (the safety contract: the caller
    // unlinked first), making it an upper bound on the pin of any reader
    // that still holds the pointer — invariant 2. That ordering needs a
    // store→load barrier between the caller's unlink and the tag read. On
    // x86/x86-64 (TSO) the unlink — always an atomic RMW (`swap` or
    // `compare_exchange`) — is itself a full barrier; weakly ordered
    // targets need an explicit fence here.
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    fence(Ordering::SeqCst);
    // The tag is not stored: membership in bag `tag % BAGS` encodes it.
    let retired_at = GLOBAL_EPOCH.load(Ordering::SeqCst);
    crate::metrics::epoch_retired().inc();
    crate::metrics::epoch_bag_items().inc();
    let item = Garbage {
        ptr: ptr.cast::<()>(),
        drop_fn: drop_boxed::<T>,
    };
    p.garbage.borrow_mut()[(retired_at % BAGS as u64) as usize].push(item);
    let n = p.since_collect.get() + 1;
    if n >= COLLECT_EVERY {
        p.since_collect.set(0);
        collect_local(p);
    } else {
        p.since_collect.set(n);
    }
}

/// Tries to advance the global epoch by one. Succeeds only if every pinned
/// slot already equals the current epoch. Returns the (possibly advanced)
/// global epoch.
fn try_advance() -> u64 {
    let g = GLOBAL_EPOCH.load(Ordering::SeqCst);
    // Order this scan against the pinning threads' slot publications. Only
    // slots up to the high-water mark can ever have been claimed.
    fence(Ordering::SeqCst);
    let high = SLOTS_HIGH_WATER.load(Ordering::SeqCst);
    for (slot, claimed) in SLOT_CLAIMED.iter().enumerate().take(high) {
        if claimed.load(Ordering::Acquire) {
            let e = SLOT_EPOCH[slot].0.load(Ordering::SeqCst);
            if e != 0 && e != g {
                // A pinned straggler defers this round of reclamation.
                crate::metrics::epoch_deferrals().inc();
                return g;
            }
        }
    }
    fence(Ordering::SeqCst);
    // A lost race means someone else advanced; either way the epoch moved.
    if GLOBAL_EPOCH
        .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        crate::metrics::epoch_advances().inc();
    }
    GLOBAL_EPOCH.load(Ordering::SeqCst)
}

/// The one bag whose entire residue class is eligible at `epoch_now`:
/// every item in bag `(now + 1) % BAGS` has tag `t ≡ now + 1 (mod BAGS)`
/// with `t <= now`, hence `t <= now - 2`. Freeing it is O(items freed) — no
/// scan of garbage that must keep waiting.
fn eligible_bag(epoch_now: u64) -> usize {
    ((epoch_now + 1) % BAGS as u64) as usize
}

/// Frees every item of `bag`, leaving it empty with its capacity. The
/// caller must have detached `bag` from whatever borrow or lock guards the
/// bag collection: a reclaimed value's `Drop` may legitimately re-enter this
/// module (a value whose destructor stores into another cell retires more
/// garbage).
fn free_bag(bag: &mut Vec<Garbage>) {
    let freed = bag.len() as u64;
    if freed > 0 {
        crate::metrics::epoch_freed().add(freed);
        crate::metrics::epoch_bag_items().sub(freed as i64);
        crate::metrics::epoch_freed_per_collect().record(freed);
    }
    for item in bag.drain(..) {
        // Safety: the epoch condition of the module-level argument holds.
        unsafe { item.free() };
    }
}

fn collect_local(p: &Participant) {
    let now = try_advance();
    // Local bags: every item was pushed by *this* thread before this call,
    // so its tag is at most `now` and the eligibility argument of
    // `eligible_bag` applies directly. The bag is taken out and the borrow
    // released before the destructors run (see `free_bag`); the drained
    // vector then goes back to its slot, so a steady writer reuses its bag
    // capacity instead of regrowing it every collection — unless a
    // re-entrant retire refilled the slot meanwhile, whose vector stays.
    let at = eligible_bag(now);
    let mut eligible = std::mem::take(&mut p.garbage.borrow_mut()[at]);
    free_bag(&mut eligible);
    if let Some(slot) = p.garbage.borrow_mut().get_mut(at) {
        if slot.capacity() == 0 {
            *slot = eligible;
        }
    }
    // Opportunistically drain garbage abandoned by exited threads. `try_lock`
    // keeps this path non-blocking, and the guard is released before the
    // destructors run below.
    // The epoch must be re-read *under the lock*: another thread may retire
    // at a newer epoch and exit (appending to these bags) after
    // `try_advance` above returned, and freeing bag `(stale + 1) % BAGS`
    // could then hit an item retired in the current epoch. An append holds
    // the lock, so every item present now was tagged no later than this
    // lock-held read, restoring `t <= now`.
    let mut orphaned = if let Ok(mut orphans) = ORPHANS.try_lock() {
        let now = GLOBAL_EPOCH.load(Ordering::SeqCst);
        std::mem::take(&mut orphans[eligible_bag(now)])
    } else {
        Vec::new()
    };
    free_bag(&mut orphaned);
}

/// Attempts one epoch advance and frees everything eligible on the calling
/// thread (plus orphans). Primarily for tests and quiescent points; normal
/// operation collects automatically every 8 retirements.
pub fn flush() {
    PARTICIPANT.with(collect_local);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Increments a shared counter when dropped.
    struct Token(Arc<AtomicUsize>);
    impl Drop for Token {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn retire_token(drops: &Arc<AtomicUsize>) {
        let guard = pin();
        let raw = Box::into_raw(Box::new(Token(Arc::clone(drops))));
        // Safety: freshly allocated, never shared, retired once.
        unsafe { guard.defer_drop(raw) };
    }

    #[test]
    fn pin_nests_and_unpins() {
        assert!(!is_pinned());
        let g1 = pin();
        assert!(is_pinned());
        let g2 = pin();
        drop(g1);
        assert!(is_pinned());
        drop(g2);
        assert!(!is_pinned());
    }

    #[test]
    fn deferred_drops_run_after_epoch_advance() {
        let drops = Arc::new(AtomicUsize::new(0));
        const N: usize = 500;
        for _ in 0..N {
            retire_token(&drops);
        }
        // Other tests in this process may hold pins transiently; keep
        // flushing until everything this test retired has been freed.
        let deadline = Instant::now() + Duration::from_secs(30);
        while drops.load(Ordering::SeqCst) < N {
            flush();
            assert!(
                Instant::now() < deadline,
                "garbage was not reclaimed: {}/{N} freed",
                drops.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        assert_eq!(drops.load(Ordering::SeqCst), N);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let drops = Arc::new(AtomicUsize::new(0));
        let reader = pin();
        // Retire while a pin is live on this very thread: nothing retired
        // from here on may be freed until the pin drops, because the global
        // epoch cannot advance past `pin + 1`.
        for _ in 0..10 {
            retire_token(&drops);
        }
        for _ in 0..50 {
            flush();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "garbage freed while a same-aged pin was live"
        );
        drop(reader);
        let deadline = Instant::now() + Duration::from_secs(30);
        while drops.load(Ordering::SeqCst) < 10 {
            flush();
            assert!(Instant::now() < deadline, "garbage leaked after unpin");
            std::thread::yield_now();
        }
    }

    #[test]
    fn destructors_may_reenter_the_epoch_machinery() {
        // A reclaimed value whose `Drop` retires more garbage must not
        // panic: the bag borrow is released before destructors run.
        struct Chain {
            depth: usize,
            drops: Arc<AtomicUsize>,
        }
        impl Drop for Chain {
            fn drop(&mut self) {
                self.drops.fetch_add(1, Ordering::SeqCst);
                if self.depth > 0 {
                    let guard = pin();
                    let raw = Box::into_raw(Box::new(Chain {
                        depth: self.depth - 1,
                        drops: Arc::clone(&self.drops),
                    }));
                    // Safety: freshly allocated, never shared, retired once.
                    unsafe { guard.defer_drop(raw) };
                }
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        // Enough retirements to cross COLLECT_EVERY repeatedly, so some
        // destructors run *inside* collect_local.
        for _ in 0..200 {
            let guard = pin();
            let raw = Box::into_raw(Box::new(Chain {
                depth: 3,
                drops: Arc::clone(&drops),
            }));
            unsafe { guard.defer_drop(raw) };
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while drops.load(Ordering::SeqCst) < 200 * 4 {
            flush();
            assert!(
                Instant::now() < deadline,
                "re-entrant retirements were not reclaimed: {} freed",
                drops.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn exiting_thread_hands_garbage_to_orphans() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let drops = Arc::clone(&drops);
            std::thread::spawn(move || {
                // Retire fewer than COLLECT_EVERY items so the thread exits
                // with all of them still queued locally.
                for _ in 0..5 {
                    retire_token(&drops);
                }
            })
            .join()
            .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while drops.load(Ordering::SeqCst) < 5 {
            flush();
            assert!(Instant::now() < deadline, "orphaned garbage never freed");
            std::thread::yield_now();
        }
    }

    #[test]
    fn global_epoch_advances_when_unpinned() {
        let before = global_epoch();
        for _ in 0..3 {
            flush();
        }
        // Concurrent tests may hold short pins; at least one of the three
        // attempts overlapping no pin must advance in practice. Tolerate the
        // rare fully-contended run by only requiring monotonicity.
        assert!(global_epoch() >= before);
    }

    #[test]
    fn slots_are_recycled_across_threads() {
        // Far more threads than MAX_THREADS, sequentially: registration must
        // never exhaust the slot table because exit releases the slot.
        for _ in 0..MAX_THREADS + 64 {
            std::thread::spawn(|| {
                let _g = pin();
            })
            .join()
            .unwrap();
        }
    }
}
