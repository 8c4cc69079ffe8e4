//! `VersionedCell`: a lock-free atomic register over large immutable records
//! that also supports compare&swap.
//!
//! The paper's algorithms store records of the form `(value, view, counter,
//! id)` in a single register or compare&swap object. Such records are far too
//! large for a hardware word, so — exactly as the paper suggests — the cell
//! stores a pointer to an immutable heap record and swings that pointer
//! atomically:
//!
//! * [`load`](VersionedCell::load) is **one acquire load of the pointer**
//!   (wait-free; the cell word itself is never written by a read);
//! * [`store`](VersionedCell::store) is one atomic `swap` of the pointer;
//! * [`compare_and_swap`](VersionedCell::compare_and_swap) is one hardware
//!   `compare_exchange` on the pointer.
//!
//! Each operation is a single linearizable base-object step, and no
//! operation ever blocks, spins on a lock word, or makes a syscall, which is
//! what lets throughput keep scaling with threads (the repo benchmark's
//! `shmem.cell_load_ns` / `shmem.cell_cas_ns` rungs price one operation).
//!
//! Records unlinked by `store`/`compare_and_swap` are reclaimed through the
//! vendored epoch scheme of [`crate::epoch`]: every operation runs under an
//! epoch pin, and an unlinked record is only freed once no pinned thread can
//! still dereference it. Values themselves are `Arc`s inside the record, so a
//! [`Versioned`] handle returned by `load` remains valid arbitrarily long
//! after the register is overwritten — and after the record that carried it
//! has been reclaimed.
//!
//! Every installed record carries a *stamp* that is unique within the cell.
//! Two loads returning equal stamps therefore guarantee that the register held
//! that exact record for the whole interval between the loads (the property
//! the paper obtains by tagging writes with `(id, counter)`), and
//! [`VersionedCell::compare_and_swap`] succeeds exactly when the register
//! still holds the record the caller previously loaded. There is no ABA
//! window at either level: stamps are never reused, and the epoch pin keeps a
//! compared pointer from being freed and reallocated mid-operation.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::epoch;
use crate::steps::{self, OpKind};

/// A value read from a [`VersionedCell`], together with the version stamp it
/// had when it was read.
///
/// `Versioned` is cheap to clone (it clones an `Arc`) and is the token passed
/// back to [`VersionedCell::compare_and_swap`] as the expected old value.
#[derive(Debug)]
pub struct Versioned<T> {
    stamp: u64,
    value: Arc<T>,
}

// Manual impl: cloning a version handle only clones the `Arc`, so it must not
// require `T: Clone` (a derived impl would add that bound).
impl<T> Clone for Versioned<T> {
    fn clone(&self) -> Self {
        Versioned {
            stamp: self.stamp,
            value: Arc::clone(&self.value),
        }
    }
}

impl<T> Versioned<T> {
    /// Assembles a version handle.
    fn from_parts(stamp: u64, value: Arc<T>) -> Self {
        Versioned { stamp, value }
    }

    /// The record that was stored in the cell.
    #[inline]
    pub fn value(&self) -> &T {
        &self.value
    }

    /// A shared handle to the record.
    #[inline]
    pub fn arc(&self) -> Arc<T> {
        Arc::clone(&self.value)
    }

    /// The version stamp: unique per cell and never reused, so equal stamps
    /// mean the identical install. Stamps increase in allocation order, which
    /// matches install order for non-overlapping operations (and along any
    /// chain of successful compare&swaps); two *concurrent* stores may commit
    /// in the opposite order of their stamps — concurrent writes to a
    /// register have no inherent order, and nothing in the paper's algorithms
    /// compares stamps for magnitude.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Returns true if `self` and `other` were read from the same install of
    /// the same cell (i.e. the register provably did not change in between).
    #[inline]
    pub fn same_version(&self, other: &Versioned<T>) -> bool {
        self.stamp == other.stamp
    }
}

impl<T> std::ops::Deref for Versioned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// The immutable heap record a cell points at. The stamp is embedded in the
/// record, so a single pointer load observes `(stamp, value)` atomically.
struct Record<T> {
    stamp: u64,
    value: Arc<T>,
}

/// A lock-free atomic register / compare&swap object over immutable records
/// of type `T`.
///
/// * [`load`](VersionedCell::load) is the paper's `read` (one step, kind
///   [`OpKind::Read`]).
/// * [`store`](VersionedCell::store) is the paper's `write` (one step, kind
///   [`OpKind::Write`]).
/// * [`compare_and_swap`](VersionedCell::compare_and_swap) is the paper's
///   `compare&swap(old, new)` (one step, kind [`OpKind::Cas`]), where `old` is
///   identified by the version previously returned from `load`.
///
/// All three operations are linearizable; each is one base-object step of the
/// cost model, and each is a single hardware operation on the cell's pointer
/// word (`load` / `swap` / `compare_exchange`).
pub struct VersionedCell<T> {
    ptr: AtomicPtr<Record<T>>,
    next_stamp: AtomicU64,
}

// Safety: the cell hands out `Arc<T>` clones across threads (needs
// `T: Send + Sync`) and defers record drops to arbitrary threads (needs
// `T: Send`). The pointer itself is only mutated atomically.
unsafe impl<T: Send + Sync> Send for VersionedCell<T> {}
unsafe impl<T: Send + Sync> Sync for VersionedCell<T> {}

impl<T: Send + Sync + 'static> VersionedCell<T> {
    /// Creates a cell holding `initial` (stamp 0).
    pub fn new(initial: T) -> Self {
        Self::from_arc(Arc::new(initial))
    }

    /// Creates a cell holding an already-shared record.
    pub fn from_arc(initial: Arc<T>) -> Self {
        VersionedCell {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(Record {
                stamp: 0,
                value: initial,
            }))),
            next_stamp: AtomicU64::new(1),
        }
    }

    fn fresh_stamp(&self) -> u64 {
        // Internal bookkeeping, not a base-object step of the algorithm.
        self.next_stamp.fetch_add(1, Ordering::Relaxed)
    }

    /// Reads the current record **without** recording a base-object step.
    ///
    /// Diagnostic reads (the `Debug` impl, test assertions, monitoring) must
    /// not perturb the paper's step accounting: debug-printing a cell in the
    /// middle of a measured operation would otherwise inject a spurious
    /// [`OpKind::Read`]. This is not part of the paper's object interface —
    /// algorithm code uses [`load`](Self::load).
    pub fn peek(&self) -> Versioned<T> {
        let guard = epoch::pin();
        let rec = unsafe { &*self.ptr.load(Ordering::Acquire) };
        let v = Versioned::from_parts(rec.stamp, Arc::clone(&rec.value));
        drop(guard);
        v
    }

    /// Atomically reads the current record.
    pub fn load(&self) -> Versioned<T> {
        steps::record(OpKind::Read);
        self.peek()
    }

    /// Atomically replaces the current record with `value`.
    pub fn store(&self, value: T) {
        self.store_arc(Arc::new(value));
    }

    /// Atomically replaces the current record with an already-shared record.
    pub fn store_arc(&self, value: Arc<T>) {
        steps::record(OpKind::Write);
        let fresh = Box::into_raw(Box::new(Record {
            stamp: self.fresh_stamp(),
            value,
        }));
        let old = self.ptr.swap(fresh, Ordering::AcqRel);
        // No epoch pin: a pure write never dereferences the displaced
        // record, and `retire` only needs the unlink (the swap above) to
        // have happened first.
        // Safety: `old` was just unlinked by the swap and is never retired
        // twice (each install retires exactly the record it displaced).
        unsafe { epoch::retire(old) };
    }

    /// Atomically installs `new` if and only if the cell still holds the exact
    /// record previously observed as `expected`.
    ///
    /// On success returns the freshly installed version; on failure returns
    /// the record currently stored (which the caller may use as the next
    /// `expected`, or simply to observe the value that won).
    pub fn compare_and_swap(
        &self,
        expected: &Versioned<T>,
        new: T,
    ) -> Result<Versioned<T>, Versioned<T>> {
        self.compare_and_swap_arc(expected, Arc::new(new))
    }

    /// Like [`compare_and_swap`](Self::compare_and_swap) but takes an
    /// already-shared record.
    pub fn compare_and_swap_arc(
        &self,
        expected: &Versioned<T>,
        new: Arc<T>,
    ) -> Result<Versioned<T>, Versioned<T>> {
        steps::record(OpKind::Cas);
        let guard = epoch::pin();
        let current = self.ptr.load(Ordering::Acquire);
        // Safety: protected by the pin — `current` cannot be freed (or freed
        // and reallocated, which is what rules out pointer ABA below) while
        // this thread is pinned.
        let current_rec = unsafe { &*current };
        if current_rec.stamp != expected.stamp {
            return Err(Versioned::from_parts(
                current_rec.stamp,
                Arc::clone(&current_rec.value),
            ));
        }
        let stamp = self.fresh_stamp();
        let installed = Versioned::from_parts(stamp, Arc::clone(&new));
        let fresh = Box::into_raw(Box::new(Record { stamp, value: new }));
        match self
            .ptr
            .compare_exchange(current, fresh, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(old) => {
                // Safety: `old` (== `current`) was just unlinked by this CAS.
                unsafe { guard.defer_drop(old) };
                Ok(installed)
            }
            Err(winner) => {
                // Our record was never published: free it directly.
                // Safety: `fresh` was allocated above and never shared.
                drop(unsafe { Box::from_raw(fresh) });
                // Safety: `winner` is protected by the pin, as above.
                let winner_rec = unsafe { &*winner };
                Err(Versioned::from_parts(
                    winner_rec.stamp,
                    Arc::clone(&winner_rec.value),
                ))
            }
        }
    }
}

impl<T> Drop for VersionedCell<T> {
    fn drop(&mut self) {
        // Exclusive access: no concurrent operation can hold the current
        // record, and all displaced records went through `defer_drop`.
        let current = *self.ptr.get_mut();
        drop(unsafe { Box::from_raw(current) });
    }
}

impl<T: Send + Sync + 'static + std::fmt::Debug> std::fmt::Debug for VersionedCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `peek`, not `load`: formatting a cell must not count as a
        // base-object step of the algorithm being measured.
        let v = self.peek();
        f.debug_struct("VersionedCell")
            .field("stamp", &v.stamp())
            .field("value", v.value())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    #[test]
    fn load_store_roundtrip() {
        let cell = VersionedCell::new(10u64);
        assert_eq!(*cell.load().value(), 10);
        cell.store(20);
        assert_eq!(*cell.load().value(), 20);
        cell.store(30);
        let v = cell.load();
        assert_eq!(*v.value(), 30);
        assert!(v.stamp() >= 2);
    }

    #[test]
    fn stamps_identify_versions() {
        let cell = VersionedCell::new(String::from("a"));
        let v1 = cell.load();
        let v2 = cell.load();
        assert!(v1.same_version(&v2));
        cell.store(String::from("b"));
        let v3 = cell.load();
        assert!(!v1.same_version(&v3));
        // Storing an equal value still produces a distinct version — this is
        // what rules out ABA, mirroring the paper's (id, counter) tag.
        cell.store(String::from("b"));
        let v4 = cell.load();
        assert_eq!(v3.value(), v4.value());
        assert!(!v3.same_version(&v4));
    }

    #[test]
    fn cas_succeeds_only_on_current_version() {
        let cell = VersionedCell::new(1u32);
        let old = cell.load();
        let installed = cell.compare_and_swap(&old, 2).expect("cas should succeed");
        assert_eq!(*installed.value(), 2);
        // A second CAS with the stale expected version must fail and report
        // the winning value.
        let err = cell.compare_and_swap(&old, 3).unwrap_err();
        assert_eq!(*err.value(), 2);
        assert_eq!(*cell.load().value(), 2);
    }

    #[test]
    fn cas_failure_returns_usable_expected() {
        let cell = VersionedCell::new(0u32);
        let stale = cell.load();
        cell.store(5);
        let current = cell.compare_and_swap(&stale, 9).unwrap_err();
        // Retrying with the returned current version succeeds.
        cell.compare_and_swap(&current, 9).expect("retry succeeds");
        assert_eq!(*cell.load().value(), 9);
    }

    #[test]
    fn values_survive_overwrite() {
        let cell = VersionedCell::new(vec![1, 2, 3]);
        let v = cell.load();
        cell.store(vec![4]);
        cell.store(vec![5]);
        // The record obtained before the overwrites is still intact.
        assert_eq!(v.value(), &vec![1, 2, 3]);
    }

    #[test]
    fn values_survive_overwrite_past_reclamation() {
        // Like `values_survive_overwrite`, but with enough overwrites that
        // the records the handles came from are retired *and collected*: the
        // `Arc` inside the handle, not the record's lifetime, keeps the value
        // alive.
        let cell = VersionedCell::new(vec![1u64, 2, 3]);
        let early = cell.load();
        for i in 0..5_000u64 {
            cell.store(vec![i]);
        }
        crate::epoch::flush();
        assert_eq!(early.value(), &vec![1, 2, 3]);
        assert_eq!(*cell.load().value(), vec![4_999]);
    }

    #[test]
    fn steps_are_counted() {
        let cell = VersionedCell::new(0u8);
        let scope = crate::steps::StepScope::start();
        let v = cell.load();
        cell.store(1);
        let v2 = cell.load();
        let _ = cell.compare_and_swap(&v, 2); // fails, still one CAS step
        let _ = cell.compare_and_swap(&v2, 3);
        let report = scope.finish();
        assert_eq!(report.reads, 2);
        assert_eq!(report.writes, 1);
        assert_eq!(report.cas, 2);
    }

    #[test]
    fn peek_and_debug_do_not_count_steps() {
        let cell = VersionedCell::new(7u32);
        let scope = crate::steps::StepScope::start();
        let peeked = cell.peek();
        let text = format!("{cell:?}");
        let report = scope.finish();
        assert_eq!(*peeked.value(), 7);
        assert!(text.contains("VersionedCell"));
        assert!(text.contains('7'));
        assert_eq!(
            report.total(),
            0,
            "diagnostic reads must not perturb step accounting"
        );
        // A peeked version is a real version: it can seed a successful CAS.
        cell.compare_and_swap(&peeked, 8).expect("peek is current");
    }

    #[test]
    fn concurrent_cas_elects_exactly_one_winner_per_round() {
        // Many threads repeatedly try to CAS from the value they last saw to a
        // tagged new value; every version observed must have been installed by
        // exactly one successful CAS.
        const THREADS: usize = 8;
        const ATTEMPTS: usize = 200;
        let cell = Arc::new(VersionedCell::new((usize::MAX, 0usize)));
        let successes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let cell = Arc::clone(&cell);
            let successes = Arc::clone(&successes);
            handles.push(thread::spawn(move || {
                for a in 0..ATTEMPTS {
                    let cur = cell.load();
                    if cell.compare_and_swap(&cur, (t, a)).is_ok() {
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = successes.load(Ordering::Relaxed);
        assert!(total >= 1);
        assert!(total <= THREADS * ATTEMPTS);
        // Every successful install consumed at least one fresh stamp, so the
        // final stamp is never smaller than the number of winners.
        let final_version = cell.load();
        assert!(final_version.stamp() as usize >= total);
        // And the winning value must be one that some thread actually tried
        // to install.
        let (winner_thread, winner_attempt) = *final_version.value();
        assert!(winner_thread < THREADS && winner_attempt < ATTEMPTS);
    }

    #[test]
    fn concurrent_stores_and_loads_never_tear() {
        // Writers store (i, i * 31) pairs; readers must never observe a torn
        // record, because records are immutable.
        let cell = Arc::new(VersionedCell::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            handles.push(thread::spawn(move || {
                let mut i = w;
                while !stop.load(Ordering::Relaxed) {
                    cell.store((i, i.wrapping_mul(31)));
                    i += 4;
                }
            }));
        }
        let mut seen = HashSet::new();
        for _ in 0..20_000 {
            let v = cell.load();
            let (a, b) = *v.value();
            assert_eq!(b, a.wrapping_mul(31), "torn read observed");
            seen.insert(v.stamp());
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn stamps_strictly_increase_across_installs() {
        let cell = VersionedCell::new(0u32);
        let mut last = cell.load().stamp();
        for i in 1..100u32 {
            cell.store(i);
            let s = cell.load().stamp();
            assert!(s > last);
            last = s;
        }
    }

    #[test]
    fn from_arc_shares_the_record() {
        let record = Arc::new(vec![1u8, 2, 3]);
        let cell = VersionedCell::from_arc(Arc::clone(&record));
        let loaded = cell.load();
        assert!(Arc::ptr_eq(&loaded.arc(), &record));
    }
}
