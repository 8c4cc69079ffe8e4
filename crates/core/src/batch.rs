//! The batch coordination gate behind [`update_many`].
//!
//! [`update_many`]: crate::traits::PartialSnapshot::update_many
//!
//! # Why a gate is needed at all
//!
//! The collect-based algorithms (Figures 1 and 3, the classic full snapshot)
//! make a *single-register* write atomic by construction, but a batch of
//! writes applied register by register is not: a clean double collect can
//! land entirely between the batch's first and last write and return a
//! strict subset of the batch. The gate closes exactly that hole with a
//! validated window:
//!
//! * a batch *write phase* is bracketed by `writers += 1 … epoch += 1;
//!   writers -= 1` (batches themselves are serialized by a mutex, so at most
//!   one write phase is in flight per object);
//! * a scan wraps its collect loop in a validation loop: read `writers`
//!   (require 0) then `epoch`, run the embedded scan, re-read in the same
//!   order. If nothing moved, **no batch write overlapped the scan's
//!   collects** — any batch write is preceded by a visible `writers`
//!   increment and followed by an `epoch` increment, one of which would show
//!   at one of the two validation points — so the scan observed either all
//!   of a batch or none of it. The writers-before-epoch read order is
//!   load-bearing; see [`BatchGate::observe`].
//!
//! Single-component updates deliberately do **not** touch the gate: a single
//! write is atomic on its own, an update returns only an acknowledgement (it
//! observes nothing a checker can compare), and the views updates record for
//! the helping path are only ever *returned* by a scan whose validated window
//! provably contains the recording update's embedded scan (the condition-(2)
//! timing argument), which a batch write phase can never overlap. Keeping
//! singles off the gate keeps the paper's per-update step counts exactly as
//! they were.
//!
//! # Progress
//!
//! Batched updates make concurrent scans **blocking**: a scan waits while a
//! batch write phase is open (`observe` returns `None`), so a batcher
//! suspended — or crashed — inside its write phase stalls every scan on the
//! object until it resumes, the same failure mode as a stalled writer inside
//! `LockSnapshot`'s lock. A live but relentless batch stream can likewise invalidate windows unboundedly.
//! The wait-freedom theorems of the paper are about the single-update
//! interface, which is unchanged; objects whose workload uses `update_many`
//! trade scan wait-freedom for batch atomicity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use psnap_shmem::steps::{self, OpKind};

/// Epoch/writer pair guarding multi-component write phases (see the module
/// docs). One per snapshot object.
#[derive(Debug, Default)]
pub(crate) struct BatchGate {
    /// Serializes whole batches; held across view computation and the write
    /// phase so two batches can never interleave their writes.
    batches: Mutex<()>,
    /// 1 while a batch write phase is in flight, 0 otherwise.
    writers: AtomicU64,
    /// Number of completed batch write phases.
    epoch: AtomicU64,
}

/// Guard of a batch write phase; dropping it ends the phase.
pub(crate) struct BatchWriteGuard<'a> {
    gate: &'a BatchGate,
    _serial: MutexGuard<'a, ()>,
}

impl BatchGate {
    pub(crate) fn new() -> Self {
        BatchGate::default()
    }

    /// Serializes against other batches and opens a write phase. Counts one
    /// fetch&increment step (the `writers` raise); the mutex is process-local
    /// coordination between batches, not a base object the paper's model
    /// counts.
    pub(crate) fn begin(&self) -> BatchWriteGuard<'_> {
        let serial = self.batches.lock().unwrap_or_else(|e| e.into_inner());
        steps::record(OpKind::FetchInc);
        self.writers.fetch_add(1, Ordering::SeqCst);
        BatchWriteGuard {
            gate: self,
            _serial: serial,
        }
    }

    /// Reads the gate: `Some(epoch)` if no batch write phase is in flight.
    /// Counts two read steps (one if a writer is seen).
    ///
    /// `writers` MUST be read before `epoch`. A phase ends with `epoch += 1;
    /// writers -= 1`, so reading the pair in the opposite order lets an
    /// entire phase tail slip between the two loads of a *closing*
    /// validation read: the epoch load returns the pre-phase count, the
    /// phase then bumps the epoch and drops `writers`, and the writers load
    /// returns 0 — both halves look clean even though the validated body
    /// overlapped the phase's writes (a torn batch observed, then
    /// "validated"). Writers-first is safe on both ends of the window: a
    /// phase that finished before the writers load has already bumped the
    /// epoch the subsequent load reads, and a phase still in flight shows a
    /// non-zero writer count.
    pub(crate) fn observe(&self) -> Option<u64> {
        steps::record(OpKind::Read);
        if self.writers.load(Ordering::SeqCst) != 0 {
            return None;
        }
        steps::record(OpKind::Read);
        Some(self.epoch.load(Ordering::SeqCst))
    }

    /// Runs `body` until one execution fits entirely inside a batch-free
    /// validated window, and returns that execution's result.
    pub(crate) fn validated<R>(&self, mut body: impl FnMut() -> R) -> R {
        loop {
            let Some(before) = self.observe() else {
                std::thread::yield_now();
                continue;
            };
            let result = body();
            if self.observe() == Some(before) {
                return result;
            }
        }
    }
}

impl Drop for BatchWriteGuard<'_> {
    fn drop(&mut self) {
        steps::record(OpKind::FetchInc);
        self.gate.epoch.fetch_add(1, Ordering::SeqCst);
        steps::record(OpKind::FetchInc);
        self.gate.writers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Resolves duplicate components of one batch last-write-wins and drops the
/// rest, returning `(component, value)` in ascending component order. One
/// allocation, the returned vector: the writes are taken last to first and
/// stably sorted by component, so each component's run starts with its last
/// write, which `dedup` keeps.
pub(crate) fn dedupe_last_write_wins<T: Clone>(writes: &[(usize, T)]) -> Vec<(usize, &T)> {
    let mut latest: Vec<(usize, &T)> = writes.iter().rev().map(|(c, v)| (*c, v)).collect();
    latest.sort_by_key(|&(component, _)| component);
    latest.dedup_by_key(|&mut (component, _)| component);
    latest
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_shmem::StepScope;

    #[test]
    fn observe_sees_write_phases() {
        let gate = BatchGate::new();
        let e0 = gate.observe().expect("no batch in flight");
        {
            let _phase = gate.begin();
            assert_eq!(gate.observe(), None, "write phase must be visible");
        }
        let e1 = gate.observe().expect("phase ended");
        assert_eq!(e1, e0 + 1, "each phase bumps the epoch once");
    }

    #[test]
    fn validated_retries_until_the_window_is_clean() {
        let gate = BatchGate::new();
        // Quiescent: one round, exactly four gate reads.
        let scope = StepScope::start();
        let out = gate.validated(|| 42);
        let steps = scope.finish();
        assert_eq!(out, 42);
        assert_eq!(steps.reads, 4);

        // A phase completing mid-body forces a second round.
        let mut calls = 0;
        let out = gate.validated(|| {
            calls += 1;
            if calls == 1 {
                drop(gate.begin());
            }
            calls
        });
        assert_eq!(out, 2, "first round must be invalidated by the batch");
    }

    #[test]
    fn write_phase_counts_three_rmw_steps() {
        let gate = BatchGate::new();
        let scope = StepScope::start();
        drop(gate.begin());
        let steps = scope.finish();
        assert_eq!(steps.fetch_incs, 3);
        assert_eq!(steps.total(), 3);
    }

    #[test]
    fn dedupe_keeps_the_last_write_per_component() {
        let writes = vec![(3usize, 30u64), (1, 10), (3, 31), (1, 11), (2, 20)];
        let deduped = dedupe_last_write_wins(&writes);
        assert_eq!(
            deduped.iter().map(|(c, v)| (*c, **v)).collect::<Vec<_>>(),
            vec![(1, 11), (2, 20), (3, 31)]
        );
    }
}
