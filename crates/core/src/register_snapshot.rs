//! The register-only partial snapshot of Figure 1.
//!
//! ```text
//! update(i, v)                                    scan(i1, …, ir)
//!   scanners ← getSet                               A[id] ← (i1, …, ir)
//!   (i1, …, ik) ← ⋃_{p ∈ scanners} A[p]             join
//!   view ← embedded-scan(i1, …, ik)                 view ← embedded-scan(i1, …, ir)
//!   R[i] ← (v, view, counter, id)                   leave
//!   counter ← counter + 1                           return view projected on (i1, …, ir)
//!
//! embedded-scan(i1, …, ir)
//!   repeatedly read R[i1], …, R[ir] until either
//!     (1) two consecutive collects are identical → return those values, or
//!     (2) three different values written by the same process have been seen
//!         (in any locations) → return the view of the one with the highest
//!         counter.
//! ```
//!
//! This algorithm adapts the classical snapshot of Afek et al. to partial
//! scans: the helping information recorded by an update covers only the
//! components that *currently announced scanners* need, so updates do not pay
//! for the full width `m` of the object. Theorem 1 bounds the step complexity
//! by `O((Cu+1)·r + A)` per scan and `O(Cu·Cs·rmax + A)` per update, where `A`
//! is the cost of the active set operations (the paper cites the adaptive
//! collect of Attiya–Zach for `A = O(Ċs²)`; this reproduction instantiates the
//! object with either the register-based collect baseline, `A = O(n)`, or the
//! paper's own Figure 2 active set — see DESIGN.md).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psnap_activeset::{ActiveSet, CollectActiveSet};
use psnap_shmem::{ProcessId, VersionedCell};

use crate::batch::{dedupe_last_write_wins, BatchGate};
use crate::collect::{collect, same_collect, view_of_collect, PerWriterTracker};
use crate::entry::Entry;
use crate::traits::{validate_args, validate_batch_args, PartialSnapshot};
use crate::view::View;

/// The Figure 1 partial snapshot object (registers only).
pub struct RegisterPartialSnapshot<T, A: ActiveSet = CollectActiveSet> {
    /// `R[1..m]` — one register per component.
    registers: Vec<VersionedCell<Entry<T>>>,
    /// `A[1..n]` — per-process single-writer announcement registers.
    announcements: Vec<VersionedCell<Vec<usize>>>,
    /// Active set of processes currently performing a scan.
    scanners: A,
    /// Per-process update counters (each slot written only by its owner).
    counters: Vec<AtomicU64>,
    /// Guards multi-component batches (see [`crate::batch`]).
    batches: BatchGate,
    n: usize,
}

impl<T: Clone + Send + Sync + 'static> RegisterPartialSnapshot<T, CollectActiveSet> {
    /// Creates an object with `m` components, all holding `initial`, usable by
    /// processes `0..max_processes`, with the register-based active set.
    pub fn new(m: usize, max_processes: usize, initial: T) -> Self {
        Self::with_active_set(
            m,
            max_processes,
            initial,
            CollectActiveSet::new(max_processes),
        )
    }
}

impl<T: Clone + Send + Sync + 'static, A: ActiveSet> RegisterPartialSnapshot<T, A> {
    /// Creates an object with an explicit active set implementation.
    pub fn with_active_set(m: usize, max_processes: usize, initial: T, active_set: A) -> Self {
        assert!(m > 0, "a snapshot object needs at least one component");
        assert!(max_processes > 0, "at least one process must be allowed");
        RegisterPartialSnapshot {
            registers: (0..m)
                .map(|_| VersionedCell::new(Entry::initial(initial.clone())))
                .collect(),
            announcements: (0..max_processes)
                .map(|_| VersionedCell::new(Vec::new()))
                .collect(),
            scanners: active_set,
            counters: (0..max_processes).map(|_| AtomicU64::new(0)).collect(),
            batches: BatchGate::new(),
            n: max_processes,
        }
    }

    /// The embedded scan of Figure 1.
    fn embedded_scan(&self, components: &[usize]) -> View<T> {
        if components.is_empty() {
            return View::empty();
        }
        let mut tracker = PerWriterTracker::new(self.n, components.len());
        let mut previous = collect(&self.registers, components);
        tracker.observe(&previous);
        // Each failed double collect reveals a write (writer, counter) pair
        // never seen before by this embedded scan, and a writer triggers
        // condition (2) at its third pair, so at most 2n failed double
        // collects can occur. The assert is a watchdog for the wait-freedom
        // argument, not a retry limit.
        let max_collects = 2 * self.n + 4;
        for iteration in 0..max_collects {
            let current = collect(&self.registers, components);
            if same_collect(&previous, &current) {
                return view_of_collect(components, &current);
            }
            if let Some(borrowed) = tracker.observe(&current) {
                return borrowed.value().view.clone();
            }
            previous = current;
            let _ = iteration;
        }
        unreachable!(
            "embedded scan exceeded the 2·Cu+1 collect bound of Theorem 1 — this indicates a \
             bug in the register implementation (a (writer, counter) pair reappeared)"
        )
    }

    fn announced_components(&self) -> Vec<usize> {
        let scanners = self.scanners.get_set();
        let mut set: BTreeSet<usize> = BTreeSet::new();
        for p in scanners {
            if p.index() < self.n {
                let announced = self.announcements[p.index()].load();
                set.extend(announced.value().iter().copied());
            }
        }
        set.into_iter().collect()
    }
}

impl<T: Clone + Send + Sync + 'static, A: ActiveSet> PartialSnapshot<T>
    for RegisterPartialSnapshot<T, A>
{
    fn components(&self) -> usize {
        self.registers.len()
    }

    fn max_processes(&self) -> usize {
        self.n
    }

    fn update(&self, pid: ProcessId, component: usize, value: T) {
        validate_args(self.registers.len(), self.n, pid, &[component]);
        // scanners ← getSet; (i1, …) ← ⋃ A[p]
        let announced = self.announced_components();
        // view ← embedded-scan(i1, …)
        let view = self.embedded_scan(&announced);
        // R[i] ← (v, view, counter, id); counter ← counter + 1
        let seq = self.counters[pid.index()].load(Ordering::Relaxed);
        self.registers[component].store(Entry::written(Arc::new(value), view, seq, pid));
        self.counters[pid.index()].store(seq + 1, Ordering::Relaxed);
    }

    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        validate_batch_args(self.registers.len(), self.n, pid, writes);
        let batch = dedupe_last_write_wins(writes);
        match batch.len() {
            0 => return,
            1 => return self.update(pid, batch[0].0, batch[0].1.clone()),
            _ => {}
        }
        // One getSet and one embedded helping scan for the whole batch — the
        // amortization that makes batching cheaper than a loop of updates.
        let announced = self.announced_components();
        let view = self.embedded_scan(&announced);
        let seq = self.counters[pid.index()].load(Ordering::Relaxed);
        let phase = self.batches.begin();
        for (k, (component, value)) in batch.iter().enumerate() {
            self.registers[*component].store(Entry::written(
                Arc::new((*value).clone()),
                view.clone(),
                seq + k as u64,
                pid,
            ));
        }
        self.counters[pid.index()].store(seq + batch.len() as u64, Ordering::Relaxed);
        drop(phase);
    }

    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        validate_args(self.registers.len(), self.n, pid, components);
        if components.is_empty() {
            return Vec::new();
        }
        // A[id] ← (i1, …, ir). Shared via `store_arc`: the announcement
        // register and this scan read the same allocation instead of cloning
        // the component list on the hot path.
        let mut announced: Vec<usize> = components.to_vec();
        announced.sort_unstable();
        announced.dedup();
        let announced = Arc::new(announced);
        self.announcements[pid.index()].store_arc(Arc::clone(&announced));
        // join; embedded-scan (batch-validated, see `crate::batch`); leave
        let ticket = self.scanners.join(pid);
        let view = self.batches.validated(|| self.embedded_scan(&announced));
        self.scanners.leave(pid, ticket);
        view.project(components).expect(
            "embedded scan must cover every announced component \
             (correctness argument of Section 3)",
        )
    }

    fn is_wait_free(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "register-partial-snapshot (Figure 1)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_activeset::CasActiveSet;
    use psnap_shmem::StepScope;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn sequential_update_and_scan() {
        let snap = RegisterPartialSnapshot::new(8, 2, 0u64);
        snap.update(ProcessId(0), 1, 10);
        snap.update(ProcessId(1), 6, 60);
        assert_eq!(snap.scan(ProcessId(0), &[1, 6, 7]), vec![10, 60, 0]);
        snap.update(ProcessId(0), 1, 11);
        assert_eq!(snap.scan(ProcessId(1), &[1]), vec![11]);
        assert_eq!(snap.name(), "register-partial-snapshot (Figure 1)");
        assert!(snap.is_wait_free());
    }

    #[test]
    fn repeated_identical_updates_are_distinguished() {
        // Writing the same value twice must not confuse the double collect
        // (the ABA hazard the paper's (id, counter) tag exists to prevent).
        let snap = RegisterPartialSnapshot::new(2, 2, 7u64);
        snap.update(ProcessId(0), 0, 7);
        snap.update(ProcessId(0), 0, 7);
        assert_eq!(snap.scan(ProcessId(1), &[0, 1]), vec![7, 7]);
    }

    #[test]
    fn quiescent_scan_cost_is_independent_of_m() {
        for m in [16usize, 1024] {
            let snap = RegisterPartialSnapshot::new(m, 4, 0u64);
            let comps = [0usize, m / 2, m - 1];
            let scope = StepScope::start();
            let _ = snap.scan(ProcessId(0), &comps);
            let steps = scope.finish().total();
            // announce + join + 2 collects of 3 reads + leave + n-wide getSet
            // is *not* part of a scan (only updates call getSet), so the cost
            // is small and m-independent.
            assert!(steps <= 16, "scan took {steps} steps for m={m}");
        }
    }

    #[test]
    fn update_cost_scales_with_announced_scanners_not_m() {
        // With no scanners announced, the update's embedded scan is empty
        // even though the object is wide.
        let snap = RegisterPartialSnapshot::new(4096, 4, 0u64);
        let scope = StepScope::start();
        snap.update(ProcessId(0), 1000, 5);
        let steps = scope.finish().total();
        // getSet over 4 flags + empty embedded scan + 1 write.
        assert!(steps <= 8, "update took {steps} steps");
    }

    #[test]
    fn works_with_the_figure_2_active_set() {
        let snap = RegisterPartialSnapshot::with_active_set(16, 4, 0u64, CasActiveSet::new());
        snap.update(ProcessId(0), 2, 22);
        assert_eq!(snap.scan(ProcessId(3), &[2, 3]), vec![22, 0]);
    }

    #[test]
    fn concurrent_scans_and_updates_remain_consistent() {
        // Single writer per component, strictly increasing values; scanners
        // check per-component monotonicity across their own scans and
        // "no tearing below the diagonal": within one scan, values cannot be
        // older than what the same scan already proved to be written.
        let snap = Arc::new(RegisterPartialSnapshot::new(8, 6, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let updaters: Vec<_> = (0..2usize)
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
        let scanners: Vec<_> = (2..6usize)
            .map(|pid| {
                let snap = Arc::clone(&snap);
                thread::spawn(move || {
                    let comps = [0usize, 3, 4, 7];
                    let mut last = vec![0u64; comps.len()];
                    for _ in 0..1500 {
                        let got = snap.scan(ProcessId(pid), &comps);
                        for (g, l) in got.iter().zip(last.iter_mut()) {
                            assert!(*g >= *l, "monotonicity violated: {g} < {l}");
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
        for u in updaters {
            u.join().unwrap();
        }
    }

    #[test]
    fn helping_lets_slow_scanners_finish_under_constant_churn() {
        // Keep two updaters writing to exactly the components being scanned;
        // without the helping mechanism a double collect could retry forever,
        // with it every scan terminates (wait-freedom).
        let snap = Arc::new(RegisterPartialSnapshot::new(4, 4, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let updaters: Vec<_> = (0..2usize)
            .map(|t| {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut v = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        snap.update(ProcessId(t), (v % 4) as usize, v);
                        v += 1;
                    }
                })
            })
            .collect();
        for _ in 0..2000 {
            let got = snap.scan(ProcessId(3), &[0, 1, 2, 3]);
            assert_eq!(got.len(), 4);
        }
        stop.store(true, Ordering::Relaxed);
        for u in updaters {
            u.join().unwrap();
        }
    }
}
