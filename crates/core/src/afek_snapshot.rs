//! The classical wait-free snapshot baseline (Afek, Attiya, Dolev, Gafni,
//! Merritt, Shavit, JACM 1993), adapted to the multi-writer register layout
//! used throughout this crate.
//!
//! Every update embeds a **full** scan of all `m` components and writes its
//! result alongside the new value; every scan repeatedly collects **all** `m`
//! components until it gets a clean double collect or can borrow the embedded
//! view of an update it has seen move three times. A *partial* scan is served
//! by running a full scan and projecting the requested components out of it —
//! precisely the "wasteful" construction the paper's introduction argues
//! against, which is why this type exists: it is the baseline whose scan and
//! update costs grow with `m` (`tests/paper_claims.rs` asserts the contrast).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psnap_shmem::{ProcessId, VersionedCell};

use crate::batch::{dedupe_last_write_wins, BatchGate};
use crate::collect::{collect, same_collect, view_of_collect, PerWriterTracker};
use crate::entry::Entry;
use crate::traits::{validate_args, validate_batch_args, PartialSnapshot};
use crate::view::View;

/// The classical full-snapshot object; partial scans are projections of full
/// scans.
pub struct AfekFullSnapshot<T> {
    registers: Vec<VersionedCell<Entry<T>>>,
    counters: Vec<AtomicU64>,
    all_components: Vec<usize>,
    /// Guards multi-component batches (see [`crate::batch`]).
    batches: BatchGate,
    n: usize,
}

impl<T: Clone + Send + Sync + 'static> AfekFullSnapshot<T> {
    /// Creates an object with `m` components, all holding `initial`, usable by
    /// processes `0..max_processes`.
    pub fn new(m: usize, max_processes: usize, initial: T) -> Self {
        assert!(m > 0, "a snapshot object needs at least one component");
        assert!(max_processes > 0, "at least one process must be allowed");
        AfekFullSnapshot {
            registers: (0..m)
                .map(|_| VersionedCell::new(Entry::initial(initial.clone())))
                .collect(),
            counters: (0..max_processes).map(|_| AtomicU64::new(0)).collect(),
            all_components: (0..m).collect(),
            batches: BatchGate::new(),
            n: max_processes,
        }
    }

    /// The embedded full scan: always reads all `m` components.
    fn full_scan(&self) -> View<T> {
        let components = &self.all_components;
        let mut tracker = PerWriterTracker::new(self.n, components.len());
        let mut previous = collect(&self.registers, components);
        tracker.observe(&previous);
        let max_collects = 2 * self.n + 4;
        for _ in 0..max_collects {
            let current = collect(&self.registers, components);
            if same_collect(&previous, &current) {
                return view_of_collect(components, &current);
            }
            if let Some(borrowed) = tracker.observe(&current) {
                return borrowed.value().view.clone();
            }
            previous = current;
        }
        unreachable!(
            "full scan exceeded its collect bound — this indicates a bug in the register \
             implementation"
        )
    }
}

impl<T: Clone + Send + Sync + 'static> PartialSnapshot<T> for AfekFullSnapshot<T> {
    fn components(&self) -> usize {
        self.registers.len()
    }

    fn max_processes(&self) -> usize {
        self.n
    }

    fn update(&self, pid: ProcessId, component: usize, value: T) {
        validate_args(self.registers.len(), self.n, pid, &[component]);
        // The embedded view always covers all m components.
        let view = self.full_scan();
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
        // One embedded full scan for the whole batch.
        let view = self.full_scan();
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
        // Full scan (batch-validated, see `crate::batch`), then project: the
        // cost is Θ(m) regardless of r.
        let view = self.batches.validated(|| self.full_scan());
        view.project(components)
            .expect("a full scan covers every component")
    }

    fn is_wait_free(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "afek-full-snapshot (baseline)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_shmem::StepScope;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn sequential_semantics() {
        let snap = AfekFullSnapshot::new(6, 2, 0u32);
        snap.update(ProcessId(0), 4, 44);
        snap.update(ProcessId(1), 0, 11);
        assert_eq!(snap.scan(ProcessId(0), &[0, 4, 5]), vec![11, 44, 0]);
        assert_eq!(snap.scan_all(ProcessId(1)), vec![11, 0, 0, 0, 44, 0]);
        assert!(snap.is_wait_free());
        assert_eq!(snap.name(), "afek-full-snapshot (baseline)");
    }

    #[test]
    fn partial_scan_cost_grows_with_m() {
        // The defining weakness of the baseline: scanning 2 components costs
        // at least m reads.
        for m in [16usize, 256, 1024] {
            let snap = AfekFullSnapshot::new(m, 2, 0u64);
            let scope = StepScope::start();
            let _ = snap.scan(ProcessId(0), &[0, m - 1]);
            let steps = scope.finish();
            assert!(
                steps.reads >= 2 * m as u64,
                "expected at least 2m = {} reads, got {}",
                2 * m,
                steps.reads
            );
        }
    }

    #[test]
    fn update_cost_also_grows_with_m() {
        let snap = AfekFullSnapshot::new(512, 2, 0u64);
        let scope = StepScope::start();
        snap.update(ProcessId(0), 0, 1);
        let steps = scope.finish();
        assert!(
            steps.reads >= 1024,
            "update read only {} registers",
            steps.reads
        );
    }

    #[test]
    fn concurrent_scans_stay_consistent_and_terminate() {
        let snap = Arc::new(AfekFullSnapshot::new(8, 4, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let updaters: Vec<_> = (0..2usize)
            .map(|t| {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut v = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        snap.update(ProcessId(t), (v % 8) as usize, v);
                        v += 1;
                    }
                })
            })
            .collect();
        for _ in 0..500 {
            let full = snap.scan_all(ProcessId(3));
            assert_eq!(full.len(), 8);
        }
        stop.store(true, Ordering::Relaxed);
        for u in updaters {
            u.join().unwrap();
        }
    }
}
