//! The paper's main algorithm (Figure 3): a partial snapshot object with
//! *local* partial scans, built from compare&swap objects and the Figure 2
//! active set.
//!
//! ```text
//! update(i, v)                                    scan(i1, …, ir)
//!   old ← R[i]                                      S[id] ← {i1, …, ir}
//!   scanners ← getSet                               join
//!   (i1, …, ik) ← ⋃_{p ∈ scanners} S[p]             view ← embedded-scan(i1, …, ir)
//!   view ← embedded-scan(i1, …, ik)                 leave
//!   compare&swap(old, (v, view, counter, id))       return view projected on (i1, …, ir)
//!     on R[i]
//!   if successful: counter ← counter + 1
//!
//! embedded-scan(i1, …, ir)
//!   repeatedly read R[i1], …, R[ir] until either
//!     (1) two consecutive collects are identical → return those values, or
//!     (2) three different values have been seen in some location
//!         → return the view of the third value seen there.
//! ```
//!
//! Key properties (Theorem 3):
//!
//! * **Local scans**: a partial scan of `r` components takes `O(r²)` steps in
//!   the worst case — independent of the total number of components `m`, of
//!   the number of processes, and of contention — because a compare&swap
//!   register changes value at most once per concurrent update and therefore
//!   condition (2) must fire within `2r + 1` collects.
//! * **Amortized efficiency**: `O(r² + Ċu)` per scan and `O(Cs²·rmax²)` per
//!   update, using the amortized analysis of the Figure 2 active set.
//! * **Wait-freedom and linearizability**: every operation finishes in a
//!   bounded number of its own steps, and all completed operations are
//!   consistent with a single sequential order (checked mechanically by the
//!   `psnap-sim` lincheck test suites).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psnap_activeset::{ActiveSet, CasActiveSet};
use psnap_shmem::{ProcessId, VersionedCell};

use crate::batch::{dedupe_last_write_wins, BatchGate};
use crate::collect::{collect, same_collect, view_of_collect, PerLocationTracker};
use crate::entry::Entry;
use crate::traits::{validate_args, validate_batch_args, PartialSnapshot};
use crate::view::View;

/// The Figure 3 partial snapshot object.
///
/// Generic over the active set implementation so that the contribution of the
/// Figure 2 active set can be measured in isolation (the `A = CollectActiveSet`
/// instantiation is used by the ablation benchmarks).
pub struct CasPartialSnapshot<T, A: ActiveSet = CasActiveSet> {
    /// `R[1..m]` — one compare&swap object per component.
    registers: Vec<VersionedCell<Entry<T>>>,
    /// `S[1..n]` — per-process single-writer announcement registers listing
    /// the components the process is currently trying to scan.
    announcements: Vec<VersionedCell<Vec<usize>>>,
    /// The active set of processes currently performing a scan.
    scanners: A,
    /// Per-process update counters (each slot written only by its owner).
    counters: Vec<AtomicU64>,
    /// Guards multi-component batches (see [`crate::batch`]); single updates
    /// and the scan fast path never take its mutex.
    batches: BatchGate,
    n: usize,
}

impl<T: Clone + Send + Sync + 'static> CasPartialSnapshot<T, CasActiveSet> {
    /// Creates an object with `m` components, all holding `initial`, usable by
    /// processes `0..max_processes`, with the paper's own active set.
    pub fn new(m: usize, max_processes: usize, initial: T) -> Self {
        Self::with_active_set(m, max_processes, initial, CasActiveSet::new())
    }
}

impl<T: Clone + Send + Sync + 'static, A: ActiveSet> CasPartialSnapshot<T, A> {
    /// Creates an object with an explicit active set implementation.
    pub fn with_active_set(m: usize, max_processes: usize, initial: T, active_set: A) -> Self {
        assert!(m > 0, "a snapshot object needs at least one component");
        assert!(max_processes > 0, "at least one process must be allowed");
        CasPartialSnapshot {
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

    /// The embedded scan of Figure 3. Returns a view covering at least the
    /// requested components.
    fn embedded_scan(&self, components: &[usize]) -> View<T> {
        if components.is_empty() {
            return View::empty();
        }
        let r = components.len();
        let mut tracker = PerLocationTracker::new(r);
        let mut previous = collect(&self.registers, components);
        tracker.observe(&previous);
        // Condition (2) must fire within 2r + 1 collects (see Theorem 3): each
        // failed double collect reveals a register version never seen before
        // in that location, and a location triggers at its third version. The
        // assert is a watchdog for the wait-freedom proof, not a retry limit.
        let max_collects = 2 * r + 2;
        for iteration in 0..max_collects {
            let current = collect(&self.registers, components);
            if same_collect(&previous, &current) {
                // Condition (1): clean double collect.
                return view_of_collect(components, &current);
            }
            if let Some(third) = tracker.observe(&current) {
                // Condition (2): borrow the embedded view of the third value
                // seen in that location.
                return third.value().view.clone();
            }
            previous = current;
            let _ = iteration;
        }
        unreachable!(
            "embedded scan exceeded the 2r+1 collect bound of Theorem 3 — this indicates a bug \
             in the compare&swap register (a value reappeared in a location)"
        )
    }

    /// Union of the announced component sets of all currently active scanners.
    fn announced_components(&self) -> Vec<usize> {
        let scanners = self.scanners.get_set();
        let mut set: BTreeSet<usize> = BTreeSet::new();
        // One epoch pin for the whole announcement sweep (see `collect`).
        let _pin = psnap_shmem::epoch::pin();
        for p in scanners {
            // The active set is private to this object, so every member is a
            // process id < n; guard anyway so a misuse cannot cause a panic
            // deep inside an update.
            if p.index() < self.n {
                let announced = self.announcements[p.index()].load();
                set.extend(announced.value().iter().copied());
            }
        }
        set.into_iter().collect()
    }
}

impl<T: Clone + Send + Sync + 'static, A: ActiveSet> PartialSnapshot<T>
    for CasPartialSnapshot<T, A>
{
    fn components(&self) -> usize {
        self.registers.len()
    }

    fn max_processes(&self) -> usize {
        self.n
    }

    fn update(&self, pid: ProcessId, component: usize, value: T) {
        validate_args(self.registers.len(), self.n, pid, &[component]);
        // old ← R[i]
        let old = self.registers[component].load();
        // scanners ← getSet; (i1, …) ← ⋃ S[p]
        let announced = self.announced_components();
        // view ← embedded-scan(i1, …)
        let view = self.embedded_scan(&announced);
        // compare&swap(old, (v, view, counter, id)) on R[i]
        let seq = self.counters[pid.index()].load(Ordering::Relaxed);
        let entry = Entry::written(Arc::new(value), view, seq, pid);
        if self.registers[component]
            .compare_and_swap(&old, entry)
            .is_ok()
        {
            // if the compare&swap was successful then counter ← counter + 1
            self.counters[pid.index()].store(seq + 1, Ordering::Relaxed);
        }
        // An unsuccessful compare&swap leaves no trace in shared memory; the
        // update is linearized immediately before the competing update that
        // won (see Section 4.2), so there is nothing further to do.
    }

    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        validate_batch_args(self.registers.len(), self.n, pid, writes);
        let batch = dedupe_last_write_wins(writes);
        match batch.len() {
            0 => return,
            1 => return self.update(pid, batch[0].0, batch[0].1.clone()),
            _ => {}
        }
        // The helping view is computed once per batch — this is where batching
        // beats a loop of single updates: the getSet and the embedded helping
        // scan are amortized over the whole batch (asserted in steps by
        // `tests/paper_claims.rs`).
        let announced = self.announced_components();
        let view = self.embedded_scan(&announced);
        let seq = self.counters[pid.index()].load(Ordering::Relaxed);
        let phase = self.batches.begin();
        for (k, (component, value)) in batch.iter().enumerate() {
            let value = Arc::new((*value).clone());
            // Swing the record. A failed compare&swap means a concurrent
            // single update won the race between our load and our swap; retry
            // so the batch's value lands (the batch's write must be part of
            // the per-component chain of successful swaps).
            loop {
                let old = self.registers[*component].load();
                let entry = Entry::written(Arc::clone(&value), view.clone(), seq + k as u64, pid);
                if self.registers[*component]
                    .compare_and_swap(&old, entry)
                    .is_ok()
                {
                    break;
                }
            }
        }
        self.counters[pid.index()].store(seq + batch.len() as u64, Ordering::Relaxed);
        drop(phase);
    }

    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        validate_args(self.registers.len(), self.n, pid, components);
        if components.is_empty() {
            return Vec::new();
        }
        // S[id] ← {i1, …, ir}. Shared via `store_arc`: the announcement
        // register and this scan read the same allocation instead of cloning
        // the component list on the hot path.
        let mut announced: Vec<usize> = components.to_vec();
        announced.sort_unstable();
        announced.dedup();
        let announced = Arc::new(announced);
        self.announcements[pid.index()].store_arc(Arc::clone(&announced));
        // join
        let ticket = self.scanners.join(pid);
        // embedded-scan, inside a batch-validated window: a clean double
        // collect (or a borrowed view, whose embedded scan the condition-(2)
        // timing argument places inside this window) that no batch write
        // phase overlapped is all-or-nothing with respect to `update_many`.
        let view = self.batches.validated(|| self.embedded_scan(&announced));
        // leave
        self.scanners.leave(pid, ticket);
        // component j of the result vector is the view's value for i_j
        view.project(components).expect(
            "embedded scan must cover every announced component \
             (correctness argument of Section 4.2)",
        )
    }

    fn is_wait_free(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "cas-partial-snapshot (Figure 3)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_activeset::CollectActiveSet;
    use psnap_shmem::StepScope;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn sequential_update_and_scan() {
        let snap = CasPartialSnapshot::new(8, 2, 0u64);
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
        let snap = CasPartialSnapshot::new(4, 1, 0i32);
        snap.update(ProcessId(0), 2, 7);
        assert_eq!(snap.scan(ProcessId(0), &[2, 0, 2, 2]), vec![7, 0, 7, 7]);
        assert!(snap.scan(ProcessId(0), &[]).is_empty());
    }

    #[test]
    fn scan_all_returns_every_component() {
        let snap = CasPartialSnapshot::new(5, 1, 0u8);
        for i in 0..5 {
            snap.update(ProcessId(0), i, i as u8 + 1);
        }
        assert_eq!(snap.scan_all(ProcessId(0)), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "component")]
    fn out_of_range_component_is_rejected() {
        let snap = CasPartialSnapshot::new(2, 1, 0u8);
        snap.update(ProcessId(0), 2, 1);
    }

    #[test]
    #[should_panic(expected = "process id")]
    fn out_of_range_pid_is_rejected() {
        let snap = CasPartialSnapshot::new(2, 1, 0u8);
        let _ = snap.scan(ProcessId(1), &[0]);
    }

    #[test]
    fn quiescent_scan_cost_is_linear_in_r_and_independent_of_m() {
        // With no concurrent updates a scan is: announce (1 write), join
        // (2 steps), four batch-gate validation reads, two collects of r
        // reads, leave (1 write) — independent of m. This is the locality
        // property the object exists to provide.
        for m in [16usize, 256, 4096] {
            let snap = CasPartialSnapshot::new(m, 2, 0u64);
            let comps: Vec<usize> = (0..8).map(|k| k * (m / 8)).collect();
            let scope = StepScope::start();
            let _ = snap.scan(ProcessId(0), &comps);
            let steps = scope.finish().total();
            assert!(
                steps <= 4 + 2 * 8 + 8,
                "quiescent scan of 8 of {m} components took {steps} steps"
            );
        }
    }

    #[test]
    fn update_with_no_active_scanners_is_cheap() {
        let snap = CasPartialSnapshot::new(1024, 4, 0u64);
        let scope = StepScope::start();
        snap.update(ProcessId(0), 512, 1);
        let steps = scope.finish();
        // read old + getSet (read C, read H, CAS C) + empty embedded scan
        // + CAS on R[i].
        assert!(
            steps.total() <= 8,
            "update with no scanners took {} steps",
            steps.total()
        );
        assert_eq!(steps.cas, 2);
    }

    #[test]
    fn works_with_the_register_baseline_active_set() {
        let snap = CasPartialSnapshot::with_active_set(8, 4, 0u64, CollectActiveSet::new(4));
        snap.update(ProcessId(2), 1, 11);
        assert_eq!(snap.scan(ProcessId(3), &[1, 2]), vec![11, 0]);
        assert_eq!(snap.name(), "cas-partial-snapshot (Figure 3)");
        assert!(snap.is_wait_free());
    }

    #[test]
    fn batched_update_amortizes_the_helping_work() {
        // With scanners announced, a loop of k updates pays getSet + helping
        // scan k times; one k-wide batch pays it once (plus three gate
        // counter bumps). Sequentially there are no announced scanners, so
        // assert the quiescent arithmetic: looped k singles cost k * (read +
        // getSet(3) + CAS) = 5k; the batch costs getSet(3) + gate(3) +
        // k * (read + CAS) = 2k + 6 — strictly less from k = 3.
        let snap = CasPartialSnapshot::new(64, 2, 0u64);
        let k = 8usize;
        let scope = StepScope::start();
        for c in 0..k {
            snap.update(ProcessId(0), c, 1);
        }
        let looped = scope.finish().total();
        let writes: Vec<(usize, u64)> = (0..k).map(|c| (c, 2)).collect();
        let scope = StepScope::start();
        snap.update_many(ProcessId(0), &writes);
        let batched = scope.finish().total();
        assert!(
            batched < looped,
            "batched {batched} steps, looped {looped} steps"
        );
        assert_eq!(snap.scan(ProcessId(1), &[0, 7]), vec![2, 2]);
    }

    #[test]
    fn batched_updates_are_atomic_against_concurrent_scans() {
        // The batch writes one value to four components; every concurrent
        // scan must see all four equal — all-or-nothing.
        let snap = Arc::new(CasPartialSnapshot::new(16, 2, 0u64));
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
    fn concurrent_updates_to_same_component_keep_one_winner_visible() {
        let snap = Arc::new(CasPartialSnapshot::new(4, 8, (usize::MAX, 0usize)));
        let mut handles = Vec::new();
        for t in 0..8usize {
            let snap = Arc::clone(&snap);
            handles.push(thread::spawn(move || {
                for i in 0..200usize {
                    snap.update(ProcessId(t), 0, (t, i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (winner, iteration) = snap.scan(ProcessId(0), &[0])[0];
        assert!(winner < 8);
        assert!(iteration < 200);
    }

    #[test]
    fn concurrent_scans_return_monotone_component_values() {
        // One updater writes strictly increasing values into each scanned
        // component; every scanner must observe, per component, a
        // non-decreasing sequence across its successive scans (a consequence
        // of linearizability given a single writer per component).
        let snap = Arc::new(CasPartialSnapshot::new(16, 5, 0u64));
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
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let comps = [pid, pid + 4, pid + 8];
                    let mut last = vec![0u64; comps.len()];
                    let mut scans = 0u32;
                    while !stop.load(Ordering::Relaxed) && scans < 2000 {
                        let got = snap.scan(ProcessId(pid), &comps);
                        for (g, l) in got.iter().zip(last.iter_mut()) {
                            assert!(*g >= *l, "component value went backwards: {g} < {l}");
                            *l = *g;
                        }
                        scans += 1;
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
    fn scan_under_heavy_update_pressure_stays_within_theorem_3_bound() {
        // Hammer the scanned components with updates from several threads and
        // verify that every scan finishes within the O(r²) step budget.
        let snap = Arc::new(CasPartialSnapshot::new(64, 8, 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let updaters: Vec<_> = (0..6usize)
            .map(|t| {
                let snap = Arc::clone(&snap);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        snap.update(ProcessId(t), (i % 8) as usize, i);
                        i += 1;
                    }
                })
            })
            .collect();
        let comps: Vec<usize> = (0..8).collect();
        let r = comps.len() as u64;
        for _ in 0..500 {
            let scope = StepScope::start();
            let _ = snap.scan(ProcessId(7), &comps);
            let steps = scope.finish();
            // Generous constant: (2r+2) collects of r reads plus announcement,
            // join/leave and bookkeeping.
            assert!(
                steps.reads <= (2 * r + 3) * r + 8,
                "scan used {} reads for r={r}",
                steps.reads
            );
        }
        stop.store(true, Ordering::Relaxed);
        for u in updaters {
            u.join().unwrap();
        }
    }
}
