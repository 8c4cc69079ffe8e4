//! A lock-based comparator.
//!
//! Not part of the paper's model (it is blocking, so a stalled updater can
//! block every scanner forever), but it is what a practitioner would reach for
//! first, so the cross-implementation tests include it to show where the
//! wait-free algorithms stand against a straightforward `RwLock<Vec<T>>`.

use std::sync::RwLock;

use psnap_shmem::ProcessId;

use crate::traits::{validate_args, validate_batch_args, PartialSnapshot};

/// Reader-writer-lock based snapshot: trivially consistent, but blocking.
pub struct LockSnapshot<T> {
    state: RwLock<Vec<T>>,
    n: usize,
}

impl<T: Clone + Send + Sync + 'static> LockSnapshot<T> {
    /// Creates an object with `m` components, all holding `initial`, usable by
    /// processes `0..max_processes`.
    pub fn new(m: usize, max_processes: usize, initial: T) -> Self {
        assert!(m > 0, "a snapshot object needs at least one component");
        assert!(max_processes > 0, "at least one process must be allowed");
        LockSnapshot {
            state: RwLock::new(vec![initial; m]),
            n: max_processes,
        }
    }

    fn read_state(&self) -> std::sync::RwLockReadGuard<'_, Vec<T>> {
        // Writers only assign whole elements, so a panicking writer cannot
        // leave torn state; poisoning is therefore ignored.
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Clone + Send + Sync + 'static> PartialSnapshot<T> for LockSnapshot<T> {
    fn components(&self) -> usize {
        self.read_state().len()
    }

    fn max_processes(&self) -> usize {
        self.n
    }

    fn update(&self, pid: ProcessId, component: usize, value: T) {
        let mut guard = self.state.write().unwrap_or_else(|e| e.into_inner());
        validate_args(guard.len(), self.n, pid, &[component]);
        guard[component] = value;
    }

    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        // One write-lock scope for the whole batch: scans hold the read lock,
        // so the batch is atomic by mutual exclusion. Applying in order makes
        // duplicates last-write-wins for free.
        let mut guard = self.state.write().unwrap_or_else(|e| e.into_inner());
        validate_batch_args(guard.len(), self.n, pid, writes);
        for (component, value) in writes {
            guard[*component] = value.clone();
        }
    }

    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        let guard = self.read_state();
        validate_args(guard.len(), self.n, pid, components);
        components.iter().map(|&c| guard[c].clone()).collect()
    }

    fn is_wait_free(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "rwlock-snapshot (blocking baseline)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn sequential_semantics() {
        let snap = LockSnapshot::new(3, 2, String::from("init"));
        snap.update(ProcessId(0), 1, String::from("x"));
        assert_eq!(
            snap.scan(ProcessId(1), &[0, 1]),
            vec![String::from("init"), String::from("x")]
        );
        assert_eq!(snap.components(), 3);
        assert!(!snap.is_wait_free());
    }

    #[test]
    #[should_panic(expected = "component")]
    fn rejects_out_of_range() {
        let snap = LockSnapshot::new(3, 1, 0u8);
        snap.update(ProcessId(0), 3, 1);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let snap = Arc::new(LockSnapshot::new(8, 4, 0u64));
        let handles: Vec<_> = (0..3usize)
            .map(|t| {
                let snap = Arc::clone(&snap);
                thread::spawn(move || {
                    for v in 0..500u64 {
                        snap.update(ProcessId(t), t, v);
                        let got = snap.scan(ProcessId(t), &[t]);
                        assert_eq!(got, vec![v]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
