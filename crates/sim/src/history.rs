//! Operation histories.
//!
//! A history is the record of a concurrent execution against a partial
//! snapshot object: for every completed operation it stores who performed it,
//! what it was, what it returned, and *logical* invocation/response
//! timestamps. Timestamps are drawn from a single shared [`LogicalClock`]
//! (an atomic counter), so "operation A returned before operation B was
//! invoked" is a statement about the real-time partial order of the
//! execution, independent of wall-clock resolution.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use psnap_shmem::ProcessId;

/// A monotonically increasing logical clock shared by all recording threads.
#[derive(Clone, Debug, Default)]
pub struct LogicalClock {
    counter: Arc<AtomicU64>,
}

impl LogicalClock {
    /// Creates a clock starting at 1 (timestamp 0 means "before everything").
    pub fn new() -> Self {
        LogicalClock {
            counter: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Returns a fresh timestamp, strictly greater than every timestamp
    /// returned before this call (on any thread).
    pub fn now(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::SeqCst)
    }
}

/// The two operation kinds of a partial snapshot object, with `u64` values
/// (histories are recorded over a concrete domain to keep checking simple).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operation {
    /// `update(component, value)`.
    Update {
        /// Component index written.
        component: usize,
        /// Value written.
        value: u64,
    },
    /// `update_many(writes)`: every pair takes effect at one linearization
    /// point; duplicate components resolve last-write-wins (the pairs are
    /// applied in order).
    BatchUpdate {
        /// `(component, value)` pairs, in batch order.
        writes: Vec<(usize, u64)>,
    },
    /// `scan(components)`.
    Scan {
        /// Component indices requested, in request order.
        components: Vec<usize>,
    },
}

/// The response of an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// Updates return an acknowledgement.
    Ack,
    /// Scans return one value per requested component, in request order.
    Values(Vec<u64>),
}

/// One completed operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// The process that performed the operation.
    pub pid: ProcessId,
    /// What the operation was.
    pub op: Operation,
    /// What it returned.
    pub result: OpResult,
    /// Logical time at which the operation was invoked.
    pub invoked_at: u64,
    /// Logical time at which the operation returned.
    pub returned_at: u64,
}

impl OpRecord {
    /// True if this operation returned before `other` was invoked
    /// (the real-time precedence that linearizability must respect).
    pub fn precedes(&self, other: &OpRecord) -> bool {
        self.returned_at < other.invoked_at
    }
}

/// A complete history of an execution against one snapshot object.
#[derive(Clone, Debug)]
pub struct History {
    /// Completed operations, in no particular order.
    pub ops: Vec<OpRecord>,
    /// Number of components `m` of the object.
    pub components: usize,
    /// Initial value of every component.
    pub initial: u64,
}

impl History {
    /// Creates an empty history for an object with `components` components
    /// all initialized to `initial`.
    pub fn new(components: usize, initial: u64) -> Self {
        History {
            ops: Vec::new(),
            components,
            initial,
        }
    }

    /// Merges per-thread operation logs into one history.
    pub fn from_logs(components: usize, initial: u64, logs: Vec<Vec<OpRecord>>) -> Self {
        let mut ops = Vec::with_capacity(logs.iter().map(Vec::len).sum());
        for log in logs {
            ops.extend(log);
        }
        History {
            ops,
            components,
            initial,
        }
    }

    /// Number of completed operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of scan operations.
    pub fn scan_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o.op, Operation::Scan { .. }))
            .count()
    }

    /// Number of update operations (single and batched).
    pub fn update_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| {
                matches!(
                    o.op,
                    Operation::Update { .. } | Operation::BatchUpdate { .. }
                )
            })
            .count()
    }

    /// Basic well-formedness checks: timestamps ordered within each operation,
    /// component indices in range, scan results of matching arity, and — per
    /// process — no two operations overlapping in time (a process is
    /// sequential).
    pub fn validate_well_formed(&self) -> Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            if op.invoked_at >= op.returned_at {
                return Err(format!("op {i}: invoked_at >= returned_at"));
            }
            match (&op.op, &op.result) {
                (Operation::Update { component, .. }, OpResult::Ack) => {
                    if *component >= self.components {
                        return Err(format!("op {i}: component {component} out of range"));
                    }
                }
                (Operation::BatchUpdate { writes }, OpResult::Ack) => {
                    if let Some((c, _)) = writes.iter().find(|(c, _)| *c >= self.components) {
                        return Err(format!("op {i}: component {c} out of range"));
                    }
                }
                (Operation::Scan { components }, OpResult::Values(values)) => {
                    if components.len() != values.len() {
                        return Err(format!(
                            "op {i}: scan of {} components returned {} values",
                            components.len(),
                            values.len()
                        ));
                    }
                    if let Some(c) = components.iter().find(|c| **c >= self.components) {
                        return Err(format!("op {i}: component {c} out of range"));
                    }
                }
                _ => return Err(format!("op {i}: result kind does not match operation kind")),
            }
        }
        // Each process must be sequential.
        let mut by_pid: std::collections::HashMap<ProcessId, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for op in &self.ops {
            by_pid
                .entry(op.pid)
                .or_default()
                .push((op.invoked_at, op.returned_at));
        }
        for (pid, mut intervals) in by_pid {
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                if w[0].1 > w[1].0 {
                    return Err(format!("process {pid} has overlapping operations"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn update(pid: usize, c: usize, v: u64, inv: u64, ret: u64) -> OpRecord {
        OpRecord {
            pid: ProcessId(pid),
            op: Operation::Update {
                component: c,
                value: v,
            },
            result: OpResult::Ack,
            invoked_at: inv,
            returned_at: ret,
        }
    }

    pub(crate) fn scan(pid: usize, comps: &[usize], vals: &[u64], inv: u64, ret: u64) -> OpRecord {
        OpRecord {
            pid: ProcessId(pid),
            op: Operation::Scan {
                components: comps.to_vec(),
            },
            result: OpResult::Values(vals.to_vec()),
            invoked_at: inv,
            returned_at: ret,
        }
    }

    pub(crate) fn batch(pid: usize, writes: &[(usize, u64)], inv: u64, ret: u64) -> OpRecord {
        OpRecord {
            pid: ProcessId(pid),
            op: Operation::BatchUpdate {
                writes: writes.to_vec(),
            },
            result: OpResult::Ack,
            invoked_at: inv,
            returned_at: ret,
        }
    }

    pub(crate) fn history(m: usize, ops: Vec<OpRecord>) -> History {
        History {
            ops,
            components: m,
            initial: 0,
        }
    }

    #[test]
    fn clock_is_strictly_increasing_across_threads() {
        let clock = LogicalClock::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let clock = clock.clone();
                std::thread::spawn(move || (0..1000).map(|_| clock.now()).collect::<Vec<_>>())
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "timestamps must be unique");
    }

    #[test]
    fn precedence_uses_logical_times() {
        let a = update(0, 0, 1, 1, 2);
        let b = scan(1, &[0], &[1], 3, 4);
        let c = scan(2, &[0], &[1], 2, 5);
        assert!(a.precedes(&b));
        assert!(!a.precedes(&c)); // overlapping
        assert!(!b.precedes(&a));
    }

    #[test]
    fn well_formed_history_passes_validation() {
        let h = History {
            ops: vec![update(0, 0, 1, 1, 2), scan(1, &[0, 1], &[1, 0], 3, 4)],
            components: 2,
            initial: 0,
        };
        assert!(h.validate_well_formed().is_ok());
        assert_eq!(h.len(), 2);
        assert_eq!(h.scan_count(), 1);
        assert_eq!(h.update_count(), 1);
    }

    #[test]
    fn validation_catches_arity_mismatch() {
        let h = History {
            ops: vec![scan(0, &[0, 1], &[5], 1, 2)],
            components: 2,
            initial: 0,
        };
        assert!(h.validate_well_formed().unwrap_err().contains("returned"));
    }

    #[test]
    fn validation_catches_out_of_range_component() {
        let h = History {
            ops: vec![update(0, 9, 1, 1, 2)],
            components: 2,
            initial: 0,
        };
        assert!(h
            .validate_well_formed()
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn validation_catches_overlapping_ops_of_one_process() {
        let h = History {
            ops: vec![update(0, 0, 1, 1, 5), update(0, 1, 2, 3, 7)],
            components: 2,
            initial: 0,
        };
        assert!(h
            .validate_well_formed()
            .unwrap_err()
            .contains("overlapping"));
    }

    #[test]
    fn validation_catches_inverted_timestamps() {
        let h = History {
            ops: vec![update(0, 0, 1, 5, 5)],
            components: 1,
            initial: 0,
        };
        assert!(h.validate_well_formed().is_err());
    }

    #[test]
    fn from_logs_merges_everything() {
        let h = History::from_logs(
            2,
            0,
            vec![
                vec![update(0, 0, 1, 1, 2)],
                vec![scan(1, &[1], &[0], 3, 4), update(1, 1, 7, 5, 6)],
            ],
        );
        assert_eq!(h.len(), 3);
        assert!(h.validate_well_formed().is_ok());
    }
}
