//! Scalable necessary-condition checks for large histories.
//!
//! The exhaustive WGL checker is exponential, so stress tests with tens of
//! thousands of operations use this module instead. The checks below are
//! *necessary* conditions of linearizability (every linearizable history
//! passes them); they are not complete, but together they catch the failure
//! modes snapshot algorithms actually exhibit — torn scans, new-old
//! inversions, reads from the future, and lost updates.
//!
//! The checks assume the **monotone single-writer discipline** used by the
//! stress workloads in `psnap-sim`: each component is updated by at most one
//! process, and the values written to a component are strictly increasing.
//! Under that discipline the per-component write order equals the value
//! order, which is what lets the checks run in `O(ops · log ops)` instead of
//! searching. [`check_monotone_history`] first verifies that the history
//! actually obeys the discipline and reports a harness error otherwise.

use std::collections::HashMap;

use crate::history::{History, OpResult, Operation};

/// A violation found by the monotone checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The history does not obey the single-writer / increasing-values
    /// discipline, so the checker's conclusions would be meaningless.
    DisciplineViolated {
        /// Explanation of the problem.
        reason: String,
    },
    /// A scan returned a value that no update ever wrote to that component
    /// (and that is not the initial value).
    PhantomValue {
        /// Index of the offending scan in `history.ops`.
        scan: usize,
        /// Component whose value was invented.
        component: usize,
        /// The value returned.
        value: u64,
    },
    /// A scan returned a value whose writing update was invoked only after the
    /// scan had already returned.
    ReadFromFuture {
        /// Index of the offending scan in `history.ops`.
        scan: usize,
        /// Component read.
        component: usize,
        /// The value returned.
        value: u64,
    },
    /// A scan returned a value that had definitely been overwritten before the
    /// scan was invoked (a "new-old inversion" against real time).
    StaleRead {
        /// Index of the offending scan in `history.ops`.
        scan: usize,
        /// Component read.
        component: usize,
        /// The stale value returned.
        value: u64,
        /// A newer value whose write completed before the scan started.
        newer_value: u64,
    },
    /// Two scans ordered by real time observed a component going backwards.
    ScanOrderViolation {
        /// Index of the earlier scan.
        earlier_scan: usize,
        /// Index of the later scan.
        later_scan: usize,
        /// Component whose value went backwards.
        component: usize,
    },
    /// Two scans (in either order) are incomparable on their common
    /// components: each saw a strictly newer value than the other somewhere.
    /// Linearizable partial scans must be totally ordered on shared
    /// components.
    IncomparableScans {
        /// Index of one scan.
        scan_a: usize,
        /// Index of the other scan.
        scan_b: usize,
        /// Component on which `scan_a` is strictly ahead.
        ahead_in_a: usize,
        /// Component on which `scan_b` is strictly ahead.
        ahead_in_b: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Runs every monotone check; returns the first violation found, if any.
pub fn check_monotone_history(history: &History) -> Result<(), Violation> {
    history
        .validate_well_formed()
        .map_err(|reason| Violation::DisciplineViolated {
            reason: format!("history not well-formed: {reason}"),
        })?;
    let updates = index_updates(history)?;
    check_scan_values(history, &updates)?;
    check_scan_pairs(history)?;
    Ok(())
}

/// Per-component index of updates: value -> (invoked_at, returned_at).
struct UpdateIndex {
    /// For each component: the updates that wrote it, sorted by value.
    by_component: HashMap<usize, Vec<(u64, u64, u64)>>, // (value, invoked, returned)
}

fn index_updates(history: &History) -> Result<UpdateIndex, Violation> {
    let mut writer_of: HashMap<usize, psnap_shmem::ProcessId> = HashMap::new();
    let mut by_component: HashMap<usize, Vec<(u64, u64, u64)>> = HashMap::new();
    // A batched update contributes one write per distinct component, each
    // carrying the batch's interval — for the per-component checks a batch is
    // indistinguishable from its writes all happening at the batch's single
    // linearization point.
    let mut record_write = |component: usize,
                            value: u64,
                            pid: psnap_shmem::ProcessId,
                            invoked: u64,
                            returned: u64|
     -> Result<(), Violation> {
        if let Some(existing) = writer_of.insert(component, pid) {
            if existing != pid {
                return Err(Violation::DisciplineViolated {
                    reason: format!("component {component} written by both {existing} and {pid}"),
                });
            }
        }
        by_component
            .entry(component)
            .or_default()
            .push((value, invoked, returned));
        Ok(())
    };
    for op in &history.ops {
        match &op.op {
            Operation::Update { component, value } => {
                record_write(*component, *value, op.pid, op.invoked_at, op.returned_at)?;
            }
            Operation::BatchUpdate { writes } => {
                // Resolve in-batch duplicates last-write-wins before indexing,
                // matching the batch's sequential semantics.
                let mut latest: HashMap<usize, u64> = HashMap::new();
                for (component, value) in writes {
                    latest.insert(*component, *value);
                }
                for (component, value) in latest {
                    record_write(component, value, op.pid, op.invoked_at, op.returned_at)?;
                }
            }
            Operation::Scan { .. } => {}
        }
    }
    for (component, writes) in by_component.iter_mut() {
        // The single writer is sequential, so sorting by invocation time gives
        // the write order; values must strictly increase along it and must be
        // distinct from the initial value.
        writes.sort_by_key(|(_, invoked, _)| *invoked);
        let mut prev = None;
        for (value, _, _) in writes.iter() {
            if *value == history.initial {
                return Err(Violation::DisciplineViolated {
                    reason: format!(
                        "component {component}: update wrote the initial value {value}, \
                         which makes staleness undetectable"
                    ),
                });
            }
            if let Some(p) = prev {
                if *value <= p {
                    return Err(Violation::DisciplineViolated {
                        reason: format!(
                            "component {component}: values not strictly increasing \
                             ({p} then {value})"
                        ),
                    });
                }
            }
            prev = Some(*value);
        }
        writes.sort_by_key(|(value, _, _)| *value);
    }
    Ok(UpdateIndex { by_component })
}

fn check_scan_values(history: &History, updates: &UpdateIndex) -> Result<(), Violation> {
    let empty: Vec<(u64, u64, u64)> = Vec::new();
    for (idx, op) in history.ops.iter().enumerate() {
        let (components, values) = match (&op.op, &op.result) {
            (Operation::Scan { components }, OpResult::Values(values)) => (components, values),
            _ => continue,
        };
        for (&component, &value) in components.iter().zip(values.iter()) {
            let writes = updates.by_component.get(&component).unwrap_or(&empty);
            if value == history.initial {
                // Returning the initial value is stale if some update to this
                // component completed before the scan started.
                if let Some((newer, _, _)) = writes
                    .iter()
                    .find(|(_, _, returned)| *returned < op.invoked_at)
                {
                    return Err(Violation::StaleRead {
                        scan: idx,
                        component,
                        value,
                        newer_value: *newer,
                    });
                }
                continue;
            }
            // The value must have been written by some update to this component.
            let Ok(pos) = writes.binary_search_by_key(&value, |(v, _, _)| *v) else {
                return Err(Violation::PhantomValue {
                    scan: idx,
                    component,
                    value,
                });
            };
            let (_, invoked, _) = writes[pos];
            // The writing update must have been invoked before the scan returned.
            if invoked > op.returned_at {
                return Err(Violation::ReadFromFuture {
                    scan: idx,
                    component,
                    value,
                });
            }
            // No strictly newer write may have completed before the scan started.
            if let Some((newer, _, _)) = writes[pos + 1..]
                .iter()
                .find(|(_, _, returned)| *returned < op.invoked_at)
            {
                return Err(Violation::StaleRead {
                    scan: idx,
                    component,
                    value,
                    newer_value: *newer,
                });
            }
        }
    }
    Ok(())
}

fn check_scan_pairs(history: &History) -> Result<(), Violation> {
    // Collect scans as (index, map component -> value, invoked, returned).
    let scans: Vec<(usize, HashMap<usize, u64>, u64, u64)> = history
        .ops
        .iter()
        .enumerate()
        .filter_map(|(idx, op)| match (&op.op, &op.result) {
            (Operation::Scan { components }, OpResult::Values(values)) => Some((
                idx,
                components
                    .iter()
                    .copied()
                    .zip(values.iter().copied())
                    .collect(),
                op.invoked_at,
                op.returned_at,
            )),
            _ => None,
        })
        .collect();

    for (a_pos, (a_idx, a_vals, a_inv, a_ret)) in scans.iter().enumerate() {
        for (b_idx, b_vals, b_inv, b_ret) in scans.iter().skip(a_pos + 1) {
            // Components read by both scans.
            let mut ahead_in_a = None;
            let mut ahead_in_b = None;
            for (component, va) in a_vals {
                if let Some(vb) = b_vals.get(component) {
                    if va > vb {
                        ahead_in_a = Some(*component);
                    } else if vb > va {
                        ahead_in_b = Some(*component);
                    }
                }
            }
            // Incomparability on common components is never linearizable.
            if let (Some(ca), Some(cb)) = (ahead_in_a, ahead_in_b) {
                return Err(Violation::IncomparableScans {
                    scan_a: *a_idx,
                    scan_b: *b_idx,
                    ahead_in_a: ca,
                    ahead_in_b: cb,
                });
            }
            // Real-time order: an earlier scan must not be ahead of a later one.
            if a_ret < b_inv {
                if let Some(component) = ahead_in_a {
                    return Err(Violation::ScanOrderViolation {
                        earlier_scan: *a_idx,
                        later_scan: *b_idx,
                        component,
                    });
                }
            }
            if b_ret < a_inv {
                if let Some(component) = ahead_in_b {
                    return Err(Violation::ScanOrderViolation {
                        earlier_scan: *b_idx,
                        later_scan: *a_idx,
                        component,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tests::{batch, history, scan, update};

    #[test]
    fn clean_history_passes() {
        let h = history(
            2,
            vec![
                update(0, 0, 1, 1, 2),
                update(0, 0, 2, 5, 6),
                update(1, 1, 10, 3, 4),
                scan(2, &[0, 1], &[1, 10], 4, 7),
                scan(3, &[0, 1], &[2, 10], 8, 9),
            ],
        );
        assert_eq!(check_monotone_history(&h), Ok(()));
    }

    #[test]
    fn detects_phantom_value() {
        let h = history(1, vec![update(0, 0, 1, 1, 2), scan(1, &[0], &[9], 3, 4)]);
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::PhantomValue {
                component: 0,
                value: 9,
                ..
            })
        ));
    }

    #[test]
    fn detects_read_from_future() {
        let h = history(1, vec![scan(1, &[0], &[5], 1, 2), update(0, 0, 5, 3, 4)]);
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::ReadFromFuture { value: 5, .. })
        ));
    }

    #[test]
    fn detects_stale_read_of_older_update() {
        let h = history(
            1,
            vec![
                update(0, 0, 1, 1, 2),
                update(0, 0, 2, 3, 4),
                scan(1, &[0], &[1], 5, 6),
            ],
        );
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::StaleRead {
                value: 1,
                newer_value: 2,
                ..
            })
        ));
    }

    #[test]
    fn detects_stale_initial_value() {
        let h = history(1, vec![update(0, 0, 3, 1, 2), scan(1, &[0], &[0], 3, 4)]);
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::StaleRead {
                value: 0,
                newer_value: 3,
                ..
            })
        ));
    }

    #[test]
    fn accepts_initial_value_when_update_is_concurrent() {
        let h = history(1, vec![update(0, 0, 3, 1, 10), scan(1, &[0], &[0], 2, 5)]);
        assert_eq!(check_monotone_history(&h), Ok(()));
    }

    #[test]
    fn detects_scan_going_backwards_in_real_time() {
        let h = history(
            1,
            vec![
                update(0, 0, 1, 1, 2),
                update(0, 0, 2, 3, 10),
                scan(1, &[0], &[2], 4, 5),
                scan(2, &[0], &[1], 6, 7),
            ],
        );
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::ScanOrderViolation { component: 0, .. })
        ));
    }

    #[test]
    fn detects_incomparable_overlapping_scans() {
        let h = history(
            2,
            vec![
                update(0, 0, 1, 1, 20),
                update(1, 1, 1, 1, 20),
                scan(2, &[0, 1], &[1, 0], 1, 20),
                scan(3, &[0, 1], &[0, 1], 1, 20),
            ],
        );
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::IncomparableScans { .. })
        ));
    }

    #[test]
    fn scans_on_disjoint_components_are_never_compared() {
        let h = history(
            4,
            vec![
                update(0, 0, 1, 1, 2),
                update(1, 2, 5, 1, 2),
                scan(2, &[0, 1], &[1, 0], 3, 4),
                scan(3, &[2, 3], &[5, 0], 3, 4),
            ],
        );
        assert_eq!(check_monotone_history(&h), Ok(()));
    }

    #[test]
    fn rejects_multi_writer_component() {
        let h = history(1, vec![update(0, 0, 1, 1, 2), update(1, 0, 2, 3, 4)]);
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::DisciplineViolated { .. })
        ));
    }

    #[test]
    fn rejects_non_increasing_values() {
        let h = history(1, vec![update(0, 0, 5, 1, 2), update(0, 0, 4, 3, 4)]);
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::DisciplineViolated { .. })
        ));
    }

    #[test]
    fn rejects_update_writing_the_initial_value() {
        let h = history(1, vec![update(0, 0, 0, 1, 2)]);
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::DisciplineViolated { .. })
        ));
    }

    #[test]
    fn batch_writes_are_indexed_like_updates() {
        // A stale read of a batch-written component is detected exactly as if
        // the batch's writes were single updates at one instant.
        let h = history(
            2,
            vec![
                batch(0, &[(0, 1), (1, 2)], 1, 2),
                scan(1, &[0, 1], &[1, 2], 3, 4),
                scan(2, &[0], &[0], 5, 6),
            ],
        );
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::StaleRead {
                value: 0,
                newer_value: 1,
                ..
            })
        ));
    }

    #[test]
    fn batch_duplicates_resolve_last_write_wins_before_indexing() {
        // The batch writes component 0 twice; only the final value 3 counts,
        // so a scan returning 3 is clean and the intermediate 1 is phantom.
        let clean = history(
            1,
            vec![batch(0, &[(0, 1), (0, 3)], 1, 2), scan(1, &[0], &[3], 3, 4)],
        );
        assert_eq!(check_monotone_history(&clean), Ok(()));
        let phantom = history(
            1,
            vec![batch(0, &[(0, 1), (0, 3)], 1, 2), scan(1, &[0], &[1], 3, 4)],
        );
        assert!(matches!(
            check_monotone_history(&phantom),
            Err(Violation::PhantomValue { value: 1, .. })
        ));
    }

    #[test]
    fn batch_ownership_conflicts_violate_the_discipline() {
        let h = history(
            2,
            vec![batch(0, &[(0, 1), (1, 1)], 1, 2), update(1, 1, 2, 3, 4)],
        );
        assert!(matches!(
            check_monotone_history(&h),
            Err(Violation::DisciplineViolated { .. })
        ));
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::PhantomValue {
            scan: 3,
            component: 1,
            value: 9,
        };
        assert!(v.to_string().contains("PhantomValue"));
    }
}
