//! An exhaustive linearizability checker (Wing & Gong's algorithm with the
//! Lowe memoization refinement — "WGL").
//!
//! Given a complete history and the sequential specification, the checker
//! searches for an order of linearization points that (a) respects the
//! real-time order of non-overlapping operations and (b) produces exactly the
//! recorded responses. The search is exponential in the worst case, so it is
//! meant for the small adversarial histories produced by the scenario runner
//! (tens of operations); the scalable-but-partial checks in
//! [`crate::monotone`] cover the large stress histories.

use std::collections::HashSet;

use crate::history::{History, OpRecord, Operation};
use crate::spec::SnapshotSpec;

/// Maximum number of operations the exhaustive checker accepts.
pub const MAX_OPS: usize = 128;

/// The verdict of the exhaustive checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinResult {
    /// The history is linearizable; the vector lists the operation indices in
    /// one witnessing linearization order.
    Linearizable(Vec<usize>),
    /// The history is not linearizable.
    NotLinearizable,
}

impl LinResult {
    /// True if the verdict is [`LinResult::Linearizable`].
    pub fn is_linearizable(&self) -> bool {
        matches!(self, LinResult::Linearizable(_))
    }
}

/// Checks a complete history against the partial snapshot specification.
///
/// # Panics
///
/// Panics if the history is not well-formed or has more than [`MAX_OPS`]
/// operations (both indicate harness bugs rather than algorithm bugs).
pub fn check_history(history: &History) -> LinResult {
    history
        .validate_well_formed()
        .expect("history handed to the WGL checker must be well-formed");
    assert!(
        history.ops.len() <= MAX_OPS,
        "the exhaustive checker is limited to {MAX_OPS} operations; \
         use the monotone checks for larger histories"
    );
    let spec = SnapshotSpec::new(history.components, history.initial);
    if history.ops.is_empty() {
        return LinResult::Linearizable(Vec::new());
    }
    let mut searcher = Searcher {
        ops: &history.ops,
        spec,
        seen: HashSet::new(),
        witness: Vec::with_capacity(history.ops.len()),
    };
    let all_remaining: u128 = if history.ops.len() == 128 {
        u128::MAX
    } else {
        (1u128 << history.ops.len()) - 1
    };
    let initial = searcher.spec.initial_state();
    if searcher.search(all_remaining, initial) {
        LinResult::Linearizable(std::mem::take(&mut searcher.witness))
    } else {
        LinResult::NotLinearizable
    }
}

struct Searcher<'a> {
    ops: &'a [OpRecord],
    spec: SnapshotSpec,
    /// Memoized (remaining-set, state) configurations already proven fruitless.
    seen: HashSet<(u128, Vec<u64>)>,
    witness: Vec<usize>,
}

impl Searcher<'_> {
    fn search(&mut self, remaining: u128, state: Vec<u64>) -> bool {
        if remaining == 0 {
            return true;
        }
        if !self.seen.insert((remaining, state.clone())) {
            return false;
        }
        // An operation may linearize first among the remaining ones only if no
        // other remaining operation returned before it was invoked.
        let min_return = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| remaining & (1u128 << i) != 0)
            .map(|(_, op)| op.returned_at)
            .min()
            .expect("remaining is non-empty");
        for i in 0..self.ops.len() {
            let bit = 1u128 << i;
            if remaining & bit == 0 {
                continue;
            }
            let op = &self.ops[i];
            if op.invoked_at > min_return {
                continue;
            }
            if !self.spec.is_legal(&state, &op.op, &op.result) {
                continue;
            }
            // Advance the state through the candidate operation. Scans leave
            // the state untouched and skip `apply` entirely — inside this
            // exponential search, recomputing a scan's (already-validated)
            // result vector per candidate would be pure allocation churn.
            let mut next_state = state.clone();
            match &op.op {
                Operation::Scan { .. } => {}
                mutating => {
                    let _ = self.spec.apply(&mut next_state, mutating);
                }
            }
            self.witness.push(i);
            if self.search(remaining & !bit, next_state) {
                return true;
            }
            self.witness.pop();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::tests::{batch, history, scan, update};

    #[test]
    fn empty_history_is_linearizable() {
        let h = history(2, vec![]);
        assert!(check_history(&h).is_linearizable());
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let h = history(
            2,
            vec![
                update(0, 0, 5, 1, 2),
                scan(1, &[0, 1], &[5, 0], 3, 4),
                update(0, 1, 6, 5, 6),
                scan(1, &[0, 1], &[5, 6], 7, 8),
            ],
        );
        match check_history(&h) {
            LinResult::Linearizable(order) => assert_eq!(order.len(), 4),
            LinResult::NotLinearizable => panic!("sequential history must linearize"),
        }
    }

    #[test]
    fn overlapping_scan_may_or_may_not_see_concurrent_update() {
        // The scan overlaps the update; both "sees 5" and "sees 0" linearize.
        for seen in [0u64, 5] {
            let h = history(
                1,
                vec![update(0, 0, 5, 1, 10), scan(1, &[0], &[seen], 2, 9)],
            );
            assert!(
                check_history(&h).is_linearizable(),
                "scan seeing {seen} must be accepted"
            );
        }
    }

    #[test]
    fn scan_must_not_return_values_never_written() {
        let h = history(1, vec![update(0, 0, 5, 1, 2), scan(1, &[0], &[7], 3, 4)]);
        assert_eq!(check_history(&h), LinResult::NotLinearizable);
    }

    #[test]
    fn scan_must_not_return_stale_value_after_overwrite_completed() {
        // update(0)=1 completes, then update(0)=2 completes, then a scan
        // starts: it must see 2, not 1.
        let h = history(
            1,
            vec![
                update(0, 0, 1, 1, 2),
                update(0, 0, 2, 3, 4),
                scan(1, &[0], &[1], 5, 6),
            ],
        );
        assert_eq!(check_history(&h), LinResult::NotLinearizable);
    }

    #[test]
    fn scan_must_not_read_from_the_future() {
        // The scan completes before the update is invoked but claims to see it.
        let h = history(1, vec![scan(1, &[0], &[9], 1, 2), update(0, 0, 9, 3, 4)]);
        assert_eq!(check_history(&h), LinResult::NotLinearizable);
    }

    #[test]
    fn torn_partial_scan_is_rejected() {
        // Two components are always updated together (first 0 then 1, by the
        // same process, sequentially); a scan that sees the new value of
        // component 1 but the old value of component 0 is inconsistent.
        let h = history(
            2,
            vec![
                update(0, 0, 10, 1, 2),
                update(0, 1, 11, 3, 4),
                scan(1, &[0, 1], &[0, 11], 5, 6),
            ],
        );
        assert_eq!(check_history(&h), LinResult::NotLinearizable);
    }

    #[test]
    fn contradictory_scan_pair_is_rejected() {
        // Two overlapping scans on the same two components disagree about the
        // order of two overlapping updates: one claims u0 happened but not u1,
        // the other claims u1 happened but not u0. No single order satisfies
        // both.
        let h = history(
            2,
            vec![
                update(0, 0, 1, 1, 20),
                update(1, 1, 2, 1, 20),
                scan(2, &[0, 1], &[1, 0], 1, 20),
                scan(3, &[0, 1], &[0, 2], 1, 20),
            ],
        );
        assert_eq!(check_history(&h), LinResult::NotLinearizable);
    }

    #[test]
    fn partially_ordered_scans_on_disjoint_components_are_fine() {
        let h = history(
            4,
            vec![
                update(0, 0, 1, 1, 10),
                update(1, 2, 2, 1, 10),
                scan(2, &[0, 1], &[1, 0], 1, 10),
                scan(3, &[2, 3], &[0, 0], 1, 10),
            ],
        );
        assert!(check_history(&h).is_linearizable());
    }

    #[test]
    fn witness_order_replays_to_the_recorded_responses() {
        let h = history(
            2,
            vec![
                update(0, 0, 3, 1, 6),
                scan(1, &[0, 1], &[3, 0], 2, 5),
                update(2, 1, 4, 3, 4),
                scan(3, &[1], &[4], 7, 8),
            ],
        );
        let LinResult::Linearizable(order) = check_history(&h) else {
            panic!("history should linearize");
        };
        // Replay the witness and confirm every response matches.
        let spec = SnapshotSpec::new(2, 0);
        let mut state = spec.initial_state();
        for idx in order {
            let op = &h.ops[idx];
            let result = spec.apply(&mut state, &op.op);
            assert_eq!(result, op.result);
        }
    }

    #[test]
    fn multi_writer_same_component_ordering_is_respected() {
        // Writer A writes 1 and completes; writer B writes 2 and completes;
        // then one scan sees 2 (fine). A second scan, issued later, seeing 1
        // again would be a new-old inversion.
        let good = history(
            1,
            vec![
                update(0, 0, 1, 1, 2),
                update(1, 0, 2, 3, 4),
                scan(2, &[0], &[2], 5, 6),
                scan(3, &[0], &[2], 7, 8),
            ],
        );
        assert!(check_history(&good).is_linearizable());

        let bad = history(
            1,
            vec![
                update(0, 0, 1, 1, 2),
                update(1, 0, 2, 3, 4),
                scan(2, &[0], &[2], 5, 6),
                scan(3, &[0], &[1], 7, 8),
            ],
        );
        assert_eq!(check_history(&bad), LinResult::NotLinearizable);
    }

    #[test]
    fn batch_update_is_atomic_for_scans() {
        // A completed batch followed by a scan: the scan must see the whole
        // batch (with the duplicate resolved last-write-wins)...
        let whole = history(
            3,
            vec![
                batch(0, &[(0, 1), (2, 9), (0, 2)], 1, 2),
                scan(1, &[0, 1, 2], &[2, 0, 9], 3, 4),
            ],
        );
        assert!(check_history(&whole).is_linearizable());
        // ...and a scan that observes only half of it is torn.
        let torn = history(
            3,
            vec![
                batch(0, &[(0, 2), (2, 9)], 1, 2),
                scan(1, &[0, 2], &[2, 0], 3, 4),
            ],
        );
        assert_eq!(check_history(&torn), LinResult::NotLinearizable);
    }

    #[test]
    fn concurrent_batch_is_all_or_nothing() {
        // A scan overlapping the batch may see none of it or all of it, but
        // never a strict subset.
        for (seen, ok) in [([0u64, 0u64], true), ([5, 7], true), ([5, 0], false)] {
            let h = history(
                2,
                vec![
                    batch(0, &[(0, 5), (1, 7)], 1, 10),
                    scan(1, &[0, 1], &seen, 2, 9),
                ],
            );
            assert_eq!(
                check_history(&h).is_linearizable(),
                ok,
                "scan seeing {seen:?} judged incorrectly"
            );
        }
    }

    #[test]
    #[should_panic(expected = "well-formed")]
    fn malformed_history_is_rejected() {
        let h = history(1, vec![update(0, 5, 1, 1, 2)]);
        let _ = check_history(&h);
    }
}
