//! Executes scenarios against snapshot implementations and records histories.
//!
//! One role loop serves every frontend a scenario can run through: the
//! object itself ([`run_scenario`]), a `psnap-serve` client
//! ([`crate::run_scenario_via_service`]) and a `psnap-wire` remote client
//! ([`crate::run_scenario_via_wire`]). Each driver only sets its frontend up
//! and tears it down; the threads, the barrier, the chaos seeds and the
//! history are the same for all three.

use std::fmt::Debug;
use std::sync::{Arc, Barrier};

use psnap_core::PartialSnapshot;
use psnap_shmem::{chaos, process, ProcessId};

use crate::lincheck::{History, LogicalClock, OpRecord, OpResult, Operation};
use crate::scenario::{Role, Scenario};

/// What a role's operations go through.
pub(crate) trait Frontend {
    fn update(&self, component: usize, value: u64);
    fn update_many(&self, writes: &[(usize, u64)]);
    fn scan(&self, components: &[usize]) -> Vec<u64>;
}

/// The object itself, called as the role's own process.
struct Direct<'a, S: ?Sized> {
    object: &'a S,
    pid: ProcessId,
}

impl<S: PartialSnapshot<u64> + ?Sized> Frontend for Direct<'_, S> {
    fn update(&self, component: usize, value: u64) {
        self.object.update(self.pid, component, value)
    }
    fn update_many(&self, writes: &[(usize, u64)]) {
        self.object.update_many(self.pid, writes)
    }
    fn scan(&self, components: &[usize]) -> Vec<u64> {
        self.object.scan(self.pid, components)
    }
}

/// Runs `scenario` against `snapshot`, one OS thread per process, and returns
/// the recorded history of all completed operations.
///
/// The update values written by updater roles follow the monotone
/// single-writer discipline: process `p`'s `k`-th update writes value
/// `k * processes + p + 1`, which is strictly increasing per component (each
/// component is owned by one process) and never equal to the initial value.
pub fn run_scenario<S>(snapshot: &Arc<S>, scenario: &Scenario) -> History
where
    S: PartialSnapshot<u64> + ?Sized + 'static,
{
    check_fits(&**snapshot, scenario);
    assert!(
        snapshot.max_processes() >= scenario.processes(),
        "snapshot object configured for fewer processes than the scenario needs"
    );
    run_roles(scenario, true, |pid| Direct {
        object: &**snapshot,
        pid: ProcessId(pid),
    })
}

/// Panics unless `scenario` is valid and fits `snapshot`'s components.
pub(crate) fn check_fits<S: PartialSnapshot<u64> + ?Sized>(snapshot: &S, scenario: &Scenario) {
    scenario
        .validate()
        .expect("scenario must be valid before it is run");
    assert!(
        snapshot.components() >= scenario.components,
        "snapshot object too small for the scenario"
    );
}

/// Runs every role of `scenario` on its own scoped thread and builds the
/// history. `connect` opens each role's frontend on the calling thread, in
/// pid order; the role's thread drops it when the role is done, still under
/// the role's chaos. Resharder roles act on the store they carry. Only a
/// direct run registers each thread as its role's process (`register_pids`):
/// behind a service the object's processes are the service's own.
pub(crate) fn run_roles<F: Frontend + Send>(
    scenario: &Scenario,
    register_pids: bool,
    mut connect: impl FnMut(usize) -> F,
) -> History {
    let clock = LogicalClock::new();
    let barrier = Barrier::new(scenario.processes());
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = scenario
            .roles
            .iter()
            .enumerate()
            .map(|(pid, role)| {
                let frontend = connect(pid);
                let (clock, barrier) = (&clock, &barrier);
                scope.spawn(move || {
                    let _id = register_pids.then(|| process::register(ProcessId(pid)));
                    let _chaos_guard = scenario
                        .chaos
                        .as_ref()
                        .map(|c| chaos::enable(c.seed.wrapping_add(pid as u64), c.config.clone()));
                    barrier.wait();
                    let log = run_role(&frontend, pid, scenario.processes(), role, clock);
                    drop(frontend);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scenario role thread panicked"))
            .collect()
    });
    History::from_logs(scenario.components, scenario.initial, logs)
}

/// Runs one role: its operations go through `frontend` one at a time, each
/// timed on the shared `clock`.
fn run_role(
    frontend: &impl Frontend,
    pid: usize,
    processes: usize,
    role: &Role,
    clock: &LogicalClock,
) -> Vec<OpRecord> {
    let value = move |k: usize| (k as u64 + 1) * processes as u64 + pid as u64 + 1;
    let ops: Box<dyn Iterator<Item = Operation> + '_> = match role {
        Role::Updater { components, ops } => Box::new((0..*ops).map(move |k| Operation::Update {
            component: components[k % components.len()],
            value: value(k),
        })),
        Role::BatchUpdater {
            components,
            ops,
            batch,
        } => {
            // Rotate a window of `width` owned components; all writes of
            // round k carry the round's value, which is strictly
            // increasing per component under single ownership.
            let width = (*batch).clamp(1, components.len());
            Box::new((0..*ops).map(move |k| {
                Operation::BatchUpdate {
                    writes: (0..width)
                        .map(|i| (components[(k * width + i) % components.len()], value(k)))
                        .collect(),
                }
            }))
        }
        Role::Scanner { scans } => Box::new(scans.iter().map(|components| Operation::Scan {
            components: components.clone(),
        })),
        Role::Resharder { ops, store } => {
            // Environment reconfiguration: reshard the layout under the
            // other roles' feet and record nothing — any tear it causes is
            // charged to the operations that observed it. Behind a service
            // or a socket it stays operator-plane work on the store itself.
            // Yielding between ops lets real traffic interleave with each
            // reshard.
            for &op in ops {
                std::thread::yield_now();
                let _ = store.0.reshard(op);
                std::thread::yield_now();
            }
            return Vec::new();
        }
    };
    ops.map(|op| {
        let invoked_at = clock.now();
        let result = match &op {
            Operation::Update { component, value } => {
                frontend.update(*component, *value);
                OpResult::Ack
            }
            Operation::BatchUpdate { writes } => {
                frontend.update_many(writes);
                OpResult::Ack
            }
            Operation::Scan { components } => OpResult::Values(frontend.scan(components)),
        };
        OpRecord {
            pid: ProcessId(pid),
            op,
            result,
            invoked_at,
            returned_at: clock.now(),
        }
    })
    .collect()
}

/// Retries `op` while it answers `busy`; any other error is fatal for the
/// run (a scenario client must never lose an operation silently).
pub(crate) fn retry_busy<T, E: PartialEq + Debug>(
    busy: E,
    mut op: impl FnMut() -> Result<T, E>,
) -> T {
    loop {
        match op() {
            Ok(value) => return value,
            Err(e) if e == busy => std::thread::yield_now(),
            Err(other) => panic!("scenario client failed under a live scenario: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lincheck::{check_history, check_monotone_history};
    use psnap_core::{CasPartialSnapshot, RegisterPartialSnapshot};

    #[test]
    fn stress_scenario_produces_well_formed_history() {
        let scenario = Scenario::stress(8, 2, 2, 50, 30, 3, 7);
        let snapshot = Arc::new(CasPartialSnapshot::new(8, scenario.processes(), 0u64));
        let history = run_scenario(&snapshot, &scenario);
        assert_eq!(history.len(), scenario.total_ops());
        history.validate_well_formed().unwrap();
        assert_eq!(check_monotone_history(&history), Ok(()));
    }

    #[test]
    fn small_scenarios_are_wgl_checkable() {
        for seed in 0..5 {
            let scenario = Scenario::random_small(seed);
            let snapshot = Arc::new(RegisterPartialSnapshot::new(
                scenario.components,
                scenario.processes(),
                0u64,
            ));
            let history = run_scenario(&snapshot, &scenario);
            assert!(
                check_history(&history).is_linearizable(),
                "seed {seed} produced a non-linearizable history"
            );
        }
    }

    #[test]
    fn batched_roles_record_batch_operations() {
        let scenario = Scenario::stress_batched(8, 2, 1, 30, 10, 3, 2, 3);
        let snapshot = Arc::new(CasPartialSnapshot::new(8, scenario.processes(), 0u64));
        let history = run_scenario(&snapshot, &scenario);
        assert_eq!(history.len(), scenario.total_ops());
        let batches = history
            .ops
            .iter()
            .filter(|o| matches!(o.op, Operation::BatchUpdate { .. }))
            .count();
        assert_eq!(batches, 60, "every updater op must be a batch");
        history.validate_well_formed().unwrap();
        assert_eq!(check_monotone_history(&history), Ok(()));
    }

    #[test]
    fn resharder_roles_record_nothing_and_preserve_the_checkers() {
        use crate::scenario::ReshardTarget;
        use psnap_core::ReshardOp;
        use psnap_shard::{MvShardedSnapshot, ShardConfig};
        let mut scenario = Scenario::stress(16, 2, 2, 60, 30, 5, 11);
        let snapshot = Arc::new(MvShardedSnapshot::new(
            16,
            scenario.processes() + 1,
            0u64,
            ShardConfig::multiversioned(2),
        ));
        scenario.roles.push(Role::Resharder {
            ops: vec![
                ReshardOp::Split { shard: 0 },
                ReshardOp::Split { shard: 1 },
                ReshardOp::Merge { from: 2, into: 0 },
            ],
            store: ReshardTarget(snapshot.clone()),
        });
        let history = run_scenario(&snapshot, &scenario);
        assert_eq!(
            history.len(),
            scenario.total_ops(),
            "reshard ops must not appear in the history"
        );
        history.validate_well_formed().unwrap();
        assert_eq!(check_monotone_history(&history), Ok(()));
        assert!(
            snapshot.reshards() >= 1,
            "at least the first split must be accepted"
        );
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn mismatched_object_size_is_rejected() {
        let scenario = Scenario::stress(8, 2, 1, 5, 5, 2, 0);
        let snapshot = Arc::new(CasPartialSnapshot::new(4, 8, 0u64));
        let _ = run_scenario(&snapshot, &scenario);
    }

    #[test]
    #[should_panic(expected = "fewer processes")]
    fn mismatched_process_count_is_rejected() {
        let scenario = Scenario::stress(8, 4, 4, 5, 5, 2, 0);
        let snapshot = Arc::new(CasPartialSnapshot::new(8, 2, 0u64));
        let _ = run_scenario(&snapshot, &scenario);
    }
}
