//! Linearizability across **live resharding**: adversarial schedules run
//! while a resharder swaps the partition map under the traffic, and the
//! recorded histories face the same checkers as every static layout —
//! exhaustive Wing–Gong for small schedules, the scalable monotone checks
//! for stress schedules. A reshard records nothing in the history, so any
//! torn cut or lost write it causes is charged to the operation that
//! observed it and fails the check.

use std::sync::Arc;

use partial_snapshot::lincheck::{check_history, check_monotone_history, History};
use partial_snapshot::shard::{MvShardedSnapshot, ShardConfig};
use partial_snapshot::sim::{
    run_scenario, run_scenario_via_service, run_scenario_via_wire, ReshardTarget, Role, Scenario,
    ServiceDriverConfig, WireTransport,
};
use partial_snapshot::snapshot::{ReshardOp, Resharding};

/// A reshard schedule that is guaranteed to make progress on any two-shard
/// layout: the merge is always accepted (two allocated ids, distinct), after
/// which shard 0 owns every component (≥ 2 in any cross-shard scenario) so
/// the split is accepted too, and the final merge folds the appended shard
/// back. Every history therefore really spans at least two generations.
fn two_shard_reshard_storm() -> Vec<ReshardOp> {
    vec![
        ReshardOp::Merge { from: 1, into: 0 },
        ReshardOp::Split { shard: 0 },
        ReshardOp::Merge { from: 2, into: 0 },
        ReshardOp::Split { shard: 0 },
    ]
}

/// Appends a resharder role that issues `ops` against `store`.
fn push_resharder(
    scenario: &mut Scenario,
    ops: Vec<ReshardOp>,
    store: &Arc<MvShardedSnapshot<u64>>,
) {
    scenario.roles.push(Role::Resharder {
        ops,
        store: ReshardTarget(store.clone()),
    });
}

#[test]
fn mv_sharded_small_schedules_stay_linearizable_across_live_reshards() {
    for seed in 0..25u64 {
        let mut scenario = Scenario::random_cross_shard(seed, 2);
        let snapshot = Arc::new(MvShardedSnapshot::new(
            scenario.components,
            scenario.processes() + 1, // the resharder's slot too
            0u64,
            ShardConfig::multiversioned(2),
        ));
        push_resharder(&mut scenario, two_shard_reshard_storm(), &snapshot);
        let history = run_scenario(&snapshot, &scenario);
        assert!(
            check_history(&history).is_linearizable(),
            "seed {seed}: mv history spanning a live reshard is not linearizable"
        );
        assert!(
            snapshot.reshards() >= 2,
            "seed {seed}: the reshard storm must actually reshard (got {})",
            snapshot.reshards()
        );
    }
}

#[test]
fn mv_sharded_stress_history_is_monotone_across_a_reshard_storm() {
    let mut scenario = Scenario::stress(24, 3, 3, 200, 120, 6, 42);
    let snapshot = Arc::new(MvShardedSnapshot::new(
        24,
        scenario.processes() + 1, // the resharder's slot too
        0u64,
        ShardConfig::multiversioned(3),
    ));
    // A longer storm over a three-shard layout; ids that have gone invalid
    // or empty by the time an op fires are refused harmlessly, the rest
    // keep the layout churning under the full stress workload.
    push_resharder(
        &mut scenario,
        vec![
            ReshardOp::Split { shard: 0 },
            ReshardOp::Split { shard: 1 },
            ReshardOp::Merge { from: 3, into: 0 },
            ReshardOp::Split { shard: 2 },
            ReshardOp::Merge { from: 4, into: 1 },
            ReshardOp::Split { shard: 0 },
            ReshardOp::Merge { from: 5, into: 2 },
        ],
        &snapshot,
    );
    let history = run_scenario(&snapshot, &scenario);
    assert_eq!(history.len(), scenario.total_ops());
    history.validate_well_formed().unwrap();
    assert_eq!(check_monotone_history(&history), Ok(()));
    assert!(snapshot.reshards() >= 1);
    assert!(snapshot.generation() >= 1);
}

/// The small reshard storm behind a frontend: the roles' traffic goes
/// through clients while the resharder reshards the backing object it
/// carries, and every client-observed history must still be linearizable.
fn reshard_storm_behind(
    frontend: &str,
    seeds: std::ops::Range<u64>,
    run: impl Fn(Arc<MvShardedSnapshot<u64>>, &Scenario) -> History,
) {
    for seed in seeds {
        let mut scenario = Scenario::random_cross_shard(seed, 2);
        let snapshot = Arc::new(MvShardedSnapshot::new(
            scenario.components,
            2, // ingest + scan pids
            0u64,
            ShardConfig::multiversioned(2),
        ));
        push_resharder(&mut scenario, two_shard_reshard_storm(), &snapshot);
        let history = run(Arc::clone(&snapshot), &scenario);
        assert_eq!(history.len(), scenario.total_ops());
        assert!(
            check_history(&history).is_linearizable(),
            "seed {seed}: {frontend} history spanning a live reshard is not linearizable"
        );
        assert!(
            snapshot.reshards() >= 2,
            "seed {seed}: the reshard storm behind the {frontend} must reshard (got {})",
            snapshot.reshards()
        );
    }
}

#[test]
fn service_small_schedules_stay_linearizable_across_live_reshards() {
    reshard_storm_behind("service", 0..8, |snapshot, scenario| {
        run_scenario_via_service(snapshot, scenario, &ServiceDriverConfig::default())
    });
}

#[test]
fn wire_small_schedules_stay_linearizable_across_live_reshards() {
    reshard_storm_behind("wire", 0..4, |snapshot, scenario| {
        run_scenario_via_wire(
            snapshot,
            scenario,
            &ServiceDriverConfig::default(),
            WireTransport::Unix,
        )
    });
}
