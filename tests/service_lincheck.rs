//! Lincheck conformance for the service frontend: every per-client result
//! returned by `psnap-serve` must correspond to a legal linearizable
//! operation on the backing object — in particular, a **coalesced** scan
//! (one backing scan fanned out to several requesters) must still be a legal
//! partial scan for every requester, and a coalesced (last-write-wins)
//! ingestion chunk must still explain every submitted update.
//!
//! Small adversarial scenarios go through the exhaustive WGL checker; stress
//! scenarios through the scalable monotone checks — the same discipline the
//! in-process runners use, now applied to client-observed histories.

use std::sync::Arc;
use std::time::Duration;

use partial_snapshot::lincheck::{check_history, check_monotone_history};
use partial_snapshot::serve::Coalescing;
use partial_snapshot::shard::{MvShardedSnapshot, ShardConfig};
use partial_snapshot::sim::{run_scenario_via_service, Scenario, ServiceDriverConfig};
use partial_snapshot::snapshot::{CasPartialSnapshot, MvSnapshot, PartialSnapshot};

fn driver(coalescing: Coalescing) -> ServiceDriverConfig {
    ServiceDriverConfig {
        coalescing,
        ..ServiceDriverConfig::default()
    }
}

#[test]
fn coalesced_small_histories_are_linearizable_over_cas() {
    // Drain-everything coalescing (window 0): requests pending while a
    // backing scan runs are merged into the next union scan.
    for seed in 0..25 {
        let scenario = Scenario::random_small(seed);
        let snapshot = Arc::new(CasPartialSnapshot::new(scenario.components, 2, 0u64));
        let history = run_scenario_via_service(
            snapshot,
            &scenario,
            &driver(Coalescing::Window(Duration::ZERO)),
        );
        assert_eq!(history.len(), scenario.total_ops());
        assert!(
            check_history(&history).is_linearizable(),
            "seed {seed}: coalesced service history not linearizable"
        );
    }
}

#[test]
fn windowed_coalescing_histories_are_linearizable() {
    // A real accumulation window maximizes merging: many clients' scans
    // share one backing scan, the strongest version of the conformance
    // claim.
    for seed in 0..10 {
        let scenario = Scenario::random_small(seed ^ 0xA11CE);
        let snapshot = Arc::new(CasPartialSnapshot::new(scenario.components, 2, 0u64));
        let history = run_scenario_via_service(
            snapshot,
            &scenario,
            &driver(Coalescing::Window(Duration::from_micros(300))),
        );
        assert!(
            check_history(&history).is_linearizable(),
            "seed {seed}: windowed service history not linearizable"
        );
    }
}

#[test]
fn coalesced_histories_over_the_sharded_store_are_linearizable() {
    // The service's union scan exercises the sharded store's cross-shard
    // scans (the scenarios' scans deliberately span shards), while the
    // drainer's chunks exercise its cross-shard batch commit.
    for seed in 0..12 {
        let scenario = Scenario::random_cross_shard(seed, 2);
        let snapshot = Arc::new(MvShardedSnapshot::new(
            scenario.components,
            2,
            0u64,
            ShardConfig::contiguous(2),
        ));
        let history = run_scenario_via_service(
            snapshot,
            &scenario,
            &driver(Coalescing::Window(Duration::ZERO)),
        );
        assert!(
            check_history(&history).is_linearizable(),
            "seed {seed}: sharded service history not linearizable"
        );
    }
}

/// Runs scenario `seed` of `scenario` against `snapshot` under a 100 µs
/// coalescing window and checks every client-observed history with the
/// exhaustive WGL checker.
fn assert_windowed_histories_linearizable<S>(
    label: &str,
    seeds: std::ops::Range<u64>,
    scenario: impl Fn(u64) -> Scenario,
    snapshot: impl Fn(&Scenario) -> S,
) where
    S: PartialSnapshot<u64> + 'static,
{
    for seed in seeds {
        let scenario = scenario(seed);
        let history = run_scenario_via_service(
            Arc::new(snapshot(&scenario)),
            &scenario,
            &driver(Coalescing::Window(Duration::from_micros(100))),
        );
        assert_eq!(history.len(), scenario.total_ops());
        assert!(
            check_history(&history).is_linearizable(),
            "seed {seed}: {label} windowed service history not linearizable"
        );
    }
}

#[test]
fn mv_backed_windowed_histories_are_linearizable() {
    // The only service-level WGL check of a single `MvSnapshot`: its union
    // scans are announce→tick→read_at cuts, which must linearize inside
    // every requester's interval.
    assert_windowed_histories_linearizable(
        "mv-backed",
        0..25,
        |seed| Scenario::random_small(seed ^ 0x57A1E),
        |scenario| MvSnapshot::new(scenario.components, 2, 0u64),
    );
}

#[test]
fn cas_backed_windowed_histories_are_linearizable() {
    assert_windowed_histories_linearizable(
        "cas-backed",
        0..25,
        |seed| Scenario::random_small(seed ^ 0x57A1E),
        |scenario| CasPartialSnapshot::new(scenario.components, 2, 0u64),
    );
}

#[test]
fn mv_sharded_windowed_histories_are_linearizable() {
    // Cross-shard scenarios over the multiversioned sharded store: every
    // scan goes into one cross-shard union on the scan role's pid.
    assert_windowed_histories_linearizable(
        "mv-sharded",
        0..10,
        |seed| Scenario::random_cross_shard(seed ^ 0x3A12D, 2),
        |scenario| {
            MvShardedSnapshot::new(
                scenario.components,
                2, // ingest + scan roles
                0u64,
                ShardConfig::multiversioned(2),
            )
        },
    );
}

#[test]
fn service_stress_histories_pass_monotone_checks() {
    // Larger mixed workloads (plain and batched updaters) through the
    // service, checked with the scalable necessary conditions.
    let plain = Scenario::stress(16, 4, 3, 80, 50, 5, 0x5E7);
    let snapshot = Arc::new(CasPartialSnapshot::new(16, 2, 0u64));
    let history = run_scenario_via_service(
        snapshot,
        &plain,
        &driver(Coalescing::Window(Duration::ZERO)),
    );
    assert_eq!(history.len(), plain.total_ops());
    history.validate_well_formed().unwrap();
    assert_eq!(check_monotone_history(&history), Ok(()));

    let batched = Scenario::stress_batched(16, 4, 2, 60, 40, 5, 3, 0xBA7);
    let snapshot = Arc::new(CasPartialSnapshot::new(16, 2, 0u64));
    let history = run_scenario_via_service(
        snapshot,
        &batched,
        &driver(Coalescing::Window(Duration::from_micros(100))),
    );
    assert_eq!(history.len(), batched.total_ops());
    history.validate_well_formed().unwrap();
    assert_eq!(check_monotone_history(&history), Ok(()));
}
