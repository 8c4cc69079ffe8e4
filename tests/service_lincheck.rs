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
use partial_snapshot::serve::{Coalescing, Freshness};
use partial_snapshot::shard::{MvShardedSnapshot, ShardConfig};
use partial_snapshot::sim::{run_scenario_via_service, Scenario, ServiceDriverConfig};
use partial_snapshot::snapshot::{CasPartialSnapshot, MvSnapshot};

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

#[test]
fn mv_backed_stale_histories_are_linearizable() {
    // Scanners request `AtMostStale(0)`: the zero bound makes the cache tier
    // unusable (any cached cut is strictly older than the bound), so on a
    // multiversioned backend every one of these scans is answered by the mv
    // fast path — `scan_stale`'s announce→tick→read_at cut at its announced
    // timestamp — with **no** backing union scans. That cut linearizes
    // inside the request's service time, so the exhaustive WGL checker
    // applies to the client-observed history unchanged: this is the
    // conformance proof that coalesced `AtMostStale` answers are legal
    // snapshots at their announced timestamps.
    for seed in 0..12 {
        let scenario = Scenario::random_small(seed ^ 0x57A1E);
        let snapshot = Arc::new(MvSnapshot::new(scenario.components, 2, 0u64));
        let history = run_scenario_via_service(
            Arc::clone(&snapshot),
            &scenario,
            &ServiceDriverConfig {
                coalescing: Coalescing::Window(Duration::from_micros(100)),
                scanner_freshness: Freshness::AtMostStale(Duration::ZERO),
                ..ServiceDriverConfig::default()
            },
        );
        assert_eq!(history.len(), scenario.total_ops());
        assert!(
            check_history(&history).is_linearizable(),
            "seed {seed}: mv-backed stale service history not linearizable"
        );
    }
}

#[test]
fn mv_sharded_stale_histories_are_linearizable_with_parallel_unions() {
    // Cross-shard scenarios over the multiversioned sharded store: stale
    // requests ride the sharded `scan_stale` (announce every involved
    // shard, one shared-camera tick), and the Fresh requests that remain
    // go into one cross-shard union on the scan server's pid. Both paths
    // must yield linearizable client-observed histories.
    for seed in 0..10 {
        let scenario = Scenario::random_cross_shard(seed ^ 0x3A12D, 2);
        let snapshot = Arc::new(MvShardedSnapshot::new(
            scenario.components,
            2, // drainer + scan server
            0u64,
            ShardConfig::multiversioned(2),
        ));
        let history = run_scenario_via_service(
            Arc::clone(&snapshot),
            &scenario,
            &ServiceDriverConfig {
                coalescing: Coalescing::Window(Duration::from_micros(100)),
                scanner_freshness: Freshness::AtMostStale(Duration::ZERO),
                ..ServiceDriverConfig::default()
            },
        );
        assert!(
            check_history(&history).is_linearizable(),
            "seed {seed}: mv-sharded stale service history not linearizable"
        );
    }
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
