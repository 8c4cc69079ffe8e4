//! End-to-end online resharding through the service: a reshard driver
//! watching windowed shard heat must split a hot shard while submits and
//! scans keep flowing, scans must stay exact across the cutover, and the
//! obs snapshot must expose the moving generation and the heat rates the
//! driver acted on. Those rates are the driver's own window: reading them
//! advances nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psnap_core::{ReshardOp, Resharding};
use psnap_serve::{Coalescing, Executor, Freshness, ServiceConfig, SnapshotService};
use psnap_shard::{MvShardedSnapshot, ReshardPolicyConfig, ShardConfig};

const M: usize = 64;

#[test]
fn reshard_driver_splits_a_hot_shard_under_live_traffic() {
    psnap_obs::set_enabled(true); // the heat signal the driver feeds on
    let backing = Arc::new(MvShardedSnapshot::new(
        M,
        8,
        0u64,
        ShardConfig::multiversioned(2),
    ));
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig {
            coalescing: Coalescing::Window(Duration::ZERO),
            ..ServiceConfig::default()
        },
        &executor,
    );
    let driver = service.spawn_reshard_driver(
        &executor,
        Duration::from_millis(1),
        ReshardPolicyConfig {
            split_skew: 1.2,
            cooldown_ticks: 1,
            min_total_rate: 1.0,
            max_shards: 8,
            ..ReshardPolicyConfig::default()
        },
    );

    // Every write lands in the first quarter of the component space —
    // shard 0 of the initial two-shard contiguous layout — so its heat
    // rate towers over fair share and the driver must split it.
    let start_generation = backing.generation();
    let deadline = Instant::now() + Duration::from_secs(20);
    let client = service.client();
    let mut round = 0u64;
    while backing.generation() == start_generation {
        assert!(
            Instant::now() < deadline,
            "driver never split the hot shard (generation still {})",
            backing.generation()
        );
        round += 1;
        for component in 0..M / 4 {
            assert!(client.submit_blocking(component, round));
        }
        let hot: Vec<usize> = (0..M / 4).collect();
        // `submit_blocking` waits until applied and this is the only
        // writer, so a fresh scan straddling any reshard must still read
        // exactly this round everywhere — a mixed vector is a torn cut.
        assert_eq!(
            client.scan_blocking(&hot, Freshness::Fresh).unwrap(),
            vec![round; M / 4],
            "scan tore across the reshard at round {round}"
        );
    }

    // Traffic keeps flowing correctly on the post-split layout.
    round += 1;
    for component in 0..M {
        assert!(client.submit_blocking(component, round));
    }
    let all: Vec<usize> = (0..M).collect();
    assert_eq!(
        client.scan_blocking(&all, Freshness::Fresh).unwrap(),
        vec![round; M],
        "post-split scan must see the post-split writes exactly"
    );

    // Stop the driver before comparing two readings of the generation, and
    // bracket the snapshot: a split it had already begun may still land.
    driver.stop();
    let (obs, generation) = loop {
        let before = backing.generation();
        let obs = service.obs();
        if backing.generation() == before {
            break (obs, before);
        }
    };
    assert_eq!(
        obs.generation, generation,
        "obs must expose the live partition-map generation"
    );
    assert!(obs.generation > start_generation);
    assert!(
        obs.shard_heat.len() > 2,
        "a split must appear as a new shard-heat slot (got {})",
        obs.shard_heat.len()
    );
    assert_eq!(obs.shard_heat_rate.len(), obs.shard_heat.len());
    assert!(backing.reshards() >= 1);

    service.shutdown();
}

/// A reader after a reshard reads the version chains that moved with their
/// components: migrated and unmigrated components alike read their newest
/// values, each request through one backing union scan. Nothing answers
/// from a cut taken before the layout moved.
#[test]
fn a_reader_after_a_reshard_reads_migrated_and_unmigrated_components() {
    let backing = Arc::new(MvShardedSnapshot::new(
        M,
        2,
        0u64,
        ShardConfig::multiversioned(2),
    ));
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    let client = service.client();
    for component in 0..M {
        assert!(client.submit_blocking(component, 100 + component as u64));
    }

    // Shard 0 owns 0..32 and shard 1 owns 32..64; splitting shard 0 keeps
    // 0..16 in place and moves 16..32 to a new shard. One union job covers
    // two components that will stay (0 and 5), one that will migrate (20)
    // and one on the untouched shard (40).
    let request = [0, 5, 20, 40];
    let values = client.scan_blocking(&request, Freshness::Fresh).unwrap();
    assert_eq!(values, vec![100, 105, 120, 140]);
    let before = service.stats();
    assert_eq!(before.backing_scans, 1);

    // Overwrite everything the reads below touch, then move the layout: an
    // answer from before the reshard is recognisable by its old values.
    for component in request {
        assert!(client.submit_blocking(component, 900 + component as u64));
    }
    assert!(backing.reshard(ReshardOp::Split { shard: 0 }));
    assert_eq!(backing.shard_of(5), 0);
    assert_eq!(backing.shard_of(20), 2);

    // Unmigrated components, duplicates and all.
    assert_eq!(
        client
            .scan_blocking(&[40, 0, 5, 0], Freshness::Fresh)
            .unwrap(),
        vec![940, 900, 905, 900]
    );
    // A migrated component beside an unmigrated one.
    assert_eq!(
        client.scan_blocking(&[5, 20], Freshness::Fresh).unwrap(),
        vec![905, 920]
    );
    let after = service.stats();
    assert_eq!(after.backing_scans, before.backing_scans + 2, "{after:?}");

    service.shutdown();
}

/// `shard_heat_rate` is the window the reshard driver last decided on, not
/// a window of the obs caller's own: two reads in a row with the driver
/// stopped see the same rates.
#[test]
fn obs_reads_the_drivers_heat_rates_without_advancing_them() {
    psnap_obs::set_enabled(true); // the heat signal the driver feeds on
    let backing = Arc::new(MvShardedSnapshot::new(
        M,
        2,
        0u64,
        ShardConfig::multiversioned(2),
    ));
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    let driver = service.spawn_reshard_driver(
        &executor,
        Duration::from_millis(1),
        ReshardPolicyConfig {
            // The policy never acts: only the published rates are tested.
            min_total_rate: f64::INFINITY,
            ..ReshardPolicyConfig::default()
        },
    );
    let client = service.client();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut round = 0u64;
    while service.obs().shard_heat_rate.iter().all(|&r| r == 0.0) {
        assert!(
            Instant::now() < deadline,
            "the driver never published a rate"
        );
        round += 1;
        for component in 0..M {
            assert!(client.submit_blocking(component, round));
        }
    }
    driver.stop();
    // Let a tick that was already running finish before the two reads.
    std::thread::sleep(Duration::from_millis(50));
    let first = service.obs().shard_heat_rate;
    let second = service.obs().shard_heat_rate;
    assert_eq!(first, second, "a read advanced the heat-rate window");
    assert!(first.iter().any(|&r| r > 0.0), "{first:?}");
    assert_eq!(backing.generation(), 0, "the policy must not have acted");
    service.shutdown();
}
