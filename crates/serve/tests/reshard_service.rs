//! End-to-end online resharding through the service: a reshard driver
//! watching windowed shard heat must split a hot shard while submits and
//! scans keep flowing, scans must stay exact across the cutover, and the
//! obs snapshot must expose the moving generation and the heat rates the
//! driver acted on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psnap_core::PartialSnapshot;
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
            scan_pids: 2,
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

#[test]
fn reshard_driver_is_inert_on_an_unsharded_backing_object() {
    let backing = psnap_core::CasPartialSnapshot::new(8, 4, 0u64);
    let executor = Executor::new(1);
    let service = SnapshotService::start(backing, ServiceConfig::default(), &executor);
    let driver = service.spawn_reshard_driver(
        &executor,
        Duration::from_millis(1),
        ReshardPolicyConfig::default(),
    );
    let client = service.client();
    for component in 0..8 {
        assert!(client.submit_blocking(component, component as u64));
    }
    std::thread::sleep(Duration::from_millis(10));
    let values = client.scan_blocking(&[0, 3, 7], Freshness::Fresh).unwrap();
    assert_eq!(values, vec![0, 3, 7]);
    assert_eq!(service.obs().generation, 0, "nothing to reshard");
    driver.stop();
    service.shutdown();
}
