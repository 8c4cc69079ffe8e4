//! End-to-end online resharding through the service: a reshard driver
//! watching windowed shard heat must split a hot shard while submits and
//! scans keep flowing, scans must stay exact across the cutover, and the
//! obs snapshot must expose the moving generation and the heat rates the
//! driver acted on.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psnap_core::{PartialSnapshot, ReshardOp};
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

/// Cache entries are published by moving a union job's vectors in, with no
/// lookup index until a stale reader asks — and no stale reader asks here
/// until the cache has turned over completely and the layout has moved
/// under it. That first reader must still get lazy per-shard revalidation:
/// components that stayed on their shard are served from the cached cut,
/// components that migrated are not.
#[test]
fn stale_reader_after_a_reshard_is_served_from_the_cache_for_unmigrated_components_only() {
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
    // 0..16 in place and moves 16..32 to a new shard. Twelve Fresh union
    // jobs (more than the cache holds), every one covering two components
    // that will stay (0 and 5), one that will migrate (20) and one on the
    // untouched shard (40), plus a component of its own.
    let jobs = 12;
    for job in 0..jobs {
        let request = [0, 5, 20, 40, 6 + job];
        let values = client.scan_blocking(&request, Freshness::Fresh).unwrap();
        let expected: Vec<u64> = request.iter().map(|&c| 100 + c as u64).collect();
        assert_eq!(values, expected);
    }
    // An answer may reach its client before its cut reaches the cache; an
    // empty scan is served strictly after the job before it has finished.
    assert!(client
        .scan_blocking(&[], Freshness::Fresh)
        .unwrap()
        .is_empty());
    let before = service.stats();
    assert_eq!(before.backing_scans, jobs as u64);
    assert_eq!(before.scans_served_cache, 0, "no stale reader so far");
    assert_eq!(before.cache_revalidated, 0);

    // Overwrite everything the stale reads below touch, then move the
    // layout: a cached answer is now recognisable by its old values.
    for component in [0, 5, 20, 40] {
        assert!(client.submit_blocking(component, 900 + component as u64));
    }
    assert!(backing.reshard(ReshardOp::Split { shard: 0 }));
    assert_eq!(backing.shard_of(5), 0);
    assert_eq!(backing.shard_of(20), 2);

    let bound = Freshness::AtMostStale(Duration::from_secs(600));
    // Unmigrated components, duplicates and all: the pre-reshard cut.
    assert_eq!(
        client.scan_blocking(&[40, 0, 5, 0], bound).unwrap(),
        vec![140, 100, 105, 100]
    );
    let after_hit = service.stats();
    assert_eq!(after_hit.scans_served_cache, 1, "{after_hit:?}");
    assert_eq!(after_hit.backing_scans, jobs as u64);
    // Every entry the cache still held was revalidated, and each of them
    // lost (at least) the migrated component 20.
    assert_eq!(after_hit.cache_revalidated, 8, "{after_hit:?}");
    assert!(after_hit.cache_invalidated_components >= 8, "{after_hit:?}");

    // A request touching the migrated component is not served from any
    // cached cut (the version chains answer it, with the new values).
    assert_eq!(
        client.scan_blocking(&[5, 20], bound).unwrap(),
        vec![905, 920]
    );
    let after_miss = service.stats();
    assert_eq!(after_miss.scans_served_cache, 1, "{after_miss:?}");
    assert_eq!(after_miss.scans_served_mv, 1, "{after_miss:?}");
    assert_eq!(after_miss.cache_revalidated, 8, "revalidation happens once");

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
