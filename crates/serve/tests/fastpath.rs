//! The scan pipeline's fast paths: lone-request immediate dispatch, and
//! shard-spanning unions answered by the one scan server.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psnap_core::CasPartialSnapshot;
use psnap_serve::{Coalescing, Executor, Freshness, ServiceConfig, SnapshotService};
use psnap_shard::{MvShardedSnapshot, ShardConfig};

#[test]
fn lone_fresh_scan_at_idle_server_skips_the_window() {
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        CasPartialSnapshot::new(16, 2, 0u64),
        ServiceConfig {
            // A window long enough that waiting it out would be unmissable.
            coalescing: Coalescing::Window(Duration::from_secs(1)),
            ..ServiceConfig::default()
        },
        &executor,
    );
    let client = service.client();
    client.submit(3, 30).unwrap().wait();
    let t0 = Instant::now();
    let values = client.scan(vec![3], Freshness::Fresh).unwrap().wait();
    let elapsed = t0.elapsed();
    assert_eq!(values, vec![30]);
    assert!(
        elapsed < Duration::from_millis(500),
        "lone scan at an idle server waited the window: {elapsed:?}"
    );
    let stats = service.stats();
    // The lone dispatch is recorded as a zero-width window decision.
    assert_eq!(stats.window_ns.count, 1, "{stats:?}");
    assert_eq!(stats.window_ns.sum, 0, "{stats:?}");
    service.shutdown();
}

#[test]
fn parallel_union_jobs_answer_shard_disjoint_batches_correctly() {
    let executor = Executor::new(3);
    let snapshot = Arc::new(MvShardedSnapshot::new(
        32,
        3,
        0u64,
        ShardConfig::multiversioned(4),
    ));
    let service = SnapshotService::start(
        Arc::clone(&snapshot),
        ServiceConfig {
            coalescing: Coalescing::Window(Duration::from_micros(300)),
            scan_capacity: 1024,
            ..ServiceConfig::default()
        },
        &executor,
    );
    let client = service.client();
    for c in 0..32 {
        client.submit(c, c as u64 + 100).unwrap().wait();
    }
    // Concurrent Fresh scans with shard-disjoint footprints: each coalesced
    // batch is one union across shards on the scan server's one pid, and
    // every answer must still be exact.
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let client = service.client();
            scope.spawn(move || {
                // Thread t scans only shard t's components (contiguous
                // partition: shard t owns components 8t..8t+8).
                for k in 0..50 {
                    let base = t * 8;
                    let components = vec![base + k % 8, base + (k + 3) % 8];
                    let expected: Vec<u64> = components.iter().map(|&c| c as u64 + 100).collect();
                    let values = client.scan(components, Freshness::Fresh).unwrap().wait();
                    assert_eq!(values, expected);
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.scans_ok, 200, "{stats:?}");
    assert_eq!(
        stats.scans_ok,
        stats.scans_served_backing + stats.scans_served_empty,
        "serving-path partition violated: {stats:?}"
    );
    service.shutdown();
}
