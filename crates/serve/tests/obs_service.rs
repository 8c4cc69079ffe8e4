//! Observability over a live service: the registry's partition invariants
//! must hold at quiescence after arbitrary concurrent traffic (including a
//! chaos-perturbed combiners), `obs()` must expose real latency quantiles
//! and per-shard heat, and the periodic reporter must actually tick.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use psnap_core::Resharding;
use psnap_obs::Registry;
use psnap_serve::{Coalescing, Executor, Freshness, ServiceConfig, SnapshotService};
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_shmem::chaos::{self, ChaosConfig};

const M: usize = 16;
const SHARDS: usize = 4;

fn sharded_backing() -> Arc<MvShardedSnapshot<u64>> {
    Arc::new(MvShardedSnapshot::new(
        M,
        4,
        0u64,
        ShardConfig::contiguous(SHARDS),
    ))
}

#[test]
fn partition_invariants_hold_over_a_live_service_under_chaos() {
    let backing = sharded_backing();
    // On the client threads: they combine, so the pipelines run there.
    let chaos = ChaosConfig {
        perturb_probability: 0.3,
        sleep_probability: 0.3,
        max_sleep_us: 200,
        max_spin: 64,
        ..ChaosConfig::default()
    };
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig {
            ingest_capacity: 8,
            coalescing: Coalescing::Window(Duration::from_micros(200)),
            ..ServiceConfig::default()
        },
        &executor,
    );

    let registry = Registry::new();
    service.register_obs(&registry, "serve");
    backing.register_obs(&registry, "shard");

    let clients = 3usize;
    let ops = 80usize;
    std::thread::scope(|scope| {
        for client_index in 0..clients {
            let client = service.client();
            let chaos = chaos.clone();
            scope.spawn(move || {
                let _chaos = chaos::enable(0x0B5 + client_index as u64, chaos);
                for op in 0..ops {
                    let component = (4 * client_index + op) % M;
                    assert!(client.submit_blocking(component, op as u64 + 1));
                }
            });
        }
        for scanner in 0..2u64 {
            let client = service.client();
            let chaos = chaos.clone();
            scope.spawn(move || {
                let _chaos = chaos::enable(0x1B5 + scanner, chaos);
                let all: Vec<usize> = (0..M).collect();
                for _ in 0..40 {
                    let values = client
                        .scan_blocking(&all)
                        .expect("service closed under a live scanner");
                    assert_eq!(values.len(), M);
                }
            });
        }
    });
    service.shutdown();

    // At quiescence every accepted submission has resolved, every submitted
    // write was applied or coalesced away, and every accepted scan was
    // served by exactly one path. All three are registry invariants.
    registry.assert_invariants();

    let obs = service.obs();
    let heat = backing.shard_heat();
    assert_eq!(heat.len(), SHARDS, "one heat counter per shard");
    assert!(
        heat.iter().sum::<u64>() > 0,
        "traffic must register as shard heat: {heat:?}"
    );
    assert!(obs.stats.scan_latency.count >= 80, "{:?}", obs.stats);
    assert!(
        obs.stats.scan_latency.p50 > 0,
        "{:?}",
        obs.stats.scan_latency
    );
    assert!(obs.stats.scan_latency.p99 >= obs.stats.scan_latency.p50);
    assert!(obs.stats.submit_latency.count > 0);
    assert!(
        obs.coalescing_ratio >= 1.0,
        "every backing scan serves at least the request that triggered it: {}",
        obs.coalescing_ratio
    );

    // The exposition carries every registered family.
    let text = registry.dump_text();
    for needle in [
        "serve.ingest.ok",
        "serve.scan.latency_ns",
        "shard.scan.cross",
        "shard.heat.0",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn stats_reporter_ticks_and_stops() {
    let backing = sharded_backing();
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);

    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let reporter = service.spawn_stats_reporter(&executor, Duration::from_millis(5), move |obs| {
        sink.lock().unwrap().push(obs);
    });

    let client = service.client();
    for op in 0..50u64 {
        assert!(client.submit_blocking(op as usize % M, op + 1));
    }
    let all: Vec<usize> = (0..M).collect();
    client.scan_blocking(&all).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    while seen.lock().unwrap().len() < 3 {
        assert!(Instant::now() < deadline, "reporter never ticked");
        std::thread::sleep(Duration::from_millis(2));
    }
    reporter.stop();

    let ticks = seen.lock().unwrap();
    let last = ticks.last().unwrap();
    assert!(last.stats.submits_ok >= 50, "{:?}", last.stats);
    // Snapshots are monotone in the counters they carry.
    for pair in ticks.windows(2) {
        assert!(pair[1].stats.submits_ok >= pair[0].stats.submits_ok);
        assert!(pair[1].stats.scans_ok >= pair[0].stats.scans_ok);
    }
    drop(ticks);
    service.shutdown();
}

#[test]
fn reporter_exits_on_service_shutdown() {
    let backing = sharded_backing();
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);

    let ticked = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&ticked);
    let _reporter = service.spawn_stats_reporter(&executor, Duration::from_millis(2), move |_| {
        flag.store(true, Ordering::Release);
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ticked.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "reporter never ticked");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Shutdown alone must stop the reporter: after the close flag is set the
    // task exits on its next tick, so the tick stream goes quiet.
    service.shutdown();
    std::thread::sleep(Duration::from_millis(20));
    ticked.store(false, Ordering::Release);
    std::thread::sleep(Duration::from_millis(30));
    assert!(
        !ticked.load(Ordering::Acquire),
        "reporter kept ticking after shutdown"
    );
}

#[test]
fn a_zero_window_records_one_zero_decision_per_scan_round() {
    let config = ServiceConfig::default();
    assert_eq!(config.coalescing, Coalescing::Window(Duration::ZERO));
    let executor = Executor::new(2);
    let service = SnapshotService::start(sharded_backing(), config, &executor);
    let client = service.client();
    client.submit(3, 30).unwrap().wait();
    // One fresh scan at a time: each is a round of its own.
    for _ in 0..5 {
        let values = client.scan(vec![3], Freshness::Fresh).unwrap().wait();
        assert_eq!(values, vec![30]);
    }
    let window = service.stats().window_ns;
    assert_eq!((window.count, window.max), (5, 0), "{window:?}");
    service.shutdown();
}
