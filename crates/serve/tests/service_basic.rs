//! End-to-end semantics of the service frontend: ingestion coalescing,
//! scan coalescing, freshness bounds, backpressure, and the stats
//! partitioning discipline.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psnap_core::CasPartialSnapshot;
use psnap_serve::testing::GatedSnapshot;
use psnap_serve::{Coalescing, Executor, Freshness, ServiceConfig, SnapshotService, SubmitError};

type Backing = Arc<GatedSnapshot<u64, CasPartialSnapshot<u64>>>;

fn gated(m: usize) -> Backing {
    Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(m, 2, 0u64)))
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn submit_and_scan_round_trip() {
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        CasPartialSnapshot::new(32, 2, 0u64),
        ServiceConfig::default(),
        &executor,
    );
    let client = service.client();
    client.submit(5, 50).unwrap().wait();
    client.submit_batch(vec![(1, 10), (2, 20)]).unwrap().wait();
    let values = client
        .scan(vec![1, 2, 5, 9], Freshness::Fresh)
        .unwrap()
        .wait();
    assert_eq!(values, vec![10, 20, 50, 0]);
    // Empty submissions and scans are no-ops that still resolve.
    client.submit_batch(vec![]).unwrap().wait();
    assert_eq!(
        client.scan(vec![], Freshness::Fresh).unwrap().wait(),
        Vec::<u64>::new()
    );
    service.shutdown();
}

#[test]
fn drainer_coalesces_same_component_writes_last_write_wins() {
    let backing = gated(16);
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    let client = service.client();

    // Park the drainer so the three writes below land in one chunk.
    backing.update_gate.close();
    // An unrelated write first, so the drainer is provably parked mid-apply
    // (it collected something and is blocked in update_many).
    let warmup = client.submit(9, 1).unwrap();
    wait_until("drainer to collect the warm-up write", || {
        service.ingest_depth() == 0
    });
    let t1 = client.submit(3, 100).unwrap();
    let t2 = client.submit(3, 200).unwrap();
    let t3 = client.submit(3, 300).unwrap();
    backing.update_gate.open();
    warmup.wait();
    t1.wait();
    t2.wait();
    t3.wait();

    // Only the final value of component 3 reached the backing object.
    let applied = backing.applied_writes();
    let writes_to_3: Vec<u64> = applied
        .iter()
        .filter(|(c, _)| *c == 3)
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(writes_to_3, vec![300], "coalescing must be last-write-wins");
    let values = client.scan(vec![3], Freshness::Fresh).unwrap().wait();
    assert_eq!(values, vec![300]);

    let stats = service.stats();
    assert_eq!(stats.writes_coalesced_away, 2);
    service.shutdown();
}

#[test]
fn client_batches_are_never_split_across_update_many_calls() {
    let backing = gated(16);
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig {
            // Tiny chunk budget: three 2-write batches exceed it, forcing the
            // drainer to chunk — but never inside a submission.
            max_batch: 3,
            ..ServiceConfig::default()
        },
        &executor,
    );
    let client = service.client();
    backing.update_gate.close();
    let warmup = client.submit(15, 1).unwrap();
    wait_until("drainer to collect the warm-up write", || {
        service.ingest_depth() == 0
    });
    let tickets: Vec<_> = (0..3)
        .map(|k| {
            client
                .submit_batch(vec![(2 * k, 7), (2 * k + 1, 7)])
                .unwrap()
        })
        .collect();
    backing.update_gate.open();
    warmup.wait();
    for t in tickets {
        t.wait();
    }
    // Every batch's two components appear adjacently in the applied log —
    // one update_many per submission boundary, never a split.
    let applied = backing.applied_writes();
    for k in 0..3usize {
        let i = applied
            .iter()
            .position(|(c, _)| *c == 2 * k)
            .expect("batch write applied");
        assert_eq!(
            applied[i + 1].0,
            2 * k + 1,
            "batch {k} was split across update_many calls: {applied:?}"
        );
    }
    assert!(service.stats().batches_applied >= 3);
    service.shutdown();
}

#[test]
fn full_ingest_queue_rejects_with_busy_and_nothing_is_lost() {
    let backing = gated(8);
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig {
            ingest_capacity: 4,
            ..ServiceConfig::default()
        },
        &executor,
    );
    let client = service.client();

    backing.update_gate.close();
    let parked = client.submit(0, 1).unwrap();
    wait_until("drainer to park on the gate", || {
        service.ingest_depth() == 0
    });
    // Fill the queue while the drainer is parked, then overflow it.
    let queued: Vec<_> = (0..4)
        .map(|k| client.submit(1, k as u64 + 10).unwrap())
        .collect();
    assert_eq!(
        client.submit(1, 99).err(),
        Some(SubmitError::Busy),
        "a full queue must reject immediately"
    );
    let stats = service.stats();
    assert_eq!(stats.submits_busy, 1);
    assert_eq!(stats.submits_ok, 5);

    // Backpressure rejected the overflow *without* touching accepted work:
    // releasing the gate resolves every accepted ticket.
    backing.update_gate.open();
    parked.wait();
    for t in queued {
        t.wait();
    }
    // The rejected write never reached the object.
    assert_eq!(
        client.scan(vec![1], Freshness::Fresh).unwrap().wait(),
        vec![13],
        "queue tail (value 13) must win; the rejected 99 must not appear"
    );
    service.shutdown();
}

#[test]
fn concurrent_scans_coalesce_into_one_backing_scan() {
    let backing = gated(32);
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    for c in 0..32 {
        let client = service.client();
        client.submit(c, c as u64 + 100).unwrap().wait();
    }

    // Park the scan server inside a first backing scan, then pile up
    // overlapping requests; on release they must all be answered by a single
    // union scan.
    backing.scan_gate.close();
    let first = service.client().scan(vec![0, 1], Freshness::Fresh).unwrap();
    wait_until("scan server to park on the gate", || {
        service.scan_depth() == 0
    });
    let requests: Vec<(Vec<usize>, _)> = (0..6)
        .map(|k| {
            let components = vec![k, k + 1, 31 - k];
            let ticket = service
                .client()
                .scan(components.clone(), Freshness::Fresh)
                .unwrap();
            (components, ticket)
        })
        .collect();
    let scans_before = backing.inner_scans();
    backing.scan_gate.open();
    assert_eq!(first.wait(), vec![100, 101]);
    for (components, ticket) in requests {
        let expected: Vec<u64> = components.iter().map(|&c| c as u64 + 100).collect();
        assert_eq!(ticket.wait(), expected);
    }
    let stats = service.stats();
    assert_eq!(
        backing.inner_scans() - scans_before,
        2,
        "the 6 queued requests must share one union scan (plus the parked one)"
    );
    assert!(
        stats.coalescing_ratio() > 1.0,
        "ratio must show merging: {stats:?}"
    );
    // Overlap between the merged requests must be deduplicated.
    assert!(stats.component_dedup_ratio() > 1.0, "{stats:?}");
    service.shutdown();

    // The contrast: with coalescing disabled the same pile-up is answered
    // by one backing scan per request, and the ratio says so exactly.
    let service = SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig {
            coalescing: Coalescing::Disabled,
            ..ServiceConfig::default()
        },
        &executor,
    );
    backing.scan_gate.close();
    let first = service.client().scan(vec![0, 1], Freshness::Fresh).unwrap();
    wait_until("scan server to park on the gate", || {
        service.scan_depth() == 0
    });
    let queued: Vec<_> = (0..6)
        .map(|k| service.client().scan(vec![k, k + 1], Freshness::Fresh))
        .collect();
    let scans_before = backing.inner_scans();
    backing.scan_gate.open();
    assert_eq!(first.wait(), vec![100, 101]);
    for (k, ticket) in queued.into_iter().enumerate() {
        assert_eq!(ticket.unwrap().wait(), vec![k as u64 + 100, k as u64 + 101]);
    }
    assert_eq!(backing.inner_scans() - scans_before, 7);
    assert_eq!(service.stats().coalescing_ratio(), 1.0);
    service.shutdown();
}

#[test]
fn freshness_bounds_choose_between_cache_and_backing() {
    let backing = gated(16);
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    let client = service.client();
    client.submit(2, 22).unwrap().wait();

    // A Fresh scan populates the cache.
    assert_eq!(
        client.scan(vec![2, 3], Freshness::Fresh).unwrap().wait(),
        vec![22, 0]
    );
    let after_first = backing.inner_scans();

    // A generously bounded request is served from the cache: no new backing
    // scan, same atomic view.
    let cached = client
        .scan(vec![3, 2], Freshness::AtMostStale(Duration::from_secs(600)))
        .unwrap()
        .wait();
    assert_eq!(cached, vec![0, 22]);
    assert_eq!(backing.inner_scans(), after_first, "must be a cache hit");

    // A zero bound can never be met by a cache entry; neither can a request
    // for components the cache does not cover.
    let _ = client
        .scan(vec![2], Freshness::AtMostStale(Duration::ZERO))
        .unwrap()
        .wait();
    assert_eq!(backing.inner_scans(), after_first + 1);
    let _ = client
        .scan(vec![9], Freshness::AtMostStale(Duration::from_secs(600)))
        .unwrap()
        .wait();
    assert_eq!(
        backing.inner_scans(),
        after_first + 2,
        "uncovered component"
    );

    // Fresh always pays for a backing scan, cache or no cache.
    let _ = client.scan(vec![2], Freshness::Fresh).unwrap().wait();
    assert_eq!(backing.inner_scans(), after_first + 3);

    // An empty request is answered inline: no backing scan, and — crucially —
    // it must not wipe the freshness cache the previous scan populated.
    assert!(client
        .scan(vec![], Freshness::Fresh)
        .unwrap()
        .wait()
        .is_empty());
    assert_eq!(backing.inner_scans(), after_first + 3);
    let cached_again = client
        .scan(vec![2], Freshness::AtMostStale(Duration::from_secs(600)))
        .unwrap()
        .wait();
    assert_eq!(cached_again, vec![22]);
    assert_eq!(
        backing.inner_scans(),
        after_first + 3,
        "the cache must survive an interleaved empty scan"
    );

    let stats = service.stats();
    assert_eq!(stats.scans_served_cache, 2);
    assert_eq!(stats.scans_served_empty, 1);
    service.shutdown();
}

#[test]
fn coalescing_window_accumulates_requests() {
    let executor = Executor::new(2);
    let snapshot = Arc::new(CasPartialSnapshot::new(16, 2, 0u64));
    let service = SnapshotService::start(
        Arc::clone(&snapshot),
        ServiceConfig {
            coalescing: Coalescing::Window(Duration::from_millis(5)),
            ..ServiceConfig::default()
        },
        &executor,
    );
    // Requests trickling in within one window still merge: issue them from
    // threads with sub-window jitter.
    let clients: Vec<_> = (0..4).map(|_| service.client()).collect();
    std::thread::scope(|scope| {
        for (i, client) in clients.iter().enumerate() {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_micros(200 * i as u64));
                let values = client
                    .scan(vec![i, i + 4], Freshness::Fresh)
                    .unwrap()
                    .wait();
                assert_eq!(values, vec![0, 0]);
            });
        }
    });
    let stats = service.stats();
    assert!(
        stats.backing_scans < stats.scans_served_backing,
        "windowed coalescing must merge at least two of the four: {stats:?}"
    );
    service.shutdown();
}

#[test]
fn dropped_client_queues_are_pruned_after_draining() {
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        CasPartialSnapshot::new(16, 2, 0u64),
        ServiceConfig::default(),
        &executor,
    );
    // Short-lived clients, one submit each: every accepted write must still
    // land, and the dead queues must not accumulate.
    for k in 0..100usize {
        let client = service.client();
        client.submit(k % 16, k as u64 + 1).unwrap().wait();
    }
    let survivor = service.client();
    // The drainer prunes on its next pass; poke it with live traffic.
    wait_until("dropped client queues to be pruned", || {
        survivor.submit(0, 1).unwrap().wait();
        service.client_count() <= 1
    });
    // Nothing was lost to pruning: the last value of each component stands.
    let values = survivor
        .scan((0..16).collect(), Freshness::Fresh)
        .unwrap()
        .wait();
    for (c, v) in values.iter().enumerate() {
        // Last k in 0..100 with k % 16 == c, +1 for the value — except
        // component 0, which the survivor's pruning pokes overwrote with 1.
        let last_k = if c <= 3 { 96 + c } else { 80 + c };
        let expected = if c == 0 { 1 } else { last_k as u64 + 1 };
        assert_eq!(*v, expected, "component {c}");
    }
    service.shutdown();
}

#[test]
fn shutdown_resolves_every_accepted_ticket_and_stats_partition() {
    let backing = gated(16);
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    let client = service.client();

    backing.update_gate.close();
    let parked = client.submit(0, 1).unwrap();
    wait_until("drainer to park on the gate", || {
        service.ingest_depth() == 0
    });
    let tickets: Vec<_> = (0..5).map(|k| client.submit(k, 7).unwrap()).collect();
    let scan_ticket = client.scan(vec![0, 4], Freshness::Fresh).unwrap();

    // Shut down while the drainer is parked: accepted work must still drain.
    let shutdown = std::thread::spawn(move || {
        service.shutdown();
        service
    });
    std::thread::sleep(Duration::from_millis(10));
    backing.update_gate.open();
    let service = shutdown.join().expect("shutdown panicked");

    parked.wait();
    for t in tickets {
        t.wait();
    }
    assert_eq!(scan_ticket.wait().len(), 2);
    // Post-shutdown submissions are rejected with Closed.
    assert_eq!(client.submit(0, 2).err(), Some(SubmitError::Closed));
    assert_eq!(
        client.scan(vec![0], Freshness::Fresh).err(),
        Some(SubmitError::Closed)
    );

    // The counters partition exactly, like the sharded store's stats.
    let stats = service.stats();
    assert_eq!(stats.submits_ok, stats.submits_resolved, "{stats:?}");
    assert_eq!(
        stats.writes_submitted,
        stats.writes_applied + stats.writes_coalesced_away,
        "{stats:?}"
    );
    assert_eq!(
        stats.scans_ok,
        stats.scans_served_backing + stats.scans_served_cache + stats.scans_served_empty,
        "{stats:?}"
    );
    assert_eq!(stats.submits_closed, 1);
    assert_eq!(stats.scans_closed, 1);
}
