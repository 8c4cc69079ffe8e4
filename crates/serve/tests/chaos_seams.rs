//! Seam tests for the ingestion pipeline: the combiner is parked
//! mid-coalesce (deterministically via a gate, and probabilistically via the
//! chaos layer on the client threads that combine) while clients keep
//! submitting. Whatever the
//! interleaving, no accepted write may be dropped or applied twice, and
//! every waiter must eventually resolve.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psnap_core::CasPartialSnapshot;
use psnap_serve::testing::GatedSnapshot;
use psnap_serve::{Coalescing, Executor, Freshness, ServiceConfig, SnapshotService, SubmitError};
use psnap_shmem::chaos::{self, ChaosConfig};

/// Per-component conformance of the applied-write log against what each
/// client actually submitted: with one writer per component submitting
/// strictly increasing values sequentially, a correct drainer applies a
/// strictly increasing subsequence ending in the last submitted value.
/// Strict increase rules out double-application and reordering; ending at
/// the last value rules out dropping any write's *effect* (an individual
/// value may legally be superseded by coalescing, never lost).
fn assert_applied_log_conforms(applied: &[(usize, u64)], last_submitted: &[(usize, u64)]) {
    for &(component, last) in last_submitted {
        let mut prev = 0u64;
        for &(c, v) in applied.iter().filter(|(c, _)| *c == component) {
            assert!(
                v > prev,
                "component {c}: value {v} applied out of order or twice (prev {prev})"
            );
            prev = v;
        }
        assert_eq!(
            prev, last,
            "component {component}: final applied value must be the last submitted"
        );
    }
}

/// What each component must hold at the end: client `k` writes value
/// `op + 1` to component `4k + (op % 4)` for `op` in `0..ops`.
fn expected_final_values(clients: usize, ops: usize) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    for client_index in 0..clients {
        for j in 0..4usize {
            let last_op = (0..ops).filter(|op| op % 4 == j).max().expect("ops >= 4");
            out.push((4 * client_index + j, last_op as u64 + 1));
        }
    }
    out
}

#[test]
fn parked_drainer_with_live_submitters_loses_nothing() {
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(16, 2, 0u64)));
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);

    let clients = 4usize;
    let ops = 120usize;
    let gate = Arc::clone(&backing.update_gate);
    let stop_toggling = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // A control thread repeatedly parks the drainer mid-coalesce: whenever
    // the gate closes while the drainer is inside apply_pending, it holds a
    // collected-but-unapplied chunk across many client submissions.
    let toggler = {
        let gate = Arc::clone(&gate);
        let stop = Arc::clone(&stop_toggling);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                gate.close();
                std::thread::sleep(Duration::from_millis(2));
                gate.open();
                std::thread::sleep(Duration::from_micros(500));
            }
            gate.open();
        })
    };

    std::thread::scope(|scope| {
        for client_index in 0..clients {
            let client = service.client();
            scope.spawn(move || {
                // Client k owns components 4k..4k+4 and writes strictly
                // increasing values round-robin, awaiting every ticket: each
                // waiter must resolve even while the drainer is parked.
                for op in 0..ops {
                    let component = 4 * client_index + (op % 4);
                    assert!(
                        client.submit_blocking(component, op as u64 + 1),
                        "service closed under a live client"
                    );
                }
            });
        }
    });
    stop_toggling.store(true, std::sync::atomic::Ordering::Relaxed);
    toggler.join().unwrap();
    let last_submitted = expected_final_values(clients, ops);
    assert_applied_log_conforms(&backing.applied_writes(), &last_submitted);

    // The service agrees with the log.
    let client = service.client();
    for &(component, last) in &last_submitted {
        assert_eq!(
            client
                .scan(vec![component], Freshness::Fresh)
                .unwrap()
                .wait(),
            vec![last]
        );
    }
    let stats = service.stats();
    assert_eq!(stats.submits_ok, stats.submits_resolved, "{stats:?}");
    assert_eq!(
        stats.writes_submitted,
        stats.writes_applied + stats.writes_coalesced_away,
        "{stats:?}"
    );
    service.shutdown();
}

#[test]
fn chaos_parked_workers_preserve_ingestion_and_scan_conformance() {
    // The probabilistic version of the seam: the client threads — which
    // combine, so the pipelines run on them — run under an aggressive,
    // sleep-heavy chaos configuration, so a combiner parks at arbitrary
    // base-object boundaries *inside* update_many — genuinely mid-coalesce —
    // while clients submit and scan concurrently.
    let chaos = ChaosConfig {
        perturb_probability: 0.4,
        sleep_probability: 0.5,
        max_sleep_us: 300,
        max_spin: 64,
        ..ChaosConfig::default()
    };
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(12, 2, 0u64)));
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

    let updaters = 3usize;
    let ops = 150usize;
    std::thread::scope(|scope| {
        for client_index in 0..updaters {
            let client = service.client();
            let chaos = chaos.clone();
            scope.spawn(move || {
                let _chaos = chaos::enable(0x5EA1 + client_index as u64, chaos);
                for op in 0..ops {
                    let component = 4 * client_index + (op % 4);
                    assert!(client.submit_blocking(component, op as u64 + 1));
                }
            });
        }
        for scanner in 0..2u64 {
            let client = service.client();
            let chaos = chaos.clone();
            scope.spawn(move || {
                let _chaos = chaos::enable(0x5EB1 + scanner, chaos);
                // Concurrent scanners assert per-component monotonicity of
                // the coalesced views while the chaos schedule runs.
                let mut high = [0u64; 12];
                let deadline = Instant::now() + Duration::from_secs(60);
                for _ in 0..60 {
                    assert!(Instant::now() < deadline, "scanner starved");
                    let all: Vec<usize> = (0..12).collect();
                    let values = client
                        .scan_blocking(&all)
                        .expect("service closed under a live scanner");
                    for (c, &v) in values.iter().enumerate() {
                        assert!(
                            v >= high[c],
                            "component {c} went backwards under chaos: {v} < {}",
                            high[c]
                        );
                        high[c] = v;
                    }
                }
            });
        }
    });

    assert_applied_log_conforms(
        &backing.applied_writes(),
        &expected_final_values(updaters, ops),
    );
    let stats = service.stats();
    assert_eq!(stats.submits_ok, stats.submits_resolved, "{stats:?}");
    assert_eq!(
        stats.writes_submitted,
        stats.writes_applied + stats.writes_coalesced_away,
        "{stats:?}"
    );
    assert_eq!(
        stats.scans_ok,
        stats.scans_served_backing + stats.scans_served_empty,
        "{stats:?}"
    );
    service.shutdown();
}

/// Seam test for the shutdown drain accounting: clients keep registering
/// and submitting while shutdown runs and the drainer sits parked mid-apply
/// behind the update gate. Every submission must either be refused with
/// `Closed` at the push, or be accepted AND have its ticket resolve — a
/// push accepted after the final round's drain would strand its ticket and
/// leak the `ingest_depth` gauge. (The one ingest queue rules this out: a
/// push and shutdown's close take the same queue lock, so a push either
/// lands before the close, where the final rounds collect it, or is
/// refused.) The gate parks the drainer deterministically; the rounds vary
/// the shutdown timing for schedule diversity.
#[test]
fn shutdown_racing_late_client_registration_strands_no_ticket() {
    use std::sync::atomic::{AtomicU64, Ordering};

    for round in 0..6u64 {
        let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(8, 2, 0u64)));
        let executor = Executor::new(2);
        let service =
            SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);

        // Park the ingest role inside apply_pending so accepted submissions
        // pile up in client queues across the whole shutdown window: the
        // parked ticket's waiter, on a thread of its own, is the combiner.
        backing.update_gate.close();
        let early = service.client();
        let parked = early.submit(0, 1).unwrap();
        let parked = std::thread::spawn(move || parked.wait());
        let deadline = Instant::now() + Duration::from_secs(30);
        while service.ingest_depth() != 0 {
            assert!(Instant::now() < deadline, "drainer never collected");
            std::thread::yield_now();
        }

        let accepted = AtomicU64::new(0);
        let resolved = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for worker in 0..3usize {
                let service = &service;
                let accepted = &accepted;
                let resolved = &resolved;
                scope.spawn(move || {
                    let mut tickets = Vec::new();
                    'storm: loop {
                        // A fresh client every iteration: registrations keep
                        // racing the shutdown sweep itself.
                        let client = service.client();
                        for op in 0..4u64 {
                            assert!(Instant::now() < deadline, "storm never refused");
                            match client.submit(1 + worker * 2 + (op as usize % 2), op + 1) {
                                Ok(ticket) => {
                                    accepted.fetch_add(1, Ordering::Relaxed);
                                    tickets.push(ticket);
                                }
                                Err(SubmitError::Busy) => std::thread::yield_now(),
                                Err(SubmitError::Closed) => break 'storm,
                            }
                        }
                    }
                    // Every accepted ticket must resolve even though the
                    // service refused this client's later submissions.
                    for ticket in tickets {
                        ticket.wait();
                        resolved.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let service = &service;
            let gate = Arc::clone(&backing.update_gate);
            scope.spawn(move || {
                // Shut down while the storm runs and the drainer is parked;
                // vary the timing per round.
                std::thread::sleep(Duration::from_micros(100 + 300 * round));
                let opener = std::thread::spawn(move || {
                    // Un-park the drainer only after shutdown has begun, so
                    // the close sweep and the final drain race the storm.
                    std::thread::sleep(Duration::from_micros(200));
                    gate.open();
                });
                service.shutdown();
                opener.join().unwrap();
            });
        });
        parked.join().unwrap();

        assert_eq!(
            accepted.load(Ordering::Relaxed),
            resolved.load(Ordering::Relaxed),
            "round {round}: accepted tickets left unresolved"
        );
        let stats = service.stats();
        assert_eq!(
            stats.submits_ok, stats.submits_resolved,
            "round {round}: {stats:?}"
        );
        assert_eq!(
            service.obs().ingest_depth,
            0,
            "round {round}: ingest gauge leaked"
        );
        assert_eq!(service.ingest_depth(), 0, "round {round}: queues not empty");
    }
}

#[test]
fn shutdown_while_parked_mid_coalesce_resolves_all_waiters_exactly_once() {
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(8, 2, 0u64)));
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    let client = service.client();

    backing.update_gate.close();
    let parked = client.submit(0, 1).unwrap();
    // Its waiter is the combiner that parks mid-coalesce.
    let parked = std::thread::spawn(move || parked.wait());
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.ingest_depth() != 0 {
        assert!(Instant::now() < deadline, "drainer never collected");
        std::thread::yield_now();
    }
    let tickets: Vec<_> = (1..6)
        .map(|k| client.submit(k, k as u64).unwrap())
        .collect();

    let shutdown = std::thread::spawn(move || {
        service.shutdown();
        service
    });
    std::thread::sleep(Duration::from_millis(5));
    backing.update_gate.open();
    let service = shutdown.join().unwrap();

    parked.join().unwrap();
    for t in tickets {
        t.wait();
    }
    // Exactly once: the log holds each accepted write a single time.
    let applied = backing.applied_writes();
    for k in 0..6u64 {
        assert_eq!(
            applied
                .iter()
                .filter(|&&(c, v)| c == k as usize && v == k.max(1))
                .count(),
            1,
            "write to component {k} applied a wrong number of times: {applied:?}"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.submits_ok, stats.submits_resolved);
}
