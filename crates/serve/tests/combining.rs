//! The waiter is the combiner: whoever waits on a ticket runs the round
//! that answers it, the two roles never wait for each other, a combiner that
//! lets go of a role leaves no published request behind, and a request
//! nobody waits for is still answered.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use psnap_core::{CasPartialSnapshot, PartialSnapshot, ProcessId};
use psnap_obs::Registry;
use psnap_serve::testing::GatedSnapshot;
use psnap_serve::{Executor, Freshness, ServiceConfig, SnapshotService};

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Records the thread of every write and scan that reaches the object.
struct Recording {
    inner: CasPartialSnapshot<u64>,
    threads: Mutex<Vec<ThreadId>>,
}

impl Recording {
    fn note(&self) {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
    }
}

impl PartialSnapshot<u64> for Recording {
    fn components(&self) -> usize {
        self.inner.components()
    }
    fn max_processes(&self) -> usize {
        self.inner.max_processes()
    }
    fn update(&self, pid: ProcessId, component: usize, value: u64) {
        self.note();
        self.inner.update(pid, component, value)
    }
    fn update_many(&self, pid: ProcessId, writes: &[(usize, u64)]) {
        self.note();
        self.inner.update_many(pid, writes)
    }
    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<u64> {
        self.note();
        self.inner.scan(pid, components)
    }
    fn is_wait_free(&self) -> bool {
        self.inner.is_wait_free()
    }
    fn name(&self) -> &'static str {
        "recording"
    }
}

#[test]
fn a_waiter_runs_the_round_that_answers_it_on_its_own_thread() {
    let backing = Arc::new(Recording {
        inner: CasPartialSnapshot::new(8, 2, 0u64),
        threads: Mutex::new(Vec::new()),
    });
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    for round in 0..2u64 {
        let client = service.client();
        let waiter = std::thread::spawn(move || {
            client.submit(1, round + 10).unwrap().wait();
            let values = client.scan(vec![1], Freshness::Fresh).unwrap().wait();
            (std::thread::current().id(), values)
        });
        let (waiter_thread, values) = waiter.join().unwrap();
        assert_eq!(values, vec![round + 10]);
        let threads = std::mem::take(&mut *backing.threads.lock().unwrap());
        assert_eq!(
            threads,
            vec![waiter_thread; 2],
            "round {round}: the write and the scan must run on their waiter's thread"
        );
    }
    service.shutdown();
}

#[test]
fn a_parked_scan_combiner_delays_no_write_and_later_scans_share_one_union() {
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(32, 2, 0u64)));
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);

    // A waiter thread takes the scan role and parks inside the backing scan.
    backing.scan_gate.close();
    let first = service.client().scan(vec![0, 1], Freshness::Fresh).unwrap();
    let combiner = std::thread::spawn(move || first.wait());
    wait_until("the scan combiner to drain its request", || {
        service.scan_depth() == 0
    });

    // Another client's writes complete meanwhile: the ingest role is not
    // the scan role, and this thread takes it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let writer = service.client();
        scope.spawn(move || {
            for k in 0..20u64 {
                writer.submit(k as usize, k + 1).unwrap().wait();
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("writes waited for a parked scan combiner");
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
    // The parked scan reads after the gate opens, so it sees every write.
    assert_eq!(combiner.join().unwrap(), vec![1, 2]);
    let value = |c: usize| if c < 20 { c as u64 + 1 } else { 0 };
    for (components, ticket) in requests {
        let expected: Vec<u64> = components.iter().map(|&c| value(c)).collect();
        assert_eq!(ticket.wait(), expected);
    }
    assert_eq!(
        backing.inner_scans() - scans_before,
        2,
        "the parked scan plus one union for the six published behind it"
    );
    let stats = service.stats();
    assert_eq!(stats.scans_ok, 7, "{stats:?}");
    assert_eq!(stats.scans_served_backing, 7, "each answered exactly once");
    assert_eq!(stats.backing_scans, 2, "{stats:?}");
    service.shutdown();
}

/// Depth-1 round trips from several threads, started together each round
/// so that all of them publish at once and both roles change hands under
/// contention every time. A combiner that let go of a role without
/// re-checking its queue would leave a request published after its last
/// drain with nobody to serve it: that request's waiter, which found the
/// role taken, would park, and nobody else could come for it — the others
/// wait for it at the next round's start.
#[test]
fn round_trips_racing_role_hand_offs_strand_no_request() {
    const THREADS: usize = 4;
    const ROUNDS: u64 = 20_000;
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        CasPartialSnapshot::new(THREADS, 2, 0u64),
        ServiceConfig::default(),
        &executor,
    ));
    let start = Arc::new(std::sync::Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = service.client();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    start.wait();
                    client.submit(t, round).unwrap().wait();
                    let values = client.scan(vec![t], Freshness::Fresh).unwrap().wait();
                    assert_eq!(values, vec![round]);
                }
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !workers.iter().all(|w| w.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "a round trip never completed: a published request was stranded"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for worker in workers {
        worker.join().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.submits_ok, stats.submits_resolved, "{stats:?}");
    assert_eq!(stats.submits_ok, THREADS as u64 * ROUNDS);
    service.shutdown();
}

#[test]
fn a_ticket_dropped_unwaited_is_answered_by_a_later_round_or_by_shutdown() {
    let backing = Arc::new(CasPartialSnapshot::new(8, 2, 0u64));
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    let registry = Registry::new();
    service.register_obs(&registry, "serve");
    let orphans = service.client();
    let waiter = service.client();

    // Nobody waits on these, so nobody collects them ...
    drop(orphans.submit(3, 30).unwrap());
    drop(orphans.scan(vec![3], Freshness::Fresh).unwrap());
    assert_eq!((service.ingest_depth(), service.scan_depth()), (1, 1));
    // ... until another client's waits run rounds: a round takes everything
    // published to its pipeline.
    waiter.submit(4, 40).unwrap().wait();
    assert_eq!(
        waiter.scan(vec![3, 4], Freshness::Fresh).unwrap().wait(),
        vec![30, 40]
    );
    assert_eq!((service.ingest_depth(), service.scan_depth()), (0, 0));
    let stats = service.stats();
    assert_eq!(stats.submits_ok, stats.submits_resolved, "{stats:?}");
    assert_eq!(stats.scans_ok, stats.scans_served_backing, "{stats:?}");

    // Orphans nobody else comes for — from a client that is gone, too —
    // are answered by shutdown's final rounds.
    drop(orphans.submit_batch(vec![(5, 50), (6, 60)]).unwrap());
    drop(orphans.scan(vec![5], Freshness::Fresh).unwrap());
    drop(orphans);
    service.shutdown();
    assert_eq!(
        backing.scan(ProcessId(0), &[3, 4, 5, 6]),
        vec![30, 40, 50, 60]
    );
    assert_eq!((service.ingest_depth(), service.scan_depth()), (0, 0));
    drop(waiter);
    assert_eq!(service.client_count(), 0, "the dropped client was pruned");
    registry.assert_invariants();
}

#[test]
fn try_take_combines_when_the_role_is_free_and_never_blocks_when_it_is_held() {
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(8, 2, 0u64)));
    let executor = Executor::new(2);
    let service = SnapshotService::start(Arc::clone(&backing), ServiceConfig::default(), &executor);
    let client = service.client();

    // Both roles free: one look runs the round on this thread.
    let submitted = client.submit(2, 20).unwrap().try_take();
    assert!(submitted.is_ok(), "a free ingest role was not taken");
    let scanned = client.scan(vec![2], Freshness::Fresh).unwrap().try_take();
    assert_eq!(
        scanned.ok(),
        Some(vec![20]),
        "a free scan role was not taken"
    );

    // The scan role held by a combiner parked in the gate: the look hands
    // the ticket back instead of waiting for it.
    backing.scan_gate.close();
    let first = client.scan(vec![2], Freshness::Fresh).unwrap();
    let combiner = std::thread::spawn(move || first.wait());
    wait_until("the scan combiner to drain its request", || {
        service.scan_depth() == 0
    });
    let ticket = client.scan(vec![2, 3], Freshness::Fresh).unwrap();
    let t0 = Instant::now();
    let ticket = match ticket.try_take() {
        Ok(values) => panic!("answered {values:?} through a closed gate"),
        Err(ticket) => ticket,
    };
    assert!(t0.elapsed() < Duration::from_secs(1), "try_take blocked");
    backing.scan_gate.open();
    assert_eq!(combiner.join().unwrap(), vec![20]);
    assert_eq!(ticket.wait(), vec![20, 0]);
    service.shutdown();
}
