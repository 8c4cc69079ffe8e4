//! The seams of the two-wake-up round trip: the server's connection thread
//! combines its own requests when (and only when) the backing object is
//! wait-free, never waits in a write, and the client's waiters read the
//! connection themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use psnap_core::{CasPartialSnapshot, PartialSnapshot, ProcessId};
use psnap_serve::testing::GatedSnapshot;
use psnap_serve::{Executor, Freshness, ServiceConfig, SnapshotService};
use psnap_wire::{RemoteClientHandle, WireError, WireServer, WireServerConfig};

const M: usize = 16;

fn unique_socket_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "psnap-handoffs-{}-{tag}-{seq}.sock",
        std::process::id()
    ))
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    cond()
}

/// Records the name of every thread that applies a batch or runs a scan on
/// the wrapped object.
struct Recording<S> {
    inner: S,
    threads: Mutex<Vec<String>>,
}

impl<S> Recording<S> {
    fn new(inner: S) -> Recording<S> {
        Recording {
            inner,
            threads: Mutex::new(Vec::new()),
        }
    }

    fn note(&self) {
        let name = std::thread::current().name().unwrap_or("").to_string();
        self.threads.lock().unwrap().push(name);
    }
}

impl<S: PartialSnapshot<u64>> PartialSnapshot<u64> for Recording<S> {
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
        self.inner.name()
    }
}

/// Drives 50 blocking submit/scan round trips through a wire server over
/// `backing` and returns the threads that touched the object.
fn threads_that_served<S>(backing: S, tag: &str) -> Vec<String>
where
    S: PartialSnapshot<u64> + 'static,
{
    let backing = Arc::new(Recording::new(backing));
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig::default(),
        &executor,
    ));
    let path = unique_socket_path(tag);
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_unix(&path).unwrap();
    for op in 1..=50u64 {
        client.submit_blocking(3, op).unwrap();
        assert_eq!(client.scan_blocking(vec![3]).unwrap(), vec![op]);
    }
    client.close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
    let threads = backing.threads.lock().unwrap().clone();
    assert!(threads.len() >= 100, "every request reaches the object");
    threads
}

#[test]
fn the_connection_thread_serves_a_wait_free_object_and_only_that() {
    // Wait-free: the connection thread polls its tickets before every
    // socket read, so at depth 1 it combines every request itself — no
    // other thread waits on them.
    let threads = threads_that_served(CasPartialSnapshot::new(M, 4, 0u64), "combined");
    assert!(
        threads.iter().all(|t| t == "psnap-wire-conn"),
        "a request ran off the connection thread: {threads:?}"
    );

    // Not wait-free (the gates block by design): the connection thread
    // must never be where a request executes. The reply pump waits on the
    // tickets, so it combines them.
    let gated = GatedSnapshot::new(CasPartialSnapshot::new(M, 4, 0u64));
    assert!(!gated.is_wait_free());
    let threads = threads_that_served(gated, "gated");
    assert!(
        threads.iter().all(|t| t == "psnap-wire-pump"),
        "a request on a non-wait-free object ran off the reply pump: {threads:?}"
    );
}

/// Occupies every worker of `executor` inside a job until the returned
/// sender is dropped: whatever runs meanwhile runs on some other thread.
fn pin_workers(executor: &Executor, workers: usize) -> std::sync::mpsc::Sender<()> {
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
    for _ in 0..workers {
        let release_rx = Arc::clone(&release_rx);
        let pinned_tx = pinned_tx.clone();
        executor.handle().schedule(Instant::now(), move || {
            pinned_tx.send(()).unwrap();
            // Blocks the worker until released.
            let _ = release_rx.lock().unwrap().recv();
            None
        });
    }
    for _ in 0..workers {
        pinned_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a worker never picked its pinning task up");
    }
    release_tx
}

#[test]
fn with_every_worker_occupied_the_connection_thread_still_answers() {
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        CasPartialSnapshot::new(M, 4, 0u64),
        ServiceConfig::default(),
        &executor,
    ));
    let path = unique_socket_path("pinned");
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    // Nothing a connection does, from its accept on, runs on a worker.
    let client = RemoteClientHandle::connect_unix(&path).unwrap();
    let release = pin_workers(&executor, 2);

    client.submit_blocking(2, 7).unwrap();
    assert_eq!(client.scan_blocking(vec![2]).unwrap(), vec![7]);

    // One flush, far deeper than the connection's 64-slot ingestion queue
    // and the 256-slot scan queue: rather than refuse for want of room its
    // own unanswered requests hold, the connection thread answers them.
    client.set_corked(true).unwrap();
    let submits: Vec<_> = (0..200u64)
        .map(|k| client.submit(k as usize % M, k).unwrap())
        .collect();
    let scans: Vec<_> = (0..600)
        .map(|_| client.scan(vec![0, 1], Freshness::Fresh).unwrap())
        .collect();
    client.flush().unwrap();
    for ticket in submits {
        assert_eq!(ticket.wait(), Ok(()));
    }
    for ticket in scans {
        assert_eq!(ticket.wait().map(|values| values.len()), Ok(2));
    }

    drop(release);
    client.close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn a_corked_batch_larger_than_both_socket_buffers_does_not_deadlock() {
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        CasPartialSnapshot::new(M, 4, 0u64),
        ServiceConfig::default(),
        &executor,
    ));
    let path = unique_socket_path("corked");
    // A connection thread that waited in a write would stop reading, the
    // client's flush would never finish, and this timeout would sever the
    // connection: tickets below would resolve `ConnectionLost`.
    let write_timeout = Duration::from_secs(5);
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig {
            write_timeout: Some(write_timeout),
            ..WireServerConfig::default()
        },
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_unix(&path).unwrap();
    client.set_corked(true).unwrap();

    // ~1.5 MB of requests and ~1.3 MB of replies against two ~200 KiB
    // socket buffers. (Far more in flight than the service queues hold, so
    // `busy` is a legitimate answer here; a lost connection is not.)
    let all: Vec<usize> = (0..M).collect();
    let started = Instant::now();
    let tickets: Vec<_> = (0..12_000)
        .map(|_| client.scan(all.clone(), Freshness::Fresh).unwrap())
        .collect();
    // Nothing has been read yet, and nothing will be until this returns.
    client.flush().unwrap();
    let mut answered = 0;
    for ticket in tickets {
        match ticket.wait() {
            Ok(values) => {
                assert_eq!(values.len(), M);
                answered += 1;
            }
            Err(WireError::Busy) => {}
            Err(other) => panic!("a ticket of the batch was lost: {other}"),
        }
    }
    assert!(answered > 0);
    assert!(
        started.elapsed() < write_timeout,
        "the batch only completed after {:?}",
        started.elapsed()
    );

    client.close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

type Gated = Arc<GatedSnapshot<u64, CasPartialSnapshot<u64>>>;

/// A service over a gated object, a TCP server and one client.
struct GatedRig {
    backing: Gated,
    service: Arc<SnapshotService<u64, Gated>>,
    server: WireServer<Gated>,
    client: RemoteClientHandle,
    // Dropped last: the service and the server shut down on a live executor.
    _executor: Executor,
}

impl GatedRig {
    fn start() -> GatedRig {
        let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(M, 4, 0u64)));
        let executor = Executor::new(2);
        let service = Arc::new(SnapshotService::start(
            Arc::clone(&backing),
            ServiceConfig::default(),
            &executor,
        ));
        let server = WireServer::serve_tcp(
            Arc::clone(&service),
            "127.0.0.1:0",
            WireServerConfig::default(),
            &executor,
        )
        .unwrap();
        let client = RemoteClientHandle::connect_tcp(server.local_addr().unwrap()).unwrap();
        GatedRig {
            backing,
            service,
            server,
            client,
            _executor: executor,
        }
    }

    /// Closes the update gate and submits one write whose combiner (the
    /// connection's reply pump, waiting on it) parks behind it.
    fn park_a_submit(&self) -> psnap_wire::RemoteSubmitTicket {
        self.backing.update_gate.close();
        let parked = self.client.submit(0, 1).unwrap();
        assert!(
            wait_until(Duration::from_secs(30), || {
                self.service.obs().stats.submits_ok == 1 && self.service.ingest_depth() == 0
            }),
            "drainer never collected the parked submission"
        );
        parked
    }

    fn stop(self) {
        self.backing.update_gate.open();
        self.client.close();
        self.server.shutdown(Duration::from_secs(5));
        self.service.shutdown();
    }
}

#[test]
fn a_waiter_whose_reply_another_waiter_read_returns_at_once() {
    let rig = GatedRig::start();
    // The first request's reply cannot come until the gate opens; its
    // waiter sits in the socket read meanwhile.
    let parked = rig.park_a_submit();
    let first = std::thread::spawn(move || parked.wait());
    // The second request (stats never queue behind a ticket) is answered
    // at once — replies arrive in reverse order — and whoever holds the
    // read half, its waiter returns while the first is still parked.
    rig.client.stats().unwrap();
    assert!(
        !first.is_finished(),
        "the gated submit cannot have resolved"
    );
    rig.backing.update_gate.open();
    assert_eq!(first.join().unwrap(), Ok(()));
    rig.stop();
}

#[test]
fn a_kill_nobody_was_waiting_for_is_seen_by_the_next_caller() {
    let rig = GatedRig::start();
    let parked = rig.park_a_submit();
    assert!(!rig.client.is_dead());
    rig.client.kill();
    // No reader thread exists to notice: the probe does.
    assert!(
        wait_until(Duration::from_secs(1), || rig.client.is_dead()),
        "a killed connection must read as dead without anyone waiting"
    );
    assert!(matches!(parked.wait(), Err(WireError::ConnectionLost(_))));
    assert!(matches!(
        rig.client.submit(1, 1),
        Err(WireError::ConnectionLost(_))
    ));
    rig.stop();
}

#[test]
fn a_kill_is_seen_by_a_later_wait_without_a_probe() {
    let rig = GatedRig::start();
    let parked = rig.park_a_submit();
    rig.client.kill();
    assert!(matches!(parked.wait(), Err(WireError::ConnectionLost(_))));
    assert!(rig.client.is_dead());
    rig.stop();
}

#[test]
fn wait_timeout_gives_up_on_a_gated_request_and_delivers_after_release() {
    let rig = GatedRig::start();
    let mut parked = rig.park_a_submit();
    assert_eq!(parked.wait_timeout(Duration::from_millis(50)), None);
    assert!(
        !rig.client.is_dead(),
        "a timed-out wait must not cost the link"
    );
    rig.backing.update_gate.open();
    assert_eq!(
        parked.wait_timeout(Duration::from_secs(30)),
        Some(Ok(())),
        "the same ticket delivers once the request completes"
    );
    // The reply was handed out; the ticket must not sit reading for it again.
    assert!(matches!(
        parked.wait_timeout(Duration::from_secs(30)),
        Some(Err(WireError::Protocol(_)))
    ));
    rig.stop();
}

#[test]
fn threads_sharing_a_connection_hand_the_read_turn_to_each_other() {
    // Four threads take turns at one connection's read half. A reader that
    // returns it wakes the others only while one sleeps for it; a sleeper
    // it failed to count would sleep on through a turn that is free, and
    // once every thread sleeps nobody reads.
    const THREADS: u64 = 4;
    const ROUND_TRIPS: u64 = 5_000;
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        CasPartialSnapshot::new(M, 4, 0u64),
        ServiceConfig::default(),
        &executor,
    ));
    let path = unique_socket_path("turns");
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let client = Arc::new(RemoteClientHandle::connect_unix(&path).unwrap());
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                let component = t as usize;
                for op in 1..=ROUND_TRIPS {
                    client.submit_blocking(component, op).unwrap();
                    let values = client.scan_blocking(vec![component]).unwrap();
                    assert_eq!(values, vec![op], "thread {t} read a stale value");
                }
            })
        })
        .collect();
    // A hang must fail the test, not wedge it: nothing is joined until
    // every thread has finished.
    assert!(
        wait_until(Duration::from_secs(60), || threads
            .iter()
            .all(|t| t.is_finished())),
        "the round trips did not finish within 60 s: a read turn was lost"
    );
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(client.unknown_replies(), 0);
    Arc::into_inner(client)
        .expect("every thread has let its handle go")
        .close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}
