//! The waiting sites of a served connection, seen through their counters:
//! `wire.wait.*` (socket reads, either end) and `serve.wait.*` (`Ticket::wait`
//! callers). The counters are process-wide, so the tests of this file take
//! turns.
//!
//! What they assert is counted, never timed: how many waits happen, how
//! many ended in their poll phase. Polled shares are printed (run with
//! `--nocapture`).

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use psnap_core::{CasPartialSnapshot, PartialSnapshot};
use psnap_obs::Registry;
use psnap_serve::testing::GatedSnapshot;
use psnap_serve::{Executor, Freshness, ServiceConfig, SnapshotService};
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_wire::proto::hello_json;
use psnap_wire::{
    encode_frame, read_frame_str, write_frame, RemoteClientHandle, Request, RequestBody,
    WireServer, WireServerConfig, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

const M: usize = 16;
/// `psnap-serve`'s private poll cap and credit, as of this writing.
const POLL_CAP: Duration = Duration::from_micros(50);
const CREDIT: u64 = 3;

type Object = Arc<MvShardedSnapshot<u64>>;

fn take_turns() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// An object behind a service behind a unix-socket server.
struct Rig<S: PartialSnapshot<u64> + 'static> {
    server: WireServer<S>,
    service: Arc<SnapshotService<u64, S>>,
    // Dropped last: the service and the server shut down on a live executor.
    _executor: Executor,
    path: std::path::PathBuf,
}

impl Rig<Object> {
    /// Over a wait-free object: the connection thread answers requests
    /// itself.
    fn start(tag: &str) -> Rig<Object> {
        let shards = ShardConfig::multiversioned(2);
        Rig::over(Arc::new(MvShardedSnapshot::new(M, 2, 0u64, shards)), tag)
    }
}

impl<S: PartialSnapshot<u64> + 'static> Rig<S> {
    fn over(object: S, tag: &str) -> Rig<S> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "psnap-waits-{}-{tag}-{seq}.sock",
            std::process::id()
        ));
        let executor = Executor::new(2);
        let service = Arc::new(SnapshotService::start(
            object,
            ServiceConfig::default(),
            &executor,
        ));
        let server = WireServer::serve_unix(
            Arc::clone(&service),
            &path,
            WireServerConfig::default(),
            &executor,
        )
        .unwrap();
        Rig {
            server,
            service,
            _executor: executor,
            path,
        }
    }

    fn stop(self) {
        self.server.shutdown(Duration::from_secs(5));
        self.service.shutdown();
    }
}

/// `(polled, parked)` of one family, now.
#[derive(Clone, Copy, Debug)]
struct Waits {
    polled: u64,
    parked: u64,
}

impl Waits {
    fn read(family: &str) -> Waits {
        let get = |name: &str| {
            Registry::global()
                .counter(&format!("{family}.{name}"))
                .get()
        };
        Waits {
            polled: get("polled"),
            parked: get("parked"),
        }
    }

    fn since(self, earlier: Waits) -> Waits {
        Waits {
            polled: self.polled - earlier.polled,
            parked: self.parked - earlier.parked,
        }
    }

    fn total(self) -> u64 {
        self.polled + self.parked
    }

    /// Prints what share of the family's waits ended in the poll phase.
    fn report(self, what: &str) {
        eprintln!("{what}: {} of {} waits polled", self.polled, self.total());
    }
}

/// A peer that speaks the protocol over a plain socket: none of its waits
/// pass through this crate, so what `wire.wait.*` counts meanwhile is the
/// server's side alone.
struct RawPeer {
    socket: UnixStream,
    next_id: u64,
}

impl RawPeer {
    fn connect(path: &std::path::Path) -> RawPeer {
        let mut socket = UnixStream::connect(path).unwrap();
        let hello = hello_json(PROTOCOL_VERSION).to_string_compact();
        write_frame(&mut socket, hello.as_bytes()).unwrap();
        let welcome = read_frame_str(&mut socket, MAX_FRAME_LEN).unwrap();
        assert!(welcome.contains("welcome"), "{welcome}");
        RawPeer { socket, next_id: 0 }
    }

    fn round_trip(&mut self, body: RequestBody) -> String {
        self.next_id += 1;
        let request = Request {
            id: self.next_id,
            body,
        };
        // One write per frame, as this crate's client sends them: a frame
        // that arrives in two pieces is two reads, the second a short one.
        let frame = encode_frame(request.to_wire_string().as_bytes());
        self.socket.write_all(&frame).unwrap();
        read_frame_str(&mut self.socket, MAX_FRAME_LEN).unwrap()
    }
}

const SPARSE_REQUESTS: u64 = 40;
/// Far longer than a poll phase, and than the time slices a poller gives
/// away by yielding on a loaded box: a poller that yields and runs again
/// only after the gap finds the next request and re-arms, which is what
/// the credit rule asks for but is not what this traffic is meant to show.
const SPARSE_GAP: Duration = Duration::from_millis(20);
/// Requests after which every site that is going to stop polling has.
const SETTLED_AFTER: u64 = 10;

/// One request every [`SPARSE_GAP`], alternating submit and scan; returns what each
/// family counted over the requests after the first [`SETTLED_AFTER`].
fn sparse_tail(mut request: impl FnMut(u64)) -> (Waits, Waits) {
    let mut settled = None;
    for i in 0..SPARSE_REQUESTS {
        if i == SETTLED_AFTER {
            settled = Some((Waits::read("wire.wait"), Waits::read("serve.wait")));
        }
        std::thread::sleep(SPARSE_GAP);
        request(i);
    }
    let (wire, serve) = settled.unwrap();
    (
        Waits::read("wire.wait").since(wire),
        Waits::read("serve.wait").since(serve),
    )
}

#[test]
fn under_sparse_traffic_the_server_stops_polling_and_the_client_does_not() {
    let _turn = take_turns();
    let rig = Rig::start("sparse");
    let tail = SPARSE_REQUESTS - SETTLED_AFTER;

    // The server's side alone: its read of the socket waits a whole gap at
    // a time, so after `CREDIT` such waits it has stopped polling; the
    // connection thread combines every request itself, so nothing waits
    // through `Ticket::wait`, and the executor's workers have nothing to run.
    let mut peer = RawPeer::connect(&rig.path);
    let (wire, serve) = sparse_tail(|i| {
        let reply = if i % 2 == 0 {
            peer.round_trip(RequestBody::Submit {
                writes: vec![(3, i)],
            })
        } else {
            peer.round_trip(RequestBody::Scan {
                components: vec![3],
                freshness: Freshness::Fresh,
            })
        };
        assert!(reply.contains("\"ok\""), "{reply}");
    });
    wire.report("sparse server reads");
    serve.report("sparse ticket waits");
    assert!(
        wire.parked >= tail,
        "every sparse request is a read that slept: {wire:?}"
    );
    assert!(
        wire.polled <= CREDIT,
        "the connection's read half kept polling an idle socket: {wire:?}"
    );
    assert_eq!(
        serve.total(),
        0,
        "an executor worker or a `Ticket::wait` caller woke: {serve:?}"
    );
    drop(peer);

    // Same traffic through this crate's client. The server's side is as
    // above, so every wait beyond its one per request is the client's
    // reply wait, and every poll that ended in time is the client's: its
    // wait is as long as the server's sleeping thread takes to wake up and
    // answer, which is within the cap or not depending on the box (and the
    // site follows: it polls while that pays, parks while it does not).
    let client = RemoteClientHandle::connect_unix(&rig.path).unwrap();
    let (wire, _) = sparse_tail(|i| {
        if i % 2 == 0 {
            client.submit_blocking(3, i).unwrap();
        } else {
            let seen = client.scan_blocking(vec![3]).unwrap();
            assert_eq!(seen, vec![i - 1]);
        }
    });
    wire.report("sparse server reads and client reply waits");
    assert!(
        wire.total() >= 2 * tail && wire.polled <= tail + CREDIT,
        "a request is one read that sleeps on the server and one reply wait: {wire:?}"
    );
    client.close();
    rig.stop();
}

/// CPU time used so far by this process's threads whose name starts with
/// `prefix` (every thread, for an empty prefix).
fn cpu_of_threads(prefix: &str) -> Duration {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let ns: u64 = tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|n| n.starts_with(prefix))
        })
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    Duration::from_nanos(ns)
}

#[test]
fn idle_connections_poll_once_and_then_sleep() {
    let _turn = take_turns();
    let rig = Rig::start("idle");
    let clients: Vec<_> = (0..8)
        .map(|_| RemoteClientHandle::connect_unix(&rig.path).unwrap())
        .collect();
    // A burst first, so every site starts the idle window with full credit.
    for round in 0..50u64 {
        for client in &clients {
            client.submit_blocking(3, round).unwrap();
            client.scan_blocking(vec![3]).unwrap();
        }
    }
    let before = (
        Waits::read("wire.wait"),
        Waits::read("serve.wait"),
        cpu_of_threads("psnap-wire-conn"),
        cpu_of_threads(""),
    );
    std::thread::sleep(Duration::from_millis(300));
    let wire = Waits::read("wire.wait").since(before.0);
    let serve = Waits::read("serve.wait").since(before.1);
    let readers = cpu_of_threads("psnap-wire-conn") - before.2;
    let process = cpu_of_threads("") - before.3;
    // Printed, not asserted: CPU time is the scheduler's. An idle server
    // has no timer to serve: its acceptor is blocked in `accept` and its
    // executor's workers wait on an empty heap.
    eprintln!("300 ms idle: {process:?} of CPU, {readers:?} of it the 8 connection threads'");
    serve.report("idle ticket waits");
    assert_eq!(
        serve.total(),
        0,
        "an executor worker or a `Ticket::wait` caller woke: {serve:?}"
    );
    // Nothing arrives, so none of the eight connection reads returns: each
    // is asleep on its socket, and no client is waiting for anything.
    assert_eq!(
        wire.total(),
        0,
        "an idle connection's read returned: {wire:?}"
    );
    for client in clients {
        client.close();
    }
    rig.stop();
}

/// 10 000 blocking round trips over one unix socket, with pauses that sweep
/// across the poll cap so both ends' reads are caught polling, about to
/// block and blocked. A read that missed its bytes would hang here.
#[test]
fn ten_thousand_round_unix_ping_pong_finishes() {
    let _turn = take_turns();
    let rig = Rig::start("pingpong");
    let client = RemoteClientHandle::connect_unix(&rig.path).unwrap();
    let before = Waits::read("wire.wait");
    for round in 0..10_000u64 {
        if round % 16 == 0 {
            // 0, 2, 4 … 98 µs.
            let pause = Duration::from_micros(round / 16 % 50 * 2);
            let t0 = Instant::now();
            while t0.elapsed() < pause {
                std::hint::spin_loop();
            }
        }
        if round % 2 == 0 {
            client.submit_blocking(5, round).unwrap();
        } else {
            let seen = client.scan_blocking(vec![5]).unwrap();
            assert_eq!(seen, vec![round - 1]);
        }
    }
    let waits = Waits::read("wire.wait").since(before);
    eprintln!("ping-pong: {waits:?}");
    assert!(
        waits.polled + waits.parked >= 20_000,
        "two reads a round trip, each counted once: {waits:?}"
    );
    client.close();
    rig.stop();
}

#[test]
fn a_remote_wait_timeout_returns_within_its_deadline_plus_the_poll_cap() {
    let _turn = take_turns();
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(M, 4, 0u64)));
    let rig = Rig::over(Arc::clone(&backing), "timeout");
    let client = RemoteClientHandle::connect_unix(&rig.path).unwrap();
    backing.update_gate.close();
    let mut parked = client.submit(0, 1).unwrap();
    // With credit and, after enough long waits, without.
    for timeout in [Duration::from_micros(20), Duration::from_millis(3)] {
        for _ in 0..=CREDIT {
            let t0 = Instant::now();
            assert_eq!(parked.wait_timeout(timeout), None);
            let took = t0.elapsed();
            assert!(took >= timeout, "gave up early: {took:?} < {timeout:?}");
            // Generous against a descheduled test thread; what it rules out
            // is a wait that ignores its deadline.
            assert!(
                took <= timeout + POLL_CAP + Duration::from_millis(250),
                "{took:?} for a {timeout:?} timeout"
            );
        }
    }
    backing.update_gate.open();
    assert_eq!(parked.wait_timeout(Duration::from_secs(30)), Some(Ok(())));
    client.close();
    rig.stop();
}
