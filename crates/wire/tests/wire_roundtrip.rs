//! End-to-end wire transport tests over loopback TCP and unix-domain
//! sockets: handshake, submit/scan/stats round-trips, backpressure as an
//! explicit `busy` frame, half-close draining, idle severance, graceful
//! server drain, and connection-kill chaos with server-side accounting
//! intact.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use psnap_core::CasPartialSnapshot;
use psnap_serve::testing::GatedSnapshot;
use psnap_serve::{Executor, Freshness, ServiceConfig, SnapshotService};
use psnap_wire::{
    encode_frame, read_frame, RemoteClientHandle, WireError, WireServer, WireServerConfig,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};

const M: usize = 16;

fn start_service(
    executor: &Executor,
    config: ServiceConfig,
) -> Arc<SnapshotService<u64, CasPartialSnapshot<u64>>> {
    Arc::new(SnapshotService::start(
        CasPartialSnapshot::new(M, 4, 0u64),
        config,
        executor,
    ))
}

fn unique_socket_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "psnap-wire-{}-{tag}-{seq}.sock",
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

#[test]
fn tcp_submit_scan_stats_roundtrip() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();

    let client = RemoteClientHandle::connect_tcp(addr).unwrap();
    assert_eq!(client.components(), M);

    for c in 0..M {
        client.submit_blocking(c, (c as u64 + 1) * 10).unwrap();
    }
    let values = client.scan_blocking((0..M).collect()).unwrap();
    let expected: Vec<u64> = (0..M as u64).map(|c| (c + 1) * 10).collect();
    assert_eq!(values, expected);

    // A batch applies atomically; a subsequent fresh scan observes it all.
    client
        .submit_batch(vec![(0, 111), (5, 555), (15, 999)])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        client.scan_blocking(vec![0, 5, 15]).unwrap(),
        vec![111, 555, 999]
    );

    // Values above 2^53 survive the JSON wire format exactly.
    let big = (1u64 << 53) + 7;
    client.submit_blocking(2, big).unwrap();
    assert_eq!(client.scan_blocking(vec![2]).unwrap(), vec![big]);

    let stats = client.stats().unwrap();
    let rendered = stats.to_string_compact();
    assert!(
        rendered.contains("submits_ok"),
        "stats missing counters: {rendered}"
    );

    client.close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn unix_socket_roundtrip() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let path = unique_socket_path("roundtrip");
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();

    let client = RemoteClientHandle::connect_unix(&path).unwrap();
    assert_eq!(client.components(), M);
    client.submit_blocking(7, 77).unwrap();
    assert_eq!(client.scan_blocking(vec![7]).unwrap(), vec![77]);
    client.close();
    server.shutdown(Duration::from_secs(5));
    assert!(!path.exists(), "socket file not removed on shutdown");
    service.shutdown();
}

#[test]
fn busy_maps_to_an_explicit_wire_error_not_a_dropped_frame() {
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(M, 4, 0u64)));
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig {
            ingest_capacity: 2,
            ..ServiceConfig::default()
        },
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

    // Park the ingest role mid-apply behind the update gate (the reply
    // pump, waiting on the ticket, is the combiner), then fill the
    // connection's 2-slot ingestion queue. The frames are processed in
    // order by the connection reader, so acceptance is deterministic.
    backing.update_gate.close();
    let parked = client.submit(0, 1).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || {
            service.obs().stats.submits_ok == 1 && service.ingest_depth() == 0
        }),
        "drainer never collected the parked submission"
    );
    let fill = [client.submit(1, 1).unwrap(), client.submit(2, 1).unwrap()];

    // The queue is full: the next submit must come back as an explicit
    // `busy` reply while the three accepted ones stay in flight.
    let rejected = client.submit(3, 1).unwrap();
    assert_eq!(rejected.wait(), Err(WireError::Busy));

    // Release the gate: every accepted submission resolves OK.
    backing.update_gate.open();
    parked.wait().unwrap();
    for ticket in fill {
        ticket.wait().unwrap();
    }
    let stats = service.obs().stats;
    assert_eq!(stats.submits_busy, 1);
    assert_eq!(stats.submits_ok, stats.submits_resolved);

    client.close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn out_of_range_requests_answer_bad_request_and_the_connection_survives() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_tcp(server.local_addr().unwrap()).unwrap();

    // Component M is out of range: the server must answer `bad_request`
    // (not panic its reader, not drop the frame).
    assert_eq!(
        client.submit(M, 1).unwrap().wait(),
        Err(WireError::BadRequest)
    );
    assert_eq!(
        client
            .scan(vec![0, M + 3], Freshness::Fresh)
            .unwrap()
            .wait(),
        Err(WireError::BadRequest)
    );

    // The connection is still healthy.
    client.submit_blocking(0, 5).unwrap();
    assert_eq!(client.scan_blocking(vec![0]).unwrap(), vec![5]);

    client.close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn half_close_flushes_every_in_flight_reply() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_tcp(server.local_addr().unwrap()).unwrap();

    let tickets: Vec<_> = (0..32)
        .map(|i| client.submit(i % M, i as u64 + 1).unwrap())
        .collect();
    // Half-close: the client is done sending; the server must resolve and
    // flush every accepted request before closing its side, so all tickets
    // resolve OK rather than ConnectionLost.
    client.close();
    for ticket in tickets {
        ticket.wait().unwrap();
    }

    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn replies_to_dropped_tickets_are_discarded_not_unknown() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let path = unique_socket_path("dropped");
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_unix(&path).unwrap();

    // A thousand scans whose tickets are dropped unwaited, all before a
    // single reply could have been read: every reply arrives for a ticket
    // that is gone.
    client.set_corked(true).unwrap();
    for i in 0..1_000 {
        drop(client.scan(vec![i % M], Freshness::Fresh).unwrap());
    }
    client.set_corked(false).unwrap();

    // The next round trip reads past all of them to its own reply.
    client.submit_blocking(2, 7).unwrap();
    assert_eq!(client.scan_blocking(vec![2]).unwrap(), vec![7]);
    assert_eq!(
        client.unknown_replies(),
        0,
        "a reply to a dropped ticket is not a duplicated or misattributed one"
    );
    let started = Instant::now();
    client.close();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "close waited {:?}",
        started.elapsed()
    );

    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn version_mismatch_is_rejected_in_the_handshake() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();

    // Hand-rolled hello with a future protocol version.
    let mut raw = std::net::TcpStream::connect(server.local_addr().unwrap()).unwrap();
    let hello = format!(r#"{{"op":"hello","version":{}}}"#, PROTOCOL_VERSION + 1);
    raw.write_all(&encode_frame(hello.as_bytes())).unwrap();
    let answer = read_frame(&mut raw, MAX_FRAME_LEN).unwrap();
    let text = String::from_utf8(answer).unwrap();
    assert!(
        text.contains("version_mismatch"),
        "expected a reject frame, got {text}"
    );
    // The server closes the connection after rejecting.
    let mut byte = [0u8; 1];
    assert_eq!(raw.read(&mut byte).unwrap_or(0), 0);

    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn idle_connections_are_severed_and_tickets_resolve() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..WireServerConfig::default()
        },
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_tcp(server.local_addr().unwrap()).unwrap();

    // Activity keeps the connection alive past the timeout.
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(40));
        client.submit_blocking(0, 1).unwrap();
    }

    // Silence gets it severed; the client observes a dead connection and
    // later requests fail fast instead of hanging.
    assert!(
        wait_until(Duration::from_secs(10), || client.is_dead()),
        "idle connection was never severed"
    );
    match client.submit(0, 2) {
        Err(WireError::ConnectionLost(_)) => {}
        Ok(ticket) => assert!(matches!(ticket.wait(), Err(WireError::ConnectionLost(_)))),
        Err(other) => panic!("expected ConnectionLost, got {other:?}"),
    }

    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_tickets_before_severing() {
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

    // Park a submission mid-apply, then shut the server down while it is
    // in flight. The drain must wait for the ticket and flush the reply.
    backing.update_gate.close();
    let parked = client.submit(3, 33).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || {
            service.obs().stats.submits_ok == 1 && service.ingest_depth() == 0
        }),
        "drainer never collected the parked submission"
    );
    let gate = Arc::clone(&backing);
    let opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        gate.update_gate.open();
    });
    server.shutdown(Duration::from_secs(10));
    opener.join().unwrap();

    // The in-flight submit resolved OK across the drain — not lost, not
    // ConnectionLost.
    assert_eq!(parked.wait(), Ok(()));
    let stats = service.obs().stats;
    assert_eq!(stats.submits_ok, stats.submits_resolved);
    service.shutdown();
}

#[test]
fn killed_connections_resolve_tickets_and_server_accounting_holds() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();

    // Several clients submit storms; half get killed mid-stream. Every
    // ticket must resolve — Ok or ConnectionLost, never a hang — and the
    // server's accepted == resolved invariant must hold afterwards.
    let mut resolved_ok = 0u64;
    let mut resolved_lost = 0u64;
    for round in 0..6 {
        let client = RemoteClientHandle::connect_tcp(addr).unwrap();
        let tickets: Vec<_> = (0..40)
            .filter_map(|i| client.submit(i % M, round * 100 + i as u64).ok())
            .collect();
        if round % 2 == 0 {
            client.kill();
        } else {
            client.close();
        }
        for ticket in tickets {
            match ticket.wait() {
                Ok(()) => resolved_ok += 1,
                Err(WireError::ConnectionLost(_)) => resolved_lost += 1,
                Err(other) => panic!("unexpected ticket error: {other:?}"),
            }
        }
    }
    assert!(resolved_ok > 0, "no request survived at all");
    assert!(resolved_lost > 0, "kills never interrupted a request");

    // Give the service a moment to resolve submissions whose connections
    // died: accepted work still applies and resolves server-side.
    assert!(
        wait_until(Duration::from_secs(30), || {
            let stats = service.obs().stats;
            stats.submits_ok == stats.submits_resolved
        }),
        "server-side accepted != resolved after connection kills"
    );
    assert_eq!(service.obs().ingest_depth, 0);

    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn oversized_requests_fail_locally_and_spare_the_connection() {
    let executor = Executor::new(2);
    let service = start_service(&executor, ServiceConfig::default());
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig {
            // Small enough that a modest batch overflows it, big enough
            // for the handshake and every well-formed reply in this test.
            max_frame_len: 256,
            ..WireServerConfig::default()
        },
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_tcp(server.local_addr().unwrap()).unwrap();
    assert_eq!(client.max_frame(), 256);

    // A batch whose encoded frame exceeds the advertised cap must fail as
    // a per-request BadRequest before anything is written: sent as-is it
    // would be a connection-fatal framing error server-side, failing every
    // other in-flight ticket with ConnectionLost.
    let in_flight = client.submit(0, 7).unwrap();
    let oversized: Vec<(usize, u64)> = (0..M).cycle().take(64).map(|c| (c, u64::MAX)).collect();
    assert!(matches!(
        client.submit_batch(oversized.clone()),
        Err(WireError::BadRequest)
    ));
    assert_eq!(in_flight.wait(), Ok(()));
    assert!(!client.is_dead(), "local rejection must not kill the link");

    // Same under cork: the oversized request is refused without poisoning
    // the batch buffer around it.
    client.set_corked(true).unwrap();
    let first = client.submit(1, 11).unwrap();
    assert!(matches!(
        client.submit_batch(oversized),
        Err(WireError::BadRequest)
    ));
    let second = client.submit(2, 22).unwrap();
    client.set_corked(false).unwrap();
    assert_eq!(first.wait(), Ok(()));
    assert_eq!(second.wait(), Ok(()));
    assert_eq!(
        client.scan_blocking(vec![0, 1, 2]).unwrap(),
        vec![7, 11, 22]
    );

    client.close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn slow_in_flight_request_survives_the_idle_watchdog() {
    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(M, 4, 0u64)));
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig::default(),
        &executor,
    ));
    let idle = Duration::from_millis(100);
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig {
            idle_timeout: Some(idle),
            ..WireServerConfig::default()
        },
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_tcp(server.local_addr().unwrap()).unwrap();

    // Park a submission mid-apply and go quiet for several idle periods.
    // The wire is silent but the request is in flight: the watchdog must
    // not sever the connection out from under it.
    backing.update_gate.close();
    let parked = client.submit(4, 44).unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || {
            service.obs().stats.submits_ok == 1 && service.ingest_depth() == 0
        }),
        "drainer never collected the parked submission"
    );
    std::thread::sleep(4 * idle);
    assert!(
        !client.is_dead(),
        "watchdog severed a connection with a request in flight"
    );
    backing.update_gate.open();
    assert_eq!(parked.wait(), Ok(()));

    // With the reply flushed and true silence from here on, the watchdog
    // severs as before — in-flight activity defers it, not forever.
    assert!(
        wait_until(Duration::from_secs(10), || client.is_dead()),
        "idle connection was never severed after its last reply"
    );

    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

#[test]
fn a_peer_that_stops_reading_stalls_only_its_own_connection() {
    // The reply pump must never occupy an executor worker while blocked on
    // a socket write: two peers that pipeline scans and then stop reading
    // fill their reply buffers and wedge their writers, and with only two
    // executor workers, pumps run as executor jobs would stall every timed
    // job behind them. Healthy traffic must keep flowing while both are
    // wedged.
    // No write timeout here: the wedge must persist for the whole test.
    const BIG_M: usize = 2048;
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        CasPartialSnapshot::new(BIG_M, 4, 0u64),
        ServiceConfig::default(),
        &executor,
    ));
    let path = unique_socket_path("stall");
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig {
            write_timeout: None,
            ..WireServerConfig::default()
        },
        &executor,
    )
    .unwrap();

    // Fat replies wedge the pump within a handful of flushes: ~40 KiB per
    // full scan once every component holds a 19-digit value, against a
    // default unix-socket send buffer of ~200 KiB.
    let seeder = RemoteClientHandle::connect_unix(&path).unwrap();
    let big = u64::MAX - 1;
    for chunk in (0..BIG_M).collect::<Vec<_>>().chunks(256) {
        seeder
            .submit_batch(chunk.iter().map(|&c| (c, big)).collect())
            .unwrap()
            .wait()
            .unwrap();
    }
    seeder.close();

    // Two raw connections: handshake, then pipeline hundreds of full scans
    // and never read a single reply byte. Their writes block once the
    // request direction backs up, so they run on their own threads.
    let all = (0..BIG_M)
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut stalled = Vec::new();
    for _ in 0..2 {
        let mut raw = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let hello = format!(r#"{{"op":"hello","version":{PROTOCOL_VERSION}}}"#);
        raw.write_all(&encode_frame(hello.as_bytes())).unwrap();
        read_frame(&mut raw, MAX_FRAME_LEN).unwrap();
        let mut pipe = raw.try_clone().unwrap();
        let comps = all.clone();
        std::thread::spawn(move || {
            for id in 1..=300u64 {
                let payload = format!(
                    r#"{{"components":[{comps}],"freshness":"fresh","id":{id},"op":"scan"}}"#
                );
                if pipe.write_all(&encode_frame(payload.as_bytes())).is_err() {
                    return;
                }
            }
        });
        stalled.push(raw);
    }

    // Let the wedge form before starting healthy traffic: once a dozen
    // scans have resolved, both pumps have flushed several 40 KiB replies
    // into sockets nobody reads and are (or are about to be) blocked in
    // write with more queued behind them.
    assert!(
        wait_until(Duration::from_secs(30), || service.obs().stats.scans_ok
            >= 12),
        "wedged connections' scans never started resolving"
    );

    // Meanwhile a healthy client must make steady progress. Run it on a
    // side thread with a deadline so a regression fails fast instead of
    // hanging the test forever.
    let healthy_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let healthy_progress = Arc::new(AtomicU64::new(0));
    let done_flag = Arc::clone(&healthy_done);
    let progress = Arc::clone(&healthy_progress);
    let healthy_path = path.clone();
    std::thread::spawn(move || {
        // `Busy` is legitimate backpressure (the wedged peers' queued scans
        // can transiently exhaust scan capacity), not the starvation under
        // test: back off and retry it. A stalled executor shows up as a
        // hang, which the deadline below catches.
        macro_rules! with_busy_retry {
            ($call:expr) => {
                loop {
                    match $call {
                        Err(WireError::Busy) => std::thread::sleep(Duration::from_millis(10)),
                        other => break other.unwrap(),
                    }
                }
            };
        }
        let client = RemoteClientHandle::connect_unix(&healthy_path).unwrap();
        for op in 1..=50u64 {
            with_busy_retry!(client.submit_blocking(0, op));
            let values = with_busy_retry!(client.scan_blocking(vec![0]));
            assert_eq!(values, vec![op]);
            progress.store(op, Ordering::Release);
        }
        client.close();
        done_flag.store(true, Ordering::Release);
    });
    assert!(
        wait_until(Duration::from_secs(30), || healthy_done
            .load(Ordering::Acquire)),
        "healthy connection starved while two peers stopped reading replies \
         (progress {}/50, {} live connections, stats {:?})",
        healthy_progress.load(Ordering::Acquire),
        server.connection_count(),
        service.obs().stats,
    );

    // Unblock the wedged writers so shutdown's drain is quick.
    for raw in &stalled {
        let _ = raw.shutdown(std::net::Shutdown::Both);
    }
    server.shutdown(Duration::from_secs(10));
    assert!(
        wait_until(Duration::from_secs(30), || {
            let stats = service.obs().stats;
            stats.submits_ok == stats.submits_resolved
        }),
        "server-side accepted != resolved after wedged connections"
    );
    service.shutdown();
}

#[test]
fn write_timeout_severs_a_peer_that_stops_reading() {
    // With a write timeout configured, a peer whose replies cannot make
    // progress is severed instead of holding its writer (and its share of
    // server resources) forever.
    const BIG_M: usize = 2048;
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        CasPartialSnapshot::new(BIG_M, 4, 0u64),
        ServiceConfig::default(),
        &executor,
    ));
    let path = unique_socket_path("sever");
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig {
            write_timeout: Some(Duration::from_millis(300)),
            ..WireServerConfig::default()
        },
        &executor,
    )
    .unwrap();

    let seeder = RemoteClientHandle::connect_unix(&path).unwrap();
    for chunk in (0..BIG_M).collect::<Vec<_>>().chunks(256) {
        seeder
            .submit_batch(chunk.iter().map(|&c| (c, u64::MAX)).collect())
            .unwrap()
            .wait()
            .unwrap();
    }
    seeder.close();
    assert!(
        wait_until(Duration::from_secs(10), || server.connection_count() == 0),
        "seeder connection never finished tearing down"
    );

    // One raw connection pipelines full scans and never reads a reply.
    let all = (0..BIG_M)
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut raw = std::os::unix::net::UnixStream::connect(&path).unwrap();
    let hello = format!(r#"{{"op":"hello","version":{PROTOCOL_VERSION}}}"#);
    raw.write_all(&encode_frame(hello.as_bytes())).unwrap();
    read_frame(&mut raw, MAX_FRAME_LEN).unwrap();
    let mut pipe = raw.try_clone().unwrap();
    std::thread::spawn(move || {
        for id in 1..=100u64 {
            let payload =
                format!(r#"{{"components":[{all}],"freshness":"fresh","id":{id},"op":"scan"}}"#);
            if pipe.write_all(&encode_frame(payload.as_bytes())).is_err() {
                return;
            }
        }
    });

    // The reply buffer fills, the pump's write times out, the connection
    // is severed and fully torn down — without the peer ever reading or
    // closing anything itself.
    assert!(
        wait_until(Duration::from_secs(30), || server.connection_count() == 0),
        "non-reading peer was never severed by the write timeout"
    );
    drop(raw);
    server.shutdown(Duration::from_secs(10));
    assert!(
        wait_until(Duration::from_secs(30), || {
            let stats = service.obs().stats;
            stats.submits_ok == stats.submits_resolved
        }),
        "server-side accepted != resolved after write-timeout severance"
    );
    service.shutdown();
}

#[test]
fn concurrent_connections_multiplex_without_crosstalk() {
    let executor = Executor::new(4);
    let service = start_service(&executor, ServiceConfig::default());
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();

    std::thread::scope(|scope| {
        for conn in 0..8usize {
            scope.spawn(move || {
                let client = RemoteClientHandle::connect_tcp(addr).unwrap();
                let component = conn % M;
                for op in 0..50u64 {
                    client.submit_blocking(component, op + 1).unwrap();
                    // Interleave scans so replies genuinely arrive out of
                    // submission order across the multiplexed ids.
                    let values = client.scan_blocking(vec![component]).unwrap();
                    assert_eq!(values.len(), 1);
                    assert!(values[0] > op, "scan went backwards");
                }
                client.close();
            });
        }
    });

    server.shutdown(Duration::from_secs(5));
    service.shutdown();
}

/// Where a test server listens.
#[derive(Clone)]
enum Endpoint {
    Tcp(std::net::SocketAddr),
    Unix(std::path::PathBuf),
}

impl Endpoint {
    /// A plain connect, no handshake.
    fn connect_raw(&self) -> std::io::Result<()> {
        match self {
            Endpoint::Tcp(addr) => std::net::TcpStream::connect(addr).map(drop),
            Endpoint::Unix(path) => std::os::unix::net::UnixStream::connect(path).map(drop),
        }
    }

    fn connect(&self) -> Result<RemoteClientHandle, WireError> {
        match self {
            Endpoint::Tcp(addr) => RemoteClientHandle::connect_tcp(addr),
            Endpoint::Unix(path) => RemoteClientHandle::connect_unix(path),
        }
    }
}

#[test]
fn a_blocked_acceptor_shuts_down_and_late_connects_are_refused() {
    for unix in [false, true] {
        let executor = Executor::new(2);
        let service = start_service(&executor, ServiceConfig::default());
        let start = || {
            let config = WireServerConfig::default();
            let service = Arc::clone(&service);
            if unix {
                let path = unique_socket_path("acceptor");
                let server = WireServer::serve_unix(service, &path, config, &executor).unwrap();
                (server, Endpoint::Unix(path))
            } else {
                let server = WireServer::serve_tcp(service, "127.0.0.1:0", config, &executor);
                let server = server.unwrap();
                let addr = server.local_addr().unwrap();
                (server, Endpoint::Tcp(addr))
            }
        };

        // Never accepted anything: the acceptor is blocked in `accept`, and
        // shutdown still returns, well inside its timeout.
        let (server, endpoint) = start();
        let t0 = Instant::now();
        server.shutdown(Duration::from_secs(30));
        assert!(t0.elapsed() < Duration::from_secs(10), "unix: {unix}");
        assert!(
            endpoint.connect_raw().is_err(),
            "unix {unix}: connect after shutdown"
        );
        drop(server);

        // A client connecting over and over while shutdown runs: each
        // attempt completes its handshake and is drained, or is refused.
        // None hangs, and once shutdown has returned, all are refused.
        let (server, endpoint) = start();
        let handshakes = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let connector = {
            let (endpoint, handshakes) = (endpoint.clone(), Arc::clone(&handshakes));
            std::thread::spawn(move || {
                while let Ok(client) = endpoint.connect() {
                    handshakes.fetch_add(1, Ordering::SeqCst);
                    match client.submit_blocking(0, 1) {
                        Ok(()) | Err(WireError::Closed | WireError::ConnectionLost(_)) => {}
                        Err(other) => panic!("a drained connection answered {other}"),
                    }
                    client.close();
                }
                done_tx.send(()).unwrap();
            })
        };
        assert!(wait_until(Duration::from_secs(10), || {
            handshakes.load(Ordering::SeqCst) >= 3
        }));
        server.shutdown(Duration::from_secs(5));
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("unix {unix}: a connect during shutdown hung"));
        connector.join().unwrap();
        assert!(
            endpoint.connect_raw().is_err(),
            "unix {unix}: connect after shutdown"
        );
        drop(server);
        service.shutdown();
    }
}
