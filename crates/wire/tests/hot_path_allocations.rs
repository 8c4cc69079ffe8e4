//! The wire hot path's allocations, counted: after warm-up, a depth-1
//! submit and an r = 16 scan over a unix socket make exactly the declared
//! number of allocations on the calling thread, and at most the declared
//! number everywhere else in the process (the server's connection thread,
//! the service it combines on, the object).
//!
//! Allocation calls are counted per thread and process-wide by the
//! `#[global_allocator]` in `tests/support/counting_alloc.rs`, which is
//! why this test has an integration-test binary to itself (and one test in
//! it: another test's threads would allocate into the process-wide count).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::Arc;
use std::time::{Duration, Instant};

use counting_alloc::{process_allocations, thread_allocations};
use psnap_core::ProcessId;
use psnap_serve::{Coalescing, Executor, ServiceConfig, SnapshotService};
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_wire::{RemoteClientHandle, WireServer, WireServerConfig};

/// The calling thread's budget for one depth-1 `submit_blocking`: the
/// one-write vector `submit` builds for `submit_batch` — the request the
/// caller hands over. The frame is encoded into the connection's
/// outbound buffer, the pending-table entry reuses the table's room, the
/// reply is read into the read half's buffer and parsed without a tree,
/// and a `Submitted` reply carries nothing.
const CLIENT_SUBMIT_ALLOCATIONS: f64 = 1.0;

/// The calling thread's budget for one depth-1 r = 16 `scan_blocking`:
/// the caller's component vector, and the vector of values the ticket
/// hands back — parsed, where the reply frame lies in the read buffer,
/// into one allocation sized by an exact count of the reply's items.
const CLIENT_SCAN_ALLOCATIONS: f64 = 2.0;

/// Everything else in the process, per submit — all of it on the server's
/// connection thread, which combines: the decoded write vector (wire); the
/// ticket's cell and the ingest round's batch (serve); and the one version
/// block of the single update the object's `update_many` passes a
/// one-write batch to.
const SERVER_SUBMIT_ALLOCATIONS: f64 = 4.0;

/// Everything else in the process, per r = 16 scan: the decoded component
/// vector (wire); the ticket's cell, the drained request list and the
/// round's vector of answers (serve); the union's two vectors and the
/// backing scan's result (object).
const SERVER_SCAN_ALLOCATIONS: f64 = 7.0;

const M: usize = 256;
const SHARDS: usize = 4;
const R: usize = 16;
/// Measurement windows per op kind; each count is the least over them, so
/// a rare allocation (a growing epoch bag) does not read as the hot path's.
const WINDOWS: usize = 5;
const OPS_PER_WINDOW: u64 = 1000;
/// How long the process is watched idle for its background allocations.
const IDLE: Duration = Duration::from_millis(200);
/// What is left of the background after subtracting its idle rate: an
/// idle server allocates nothing of its own (its acceptor blocks in
/// `accept`, and this test schedules no timed jobs), but whatever else
/// the process does while idle is known only to its jitter.
const BACKGROUND_TOLERANCE: f64 = 0.05;

/// Allocations per second, process-wide, while no request is in flight.
fn background_rate() -> f64 {
    let before = process_allocations();
    let started = Instant::now();
    std::thread::sleep(IDLE);
    let calls = process_allocations() - before;
    calls as f64 / started.elapsed().as_secs_f64()
}

/// The least `(calling thread, rest of the process)` allocations per call
/// of `op` over [`WINDOWS`] windows, the rest of the process net of
/// `background` allocations per second.
fn allocations_per_call(background: f64, mut op: impl FnMut(u64)) -> (f64, f64) {
    let mut least = (f64::MAX, f64::MAX);
    for _ in 0..WINDOWS {
        let thread_before = thread_allocations();
        let process_before = process_allocations();
        let started = Instant::now();
        for i in 0..OPS_PER_WINDOW {
            op(i);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let process = process_allocations() - process_before;
        let thread = thread_allocations() - thread_before;
        let rest = process as f64 - thread as f64 - background * elapsed;
        let calls = OPS_PER_WINDOW as f64;
        least = (
            least.0.min(thread as f64 / calls),
            least.1.min(rest / calls),
        );
    }
    least
}

#[test]
fn depth_one_submits_and_scans_allocate_only_their_declared_budget() {
    let executor = Executor::new(2);
    let object = Arc::new(MvShardedSnapshot::new(
        M,
        2,
        0u64,
        ShardConfig::multiversioned(SHARDS),
    ));
    let service = Arc::new(SnapshotService::start(
        object,
        ServiceConfig {
            coalescing: Coalescing::Window(Duration::ZERO),
            drain_pid: ProcessId(0),
            scan_pid: ProcessId(1),
            ..ServiceConfig::default()
        },
        &executor,
    ));
    let path = std::env::temp_dir().join(format!("psnap-alloc-{}.sock", std::process::id()));
    let server = WireServer::serve_unix(
        Arc::clone(&service),
        &path,
        WireServerConfig::default(),
        &executor,
    )
    .unwrap();
    let client = RemoteClientHandle::connect_unix(&path).unwrap();

    // Sixteen components spread over all four contiguous shards.
    let request: Vec<usize> = (0..R).map(|i| i * (M / R) + i % 3).collect();
    let submit = |i: u64| {
        client
            .submit_blocking(request[i as usize % R], i + 1)
            .unwrap()
    };
    let scan = |_| {
        let values = client.scan_blocking(request.clone()).unwrap();
        assert_eq!(values.len(), R);
    };

    // Warm-up: the pending table, the frame buffers, the epoch bags, the
    // metric slots and every chain reach their steady state.
    for i in 0..4096 {
        submit(i);
        scan(i);
    }

    let background = background_rate();
    let (client_submit, server_submit) = allocations_per_call(background, submit);
    let (client_scan, server_scan) = allocations_per_call(background, scan);
    println!(
        "allocations per op: client submit {client_submit:.3}, scan {client_scan:.3}; \
         rest of the process submit {server_submit:.3}, scan {server_scan:.3} \
         (net of {background:.0} per second idle)"
    );
    client.close();
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        client_submit, CLIENT_SUBMIT_ALLOCATIONS,
        "a depth-1 submit made {client_submit:.3} allocations on the calling thread"
    );
    assert_eq!(
        client_scan, CLIENT_SCAN_ALLOCATIONS,
        "a depth-1 r = {R} scan made {client_scan:.3} allocations on the calling thread"
    );
    assert!(
        server_submit <= SERVER_SUBMIT_ALLOCATIONS + BACKGROUND_TOLERANCE,
        "a depth-1 submit made {server_submit:.3} allocations outside the calling thread"
    );
    assert!(
        server_scan <= SERVER_SCAN_ALLOCATIONS + BACKGROUND_TOLERANCE,
        "a depth-1 r = {R} scan made {server_scan:.3} allocations outside the calling thread"
    );
}
