//! Quickstart for the wire transport (`psnap-wire`).
//!
//! `service_quickstart` keeps every client in the server's address space;
//! this example moves them to the other end of a socket. A `WireServer`
//! hosts the same `SnapshotService` over loopback TCP — length-prefixed
//! JSON frames, one ingestion queue per connection — and
//! `RemoteClientHandle` mirrors the in-process `ClientHandle` API:
//! `submit`/`scan` return tickets, backpressure surfaces as
//! `WireError::Busy`, and `close` half-closes the connection so in-flight
//! replies still drain. Writers here cork their connection and flush in
//! batches, which is how a pipelining client amortizes syscalls.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example wire_quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use partial_snapshot::serve::{Coalescing, Executor, ServiceConfig, SnapshotService};
use partial_snapshot::snapshot::CasPartialSnapshot;
use partial_snapshot::wire::{RemoteClientHandle, WireError, WireServer, WireServerConfig};

const M: usize = 128; // instruments
const WRITERS: usize = 2;
const READERS: usize = 4;
const OPS: usize = 300;
const FLUSH_EVERY: usize = 8;

fn main() {
    let executor = Executor::new(2);
    let service = Arc::new(SnapshotService::start(
        CasPartialSnapshot::new(M, 2, 1_000u64),
        ServiceConfig {
            coalescing: Coalescing::Window(Duration::from_micros(100)),
            ..ServiceConfig::default()
        },
        &executor,
    ));

    // Bind on an ephemeral port; a real deployment would pass a fixed
    // address (or a unix socket path via `serve_unix`).
    let server = WireServer::serve_tcp(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
        &executor,
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("tcp server has an address");
    println!("serving on {addr}");

    std::thread::scope(|scope| {
        // Writers pipeline: cork the connection, issue a batch of
        // submissions, flush once, then wait the batch's tickets. Busy is
        // the wire spelling of the service's backpressure — back off and
        // resubmit.
        for w in 0..WRITERS {
            scope.spawn(move || {
                let client = RemoteClientHandle::connect_tcp(addr).expect("connect writer");
                client.set_corked(true).expect("cork");
                let mut tickets = Vec::with_capacity(FLUSH_EVERY);
                for k in 0..OPS {
                    let instrument = (k * WRITERS + w) % M;
                    let value = 1_000 + k as u64;
                    loop {
                        match client.submit(instrument, value) {
                            Ok(t) => {
                                tickets.push(t);
                                break;
                            }
                            Err(WireError::Busy) => std::thread::yield_now(),
                            Err(e) => panic!("writer {w}: {e}"),
                        }
                    }
                    if tickets.len() == FLUSH_EVERY || k + 1 == OPS {
                        client.flush().expect("flush");
                        for t in tickets.drain(..) {
                            match t.wait() {
                                Ok(()) | Err(WireError::Busy) => {}
                                Err(e) => panic!("writer {w}: {e}"),
                            }
                        }
                    }
                }
                client.close(); // half-close: replies already drained
            });
        }
        // Readers value small portfolios; concurrent requests coalesce into
        // shared backing scans server-side. The blocking wrappers are the
        // simple non-pipelined call shape.
        for r in 0..READERS {
            scope.spawn(move || {
                let client = RemoteClientHandle::connect_tcp(addr).expect("connect reader");
                let portfolio: Vec<usize> = (0..6).map(|i| (r * 5 + i * 3) % M).collect();
                let mut sum = 0u64;
                for _ in 0..OPS {
                    match client.scan_blocking(portfolio.clone()) {
                        Ok(values) => sum += values.iter().sum::<u64>(),
                        Err(WireError::Busy) => std::thread::yield_now(),
                        Err(e) => panic!("reader {r}: {e}"),
                    }
                }
                println!("reader {r}: portfolio sum {sum}");
                client.close();
            });
        }
    });

    // Stats travel over the same wire as data ops.
    let client = RemoteClientHandle::connect_tcp(addr).expect("connect stats");
    let stats = client.stats().expect("stats");
    println!("service stats: {}", stats.to_string_compact());
    client.close();

    // Graceful drain: stop accepting, sever idle connections, wait for
    // in-flight replies, then stop the service itself.
    server.shutdown(Duration::from_secs(5));
    service.shutdown();
    println!("drained and shut down");
}
