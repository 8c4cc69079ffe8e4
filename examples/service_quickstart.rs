//! Quickstart for the async service frontend (`psnap-serve`).
//!
//! Instead of owning a thread and calling `PartialSnapshot` in-process,
//! clients hold a handle to a `SnapshotService`: submitted writes flow
//! through bounded ingestion queues into coalesced `update_many` batches,
//! and concurrent partial-scan requests are merged into one backing scan
//! whose results fan back out per request. This example runs a small
//! "market data" service: a few writer clients stream price updates, many
//! reader clients request overlapping portfolio valuations, and the service
//! stats show the coalescing at work.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example service_quickstart
//! ```

use std::time::Duration;

use partial_snapshot::serve::{Coalescing, Executor, ServiceConfig, SnapshotService};
use partial_snapshot::snapshot::CasPartialSnapshot;

const M: usize = 128; // instruments
const WRITERS: usize = 2;
const READERS: usize = 6;
const OPS: usize = 400;

fn main() {
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        CasPartialSnapshot::new(M, 2, 1_000u64),
        ServiceConfig {
            coalescing: Coalescing::Window(Duration::from_micros(100)),
            ..ServiceConfig::default()
        },
        &executor,
    );

    std::thread::scope(|scope| {
        // Writers stream price moves; backpressure (Busy) is handled by the
        // blocking convenience wrapper.
        for w in 0..WRITERS {
            let client = service.client();
            scope.spawn(move || {
                for k in 0..OPS {
                    let instrument = (k * WRITERS + w) % M;
                    assert!(client.submit_blocking(instrument, 1_000 + k as u64));
                }
            });
        }
        // Readers value overlapping "portfolios" — the requests coalesce
        // into shared backing scans, and every valuation is linearizable.
        for r in 0..READERS {
            let client = service.client();
            scope.spawn(move || {
                let portfolio: Vec<usize> = (0..8).map(|i| (r * 4 + i * 3) % M).collect();
                for _ in 0..OPS {
                    let values = client.scan_blocking(&portfolio).expect("service closed");
                    let total: u64 = values.iter().sum();
                    assert!(total >= 8 * 1_000, "a valuation can never shrink here");
                }
            });
        }
    });

    let stats = service.stats();
    println!("service stats after the run:");
    println!(
        "  submits: {} accepted, {} busy-rejected, {} update_many batches, \
         {} writes applied ({} coalesced away)",
        stats.submits_ok,
        stats.submits_busy,
        stats.batches_applied,
        stats.writes_applied,
        stats.writes_coalesced_away,
    );
    println!(
        "  scans: {} served, {} backing scans -> {:.2} client scans per \
         backing scan, {:.2}x component dedup",
        stats.scans_served_backing,
        stats.backing_scans,
        stats.coalescing_ratio(),
        stats.component_dedup_ratio(),
    );
    println!(
        "  latency: submit mean {:.1} µs, scan mean {:.1} µs",
        stats.mean_submit_latency_ns() / 1000.0,
        stats.mean_scan_latency_ns() / 1000.0,
    );
    assert!(
        stats.coalescing_ratio() >= 1.0,
        "overlapping reader load must coalesce"
    );
    service.shutdown();
    println!("done: every ticket resolved, service drained cleanly");
}
