//! Quickstart for the observability layer (`psnap-obs`).
//!
//! One registry, every tier: the process-wide epoch/multiversion metrics,
//! the sharded store's scan counters and per-shard heat, and the
//! service frontend's queue gauges and latency histograms all register
//! their *live* handles into a single `Registry`, whose partition
//! invariants (`accepted == resolved`, `scans == backing + empty`,
//! ...) are checked at the end. Trace collection — off by default, it is a
//! debugging tool, not a production tax — is switched on so the merged
//! timeline shows one coalesced scan end to end: queue pushes, the drain,
//! the coalesce, and the per-request serves. Span collection is switched
//! on too, so the flight recorder assembles one causal tree per request;
//! the example dumps a served scan's tree (queue wait → window → backing
//! scan → merge, with the time each stage ate) and shows the dump's
//! Chrome trace-event export.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example metrics_quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use partial_snapshot::obs::{self as obs, Registry, TraceKind};
use partial_snapshot::serve::{Coalescing, Executor, Freshness, ServiceConfig, SnapshotService};
use partial_snapshot::shard::{MvShardedSnapshot, ShardConfig};
use partial_snapshot::shmem;
use partial_snapshot::snapshot::Resharding;

const M: usize = 64;
const SHARDS: usize = 4;
const WRITERS: usize = 2;
const READERS: usize = 4;
const OPS: usize = 200;

fn main() {
    // Tracing is opt-in; turn it on before the traffic of interest. Spans
    // are a second opt-in on top: begin/end events ride the same rings,
    // and completed trees land in the flight recorder.
    obs::set_trace_enabled(true);
    obs::set_span_enabled(true);

    let backing = Arc::new(MvShardedSnapshot::new(
        M,
        4,
        0u64,
        ShardConfig::contiguous(SHARDS),
    ));
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig {
            coalescing: Coalescing::Window(Duration::from_micros(150)),
            ..ServiceConfig::default()
        },
        &executor,
    );

    // One registry, three tiers of live handles.
    let registry = Registry::global();
    shmem::metrics::register_metrics(registry);
    backing.register_obs(registry, "shard");
    service.register_obs(registry, "serve");

    // A periodic reporter samples the full ServiceObs while traffic runs.
    // No reshard driver runs here, so the heat is read off the store.
    let store = Arc::clone(&backing);
    let reporter = service.spawn_stats_reporter(&executor, Duration::from_millis(5), move |o| {
        eprintln!(
            "[reporter] ingest_depth={} scan_depth={} coalescing={:.2}x heat={:?}",
            o.ingest_depth,
            o.scan_depth,
            o.coalescing_ratio,
            store.shard_heat()
        );
    });

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let client = service.client();
            scope.spawn(move || {
                for k in 0..OPS {
                    let component = (k * WRITERS + w) % M;
                    assert!(client.submit_blocking(component, k as u64 + 1));
                }
            });
        }
        for r in 0..READERS {
            let client = service.client();
            scope.spawn(move || {
                let window: Vec<usize> = (0..12).map(|i| (r * 5 + i * 3) % M).collect();
                for _ in 0..OPS / 4 {
                    client
                        .scan_blocking(&window, Freshness::Fresh)
                        .expect("service closed");
                }
            });
        }
    });
    reporter.stop();
    service.shutdown();

    // The text exposition: every family, one line per metric.
    println!("\n=== registry exposition ===");
    println!("{}", registry.dump_text());

    // At quiescence the declared partitions must balance exactly.
    registry.assert_invariants();
    println!("all partition invariants hold");

    // The merged timeline. Find one coalesced backing scan and show its
    // neighborhood: the queue pushes feeding it, the drain, the coalesce
    // and the serves it fanned out to.
    let timeline = obs::trace::drain_timeline();
    println!(
        "\n=== trace timeline: {} events ({} dropped to ring overflow) ===",
        timeline.events.len(),
        timeline.dropped
    );
    let best = timeline
        .events
        .iter()
        .position(|e| e.kind == TraceKind::Coalesce && e.a > 1);
    match best {
        Some(i) => {
            let lo = i.saturating_sub(6);
            let hi = (i + 6).min(timeline.events.len());
            println!("one coalesced scan, in context:");
            for event in &timeline.events[lo..hi] {
                let marker = if event.kind == TraceKind::Coalesce {
                    " <-- this backing scan answered several client scans"
                } else {
                    ""
                };
                println!("  {event}{marker}");
            }
        }
        None => println!("(no multi-request coalesce this run — try more readers)"),
    }

    // The span-tree dump: one served scan, as the flight recorder saw it —
    // the whole causal story of a single request, not a flat histogram.
    let trees = obs::flight::recent_trees();
    let served = trees
        .iter()
        .filter(|t| t.root().kind == obs::SpanKind::ScanRequest && t.root().b > 0)
        .max_by_key(|t| t.spans.len());
    println!(
        "\n=== span tree: one served scan ({} trees recorded) ===",
        trees.len()
    );
    match served {
        Some(tree) => {
            let root = tree.root();
            for span in &tree.spans {
                // Indent by causal depth (walk the parent chain).
                let mut depth = 0usize;
                let mut parent = span.parent;
                while parent != 0 {
                    depth += 1;
                    parent = tree
                        .spans
                        .iter()
                        .find(|s| s.id == parent)
                        .map_or(0, |s| s.parent);
                }
                println!(
                    "  {:indent$}{} {}µs (thread {}, +{}µs into the request)",
                    "",
                    span.kind.as_str(),
                    span.duration_ns() / 1000,
                    span.thread,
                    span.begin_ns.saturating_sub(root.begin_ns) / 1000,
                    indent = depth * 2,
                );
            }
            // Freeze the ring into a dump, exactly as an anomaly trigger
            // would, and show the Chrome trace export it carries.
            obs::flight::set_armed(true);
            let dump = obs::flight::trigger(
                obs::AnomalyKind::LatencySlo,
                "quickstart: manual freeze, no real anomaly".to_string(),
                Some(registry),
            )
            .expect("armed trigger returns a dump");
            obs::flight::set_armed(false);
            let chrome = dump.to_chrome_trace();
            let events = chrome
                .get("traceEvents")
                .and_then(|e| e.as_array())
                .unwrap();
            println!(
                "flight dump: {} trees, {} Chrome trace events — pipe \
                 `dump.to_chrome_trace().to_string_pretty()` into a file and \
                 load it in chrome://tracing or Perfetto",
                dump.trees.len(),
                events.len(),
            );
        }
        None => println!("(no served scan tree captured this run)"),
    }
    obs::set_span_enabled(false);

    let obs_snapshot = service.obs();
    println!(
        "\nscan latency p50={}ns p99={}ns over {} scans; coalescing {:.2}x",
        obs_snapshot.stats.scan_latency.p50,
        obs_snapshot.stats.scan_latency.p99,
        obs_snapshot.stats.scan_latency.count,
        obs_snapshot.coalescing_ratio,
    );
    println!("done");
}
