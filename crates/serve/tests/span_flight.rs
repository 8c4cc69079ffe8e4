//! Causal span trees over a live, chaos-perturbed service: every scan the
//! service answers must come back to the flight recorder as one complete
//! tree rooted at the client's submit — no orphaned stage spans even while
//! the request is answered on another client's combining thread and the
//! backing object reshards underneath it — and a frozen dump must round-trip through `psnap-json`.

use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

use psnap_core::{CasPartialSnapshot, ReshardOp, Resharding};
use psnap_json::Json;
use psnap_obs::{flight, AnomalyKind, FlightDump, Registry, SpanKind};
use psnap_serve::{Coalescing, Executor, Freshness, ServiceConfig, SnapshotService};
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_shmem::chaos::{self, ChaosConfig};

const M: usize = 16;
const SCANNERS: usize = 2;
const SCANS_EACH: usize = 30;
const UPDATERS: usize = 3;
const SUBMITS_EACH: usize = 60;

/// The span collector, tree ring, and dump store are process-global; the
/// tests of this binary serialize and reset around their traffic.
static SPAN_LOCK: Mutex<()> = Mutex::new(());

/// Enables the chaos layer on a client thread for as long as the guard
/// lives: client threads combine, so the pipelines run on them.
fn chaotic_client(seed: u64) -> chaos::ChaosGuard {
    chaos::enable(
        seed,
        ChaosConfig {
            perturb_probability: 0.3,
            sleep_probability: 0.3,
            max_sleep_us: 200,
            max_spin: 64,
            ..ChaosConfig::default()
        },
    )
}

/// Runs chaos-perturbed traffic (updaters, fresh scanners, and a reshard
/// storm against the backing object) through a service with spans on, and
/// returns the completed trees.
fn run_traffic() -> Vec<psnap_obs::SpanTree> {
    let backing = Arc::new(MvShardedSnapshot::new(
        M,
        8,
        0u64,
        ShardConfig::multiversioned(2),
    ));
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

    std::thread::scope(|scope| {
        for updater in 0..UPDATERS {
            let client = service.client();
            scope.spawn(move || {
                let _chaos = chaotic_client(0x5FA2 + updater as u64);
                for op in 0..SUBMITS_EACH {
                    let component = (5 * updater + op) % M;
                    assert!(client.submit_blocking(component, op as u64 + 1));
                }
            });
        }
        for scanner in 0..SCANNERS {
            let client = service.client();
            scope.spawn(move || {
                let _chaos = chaotic_client(0x5FB2 + scanner as u64);
                let all: Vec<usize> = (0..M).collect();
                for _ in 0..SCANS_EACH {
                    let values = client
                        .scan_blocking(&all, Freshness::Fresh)
                        .expect("service closed under a live scanner");
                    assert_eq!(values.len(), M);
                }
            });
        }
        // The reshard storm: operator-plane splits and merges against the
        // live backing object, so scans keep crossing generation cutovers
        // while their spans are in flight. Rejected ops are fine — the
        // storm only needs some accepted migrations.
        let storm = Arc::clone(&backing);
        scope.spawn(move || {
            for round in 0..24 {
                let op = if round % 2 == 0 {
                    ReshardOp::Split { shard: 0 }
                } else {
                    ReshardOp::Merge { from: 1, into: 0 }
                };
                let _ = storm.reshard(op);
                std::thread::sleep(Duration::from_micros(300));
            }
        });
    });
    service.shutdown();
    flight::recent_trees()
}

#[test]
fn every_scan_tree_is_rooted_at_its_submit_with_no_orphans() {
    let _serial = SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    psnap_obs::set_enabled(true);
    psnap_obs::set_trace_enabled(true);
    psnap_obs::set_span_enabled(true);
    flight::reset();
    flight::set_tree_capacity(8192);

    let trees = run_traffic();

    psnap_obs::set_span_enabled(false);
    psnap_obs::set_trace_enabled(false);

    // Structural integrity of every tree, whatever its kind: the root is
    // first and parentless, every span belongs to the root's tree, and
    // every non-root span's parent is present — a span that ended on a
    // worker thread the request merely passed through must still have
    // found its way home.
    let mut all_ids = Vec::new();
    for tree in &trees {
        let root = tree.root();
        assert_eq!(root.parent, 0, "tree root has a parent: {root:?}");
        assert_eq!(root.id, root.root, "root id != tree id: {root:?}");
        let ids: Vec<u64> = tree.spans.iter().map(|s| s.id).collect();
        for span in &tree.spans {
            assert_eq!(span.root, root.id, "span strayed into the wrong tree");
            assert!(
                span.parent == 0 || ids.contains(&span.parent),
                "orphaned span {span:?} in tree rooted at {root:?}"
            );
            assert!(
                span.begin_ns >= root.begin_ns && span.end_ns <= root.end_ns,
                "stage span outlived its request: {span:?} vs root {root:?}"
            );
        }
        all_ids.extend(ids);
    }
    let total = all_ids.len();
    all_ids.sort_unstable();
    all_ids.dedup();
    assert_eq!(all_ids.len(), total, "span ids must be globally unique");

    // Every served scan (root end args carry tier and a nonzero latency)
    // is one tree rooted at the submit, with exactly one queue-wait leg;
    // Busy-rejected attempts may add stunted trees but never served ones.
    let served: Vec<_> = trees
        .iter()
        .filter(|t| t.root().kind == SpanKind::ScanRequest && t.root().b > 0)
        .collect();
    assert_eq!(
        served.len(),
        SCANNERS * SCANS_EACH,
        "one completed tree per served scan"
    );
    for tree in &served {
        assert_eq!(tree.spans_of(SpanKind::QueueWait).count(), 1);
        let tier = tree.root().a;
        assert!(tier <= 3, "unknown serving tier {tier}");
        if tier == 0 {
            // Backing-served scans carry their union fan-out stages.
            assert!(tree.spans_of(SpanKind::Merge).count() >= 1);
        }
    }
    // The union path actually ran somewhere in the run, and its backing
    // intervals attribute to scan trees (per-stage attribution is what a
    // traced benchmark run reads off these).
    assert!(served
        .iter()
        .any(|t| t.spans_of(SpanKind::BackingScan).count() >= 1));

    // Ingest trees: every applied submission roots its own tree too.
    let ingests = trees
        .iter()
        .filter(|t| t.root().kind == SpanKind::Ingest)
        .count();
    assert!(
        ingests >= UPDATERS * SUBMITS_EACH,
        "expected at least {} ingest trees, got {ingests}",
        UPDATERS * SUBMITS_EACH
    );

    flight::reset();
}

#[test]
fn flight_dump_of_live_traffic_round_trips_through_json() {
    let _serial = SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    psnap_obs::set_enabled(true);
    psnap_obs::set_trace_enabled(true);
    psnap_obs::set_span_enabled(true);
    flight::reset();
    flight::set_tree_capacity(8192);

    let trees = run_traffic();
    assert!(!trees.is_empty());

    // Freeze a dump over the real traffic's trees and a live registry
    // snapshot, exactly as an anomaly trigger would.
    let registry = Registry::new();
    registry.counter("t.requests").add(trees.len() as u64);
    flight::set_armed(true);
    let dump = flight::trigger(
        AnomalyKind::InvariantViolation,
        "synthetic trigger over real chaos traffic".to_string(),
        Some(&registry),
    )
    .expect("armed trigger freezes a dump");
    flight::set_armed(false);
    psnap_obs::set_span_enabled(false);
    psnap_obs::set_trace_enabled(false);

    assert_eq!(dump.trees.len(), trees.len());
    let text = dump.to_json().to_string_pretty();
    let restored = FlightDump::from_json(&Json::parse(&text).expect("dump JSON parses"))
        .expect("dump deserializes");
    assert_eq!(restored, dump);

    // The Chrome trace export carries one complete event per span.
    let chrome = dump.to_chrome_trace();
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let spans: usize = dump.trees.iter().map(|t| t.spans.len()).sum();
    assert_eq!(events.len(), spans);
    assert!(events
        .iter()
        .all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));

    // The same for a dump the service freezes by itself: a 1 ns scan SLO no
    // real scan can meet fires `latency_slo`, and the dump must carry the
    // triggering request's own tree and survive psnap-json exactly.
    flight::reset();
    psnap_obs::set_trace_enabled(true);
    psnap_obs::set_span_enabled(true);
    flight::set_armed(true);
    let slo = Duration::from_nanos(1);
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        Arc::new(CasPartialSnapshot::new(M, 2, 0u64)),
        ServiceConfig {
            scan_slo: Some(slo),
            ..ServiceConfig::default()
        },
        &executor,
    );
    let client = service.client();
    assert!(client.submit_blocking(3, 33));
    let all: Vec<usize> = (0..M).collect();
    client.scan_blocking(&all, Freshness::Fresh).unwrap();
    service.shutdown();
    flight::set_armed(false);
    psnap_obs::set_span_enabled(false);
    psnap_obs::set_trace_enabled(false);
    let dumps = flight::take_dumps();
    let induced = dumps
        .iter()
        .find(|d| d.reason == AnomalyKind::LatencySlo)
        .expect("the unmeetable SLO freezes a latency_slo dump");
    assert!(
        induced.trees.iter().any(|t| {
            t.root().kind == SpanKind::ScanRequest && t.root().b as u128 > slo.as_nanos()
        }),
        "the dump lacks the request that triggered it"
    );
    let text = induced.to_json().to_string_pretty();
    assert_eq!(
        FlightDump::from_json(&Json::parse(&text).expect("dump JSON parses")).as_ref(),
        Some(induced)
    );

    flight::reset();
}

/// The busy-burst trigger must count consecutive rejections *per client*:
/// a starved client whose queue is wedged keeps being rejected while a
/// healthy client's traffic is accepted in between. Under a service-global
/// streak those interleaved acceptances reset the counter and the burst
/// never fires; per-client, the starved client's streak reaches the
/// threshold regardless.
#[test]
fn busy_burst_fires_per_client_despite_interleaved_healthy_traffic() {
    use psnap_core::CasPartialSnapshot;
    use psnap_serve::testing::GatedSnapshot;
    use psnap_serve::SubmitError;
    use std::time::Instant;

    let _serial = SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    flight::reset();
    flight::set_armed(true);

    let backing = Arc::new(GatedSnapshot::new(CasPartialSnapshot::new(8, 2, 0u64)));
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        Arc::clone(&backing),
        ServiceConfig {
            ingest_capacity: 2,
            busy_burst_threshold: 5,
            ..ServiceConfig::default()
        },
        &executor,
    );
    let starved = service.client();
    let healthy = service.client();

    // Wedge the starved client: park the ingest role mid-apply behind the
    // update gate — the parked ticket's waiter, on a thread of its own, is
    // the combiner — then fill the client's 2-slot queue.
    let park = |value: u64| {
        backing.update_gate.close();
        let parked = starved.submit(0, value).unwrap();
        let parked = std::thread::spawn(move || parked.wait());
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while service.ingest_depth() != 0 {
            assert!(Instant::now() < deadline, "drainer never collected");
            std::thread::yield_now();
        }
        let fill = [
            starved.submit(1, value).unwrap(),
            starved.submit(2, value).unwrap(),
        ];
        (parked, fill)
    };
    let (parked, fill) = park(1);

    let base = flight::dump_count();
    for _ in 0..4 {
        assert!(matches!(starved.submit(3, 1), Err(SubmitError::Busy)));
        // A healthy client's accepted scan between every rejection: under a
        // global streak this reset would mask the burst entirely.
        healthy
            .scan(vec![0], Freshness::Fresh)
            .expect("healthy client must be accepted")
            .wait();
        assert_eq!(flight::dump_count(), base, "burst fired below threshold");
    }
    assert!(matches!(starved.submit(3, 1), Err(SubmitError::Busy)));
    assert_eq!(
        flight::dump_count(),
        base + 1,
        "burst did not fire at threshold"
    );
    let dump = flight::dumps().pop().expect("dump stored");
    assert_eq!(dump.reason, AnomalyKind::BusyBurst);

    // A sustained overload yields ONE dump, not a dump per rejection.
    for _ in 0..3 {
        assert!(matches!(starved.submit(3, 1), Err(SubmitError::Busy)));
    }
    assert_eq!(flight::dump_count(), base + 1);

    // An acceptance by the starved client itself resets its streak: wedge
    // it again and the threshold must be reached afresh before a second
    // dump fires (without the reset, the streak would be past the
    // threshold already and never equal it again).
    backing.update_gate.open();
    parked.join().unwrap();
    for t in fill {
        t.wait();
    }
    let (parked, fill) = park(2);
    for _ in 0..4 {
        assert!(matches!(starved.submit(3, 2), Err(SubmitError::Busy)));
        assert_eq!(
            flight::dump_count(),
            base + 1,
            "streak did not reset on acceptance"
        );
    }
    assert!(matches!(starved.submit(3, 2), Err(SubmitError::Busy)));
    assert_eq!(flight::dump_count(), base + 2, "second burst did not fire");

    backing.update_gate.open();
    parked.join().unwrap();
    for t in fill {
        t.wait();
    }
    flight::set_armed(false);
    flight::reset();
    service.shutdown();
}

/// The flight auditor is the only emitter of `invariant_violation`. Over a
/// registry whose invariant is held violated it must freeze a dump naming
/// the invariant; over one whose invariant holds it must stay silent, tick
/// after tick; and once stopped it must stop auditing.
#[test]
fn flight_auditor_dumps_a_held_violation_and_only_that() {
    use std::time::Instant;

    let _serial = SPAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    flight::reset();
    flight::set_tree_capacity(8192);
    psnap_obs::set_trace_enabled(true);
    psnap_obs::set_span_enabled(true);
    flight::set_armed(true);
    let tick = Duration::from_millis(1);
    let audits = || {
        flight::recent_trees()
            .iter()
            .filter(|t| t.root().kind == SpanKind::Audit)
            .count()
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(tick);
        }
    };
    let registry = |violated: bool| {
        let registry = Arc::new(Registry::new());
        registry.counter("t.in").add(2);
        registry.counter("t.out").add(if violated { 1 } else { 2 });
        registry.add_invariant("t.partition", &["t.in"], &["t.out"]);
        registry
    };
    let executor = Executor::new(2);
    let service = SnapshotService::start(
        Arc::new(CasPartialSnapshot::new(M, 2, 0u64)),
        ServiceConfig::default(),
        &executor,
    );

    // An invariant that holds: ≥ 20 audited ticks and not one dump.
    let auditor = service.spawn_flight_auditor(&executor, tick, registry(false));
    wait_for("20 audit ticks", &|| audits() >= 20);
    auditor.stop();
    assert!(
        flight::dumps().is_empty(),
        "a holding invariant froze a dump: {:?}",
        flight::dumps()
    );

    // Once stopped, no further audit spans: let a tick that was already
    // past its stop check finish, then watch several more tick periods.
    std::thread::sleep(tick * 5);
    let settled = audits();
    std::thread::sleep(tick * 20);
    assert_eq!(audits(), settled, "the stopped auditor kept auditing");

    // An invariant held violated: the second identical tick dumps it.
    let auditor = service.spawn_flight_auditor(&executor, tick, registry(true));
    wait_for("an invariant_violation dump", &|| {
        !flight::dumps().is_empty()
    });
    auditor.stop();
    let dump = flight::dumps().remove(0);
    assert_eq!(dump.reason, AnomalyKind::InvariantViolation);
    assert!(
        dump.detail.contains("t.partition"),
        "the dump does not name the invariant: {}",
        dump.detail
    );

    service.shutdown();
    flight::set_armed(false);
    psnap_obs::set_span_enabled(false);
    psnap_obs::set_trace_enabled(false);
    flight::reset();
}
