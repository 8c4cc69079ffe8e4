//! Runs scenarios through the `psnap-serve` frontend instead of calling the
//! snapshot object directly.
//!
//! Every [`Role`] of the scenario becomes a *service client* on its own OS
//! thread: updaters submit through [`psnap_serve::ClientHandle::submit`],
//! batch updaters through `submit_batch`, scanners through `scan` with the
//! configured [`Freshness`] bound ([`Freshness::Fresh`] by default) — each
//! operation awaited to completion before the
//! next, so the per-process histories stay sequential. The recorded
//! [`History`] spans the *client-observed* interval of each operation
//! (enqueue to ticket resolution), which is exactly what linearizability is
//! about for a service: the coalesced `update_many` an ingest round issues
//! and the shared backing scan a scan round issues must both land inside
//! every participating client's interval. Feeding these histories to the WGL and
//! monotone checkers is therefore the conformance proof the ISSUE asks for —
//! a coalesced scan answer must still be a legal linearizable partial scan.
//!
//! Chaos wiring: the scenario's chaos configuration is applied to the client
//! threads — which combine, so the queue seams (ingest combiner parked
//! mid-coalesce, scan combiner parked mid-union) are exercised by the same
//! adversarial schedules as the in-process runners — and (via
//! [`ServiceDriverConfig::chaos_in_service`]) to the executor.

use std::sync::Arc;

use psnap_core::PartialSnapshot;
use psnap_lincheck::{History, LogicalClock, OpRecord, OpResult, Operation};
use psnap_serve::{
    Coalescing, Executor, ExecutorConfig, Freshness, ServiceConfig, SnapshotService, SubmitError,
};
use psnap_shmem::chaos;

use crate::scenario::{Role, Scenario};

/// How the service is set up for a scenario run.
#[derive(Clone, Debug)]
pub struct ServiceDriverConfig {
    /// Scan-merging policy of the service under test.
    pub coalescing: Coalescing,
    /// Executor worker threads.
    pub workers: usize,
    /// Capacity of each client's ingestion queue.
    pub ingest_capacity: usize,
    /// Capacity of the scan-request queue.
    pub scan_capacity: usize,
    /// Freshness bound every scanner role requests. The default is
    /// [`Freshness::Fresh`]. Any `AtMostStale` bound routes scans through
    /// the mv fast path (`scan_stale`) on multiversioned backends and into
    /// the backing union elsewhere. Either way the cut is taken inside the
    /// request's service time, so the WGL checker applies unchanged.
    pub scanner_freshness: Freshness,
    /// Also enable the scenario's chaos configuration on the executor
    /// ([`ExecutorConfig::chaos`]): its workers and every thread that enters
    /// it, such as a wire server's connection and reply-pump threads, which
    /// run the service pipelines for their connections.
    pub chaos_in_service: bool,
    /// Scan-latency SLO forwarded to [`ServiceConfig::scan_slo`]: a scan
    /// answered later than this fires the service's latency anomaly
    /// trigger when the flight recorder is armed. `None` (the default)
    /// disables the trigger.
    pub scan_slo: Option<std::time::Duration>,
}

impl Default for ServiceDriverConfig {
    fn default() -> Self {
        ServiceDriverConfig {
            coalescing: Coalescing::Window(std::time::Duration::ZERO),
            workers: 2,
            ingest_capacity: 16,
            scan_capacity: 64,
            scanner_freshness: Freshness::Fresh,
            chaos_in_service: true,
            scan_slo: None,
        }
    }
}

/// Runs `scenario` against `snapshot` through a [`SnapshotService`], one OS
/// thread per role, and returns the history of client-observed operations.
///
/// The snapshot object must have at least 2 processes (the service's ingest
/// and scan pids) and at least `scenario.components` components. The
/// update values follow the same monotone single-writer discipline as
/// [`crate::runner::run_scenario`], so the same checkers apply.
pub fn run_scenario_via_service<S>(
    snapshot: Arc<S>,
    scenario: &Scenario,
    driver: &ServiceDriverConfig,
) -> History
where
    S: PartialSnapshot<u64> + 'static,
{
    scenario
        .validate()
        .expect("scenario must be valid before it is run");
    assert!(
        snapshot.components() >= scenario.components,
        "snapshot object too small for the scenario"
    );
    let executor = Executor::with_config(ExecutorConfig {
        workers: driver.workers.max(1),
        chaos: scenario
            .chaos
            .as_ref()
            .filter(|_| driver.chaos_in_service)
            .map(|c| (c.seed ^ 0x5E44_1CE0, c.config.clone())),
    });
    // Resharder roles bypass the client API: resharding is operator-plane
    // reconfiguration of the backing object (the serve layer's own driver
    // does the same), so they keep a direct handle.
    let backing = Arc::clone(&snapshot);
    let service = SnapshotService::start(
        snapshot,
        ServiceConfig {
            ingest_capacity: driver.ingest_capacity,
            scan_capacity: driver.scan_capacity,
            coalescing: driver.coalescing,
            scan_slo: driver.scan_slo,
            ..ServiceConfig::default()
        },
        &executor,
    );

    let clock = LogicalClock::new();
    let barrier = Arc::new(std::sync::Barrier::new(scenario.processes()));
    let n = scenario.processes();
    let logs: Vec<Vec<OpRecord>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scenario
            .roles
            .iter()
            .cloned()
            .enumerate()
            .map(|(pid, role)| {
                let client = service.client();
                let backing = Arc::clone(&backing);
                let clock = clock.clone();
                let barrier = Arc::clone(&barrier);
                let chaos_cfg = scenario.chaos.clone();
                let freshness = driver.scanner_freshness;
                scope.spawn(move || {
                    let _chaos_guard =
                        chaos_cfg.map(|c| chaos::enable(c.seed.wrapping_add(pid as u64), c.config));
                    barrier.wait();
                    run_client_role(&client, &backing, pid, n, &role, &clock, freshness)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service client thread panicked"))
            .collect()
    });
    service.shutdown();
    History::from_logs(scenario.components, scenario.initial, logs)
}

#[allow(clippy::too_many_arguments)]
fn run_client_role<S>(
    client: &psnap_serve::ClientHandle<u64, S>,
    backing: &S,
    pid: usize,
    processes: usize,
    role: &Role,
    clock: &LogicalClock,
    freshness: Freshness,
) -> Vec<OpRecord>
where
    S: PartialSnapshot<u64> + 'static,
{
    let mut log = Vec::new();
    let pid_tag = psnap_shmem::ProcessId(pid);
    match role {
        Role::Updater { components, ops } => {
            for k in 0..*ops {
                let component = components[k % components.len()];
                let value = (k as u64 + 1) * processes as u64 + pid as u64 + 1;
                let invoked_at = clock.now();
                submit_retrying(client, component, value);
                let returned_at = clock.now();
                log.push(OpRecord {
                    pid: pid_tag,
                    op: Operation::Update { component, value },
                    result: OpResult::Ack,
                    invoked_at,
                    returned_at,
                });
            }
        }
        Role::BatchUpdater {
            components,
            ops,
            batch,
        } => {
            let width = (*batch).clamp(1, components.len());
            for k in 0..*ops {
                let value = (k as u64 + 1) * processes as u64 + pid as u64 + 1;
                let writes: Vec<(usize, u64)> = (0..width)
                    .map(|i| (components[(k * width + i) % components.len()], value))
                    .collect();
                let invoked_at = clock.now();
                loop {
                    match client.submit_batch(writes.clone()) {
                        Ok(ticket) => {
                            ticket.wait();
                            break;
                        }
                        Err(SubmitError::Busy) => std::thread::yield_now(),
                        Err(SubmitError::Closed) => {
                            panic!("service closed under a live batch updater")
                        }
                    }
                }
                let returned_at = clock.now();
                log.push(OpRecord {
                    pid: pid_tag,
                    op: Operation::BatchUpdate { writes },
                    result: OpResult::Ack,
                    invoked_at,
                    returned_at,
                });
            }
        }
        Role::Scanner { scans } => {
            for components in scans {
                let invoked_at = clock.now();
                let values = client
                    .scan_blocking(components, freshness)
                    .expect("service closed under a live scanner");
                let returned_at = clock.now();
                log.push(OpRecord {
                    pid: pid_tag,
                    op: Operation::Scan {
                        components: components.clone(),
                    },
                    result: OpResult::Values(values),
                    invoked_at,
                    returned_at,
                });
            }
        }
        Role::Resharder { ops } => {
            // Operator-plane reconfiguration against the backing object
            // while the clients keep the service busy; records nothing.
            for &op in ops {
                std::thread::yield_now();
                let _ = backing.reshard(op);
                std::thread::yield_now();
            }
        }
    }
    log
}

fn submit_retrying<S: PartialSnapshot<u64> + 'static>(
    client: &psnap_serve::ClientHandle<u64, S>,
    component: usize,
    value: u64,
) {
    loop {
        match client.submit(component, value) {
            Ok(ticket) => {
                ticket.wait();
                return;
            }
            Err(SubmitError::Busy) => std::thread::yield_now(),
            Err(SubmitError::Closed) => panic!("service closed under a live updater"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_core::CasPartialSnapshot;
    use psnap_lincheck::{check_history, check_monotone_history};

    #[test]
    fn service_histories_of_small_scenarios_are_linearizable() {
        for seed in 0..8 {
            let scenario = Scenario::random_small(seed);
            let snapshot = Arc::new(CasPartialSnapshot::new(scenario.components, 2, 0u64));
            let history =
                run_scenario_via_service(snapshot, &scenario, &ServiceDriverConfig::default());
            assert_eq!(history.len(), scenario.total_ops());
            history.validate_well_formed().unwrap();
            assert!(
                check_history(&history).is_linearizable(),
                "seed {seed}: coalesced service history not linearizable"
            );
        }
    }

    #[test]
    fn scan_slo_passthrough_fires_latency_dumps_under_chaos() {
        // A zero SLO makes every served scan a violation: the driver's
        // passthrough must reach the service, and each dump must carry the
        // offending request's span tree ending in a ScanRequest root.
        psnap_obs::set_trace_enabled(true);
        psnap_obs::set_span_enabled(true);
        psnap_obs::flight::reset();
        psnap_obs::flight::set_armed(true);
        let scenario = Scenario::random_small(0xF11);
        let snapshot = Arc::new(CasPartialSnapshot::new(scenario.components, 2, 0u64));
        let history = run_scenario_via_service(
            snapshot,
            &scenario,
            &ServiceDriverConfig {
                scan_slo: Some(std::time::Duration::ZERO),
                ..ServiceDriverConfig::default()
            },
        );
        psnap_obs::flight::set_armed(false);
        psnap_obs::set_span_enabled(false);
        psnap_obs::set_trace_enabled(false);
        assert!(check_history(&history).is_linearizable());
        let dumps = psnap_obs::flight::take_dumps();
        // random_small always has at least one scanner, so the zero SLO
        // must have tripped.
        assert!(!dumps.is_empty(), "zero SLO produced no latency dumps");
        assert!(dumps
            .iter()
            .all(|d| d.reason == psnap_obs::AnomalyKind::LatencySlo));
        assert!(dumps.iter().any(|d| {
            d.trees
                .iter()
                .any(|t| t.spans[0].kind == psnap_obs::SpanKind::ScanRequest)
        }));
    }

    #[test]
    fn service_stress_history_passes_monotone_checks() {
        let scenario = Scenario::stress(12, 3, 2, 60, 40, 4, 0xD1);
        let snapshot = Arc::new(CasPartialSnapshot::new(12, 2, 0u64));
        let history =
            run_scenario_via_service(snapshot, &scenario, &ServiceDriverConfig::default());
        assert_eq!(history.len(), scenario.total_ops());
        history.validate_well_formed().unwrap();
        assert_eq!(check_monotone_history(&history), Ok(()));
    }
}
