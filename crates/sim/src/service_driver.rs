//! Runs scenarios through the `psnap-serve` frontend instead of calling the
//! snapshot object directly.
//!
//! Every [`Role`](crate::Role) of the scenario becomes a *service client* on
//! its own OS thread: updaters submit through
//! [`psnap_serve::ClientHandle::submit`], batch updaters through
//! `submit_batch`, scanners through `scan` — each operation awaited to completion before the next, so the per-process histories stay
//! sequential. The recorded [`History`] spans the *client-observed* interval
//! of each operation (enqueue to ticket resolution), which is exactly what
//! linearizability is about for a service: the coalesced `update_many` an
//! ingest round issues and the shared backing scan a scan round issues must
//! both land inside every participating client's interval. Feeding these
//! histories to the WGL and monotone checkers is therefore the conformance
//! proof — a coalesced scan answer must still be a legal linearizable
//! partial scan.
//!
//! Chaos wiring: the scenario's chaos configuration is applied to the client
//! threads — which combine, so the queue seams (ingest combiner parked
//! mid-coalesce, scan combiner parked mid-union) are exercised by the same
//! adversarial schedules as the in-process runners — and to the executor.

use std::sync::Arc;
use std::time::Duration;

use psnap_core::PartialSnapshot;
use psnap_serve::SubmitError::Busy;
use psnap_serve::{
    ClientHandle, Coalescing, Executor, ExecutorConfig, Freshness, ServiceConfig, SnapshotService,
};

use crate::lincheck::History;
use crate::runner::{check_fits, retry_busy, run_roles, Frontend};
use crate::scenario::Scenario;

/// Executor worker threads of a driven service.
const WORKERS: usize = 2;
/// Submissions each client may have queued for ingestion at once.
const INGEST_CAPACITY: usize = 16;
/// Capacity of the scan-request queue.
const SCAN_CAPACITY: usize = 64;

/// How the service is set up for a scenario run.
#[derive(Clone, Debug)]
pub struct ServiceDriverConfig {
    /// Scan-merging policy of the service under test.
    pub coalescing: Coalescing,
    /// Scan-latency SLO forwarded to [`ServiceConfig::scan_slo`]: a scan
    /// answered later than this fires the service's latency anomaly
    /// trigger when the flight recorder is armed. `None` (the default)
    /// disables the trigger.
    pub scan_slo: Option<Duration>,
}

impl Default for ServiceDriverConfig {
    fn default() -> Self {
        ServiceDriverConfig {
            coalescing: Coalescing::Window(Duration::ZERO),
            scan_slo: None,
        }
    }
}

/// Checks that `scenario` fits `snapshot` and starts the service a driver
/// runs it through. The scenario's chaos also perturbs the executor, seeded
/// with `chaos_salt` mixed in: its workers and every thread that enters it,
/// such as a wire server's connection and reply-pump threads, which run the
/// service pipelines for their connections.
pub(crate) fn start_service<S>(
    snapshot: &Arc<S>,
    scenario: &Scenario,
    driver: &ServiceDriverConfig,
    chaos_salt: u64,
) -> (Executor, SnapshotService<u64, Arc<S>>)
where
    S: PartialSnapshot<u64> + 'static,
{
    check_fits(&**snapshot, scenario);
    let executor = Executor::with_config(ExecutorConfig {
        workers: WORKERS,
        chaos: scenario
            .chaos
            .as_ref()
            .map(|c| (c.seed ^ chaos_salt, c.config.clone())),
    });
    let service = SnapshotService::start(
        Arc::clone(snapshot),
        ServiceConfig {
            ingest_capacity: INGEST_CAPACITY,
            scan_capacity: SCAN_CAPACITY,
            coalescing: driver.coalescing,
            scan_slo: driver.scan_slo,
            ..ServiceConfig::default()
        },
        &executor,
    );
    (executor, service)
}

/// A role's service client: each operation waits for its ticket, `Busy`
/// rejections are retried.
struct Client<S: PartialSnapshot<u64>> {
    handle: ClientHandle<u64, S>,
}

impl<S: PartialSnapshot<u64> + 'static> Frontend for Client<S> {
    fn update(&self, component: usize, value: u64) {
        retry_busy(Busy, || self.handle.submit(component, value)).wait()
    }
    fn update_many(&self, writes: &[(usize, u64)]) {
        retry_busy(Busy, || self.handle.submit_batch(writes.to_vec())).wait()
    }
    fn scan(&self, components: &[usize]) -> Vec<u64> {
        retry_busy(Busy, || {
            self.handle.scan(components.to_vec(), Freshness::Fresh)
        })
        .wait()
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
    let (_executor, service) = start_service(&snapshot, scenario, driver, 0x5E44_1CE0);
    let history = run_roles(scenario, false, |_| Client {
        handle: service.client(),
    });
    service.shutdown();
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lincheck::{check_history, check_monotone_history};
    use psnap_core::CasPartialSnapshot;

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
        psnap_obs::set_span_enabled(true);
        psnap_obs::flight::reset();
        psnap_obs::flight::set_armed(true);
        let scenario = Scenario::random_small(0xF11);
        let snapshot = Arc::new(CasPartialSnapshot::new(scenario.components, 2, 0u64));
        let history = run_scenario_via_service(
            snapshot,
            &scenario,
            &ServiceDriverConfig {
                scan_slo: Some(Duration::ZERO),
                ..ServiceDriverConfig::default()
            },
        );
        psnap_obs::flight::set_armed(false);
        psnap_obs::set_span_enabled(false);
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
