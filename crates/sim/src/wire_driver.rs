//! Runs scenarios through the full wire stack: a [`WireServer`] hosting the
//! service over a real socket, one [`RemoteClientHandle`] per role on its
//! own OS thread.
//!
//! This is the [`service_driver`](crate::service_driver) with the transport
//! inserted: every operation crosses frame encode → socket → frame decode →
//! per-connection ingestion queue → service → reply frame → ticket, and the
//! recorded [`History`] spans the *remote-client-observed* interval. Feeding
//! these histories to the same WGL and monotone checkers proves the wire
//! layer preserves linearizability — the transport adds latency but must not
//! reorder a client's operations or invent/lose acknowledgements.
//!
//! Wire-level backpressure (`busy` replies) is retried just as the
//! in-process driver retries [`SubmitError::Busy`](psnap_serve::SubmitError::Busy), so histories stay
//! comparable across the two drivers.

use std::sync::Arc;

use psnap_core::PartialSnapshot;
use psnap_lincheck::{History, LogicalClock, OpRecord, OpResult, Operation};
use psnap_serve::{Executor, ExecutorConfig, Freshness, ServiceConfig, SnapshotService};
use psnap_wire::{RemoteClientHandle, WireError, WireServer, WireServerConfig};

use crate::scenario::{Role, Scenario};
use crate::service_driver::ServiceDriverConfig;

/// Which socket family carries the scenario's traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireTransport {
    /// Loopback TCP on an ephemeral port.
    Tcp,
    /// A unix-domain socket in the system temp directory.
    Unix,
}

/// Runs `scenario` against `snapshot` through a wire server on a real
/// socket, one remote client per role, and returns the history of
/// remote-client-observed operations.
///
/// The same preconditions as
/// [`run_scenario_via_service`](crate::run_scenario_via_service) apply.
/// Client-side threads keep the scenario's chaos configuration; the wire
/// hop itself adds genuine scheduling noise on top.
pub fn run_scenario_via_wire<S>(
    snapshot: Arc<S>,
    scenario: &Scenario,
    driver: &ServiceDriverConfig,
    transport: WireTransport,
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
            .map(|c| (c.seed ^ 0x313E_D21E, c.config.clone())),
    });
    let backing = Arc::clone(&snapshot);
    let service = Arc::new(SnapshotService::start(
        snapshot,
        ServiceConfig {
            ingest_capacity: driver.ingest_capacity,
            scan_capacity: driver.scan_capacity,
            coalescing: driver.coalescing,
            scan_slo: driver.scan_slo,
            ..ServiceConfig::default()
        },
        &executor,
    ));

    let unix_path = std::env::temp_dir().join(format!(
        "psnap-sim-wire-{}-{:x}.sock",
        std::process::id(),
        scenario.total_ops() as u64 ^ (scenario.components as u64) << 32
    ));
    let server = match transport {
        WireTransport::Tcp => WireServer::serve_tcp(
            Arc::clone(&service),
            "127.0.0.1:0",
            WireServerConfig::default(),
            &executor,
        ),
        WireTransport::Unix => WireServer::serve_unix(
            Arc::clone(&service),
            &unix_path,
            WireServerConfig::default(),
            &executor,
        ),
    }
    .expect("wire server failed to bind");
    let connect = || -> RemoteClientHandle {
        match transport {
            WireTransport::Tcp => RemoteClientHandle::connect_tcp(
                server.local_addr().expect("tcp server has an address"),
            ),
            WireTransport::Unix => RemoteClientHandle::connect_unix(&unix_path),
        }
        .expect("wire client failed to connect")
    };

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
                let client = connect();
                let backing = Arc::clone(&backing);
                let clock = clock.clone();
                let barrier = Arc::clone(&barrier);
                let chaos_cfg = scenario.chaos.clone();
                let freshness = driver.scanner_freshness;
                scope.spawn(move || {
                    let _chaos_guard = chaos_cfg.map(|c| {
                        psnap_shmem::chaos::enable(c.seed.wrapping_add(pid as u64), c.config)
                    });
                    barrier.wait();
                    let log = run_remote_role(&client, &*backing, pid, n, &role, &clock, freshness);
                    client.close();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wire client thread panicked"))
            .collect()
    });
    server.shutdown(std::time::Duration::from_secs(10));
    service.shutdown();
    History::from_logs(scenario.components, scenario.initial, logs)
}

fn run_remote_role<S>(
    client: &RemoteClientHandle,
    backing: &S,
    pid: usize,
    processes: usize,
    role: &Role,
    clock: &LogicalClock,
    freshness: Freshness,
) -> Vec<OpRecord>
where
    S: PartialSnapshot<u64>,
{
    let mut log = Vec::new();
    let pid_tag = psnap_shmem::ProcessId(pid);
    match role {
        Role::Updater { components, ops } => {
            for k in 0..*ops {
                let component = components[k % components.len()];
                let value = (k as u64 + 1) * processes as u64 + pid as u64 + 1;
                let invoked_at = clock.now();
                retry_busy(|| client.submit_blocking(component, value));
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
                retry_busy(|| client.submit_batch(writes.clone())?.wait());
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
                let values = retry_busy(|| client.scan_blocking(components.clone(), freshness));
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
            // Operator-plane reconfiguration stays a direct handle on the
            // backing object, as in the in-process driver.
            for &op in ops {
                std::thread::yield_now();
                let _ = backing.reshard(op);
                std::thread::yield_now();
            }
        }
    }
    log
}

/// Retries wire-level backpressure; anything else is fatal for the run (a
/// scenario client must never lose an operation silently).
fn retry_busy<T>(mut op: impl FnMut() -> Result<T, WireError>) -> T {
    loop {
        match op() {
            Ok(value) => return value,
            Err(WireError::Busy) => std::thread::yield_now(),
            Err(other) => panic!("wire operation failed under a live scenario: {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use psnap_core::CasPartialSnapshot;
    use psnap_lincheck::check_history;
    use psnap_shmem::{chaos, ProcessId};

    /// Counts the service's calls into the object by whether the calling
    /// thread was under the chaos layer.
    struct ChaosProbe {
        inner: CasPartialSnapshot<u64>,
        perturbed: AtomicU64,
        calm: AtomicU64,
    }

    impl ChaosProbe {
        fn note(&self) {
            let counter = if chaos::is_enabled() {
                &self.perturbed
            } else {
                &self.calm
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl PartialSnapshot<u64> for ChaosProbe {
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

    /// Over the wire the pipeline runs wherever a thread is about to block
    /// on it — an executor worker or the server's connection thread — and
    /// `chaos_in_service` must perturb it in both places.
    #[test]
    fn chaos_in_service_perturbs_the_pipeline_wherever_the_wire_runs_it() {
        for seed in 0..4 {
            let scenario = Scenario::random_small(seed ^ 0xC4A05);
            assert!(scenario.chaos.is_some());
            let probe = Arc::new(ChaosProbe {
                inner: CasPartialSnapshot::new(scenario.components, 2, 0u64),
                perturbed: AtomicU64::new(0),
                calm: AtomicU64::new(0),
            });
            let history = run_scenario_via_wire(
                Arc::clone(&probe),
                &scenario,
                &ServiceDriverConfig::default(),
                WireTransport::Unix,
            );
            assert!(check_history(&history).is_linearizable());
            assert!(probe.perturbed.load(Ordering::Relaxed) > 0);
            assert_eq!(
                probe.calm.load(Ordering::Relaxed),
                0,
                "seed {seed}: a pipeline task touched the object outside the chaos layer"
            );
        }
    }
}
