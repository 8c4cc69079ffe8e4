//! Runs scenarios through the full wire stack: a [`WireServer`] hosting the
//! service over a real socket, one [`RemoteClientHandle`] per role on its
//! own OS thread.
//!
//! This is the [`service_driver`](crate::service_driver) with the transport
//! inserted: every operation crosses frame encode → socket → frame decode →
//! the connection's share of the ingest queue → service → reply frame → ticket, and the
//! recorded [`History`] spans the *remote-client-observed* interval. Feeding
//! these histories to the same WGL and monotone checkers proves the wire
//! layer preserves linearizability — the transport adds latency but must not
//! reorder a client's operations or invent/lose acknowledgements.
//!
//! Wire-level backpressure (`busy` replies) is retried just as the
//! in-process driver retries [`SubmitError::Busy`](psnap_serve::SubmitError::Busy), so histories stay
//! comparable across the two drivers.

use std::sync::Arc;
use std::time::Duration;

use psnap_core::PartialSnapshot;
use psnap_serve::Freshness;
use psnap_wire::{RemoteClientHandle, WireError, WireServer, WireServerConfig};

use crate::lincheck::History;
use crate::runner::{retry_busy, run_roles, Frontend};
use crate::scenario::Scenario;
use crate::service_driver::{start_service, ServiceDriverConfig};

/// Which socket family carries the scenario's traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireTransport {
    /// Loopback TCP on an ephemeral port.
    Tcp,
    /// A unix-domain socket in the system temp directory.
    Unix,
}

/// A role's remote client: each operation waits for its reply, `busy`
/// replies are retried, and the connection closes gracefully when the role
/// drops it.
struct Remote {
    client: Option<RemoteClientHandle>,
}

impl Remote {
    fn retry<T>(&self, op: impl Fn(&RemoteClientHandle) -> Result<T, WireError>) -> T {
        let client = self.client.as_ref().expect("open until dropped");
        retry_busy(WireError::Busy, || op(client))
    }
}

impl Frontend for Remote {
    fn update(&self, component: usize, value: u64) {
        self.retry(|c| c.submit_blocking(component, value))
    }
    fn update_many(&self, writes: &[(usize, u64)]) {
        self.retry(|c| c.submit_batch(writes.to_vec())?.wait())
    }
    fn scan(&self, components: &[usize]) -> Vec<u64> {
        self.retry(|c| c.scan_blocking(components.to_vec(), Freshness::Fresh))
    }
}

impl Drop for Remote {
    fn drop(&mut self) {
        // A failed role unwinds without waiting on the server.
        if let Some(client) = self.client.take().filter(|_| !std::thread::panicking()) {
            client.close();
        }
    }
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
    let (executor, service) = start_service(&snapshot, scenario, driver, 0x313E_D21E);
    let service = Arc::new(service);

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
    let history = run_roles(scenario, false, |_| {
        let client = match transport {
            WireTransport::Tcp => RemoteClientHandle::connect_tcp(
                server.local_addr().expect("tcp server has an address"),
            ),
            WireTransport::Unix => RemoteClientHandle::connect_unix(&unix_path),
        }
        .expect("wire client failed to connect");
        Remote {
            client: Some(client),
        }
    });
    server.shutdown(Duration::from_secs(10));
    service.shutdown();
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::lincheck::check_history;
    use psnap_core::CasPartialSnapshot;
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
    /// the executor's chaos must perturb it in both places.
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
