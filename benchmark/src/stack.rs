//! The production configuration, built from outside through public items
//! only, and one client type over its two request/reply boundaries.
//!
//! `MvShardedSnapshot` ×4 over m = 256 `u64` components → `SnapshotService`
//! (`Coalescing::Window(0)`, `Executor::new(2)`) → `WireServer` on a
//! unix-domain socket (or loopback TCP, for the ladder's last rung).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use psnap_core::PartialSnapshot;
use psnap_serve::{
    ClientHandle, Coalescing, Executor, Freshness, ScanTicket, ServiceConfig, SnapshotService,
    SubmitError, UpdateTicket,
};
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_shmem::ProcessId;
use psnap_wire::{
    RemoteClientHandle, RemoteScanTicket, RemoteSubmitTicket, WireError, WireServer,
    WireServerConfig,
};

use crate::gen::{encode_value, Inputs, M};

pub const SHARDS: usize = 4;
pub const EXECUTOR_WORKERS: usize = 2;
/// The object's process ids: the service's drainer (or `object-rw`'s
/// updater) is 0, its scan server (or `object-rw`'s scanner) is 1.
pub const UPDATE_PID: ProcessId = ProcessId(0);
pub const SCAN_PID: ProcessId = ProcessId(1);

pub type Object = Arc<MvShardedSnapshot<u64>>;
pub type Service = Arc<SnapshotService<u64, Object>>;

/// Builds the object and writes every component once, as its owner, so the
/// run starts from version chains that exist. Returns the per-writer
/// sequence numbers reached and the values written.
pub fn build_object(inputs: &Inputs) -> (Object, Vec<u64>, Vec<u64>) {
    let object = Arc::new(MvShardedSnapshot::new(
        M,
        2,
        0u64,
        ShardConfig::multiversioned(SHARDS),
    ));
    let mut seq = vec![0u64; inputs.streams.len()];
    let mut values = vec![0u64; M];
    for (c, value) in values.iter_mut().enumerate() {
        let writer = inputs.owner[c] as usize;
        seq[writer] += 1;
        *value = encode_value(writer, seq[writer]);
        object.update(UPDATE_PID, c, *value);
    }
    (object, seq, values)
}

/// Which boundary the clients are on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// No service: callers use [`Stack::object`] directly.
    Object,
    /// In-process `ClientHandle`s.
    InProc,
    /// `RemoteClientHandle`s over a unix-domain socket.
    Unix,
    /// `RemoteClientHandle`s over loopback TCP.
    Tcp,
}

pub struct Stack {
    pub object: Object,
    pub service: Option<Service>,
    server: Option<WireServer<Object>>,
    pub clients: Vec<Client>,
    // Taken last in `drop`: the service and the server must shut down while
    // their executor is alive.
    executor: Option<Executor>,
}

impl Stack {
    /// `socket_dir` is where a unix-domain socket is bound.
    pub fn build(
        object: Object,
        boundary: Boundary,
        clients: usize,
        corked: bool,
        socket_dir: &Path,
    ) -> Result<Stack, String> {
        let mut stack = Stack {
            object: Arc::clone(&object),
            service: None,
            server: None,
            clients: Vec::new(),
            executor: None,
        };
        if boundary == Boundary::Object {
            return Ok(stack);
        }
        let executor = Executor::new(EXECUTOR_WORKERS);
        let service: Service = Arc::new(SnapshotService::start(
            object,
            ServiceConfig {
                coalescing: Coalescing::Window(Duration::ZERO),
                drain_pid: UPDATE_PID,
                scan_pid: SCAN_PID,
                ..ServiceConfig::default()
            },
            &executor,
        ));
        stack.service = Some(Arc::clone(&service));
        match boundary {
            Boundary::Object => unreachable!("returned above"),
            Boundary::InProc => {
                stack.clients = (0..clients)
                    .map(|_| Client::InProc(service.client()))
                    .collect();
            }
            Boundary::Unix => {
                let path = &socket_path(socket_dir);
                let server =
                    WireServer::serve_unix(service, path, WireServerConfig::default(), &executor)
                        .map_err(|e| format!("bind {}: {e}", path.display()))?;
                stack.server = Some(server);
                for _ in 0..clients {
                    let client = RemoteClientHandle::connect_unix(path)
                        .map_err(|e| format!("connect {}: {e}", path.display()))?;
                    stack.clients.push(Client::wire(client, corked)?);
                }
            }
            Boundary::Tcp => {
                let server = WireServer::serve_tcp(
                    service,
                    "127.0.0.1:0",
                    WireServerConfig::default(),
                    &executor,
                )
                .map_err(|e| format!("bind tcp: {e}"))?;
                let addr = server.local_addr().ok_or("tcp server has no address")?;
                stack.server = Some(server);
                for _ in 0..clients {
                    let client = RemoteClientHandle::connect_tcp(addr)
                        .map_err(|e| format!("connect {addr}: {e}"))?;
                    stack.clients.push(Client::wire(client, corked)?);
                }
            }
        }
        stack.executor = Some(executor);
        Ok(stack)
    }
}

impl Drop for Stack {
    /// Closes connections, drains the server and the service, then stops
    /// the executor's threads.
    fn drop(&mut self) {
        for client in self.clients.drain(..) {
            if let Client::Wire { handle, .. } = client {
                handle.close();
            }
        }
        if let Some(server) = self.server.take() {
            server.shutdown(Duration::from_secs(5));
        }
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        self.executor.take();
    }
}

/// A socket path inside `dir`, unique in this process.
fn socket_path(dir: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{}-{n}.sock", std::process::id()))
}

/// One closed-loop caller on a request/reply boundary.
pub enum Client {
    InProc(ClientHandle<u64, Object>),
    Wire {
        handle: RemoteClientHandle,
        corked: bool,
    },
}

/// An op that was issued and not yet waited for.
pub enum Pending {
    InProcScan(ScanTicket<u64>),
    InProcSubmit(UpdateTicket),
    WireScan(RemoteScanTicket),
    WireSubmit(RemoteSubmitTicket),
}

/// How an op ended.
#[derive(Debug, PartialEq)]
pub enum Done {
    Values(Vec<u64>),
    Applied,
    /// Refused by a full queue; nothing was enqueued.
    Busy,
    Fatal(String),
}

impl Client {
    fn wire(handle: RemoteClientHandle, corked: bool) -> Result<Client, String> {
        handle
            .set_corked(corked)
            .map_err(|e| format!("cork: {e}"))?;
        Ok(Client::Wire { handle, corked })
    }

    /// Issues a scan. `Err(Done::Busy)` is an issue-time refusal.
    pub fn scan(&self, components: &[usize]) -> Result<Pending, Done> {
        match self {
            Client::InProc(c) => c
                .scan(components.to_vec(), Freshness::Fresh)
                .map(Pending::InProcScan)
                .map_err(submit_error),
            Client::Wire { handle, .. } => handle
                .scan(components.to_vec(), Freshness::Fresh)
                .map(Pending::WireScan)
                .map_err(wire_error),
        }
    }

    /// Issues a single-component update.
    pub fn submit(&self, component: usize, value: u64) -> Result<Pending, Done> {
        match self {
            Client::InProc(c) => c
                .submit(component, value)
                .map(Pending::InProcSubmit)
                .map_err(submit_error),
            Client::Wire { handle, .. } => handle
                .submit(component, value)
                .map(Pending::WireSubmit)
                .map_err(wire_error),
        }
    }

    pub fn flush(&self) -> Result<(), String> {
        match self {
            Client::Wire {
                handle,
                corked: true,
            } => handle.flush().map_err(|e| e.to_string()),
            _ => Ok(()),
        }
    }
}

impl Pending {
    pub fn wait(self) -> Done {
        match self {
            Pending::InProcScan(t) => Done::Values(t.wait()),
            Pending::InProcSubmit(t) => {
                t.wait();
                Done::Applied
            }
            Pending::WireScan(t) => t.wait().map_or_else(wire_error, Done::Values),
            Pending::WireSubmit(t) => t.wait().map_or_else(wire_error, |()| Done::Applied),
        }
    }
}

fn submit_error(e: SubmitError) -> Done {
    match e {
        SubmitError::Busy => Done::Busy,
        SubmitError::Closed => Done::Fatal("service closed".to_string()),
    }
}

fn wire_error(e: WireError) -> Done {
    match e {
        WireError::Busy => Done::Busy,
        other => Done::Fatal(other.to_string()),
    }
}
