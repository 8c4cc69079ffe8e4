//! # psnap-wire — serving partial snapshots over sockets
//!
//! A std-only transport that hosts a [`SnapshotService`] over TCP or
//! unix-domain sockets, making the in-process serving stack reachable from
//! other processes with the same semantics:
//!
//! * **Framing** ([`frame`]): 4-byte big-endian length prefix + UTF-8 JSON
//!   payload. Oversized lengths are rejected before allocation; truncation
//!   is an error, never a panic.
//! * **Protocol** ([`proto`]): versioned `hello`/`welcome` handshake, then
//!   id-multiplexed submit/scan/stats requests. Values ride as
//!   precision-safe JSON (decimal strings above 2⁵³). Backpressure is
//!   explicit: a connection at its ingest bound answers `{"ok":false,"error":"busy"}`
//!   — a frame, not a dropped request.
//! * **Server** ([`server`]): an acceptor thread blocked in `accept`;
//!   one `ClientHandle` per connection, reusing the in-process
//!   ticket/backpressure machinery; idle timeouts (jobs on the executor's
//!   deadline heap), half-close draining, and graceful shutdown (in-flight tickets resolve and flush before the
//!   listener closes). Each request roots a flight-recorder span at frame
//!   decode, so wire requests appear in span trees end to end.
//! * **Client** ([`client`]): [`RemoteClientHandle`] mirrors the in-process
//!   `ClientHandle` API; tickets resolve out of order, and a dead
//!   connection fails every outstanding ticket rather than hanging. A
//!   request is encoded straight into the connection's outbound buffer,
//!   and its reply waits in the pending table until its ticket takes it;
//!   a ticket dropped unwaited has its reply discarded on arrival.
//!
//! # Threads: two wake-ups per round trip
//!
//! A request/reply round trip costs what its hand-offs between sleeping
//! threads cost, so there are two of them — request → server thread, reply
//! → calling thread — and one rule at both ends: **a thread that is about
//! to block first does the work it would otherwise wait for.**
//!
//! * *Who reads.* Server side, one **connection thread** per connection
//!   reads and decodes. Client side, nobody until somebody waits: the
//!   caller inside `wait()` takes the connection's read half and reads
//!   frames — completing other callers' tickets on the way — until its own
//!   reply is in, then hands the half back, waking the callers asleep for
//!   it if there are any. There is no client reader thread.
//! * *Who runs the request.* Whoever waits on its ticket: a service ticket
//!   runs its pipeline's round on the waiting thread when the role is free.
//!   While the hosted object is **wait-free**
//!   ([`PartialSnapshot::is_wait_free`](psnap_core::PartialSnapshot::is_wait_free),
//!   read per request) that is the connection thread itself: before it
//!   blocks in a socket read with requests in flight it tries their
//!   tickets (`Ticket::try_take`). Wait-freedom gates it because only then is every round
//!   bounded by the combiner's own steps; a thread that must get back to
//!   its socket cannot afford to park behind a lock holder or a gated scan.
//!   On any other object the connection thread only dispatches, and the
//!   reply pump, which waits on the tickets, combines.
//! * *Who writes.* The connection thread, with one non-blocking send of the
//!   replies it just completed — **it never waits in a write**, or a client
//!   flushing a batch larger than both socket buffers would deadlock
//!   against it. Bytes the socket does not take, replies still pending
//!   when the thread goes back to reading, and every ticket-backed reply of
//!   a non-wait-free object go to the connection's **reply pump**, a writer
//!   thread that is started the first time it is handed something.
//!
//! ```no_run
//! use std::sync::Arc;
//! use psnap_serve::{Executor, Freshness, ServiceConfig, SnapshotService};
//! use psnap_wire::{RemoteClientHandle, WireServer, WireServerConfig};
//!
//! let executor = Executor::new(2);
//! let snapshot = psnap_core::CasPartialSnapshot::new(16, 4, 0u64);
//! let service = Arc::new(SnapshotService::start(
//!     snapshot, ServiceConfig::default(), &executor,
//! ));
//! let server = WireServer::serve_tcp(
//!     Arc::clone(&service), "127.0.0.1:0", WireServerConfig::default(), &executor,
//! ).unwrap();
//! let addr = server.local_addr().unwrap();
//!
//! let client = RemoteClientHandle::connect_tcp(addr).unwrap();
//! client.submit_blocking(3, 42).unwrap();
//! assert_eq!(client.scan_blocking(vec![3], Freshness::Fresh).unwrap(), vec![42]);
//! ```
//!
//! [`SnapshotService`]: psnap_serve::SnapshotService

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;
pub(crate) mod stream;

pub use client::{RemoteClientHandle, RemoteScanTicket, RemoteSubmitTicket, WireError};
pub use frame::{
    encode_frame, encode_frame_with, read_frame, read_frame_str, write_frame, FrameError,
    MAX_FRAME_LEN,
};
pub use proto::{Reply, ReplyBody, Request, RequestBody, WireErrorKind, PROTOCOL_VERSION};
pub use server::{WireServer, WireServerConfig};
