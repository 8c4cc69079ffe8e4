//! `psnap-serve`: an async service frontend for partial snapshot objects.
//!
//! The store's callers so far all own a thread and call
//! [`psnap_core::PartialSnapshot`] in-process. This crate adds the layer a
//! "millions of users" deployment needs between the network and the object:
//!
//! * a **hand-rolled async runtime** ([`executor`]) — a small `Future`
//!   executor with sharded run queues, `std::task::Wake`-based wakers and a
//!   timer wheel, because the workspace vendors every dependency and tokio
//!   is out of reach;
//! * **batched ingestion** ([`service`]) — per-client bounded MPSC queues
//!   whose drainer coalesces submissions (last-write-wins per component,
//!   client batches kept atomic) into single
//!   [`update_many`](psnap_core::PartialSnapshot::update_many) calls, the
//!   PR-3 batch path;
//! * **scan coalescing** — concurrent partial-scan requests are merged
//!   into one deduplicated [`psnap_shard::ScanUnion`] and one backing scan
//!   whose results fan back out per request, the Kallimanis & Kanellou
//!   operation-combining idea applied at the request level, with per-request
//!   freshness bounds. The union is a flat O(requested) pass and its cut is
//!   moved, not copied, into the freshness cache: the one task every service
//!   scan passes through pays for slots, not for trees;
//! * **backpressure** — full queues reject immediately with
//!   [`SubmitError::Busy`]; accepted work always completes and the stats
//!   counters partition exactly.
//!
//! # Quick start
//!
//! ```
//! use psnap_core::CasPartialSnapshot;
//! use psnap_serve::{Executor, Freshness, ServiceConfig, SnapshotService};
//!
//! let executor = Executor::new(2);
//! let snapshot = CasPartialSnapshot::new(64, 2, 0u64);
//! let service = SnapshotService::start(snapshot, ServiceConfig::default(), &executor);
//!
//! let client = service.client();
//! client.submit(3, 42).unwrap().wait();
//! let values = client
//!     .scan(vec![3, 10], Freshness::Fresh)
//!     .unwrap()
//!     .wait();
//! assert_eq!(values, vec![42, 0]);
//!
//! service.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod queue;
pub mod service;
pub mod testing;

pub use executor::{
    block_on, block_on_timeout, Executor, ExecutorConfig, Handle, Helper, Sleep, WaitCounters,
    WaitSite,
};
pub use queue::{BoundedQueue, Notify, OpCell, SubmitError, Ticket};
pub use service::{
    ClientHandle, Coalescing, Freshness, PeriodicTask, ScanTicket, ServiceConfig, ServiceObs,
    ServiceStats, SnapshotService, UpdateTicket,
};
