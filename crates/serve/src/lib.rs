//! `psnap-serve`: a service frontend for partial snapshot objects.
//!
//! The store's callers so far all own a thread and call
//! [`psnap_core::PartialSnapshot`] in-process. This crate adds the layer a
//! "millions of users" deployment needs between the network and the object:
//!
//! * a **timer** ([`executor`]) for periodic work — worker threads over
//!   one deadline heap of jobs, each returning when it runs next;
//! * **batched ingestion** ([`service`]) — one ingest queue, in which each
//!   client may hold a bounded number of submissions, coalesced (last-write-wins per component,
//!   client batches kept atomic) into single
//!   [`update_many`](psnap_core::PartialSnapshot::update_many) calls;
//! * **scan coalescing** — concurrent partial-scan requests are merged
//!   into one deduplicated [`psnap_shard::ScanUnion`] and one backing scan
//!   whose results fan back out per request. The union is a flat
//!   O(requested) pass, and every answer is linearizable;
//! * **combining** — both pipelines run on the threads that wait for them:
//!   a waiting [`Ticket`] (or one tried with [`Ticket::try_take`]) runs its
//!   pipeline's round when nobody else holds that pipeline's role (flat
//!   combining, with each pipeline's one queue as its publication list);
//! * **backpressure** — a client at its ingest bound, or a full scan
//!   queue, is refused immediately with [`SubmitError::Busy`]; accepted work always completes and the stats
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
mod wait;

pub use executor::{Executor, ExecutorConfig, Handle};
pub use queue::{BoundedQueue, OpCell, SubmitError, Ticket};
pub use service::{
    ClientHandle, Coalescing, Freshness, PeriodicTask, ScanTicket, ServiceConfig, ServiceObs,
    ServiceStats, SnapshotService, UpdateTicket,
};
pub use wait::{WaitCounters, WaitSite};
