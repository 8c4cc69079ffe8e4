//! Concurrency scenarios and linearizability checking for the partial
//! snapshot reproduction.
//!
//! This crate turns the abstract adversary of the paper's model into
//! something executable and checks what it produces: declarative
//! [`scenario::Scenario`]s describe who updates and who scans what, the
//! [`runner`] executes them on real threads (optionally with seeded schedule
//! perturbation from `psnap-shmem`'s chaos layer) and records a
//! [`history::History`], and the checkers judge it — exhaustive Wing–Gong
//! ([`wgl`]) for small schedules, scalable monotone checks ([`monotone`]) for
//! stress schedules, both gathered in [`lincheck`]. One role loop drives
//! three frontends: any [`psnap_core::PartialSnapshot`] directly
//! ([`run_scenario`]), the `psnap-serve` frontend ([`service_driver`]),
//! whose client-observed histories put the service layer's coalesced results
//! before the same checkers, and a socket-backed `psnap-wire` server
//! ([`wire_driver`]), which puts the transport before them too. The
//! [`chaos_runner`] sweeps many seeds and checks every history.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos_runner;
pub mod history;
pub mod lincheck;
pub mod monotone;
pub mod runner;
pub mod scenario;
pub mod service_driver;
pub mod spec;
pub mod wgl;
pub mod wire_driver;

pub use chaos_runner::{fuzz_small_schedules, fuzz_stress_schedules, FuzzOutcome};
pub use runner::run_scenario;
pub use scenario::{Role, Scenario, ScenarioChaos};
pub use service_driver::{run_scenario_via_service, ServiceDriverConfig};
pub use wire_driver::{run_scenario_via_wire, WireTransport};
