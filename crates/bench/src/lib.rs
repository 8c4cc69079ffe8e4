//! Benchmarks and the experiment harness for the partial snapshot
//! reproduction.
//!
//! The paper's quantitative claims (Theorems 1–3) are stated in the
//! base-object step model, so the primary measurement tool here is the step
//! counter of `psnap-shmem`, driven by the [`runner`] over the scanner/updater
//! mixes defined in `psnap-workloads`. The [`experiments`] module regenerates
//! every table of EXPERIMENTS.md (E1–E17); the Criterion benches under
//! `benches/` provide wall-clock companions to the same sweeps.
//!
//! Regenerate a table with, for example:
//!
//! ```text
//! cargo run -p psnap-bench --release --bin harness -- e1
//! cargo run -p psnap-bench --release --bin harness -- all
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod implementations;
pub mod pair;
pub mod runner;
pub mod stats;

pub use experiments::{
    e10_batched_updates_data, e11_service_data, e12_multiversion_data, e13_obs_overhead_data,
    e14_fastpath_data, e15_reshard_data, e16_span_tracing_data, e17_wire_data, e8_sharding_data,
    e9_cell_contention_data, run_experiment, E10Data, E10Point, E11Data, E11Point, E12Data,
    E12Point, E14Data, E14Point, E15Data, E15Point, E16Data, E16Point, E16Stage, E17Chaos, E17Data,
    E17Point, E8Data, E8Point, E9Data, E9Point, Effort, Table, ALL_EXPERIMENTS,
};
pub use implementations::ImplKind;
pub use runner::{run_point, PointConfig, PointResult};
pub use stats::Summary;
