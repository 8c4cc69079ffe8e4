//! What the repo benchmark cannot say, and how to compare two builds of it.
//!
//! Speed is measured by one instrument, `benchmark/` (its per-layer ladder
//! covers the cells, the objects, the sharded store, the service and the
//! wire), and the paper's claims — stated in base-object steps — are
//! assertions in `tests/paper_claims.rs` and `tests/wait_freedom.rs`. This
//! crate keeps the rest:
//!
//! * [`experiments`] — E15 (reshard storm under live traffic) and E17
//!   (connection sweep + kill storm over the wire), which no benchmark
//!   workload covers, reported through one row model;
//! * [`pair`] — alternating runs of two prebuilt `psnap-benchmark` binaries;
//! * [`implementations`] — [`ImplKind`], the one list of snapshot
//!   implementations the workspace's cross-implementation tests iterate.
//!
//! ```text
//! cargo run -p psnap-bench --release --bin harness -- --json all
//! cargo run -p psnap-bench --release --bin harness -- pair <bin-a> <bin-b> --workload wire-rtt --pairs 10
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod implementations;
pub mod pair;
pub mod stats;

pub use experiments::{run_experiment, Effort, Report, Row, Table, Value, EXPERIMENTS};
pub use implementations::ImplKind;
pub use stats::Summary;
