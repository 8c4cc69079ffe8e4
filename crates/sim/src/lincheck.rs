//! History recording and linearizability checking for (partial) snapshot
//! objects, in one import path.
//!
//! The paper's claims about Figures 1–3 are correctness claims —
//! linearizability and wait-freedom. These are the machinery the test suites
//! use to verify them mechanically on real concurrent executions:
//!
//! * [`history`] — operation records with logical invocation/response
//!   timestamps, produced by the scenario runner;
//! * [`spec`] — the sequential specification of a partial snapshot object;
//! * [`wgl`] — an exhaustive Wing–Gong linearizability checker for small
//!   adversarial histories (up to [`wgl::MAX_OPS`] operations);
//! * [`monotone`] — scalable necessary-condition checks (phantom values,
//!   reads from the future, stale reads, scan-order violations, incomparable
//!   scans) for stress histories with tens of thousands of operations.

pub use crate::history::{History, LogicalClock, OpRecord, OpResult, Operation};
pub use crate::monotone::{check_monotone_history, Violation};
pub use crate::spec::SnapshotSpec;
pub use crate::wgl::{check_history, LinResult, MAX_OPS};
pub use crate::{history, monotone, spec, wgl};
