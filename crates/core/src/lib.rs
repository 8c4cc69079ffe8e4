//! Partial snapshot objects — a reproduction of *Partial Snapshot Objects*
//! (Attiya, Guerraoui, Ruppert, SPAA 2008).
//!
//! A **partial snapshot object** stores a vector of `m` components and
//! provides two linearizable operations: `update(i, v)`, which replaces
//! component `i`, and `scan(i1, …, ir)`, which atomically reads an arbitrary
//! subset of the components. The point of the abstraction is *locality*: the
//! cost of a partial scan should depend only on `r`, the number of components
//! scanned, not on `m` — unlike a classical snapshot object, where every scan
//! pays for the full vector.
//!
//! # Implementations
//!
//! | Type | Paper artifact | Base objects | Scans | Updates |
//! |---|---|---|---|---|
//! | [`CasPartialSnapshot`] | Figure 3 (main algorithm) | compare&swap + fetch&increment + registers | wait-free, worst-case `O(r²)`, **local** | wait-free, amortized `O(Cs²·rmax²)` |
//! | [`RegisterPartialSnapshot`] | Figure 1 | registers only | wait-free, `O((Cu+1)·r + A)` | wait-free, `O(Cu·Cs·rmax + A)` |
//! | [`AfekFullSnapshot`] | baseline of Section 1/5 | registers only | wait-free, `Θ(m)` | wait-free, `Θ(m)` |
//! | [`LockSnapshot`] | practitioner comparator (not in paper) | reader-writer lock | blocking | blocking |
//! | [`MvSnapshot`] | multiversion extension (Wei et al. direction, not in paper) | multiversioned registers + timestamp camera | wait-free, one-shot (no retry loop), **local** | wait-free, O(n) |
//!
//! All wait-free implementations go through the same
//! [`PartialSnapshot`] trait, so the test suites, the linearizability checker
//! and the benchmark harness treat them interchangeably.
//!
//! # Quick start
//!
//! ```
//! use psnap_core::{CasPartialSnapshot, PartialSnapshot};
//! use psnap_shmem::ProcessId;
//!
//! // 1024 components, up to 8 processes, all components initially 0.
//! let snapshot = CasPartialSnapshot::new(1024, 8, 0u64);
//!
//! // Process 0 updates two components.
//! snapshot.update(ProcessId(0), 17, 170);
//! snapshot.update(ProcessId(0), 900, 9000);
//!
//! // Process 1 atomically scans three components — the cost depends on the
//! // three components requested, not on the 1024 stored.
//! let values = snapshot.scan(ProcessId(1), &[17, 900, 3]);
//! assert_eq!(values, vec![170, 9000, 0]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod afek_snapshot;
mod batch;
pub mod cas_snapshot;
mod collect;
pub mod entry;
pub mod lock_snapshot;
pub mod mv_snapshot;
pub mod register_snapshot;
pub mod traits;
pub mod view;

pub use afek_snapshot::AfekFullSnapshot;
pub use cas_snapshot::CasPartialSnapshot;
pub use entry::Entry;
pub use lock_snapshot::LockSnapshot;
pub use mv_snapshot::{MvSnapshot, ParkedUpdate};
pub use register_snapshot::RegisterPartialSnapshot;
pub use traits::{PartialSnapshot, ReshardOp};
pub use view::View;

/// Re-export of the process identifier type used by every operation.
pub use psnap_shmem::ProcessId;
