//! Instrumented shared-memory base objects for the partial snapshot reproduction.
//!
//! The SPAA 2008 paper *Partial Snapshot Objects* (Attiya, Guerraoui, Ruppert)
//! works in the standard asynchronous shared-memory model: a fixed or unbounded
//! collection of processes communicate only through linearizable *base objects*
//! — read/write registers, compare&swap objects and fetch&increment objects —
//! and the cost of an implemented high-level operation is the number of base
//! object operations it performs.
//!
//! This crate provides exactly those base objects, built on hardware atomics
//! and a small vendored epoch-reclamation module ([`epoch`]) so that the
//! implemented algorithms remain lock-free at the machine level while the
//! workspace stays hermetic (no external crates), together with:
//!
//! * per-thread **step accounting** ([`steps`]) so that measured costs are the
//!   paper's costs (base-object operations), not an artifact of wall-clock
//!   noise;
//! * a **process registry** ([`process`]) mapping OS threads to the dense
//!   process identifiers used by the algorithms;
//! * a seeded **chaos layer** ([`chaos`]) that perturbs thread scheduling at
//!   base-object boundaries to widen the set of interleavings explored by the
//!   test suite;
//! * the concrete base objects: [`VersionedCell`] (an atomic register over
//!   arbitrarily large immutable records that also supports compare&swap),
//!   [`FetchIncrement`], and [`SegmentedArray`] (the unbounded array `I[1..]`
//!   required by the paper's active set algorithm of Figure 2).
//!
//! # Why `VersionedCell` is a faithful register / CAS object
//!
//! The paper assumes registers large enough to hold a component value, an
//! embedded view, a counter and a process id, and explicitly notes that a
//! pointer-indirection scheme may be used instead ("one can instead store a
//! pointer to a set of registers that stores the information"). `VersionedCell`
//! is that scheme: values are immutable heap records (`Arc<T>`) and the cell
//! atomically swings a pointer between them. Every successful `store` /
//! `compare_and_swap` installs a fresh *stamp* (a unique 64-bit sequence
//! number), which plays the role of the paper's `(id, counter)` pair: two reads
//! returning the same stamp guarantee the register did not change in between,
//! eliminating the ABA problem exactly as in the paper.
//!
//! # Every base object is a single hardware operation
//!
//! All four [`OpKind`]s map to one machine-level atomic on their object's
//! word — no locks, no syscalls, no helper loops:
//!
//! | base object step | hardware operation |
//! |---|---|
//! | `VersionedCell::load` | acquire pointer load |
//! | `VersionedCell::store` | atomic pointer `swap` |
//! | `VersionedCell::compare_and_swap` | pointer `compare_exchange` |
//! | `FetchIncrement::fetch_increment` | `fetch_add` on an `AtomicU64` |
//! | `WordRegister::read` / `write` | load / store on an `AtomicU64` |
//!
//! Retired `VersionedCell` records are reclaimed by the [`epoch`] module;
//! reads never write shared memory, so a `load` is wait-free in the strongest
//! sense. What a `load` and a `compare_and_swap` cost in nanoseconds is the
//! repo benchmark's `shmem.cell_load_ns` / `shmem.cell_cas_ns` rungs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod epoch;
pub mod fetch_inc;
pub mod metrics;
pub mod mv;
pub mod process;
pub mod seg_array;
pub mod steps;
pub mod versioned;

pub use fetch_inc::FetchIncrement;
pub use mv::{MvRegister, MvStamp, TimestampCamera};
pub use process::ProcessId;
pub use seg_array::{SegmentedArray, WordRegister};
pub use steps::{OpKind, StepReport, StepScope};
pub use versioned::{Versioned, VersionedCell};
