//! `psnap-shard`: a sharded, scan-coalescing partial snapshot store.
//!
//! The paper's partial snapshot object makes a scan pay for the `r`
//! components it reads instead of the full `m` — but a single object still
//! funnels every process through one set of coordination registers
//! (announcements, the active set, the per-component CAS cells), which caps
//! update throughput long before the component space does. This crate adds
//! the scaling layer: [`ShardedSnapshot`] partitions the component space
//! across `K` independent inner partial snapshot instances (contiguous
//! ranges or hashed, see [`Partition`]), routes each `update` to one shard,
//! and answers each `scan` by coalescing per-shard sub-scans validated with
//! per-shard epoch counters — retrying on cross-shard epoch movement and
//! escalating to a coordinated scan after a bounded number of retries.
//!
//! Because `ShardedSnapshot` itself implements
//! [`psnap_core::PartialSnapshot`], the whole existing stack — the scenario
//! runner, both linearizability checkers, the experiment harness, even
//! another `ShardedSnapshot` — applies to it unchanged.
//!
//! The coordinated fallback waits on in-flight writers, so multi-shard
//! placements of `ShardedSnapshot` are blocking in the strict asynchronous
//! model. [`MvShardedSnapshot`] is the wait-free alternative: every shard is
//! a multiversioned [`psnap_core::MvSnapshot`] sharing one timestamp camera,
//! and a cross-shard scan draws a single timestamp and reads the newest
//! version at or below it on every shard — bounded steps under any writer
//! behaviour, no retries, no latch (the repo benchmark's `core.mv.*` and
//! `shard.*` rungs measure the trade). The
//! type a deployment builds chooses the path; [`ShardConfig`] only seeds it.
//!
//! # One generation mechanism
//!
//! Both stores route through an **epoch-versioned [`PartitionMap`]** (a
//! generation number plus the component→shard assignment), so the layout
//! can change while traffic is live: [`psnap_core::ReshardOp`] splits a hot
//! shard or merges a cold one away. Everything about that which does not
//! depend on what a shard *is* lives once, in the crate-private
//! `generations` module: the routing state of one generation (map, router,
//! inner shards, per-shard writer gates, heat counters), the pointer to the
//! live one and its reclamation through `psnap_shmem::epoch`, the pinned
//! load, the writer entry that raises a shard's gate and *then* re-checks
//! that the shard is not frozen and the generation not replaced, and the
//! skeleton of a reshard (serialize, split or merge the map, quiesce, build
//! the successor sharing every unaffected shard, swap, release, retire).
//! It is also the only module exempt from the crate-wide lint below.
//!
//! Each store adds its own protocol on top. `MvShardedSnapshot` migrates
//! version history behind a single camera-cutover timestamp with scans and
//! updates still running (see its module docs); `ShardedSnapshot` has no
//! history to migrate and implements the naive drain-and-rebuild baseline
//! behind its coordination latch. [`ReshardPolicy`] is the pure decision
//! core that turns windowed shard-heat rates into split/merge proposals
//! (experiment E15 measures live migration against the baseline under
//! skewed load).
//!
//! ```
//! use psnap_core::PartialSnapshot;
//! use psnap_core::CasPartialSnapshot;
//! use psnap_shard::{ShardConfig, ShardedSnapshot};
//! use psnap_shmem::ProcessId;
//!
//! // 1024 components split over 8 Figure-3 shards, up to 16 processes.
//! let snapshot = ShardedSnapshot::with_factory(
//!     1024, 16, 0u64, ShardConfig::contiguous(8),
//!     |_shard, m, n, init| CasPartialSnapshot::new(m, n, init),
//! );
//! snapshot.update(ProcessId(0), 17, 170);    // lands on one shard
//! snapshot.update(ProcessId(1), 900, 9000);  // lands on another
//! // One atomic partial scan spanning both shards:
//! assert_eq!(snapshot.scan(ProcessId(2), &[17, 900]), vec![170, 9000]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod generations;
pub mod mv_sharded;
pub mod partition;
pub mod reshard;
pub mod sharded;

pub use mv_sharded::{MvShardedParked, MvShardedSnapshot};
pub use partition::{last_write_wins, Partition, PartitionMap, ScanPlan, ScanUnion, ShardRouter};
pub use reshard::{ReshardPolicy, ReshardPolicyConfig};
pub use sharded::{CoordinationStats, ShardConfig, ShardedSnapshot};
