//! `psnap-shard`: a sharded, multiversioned, online-resharding partial
//! snapshot store.
//!
//! The paper's partial snapshot object makes a scan pay for the `r`
//! components it reads instead of the full `m` — but a single object still
//! funnels every process through one set of coordination registers, which
//! caps update throughput long before the component space does. This crate
//! adds the scaling layer: [`MvShardedSnapshot`] partitions the component
//! space across `K` multiversioned shards (contiguous ranges or hashed, see
//! [`Partition`]) that share one timestamp camera. An `update` lands on one
//! shard; a cross-shard `scan` draws a single timestamp and reads the newest
//! version at or below it on every shard it touches — bounded steps under
//! any writer behaviour, no retries, no latch. A cross-shard `update_many`
//! commits by publishing one timestamp. Because the store implements
//! [`psnap_core::PartialSnapshot`], the scenario runner, both
//! linearizability checkers and the service frontend apply to it unchanged.
//!
//! # Online resharding
//!
//! The store routes through an **epoch-versioned [`PartitionMap`]** (a
//! generation number plus the component→shard assignment), so the layout
//! can change while traffic is live: [`psnap_core::ReshardOp`] splits a hot
//! shard or merges a cold one away, migrating version history behind one
//! camera cutover with scans and updates still running (see
//! [`mv_sharded`]'s module docs). The crate-private `generations` module
//! owns that mechanism: the routing state of one generation (map, router,
//! shards, per-shard writer gates, heat counters), the pointer to the live
//! one and its reclamation through `psnap_shmem::epoch`, the pinned load,
//! the writer entry that raises a shard's gate and *then* re-checks that
//! the shard is not frozen and the generation not replaced, and the
//! migration itself. It is also the only module exempt from the crate-wide
//! lint below. [`ReshardPolicy`] is the pure decision core that turns
//! windowed shard-heat rates into split/merge proposals.
//!
//! ```
//! use psnap_core::{PartialSnapshot, ReshardOp, Resharding};
//! use psnap_shard::{MvShardedSnapshot, ShardConfig};
//! use psnap_shmem::ProcessId;
//!
//! // 1024 components split over 8 multiversioned shards, up to 16 processes.
//! let snapshot = MvShardedSnapshot::new(1024, 16, 0u64, ShardConfig::contiguous(8));
//! snapshot.update(ProcessId(0), 17, 170);    // lands on one shard
//! snapshot.update(ProcessId(1), 900, 9000);  // lands on another
//! // One atomic partial scan spanning both shards:
//! assert_eq!(snapshot.scan(ProcessId(2), &[17, 900]), vec![170, 9000]);
//! // Split the shard that holds component 17; values move with it.
//! assert!(snapshot.reshard(ReshardOp::Split { shard: snapshot.shard_of(17) }));
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

pub use mv_sharded::{MvShardedParked, MvShardedSnapshot};
pub use partition::{
    last_write_wins, Partition, PartitionMap, ScanPlan, ScanUnion, ShardConfig, ShardRouter,
};
pub use reshard::{ReshardPolicy, ReshardPolicyConfig};

/// The store under the hashed placement: each case of `mv_sharded`'s tests
/// that takes a [`ShardConfig`] (and runs there contiguous), rerun hashed.
#[cfg(test)]
mod sharded {
    mod tests {
        use crate::mv_sharded::tests::*;
        use crate::ShardConfig;

        #[test]
        fn sequential_update_and_scan_across_shards() {
            sequential_case(ShardConfig::hashed(4));
        }

        #[test]
        fn hashed_partition_behaves_identically_sequentially() {
            placements_agree_case(1);
            placements_agree_case(3);
        }

        #[test]
        fn update_many_applies_batches_across_shards() {
            batches_case(ShardConfig::hashed(4));
        }

        #[test]
        fn cross_shard_batches_are_never_observed_partially() {
            batch_churn_case(ShardConfig::hashed(4));
        }

        #[test]
        fn cross_shard_scans_never_tear_transfers() {
            transfers_case(ShardConfig::hashed(4));
        }

        #[test]
        #[should_panic(expected = "component")]
        fn out_of_range_component_is_rejected() {
            out_of_range_component_case(ShardConfig::hashed(2));
        }

        #[test]
        #[should_panic(expected = "process id")]
        fn out_of_range_pid_is_rejected() {
            out_of_range_pid_case(ShardConfig::hashed(2));
        }

        #[test]
        fn metadata_is_reported() {
            metadata_case(ShardConfig::hashed(1));
            metadata_case(ShardConfig::hashed(2));
        }
    }
}
