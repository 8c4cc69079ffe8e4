//! `psnap-shard`: a sharded, multiversioned, online-resharding partial
//! snapshot store.
//!
//! The paper's partial snapshot object makes a scan pay for the `r`
//! components it reads instead of the full `m`. This crate puts shard
//! labels on that component space: [`MvShardedSnapshot`] keeps every
//! component in one multiversioned object (one timestamp camera, after Wei
//! et al.) and partitions the components across `K` shards — contiguous
//! ranges or hashed, see [`Partition`] — whose per-shard heat tells a
//! policy where load lands. An `update` counts against one shard; a
//! cross-shard `scan` draws a single timestamp and reads the newest version
//! at or below it for every component — bounded steps under any writer
//! behaviour, no retries, no latch. A cross-shard `update_many` commits by
//! publishing one timestamp. Because the store implements
//! [`psnap_core::PartialSnapshot`], the scenario runner, both
//! linearizability checkers and the service frontend apply to it unchanged.
//!
//! # Online resharding
//!
//! The labels come from an **epoch-versioned [`PartitionMap`]** (a
//! generation number plus the component→shard assignment), so the layout
//! can change while traffic is live: [`psnap_core::ReshardOp`] splits a hot
//! shard or merges a cold one away by publishing a new map — no register
//! moves (see [`mv_sharded`]'s module docs). The crate-private `generations`
//! module owns the live map: one generation's labels and heat counters, the
//! pointer to the live one and its reclamation through
//! `psnap_shmem::epoch`, the pinned load and the compare-exchange that
//! publishes a successor. It is also the only module exempt from the
//! crate-wide lint below. [`ReshardPolicy`] is the pure decision core that
//! turns windowed shard-heat rates into split/merge proposals, and
//! [`ShardRouter`] plans a scan per shard for callers that want the
//! decomposition.
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
//! // Split the shard that holds component 17; every value stays put.
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

pub use mv_sharded::MvShardedSnapshot;
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
