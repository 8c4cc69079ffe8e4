//! [`ImplKind`]: the snapshot implementations the workspace's
//! cross-implementation tests iterate, each kept for a claim that names it.

use std::sync::Arc;

use psnap_activeset::CollectActiveSet;
use psnap_core::{
    AfekFullSnapshot, CasPartialSnapshot, LockSnapshot, MvSnapshot, PartialSnapshot,
    RegisterPartialSnapshot,
};
use psnap_shard::{MvShardedSnapshot, Partition, ShardConfig};

/// The snapshot implementations under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImplKind {
    /// Figure 3: compare&swap partial snapshot with the Figure 2 active set.
    Cas,
    /// Figure 3's algorithm instantiated with the register-based collect
    /// active set: the ablation of the Figure 2 contribution.
    CasWithCollectActiveSet,
    /// Figure 1: register-only partial snapshot.
    Register,
    /// Classic full snapshot; partial scan = full scan + projection. The
    /// contrast of the locality claim: its scans pay for every component.
    AfekFull,
    /// Reader-writer-lock object: the blocking reference.
    Lock,
    /// `MvSnapshot`: the multiversioned object — one-shot timestamped scans
    /// over per-register version chains, wait-free under any writer
    /// behaviour.
    Mv,
    /// `MvShardedSnapshot`: `shards` multiversioned shards sharing one
    /// timestamp camera — the store production runs.
    MvSharded {
        /// Number of shards (clamped to the component count at build time).
        shards: usize,
        /// Component-to-shard placement.
        partition: Partition,
    },
}

impl ImplKind {
    /// Every implementation: the paper's algorithms and their ablation, the
    /// two references, then the multiversioned objects.
    pub const ALL: [ImplKind; 7] = [
        ImplKind::Cas,
        ImplKind::CasWithCollectActiveSet,
        ImplKind::Register,
        ImplKind::AfekFull,
        ImplKind::Lock,
        ImplKind::Mv,
        ImplKind::MV_SHARDED_4,
    ];

    /// Four contiguous multiversioned shards on one camera.
    pub const MV_SHARDED_4: ImplKind = ImplKind::MvSharded {
        shards: 4,
        partition: Partition::Contiguous,
    };

    /// Short label used in assertion messages.
    pub fn label(&self) -> &'static str {
        match self {
            ImplKind::Cas => "fig3-cas",
            ImplKind::CasWithCollectActiveSet => "fig3-cas/collect-as",
            ImplKind::Register => "fig1-registers",
            ImplKind::AfekFull => "full-snapshot",
            ImplKind::Lock => "rwlock",
            ImplKind::Mv => "mv-snapshot",
            ImplKind::MvSharded { shards, partition } => match (shards, partition) {
                (4, Partition::Contiguous) => "mv-sharded-k4",
                (_, Partition::Contiguous) => "mv-sharded",
                (_, Partition::Hashed) => "mv-sharded-hashed",
            },
        }
    }

    /// Builds an instance with `m` components for `n` processes, components
    /// initialized to `initial`.
    pub fn build(&self, m: usize, n: usize, initial: u64) -> Arc<dyn PartialSnapshot<u64>> {
        match self {
            ImplKind::Cas => Arc::new(CasPartialSnapshot::new(m, n, initial)),
            ImplKind::CasWithCollectActiveSet => Arc::new(CasPartialSnapshot::with_active_set(
                m,
                n,
                initial,
                CollectActiveSet::new(n),
            )),
            ImplKind::Register => Arc::new(RegisterPartialSnapshot::new(m, n, initial)),
            ImplKind::AfekFull => Arc::new(AfekFullSnapshot::new(m, n, initial)),
            ImplKind::Lock => Arc::new(LockSnapshot::new(m, n, initial)),
            ImplKind::Mv => Arc::new(MvSnapshot::new(m, n, initial)),
            ImplKind::MvSharded { shards, partition } => {
                let config = ShardConfig {
                    shards: *shards,
                    partition: *partition,
                };
                Arc::new(MvShardedSnapshot::new(m, n, initial, config))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_core::ProcessId;

    #[test]
    fn every_kind_builds_and_answers_scans() {
        for kind in ImplKind::ALL {
            let snap = kind.build(16, 4, 0);
            snap.update(ProcessId(0), 3, 33);
            assert_eq!(
                snap.scan(ProcessId(1), &[3, 4]),
                vec![33, 0],
                "{} misbehaved",
                kind.label()
            );
            assert_eq!(snap.components(), 16);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = ImplKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ImplKind::ALL.len());
    }

    #[test]
    fn sharded_kinds_scan_across_shard_boundaries() {
        for kind in [
            ImplKind::MV_SHARDED_4,
            ImplKind::MvSharded {
                shards: 4,
                partition: Partition::Hashed,
            },
            ImplKind::MvSharded {
                shards: 8,
                partition: Partition::Contiguous,
            },
        ] {
            let snap = kind.build(32, 4, 0);
            for c in 0..32 {
                snap.update(ProcessId(0), c, c as u64 + 100);
            }
            let comps: Vec<usize> = vec![0, 9, 17, 31];
            assert_eq!(
                snap.scan(ProcessId(1), &comps),
                vec![100, 109, 117, 131],
                "{}",
                kind.label()
            );
        }
    }
}
