//! A uniform way to construct every snapshot implementation under test.

use std::sync::Arc;

use psnap_activeset::CollectActiveSet;
use psnap_core::{
    AfekFullSnapshot, CasPartialSnapshot, DoubleCollectSnapshot, LockSnapshot, MvSnapshot,
    PartialSnapshot, RegisterPartialSnapshot,
};
use psnap_shard::{MvShardedSnapshot, Partition, ShardConfig, ShardedSnapshot};

/// The snapshot implementations under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImplKind {
    /// Figure 3: compare&swap partial snapshot with the Figure 2 active set.
    Cas,
    /// Figure 3's algorithm but instantiated with the register-based collect
    /// active set (ablation of the Figure 2 contribution).
    CasWithCollectActiveSet,
    /// Figure 1: register-only partial snapshot.
    Register,
    /// Classic full snapshot; partial scan = full scan + projection.
    AfekFull,
    /// Non-blocking double collect (no helping).
    DoubleCollect,
    /// Blocking reader-writer-lock baseline.
    Lock,
    /// `psnap-shard`: components partitioned over `shards` inner instances of
    /// `inner`, with epoch-validated cross-shard scans.
    Sharded {
        /// The implementation each shard runs.
        inner: &'static ImplKind,
        /// Number of shards (clamped to the component count at build time).
        shards: usize,
        /// Component-to-shard placement.
        partition: Partition,
    },
    /// `MvSnapshot`: the multiversioned object — one-shot timestamped scans
    /// over per-register version chains, wait-free under any writer
    /// behaviour (the Wei et al. constant-time-snapshot direction).
    Mv,
    /// `MvShardedSnapshot`: `shards` multiversioned shards sharing one
    /// timestamp camera — the wait-free cross-shard path.
    MvSharded {
        /// Number of shards (clamped to the component count at build time).
        shards: usize,
        /// Component-to-shard placement.
        partition: Partition,
    },
}

impl ImplKind {
    /// Every implementation, paper algorithms first, then baselines, then
    /// the sharded and multiversioned compositions.
    pub const ALL: [ImplKind; 11] = [
        ImplKind::Cas,
        ImplKind::CasWithCollectActiveSet,
        ImplKind::Register,
        ImplKind::AfekFull,
        ImplKind::DoubleCollect,
        ImplKind::Lock,
        ImplKind::SHARDED_CAS_2,
        ImplKind::SHARDED_CAS_4,
        ImplKind::SHARDED_CAS_4_HASHED,
        ImplKind::Mv,
        ImplKind::MV_SHARDED_4,
    ];

    /// Two contiguous Figure-3 shards.
    pub const SHARDED_CAS_2: ImplKind = ImplKind::Sharded {
        inner: &ImplKind::Cas,
        shards: 2,
        partition: Partition::Contiguous,
    };

    /// Four contiguous Figure-3 shards.
    pub const SHARDED_CAS_4: ImplKind = ImplKind::Sharded {
        inner: &ImplKind::Cas,
        shards: 4,
        partition: Partition::Contiguous,
    };

    /// Four hash-partitioned Figure-3 shards.
    pub const SHARDED_CAS_4_HASHED: ImplKind = ImplKind::Sharded {
        inner: &ImplKind::Cas,
        shards: 4,
        partition: Partition::Hashed,
    };

    /// Four contiguous multiversioned shards on one camera.
    pub const MV_SHARDED_4: ImplKind = ImplKind::MvSharded {
        shards: 4,
        partition: Partition::Contiguous,
    };

    /// A multiversioned sharded object with an arbitrary shard count.
    pub fn mv_sharded(shards: usize, partition: Partition) -> ImplKind {
        ImplKind::MvSharded { shards, partition }
    }

    /// A sharded Figure-3 object with an arbitrary shard count.
    pub fn sharded_cas(shards: usize, partition: Partition) -> ImplKind {
        match (shards, partition) {
            (2, Partition::Contiguous) => ImplKind::SHARDED_CAS_2,
            (4, Partition::Contiguous) => ImplKind::SHARDED_CAS_4,
            (4, Partition::Hashed) => ImplKind::SHARDED_CAS_4_HASHED,
            (shards, partition) => ImplKind::Sharded {
                inner: &ImplKind::Cas,
                shards,
                partition,
            },
        }
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            ImplKind::Cas => "fig3-cas",
            ImplKind::CasWithCollectActiveSet => "fig3-cas/collect-as",
            ImplKind::Register => "fig1-registers",
            ImplKind::AfekFull => "full-snapshot",
            ImplKind::DoubleCollect => "double-collect",
            ImplKind::Lock => "rwlock",
            ImplKind::Sharded {
                shards, partition, ..
            } => match (shards, partition) {
                (2, Partition::Contiguous) => "sharded-cas-k2",
                (4, Partition::Contiguous) => "sharded-cas-k4",
                (8, Partition::Contiguous) => "sharded-cas-k8",
                (4, Partition::Hashed) => "sharded-cas-k4-hashed",
                (_, Partition::Contiguous) => "sharded-cas",
                (_, Partition::Hashed) => "sharded-cas-hashed",
            },
            ImplKind::Mv => "mv-snapshot",
            ImplKind::MvSharded { shards, partition } => match (shards, partition) {
                (2, Partition::Contiguous) => "mv-sharded-k2",
                (4, Partition::Contiguous) => "mv-sharded-k4",
                (8, Partition::Contiguous) => "mv-sharded-k8",
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
            ImplKind::DoubleCollect => Arc::new(DoubleCollectSnapshot::new(m, n, initial)),
            ImplKind::Lock => Arc::new(LockSnapshot::new(m, n, initial)),
            ImplKind::Sharded {
                inner,
                shards,
                partition,
            } => {
                let config = ShardConfig {
                    partition: *partition,
                    ..ShardConfig::contiguous(*shards)
                };
                Arc::new(ShardedSnapshot::with_factory(
                    m,
                    n,
                    initial,
                    config,
                    |_, shard_m, shard_n, init| inner.build(shard_m, shard_n, init),
                ))
            }
            ImplKind::Mv => Arc::new(MvSnapshot::new(m, n, initial)),
            ImplKind::MvSharded { shards, partition } => {
                let config = ShardConfig {
                    partition: *partition,
                    ..ShardConfig::multiversioned(*shards)
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
            ImplKind::SHARDED_CAS_2,
            ImplKind::SHARDED_CAS_4,
            ImplKind::SHARDED_CAS_4_HASHED,
            ImplKind::sharded_cas(8, Partition::Contiguous),
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

    #[test]
    fn sharded_cas_reuses_canonical_kinds() {
        assert_eq!(
            ImplKind::sharded_cas(4, Partition::Contiguous),
            ImplKind::SHARDED_CAS_4
        );
        assert_eq!(
            ImplKind::sharded_cas(16, Partition::Contiguous).label(),
            "sharded-cas"
        );
    }
}
