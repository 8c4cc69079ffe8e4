//! The routing layout of the sharded store, generation by generation.
//!
//! A [`Layout`] is one immutable generation of the store's *labels*: the
//! partition map that says which shard id each component belongs to, and
//! one heat counter per shard id. It holds no register: every component
//! lives in the store's one [`MvSnapshot`](psnap_core::MvSnapshot), wherever
//! the map says it belongs. [`Generations`] holds the live layout behind the
//! crate's only `AtomicPtr` and is the only code that dereferences, swaps,
//! retires or frees it:
//!
//! * **operations** pin the epoch and [`load`](Generations::load) — the one
//!   way to obtain a `&Layout`, valid for the guard — to find the shard ids
//!   whose heat they count;
//! * **resharders** call [`reshard`](Generations::reshard), which builds the
//!   successor map from the live one and publishes it with one
//!   compare-exchange, retrying from the newer map if another reshard got
//!   there first.
//!
//! Nothing else changes hands at a reshard: no register moves, no writer is
//! drained, no batch is excluded, no timestamp is drawn. An operation that
//! loaded the old layout counts its heat against the old labels, and that is
//! all the old layout is ever used for. Heat counters are shared **by shard
//! id** between consecutive layouts, so an operation counted against
//! generation `g` stays visible at `g + 1`; a shard appended by a split
//! starts cold.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use psnap_core::ReshardOp;
use psnap_obs::{Counter, Metric, Registry};
use psnap_shmem::epoch::{self, Guard};

use crate::partition::PartitionMap;

/// One generation of the store's routing labels. Immutable once published.
pub(crate) struct Layout {
    pub(crate) map: PartitionMap,
    /// Per-shard operation heat. Survivors keep their counter across
    /// generations; shards appended by a split start cold, which is what
    /// makes post-split skew directly observable.
    pub(crate) heat: Vec<Arc<Counter>>,
}

/// The live [`Layout`] of the sharded store and everything that may touch
/// the pointer to it.
pub(crate) struct Generations {
    live: AtomicPtr<Layout>,
    /// Reshard operations that changed the layout.
    reshards: Arc<Counter>,
}

impl Drop for Generations {
    fn drop(&mut self) {
        // SAFETY: `live` always holds a pointer from `Box::into_raw` that
        // has not been retired — `reshard` retires only what its own
        // compare-exchange unlinked or never published — and `&mut self`
        // means no operation is left to dereference it. Retired layouts
        // belong to the epoch module.
        drop(unsafe { Box::from_raw(*self.live.get_mut()) });
    }
}

impl Generations {
    /// Generation 0 over `map`, every shard cold.
    pub(crate) fn new(map: PartitionMap) -> Self {
        let layout = Layout {
            heat: (0..map.shards()).map(|_| Arc::default()).collect(),
            map,
        };
        Generations {
            live: AtomicPtr::new(Box::into_raw(Box::new(layout))),
            reshards: Arc::default(),
        }
    }

    /// The live layout, dereferenceable for as long as `guard` pins the
    /// calling thread.
    #[inline]
    pub(crate) fn load<'g>(&self, _guard: &'g Guard) -> &'g Layout {
        // SAFETY: the pointer came from `Box::into_raw`, and the only thing
        // that ever happens to an unlinked layout is `epoch::retire`, which
        // never frees under a pin taken before the unlink. The caller's pin
        // precedes this load, so the layout outlives `'g`.
        unsafe { &*self.live.load(Ordering::Acquire) }
    }

    /// Applies a split or merge to the live map: build the successor from
    /// the live layout, publish it with a compare-exchange, retire the
    /// predecessor. A failed compare-exchange means another reshard
    /// published first; the op is rebuilt from that newer map. Returns
    /// `false`, having changed nothing, for degenerate requests against the
    /// map it last read: splitting a shard with fewer than two components,
    /// merging a shard into itself, out-of-range ids.
    pub(crate) fn reshard(&self, op: ReshardOp) -> bool {
        let guard = epoch::pin();
        loop {
            let old = self.load(&guard);
            let map = match op {
                ReshardOp::Split { shard } => old.map.split(shard),
                ReshardOp::Merge { from, into } => old.map.merge(from, into),
            };
            let Some(map) = map else {
                return false;
            };
            // Heat is shared by shard id so operations straddling the swap
            // account to the same counters; a freshly appended shard starts
            // cold.
            let heat = (0..map.shards())
                .map(|s| old.heat.get(s).map_or_else(Arc::default, Arc::clone))
                .collect();
            // `old` stays pinned, so its address cannot come back as a new
            // layout's: the exchange succeeds only if nothing was published
            // since the load.
            let current = std::ptr::from_ref(old).cast_mut();
            let next = Box::into_raw(Box::new(Layout { map, heat }));
            let published = self
                .live
                .compare_exchange(current, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            // SAFETY: both pointers came from `Box::into_raw`. If the
            // exchange succeeded it unlinked `current` from the only shared
            // location, and only the exchange that unlinks a pointer retires
            // it; if it failed, `next` was never published. Either way the
            // pointer retired here can be loaded by nobody from now on, and
            // the epoch frees it only after every pin that may hold it — ours
            // and every straddling reader's — is gone.
            unsafe { epoch::retire(if published { current } else { next }) };
            if published {
                self.reshards.inc();
                return true;
            }
        }
    }

    /// A clone of the live partition map.
    pub(crate) fn partition_map(&self) -> PartitionMap {
        self.load(&epoch::pin()).map.clone()
    }

    /// Number of reshard operations that changed the layout.
    pub(crate) fn reshards(&self) -> u64 {
        self.reshards.get()
    }

    /// Per-shard operation heat over the live generation's id space.
    pub(crate) fn heat(&self) -> Vec<u64> {
        let guard = epoch::pin();
        self.load(&guard).heat.iter().map(|c| c.get()).collect()
    }

    /// Components owned per shard under the live map.
    pub(crate) fn shard_sizes(&self) -> Vec<usize> {
        self.load(&epoch::pin()).map.shard_sizes()
    }

    /// The shard owning `component` in the live generation.
    pub(crate) fn shard_of(&self, component: usize) -> usize {
        self.load(&epoch::pin()).map.shard_of(component)
    }

    /// The generation number of the live layout.
    pub(crate) fn generation(&self) -> u64 {
        self.load(&epoch::pin()).map.generation()
    }

    /// Registers `{prefix}.reshards` and one `{prefix}.heat.{i}` per shard
    /// of the live generation (counters of shards appended by later splits
    /// are reachable through [`heat`](Self::heat), which always reflects the
    /// live generation).
    pub(crate) fn register_obs(&self, registry: &Registry, prefix: &str) {
        registry.register(
            &format!("{prefix}.reshards"),
            Metric::Counter(Arc::clone(&self.reshards)),
        );
        let guard = epoch::pin();
        for (i, heat) in self.load(&guard).heat.iter().enumerate() {
            registry.register(
                &format!("{prefix}.heat.{i}"),
                Metric::Counter(Arc::clone(heat)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;
    use std::time::{Duration, Instant};

    fn generations(m: usize, shards: usize) -> Generations {
        Generations::new(PartitionMap::new(m, shards, Partition::Contiguous))
    }

    fn weak_heat(layout: &Layout) -> Vec<std::sync::Weak<Counter>> {
        layout.heat.iter().map(Arc::downgrade).collect()
    }

    #[test]
    fn a_pinned_reader_outlives_two_swaps_and_retired_layouts_are_freed_once_it_unpins() {
        let gens = generations(8, 2);

        let reader = epoch::pin();
        let pinned = gens.load(&reader);
        assert!(gens.reshard(ReshardOp::Split { shard: 0 }));
        assert!(gens.reshard(ReshardOp::Split { shard: 1 }));
        assert_eq!(gens.generation(), 2);
        assert_eq!(gens.shard_sizes(), vec![2, 2, 2, 2]);
        assert_eq!(gens.reshards(), 2);

        // Two generations behind, unlinked and retired — and still whole,
        // because the pin that loaded it is still held.
        for _ in 0..50 {
            epoch::flush();
        }
        assert_eq!(pinned.map.generation(), 0);
        assert_eq!(pinned.map.shard_sizes(), vec![4, 4]);
        assert_eq!(pinned.heat.len(), 2);

        // Every retired layout holds clones of the live layout's counters,
        // so once the pin is gone and the store dropped, every counter is
        // freed only if every layout was. (Other tests of this process pin
        // transiently, hence the loop.)
        drop(reader);
        let counters = weak_heat(gens.load(&epoch::pin()));
        drop(gens);
        let deadline = Instant::now() + Duration::from_secs(30);
        while counters.iter().any(|w| w.strong_count() > 0) {
            epoch::flush();
            assert!(
                Instant::now() < deadline,
                "retired layouts were never freed: {} of {} heat counters alive",
                counters.iter().filter(|w| w.strong_count() > 0).count(),
                counters.len()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn heat_is_shared_by_shard_id_and_an_appended_shard_starts_cold() {
        let gens = generations(8, 2);
        let guard = epoch::pin();
        let g0 = gens.load(&guard);
        g0.heat[0].add(5);
        g0.heat[1].add(7);

        assert!(gens.reshard(ReshardOp::Split { shard: 0 }));
        let g1 = gens.load(&guard);
        for s in 0..2 {
            assert!(Arc::ptr_eq(&g0.heat[s], &g1.heat[s]), "heat {s} forked");
        }
        assert_eq!(gens.heat(), vec![5, 7, 0]);
        assert_eq!(gens.shard_sizes(), vec![2, 4, 2]);

        // The emptied side of a merge keeps its id and its counter.
        assert!(gens.reshard(ReshardOp::Merge { from: 2, into: 0 }));
        let g2 = gens.load(&guard);
        assert_eq!(gens.shard_sizes(), vec![4, 4, 0]);
        for s in 0..3 {
            assert!(Arc::ptr_eq(&g1.heat[s], &g2.heat[s]), "heat {s} forked");
        }
        assert_eq!(gens.shard_of(3), 0);
    }

    #[test]
    fn degenerate_ops_return_false_and_touch_nothing() {
        let gens = generations(4, 4);
        for op in [
            ReshardOp::Split { shard: 0 }, // a single component
            ReshardOp::Split { shard: 9 },
            ReshardOp::Merge { from: 1, into: 1 },
            ReshardOp::Merge { from: 1, into: 9 },
        ] {
            assert!(!gens.reshard(op), "{op:?} was accepted");
        }
        assert_eq!(gens.generation(), 0);
        assert_eq!(gens.reshards(), 0);
        assert!(gens.reshard(ReshardOp::Merge { from: 1, into: 0 }));
        assert_eq!(gens.generation(), 1);
    }

    #[test]
    fn racing_reshards_each_apply_once_to_the_map_they_publish_over() {
        // Every split lands exactly once, whichever thread's compare-exchange
        // wins each round: the losers rebuild from the newer map. Each split
        // halves shard 0, so 2¹⁷ components leave it two after sixteen.
        let m = 1 << 17;
        let gens = generations(m, 1);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..8 {
                        assert!(gens.reshard(ReshardOp::Split { shard: 0 }));
                    }
                });
            }
        });
        assert_eq!(gens.generation(), 16);
        assert_eq!(gens.reshards(), 16);
        let sizes = gens.shard_sizes();
        assert_eq!(sizes.len(), 17);
        assert_eq!(sizes.iter().sum::<usize>(), m);
        assert_eq!(sizes[0], 2);
    }
}
