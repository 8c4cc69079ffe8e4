//! The generation mechanism of the sharded store.
//!
//! A [`Layout`] is one immutable generation of the store's routing state: the
//! partition map, its router, one [`MvSnapshot`] per shard, one writer
//! [`Gate`] and one heat counter per shard. [`Generations`] holds the live
//! layout behind the crate's only `AtomicPtr` and is the only code that
//! dereferences, swaps, retires or frees it:
//!
//! * **readers** pin the epoch and [`load`](Generations::load) — the one way
//!   to obtain a `&Layout`, valid for the guard — and ask afterwards whether
//!   that layout [`is_live`](Generations::is_live);
//! * **writers** mutate a shard only while holding the [`WriterPermit`] that
//!   [`enter_writer`](Generations::enter_writer) hands out after raising the
//!   shard's gate and *then* re-checking the gate's frozen flag and the
//!   pointer. PR 8's lost update was this recheck missing from one of four
//!   hand-written copies; here it is a value a writer has to obtain;
//! * **resharders** call [`reshard`](Generations::reshard), which migrates
//!   the affected shards' version history behind one camera cutover and
//!   swaps the successor in (the protocol is in `mv_sharded`'s module docs).
//!
//! Every shard of every generation belongs to one [`MvFamily`], which lives
//! here beside the pointer because a migration needs it as much as the
//! operations do: one timestamp camera stamps every write, one array of
//! per-process announcement slots covers every scan — a scan announces once
//! however many shards it reads, and every shard's pruners respect it — and
//! one mutex serializes batches (and reshards against them).
//!
//! Unaffected shards are shared between consecutive layouts by `Arc`, and
//! gates and heat counters are shared **by shard id** even for rebuilt
//! shards: a writer counted against generation `g` stays visible to a
//! resharder running at `g + 1`.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use psnap_core::{MvFamily, MvSnapshot, ReshardOp};
use psnap_obs::{Counter, Metric, Registry};
use psnap_shmem::epoch::{self, Guard};
use psnap_shmem::steps::{self, OpKind};

use crate::partition::{PartitionMap, ShardRouter};

/// One shard's writer gate, padded to its own cache line: lets a reshard
/// drain the writers of the shards it rebuilds without touching writers
/// elsewhere. Both fields are private: a count is raised only by
/// [`Generations::enter_writer`].
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Gate {
    /// Writers currently mutating the shard.
    writers: AtomicU64,
    /// Raised while a reshard is rebuilding the shard: writers back off
    /// (lower their count and retry on a fresh load) instead of mutating
    /// contents that are being copied out.
    frozen: AtomicBool,
}

/// One generation of the store's routing state. Immutable once published.
pub(crate) struct Layout<T> {
    pub(crate) map: PartitionMap,
    pub(crate) router: ShardRouter,
    pub(crate) inner: Vec<Arc<MvSnapshot<T>>>,
    gates: Vec<Arc<Gate>>,
    /// Per-shard operation heat. Survivors keep their counter across
    /// generations; shards appended by a split start cold, which is what
    /// makes post-split skew directly observable.
    pub(crate) heat: Vec<Arc<Counter>>,
}

impl<T> Layout<T> {
    /// Freezes `shards` and waits for the writers already inside them to
    /// leave. Every writer is bracketed by a raised count (SeqCst): either
    /// this drain observes the raise and waits for the write to land, or the
    /// writer's recheck observes the freeze and backs off. Writers to other
    /// shards continue untouched.
    fn freeze_and_drain(&self, shards: &[usize]) {
        for &s in shards {
            self.gates[s].frozen.store(true, Ordering::SeqCst);
        }
        for &s in shards {
            while self.gates[s].writers.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Reopens `shards`. Gates are shared by shard id, so this reaches the
    /// writers that backed off whichever layout they loaded; they reload the
    /// pointer and land on the successor.
    fn unfreeze(&self, shards: &[usize]) {
        for &s in shards {
            self.gates[s].frozen.store(false, Ordering::SeqCst);
        }
    }
}

/// Proof that the holder raised a shard's gate and saw, afterwards, the
/// shard unfrozen and its layout still live. Dropping it lowers the gate.
#[must_use = "the gate is lowered as soon as the permit is dropped"]
pub(crate) struct WriterPermit<'g>(&'g AtomicU64);

impl Drop for WriterPermit<'_> {
    #[inline]
    fn drop(&mut self) {
        steps::record(OpKind::FetchInc);
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The live [`Layout`] of the sharded store, everything that may touch the
/// pointer to it, and the state every generation's shards share.
pub(crate) struct Generations<T> {
    live: AtomicPtr<Layout<T>>,
    /// The camera, announcements and batch serializer of every shard of
    /// every generation — the same `Arc` every shard holds, so batches
    /// entering through an inner shard and through the store can never
    /// interleave their installs. A reshard holds the serializer across its
    /// whole migration, excluding batches and other reshards.
    pub(crate) family: Arc<MvFamily>,
    /// The initial component value (a rebuilt shard needs it before the
    /// migration copy overwrites the slots that have history).
    initial: T,
    /// Reshard operations that changed the layout.
    reshards: Arc<Counter>,
}

impl<T> Drop for Generations<T> {
    fn drop(&mut self) {
        // SAFETY: `live` always holds a pointer from `Box::into_raw` that
        // has not been retired — `reshard` retires only what it unlinked —
        // and `&mut self` means no operation is left to dereference it.
        // Retired predecessors belong to the epoch module.
        drop(unsafe { Box::from_raw(*self.live.get_mut()) });
    }
}

impl<T: Clone + Send + Sync + 'static> Generations<T> {
    /// Generation 0 over `map`: one multiversioned shard per shard id, `n`
    /// processes each, every component `initial`.
    pub(crate) fn new(map: PartitionMap, n: usize, initial: T) -> Self {
        let family = Arc::new(MvFamily::new(n));
        let router = ShardRouter::from_map(&map);
        let shards = router.shards();
        let layout = Layout {
            inner: (0..shards)
                .map(|s| {
                    Arc::new(MvSnapshot::in_family(
                        router.shard_size(s),
                        initial.clone(),
                        Arc::clone(&family),
                    ))
                })
                .collect(),
            gates: (0..shards).map(|_| Arc::default()).collect(),
            heat: (0..shards).map(|_| Arc::default()).collect(),
            map,
            router,
        };
        Generations {
            live: AtomicPtr::new(Box::into_raw(Box::new(layout))),
            family,
            initial,
            reshards: Arc::default(),
        }
    }

    /// The live layout, dereferenceable for as long as `guard` pins the
    /// calling thread.
    #[inline]
    pub(crate) fn load<'g>(&self, _guard: &'g Guard) -> &'g Layout<T> {
        // SAFETY: the pointer came from `Box::into_raw`, and the only thing
        // that ever happens to an unlinked layout is `epoch::retire`, which
        // never frees under a pin taken before the unlink. The caller's pin
        // precedes this load, so the layout outlives `'g`.
        unsafe { &*self.live.load(Ordering::Acquire) }
    }

    /// True if `layout` (loaded under a pin the caller still holds) is still
    /// the one routing the object. Comparing pointers is exact: a pinned
    /// layout cannot be freed, so its address cannot be reused.
    #[inline]
    pub(crate) fn is_live(&self, layout: &Layout<T>) -> bool {
        std::ptr::eq(self.live.load(Ordering::Acquire), layout)
    }

    /// Raises the writer count of `shard` and only then checks that the
    /// shard is not frozen and that `layout` is still live. `None` means a
    /// reshard is rebuilding the shard or has replaced the layout; nothing
    /// is held and the caller retries on a fresh [`load`](Self::load).
    #[inline]
    pub(crate) fn enter_writer<'g>(
        &self,
        layout: &'g Layout<T>,
        shard: usize,
    ) -> Option<WriterPermit<'g>> {
        let gate = &*layout.gates[shard];
        steps::record(OpKind::FetchInc);
        gate.writers.fetch_add(1, Ordering::SeqCst);
        let permit = WriterPermit(&gate.writers);
        // Raise-then-recheck against the resharder's freeze-then-drain. If
        // the freeze comes after our raise, the drain observes the raised
        // count and waits for this write to land before copying the shard.
        // Otherwise we observe the freeze and back off — or, when the
        // reshard froze, drained (our count not yet raised), swapped and
        // unfroze all between the caller's load and our raise, the moved
        // pointer: `layout` is then a retired generation that no route
        // reaches and whose contents were copied without this write, so
        // writing there would lose the update. The flag must be read before
        // the pointer: the unfreeze follows the swap, so a flag seen lowered
        // again guarantees the swapped pointer is visible too.
        steps::record(OpKind::Read);
        if gate.frozen.load(Ordering::SeqCst)
            || !std::ptr::eq(self.live.load(Ordering::SeqCst), layout)
        {
            return None;
        }
        Some(permit)
    }

    /// Applies a split or merge to the live store: exclude batches, freeze
    /// and drain the affected shards' writers, draw the cutover boundary,
    /// rebuild the affected shards with their finalized history at its
    /// original timestamps, swap, reopen, retire. Returns `false`, having
    /// changed nothing, for degenerate requests: splitting a shard with
    /// fewer than two components, merging a shard into itself, out-of-range
    /// ids.
    pub(crate) fn reshard(&self, op: ReshardOp) -> bool {
        // Lock order: batch serializer → gate freeze. Batch writers take the
        // serializer before routing, so a batch in flight completes before
        // the freeze and no new one starts until the swap is published; and
        // since every resharder takes it first, `old` stays the live layout
        // until our own swap below.
        let serial = self
            .family
            .batches()
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let guard = epoch::pin();
        let old = self.load(&guard);
        let (map, affected) = match op {
            ReshardOp::Split { shard } => (old.map.split(shard), vec![shard]),
            ReshardOp::Merge { from, into } => (old.map.merge(from, into), vec![from, into]),
        };
        let Some(map) = map else {
            return false;
        };
        // Each drained update is a bounded store-and-finalize; writers that
        // arrive after the freeze back off and retry against the new state
        // once it is published.
        old.freeze_and_drain(&affected);
        // The migration boundary: every version finalized before this call
        // is strictly below it, every post-swap write at or above it. The
        // affected shards are quiescent from here until the swap, so their
        // chains are frozen below the boundary.
        let boundary = self.family.camera().cutover();
        let router = ShardRouter::from_map(&map);
        let mut next = Layout {
            inner: Vec::with_capacity(map.shards()),
            gates: Vec::with_capacity(map.shards()),
            heat: Vec::with_capacity(map.shards()),
            map,
            router,
        };
        for s in 0..next.map.shards() {
            // Gates and heat are shared by shard id so operations straddling
            // the swap are counted by and account to the same registers; a
            // freshly appended shard starts cold.
            next.gates
                .push(old.gates.get(s).map_or_else(Arc::default, Arc::clone));
            next.heat
                .push(old.heat.get(s).map_or_else(Arc::default, Arc::clone));
            // Unaffected shards keep their object. So does the emptied side
            // of a merge: no route leads to it, and keeping the drained
            // object spares a degenerate zero-component construction.
            let size = next.router.shard_size(s);
            if s < old.inner.len() && (size == 0 || !affected.contains(&s)) {
                next.inner.push(Arc::clone(&old.inner[s]));
                continue;
            }
            // A rebuilt shard: each owned component's finalized history,
            // copied with its original timestamps. All of them sit below the
            // boundary, so a copy can never shadow a post-swap write;
            // old-generation scans still in flight keep reading the old
            // objects, which stay alive until the epoch frees them.
            let fresh = MvSnapshot::in_family(size, self.initial.clone(), Arc::clone(&self.family));
            for slot in 0..size {
                let (from, from_slot) = old.router.route(next.router.component_of(s, slot));
                for (t, v) in old.inner[from].slot_versions(from_slot) {
                    debug_assert!(
                        t < boundary,
                        "version stamped {t} at or above the cutover boundary {boundary}"
                    );
                    fresh.install_frozen(slot, t, v);
                }
            }
            next.inner.push(Arc::new(fresh));
        }
        let unlinked = self
            .live
            .swap(Box::into_raw(Box::new(next)), Ordering::AcqRel);
        debug_assert!(
            std::ptr::eq(unlinked, old),
            "swapped outside the serializer"
        );
        old.unfreeze(&affected);
        drop(serial);
        // SAFETY: `unlinked` came from `Box::into_raw`, the swap above
        // removed it from the only shared location — nobody can load it
        // anymore — and each swap returns a given pointer once, so it is
        // retired once. Our pin and every straddling reader's keep it alive
        // until they are done with it.
        unsafe { epoch::retire(unlinked) };
        self.reshards.inc();
        true
    }

    /// Number of inner shards in the live generation's id space.
    pub(crate) fn shards(&self) -> usize {
        self.load(&epoch::pin()).inner.len()
    }

    /// A clone of the live partition map.
    pub(crate) fn partition_map(&self) -> PartitionMap {
        self.load(&epoch::pin()).map.clone()
    }

    /// One inner shard of the live generation.
    pub(crate) fn shard(&self, s: usize) -> Arc<MvSnapshot<T>> {
        Arc::clone(&self.load(&epoch::pin()).inner[s])
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
        self.load(&epoch::pin()).router.route(component).0
    }

    /// The generation number of the live layout.
    pub(crate) fn generation(&self) -> u64 {
        self.load(&epoch::pin()).router.generation()
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
    use psnap_core::PartialSnapshot;
    use psnap_shmem::ProcessId;
    use std::sync::Weak;
    use std::time::{Duration, Instant};

    /// `m` components over `shards` contiguous shards, component `c`
    /// holding `100 + c`.
    fn generations(m: usize, shards: usize) -> Generations<u64> {
        let gens = Generations::new(PartitionMap::new(m, shards, Partition::Contiguous), 1, 0);
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        for c in 0..m {
            let (shard, slot) = layout.router.route(c);
            layout.inner[shard].update(ProcessId(0), slot, 100 + c as u64);
        }
        gens
    }

    fn value(layout: &Layout<u64>, shard: usize, slot: usize) -> u64 {
        layout.inner[shard].scan(ProcessId(0), &[slot])[0]
    }

    fn values(gens: &Generations<u64>) -> Vec<u64> {
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        (0..layout.map.components())
            .map(|c| {
                let (shard, slot) = layout.router.route(c);
                value(layout, shard, slot)
            })
            .collect()
    }

    fn weak_shards(layout: &Layout<u64>) -> Vec<Weak<MvSnapshot<u64>>> {
        layout.inner.iter().map(Arc::downgrade).collect()
    }

    /// Nothing a reshard took is still held: no gate frozen, the batch
    /// serializer free.
    fn assert_released(gens: &Generations<u64>) {
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        assert!(
            layout
                .gates
                .iter()
                .all(|g| !g.frozen.load(Ordering::SeqCst)),
            "a reshard left a gate frozen"
        );
        assert!(
            gens.family.batches().try_lock().is_ok(),
            "a reshard left the serializer held"
        );
    }

    #[test]
    fn a_pinned_reader_outlives_two_swaps_and_retired_layouts_are_freed_once_it_unpins() {
        let gens = generations(8, 2);
        let expected: Vec<u64> = (100..108).collect();

        let reader = epoch::pin();
        let pinned = gens.load(&reader);
        let gen0 = weak_shards(pinned);
        assert!(gens.is_live(pinned));
        assert!(gens.reshard(ReshardOp::Split { shard: 0 }));
        assert!(gens.reshard(ReshardOp::Split { shard: 1 }));
        assert_eq!(gens.generation(), 2);
        assert_eq!(gens.shards(), 4);
        assert_eq!(gens.reshards(), 2);
        assert_eq!(
            values(&gens),
            expected,
            "a component moved without its value"
        );

        // Two generations behind, unlinked and retired — and still whole,
        // because the pin that loaded it is still held.
        assert!(!gens.is_live(pinned));
        assert_eq!(pinned.router.generation(), 0);
        assert_eq!(pinned.inner.len(), 2);
        for _ in 0..50 {
            epoch::flush();
        }
        assert!(
            gen0.iter().all(|w| w.strong_count() > 0),
            "a layout was freed under the pin that loaded it"
        );
        assert_eq!(value(pinned, 0, 3), 103);
        assert_eq!(value(pinned, 1, 0), 104);

        // Each split rebuilt one generation-0 shard object; the retired
        // layouts were the last owners of those two. (Other tests of this
        // process pin transiently, hence the loop.)
        drop(reader);
        let deadline = Instant::now() + Duration::from_secs(30);
        while gen0.iter().any(|w| w.strong_count() > 0) {
            epoch::flush();
            assert!(
                Instant::now() < deadline,
                "retired layouts were never freed: {} of 2 shard objects alive",
                gen0.iter().filter(|w| w.strong_count() > 0).count()
            );
            std::thread::yield_now();
        }

        // Dropping the core frees the live layout and with it the rest.
        let live = weak_shards(gens.load(&epoch::pin()));
        drop(gens);
        assert!(live.iter().all(|w| w.strong_count() == 0));
    }

    #[test]
    fn writer_entry_is_refused_holding_nothing_when_the_shard_is_frozen_or_the_pointer_moved() {
        let gens = generations(8, 2);
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        let writers = |s: usize| layout.gates[s].writers.load(Ordering::SeqCst);

        let permit = gens.enter_writer(layout, 0).expect("nothing is in the way");
        assert_eq!(writers(0), 1);
        drop(permit);
        assert_eq!(writers(0), 0);

        layout.freeze_and_drain(&[0]);
        assert!(
            gens.enter_writer(layout, 0).is_none(),
            "entered a frozen shard"
        );
        assert_eq!(writers(0), 0, "a refused entry left its count raised");
        assert!(
            gens.enter_writer(layout, 1).is_some(),
            "shard 1 is not frozen"
        );
        layout.unfreeze(&[0]);
        assert!(gens.enter_writer(layout, 0).is_some());

        // PR 8's schedule, made deterministic: load, then a whole reshard —
        // freeze, drain (seeing no writer), swap, unfreeze — then enter.
        // Shard 1 is not even affected: its gate was never frozen and is
        // shared with the successor, so only the pointer recheck can refuse.
        assert!(gens.reshard(ReshardOp::Split { shard: 0 }));
        for shard in [0, 1] {
            assert!(
                gens.enter_writer(layout, shard).is_none(),
                "entered shard {shard} of a generation that is no longer live"
            );
            assert_eq!(writers(shard), 0);
        }
        let fresh = gens.load(&guard);
        assert!(gens.enter_writer(fresh, 1).is_some());
    }

    #[test]
    fn gates_and_heat_are_shared_by_shard_id_and_an_appended_shard_starts_cold() {
        let gens = generations(8, 2);
        let guard = epoch::pin();
        let g0 = gens.load(&guard);
        g0.heat[0].add(5);
        g0.heat[1].add(7);

        assert!(gens.reshard(ReshardOp::Split { shard: 0 }));
        let g1 = gens.load(&guard);
        assert_eq!(g1.inner.len(), 3);
        for s in 0..2 {
            assert!(Arc::ptr_eq(&g0.gates[s], &g1.gates[s]), "gate {s} forked");
            assert!(Arc::ptr_eq(&g0.heat[s], &g1.heat[s]), "heat {s} forked");
        }
        assert!(
            !Arc::ptr_eq(&g0.inner[0], &g1.inner[0]),
            "shard 0 was rebuilt"
        );
        assert!(Arc::ptr_eq(&g0.inner[1], &g1.inner[1]), "shard 1 was not");
        assert_eq!(gens.heat(), vec![5, 7, 0]);
        assert_eq!(gens.shard_sizes(), vec![2, 4, 2]);

        // The emptied side of a merge keeps its object, gate and counter.
        assert!(gens.reshard(ReshardOp::Merge { from: 2, into: 0 }));
        let g2 = gens.load(&guard);
        assert_eq!(gens.shard_sizes(), vec![4, 4, 0]);
        assert!(Arc::ptr_eq(&g1.inner[2], &g2.inner[2]));
        for s in 0..3 {
            assert!(Arc::ptr_eq(&g1.gates[s], &g2.gates[s]), "gate {s} forked");
            assert!(Arc::ptr_eq(&g1.heat[s], &g2.heat[s]), "heat {s} forked");
        }
        assert!(
            !Arc::ptr_eq(&g1.inner[0], &g2.inner[0]),
            "the absorbing shard was rebuilt"
        );
        assert!(Arc::ptr_eq(&g1.inner[1], &g2.inner[1]), "shard 1 was not");
        assert_eq!(values(&gens), (100..108).collect::<Vec<u64>>());
        assert_released(&gens);
    }

    #[test]
    fn degenerate_ops_return_false_and_touch_nothing() {
        let gens = generations(4, 4);
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        for op in [
            ReshardOp::Split { shard: 0 }, // a single component
            ReshardOp::Split { shard: 9 },
            ReshardOp::Merge { from: 1, into: 1 },
            ReshardOp::Merge { from: 1, into: 9 },
        ] {
            assert!(!gens.reshard(op), "{op:?} was accepted");
        }
        assert!(gens.is_live(layout));
        assert_eq!(gens.generation(), 0);
        assert_eq!(gens.reshards(), 0);
        assert_released(&gens);
        // Nothing was left held: the next real op goes through.
        assert!(gens.reshard(ReshardOp::Merge { from: 1, into: 0 }));
        assert_eq!(gens.generation(), 1);
        assert_released(&gens);
    }
}
