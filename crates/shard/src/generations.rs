//! The one generation mechanism both sharded stores route through.
//!
//! A [`Layout`] is one immutable generation of a store's routing state: the
//! partition map, its router, the inner shard objects, one writer [`Gate`]
//! and one heat counter per shard. [`Generations`] holds the live layout
//! behind the crate's only `AtomicPtr` and is the only code that
//! dereferences, swaps, retires or frees it:
//!
//! * **readers** pin the epoch and [`load`](Generations::load) — the one way
//!   to obtain a `&Layout`, valid for the guard — and, where their protocol
//!   needs it, ask afterwards whether that layout
//!   [`is_live`](Generations::is_live);
//! * **writers** mutate a shard only while holding the [`WriterPermit`] that
//!   [`enter_writer`](Generations::enter_writer) hands out after raising the
//!   shard's gate and *then* re-checking the gate's frozen flag and the
//!   pointer. PR 8's lost update was this recheck missing from one of four
//!   hand-written copies; here it is a value a store has to obtain;
//! * **resharders** call [`reshard`](Generations::reshard), which owns the
//!   skeleton — serialize, split or merge the map, quiesce, build the
//!   successor, swap, release, retire — and asks the store for only the three
//!   steps that differ: how to quiesce its writers, how to build one rebuilt
//!   shard from the old shards' contents, and how to release.
//!
//! Unaffected shards are shared between consecutive layouts by `Arc`, and
//! gates and heat counters are shared **by shard id** even for rebuilt
//! shards: a writer counted against generation `g` stays visible to a
//! resharder running at `g + 1`, and an old-generation scan still in flight
//! validates against the very registers new-generation writers bump.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use psnap_core::ReshardOp;
use psnap_obs::{trace, Counter, Metric, Registry, TraceKind};
use psnap_shmem::epoch::{self, Guard};
use psnap_shmem::steps::{self, OpKind};

use crate::partition::{PartitionMap, ShardRouter};

/// One shard's writer gate, padded to its own cache line: lets a reshard
/// drain the writers of the shards it rebuilds without touching writers
/// elsewhere. `regs` is whatever per-shard registers a store's own protocol
/// keeps on the same line (the coordinated store's epochs and batch marks;
/// nothing for the multiversioned store). The count and the flag are
/// private: a count is raised only by [`Generations::enter_writer`].
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Gate<R> {
    /// Writers currently mutating the shard.
    writers: AtomicU64,
    /// Raised while a reshard is rebuilding the shard: writers back off
    /// (lower their count and retry on a fresh load) instead of mutating
    /// contents that are being copied out.
    frozen: AtomicBool,
    pub(crate) regs: R,
}

impl<R> Gate<R> {
    /// Writers currently inside the shard.
    #[inline]
    pub(crate) fn writers(&self) -> u64 {
        self.writers.load(Ordering::SeqCst)
    }
}

/// One generation of a store's routing state. Immutable once published.
pub(crate) struct Layout<I, R> {
    pub(crate) map: PartitionMap,
    pub(crate) router: ShardRouter,
    pub(crate) inner: Vec<Arc<I>>,
    pub(crate) gates: Vec<Arc<Gate<R>>>,
    /// Per-shard operation heat. Survivors keep their counter across
    /// generations; shards appended by a split start cold, which is what
    /// makes post-split skew directly observable.
    pub(crate) heat: Vec<Arc<Counter>>,
}

impl<I, R> Layout<I, R> {
    /// Freezes `shards` and waits for the writers already inside them to
    /// leave. Every writer is bracketed by a raised count (SeqCst): either
    /// this drain observes the raise and waits for the write to land, or the
    /// writer's recheck observes the freeze and backs off. Writers to other
    /// shards continue untouched.
    pub(crate) fn freeze_and_drain(&self, shards: &[usize]) {
        for &s in shards {
            self.gates[s].frozen.store(true, Ordering::SeqCst);
        }
        for &s in shards {
            while self.gates[s].writers() != 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Reopens `shards`. Gates are shared by shard id, so this reaches the
    /// writers that backed off whichever layout they loaded; they reload the
    /// pointer and land on the successor.
    pub(crate) fn unfreeze(&self, shards: &[usize]) {
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

/// The live [`Layout`] of a sharded store and everything that may touch the
/// pointer to it.
pub(crate) struct Generations<I, R> {
    live: AtomicPtr<Layout<I, R>>,
    /// Serializes reshard operations against each other.
    reshard_lock: Mutex<()>,
    /// Reshard operations that changed the layout.
    reshards: Arc<Counter>,
}

impl<I, R> Drop for Generations<I, R> {
    fn drop(&mut self) {
        // SAFETY: `live` always holds a pointer from `Box::into_raw` that
        // has not been retired — `reshard` retires only what it unlinked —
        // and `&mut self` means no operation is left to dereference it.
        // Retired predecessors belong to the epoch module.
        drop(unsafe { Box::from_raw(*self.live.get_mut()) });
    }
}

impl<I, R> Generations<I, R>
where
    I: Send + Sync + 'static,
    R: Default + Send + Sync + 'static,
{
    /// Generation 0 over `map`; `build(shard, size)` makes each inner shard.
    pub(crate) fn new(map: PartitionMap, mut build: impl FnMut(usize, usize) -> I) -> Self {
        let router = ShardRouter::from_map(&map);
        let shards = router.shards();
        let layout = Layout {
            inner: (0..shards)
                .map(|s| Arc::new(build(s, router.shard_size(s))))
                .collect(),
            gates: (0..shards).map(|_| Arc::default()).collect(),
            heat: (0..shards).map(|_| Arc::default()).collect(),
            map,
            router,
        };
        Generations {
            live: AtomicPtr::new(Box::into_raw(Box::new(layout))),
            reshard_lock: Mutex::new(()),
            reshards: Arc::default(),
        }
    }

    /// The live layout, dereferenceable for as long as `guard` pins the
    /// calling thread.
    #[inline]
    pub(crate) fn load<'g>(&self, _guard: &'g Guard) -> &'g Layout<I, R> {
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
    pub(crate) fn is_live(&self, layout: &Layout<I, R>) -> bool {
        std::ptr::eq(self.live.load(Ordering::Acquire), layout)
    }

    /// Raises the writer count of `shard` and only then checks that the
    /// shard is not frozen and that `layout` is still live. `None` means a
    /// reshard is rebuilding the shard or has replaced the layout; nothing
    /// is held and the caller retries on a fresh [`load`](Self::load).
    #[inline]
    pub(crate) fn enter_writer<'g>(
        &self,
        layout: &'g Layout<I, R>,
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

    /// The reshard skeleton. `quiesce(old, affected)` must stop every writer
    /// that could mutate the affected shards (at least
    /// [`freeze_and_drain`](Layout::freeze_and_drain) on them) and returns
    /// whatever the store holds meanwhile; `build(&held, shard, sources)`
    /// makes one rebuilt shard whose slot `i` takes over the contents of
    /// slot `sources[i].1` of the old shard object `sources[i].0`;
    /// `release(held, old, affected)` reopens what `quiesce` closed and runs
    /// once the successor is published. Returns `false`, having called none
    /// of the three, for degenerate requests: splitting a shard with fewer
    /// than two components, merging a shard into itself, out-of-range ids.
    pub(crate) fn reshard<Q>(
        &self,
        op: ReshardOp,
        quiesce: impl FnOnce(&Layout<I, R>, &[usize]) -> Q,
        build: impl Fn(&Q, usize, &[(&I, usize)]) -> I,
        release: impl FnOnce(Q, &Layout<I, R>, &[usize]),
    ) -> bool {
        let _serial = self.reshard_lock.lock().unwrap_or_else(|e| e.into_inner());
        let guard = epoch::pin();
        // Only resharders swap the pointer and we hold their lock, so `old`
        // stays the live layout until our own swap below.
        let old = self.load(&guard);
        let (map, affected) = match op {
            ReshardOp::Split { shard } => (old.map.split(shard), vec![shard]),
            ReshardOp::Merge { from, into } => (old.map.merge(from, into), vec![from, into]),
        };
        let Some(map) = map else {
            return false;
        };
        let held = quiesce(old, &affected);
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
            // the swap are counted by, validate against and account to the
            // same registers; a freshly appended shard starts cold.
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
            let sources: Vec<(&I, usize)> = (0..size)
                .map(|slot| {
                    let (from, from_slot) = old.router.route(next.router.component_of(s, slot));
                    (&*old.inner[from], from_slot)
                })
                .collect();
            next.inner.push(Arc::new(build(&held, s, &sources)));
        }
        let generation = next.map.generation();
        let migrated = (0..next.map.components())
            .filter(|&c| old.map.shard_of(c) != next.map.shard_of(c))
            .count() as u64;
        let unlinked = self
            .live
            .swap(Box::into_raw(Box::new(next)), Ordering::AcqRel);
        debug_assert!(std::ptr::eq(unlinked, old), "swapped outside reshard_lock");
        release(held, old, &affected);
        // SAFETY: `unlinked` came from `Box::into_raw`, the swap above
        // removed it from the only shared location — nobody can load it
        // anymore — and each swap returns a given pointer once, so it is
        // retired once. Our pin and every straddling reader's keep it alive
        // until they are done with it.
        unsafe { epoch::retire(unlinked) };
        self.reshards.inc();
        trace::emit(TraceKind::Reshard, generation, migrated);
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
    pub(crate) fn shard(&self, s: usize) -> Arc<I> {
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
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// The smallest thing that can stand in for a shard: one word per slot,
    /// and a `Drop` that counts, so a freed layout is observable.
    struct Words {
        slots: Vec<AtomicU64>,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Words {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    type TestGenerations = Generations<Words, ()>;

    /// `m` components over `shards` contiguous shards, component `c`
    /// holding `100 + c`.
    fn generations(m: usize, shards: usize, drops: &Arc<AtomicUsize>) -> TestGenerations {
        let gens = Generations::new(
            PartitionMap::new(m, shards, Partition::Contiguous),
            |_, size| Words {
                slots: (0..size).map(|_| AtomicU64::new(0)).collect(),
                drops: Arc::clone(drops),
            },
        );
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        for c in 0..m {
            let (shard, slot) = layout.router.route(c);
            layout.inner[shard].slots[slot].store(100 + c as u64, Ordering::SeqCst);
        }
        gens
    }

    fn values(gens: &TestGenerations) -> Vec<u64> {
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        (0..layout.map.components())
            .map(|c| {
                let (shard, slot) = layout.router.route(c);
                layout.inner[shard].slots[slot].load(Ordering::SeqCst)
            })
            .collect()
    }

    /// A reshard whose store-supplied steps are the minimum the contract
    /// asks for: freeze and drain the affected shards, copy word by word,
    /// unfreeze. Counts how often each of the three ran.
    #[derive(Default)]
    struct Calls {
        quiesce: Cell<usize>,
        build: Cell<usize>,
        release: Cell<usize>,
    }

    fn reshard(
        gens: &TestGenerations,
        op: ReshardOp,
        drops: &Arc<AtomicUsize>,
        calls: &Calls,
    ) -> bool {
        gens.reshard(
            op,
            |old, affected| {
                calls.quiesce.set(calls.quiesce.get() + 1);
                old.freeze_and_drain(affected);
            },
            |(), _, sources| {
                calls.build.set(calls.build.get() + 1);
                Words {
                    slots: sources
                        .iter()
                        .map(|(from, slot)| {
                            AtomicU64::new(from.slots[*slot].load(Ordering::SeqCst))
                        })
                        .collect(),
                    drops: Arc::clone(drops),
                }
            },
            |(), old, affected| {
                calls.release.set(calls.release.get() + 1);
                old.unfreeze(affected);
            },
        )
    }

    #[test]
    fn a_pinned_reader_outlives_two_swaps_and_retired_layouts_are_freed_once_it_unpins() {
        let drops = Arc::new(AtomicUsize::new(0));
        let calls = Calls::default();
        let gens = generations(8, 2, &drops);
        let expected: Vec<u64> = (100..108).collect();

        let reader = epoch::pin();
        let pinned = gens.load(&reader);
        assert!(gens.is_live(pinned));
        assert!(reshard(
            &gens,
            ReshardOp::Split { shard: 0 },
            &drops,
            &calls
        ));
        assert!(reshard(
            &gens,
            ReshardOp::Split { shard: 1 },
            &drops,
            &calls
        ));
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
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "a layout was freed under the pin that loaded it"
        );
        assert_eq!(pinned.inner[0].slots[3].load(Ordering::SeqCst), 103);
        assert_eq!(pinned.inner[1].slots[0].load(Ordering::SeqCst), 104);

        // Each split rebuilt one generation-0 shard object; the retired
        // layouts were the last owners of those two. (Other tests of this
        // process pin transiently, hence the loop.)
        drop(reader);
        let deadline = Instant::now() + Duration::from_secs(30);
        while drops.load(Ordering::SeqCst) < 2 {
            epoch::flush();
            assert!(
                Instant::now() < deadline,
                "retired layouts were never freed: {} of 2 shard objects dropped",
                drops.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 2);

        // Dropping the core frees the live layout and with it the rest.
        drop(gens);
        assert_eq!(drops.load(Ordering::SeqCst), 2 + 4);
    }

    #[test]
    fn writer_entry_is_refused_holding_nothing_when_the_shard_is_frozen_or_the_pointer_moved() {
        let drops = Arc::new(AtomicUsize::new(0));
        let gens = generations(8, 2, &drops);
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        let writers = |s: usize| layout.gates[s].writers();

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
        assert!(reshard(
            &gens,
            ReshardOp::Split { shard: 0 },
            &drops,
            &Calls::default()
        ));
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
        let drops = Arc::new(AtomicUsize::new(0));
        let calls = Calls::default();
        let gens = generations(8, 2, &drops);
        let guard = epoch::pin();
        let g0 = gens.load(&guard);
        g0.heat[0].add(5);
        g0.heat[1].add(7);

        assert!(reshard(
            &gens,
            ReshardOp::Split { shard: 0 },
            &drops,
            &calls
        ));
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
        assert_eq!(calls.build.get(), 2, "the kept half and the appended half");

        // The emptied side of a merge keeps its object, gate and counter.
        assert!(reshard(
            &gens,
            ReshardOp::Merge { from: 2, into: 0 },
            &drops,
            &calls
        ));
        let g2 = gens.load(&guard);
        assert_eq!(gens.shard_sizes(), vec![4, 4, 0]);
        assert!(Arc::ptr_eq(&g1.inner[2], &g2.inner[2]));
        for s in 0..3 {
            assert!(Arc::ptr_eq(&g1.gates[s], &g2.gates[s]), "gate {s} forked");
            assert!(Arc::ptr_eq(&g1.heat[s], &g2.heat[s]), "heat {s} forked");
        }
        assert_eq!(calls.build.get(), 3, "only the absorbing shard was rebuilt");
        assert_eq!(values(&gens), (100..108).collect::<Vec<u64>>());
        assert_eq!((calls.quiesce.get(), calls.release.get()), (2, 2));
        assert!(
            g2.gates.iter().all(|g| !g.frozen.load(Ordering::SeqCst)),
            "a reshard left a gate frozen"
        );
    }

    #[test]
    fn degenerate_ops_return_false_and_touch_nothing() {
        let drops = Arc::new(AtomicUsize::new(0));
        let calls = Calls::default();
        let gens = generations(4, 4, &drops);
        let guard = epoch::pin();
        let layout = gens.load(&guard);
        for op in [
            ReshardOp::Split { shard: 0 }, // a single component
            ReshardOp::Split { shard: 9 },
            ReshardOp::Merge { from: 1, into: 1 },
            ReshardOp::Merge { from: 1, into: 9 },
        ] {
            assert!(!reshard(&gens, op, &drops, &calls), "{op:?} was accepted");
        }
        assert!(gens.is_live(layout));
        assert_eq!(gens.generation(), 0);
        assert_eq!(gens.reshards(), 0);
        assert_eq!(
            (calls.quiesce.get(), calls.build.get(), calls.release.get()),
            (0, 0, 0),
            "a refused op quiesced the store"
        );
        // Nothing was left held: the next real op goes through.
        assert!(reshard(
            &gens,
            ReshardOp::Merge { from: 1, into: 0 },
            &drops,
            &calls
        ));
        assert_eq!((calls.quiesce.get(), calls.release.get()), (1, 1));
    }
}
