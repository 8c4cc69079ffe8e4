//! Component-space partitioning: which shard owns which component, and how a
//! multi-component scan decomposes into per-shard sub-scans.
//!
//! Planning costs what the request costs: every dedupe on the scan and write
//! paths — [`ShardRouter::plan`], [`ScanUnion`], [`last_write_wins`] —
//! numbers its keys through one `FlatIndex`, a per-thread stamped hash
//! table sized to the call's own key count. A plan over `r` components does
//! O(r) expected work and touches O(r) memory whether the object has 2⁸
//! components or 2²⁰, and builds no tree.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Numbers distinct keys `0, 1, 2, …` in first-seen order — the one dedupe
/// behind scan planning, union building and last-write-wins batching.
///
/// An open-addressing table in which a slot belongs to the current pass only
/// if it carries the pass's stamp, so starting a pass is O(1) however full the
/// last one left the table, and a pass probes only the first
/// `2 × keys`-rounded-up slots, so its footprint follows its own key count
/// rather than the largest request the thread ever saw. Keys are component
/// indices chosen by clients, possibly remote ones: the multiply-shift hash
/// draws its odd multiplier at random per thread (a universal family), so no
/// peer can aim a request at one probe chain.
struct FlatIndex {
    slots: Vec<IndexSlot>,
    stamp: u32,
    len: u32,
    /// `64 - log2(slots in use)`: the hash keeps the product's top bits.
    shift: u32,
    multiplier: u64,
}

#[derive(Clone, Copy, Default)]
struct IndexSlot {
    key: usize,
    stamp: u32,
    index: u32,
}

impl FlatIndex {
    fn new() -> FlatIndex {
        FlatIndex {
            slots: Vec::new(),
            stamp: 0,
            len: 0,
            shift: 0,
            multiplier: RandomState::new().hash_one(0u64) | 1,
        }
    }

    /// Starts a pass over at most `keys` distinct keys, forgetting the last.
    fn begin(&mut self, keys: usize) {
        assert!(keys <= u32::MAX as usize / 2, "too many keys in one plan");
        let in_use = (keys * 2).next_power_of_two().max(8);
        if self.slots.len() < in_use {
            self.slots.resize(in_use, IndexSlot::default());
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // The stamp wrapped: slots written 2³² passes ago would read as
            // current. Stamp 0 is what a never-written slot carries.
            self.slots.fill(IndexSlot::default());
            self.stamp = 1;
        }
        self.len = 0;
        self.shift = 64 - in_use.trailing_zeros();
    }

    /// The number of `key` in first-seen order, and whether this call was
    /// the first to see it.
    #[inline]
    fn intern(&mut self, key: usize) -> (usize, bool) {
        let mask = (1usize << (64 - self.shift)) - 1;
        let mut at = ((key as u64).wrapping_mul(self.multiplier) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[at];
            if slot.stamp != self.stamp {
                *slot = IndexSlot {
                    key,
                    stamp: self.stamp,
                    index: self.len,
                };
                self.len += 1;
                return (slot.index as usize, true);
            }
            if slot.key == key {
                return (slot.index as usize, false);
            }
            at = (at + 1) & mask;
        }
    }
}

/// The calling thread's planning scratch. Nothing in it outlives a call:
/// every user starts its own [`FlatIndex::begin`] pass, which is what makes
/// reuse across routers, generations and callers safe.
struct PlanScratch {
    components: FlatIndex,
    shards: FlatIndex,
    /// `(group, index in group)` of each distinct component of the plan
    /// being built, by component number.
    located: Vec<(usize, usize)>,
}

thread_local! {
    static SCRATCH: RefCell<PlanScratch> = RefCell::new(PlanScratch {
        components: FlatIndex::new(),
        shards: FlatIndex::new(),
        located: Vec::new(),
    });
}

/// Resolves duplicate components **last-write-wins**: the surviving
/// `(component, value)` pairs in first-written order, each carrying the value
/// of its component's final occurrence. `batches` are read in order, as if
/// concatenated. The single definition of batch semantics for the service's
/// ingest rounds and both sharded stores' `update_many` paths.
pub fn last_write_wins<'a, T: 'a>(
    batches: impl IntoIterator<Item = &'a [(usize, T)], IntoIter: Clone>,
) -> Vec<(usize, &'a T)> {
    let batches = batches.into_iter();
    let total = batches.clone().map(<[_]>::len).sum();
    let mut latest: Vec<(usize, &T)> = Vec::with_capacity(total);
    SCRATCH.with_borrow_mut(|scratch| {
        let index = &mut scratch.components;
        index.begin(total);
        for (component, value) in batches.flatten() {
            let (i, first) = index.intern(*component);
            if first {
                latest.push((*component, value));
            } else {
                latest[i].1 = value;
            }
        }
    });
    latest
}

/// The deduplicated union of several scan requests, with the map that fans
/// one scan of the union back out to each request — the planning half of
/// scan coalescing for a caller that scans through the *outer* object and so
/// needs no routing (the object plans per shard itself).
#[derive(Clone, Debug)]
pub struct ScanUnion {
    /// The distinct requested components, in first-use order.
    pub components: Vec<usize>,
    /// For every requested position — the requests laid end to end — the
    /// index in [`components`](Self::components) that answers it.
    pub positions: Vec<usize>,
}

impl ScanUnion {
    /// Builds the union of `requests` (each unordered, duplicates allowed).
    pub fn of<'a>(requests: impl IntoIterator<Item = &'a [usize], IntoIter: Clone>) -> ScanUnion {
        let requests = requests.into_iter();
        let total = requests.clone().map(<[_]>::len).sum();
        let mut components = Vec::with_capacity(total);
        let mut positions = Vec::with_capacity(total);
        SCRATCH.with_borrow_mut(|scratch| {
            let index = &mut scratch.components;
            index.begin(total);
            for &component in requests.flatten() {
                let (i, first) = index.intern(component);
                if first {
                    components.push(component);
                }
                positions.push(i);
            }
        });
        ScanUnion {
            components,
            positions,
        }
    }
}

/// How the component space `0..m` is split across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Shard `s` owns a contiguous range of components (balanced: the first
    /// `m % k` shards own one extra component). Best when workloads have
    /// spatial locality — a scan of neighbouring components stays on one
    /// shard.
    Contiguous,
    /// Components are spread by a Fibonacci multiplicative hash. Best when a
    /// few hot components would otherwise overload one shard (the Zipf case):
    /// hashing decorrelates popularity from placement.
    Hashed,
}

/// How a [`MvShardedSnapshot`](crate::MvShardedSnapshot) lays out generation
/// 0 of its partition map; reshards take it from there.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Requested number of shards (clamped to `1..=m`).
    pub shards: usize,
    /// How components map to shards.
    pub partition: Partition,
}

impl ShardConfig {
    /// `shards` contiguous shards.
    pub fn contiguous(shards: usize) -> Self {
        ShardConfig {
            shards,
            partition: Partition::Contiguous,
        }
    }

    /// `shards` hash-partitioned shards.
    pub fn hashed(shards: usize) -> Self {
        ShardConfig {
            shards,
            partition: Partition::Hashed,
        }
    }

    /// `shards` contiguous shards; the same as [`contiguous`](Self::contiguous).
    pub fn multiversioned(shards: usize) -> Self {
        ShardConfig::contiguous(shards)
    }
}

/// An epoch-versioned component→shard assignment: the *routing state* of a
/// sharded snapshot object at one generation of its life.
///
/// The static [`Partition`] policy only seeds generation 0; every subsequent
/// generation is produced by [`split`](PartitionMap::split) /
/// [`merge`](PartitionMap::merge), which reassign components explicitly and
/// **strictly increase the generation number**. The map itself is immutable —
/// a live store swaps the pointer to its current generation and retires the
/// old one through the epoch module, so in-flight operations keep a coherent
/// view.
///
/// Invariants (the `partition_map` proptest suite holds every op sequence to
/// these): each component of `0..m` is owned by exactly one shard id below
/// [`shards`](PartitionMap::shards) — never lost, never doubly owned — and
/// the generation increases by exactly 1 per op. Shards may become empty
/// (the `from` side of a merge); empty shards own no routes and are skipped
/// by every plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMap {
    generation: u64,
    /// `assignment[c]` = owning shard id.
    assignment: Vec<u32>,
    /// Shard id space `0..shards` (ids stay stable across ops; splits append,
    /// merges empty a shard in place).
    shards: usize,
    /// The policy that seeded generation 0 (provenance only).
    partition: Partition,
}

impl PartitionMap {
    /// The generation-0 map: places `m` components onto (up to) `shards`
    /// shards following `partition`. The effective shard count is clamped to
    /// `1..=m` so that every initial shard owns at least one component.
    pub fn new(m: usize, shards: usize, partition: Partition) -> PartitionMap {
        assert!(m > 0, "a partition map needs at least one component");
        let k = shards.clamp(1, m);
        let mut assignment = vec![0u32; m];
        let effective = match partition {
            Partition::Contiguous => {
                let base = m / k;
                let extra = m % k;
                let mut next = 0usize;
                for s in 0..k {
                    let size = base + usize::from(s < extra);
                    for _ in 0..size {
                        assignment[next] = s as u32;
                        next += 1;
                    }
                }
                k
            }
            Partition::Hashed => {
                let mut used = vec![false; k];
                for (c, slot) in assignment.iter_mut().enumerate() {
                    let h = (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    // Multiply-shift onto 0..k: unbiased enough and cheap.
                    let s = (((h >> 32) * k as u64) >> 32) as usize;
                    *slot = s as u32;
                    used[s] = true;
                }
                // Hashing may leave a shard empty when k is close to m; fold
                // empty shards away by renumbering over non-empty ones so
                // generation-0 shards never have zero components.
                if used.iter().any(|u| !u) {
                    let mut renumber = vec![0u32; k];
                    let mut next = 0u32;
                    for (s, &u) in used.iter().enumerate() {
                        if u {
                            renumber[s] = next;
                            next += 1;
                        }
                    }
                    for slot in assignment.iter_mut() {
                        *slot = renumber[*slot as usize];
                    }
                    next as usize
                } else {
                    k
                }
            }
        };
        PartitionMap {
            generation: 0,
            assignment,
            shards: effective,
            partition,
        }
    }

    /// The map's generation number (0 for a freshly seeded map).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of components `m`.
    pub fn components(&self) -> usize {
        self.assignment.len()
    }

    /// The shard id space `0..shards` (some shards may be empty after a
    /// merge).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The policy that seeded generation 0.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// The shard owning `component`.
    pub fn shard_of(&self, component: usize) -> usize {
        self.assignment[component] as usize
    }

    /// The components owned by `shard`, ascending — slot order of the router
    /// built from this map.
    pub fn shard_components(&self, shard: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s as usize == shard)
            .map(|(c, _)| c)
            .collect()
    }

    /// Number of components owned by each shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for &s in &self.assignment {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Splits `shard` into two: the first ⌈size/2⌉ of its components (in
    /// slot order) stay on `shard`, the rest move to a **new shard appended
    /// at id `shards`**. Keeping a slot-order *prefix* in place is what lets
    /// a live store reuse the split shard's backing object for the kept half
    /// — the survivors' slots do not change. Returns `None` if the shard
    /// owns fewer than two components (nothing to split).
    pub fn split(&self, shard: usize) -> Option<PartitionMap> {
        if shard >= self.shards {
            return None;
        }
        let comps = self.shard_components(shard);
        if comps.len() < 2 {
            return None;
        }
        let keep = comps.len().div_ceil(2);
        let mut next = self.clone();
        for &c in &comps[keep..] {
            next.assignment[c] = self.shards as u32;
        }
        next.shards = self.shards + 1;
        next.generation = self.generation + 1;
        Some(next)
    }

    /// Merges `from` into `into`: every component of `from` moves to `into`,
    /// leaving `from` empty (its id stays allocated — ids are stable for the
    /// life of the map lineage). Returns `None` if the ids coincide or are
    /// out of range.
    pub fn merge(&self, from: usize, into: usize) -> Option<PartitionMap> {
        if from == into || from >= self.shards || into >= self.shards {
            return None;
        }
        let mut next = self.clone();
        for slot in next.assignment.iter_mut() {
            if *slot as usize == from {
                *slot = into as u32;
            }
        }
        next.generation = self.generation + 1;
        Some(next)
    }
}

/// Maps components to `(shard, slot)` pairs and back, and groups scan
/// requests by shard.
///
/// The mapping is computed once from a [`PartitionMap`] and stored as a flat
/// table, so routing is one array read regardless of how the map came about.
/// The mapping is a bijection from `0..m` onto `{(s, i) : s < shards, i <
/// shard_size(s)}` — every component lands in exactly one slot of exactly one
/// shard, which is what makes the sharded object's per-shard sub-scans cover
/// exactly the requested components. Slots within a shard are assigned in
/// ascending component order.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    /// `routes[c] = (shard, slot)`.
    routes: Vec<(u32, u32)>,
    /// Number of slots per shard.
    sizes: Vec<usize>,
    /// `inverse[shard][slot] = component`.
    inverse: Vec<Vec<usize>>,
    partition: Partition,
    generation: u64,
}

impl ShardRouter {
    /// Builds a generation-0 router over `m` components and (up to) `shards`
    /// shards — shorthand for [`ShardRouter::from_map`] over
    /// [`PartitionMap::new`].
    pub fn new(m: usize, shards: usize, partition: Partition) -> ShardRouter {
        ShardRouter::from_map(&PartitionMap::new(m, shards, partition))
    }

    /// Builds the routing tables for one generation of a partition map.
    /// Slots within each shard follow ascending component order; empty
    /// shards get zero slots and never appear in a plan.
    pub fn from_map(map: &PartitionMap) -> ShardRouter {
        let m = map.components();
        let mut routes = vec![(0u32, 0u32); m];
        let mut inverse: Vec<Vec<usize>> = vec![Vec::new(); map.shards()];
        for (c, route) in routes.iter_mut().enumerate() {
            let s = map.shard_of(c);
            let slot = inverse[s].len();
            *route = (s as u32, slot as u32);
            inverse[s].push(c);
        }
        let sizes = inverse.iter().map(Vec::len).collect();
        ShardRouter {
            routes,
            sizes,
            inverse,
            partition: map.partition(),
            generation: map.generation(),
        }
    }

    /// Number of components `m`.
    pub fn components(&self) -> usize {
        self.routes.len()
    }

    /// Effective number of shards.
    pub fn shards(&self) -> usize {
        self.sizes.len()
    }

    /// The partition policy that seeded this router's map lineage.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// The generation of the partition map this router was built from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of components owned by `shard`.
    pub fn shard_size(&self, shard: usize) -> usize {
        self.sizes[shard]
    }

    /// Routes a component to its `(shard, slot)` pair.
    #[inline]
    pub fn route(&self, component: usize) -> (usize, usize) {
        let (s, i) = self.routes[component];
        (s as usize, i as usize)
    }

    /// The inverse of [`route`](Self::route).
    pub fn component_of(&self, shard: usize, slot: usize) -> usize {
        self.inverse[shard][slot]
    }

    /// Resolves a batch's duplicate components [`last_write_wins`] and
    /// groups the surviving writes by shard as `(shard, [(slot, value)])`,
    /// shards ascending and slots ascending within each — the write-side
    /// counterpart of [`plan`](Self::plan), shared by both sharded stores'
    /// `update_many` paths so the batch semantics cannot drift apart.
    pub fn group_last_write_wins<T: Clone>(
        &self,
        writes: &[(usize, T)],
    ) -> Vec<(usize, Vec<(usize, T)>)> {
        let mut routed: Vec<(usize, usize, &T)> = last_write_wins([writes])
            .into_iter()
            .map(|(component, value)| {
                let (shard, slot) = self.route(component);
                (shard, slot, value)
            })
            .collect();
        routed.sort_unstable_by_key(|&(shard, slot, _)| (shard, slot));
        let mut by_shard: Vec<(usize, Vec<(usize, T)>)> = Vec::new();
        for (shard, slot, value) in routed {
            match by_shard.last_mut() {
                Some((last, sub)) if *last == shard => sub.push((slot, value.clone())),
                _ => by_shard.push((shard, vec![(slot, value.clone())])),
            }
        }
        by_shard
    }

    /// Decomposes a scan request into per-shard sub-scans.
    ///
    /// `components` may be unordered and contain duplicates, exactly like the
    /// argument of `PartialSnapshot::scan`; the plan records, for every
    /// requested position, where its value will sit in the sub-scan results,
    /// so [`ScanPlan::assemble`] can rebuild the answer in request order with
    /// duplicates answered per occurrence.
    ///
    /// Duplicate components are **deduplicated at planning time**: each
    /// `(shard, slot)` pair appears at most once in the sub-scan argument of
    /// its shard, so a scan like `[15, 0, 15]` issues slot 15's read to the
    /// inner shard once and `assemble` fans the single value back out to
    /// every requesting position. Inner shards never pay for a duplicate
    /// twice. (Several requests share one plan by way of [`ScanUnion`].)
    ///
    /// One pass over the requested components, each numbered through the
    /// calling thread's `FlatIndex` scratch: O(r) expected work, nothing
    /// proportional to `m`, no base object touched.
    pub fn plan(&self, components: &[usize]) -> ScanPlan {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut positions = Vec::with_capacity(components.len());
        SCRATCH.with_borrow_mut(|scratch| {
            let PlanScratch {
                components: distinct,
                shards,
                located,
            } = scratch;
            distinct.begin(components.len());
            shards.begin(components.len().min(self.shards()));
            located.clear();
            for &c in components {
                let (i, first) = distinct.intern(c);
                if first {
                    let (shard, slot) = self.route(c);
                    let (g, new_group) = shards.intern(shard);
                    if new_group {
                        // Room for everything that can still land here, so
                        // a group's slots are allocated once.
                        let room = (components.len() - i).min(self.sizes[shard]);
                        groups.push((shard, Vec::with_capacity(room)));
                    }
                    located.push((g, groups[g].1.len()));
                    groups[g].1.push(slot);
                }
                positions.push(located[i]);
            }
        });
        ScanPlan { groups, positions }
    }
}

/// A scan request decomposed by shard (see [`ShardRouter::plan`]).
#[derive(Clone, Debug)]
pub struct ScanPlan {
    /// `(shard index, deduplicated slots to scan on that shard)`, in first-use
    /// order. No `(shard, slot)` pair appears twice.
    pub groups: Vec<(usize, Vec<usize>)>,
    /// For each position of the original request: which group and which index
    /// inside that group's sub-scan result holds its value.
    pub positions: Vec<(usize, usize)>,
}

impl ScanPlan {
    /// True if the request touched more than one shard.
    pub fn is_cross_shard(&self) -> bool {
        self.groups.len() > 1
    }

    /// Rebuilds the scan answer in request order from per-group sub-scan
    /// results (`results[g]` must be the values for `groups[g].1`).
    pub fn assemble<T: Clone>(&self, results: &[Vec<T>]) -> Vec<T> {
        self.positions
            .iter()
            .map(|&(g, pos)| results[g][pos].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_partition_is_balanced_and_ordered() {
        let router = ShardRouter::new(10, 4, Partition::Contiguous);
        assert_eq!(router.shards(), 4);
        let sizes: Vec<usize> = (0..4).map(|s| router.shard_size(s)).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // Components of one shard are contiguous.
        assert_eq!(router.route(0), (0, 0));
        assert_eq!(router.route(2), (0, 2));
        assert_eq!(router.route(3), (1, 0));
        assert_eq!(router.route(9), (3, 1));
    }

    #[test]
    fn routing_is_a_bijection_for_both_partitions() {
        for partition in [Partition::Contiguous, Partition::Hashed] {
            let router = ShardRouter::new(97, 8, partition);
            let mut seen = std::collections::BTreeSet::new();
            for c in 0..97 {
                let (s, i) = router.route(c);
                assert!(s < router.shards());
                assert!(i < router.shard_size(s));
                assert!(seen.insert((s, i)), "{partition:?}: duplicate slot");
                assert_eq!(router.component_of(s, i), c);
            }
            assert_eq!(seen.len(), 97);
            let total: usize = (0..router.shards())
                .map(|s| router.shard_size(s))
                .collect::<Vec<_>>()
                .iter()
                .sum();
            assert_eq!(total, 97);
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        let router = ShardRouter::new(3, 16, Partition::Contiguous);
        assert_eq!(router.shards(), 3);
        let router = ShardRouter::new(5, 0, Partition::Hashed);
        assert_eq!(router.shards(), 1);
    }

    #[test]
    fn hashed_partition_never_leaves_a_shard_empty() {
        for m in [4usize, 5, 7, 9, 16, 33] {
            for k in 1..=m {
                let router = ShardRouter::new(m, k, Partition::Hashed);
                for s in 0..router.shards() {
                    assert!(router.shard_size(s) > 0, "m={m} k={k} shard {s} empty");
                }
            }
        }
    }

    #[test]
    fn plan_handles_duplicates_and_order() {
        let router = ShardRouter::new(8, 2, Partition::Contiguous);
        // Shard 0 owns 0..4, shard 1 owns 4..8.
        let plan = router.plan(&[6, 1, 6, 0, 1]);
        assert!(plan.is_cross_shard());
        assert_eq!(plan.groups.len(), 2);
        // First-use order: shard 1 first (component 6 leads the request).
        assert_eq!(plan.groups[0], (1, vec![2]));
        assert_eq!(plan.groups[1], (0, vec![1, 0]));
        let assembled = plan.assemble(&[vec![60], vec![10, 0]]);
        assert_eq!(assembled, vec![60, 10, 60, 0, 10]);
    }

    #[test]
    fn plan_never_forwards_a_duplicate_slot_to_an_inner_scan() {
        // Inner-scan argument sets must be duplicate-free while the assembled
        // output preserves the request's order and duplication.
        for partition in [Partition::Contiguous, Partition::Hashed] {
            let router = ShardRouter::new(16, 4, partition);
            let request = [15usize, 0, 15, 3, 0, 15, 9, 9];
            let plan = router.plan(&request);
            for (shard, slots) in &plan.groups {
                let mut deduped = slots.clone();
                deduped.sort_unstable();
                deduped.dedup();
                assert_eq!(
                    deduped.len(),
                    slots.len(),
                    "{partition:?}: shard {shard} asked to scan a slot twice: {slots:?}"
                );
            }
            // Total forwarded work is the number of *distinct* components.
            let forwarded: usize = plan.groups.iter().map(|(_, s)| s.len()).sum();
            assert_eq!(forwarded, 4, "{partition:?}");
            // Fan-out restores order and duplication: give slot of component c
            // the value 100 + c and check the assembled answer positionally.
            let results: Vec<Vec<u64>> = plan
                .groups
                .iter()
                .map(|(shard, slots)| {
                    slots
                        .iter()
                        .map(|&slot| 100 + router.component_of(*shard, slot) as u64)
                        .collect()
                })
                .collect();
            let assembled = plan.assemble(&results);
            let expected: Vec<u64> = request.iter().map(|&c| 100 + c as u64).collect();
            assert_eq!(assembled, expected, "{partition:?}");
        }
    }

    #[test]
    fn union_never_duplicates_components() {
        // However many overlapping requests are merged, every component is
        // in the union once, so the backing scan's plan forwards every
        // (shard, slot) pair at most once.
        let requests: Vec<Vec<usize>> = vec![
            vec![0, 5, 10, 15],
            vec![5, 5, 0],
            vec![],
            vec![10, 11, 12, 0],
            vec![15],
        ];
        let union = ScanUnion::of(requests.iter().map(Vec::as_slice));
        // First-use order, each component once.
        assert_eq!(union.components, vec![0, 5, 10, 15, 11, 12]);
        assert_eq!(
            union.positions.len(),
            requests.iter().map(Vec::len).sum::<usize>()
        );
        for partition in [Partition::Contiguous, Partition::Hashed] {
            let router = ShardRouter::new(16, 4, partition);
            let plan = router.plan(&union.components);
            let forwarded: usize = plan.groups.iter().map(|(_, slots)| slots.len()).sum();
            assert_eq!(forwarded, union.components.len(), "{partition:?}");
        }
    }

    #[test]
    fn union_fans_results_back_per_request() {
        let requests: Vec<Vec<usize>> = vec![vec![15, 0, 15], vec![3, 9], vec![], vec![9, 0]];
        let union = ScanUnion::of(requests.iter().map(Vec::as_slice));
        // Give component c the value 100 + c and check each request's answer
        // positionally: requests own consecutive runs of `positions`.
        let values: Vec<u64> = union.components.iter().map(|&c| 100 + c as u64).collect();
        let mut positions = union.positions.as_slice();
        for (k, request) in requests.iter().enumerate() {
            let (own, rest) = positions.split_at(request.len());
            positions = rest;
            let answer: Vec<u64> = own.iter().map(|&at| values[at]).collect();
            let expected: Vec<u64> = request.iter().map(|&c| 100 + c as u64).collect();
            assert_eq!(answer, expected, "request {k}");
        }
        assert!(positions.is_empty());
    }

    #[test]
    fn last_write_wins_keeps_first_written_order_and_final_values() {
        let first = [(7usize, 'a'), (2, 'b'), (7, 'c')];
        let second = [(2usize, 'd'), (9, 'e')];
        let latest = last_write_wins([&first[..], &[][..], &second[..]]);
        assert_eq!(latest, vec![(7, &'c'), (2, &'d'), (9, &'e')]);
        assert!(last_write_wins::<char>([]).is_empty());
    }

    #[test]
    fn grouped_writes_are_ascending_by_shard_then_slot() {
        for partition in [Partition::Contiguous, Partition::Hashed] {
            let router = ShardRouter::new(32, 4, partition);
            let writes: Vec<(usize, u64)> = [31usize, 4, 17, 4, 0, 25, 9, 31, 16]
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i as u64))
                .collect();
            let by_shard = router.group_last_write_wins(&writes);
            assert!(
                by_shard.windows(2).all(|w| w[0].0 < w[1].0),
                "{partition:?}"
            );
            let mut seen = Vec::new();
            for (shard, sub) in &by_shard {
                assert!(sub.windows(2).all(|w| w[0].0 < w[1].0), "{partition:?}");
                for &(slot, value) in sub {
                    seen.push((router.component_of(*shard, slot), value));
                }
            }
            seen.sort_unstable();
            // Components 4 and 31 keep their last value (3 and 7).
            assert_eq!(
                seen,
                vec![(0, 4), (4, 3), (9, 6), (16, 8), (17, 2), (25, 5), (31, 7)],
                "{partition:?}"
            );
        }
    }

    #[test]
    fn flat_index_survives_growth_shrinkage_and_stamp_wrap() {
        let mut index = FlatIndex::new();
        // A large pass leaves its slots behind; a small pass after it must
        // not see them, nor must the pass after the stamp wraps.
        index.begin(1000);
        for key in 0..1000 {
            assert_eq!(index.intern(key * 7), (key, true));
        }
        assert_eq!(index.intern(21), (3, false));
        index.begin(2);
        assert_eq!(index.intern(21), (0, true));
        assert_eq!(index.intern(0), (1, true));
        index.stamp = u32::MAX;
        index.begin(2);
        assert_eq!(index.stamp, 1);
        assert_eq!(index.intern(0), (0, true));
        assert_eq!(index.intern(0), (0, false));
    }

    #[test]
    fn partition_map_split_keeps_a_slot_prefix_in_place() {
        let map = PartitionMap::new(10, 2, Partition::Contiguous);
        // Shard 0 owns 0..5, shard 1 owns 5..10.
        let split = map.split(0).expect("shard 0 is splittable");
        assert_eq!(split.generation(), 1);
        assert_eq!(split.shards(), 3);
        // The first ⌈5/2⌉ = 3 components stay; the rest move to the new id.
        assert_eq!(split.shard_components(0), vec![0, 1, 2]);
        assert_eq!(split.shard_components(2), vec![3, 4]);
        assert_eq!(split.shard_components(1), vec![5, 6, 7, 8, 9]);
        // Survivors keep their slots in the router built from the new map.
        let before = ShardRouter::from_map(&map);
        let after = ShardRouter::from_map(&split);
        for c in 0..3 {
            assert_eq!(
                before.route(c),
                after.route(c),
                "kept component {c} moved slots"
            );
        }
        assert_eq!(after.generation(), 1);
    }

    #[test]
    fn partition_map_merge_empties_the_source_shard() {
        let map = PartitionMap::new(8, 4, Partition::Contiguous);
        let merged = map.merge(3, 1).expect("distinct in-range shards merge");
        assert_eq!(merged.generation(), 1);
        assert_eq!(merged.shards(), 4, "ids stay allocated");
        assert!(merged.shard_components(3).is_empty());
        assert_eq!(merged.shard_components(1), vec![2, 3, 6, 7]);
        // Empty shards route nothing and plans skip them.
        let router = ShardRouter::from_map(&merged);
        assert_eq!(router.shard_size(3), 0);
        let plan = router.plan(&[0, 3, 6]);
        assert!(plan.groups.iter().all(|(s, _)| *s != 3));
        assert_eq!(
            plan.assemble(
                &plan
                    .groups
                    .iter()
                    .map(|(s, slots)| slots.iter().map(|&i| router.component_of(*s, i)).collect())
                    .collect::<Vec<Vec<usize>>>()
            ),
            vec![0, 3, 6]
        );
    }

    #[test]
    fn partition_map_rejects_degenerate_ops() {
        let map = PartitionMap::new(4, 4, Partition::Contiguous);
        assert!(map.split(0).is_none(), "singleton shards cannot split");
        assert!(map.split(9).is_none(), "out-of-range split");
        assert!(map.merge(1, 1).is_none(), "self-merge");
        assert!(map.merge(0, 7).is_none(), "out-of-range merge");
    }

    #[test]
    fn routers_from_maps_match_direct_construction() {
        for partition in [Partition::Contiguous, Partition::Hashed] {
            for (m, k) in [(1usize, 1usize), (7, 3), (97, 8), (16, 16)] {
                let direct = ShardRouter::new(m, k, partition);
                let mapped = ShardRouter::from_map(&PartitionMap::new(m, k, partition));
                assert_eq!(
                    direct.shards(),
                    mapped.shards(),
                    "{partition:?} m={m} k={k}"
                );
                for c in 0..m {
                    assert_eq!(
                        direct.route(c),
                        mapped.route(c),
                        "{partition:?} m={m} k={k} c={c}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_shard_plans_are_recognized() {
        let router = ShardRouter::new(8, 2, Partition::Contiguous);
        let plan = router.plan(&[1, 3, 2]);
        assert!(!plan.is_cross_shard());
        let empty = router.plan(&[]);
        assert!(!empty.is_cross_shard());
        assert!(empty.assemble::<u64>(&[]).is_empty());
    }
}
