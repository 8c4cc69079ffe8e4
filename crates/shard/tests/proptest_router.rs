//! Property-based tests for the shard router and the sharded store.
//!
//! * partition/route round-trips: `route` and `component_of` are mutually
//!   inverse bijections for arbitrary `(m, k, partition)`;
//! * scan planning: for arbitrary component lists — duplicated, unordered —
//!   the plan reassembles exactly the identity mapping of the request, and
//!   the flat planner ([`ScanUnion`] + [`ShardRouter::plan`]) equals the
//!   tree-based reference planner kept here, across split/merge sequences;
//! * the store: arbitrary layouts produce exact sequential semantics, a
//!   chaos schedule produces untorn cross-shard scans, and arbitrary
//!   reshard sequences keep every value.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use psnap_core::{PartialSnapshot, ReshardOp, Resharding};
use psnap_shard::{
    MvShardedSnapshot, Partition, PartitionMap, ScanUnion, ShardConfig, ShardRouter,
};
use psnap_shmem::{chaos, ProcessId};

fn partition_strategy() -> impl Strategy<Value = Partition> {
    prop_oneof![Just(Partition::Contiguous), Just(Partition::Hashed)]
}

proptest! {
    /// `route` is a bijection onto the shard/slot space and `component_of`
    /// inverts it, for arbitrary object widths and shard counts.
    #[test]
    fn route_and_component_of_roundtrip(
        m in 1usize..300,
        k in 0usize..40,
        partition in partition_strategy(),
    ) {
        let router = ShardRouter::new(m, k, partition);
        prop_assert!(router.shards() >= 1);
        prop_assert!(router.shards() <= m.max(1));
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0usize;
        for s in 0..router.shards() {
            prop_assert!(router.shard_size(s) > 0, "shard {s} empty");
            total += router.shard_size(s);
        }
        prop_assert_eq!(total, m, "slots must cover the component space exactly");
        for c in 0..m {
            let (s, i) = router.route(c);
            prop_assert!(s < router.shards());
            prop_assert!(i < router.shard_size(s));
            prop_assert!(seen.insert((s, i)), "component {c} collides");
            prop_assert_eq!(router.component_of(s, i), c);
        }
    }

    /// Contiguous partitions keep each shard's components contiguous and in
    /// order (the property callers rely on for range scans).
    #[test]
    fn contiguous_shards_are_contiguous(m in 1usize..200, k in 1usize..20) {
        let router = ShardRouter::new(m, k, Partition::Contiguous);
        let mut boundary = 0usize;
        for s in 0..router.shards() {
            for i in 0..router.shard_size(s) {
                prop_assert_eq!(router.component_of(s, i), boundary + i);
            }
            boundary += router.shard_size(s);
        }
        prop_assert_eq!(boundary, m);
    }

    /// Scan planning handles duplicate and unordered indices: assembling the
    /// per-shard identity values reproduces the request exactly.
    #[test]
    fn plan_assembles_requests_exactly(
        m in 1usize..120,
        k in 1usize..10,
        partition in partition_strategy(),
        raw in proptest::collection::vec(0usize..1000, 0..60),
    ) {
        let router = ShardRouter::new(m, k, partition);
        let components: Vec<usize> = raw.into_iter().map(|c| c % m).collect();
        let plan = router.plan(&components);
        // Sub-scan results where each slot reports its own component index.
        let results: Vec<Vec<usize>> = plan
            .groups
            .iter()
            .map(|(shard, slots)| {
                slots.iter().map(|&slot| router.component_of(*shard, slot)).collect()
            })
            .collect();
        prop_assert_eq!(plan.assemble(&results), components.clone());
        // Dedup really happened: no slot appears twice within a group.
        for (_, slots) in &plan.groups {
            let mut sorted = slots.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), slots.len(), "duplicate slot in sub-scan");
        }
    }
}

/// `(shard, slots)` groups, and `(group, index in group)` per requested
/// position of every request.
type ReferencePlan = (Vec<(usize, Vec<usize>)>, Vec<Vec<(usize, usize)>>);

/// The reference union planner: the tree-based planner the flat one
/// replaced, kept for comparison only. Groups in first-use order, each
/// `(shard, slot)` once, one `(group, index)` per requested position.
fn reference_plan(router: &ShardRouter, requests: &[Vec<usize>]) -> ReferencePlan {
    use std::collections::BTreeMap;
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut group_of_shard: BTreeMap<usize, usize> = BTreeMap::new();
    let mut slot_pos: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut positions = Vec::new();
    for request in requests {
        let mut request_positions = Vec::new();
        for &c in request {
            let (shard, slot) = router.route(c);
            let g = *group_of_shard.entry(shard).or_insert_with(|| {
                groups.push((shard, Vec::new()));
                groups.len() - 1
            });
            let pos = *slot_pos.entry((shard, slot)).or_insert_with(|| {
                groups[g].1.push(slot);
                groups[g].1.len() - 1
            });
            request_positions.push((g, pos));
        }
        positions.push(request_positions);
    }
    (groups, positions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat planner equals the reference planner — same groups in the
    /// same first-use order, no `(shard, slot)` twice, every request
    /// rebuilt in its own order with duplicates answered per occurrence —
    /// for single requests through `plan` and for multi-request unions
    /// through `ScanUnion` + `plan` (how the service and the object compose),
    /// with duplicates and empty requests, on every router of an arbitrary
    /// split/merge sequence. All planning runs on this one thread, so every
    /// router of the sequence reuses the scratch the previous generation's
    /// plans left behind.
    #[test]
    fn flat_planner_equals_the_reference_planner(
        m in 1usize..150,
        k in 1usize..8,
        partition in partition_strategy(),
        ops in proptest::collection::vec((0usize..16, 0usize..16, 0u8..2), 0..8),
        raw in proptest::collection::vec(
            proptest::collection::vec(0usize..1000, 0..24),
            0..7,
        ),
    ) {
        let requests: Vec<Vec<usize>> = raw
            .into_iter()
            .map(|request| request.into_iter().map(|c| c % m).collect())
            .collect();
        let mut map = PartitionMap::new(m, k, partition);
        let mut maps = vec![map.clone()];
        for (a, b, split_flag) in ops {
            let shards = map.shards();
            let next = if split_flag == 1 {
                map.split(a % shards)
            } else {
                map.merge(a % shards, b % shards)
            };
            if let Some(next) = next {
                map = next;
                maps.push(map.clone());
            }
        }
        for map in &maps {
            let router = ShardRouter::from_map(map);
            // Each request on its own.
            for request in &requests {
                let (groups, positions) = reference_plan(&router, std::slice::from_ref(request));
                let plan = router.plan(request);
                prop_assert_eq!(&plan.groups, &groups);
                prop_assert_eq!(&plan.positions, &positions[0]);
            }
            // All of them as one union.
            let (groups, positions) = reference_plan(&router, &requests);
            let union = ScanUnion::of(requests.iter().map(Vec::as_slice));
            let plan = router.plan(&union.components);
            prop_assert_eq!(&plan.groups, &groups);
            let mut seen = std::collections::BTreeSet::new();
            for (shard, slots) in &plan.groups {
                for &slot in slots {
                    prop_assert!(seen.insert((*shard, slot)), "slot forwarded twice");
                }
            }
            // Sub-scan results where each slot reports its own component,
            // assembled into the union's values, fanned out per request.
            let results: Vec<Vec<usize>> = plan
                .groups
                .iter()
                .map(|(shard, slots)| {
                    slots.iter().map(|&slot| router.component_of(*shard, slot)).collect()
                })
                .collect();
            let values = plan.assemble(&results);
            prop_assert_eq!(&values, &union.components);
            let mut own = union.positions.as_slice();
            for (request, reference) in requests.iter().zip(&positions) {
                let (mine, rest) = own.split_at(request.len());
                own = rest;
                let answer: Vec<usize> = mine.iter().map(|&at| values[at]).collect();
                prop_assert_eq!(&answer, request);
                let located: Vec<(usize, usize)> =
                    mine.iter().map(|&at| plan.positions[at]).collect();
                prop_assert_eq!(&located, reference);
            }
            prop_assert!(own.is_empty());
        }
    }
}

/// Mirrors the sequential specification for a mixed op sequence.
fn check_sequential_exact(snap: &MvShardedSnapshot<u64>, ops: &[(usize, u64, Vec<usize>)]) {
    let m = snap.components();
    let mut model = vec![0u64; m];
    for (component, value, scan) in ops {
        if scan.is_empty() {
            snap.update(ProcessId(0), component % m, *value);
            model[component % m] = *value;
        } else {
            let comps: Vec<usize> = scan.iter().map(|c| c % m).collect();
            let got = snap.scan(ProcessId(1), &comps);
            let expected: Vec<u64> = comps.iter().map(|&c| model[c]).collect();
            assert_eq!(got, expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary sequential workloads against arbitrary shard layouts
    /// reproduce the specification exactly.
    #[test]
    fn sharded_store_conforms_sequentially(
        m in 1usize..64,
        k in 1usize..8,
        partition in partition_strategy(),
        ops in proptest::collection::vec(
            (0usize..64, 1u64..1_000_000, proptest::collection::vec(0usize..64, 0..6)),
            1..60,
        ),
    ) {
        let config = ShardConfig { shards: k, partition };
        let snap = MvShardedSnapshot::new(m, 2, 0u64, config);
        check_sequential_exact(&snap, &ops);
    }
}

/// Cross-shard transfers under a chaos schedule: a writer perturbed at
/// every base-object step keeps moving value between two shards while a
/// perturbed scanner reads both; no scan may observe a torn transfer.
#[test]
fn cross_shard_transfers_survive_chaos_schedules() {
    for seed in [0u64, 1, 8] {
        let snap = Arc::new(MvShardedSnapshot::new(
            8,
            3,
            0u64,
            ShardConfig::contiguous(4),
        ));
        // Components 1 and 6 live on different shards; transfers keep their
        // sum at 2000 (± one in-flight delta of 50).
        snap.update(ProcessId(0), 1, 1000);
        snap.update(ProcessId(0), 6, 1000);
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let _chaos = chaos::enable(7 + seed, chaos::ChaosConfig::aggressive());
                let mut a = 1000i64;
                let mut up = false;
                while !stop.load(Ordering::Relaxed) {
                    a += if up { 50 } else { -50 };
                    up = !up;
                    snap.update(ProcessId(0), 1, a as u64);
                    snap.update(ProcessId(0), 6, (2000 - a) as u64);
                }
            })
        };
        {
            let _chaos = chaos::enable(seed, chaos::ChaosConfig::aggressive());
            for _ in 0..300 {
                let v = snap.scan(ProcessId(1), &[1, 6]);
                let total = v[0] + v[1];
                assert!(
                    (1950..=2050).contains(&total),
                    "seed {seed}: torn cross-shard scan {v:?}"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of split/merge operations on a [`PartitionMap`]
    /// preserves *exact* ownership: every component is owned by exactly one
    /// shard (none lost, none doubly owned), accepted operations bump the
    /// generation by exactly one, and a router rebuilt from the evolved map
    /// still round-trips `route`/`component_of` perfectly.
    #[test]
    fn split_merge_sequences_preserve_exact_ownership(
        m in 1usize..200,
        k in 1usize..8,
        partition in partition_strategy(),
        ops in proptest::collection::vec(
            (0usize..16, 0usize..16, 0u8..2),
            0..24,
        ),
    ) {
        let mut map = PartitionMap::new(m, k, partition);
        for (a, b, split_flag) in ops {
            let is_split = split_flag == 1;
            let generation = map.generation();
            let shards = map.shards();
            let next = if is_split {
                map.split(a % shards)
            } else {
                map.merge(a % shards, b % shards)
            };
            match next {
                Some(next) => {
                    prop_assert_eq!(
                        next.generation(),
                        generation + 1,
                        "accepted ops bump the generation by exactly one"
                    );
                    map = next;
                }
                // Refused (single-slot split, self-merge, ...): the map is
                // untouched, so the invariants below re-check the old one.
                None => prop_assert_eq!(map.generation(), generation),
            }
            let mut owners = vec![0usize; m];
            let mut total = 0usize;
            for s in 0..map.shards() {
                for c in map.shard_components(s) {
                    prop_assert_eq!(map.shard_of(c), s);
                    owners[c] += 1;
                    total += 1;
                }
            }
            prop_assert_eq!(total, m, "components lost or invented");
            prop_assert!(owners.iter().all(|&n| n == 1), "double ownership");
            let router = ShardRouter::from_map(&map);
            prop_assert_eq!(router.generation(), map.generation());
            for c in 0..m {
                let (s, i) = router.route(c);
                prop_assert_eq!(s, map.shard_of(c));
                prop_assert_eq!(router.component_of(s, i), c);
            }
        }
    }

    /// The live multiversioned store under the same arbitrary reshard
    /// sequences: every component keeps its value across every accepted
    /// migration, and the store's generation tracks the map's.
    #[test]
    fn live_reshard_sequences_preserve_values(
        m in 1usize..48,
        k in 1usize..6,
        ops in proptest::collection::vec(
            (0usize..8, 0usize..8, 0u8..2),
            0..10,
        ),
    ) {
        let snap = MvShardedSnapshot::new(m, 2, 0u64, ShardConfig::multiversioned(k));
        for c in 0..m {
            snap.update(ProcessId(0), c, c as u64 + 100);
        }
        let all: Vec<usize> = (0..m).collect();
        for (a, b, split_flag) in ops {
            let is_split = split_flag == 1;
            let shards = snap.shards();
            let op = if is_split {
                ReshardOp::Split { shard: a % shards }
            } else {
                ReshardOp::Merge { from: a % shards, into: b % shards }
            };
            let before = snap.generation();
            if snap.reshard(op) {
                prop_assert_eq!(snap.generation(), before + 1);
            } else {
                prop_assert_eq!(snap.generation(), before);
            }
            let values = snap.scan(ProcessId(1), &all);
            for (c, v) in values.iter().enumerate() {
                prop_assert_eq!(*v, c as u64 + 100, "component {} lost its value", c);
            }
        }
    }
}
