//! The paper's locality property, held to at the planner: a partial scan of
//! `r` components costs what `r` costs, not what `m` costs. Planning r = 4 on
//! an m = 2²⁰ router must allocate O(r) bytes — on a cold thread and on a
//! warm one — and its scratch must stay correct when the next plan runs
//! against another generation's router.
//!
//! Allocation is counted per thread by a `#[global_allocator]`, which is why
//! this test has an integration-test binary to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use psnap_shard::{last_write_wins, Partition, PartitionMap, ScanUnion, ShardRouter};

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: defers to `System` for every operation; the only addition is a
// thread-local byte counter with no destructor, which allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes the calling thread allocates while `work` runs.
fn allocated_by(work: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    work();
    ALLOCATED.with(Cell::get) - before
}

const M: usize = 1 << 20;
/// Generous for r = 4: a plan's own vectors plus a few-slot scratch table.
/// An m-sized table of any element type would be ≥ 2²⁰ bytes.
const BUDGET: usize = 2048;

fn check(router: &ShardRouter, request: &[usize]) {
    let plan = router.plan(request);
    let located: Vec<(usize, usize)> = plan
        .positions
        .iter()
        .map(|&(g, at)| (plan.groups[g].0, plan.groups[g].1[at]))
        .collect();
    let routed: Vec<(usize, usize)> = request.iter().map(|&c| router.route(c)).collect();
    assert_eq!(located, routed);
}

#[test]
fn planning_four_components_of_a_million_allocates_for_four() {
    let map = PartitionMap::new(M, 16, Partition::Hashed);
    let router = ShardRouter::from_map(&map);
    let next_map = map.split(3).expect("a 65 536-component shard splits");
    let next_router = ShardRouter::from_map(&next_map);
    // One requested component changes shard between the two generations.
    let migrated = (0..M)
        .find(|&c| map.shard_of(c) != next_map.shard_of(c))
        .expect("a split moves components");
    let request = [M - 1, 17, migrated, 17];
    let writes = [(M - 1, 1u64), (17, 2), (M - 1, 3)];

    // A thread of its own: its scratch has never planned anything.
    std::thread::spawn(move || {
        let cold = allocated_by(|| check(&router, &request));
        assert!(cold <= BUDGET, "a cold plan allocated {cold} bytes");

        // A wide request grows the scratch; narrow plans after it must not
        // allocate for that width again.
        let wide: Vec<usize> = (0..4096).map(|i| (i * 251) % M).collect();
        check(&router, &wide);
        for round in 0..100 {
            let warm = allocated_by(|| {
                std::hint::black_box(router.plan(std::hint::black_box(&request)));
            });
            assert!(warm <= BUDGET, "warm plan {round} allocated {warm} bytes");
        }
        let union = allocated_by(|| {
            std::hint::black_box(ScanUnion::of([&request[..], &request[1..]]));
        });
        assert!(union <= BUDGET, "a warm union allocated {union} bytes");
        let batch = allocated_by(|| {
            std::hint::black_box(last_write_wins([&writes[..]]));
        });
        assert!(
            batch <= BUDGET,
            "a warm batch dedupe allocated {batch} bytes"
        );

        // The same scratch, the next generation's router: nothing the old
        // generation's plans left behind may leak into the new plans.
        assert_ne!(router.route(migrated), next_router.route(migrated));
        for _ in 0..3 {
            check(&next_router, &request);
            check(&next_router, &wide);
            check(&router, &request);
        }
        let regenerated = allocated_by(|| {
            std::hint::black_box(next_router.plan(std::hint::black_box(&request)));
        });
        assert!(
            regenerated <= BUDGET,
            "a plan on the next generation allocated {regenerated} bytes"
        );
    })
    .join()
    .expect("the planning thread panicked");
}
