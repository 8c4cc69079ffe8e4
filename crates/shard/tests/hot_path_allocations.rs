//! The sharded store's hot path allocates only what it hands back: after
//! warm-up, an `update` allocates its one version block and a cross-shard
//! `scan` allocates the vector it returns — at m = 2⁸ as at m = 2¹⁴.
//!
//! Allocation calls are counted per thread by the `#[global_allocator]`
//! in `tests/support/counting_alloc.rs`, which is why this test has an
//! integration-test binary to itself (and one test in it: another test's
//! epoch pins could hold back reclamation and make this thread's garbage
//! bags grow).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use psnap_core::PartialSnapshot;
use psnap_shard::{MvShardedSnapshot, ShardConfig};
use psnap_shmem::ProcessId;

/// Allocations per call of `op`, over `calls` calls on this thread.
fn allocations_per_call(calls: u64, mut op: impl FnMut(u64)) -> f64 {
    let before = counting_alloc::thread_allocations();
    for i in 0..calls {
        op(i);
    }
    (counting_alloc::thread_allocations() - before) as f64 / calls as f64
}

/// The allocation budget of one `MvShardedSnapshot::update`, written down
/// the way `MvSnapshot::scan_step_budget` writes down steps: the version
/// it installs is one block — value and stamp slot inline. Routing, the
/// writer gate, the prune bound, the prune itself and the retirement of
/// the version it unlinks allocate nothing once the epoch bags have grown
/// to their working size.
const UPDATE_ALLOCATIONS: f64 = 1.0;

/// The allocation budget of one `MvShardedSnapshot::scan`: the result
/// vector. A scan routes each component and reads it straight into the
/// result — no plan, no per-shard vectors — and announces once for the
/// whole family.
const SCAN_ALLOCATIONS: f64 = 1.0;

const SHARDS: usize = 4;
const R: usize = 16;

#[test]
fn updates_and_cross_shard_scans_allocate_only_what_they_return() {
    for m in [1usize << 8, 1 << 14] {
        let store = MvShardedSnapshot::new(m, 2, 0u64, ShardConfig::multiversioned(SHARDS));
        // Sixteen components spread over all four contiguous shards.
        let request: Vec<usize> = (0..R).map(|i| i * (m / R) + i % 3).collect();
        let writer = ProcessId(0);
        let scanner = ProcessId(1);
        let update = |i: u64| store.update(writer, request[i as usize % R], i + 1);
        let scan = |_| assert_eq!(store.scan(scanner, &request).len(), R);

        // Warm-up: the epoch bags, the metric and trace thread indices and
        // every chain reach their steady state.
        allocations_per_call(4096, update);
        allocations_per_call(256, scan);

        let per_update = allocations_per_call(8192, update);
        assert_eq!(
            per_update, UPDATE_ALLOCATIONS,
            "m = {m}: an update made {per_update:.3} allocations"
        );
        let per_scan = allocations_per_call(1024, scan);
        assert_eq!(
            per_scan, SCAN_ALLOCATIONS,
            "m = {m}: a cross-shard r = {R} scan made {per_scan:.3} allocations"
        );
        // Interleaved, as a scanner and a writer sharing the store would
        // run them (here on one thread, so the counts stay exact).
        let per_pair = allocations_per_call(2048, |i| {
            update(i);
            scan(i);
        });
        assert_eq!(
            per_pair,
            UPDATE_ALLOCATIONS + SCAN_ALLOCATIONS,
            "m = {m}: an update plus a scan made {per_pair:.3} allocations"
        );
    }
}
