//! The sharded store's hot path allocates only what it hands back: after
//! warm-up, an `update` allocates its one version block and a cross-shard
//! `scan` allocates the vector it returns — at m = 2⁸ as at m = 2¹⁴. A
//! batch, cross-shard or not, allocates what the unsharded object's batch
//! does, and a one-write batch what an update does. Run with
//! `--nocapture` to see the counts per op.
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
/// it installs is one block — value and stamp slot inline. The heat
/// count, the prune bound, the prune itself and the retirement of the
/// version it unlinks allocate nothing once the epoch bags have grown to
/// their working size.
const UPDATE_ALLOCATIONS: f64 = 1.0;

/// The allocation budget of one `MvShardedSnapshot::scan`: the result
/// vector. A scan reads each component straight into the result — no plan,
/// no per-shard vectors — and announces once.
const SCAN_ALLOCATIONS: f64 = 1.0;

/// The allocation budget of one one-write `update_many`: the version block
/// of the single update it is passed to, before any dedupe.
const ONE_WRITE_ALLOCATIONS: f64 = 1.0;

/// The allocation budget of one four-write `update_many` with a write on
/// each shard: the dedupe's vector (sorted in place), the batch's shared
/// stamp and one version block per write. The batch goes to the one inner
/// object whole, so grouping by shard allocates nothing.
const BATCH4_ALLOCATIONS: f64 = 6.0;

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
        let one_write = |i: u64| store.update_many(writer, &[(request[i as usize % R], i + 1)]);
        // One write on each shard: request[4j..4j + 4] sits on shard j.
        let batch4 = |i: u64| {
            let at = |j: usize| request[(j * 4 + i as usize) % R];
            store.update_many(writer, &[(at(0), i), (at(1), i), (at(2), i), (at(3), i)]);
        };

        // Warm-up: the epoch bags, the metric slots and every chain reach
        // their steady state.
        allocations_per_call(4096, update);
        allocations_per_call(256, scan);

        let per_update = allocations_per_call(8192, update);
        let per_scan = allocations_per_call(1024, scan);
        let per_one_write = allocations_per_call(8192, one_write);
        allocations_per_call(1024, batch4);
        let per_batch4 = allocations_per_call(4096, batch4);
        // Printed before any assertion, so a failing run still shows every
        // count.
        println!(
            "m = {m}: allocations per op: update {per_update:.3}, r = {R} scan {per_scan:.3}, \
             one-write batch {per_one_write:.3}, four-write batch {per_batch4:.3}"
        );
        assert_eq!(
            per_update, UPDATE_ALLOCATIONS,
            "m = {m}: an update made {per_update:.3} allocations"
        );
        assert_eq!(
            per_scan, SCAN_ALLOCATIONS,
            "m = {m}: a cross-shard r = {R} scan made {per_scan:.3} allocations"
        );
        assert_eq!(
            per_one_write, ONE_WRITE_ALLOCATIONS,
            "m = {m}: a one-write update_many made {per_one_write:.3} allocations"
        );
        assert_eq!(
            per_batch4, BATCH4_ALLOCATIONS,
            "m = {m}: a four-shard update_many made {per_batch4:.3} allocations"
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
