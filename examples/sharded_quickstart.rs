//! Quickstart for the sharded partial snapshot store (`psnap-shard`).
//!
//! A `MvShardedSnapshot` keeps every component in one multiversioned object
//! with one timestamp camera and labels the components with shards: a scan
//! that spans shards reads every component at one timestamp, so it stays
//! atomic without retrying or waiting. The layout can change while traffic
//! runs: a split gives half of a shard's components a new shard's label, a
//! merge folds one shard's label into another, and no value moves. This
//! example runs the same transfer workload against
//! the unsharded Figure 3 object and the sharded store, splitting and
//! merging the sharded one mid-run, and audits every cross-shard scan.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sharded_quickstart
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use partial_snapshot::shard::{MvShardedSnapshot, ShardConfig};
use partial_snapshot::shmem::ProcessId;
use partial_snapshot::snapshot::{CasPartialSnapshot, PartialSnapshot, ReshardOp, Resharding};

const M: usize = 256; // components (accounts)
const SHARDS: usize = 8;
const UPDATERS: usize = 4;
const BALANCE: u64 = 10_000;
const AUDITS: u64 = 5_000;

/// Runs `UPDATERS` transfer threads against `snapshot` while an auditor
/// checks, with one atomic cross-shard partial scan per check, that no money
/// is created or destroyed. Given the `sharded` store behind `snapshot`,
/// the auditor splits the shard holding account 0 midway and later merges
/// the new shard back; an unsharded object keeps its layout.
fn run(
    snapshot: Arc<dyn PartialSnapshot<u64>>,
    sharded: Option<&MvShardedSnapshot<u64>>,
    label: &str,
) {
    // Every account starts with the same balance; each updater owns a
    // disjoint slice of accounts and moves value between the two ends of
    // its slice, preserving its slice's total.
    for c in 0..M {
        snapshot.update(ProcessId(0), c, BALANCE);
    }
    let per = M / UPDATERS;
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..UPDATERS)
        .map(|u| {
            let snapshot = Arc::clone(&snapshot);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let lo = u * per;
                let mut ops = 0u64;
                let mut offset = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    // Move 100 from the first to the last account of the
                    // slice, then back — the pair straddles shards.
                    let delta = if offset == 0 { 100 } else { -100 };
                    offset += delta;
                    snapshot.update(ProcessId(u), lo, (BALANCE as i64 - offset) as u64);
                    snapshot.update(ProcessId(u), lo + per - 1, (BALANCE as i64 + offset) as u64);
                    ops += 2;
                }
                ops
            })
        })
        .collect();

    // The auditor: cross-shard partial scans of each updater's (first, last)
    // pair must always sum to 2 × BALANCE, ± one in-flight transfer.
    let mut reshards = Vec::new();
    for round in 0..AUDITS {
        if let Some(store) = sharded {
            if round == AUDITS / 3 {
                let shard = store.shard_of(0);
                reshards.push(("split", store.reshard(ReshardOp::Split { shard })));
            }
            if round == 2 * AUDITS / 3 {
                let newest = store.shard_sizes().len().saturating_sub(1);
                let into = store.shard_of(0);
                reshards.push((
                    "merge",
                    store.reshard(ReshardOp::Merge { from: newest, into }),
                ));
            }
        }
        let u = (round as usize) % UPDATERS;
        let pair = [u * per, u * per + per - 1];
        let values = snapshot.scan(ProcessId(UPDATERS), &pair);
        let total = values[0] + values[1];
        assert!(
            (2 * BALANCE - 100..=2 * BALANCE + 100).contains(&total),
            "torn audit: {values:?}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    let total_updates: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = started.elapsed();
    println!(
        "{label:>12}: {:>8.0} kupdates/s, {AUDITS} audits all consistent ({:.2}s)",
        total_updates as f64 / elapsed.as_secs_f64() / 1000.0,
        elapsed.as_secs_f64(),
    );
    for (op, applied) in reshards {
        println!(
            "{:>12}  {op} mid-run: {}",
            "",
            if applied { "applied" } else { "refused" }
        );
    }
}

fn main() {
    println!(
        "transfer workload: {UPDATERS} updaters over {M} accounts, auditor scanning \
         cross-shard pairs\n"
    );

    run(
        Arc::new(CasPartialSnapshot::new(M, UPDATERS + 1, 0u64)),
        None,
        "unsharded",
    );

    let sharded = Arc::new(MvShardedSnapshot::new(
        M,
        UPDATERS + 1,
        0u64,
        ShardConfig::contiguous(SHARDS),
    ));
    run(
        Arc::clone(&sharded) as Arc<dyn PartialSnapshot<u64>>,
        Some(&sharded),
        "sharded-k8",
    );
    // Every balance survived both reshards: the sum of each updater's
    // slice is what it started as.
    let all: Vec<usize> = (0..M).collect();
    let balances = sharded.scan(ProcessId(0), &all);
    assert_eq!(balances.iter().sum::<u64>(), M as u64 * BALANCE);
    println!(
        "\nsharded store: generation {}, {} reshards, {} cross-shard scans, \
         shard sizes {:?}",
        sharded.generation(),
        sharded.reshards(),
        sharded.cross_shard_scans(),
        sharded.shard_sizes()
    );
}
