//! Cross-implementation equivalence: with no concurrency, every
//! implementation must behave exactly like the sequential specification, and
//! therefore exactly like every other implementation.
//!
//! The implementation list is `ImplKind::ALL` — every registered
//! implementation (including the sharded one) is covered here automatically —
//! plus Figure 1 over the Figure 2 active set, an ablation with no kind of
//! its own.

use std::sync::Arc;

use partial_snapshot::activeset::CasActiveSet;
use partial_snapshot::lincheck::{OpResult, Operation, SnapshotSpec};
use partial_snapshot::shmem::ProcessId;
use partial_snapshot::snapshot::{PartialSnapshot, RegisterPartialSnapshot};
use partial_snapshot::ImplKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const M: usize = 12;
const N: usize = 4;

fn all_impls() -> Vec<Arc<dyn PartialSnapshot<u64>>> {
    let mut impls: Vec<Arc<dyn PartialSnapshot<u64>>> = ImplKind::ALL
        .iter()
        .map(|kind| kind.build(M, N, 0))
        .collect();
    // An ablation instantiation not registered as a kind of its own.
    impls.push(Arc::new(RegisterPartialSnapshot::with_active_set(
        M,
        N,
        0u64,
        CasActiveSet::new(),
    )));
    impls
}

/// Generates a deterministic sequential mixed workload of single updates,
/// batched updates (with deliberate duplicate components, exercising the
/// last-write-wins contract) and scans.
fn random_ops(seed: u64, len: usize) -> Vec<Operation> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let kind = rng.gen_range(0..10u32);
            if kind < 4 {
                Operation::Update {
                    component: rng.gen_range(0..M),
                    value: (i as u64 + 1) * 7,
                }
            } else if kind < 7 {
                let width = rng.gen_range(2..=5usize);
                let writes: Vec<(usize, u64)> = (0..width)
                    .map(|j| (rng.gen_range(0..M), (i as u64 + 1) * 7 + j as u64))
                    .collect();
                Operation::BatchUpdate { writes }
            } else {
                let r = rng.gen_range(1..=M);
                let mut comps: Vec<usize> = (0..M).collect();
                use rand::seq::SliceRandom;
                comps.shuffle(&mut rng);
                comps.truncate(r);
                Operation::Scan { components: comps }
            }
        })
        .collect()
}

#[test]
fn every_implementation_matches_the_sequential_spec() {
    for seed in 0..8u64 {
        let ops = random_ops(seed, 120);
        for snapshot in all_impls() {
            let spec = SnapshotSpec::new(M, 0);
            let mut model = spec.initial_state();
            for (i, op) in ops.iter().enumerate() {
                let expected = spec.apply(&mut model, op);
                match op {
                    Operation::Update { component, value } => {
                        snapshot.update(ProcessId(0), *component, *value);
                        assert_eq!(expected, OpResult::Ack);
                    }
                    Operation::BatchUpdate { writes } => {
                        snapshot.update_many(ProcessId(0), writes);
                        assert_eq!(expected, OpResult::Ack);
                    }
                    Operation::Scan { components } => {
                        let got = snapshot.scan(ProcessId(1), components);
                        assert_eq!(
                            OpResult::Values(got),
                            expected,
                            "{}: op {i} of seed {seed} diverged from the spec",
                            snapshot.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn all_implementations_agree_with_each_other() {
    let ops = random_ops(0xC0FFEE, 200);
    let impls = all_impls();
    let mut transcripts: Vec<Vec<Vec<u64>>> = Vec::new();
    for snapshot in &impls {
        let mut scans = Vec::new();
        for op in &ops {
            match op {
                Operation::Update { component, value } => {
                    snapshot.update(ProcessId(0), *component, *value)
                }
                Operation::BatchUpdate { writes } => snapshot.update_many(ProcessId(0), writes),
                Operation::Scan { components } => {
                    scans.push(snapshot.scan(ProcessId(1), components))
                }
            }
        }
        transcripts.push(scans);
    }
    for (i, t) in transcripts.iter().enumerate().skip(1) {
        assert_eq!(
            t,
            &transcripts[0],
            "{} disagrees with {}",
            impls[i].name(),
            impls[0].name()
        );
    }
}

#[test]
fn scan_all_equals_scanning_each_component() {
    for snapshot in all_impls() {
        for c in 0..M {
            snapshot.update(ProcessId(0), c, (c as u64 + 1) * 11);
        }
        let full = snapshot.scan_all(ProcessId(1));
        let individual: Vec<u64> = (0..M)
            .map(|c| snapshot.scan(ProcessId(1), &[c])[0])
            .collect();
        assert_eq!(full, individual, "{}", snapshot.name());
        assert_eq!(full, (1..=M as u64).map(|x| x * 11).collect::<Vec<_>>());
    }
}

#[test]
fn implementations_report_their_wait_freedom_correctly() {
    // Every kind is wait-free except the lock. Assert per kind so the list
    // stays in sync with ImplKind::ALL automatically.
    for kind in ImplKind::ALL {
        assert_eq!(
            kind.build(M, N, 0).is_wait_free(),
            kind != ImplKind::Lock,
            "{}",
            kind.label()
        );
    }
}

#[test]
fn metadata_is_consistent() {
    for snapshot in all_impls() {
        assert_eq!(snapshot.components(), M);
        assert_eq!(snapshot.max_processes(), N);
        assert!(!snapshot.name().is_empty());
    }
}
