//! Atomicity of `update_many` under adversarial schedules.
//!
//! The batched-update contract is all-or-nothing: a concurrent scan must
//! never observe a strict subset of a batch. These tests attack the contract
//! from four sides: exhaustive WGL checking of small cross-shard batch
//! schedules (a cross-shard batch commits by publishing one timestamp), a
//! targeted seam test that parks an
//! updater *mid-batch* (chaos sleeps fire after every base-object step, so
//! the updater provably stalls between the per-component writes of one
//! batch) while scans race, a deterministic version-boundary seam where a
//! scan's announced timestamp races a parked batch commit, and sequential
//! conformance of the duplicate-component last-write-wins rule across every
//! registered implementation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use partial_snapshot::lincheck::check_history;
use partial_snapshot::shard::{MvShardedSnapshot, ShardConfig};
use partial_snapshot::shmem::{chaos, ProcessId};
use partial_snapshot::sim::{run_scenario, Role, Scenario, ScenarioChaos};
use partial_snapshot::snapshot::{MvSnapshot, PartialSnapshot};
use partial_snapshot::ImplKind;

/// A small scenario whose only updater issues batches that deliberately span
/// every shard of a `shards`-way contiguous partition, racing two scanners
/// that read across shards. Checked exhaustively.
fn cross_shard_batch_scenario(shards: usize, seed: u64) -> Scenario {
    let components = shards * 2;
    // The updater owns the even components — one per shard under the
    // contiguous split of 2-component shards.
    let owned: Vec<usize> = (0..components).step_by(2).collect();
    let spanning: Vec<usize> = owned.clone();
    Scenario {
        components,
        initial: 0,
        roles: vec![
            Role::BatchUpdater {
                components: owned,
                ops: 3,
                batch: shards,
            },
            Role::Updater {
                components: vec![1],
                ops: 2,
            },
            Role::Scanner {
                scans: vec![spanning.clone(), vec![0, 1], spanning],
            },
        ],
        chaos: Some(ScenarioChaos {
            seed,
            config: chaos::ChaosConfig::aggressive(),
        }),
    }
}

/// Runs `scenario` on a sharded store laid out by `config` and WGL-checks
/// the history; `case` names the run in the failure message.
fn assert_linearizable_on(scenario: &Scenario, config: ShardConfig, case: &str) {
    scenario.validate().unwrap();
    let snapshot = Arc::new(MvShardedSnapshot::new(
        scenario.components,
        scenario.processes(),
        0u64,
        config,
    ));
    let history = run_scenario(&snapshot, scenario);
    assert!(
        check_history(&history).is_linearizable(),
        "{case}: a scan raced a batch commit into a non-linearizable history"
    );
}

/// Batches racing scans are linearizable under the hashed placement too,
/// where the updater's components land wherever the hash puts them, so a
/// batch spans some shards, all of them or just one — checked exhaustively
/// across shard counts and chaos seeds.
#[test]
fn cross_shard_batches_racing_scans_are_linearizable() {
    for shards in [2usize, 3] {
        for seed in 0..20u64 {
            assert_linearizable_on(
                &cross_shard_batch_scenario(shards, seed),
                ShardConfig::hashed(shards),
                &format!("hashed shards={shards} seed={seed}"),
            );
        }
    }
}

/// The multiversioned seam: WGL-check histories where a scan's announced
/// timestamp races a cross-shard `update_many` commit. The batch commits by
/// publishing one timestamp, and a scan whose timestamp the commit raced
/// must land wholly before or wholly after it — a torn batch at the version
/// boundary would make the history non-linearizable. Checked exhaustively
/// across shard counts and chaos seeds, on batches spanning every shard and
/// on the all-shard-scan × full-width-batch shapes
/// `Scenario::random_cross_shard` generates (every scan spans ≥ 2 shards, a
/// third of the seeds spanning *all* of them against a full-width batch).
#[test]
fn mv_scans_racing_cross_shard_batch_commits_are_linearizable() {
    for shards in [2usize, 3] {
        for seed in 0..20u64 {
            let config = ShardConfig::multiversioned(shards);
            let case = format!("shards={shards} seed={seed}");
            assert_linearizable_on(&cross_shard_batch_scenario(shards, seed), config, &case);
            let union = Scenario::random_cross_shard(seed, shards);
            assert_linearizable_on(&union, config, &format!("union {case}"));
        }
    }
}

/// The version-boundary seam, pinned down deterministically: a scan
/// announces its timestamp, a cross-shard batch then installs *and parks*
/// (versions present on every shard, commit timestamp unpublished), and the
/// scan reads. The floor protocol must exclude the whole batch — on every
/// shard — because the commit, whenever it lands, is forced above the
/// scan's timestamp; a second scan after the commit must see the whole
/// batch. No interleaving of announce and commit may tear.
#[test]
fn announced_timestamp_racing_a_batch_commit_never_sees_a_torn_batch() {
    let snap = MvSnapshot::new(8, 3, 0u64);
    snap.update_many(ProcessId(0), &[(0, 1), (7, 1)]);
    // Scan announces and draws its timestamp first…
    snap.announce_scan(ProcessId(1));
    let s = snap.camera().tick();
    // …then the batch installs on both registers and parks mid-commit.
    let parked = snap.begin_parked_update_many(ProcessId(0), &[(0, 2), (7, 2)]);
    let before_commit = snap.scan_at(ProcessId(1), &[0, 7], s);
    assert_eq!(before_commit, vec![1, 1], "parked batch leaked into scan");
    // The commit races the still-announced scan: publishing the timestamp
    // now must land it *after* `s` (the scan's floor), so re-reading at the
    // same timestamp returns the same cut — no torn batch at the boundary.
    parked.commit();
    let after_commit = snap.scan_at(ProcessId(1), &[0, 7], s);
    assert_eq!(
        after_commit, before_commit,
        "the announced timestamp changed its answer across the batch commit"
    );
    snap.clear_announcement(ProcessId(1));
    // A scan that starts after the commit sees the whole batch.
    assert_eq!(snap.scan(ProcessId(2), &[0, 7]), vec![2, 2]);
}

/// Regression for the multiversioned torn-batch bug: a single update racing
/// a parked batch **on a shared component** buries the batch's version under
/// a chain-newer one with a smaller timestamp. Selection is by timestamp —
/// not chain position — so once the batch commits (above the single and
/// above every scan that stepped over it), it wins *both* registers: the
/// history linearizes as single → scan → batch → scan. With first-from-head
/// selection the batch stayed half-visible forever (new on component 1,
/// shadowed on component 0), which no serialization explains.
#[test]
fn late_committed_batch_beats_an_interleaved_single_on_the_shared_component() {
    let snap = MvSnapshot::new(2, 4, 0u64);
    let parked = snap.begin_parked_update_many(ProcessId(0), &[(0, 10), (1, 10)]);
    // The single lands *above* the parked batch's version on component 0
    // and commits first, with the smaller timestamp.
    snap.update(ProcessId(1), 0, 5);
    assert_eq!(
        snap.scan(ProcessId(2), &[0, 1]),
        vec![5, 0],
        "parked batch must be invisible on both components"
    );
    parked.commit();
    assert_eq!(
        snap.scan(ProcessId(2), &[0, 1]),
        vec![10, 10],
        "the late-committed batch must win both components or neither"
    );
    // Same shape across shards: components 0 and 6 live on shards 0 and 3.
    let sharded = MvShardedSnapshot::new(8, 4, 0u64, ShardConfig::multiversioned(4));
    let parked = sharded.begin_parked_update_many(ProcessId(0), &[(0, 10), (6, 10)]);
    sharded.update(ProcessId(1), 0, 5);
    assert_eq!(sharded.scan(ProcessId(2), &[0, 6]), vec![5, 0]);
    parked.commit();
    assert_eq!(sharded.scan(ProcessId(2), &[0, 6]), vec![10, 10]);
}

/// Concurrent companion: a single updater and a batcher hammer a **shared**
/// component while the batch also writes a private one. Batch values come
/// from a distinct range, so atomicity is directly observable: whenever a
/// scan resolves the shared component to a batch value, it must be exactly
/// the batch it sees on the private component — a mismatch would be a batch
/// half-overwritten at a version boundary.
#[test]
fn concurrent_singles_and_batches_on_a_shared_component_never_tear() {
    const BATCH_BASE: u64 = 1 << 32;
    for sharded in [false, true] {
        let snap: Arc<dyn PartialSnapshot<u64>> = if sharded {
            Arc::new(MvShardedSnapshot::new(
                8,
                3,
                0u64,
                ShardConfig::multiversioned(4),
            ))
        } else {
            Arc::new(MvSnapshot::new(8, 3, 0u64))
        };
        let stop = Arc::new(AtomicBool::new(false));
        let single = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update(ProcessId(0), 0, v); // shared with the batcher
                    v += 1;
                }
            })
        };
        let batcher = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update_many(ProcessId(1), &[(0, BATCH_BASE + k), (6, BATCH_BASE + k)]);
                    k += 1;
                }
            })
        };
        let mut last_batch = 0u64;
        for _ in 0..3000 {
            let got = snap.scan(ProcessId(2), &[0, 6]);
            let (shared, private) = (got[0], got[1]);
            if shared >= BATCH_BASE {
                assert_eq!(
                    shared, private,
                    "sharded={sharded}: the shared component resolved to batch \
                     {shared:#x} while the private one shows {private:#x} — torn batch"
                );
            }
            if private >= BATCH_BASE {
                assert!(private >= last_batch, "batches went backwards");
                last_batch = private;
            }
        }
        stop.store(true, Ordering::Relaxed);
        single.join().unwrap();
        batcher.join().unwrap();
    }
}

/// WGL coverage for the ownership shape the scenario generators cannot
/// express (their monotone single-writer discipline forbids it): a single
/// updater and a batcher writing the **same component** concurrently, racing
/// scans, with per-thread chaos. Histories are recorded by hand (unique
/// values per operation, logical-clock intervals) and checked exhaustively —
/// this is the interleaving class where the multiversioned torn-batch bug
/// lived, on every implementation that claims batch atomicity.
#[test]
fn shared_component_single_vs_batch_histories_are_linearizable() {
    use partial_snapshot::lincheck::{History, LogicalClock, OpRecord, OpResult, Operation};
    let kinds = [ImplKind::Cas, ImplKind::Mv, ImplKind::MV_SHARDED_4];
    for kind in kinds {
        for seed in 0..12u64 {
            let snap = kind.build(4, 3, 0);
            let clock = LogicalClock::new();
            let barrier = Arc::new(std::sync::Barrier::new(3));
            let mut logs: Vec<Vec<OpRecord>> = Vec::new();
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                // Process 0: three single updates to component 0.
                {
                    let snap = Arc::clone(&snap);
                    let clock = clock.clone();
                    let barrier = Arc::clone(&barrier);
                    handles.push(scope.spawn(move || {
                        let _chaos = chaos::enable(seed * 3, chaos::ChaosConfig::aggressive());
                        barrier.wait();
                        (0..3u64)
                            .map(|k| {
                                let value = 100 + k;
                                let invoked_at = clock.now();
                                snap.update(ProcessId(0), 0, value);
                                let returned_at = clock.now();
                                OpRecord {
                                    pid: ProcessId(0),
                                    op: Operation::Update {
                                        component: 0,
                                        value,
                                    },
                                    result: OpResult::Ack,
                                    invoked_at,
                                    returned_at,
                                }
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                // Process 1: three batches over components {0, 2} — the
                // shared component plus one of its own (cross-shard on the
                // sharded kind).
                {
                    let snap = Arc::clone(&snap);
                    let clock = clock.clone();
                    let barrier = Arc::clone(&barrier);
                    handles.push(scope.spawn(move || {
                        let _chaos = chaos::enable(seed * 3 + 1, chaos::ChaosConfig::aggressive());
                        barrier.wait();
                        (0..3u64)
                            .map(|k| {
                                let value = 200 + k;
                                let writes = vec![(0usize, value), (2usize, value)];
                                let invoked_at = clock.now();
                                snap.update_many(ProcessId(1), &writes);
                                let returned_at = clock.now();
                                OpRecord {
                                    pid: ProcessId(1),
                                    op: Operation::BatchUpdate { writes },
                                    result: OpResult::Ack,
                                    invoked_at,
                                    returned_at,
                                }
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                // Process 2: four scans of the contested pair.
                {
                    let snap = Arc::clone(&snap);
                    let clock = clock.clone();
                    let barrier = Arc::clone(&barrier);
                    handles.push(scope.spawn(move || {
                        let _chaos = chaos::enable(seed * 3 + 2, chaos::ChaosConfig::aggressive());
                        barrier.wait();
                        (0..4)
                            .map(|_| {
                                let components = vec![0usize, 2];
                                let invoked_at = clock.now();
                                let values = snap.scan(ProcessId(2), &components);
                                let returned_at = clock.now();
                                OpRecord {
                                    pid: ProcessId(2),
                                    op: Operation::Scan { components },
                                    result: OpResult::Values(values),
                                    invoked_at,
                                    returned_at,
                                }
                            })
                            .collect::<Vec<_>>()
                    }));
                }
                for h in handles {
                    logs.push(h.join().expect("worker panicked"));
                }
            });
            let history = History::from_logs(4, 0, logs);
            assert!(
                check_history(&history).is_linearizable(),
                "{} seed {seed}: single-vs-batch race on a shared component \
                 produced a non-linearizable history",
                kind.label()
            );
        }
    }
}

/// Every registered implementation passes the exhaustive check on small
/// schedules that mix batched and single updaters (the generator emits
/// `BatchUpdater` roles for a third of the updaters).
#[test]
fn every_impl_kind_linearizes_batched_small_schedules() {
    for kind in ImplKind::ALL {
        let seeds = if kind.build(4, 2, 0).is_wait_free() {
            0..10u64
        } else {
            0..5u64
        };
        for seed in seeds {
            let scenario = Scenario::random_small(seed);
            let snapshot = kind.build(scenario.components, scenario.processes(), 0);
            let history = run_scenario(&snapshot, &scenario);
            assert!(
                check_history(&history).is_linearizable(),
                "{}: seed {seed} non-linearizable",
                kind.label()
            );
        }
    }
}

/// The targeted seam test: chaos parks the updater after every base-object
/// step — including *between the two per-shard installs* of a cross-shard
/// `update_many` — so scans repeatedly catch the object mid-batch. The batch
/// writes the same value to one component of each shard; a scan returning
/// unequal values would be a torn batch.
#[test]
fn parked_mid_batch_updater_never_exposes_a_partial_batch() {
    let snap = Arc::new(MvShardedSnapshot::new(
        8,
        3,
        0u64,
        ShardConfig::contiguous(4),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let updater = {
        let snap = Arc::clone(&snap);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Park long and often at every step boundary: the window between
            // the batch's shard-0 install and its shard-3 install stays open
            // for hundreds of microseconds at a time.
            let _chaos = chaos::enable(
                0xBA7C4,
                chaos::ChaosConfig {
                    perturb_probability: 0.5,
                    sleep_probability: 0.5,
                    max_sleep_us: 300,
                    max_spin: 64,
                    ..chaos::ChaosConfig::default()
                },
            );
            let mut v = 1u64;
            while !stop.load(Ordering::Relaxed) {
                // Components 0 and 6 live on shards 0 and 3.
                snap.update_many(ProcessId(0), &[(0, v), (6, v)]);
                v += 1;
            }
        })
    };
    let scanners: Vec<_> = (1..3usize)
        .map(|pid| {
            let snap = Arc::clone(&snap);
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..1500 {
                    let got = snap.scan(ProcessId(pid), &[0, 6]);
                    assert_eq!(got[0], got[1], "scan observed a partial batch: {got:?}");
                    assert!(got[0] >= last, "batch values went backwards");
                    last = got[0];
                }
            })
        })
        .collect();
    for s in scanners {
        s.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    updater.join().unwrap();
    assert!(
        snap.cross_shard_scans() >= 3000,
        "every scan is cross-shard: {}",
        snap.cross_shard_scans()
    );
}

/// The same seam attack against the unsharded objects: the chaos-parked
/// updater stalls between the per-register writes of one batch, and the
/// scans' batch-gate validation (or, on the multiversioned object, the
/// unpublished commit timestamp) must hide the partial state.
#[test]
fn parked_mid_batch_updater_is_atomic_on_unsharded_objects() {
    for kind in [ImplKind::Cas, ImplKind::Register, ImplKind::Mv] {
        let snap = kind.build(8, 2, 0);
        let stop = Arc::new(AtomicBool::new(false));
        let updater = {
            let snap = Arc::clone(&snap);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let _chaos = chaos::enable(
                    0x5EAB ^ kind.label().len() as u64,
                    chaos::ChaosConfig {
                        perturb_probability: 0.4,
                        sleep_probability: 0.4,
                        max_sleep_us: 200,
                        max_spin: 64,
                        ..chaos::ChaosConfig::default()
                    },
                );
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    snap.update_many(ProcessId(0), &[(0, v), (7, v)]);
                    v += 1;
                }
            })
        };
        let mut last = 0u64;
        for _ in 0..1000 {
            let got = snap.scan(ProcessId(1), &[0, 7]);
            assert_eq!(
                got[0],
                got[1],
                "{}: scan observed a partial batch: {got:?}",
                kind.label()
            );
            assert!(got[0] >= last);
            last = got[0];
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }
}

/// *Single-shard* scans must also see cross-shard batches atomically: a
/// scan of shard 0 must not observe a batch's shard-0 install while its
/// shard-3 install is unpublished — a strictly later scan of shard 3 would
/// then read pre-batch state, an order no linearization explains (scan A
/// places the batch before itself, scan B after). Chaos parks the batcher
/// between its installs and its commit.
#[test]
fn single_shard_scans_observe_cross_shard_batches_atomically() {
    let snap = Arc::new(MvShardedSnapshot::new(
        8,
        2,
        0u64,
        ShardConfig::contiguous(4),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let updater = {
        let snap = Arc::clone(&snap);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let _chaos = chaos::enable(0x51B5, chaos::ChaosConfig::aggressive());
            let mut v = 1u64;
            while !stop.load(Ordering::Relaxed) {
                // Components 0 and 6 live on shards 0 and 3.
                snap.update_many(ProcessId(0), &[(0, v), (6, v)]);
                v += 1;
            }
        })
    };
    // Alternate one-component scans across the two shards: if a scan returns
    // batch k's value, every strictly later scan (of either component) must
    // return at least k — the batches it proves complete are complete for
    // both components.
    let mut last = 0u64;
    for i in 0..4000 {
        let component = if i % 2 == 0 { 0 } else { 6 };
        let got = snap.scan(ProcessId(1), &[component])[0];
        assert!(
            got >= last,
            "single-shard scan of component {component} saw batch {got} after a \
             previous scan proved batch {last} complete — torn cross-shard batch"
        );
        last = got;
    }
    stop.store(true, Ordering::Relaxed);
    updater.join().unwrap();
}

/// Sequential conformance of the duplicate rule: for every implementation a
/// batch with repeated components behaves exactly like its last-write-wins
/// reduction, empty batches are no-ops, and a one-element batch equals a
/// single update.
#[test]
fn duplicate_components_resolve_last_write_wins_everywhere() {
    for kind in ImplKind::ALL {
        let snap = kind.build(8, 2, 0);
        snap.update_many(ProcessId(0), &[(2, 5), (4, 1), (2, 9), (4, 2), (2, 7)]);
        assert_eq!(
            snap.scan(ProcessId(1), &[2, 4]),
            vec![7, 2],
            "{}",
            kind.label()
        );
        snap.update_many(ProcessId(0), &[]);
        snap.update_many(ProcessId(0), &[(5, 55)]);
        assert_eq!(
            snap.scan(ProcessId(1), &[2, 4, 5]),
            vec![7, 2, 55],
            "{}",
            kind.label()
        );
    }
}

/// Out-of-range batch components and process ids are rejected up front, with
/// no partial application.
#[test]
fn batch_argument_validation_matches_update() {
    let snap = ImplKind::Cas.build(4, 2, 0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        snap.update_many(ProcessId(0), &[(1, 10), (4, 40)]);
    }));
    assert!(result.is_err(), "component 4 must be rejected");
    // Validation happens before any write: component 1 is untouched.
    assert_eq!(snap.scan(ProcessId(1), &[1]), vec![0]);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        snap.update_many(ProcessId(2), &[(1, 10)]);
    }));
    assert!(result.is_err(), "process id 2 must be rejected");
}
