//! Property-based tests for `MvRegister` chain pruning.
//!
//! The contract under test (the bound the multiversioned scan path's memory
//! footprint rests on): after any sequence of overwrites, camera ticks and
//! prunes, with any set of concurrently announced ("pinned") scan
//! timestamps,
//!
//! * the chain holds at most one finalized version per live bound — so its
//!   length is bounded by the number of pinned readers **plus one** (the
//!   camera's own bound), plus any still-pending versions;
//! * no version a pinned reader can still select is ever freed: `read_at`
//!   at every announced timestamp returns exactly the value the sequential
//!   model predicts, with its payload intact (drop-counting payloads, as in
//!   `reclamation.rs`);
//! * every version the model declares dead is actually reclaimed once the
//!   epoch machinery flushes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use psnap_shmem::{epoch, MvRegister, MvStamp, TimestampCamera};

/// Increments a counter when dropped; `verify` checks payload integrity so
/// a version freed while reachable shows up as corruption, not silence.
struct Payload {
    tag: u64,
    check: u64,
    drops: Arc<AtomicUsize>,
}

impl Payload {
    fn new(tag: u64, drops: &Arc<AtomicUsize>) -> Self {
        Payload {
            tag,
            check: tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            drops: Arc::clone(drops),
        }
    }

    fn verify(&self) {
        assert_eq!(
            self.check,
            self.tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            "payload corrupted — a version was reclaimed while reachable"
        );
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        self.verify();
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// One scripted step of the sequential model run.
#[derive(Clone, Debug)]
enum Step {
    /// Overwrite the register (finalized immediately).
    Write,
    /// A reader pins: announce at the camera's current value, then tick —
    /// the scan protocol, with the reader then holding its timestamp for
    /// the rest of the run ("concurrently pinned"). Every camera advance
    /// belongs to a live pin, which is what makes the `pins + 1` bound
    /// exact: the pruner must keep the whole descending stamp frontier
    /// above the oldest announcement (a stale announcement is
    /// indistinguishable from a slow scan whose timestamp landed higher),
    /// and with all ticks pinned that frontier is one version per pin.
    Pin,
    /// Prune with the live announcements plus the camera as bounds.
    Prune,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // The vendored `prop_oneof!` is uniform; duplicate entries weight the
    // mix towards writes (4 : 1 : 2).
    prop_oneof![
        Just(Step::Write),
        Just(Step::Write),
        Just(Step::Write),
        Just(Step::Write),
        Just(Step::Pin),
        Just(Step::Prune),
        Just(Step::Prune),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline bound: chain length ≤ live pins + 1 after a prune (all
    /// versions finalized, none pending), and every pinned reader still
    /// reads exactly the value the sequential model predicts.
    #[test]
    fn chain_is_bounded_by_live_pins_plus_one_and_pinned_versions_survive(
        script in proptest::collection::vec(step_strategy(), 1..120),
        pending_writers in 0usize..3,
    ) {
        let drops = Arc::new(AtomicUsize::new(0));
        let camera = TimestampCamera::new();
        let reg = MvRegister::new(Payload::new(0, &drops));
        let mut installs = 1u64; // the initial version
        let mut next_tag = 1u64;
        // Sequential model: (timestamp, tag) of every finalized write, in
        // install order; plus the camera bounds pinned readers announced.
        let mut history: Vec<(u64, u64)> = vec![(0, 0)];
        let mut pins: Vec<u64> = Vec::new();
        let mut last_value = 0u64;
        for step in &script {
            match step {
                Step::Write => {
                    let stamp = MvStamp::pending_single();
                    reg.install_value(Payload::new(next_tag, &drops), stamp.clone());
                    let t = stamp.finalize(&camera);
                    history.push((t, next_tag));
                    last_value = next_tag;
                    next_tag += 1;
                    installs += 1;
                }
                Step::Pin => {
                    // Announce-before-tick order of the real protocol; run
                    // sequentially the announce equals the drawn timestamp.
                    let a = camera.timestamp();
                    let s = camera.tick();
                    assert_eq!(a, s, "sequential model: announce == timestamp");
                    pins.push(a);
                }
                Step::Prune => {
                    let mut bounds = pins.clone();
                    bounds.push(camera.timestamp());
                    bounds.sort_unstable_by(|a, b| b.cmp(a));
                    bounds.dedup();
                    reg.prune(&bounds);
                    // All versions are finalized, so the chain holds at
                    // most one version per bound: live pins + 1.
                    prop_assert!(
                        reg.chain_len() <= pins.len() + 1,
                        "chain {} > pins {} + 1",
                        reg.chain_len(),
                        pins.len()
                    );
                }
            }
            // Invariant after every step: each pinned reader still selects
            // the newest version at or below its pin, and the payload is
            // intact (verify() panics on a freed-and-rewritten record).
            for &pin in &pins {
                let expected = history
                    .iter()
                    .filter(|(t, _)| *t <= pin)
                    .map(|(_, tag)| *tag)
                    .next_back()
                    .expect("timestamp 0 is always available");
                let guard = epoch::pin();
                let got = reg.read_pinned(pin, &camera, &guard);
                got.verify();
                prop_assert_eq!(got.tag, expected, "pin {} read the wrong version", pin);
            }
        }
        // Park some writers mid-update: pending versions must survive the
        // final prune (they are above every finalized version), on top of
        // the pins+1 bound.
        let parked: Vec<MvStamp> = (0..pending_writers)
            .map(|k| {
                let stamp = MvStamp::pending_batch();
                reg.install_value(Payload::new(1_000 + k as u64, &drops), stamp.clone());
                installs += 1;
                stamp
            })
            .collect();
        let mut bounds = pins.clone();
        bounds.push(camera.timestamp());
        bounds.sort_unstable_by(|a, b| b.cmp(a));
        bounds.dedup();
        reg.prune(&bounds);
        prop_assert!(
            reg.chain_len() <= pins.len() + 1 + pending_writers,
            "chain {} > pins {} + 1 + pending {}",
            reg.chain_len(),
            pins.len(),
            pending_writers
        );
        // Pinned readers still see their versions with the batch parked.
        for &pin in &pins {
            let expected = history
                .iter()
                .filter(|(t, _)| *t <= pin)
                .map(|(_, tag)| *tag)
                .next_back()
                .expect("timestamp 0 is always available");
            prop_assert_eq!(reg.read_pinned(pin, &camera, &epoch::pin()).tag, expected);
        }
        // Commit the parked writers so the final accounting is closed.
        for stamp in &parked {
            stamp.finalize(&camera);
        }
        let _ = last_value;
        // Reclamation accounting: everything the chain no longer holds must
        // eventually drop — and nothing more. `drops + chain_len` must
        // converge to the total number of installs once the epochs flush.
        let deadline = Instant::now() + Duration::from_secs(30);
        let expected_dead = installs as usize - reg.chain_len();
        while drops.load(Ordering::SeqCst) < expected_dead {
            epoch::flush();
            prop_assert!(
                Instant::now() < deadline,
                "pruned versions were not reclaimed: {} of {} freed",
                drops.load(Ordering::SeqCst),
                expected_dead
            );
            std::thread::yield_now();
        }
        prop_assert_eq!(
            drops.load(Ordering::SeqCst) + reg.chain_len(),
            installs as usize,
            "reclaimed more versions than were pruned"
        );
    }
}

/// The observability satellite of the pruning contract: the process-global
/// `shmem.mv.*` metrics must account this test's installs, its prune's
/// observed chain length and its unlinks. Other tests in this binary hit
/// the same global handles concurrently, so every assertion is a monotone
/// (`>=`) delta or a value this test alone can only push upward — never an
/// exact equality a parallel test could falsify.
#[test]
fn prune_metrics_account_chain_length_and_unlinks() {
    use psnap_shmem::metrics;
    let installed_before = metrics::mv_installed().get();
    let unlinked_before = metrics::mv_unlinked().get();
    let chain_before = metrics::mv_chain_len().snapshot();
    let pruned_before = metrics::mv_pruned_per_call().snapshot();

    let camera = TimestampCamera::new();
    let reg = MvRegister::new(0u64);
    const WRITES: u64 = 50;
    for tag in 1..=WRITES {
        let stamp = MvStamp::pending_single();
        reg.install(Arc::new(tag), stamp.clone());
        stamp.finalize(&camera);
    }
    assert_eq!(reg.chain_len() as u64, WRITES + 1);
    // No pinned readers: the camera is the only live bound, so an effective
    // prune keeps exactly one finalized version — the efficiency half of
    // the headline `pins + 1` bound.
    reg.prune(&[camera.timestamp()]);
    assert_eq!(
        reg.chain_len(),
        1,
        "one bound must keep exactly one version"
    );

    assert!(
        metrics::mv_installed().get() - installed_before >= WRITES,
        "every install must be counted"
    );
    assert!(
        metrics::mv_unlinked().get() - unlinked_before >= WRITES,
        "the prune unlinked {WRITES} versions"
    );
    let chain = metrics::mv_chain_len().snapshot();
    assert!(
        chain.count > chain_before.count,
        "an effective prune records the chain length it found"
    );
    assert!(
        chain.max > WRITES,
        "the histogram saw this test's {}-long chain (max {})",
        WRITES + 1,
        chain.max
    );
    let pruned = metrics::mv_pruned_per_call().snapshot();
    assert!(pruned.count > pruned_before.count);
    assert!(
        pruned.max >= WRITES,
        "the histogram saw this test's {WRITES}-version prune (max {})",
        pruned.max
    );
    // The live-version gauge still covers this register's surviving chain:
    // nothing else can decrement our contribution.
    assert!(metrics::mv_live_versions().get() >= reg.chain_len() as i64);
}

/// Concurrent companion to the proptest: writers overwrite and prune while
/// readers hold announced timestamps and re-read them, with payload
/// verification on every read — the racy version of "no pinned version is
/// freed".
#[test]
fn concurrent_pinned_readers_never_lose_their_versions() {
    use std::sync::atomic::AtomicBool;
    let drops = Arc::new(AtomicUsize::new(0));
    let camera = Arc::new(TimestampCamera::new());
    let reg = Arc::new(MvRegister::new(Payload::new(0, &drops)));
    let stop = Arc::new(AtomicBool::new(false));
    // Announcement slots the pruner respects, exactly as MvSnapshot wires
    // them: readers publish before drawing their timestamp.
    let announce: Arc<Vec<std::sync::atomic::AtomicU64>> = Arc::new(
        (0..3)
            .map(|_| std::sync::atomic::AtomicU64::new(0))
            .collect(),
    );

    std::thread::scope(|scope| {
        for w in 0..2u64 {
            let reg = Arc::clone(&reg);
            let camera = Arc::clone(&camera);
            let drops = Arc::clone(&drops);
            let stop = Arc::clone(&stop);
            let announce = Arc::clone(&announce);
            scope.spawn(move || {
                let mut tag = 1 + w;
                while !stop.load(Ordering::Relaxed) {
                    reg.write(Payload::new(tag, &drops), &camera);
                    // Camera first, then the announcement sweep — the
                    // pruner-side ordering the safety argument needs.
                    let mut bounds = vec![camera.timestamp()];
                    for slot in announce.iter() {
                        let a = slot.load(Ordering::SeqCst);
                        if a != 0 {
                            bounds.push(a);
                        }
                    }
                    bounds.sort_unstable_by(|a, b| b.cmp(a));
                    bounds.dedup();
                    reg.prune(&bounds);
                    tag += 2;
                }
            });
        }
        for r in 0..3usize {
            let reg = Arc::clone(&reg);
            let camera = Arc::clone(&camera);
            let stop = Arc::clone(&stop);
            let announce = Arc::clone(&announce);
            scope.spawn(move || {
                for _ in 0..3_000 {
                    announce[r].store(camera.timestamp(), Ordering::SeqCst);
                    let s = camera.tick();
                    // Re-read the same timestamp several times while the
                    // announcement is live: the answer must be stable and
                    // intact despite concurrent pruning.
                    let guard = epoch::pin();
                    let first = reg.read_pinned(s, &camera, &guard);
                    first.verify();
                    for _ in 0..3 {
                        let again = reg.read_pinned(s, &camera, &guard);
                        again.verify();
                        assert_eq!(
                            again.tag, first.tag,
                            "announced timestamp changed its answer mid-scan"
                        );
                    }
                    announce[r].store(0, Ordering::SeqCst);
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
}
