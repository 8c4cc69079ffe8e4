//! Declarative descriptions of concurrent executions.
//!
//! A [`Scenario`] says how many components the snapshot object has and what
//! each process does: update a set of privately owned components with
//! strictly increasing values, or perform a list of partial scans. The
//! scenario runner ([`crate::runner`]) executes the description against any
//! [`psnap_core::PartialSnapshot`] implementation and records the history.
//!
//! Scenarios follow the *monotone single-writer discipline* expected by the
//! scalable checker in [`crate::lincheck`]: every component is owned by at most
//! one updater and the values written to it strictly increase. Small
//! adversarial scenarios (for the exhaustive WGL checker) are generated by
//! [`Scenario::random_small`].

use std::fmt;
use std::sync::Arc;

use psnap_core::{ReshardOp, Resharding};
use psnap_shmem::chaos::ChaosConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// What one process does during a scenario.
#[derive(Clone, Debug)]
pub enum Role {
    /// Repeatedly update privately owned components with increasing values.
    Updater {
        /// The components this process owns (no other process may update them).
        components: Vec<usize>,
        /// Number of updates to perform (spread round-robin over the
        /// components).
        ops: usize,
    },
    /// Repeatedly issue atomic batched updates (`update_many`) over privately
    /// owned components with increasing values: the `k`-th operation writes a
    /// window of `batch` owned components, rotating round-robin, all with the
    /// round's value (still the monotone single-writer discipline, since the
    /// owner is unique and the per-component value sequence increases).
    BatchUpdater {
        /// The components this process owns (no other process may update them).
        components: Vec<usize>,
        /// Number of batched operations to perform.
        ops: usize,
        /// Components per batch (capped at the number owned).
        batch: usize,
    },
    /// Perform the listed partial scans, in order.
    Scanner {
        /// Each entry is the component set of one scan.
        scans: Vec<Vec<usize>>,
    },
    /// Issue the listed reshard operations, in order, against `store`.
    /// Resharding is *environment reconfiguration*, not a snapshot
    /// operation: it records nothing in the history (a refused op is
    /// silently skipped), so the same checkers apply unchanged and any
    /// atomicity violation the reshard causes shows up as a torn scan or
    /// lost update in the other processes' records.
    Resharder {
        /// The reshard ops to issue, in order, yielding between them.
        ops: Vec<ReshardOp>,
        /// The store they reshard: the object under test, or the one
        /// behind its service.
        store: ReshardTarget,
    },
}

/// The live store a [`Role::Resharder`] reshards.
#[derive(Clone)]
pub struct ReshardTarget(pub Arc<dyn Resharding>);

impl fmt::Debug for ReshardTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReshardTarget(generation {})", self.0.generation())
    }
}

/// Chaos (schedule perturbation) configuration for a scenario.
#[derive(Clone, Debug)]
pub struct ScenarioChaos {
    /// Base seed; each process uses `seed + pid`.
    pub seed: u64,
    /// Perturbation intensity.
    pub config: ChaosConfig,
}

/// A complete description of a concurrent execution.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of components of the snapshot object.
    pub components: usize,
    /// Initial value of every component (must not be written by updaters).
    pub initial: u64,
    /// One role per process; process ids are assigned by position.
    pub roles: Vec<Role>,
    /// Optional schedule perturbation.
    pub chaos: Option<ScenarioChaos>,
}

impl Scenario {
    /// Number of processes participating.
    pub fn processes(&self) -> usize {
        self.roles.len()
    }

    /// Total number of operations the scenario will perform.
    pub fn total_ops(&self) -> usize {
        self.roles
            .iter()
            .map(|r| match r {
                Role::Updater { ops, .. } => *ops,
                Role::BatchUpdater { ops, .. } => *ops,
                Role::Scanner { scans } => scans.len(),
                // Reshards record no history operations.
                Role::Resharder { .. } => 0,
            })
            .sum()
    }

    /// Verifies the single-writer discipline and component ranges.
    pub fn validate(&self) -> Result<(), String> {
        let mut owner: Vec<Option<usize>> = vec![None; self.components];
        let claim = |owner: &mut Vec<Option<usize>>,
                     pid: usize,
                     components: &[usize]|
         -> Result<(), String> {
            for &c in components {
                if c >= self.components {
                    return Err(format!("process {pid}: component {c} out of range"));
                }
                if let Some(other) = owner[c] {
                    return Err(format!(
                        "component {c} owned by both process {other} and process {pid}"
                    ));
                }
                owner[c] = Some(pid);
            }
            Ok(())
        };
        for (pid, role) in self.roles.iter().enumerate() {
            match role {
                Role::Updater { components, ops } => {
                    if components.is_empty() && *ops > 0 {
                        return Err(format!("process {pid}: updater with no components"));
                    }
                    claim(&mut owner, pid, components)?;
                }
                Role::BatchUpdater {
                    components,
                    ops,
                    batch,
                } => {
                    if components.is_empty() && *ops > 0 {
                        return Err(format!("process {pid}: batch updater with no components"));
                    }
                    if *batch == 0 && *ops > 0 {
                        return Err(format!("process {pid}: batch updater with batch size 0"));
                    }
                    claim(&mut owner, pid, components)?;
                }
                Role::Scanner { scans } => {
                    for scan in scans {
                        if let Some(&c) = scan.iter().find(|&&c| c >= self.components) {
                            return Err(format!("process {pid}: component {c} out of range"));
                        }
                    }
                }
                // Shard ids are checked by the store at issue time (a bad
                // id is simply refused), so there is nothing to validate
                // statically.
                Role::Resharder { .. } => {}
            }
        }
        Ok(())
    }

    /// A stress scenario: `updaters` processes each own an equal share of the
    /// `components`, `scanners` processes each perform `ops_per_scanner`
    /// random scans of `r` components, with seeded randomness.
    pub fn stress(
        components: usize,
        updaters: usize,
        scanners: usize,
        ops_per_updater: usize,
        ops_per_scanner: usize,
        r: usize,
        seed: u64,
    ) -> Scenario {
        assert!(updaters > 0 && components >= updaters);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut roles = Vec::new();
        // Partition components round-robin among updaters.
        for u in 0..updaters {
            let owned: Vec<usize> = (0..components).filter(|c| c % updaters == u).collect();
            roles.push(Role::Updater {
                components: owned,
                ops: ops_per_updater,
            });
        }
        let all: Vec<usize> = (0..components).collect();
        for _ in 0..scanners {
            let scans = (0..ops_per_scanner)
                .map(|_| {
                    let mut set = all.clone();
                    set.shuffle(&mut rng);
                    set.truncate(r.min(components).max(1));
                    set
                })
                .collect();
            roles.push(Role::Scanner { scans });
        }
        Scenario {
            components,
            initial: 0,
            roles,
            chaos: None,
        }
    }

    /// A stress scenario like [`Scenario::stress`] whose updaters issue
    /// atomic batches of `batch` components per operation instead of single
    /// updates (the monotone single-writer discipline is preserved, so the
    /// scalable checker applies unchanged).
    #[allow(clippy::too_many_arguments)]
    pub fn stress_batched(
        components: usize,
        updaters: usize,
        scanners: usize,
        ops_per_updater: usize,
        ops_per_scanner: usize,
        r: usize,
        batch: usize,
        seed: u64,
    ) -> Scenario {
        let mut scenario = Scenario::stress(
            components,
            updaters,
            scanners,
            ops_per_updater,
            ops_per_scanner,
            r,
            seed,
        );
        for role in &mut scenario.roles {
            if let Role::Updater { components, ops } = role {
                let batch = batch.clamp(1, components.len().max(1));
                *role = Role::BatchUpdater {
                    components: std::mem::take(components),
                    ops: *ops,
                    batch,
                };
            }
        }
        scenario
    }

    /// A small adversarial scenario whose every scan deliberately spans at
    /// least two shards of a `shards`-way *contiguous* partition of the
    /// component space — the interesting atomicity case for
    /// `psnap-shard`'s cross-shard scans and batches. Suitable for the
    /// exhaustive WGL checker (≤ 20 operations), with aggressive chaos.
    pub fn random_cross_shard(seed: u64, shards: usize) -> Scenario {
        assert!(
            shards >= 2,
            "cross-shard scenarios need at least two shards"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC405_551D);
        let per_shard = rng.gen_range(1..=2usize);
        let components = shards * per_shard;
        // One component from each shard's contiguous range (shard s owns
        // `s*per_shard .. (s+1)*per_shard` under the balanced contiguous
        // partition of equal-sized shards).
        let pick_in_shard =
            |rng: &mut StdRng, s: usize| s * per_shard + rng.gen_range(0..per_shard);
        let updaters = rng.gen_range(1..=2usize);
        // A third of the seeds exercise the *union-plan* shape: a scan whose
        // component set spans every shard racing a full-width batch — the
        // widest window the cross-shard commit protocols must keep atomic.
        // (Previously no generated scan ever covered all shards at once, so
        // the all-shards path was only reached by hand-written tests.)
        let full_width = rng.gen_bool(1.0 / 3.0);
        let mut roles = Vec::new();
        for u in 0..updaters {
            let owned: Vec<usize> = (0..components).filter(|c| c % updaters == u).collect();
            let ops = rng.gen_range(2..=4);
            // Half the updaters issue atomic batches instead of single
            // updates. Ownership is strided across the contiguous shard
            // ranges, so a batch window of ≥ 2 owned components spans shards
            // whenever the object has more than one — exactly the atomicity
            // case the cross-shard commit paths must get right. In the
            // full-width shape the first updater always batches its whole
            // ownership, which covers every shard.
            if u == 0 && full_width && owned.len() >= 2 {
                roles.push(Role::BatchUpdater {
                    batch: owned.len(),
                    components: owned,
                    ops,
                });
            } else if owned.len() >= 2 && rng.gen_bool(0.5) {
                let batch = rng.gen_range(2..=owned.len());
                roles.push(Role::BatchUpdater {
                    components: owned,
                    ops,
                    batch,
                });
            } else {
                roles.push(Role::Updater {
                    components: owned,
                    ops,
                });
            }
        }
        for scanner in 0..rng.gen_range(1..=2usize) {
            let scans = (0..rng.gen_range(2..=3usize))
                .map(|i| {
                    if full_width && scanner == 0 && i == 0 {
                        // One component from *every* shard: the union plan
                        // covers the whole shard set, concurrently with the
                        // full-width batch above.
                        let mut set: Vec<usize> =
                            (0..shards).map(|s| pick_in_shard(&mut rng, s)).collect();
                        set.sort_unstable();
                        set.dedup();
                        return set;
                    }
                    // Two distinct shards, one component from each, plus
                    // occasionally a third from anywhere.
                    let a = rng.gen_range(0..shards);
                    let mut b = rng.gen_range(0..shards);
                    while b == a {
                        b = rng.gen_range(0..shards);
                    }
                    let mut set = vec![pick_in_shard(&mut rng, a), pick_in_shard(&mut rng, b)];
                    if rng.gen_bool(0.4) {
                        set.push(rng.gen_range(0..components));
                    }
                    set.sort_unstable();
                    set.dedup();
                    set
                })
                .collect();
            roles.push(Role::Scanner { scans });
        }
        Scenario {
            components,
            initial: 0,
            roles,
            chaos: Some(ScenarioChaos {
                seed,
                config: ChaosConfig::aggressive(),
            }),
        }
    }

    /// A small adversarial scenario suitable for the exhaustive WGL checker:
    /// 2–4 processes, 2–4 components, a handful of operations each, heavy
    /// overlap on a small component set, with aggressive chaos.
    pub fn random_small(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let components = rng.gen_range(2..=4usize);
        let updaters = rng.gen_range(1..=2usize);
        let scanners = rng.gen_range(1..=2usize);
        let mut roles = Vec::new();
        for u in 0..updaters {
            let owned: Vec<usize> = (0..components).filter(|c| c % updaters == u).collect();
            let ops = rng.gen_range(2..=4);
            // A third of the updaters issue atomic batches, so every
            // implementation's `update_many` is exercised by the exhaustive
            // WGL fuzz alongside single updates.
            if owned.len() >= 2 && rng.gen_bool(0.35) {
                let batch = rng.gen_range(2..=owned.len());
                roles.push(Role::BatchUpdater {
                    components: owned,
                    ops,
                    batch,
                });
            } else {
                roles.push(Role::Updater {
                    components: owned,
                    ops,
                });
            }
        }
        let all: Vec<usize> = (0..components).collect();
        for _ in 0..scanners {
            let scans = (0..rng.gen_range(2..=4usize))
                .map(|_| {
                    let mut set = all.clone();
                    set.shuffle(&mut rng);
                    set.truncate(rng.gen_range(1..=components));
                    set.sort_unstable();
                    set
                })
                .collect();
            roles.push(Role::Scanner { scans });
        }
        Scenario {
            components,
            initial: 0,
            roles,
            chaos: Some(ScenarioChaos {
                seed,
                config: ChaosConfig::aggressive(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_scenario_is_valid_and_partitioned() {
        let s = Scenario::stress(16, 4, 3, 100, 50, 5, 1);
        assert_eq!(s.processes(), 7);
        assert_eq!(s.total_ops(), 4 * 100 + 3 * 50);
        s.validate().unwrap();
    }

    #[test]
    fn random_small_scenarios_are_valid_for_many_seeds() {
        for seed in 0..200 {
            let s = Scenario::random_small(seed);
            s.validate()
                .unwrap_or_else(|e| panic!("seed {seed} invalid: {e}"));
            assert!(
                s.total_ops() <= 20,
                "small scenarios must stay WGL-checkable"
            );
            assert!(s.chaos.is_some());
        }
    }

    #[test]
    fn random_cross_shard_scenarios_are_valid_and_span_shards() {
        for shards in [2usize, 3, 4] {
            for seed in 0..100 {
                let s = Scenario::random_cross_shard(seed, shards);
                s.validate()
                    .unwrap_or_else(|e| panic!("seed {seed} shards {shards} invalid: {e}"));
                assert!(s.total_ops() <= 20, "must stay WGL-checkable");
                assert_eq!(s.components % shards, 0);
                let per_shard = s.components / shards;
                for role in &s.roles {
                    if let Role::Scanner { scans } = role {
                        for scan in scans {
                            let touched: std::collections::BTreeSet<usize> =
                                scan.iter().map(|c| c / per_shard).collect();
                            assert!(
                                touched.len() >= 2,
                                "seed {seed}: scan {scan:?} stays on one shard"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn random_cross_shard_generates_all_shard_scans_racing_full_width_batches() {
        // Regression for the union-plan gap: the generator must produce
        // scenarios where one scan's component set covers *every* shard
        // while a batch updater writes a full-width batch (its whole
        // ownership, which spans every shard) concurrently.
        for shards in [2usize, 3, 4] {
            let found = (0..200u64).any(|seed| {
                let s = Scenario::random_cross_shard(seed, shards);
                let per_shard = s.components / shards;
                let has_all_shard_scan = s.roles.iter().any(|r| match r {
                    Role::Scanner { scans } => scans.iter().any(|scan| {
                        let touched: std::collections::BTreeSet<usize> =
                            scan.iter().map(|c| c / per_shard).collect();
                        touched.len() == shards
                    }),
                    _ => false,
                });
                let has_full_width_batch = s.roles.iter().any(|r| match r {
                    Role::BatchUpdater {
                        components, batch, ..
                    } => {
                        *batch == components.len()
                            && components
                                .iter()
                                .map(|c| c / per_shard)
                                .collect::<std::collections::BTreeSet<usize>>()
                                .len()
                                == shards
                    }
                    _ => false,
                });
                has_all_shard_scan && has_full_width_batch
            });
            assert!(
                found,
                "no seed produced an all-shard scan racing a full-width batch at {shards} shards"
            );
        }
    }

    #[test]
    fn random_generators_emit_batched_updaters() {
        let has_batches = |s: &Scenario| {
            s.roles
                .iter()
                .any(|r| matches!(r, Role::BatchUpdater { .. }))
        };
        assert!(
            (0..60).any(|seed| has_batches(&Scenario::random_small(seed))),
            "random_small never produced a batch role"
        );
        assert!(
            (0..60).any(|seed| has_batches(&Scenario::random_cross_shard(seed, 2))),
            "random_cross_shard never produced a batch role"
        );
    }

    #[test]
    fn stress_batched_scenario_is_valid_and_batches_every_updater() {
        let s = Scenario::stress_batched(16, 4, 3, 100, 50, 5, 3, 1);
        s.validate().unwrap();
        assert_eq!(s.total_ops(), 4 * 100 + 3 * 50);
        let batch_roles = s
            .roles
            .iter()
            .filter(|r| matches!(r, Role::BatchUpdater { batch: 3, .. }))
            .count();
        assert_eq!(batch_roles, 4);
    }

    #[test]
    fn validate_rejects_shared_ownership() {
        let s = Scenario {
            components: 2,
            initial: 0,
            roles: vec![
                Role::Updater {
                    components: vec![0],
                    ops: 1,
                },
                Role::Updater {
                    components: vec![0],
                    ops: 1,
                },
            ],
            chaos: None,
        };
        assert!(s.validate().unwrap_err().contains("owned by both"));
    }

    #[test]
    fn validate_rejects_out_of_range_scan() {
        let s = Scenario {
            components: 2,
            initial: 0,
            roles: vec![Role::Scanner {
                scans: vec![vec![0, 5]],
            }],
            chaos: None,
        };
        assert!(s.validate().unwrap_err().contains("out of range"));
    }
}
