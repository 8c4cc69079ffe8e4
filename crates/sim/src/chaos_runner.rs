//! Seeded fuzzing of schedules: run many perturbed executions of the same
//! scenario shape and check every resulting history.

use std::ops::Range;
use std::sync::Arc;

use psnap_core::PartialSnapshot;

use crate::lincheck::{check_history, check_monotone_history, History, LinResult, Violation};
use crate::runner::run_scenario;
use crate::scenario::Scenario;

/// The outcome of a fuzzing campaign.
#[derive(Debug)]
pub enum FuzzOutcome {
    /// Every explored schedule produced a linearizable history.
    AllPassed {
        /// Number of schedules (seeds) explored.
        schedules: usize,
        /// Total operations checked across all schedules.
        operations: usize,
    },
    /// Some schedule produced a history the exhaustive checker rejected.
    WglViolation {
        /// Seed of the offending schedule.
        seed: u64,
        /// The offending history (kept for post-mortem debugging).
        history: History,
    },
    /// Some schedule produced a history failing a monotone necessary condition.
    MonotoneViolation {
        /// Seed of the offending schedule.
        seed: u64,
        /// The violation found.
        violation: Violation,
        /// The offending history.
        history: History,
    },
}

impl FuzzOutcome {
    /// True if no violation was found.
    pub fn passed(&self) -> bool {
        matches!(self, FuzzOutcome::AllPassed { .. })
    }
}

/// Runs `seeds` small adversarial schedules (via [`Scenario::random_small`])
/// against fresh objects produced by `factory` and WGL-checks every history.
pub fn fuzz_small_schedules<S, F>(factory: F, seeds: Range<u64>) -> FuzzOutcome
where
    S: PartialSnapshot<u64> + ?Sized + 'static,
    F: Fn(&Scenario) -> Arc<S>,
{
    let mut schedules = 0usize;
    let mut operations = 0usize;
    for seed in seeds {
        let scenario = Scenario::random_small(seed);
        let snapshot = factory(&scenario);
        let history = run_scenario(&snapshot, &scenario);
        operations += history.len();
        schedules += 1;
        match check_history(&history) {
            LinResult::Linearizable(_) => {}
            LinResult::NotLinearizable => {
                return FuzzOutcome::WglViolation { seed, history };
            }
        }
    }
    FuzzOutcome::AllPassed {
        schedules,
        operations,
    }
}

/// Runs one stress scenario per seed (`make_scenario(seed)`, typically
/// [`Scenario::stress`] or [`Scenario::stress_batched`]) against a fresh
/// object produced by `factory` and applies the scalable monotone checks to
/// every history.
pub fn fuzz_stress_schedules<S, F, G>(
    factory: F,
    make_scenario: G,
    seeds: Range<u64>,
) -> FuzzOutcome
where
    S: PartialSnapshot<u64> + ?Sized + 'static,
    F: Fn(&Scenario) -> Arc<S>,
    G: Fn(u64) -> Scenario,
{
    let mut schedules = 0usize;
    let mut operations = 0usize;
    for seed in seeds {
        let scenario = make_scenario(seed);
        let snapshot = factory(&scenario);
        let history = run_scenario(&snapshot, &scenario);
        operations += history.len();
        schedules += 1;
        if let Err(violation) = check_monotone_history(&history) {
            return FuzzOutcome::MonotoneViolation {
                seed,
                violation,
                history,
            };
        }
    }
    FuzzOutcome::AllPassed {
        schedules,
        operations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnap_core::CasPartialSnapshot;

    #[test]
    fn fuzzing_the_cas_snapshot_passes() {
        let outcome = fuzz_small_schedules(
            |s| Arc::new(CasPartialSnapshot::new(s.components, s.processes(), 0u64)),
            0..8,
        );
        assert!(outcome.passed(), "{outcome:?}");
        if let FuzzOutcome::AllPassed {
            schedules,
            operations,
        } = outcome
        {
            assert_eq!(schedules, 8);
            assert!(operations > 0);
        }
    }

    #[test]
    fn stress_fuzzing_the_cas_snapshot_passes() {
        let outcome = fuzz_stress_schedules(
            |s| Arc::new(CasPartialSnapshot::new(s.components, s.processes(), 0u64)),
            |seed| Scenario::stress(16, 2, 2, 200, 100, 4, seed),
            0..2,
        );
        assert!(outcome.passed(), "{outcome:?}");
    }
}
