//! [`ReshardPolicy`]: turns windowed shard-heat rates into split/merge
//! decisions for a live sharded store.
//!
//! The store tells us *where* operations land ([`shard_heat`] counters, one
//! per shard); the obs layer differentiates those cumulative counters into
//! **rates** over a recent window. This module is the pure decision core
//! sitting between the two: given the current rate vector and the current
//! layout, should the driver split a hot shard, merge a cold one away, or
//! leave the layout alone? Keeping it pure (no clocks, no atomics, no store
//! handle) makes every policy decision unit-testable and lets the serve
//! layer's reshard driver stay a thin periodic loop: sample rates → ask the
//! policy → maybe call [`reshard`].
//!
//! The policy is deliberately conservative: act only on a sustained,
//! unambiguous signal, and rate-limit actions with a cooldown so one noisy
//! window never causes a split/merge ping-pong.
//!
//! [`shard_heat`]: psnap_core::Resharding::shard_heat
//! [`reshard`]: psnap_core::Resharding::reshard

use psnap_core::ReshardOp;

/// Tuning knobs for [`ReshardPolicy`]. The defaults suit the serve layer's
/// stats cadence (a decision tick every few hundred milliseconds).
#[derive(Clone, Copy, Debug)]
pub struct ReshardPolicyConfig {
    /// A shard is split when its share of the total heat rate exceeds
    /// `split_skew` times the fair share (`1 / live_shards`). With the
    /// default `2.0`, a shard drawing twice its fair share splits.
    pub split_skew: f64,
    /// A shard is merged away when its share of the total rate falls below
    /// `merge_skew` times the fair share **and** some sibling is cold
    /// enough to absorb it without itself becoming split-worthy.
    pub merge_skew: f64,
    /// Never merge below this many live (non-empty) shards.
    pub min_shards: usize,
    /// Never split above this many live shards (bounds per-scan union
    /// fan-out and the serve layer's per-shard bookkeeping).
    pub max_shards: usize,
    /// Decision ticks to skip after an accepted op, letting rates re-settle
    /// over the new layout before acting again.
    pub cooldown_ticks: u32,
    /// Ignore windows whose total rate is below this (ops per tick):
    /// skew over a near-idle window is noise, not load.
    pub min_total_rate: f64,
}

impl Default for ReshardPolicyConfig {
    fn default() -> Self {
        ReshardPolicyConfig {
            split_skew: 2.0,
            merge_skew: 0.25,
            min_shards: 1,
            max_shards: 64,
            cooldown_ticks: 4,
            min_total_rate: 1.0,
        }
    }
}

/// A windowed-heat-driven split/merge policy. Feed it one rate vector and
/// the current per-shard component counts per decision tick via
/// [`decide`](ReshardPolicy::decide); it returns at most
/// one [`ReshardOp`] and self-imposes a cooldown between actions. Call
/// [`note_applied`](ReshardPolicy::note_applied) when the store accepted
/// the op so the cooldown starts counting.
#[derive(Debug)]
pub struct ReshardPolicy {
    config: ReshardPolicyConfig,
    cooldown: u32,
}

impl ReshardPolicy {
    /// A policy with the given tuning.
    pub fn new(config: ReshardPolicyConfig) -> Self {
        ReshardPolicy {
            config,
            cooldown: 0,
        }
    }

    /// The policy's tuning.
    pub fn config(&self) -> &ReshardPolicyConfig {
        &self.config
    }

    /// One decision tick: given per-shard heat *rates* over the most recent
    /// window and the per-shard component counts of the current layout
    /// (both indexed by shard id), propose at most one reshard op. Pure
    /// apart from the cooldown countdown.
    ///
    /// The layout vector is what distinguishes a *merged-away* shard id
    /// (owns nothing, excluded from the fair share forever) from an *idle*
    /// shard that still owns components (dilutes the fair share, and is
    /// itself a merge candidate) — rates alone cannot tell them apart, and
    /// inferring liveness from rates would make the most important case of
    /// all, every operation hammering one shard of many, look like a
    /// one-shard object with nothing to split.
    ///
    /// Split beats merge when both trigger: relieving an overloaded shard
    /// is worth more than compacting an idle one, and the cooldown prevents
    /// doing both in back-to-back windows anyway.
    pub fn decide(&mut self, rates: &[f64], sizes: &[usize]) -> Option<ReshardOp> {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let total: f64 = rates.iter().sum();
        if total < self.config.min_total_rate {
            return None;
        }
        // Shards that currently own components, with their rates (a shard
        // appended mid-window may not have a rate slot yet — treat as 0).
        let owning: Vec<(usize, f64)> = sizes
            .iter()
            .enumerate()
            .filter(|(_, size)| **size > 0)
            .map(|(i, _)| (i, rates.get(i).copied().unwrap_or(0.0)))
            .collect();
        let live = owning.len().max(1);
        let fair = total / live as f64;
        let hottest = owning.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1))?;
        if live < self.config.max_shards
            && hottest.1 > self.config.split_skew * fair
            && sizes[hottest.0] > 1
        {
            return Some(ReshardOp::Split { shard: hottest.0 });
        }
        if live > self.config.min_shards {
            // Coldest owning shard, and the coolest *other* owning shard to
            // absorb it: merge only if the combined rate stays below the
            // split threshold, or the pair would split right back apart.
            let mut by_rate = owning;
            by_rate.sort_by(|a, b| a.1.total_cmp(&b.1));
            if let [(coldest, cold_rate), (absorber, absorber_rate), ..] = by_rate[..] {
                if cold_rate < self.config.merge_skew * fair
                    && cold_rate + absorber_rate <= self.config.split_skew * fair
                {
                    return Some(ReshardOp::Merge {
                        from: coldest,
                        into: absorber,
                    });
                }
            }
        }
        None
    }

    /// Tells the policy the store accepted its last proposal; starts the
    /// cooldown.
    pub fn note_applied(&mut self) {
        self.cooldown = self.config.cooldown_ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ReshardPolicy {
        ReshardPolicy::new(ReshardPolicyConfig::default())
    }

    #[test]
    fn balanced_load_is_left_alone() {
        let mut p = policy();
        assert_eq!(p.decide(&[10.0, 11.0, 9.0, 10.0], &[4, 4, 4, 4]), None);
    }

    #[test]
    fn a_hot_shard_is_split() {
        let mut p = policy();
        assert_eq!(
            p.decide(&[100.0, 10.0, 10.0, 10.0], &[4, 4, 4, 4]),
            Some(ReshardOp::Split { shard: 0 })
        );
    }

    #[test]
    fn fully_skewed_load_still_splits() {
        // The case a rate-inferred liveness count gets wrong: every single
        // operation lands on shard 0 and its siblings are completely
        // silent. The layout says three shards share the space, so shard
        // 0's rate is three times fair share — split it.
        let mut p = policy();
        assert_eq!(
            p.decide(&[90.0, 0.0, 0.0], &[8, 8, 8]),
            Some(ReshardOp::Split { shard: 0 })
        );
    }

    #[test]
    fn a_single_slot_shard_is_never_split() {
        let mut p = policy();
        // Shard 0 is overloaded but owns one component; splitting cannot
        // relieve it (and the store would refuse anyway). The siblings are
        // warm enough that no merge triggers either.
        assert_eq!(p.decide(&[100.0, 20.0, 25.0], &[1, 4, 4]), None);
    }

    #[test]
    fn a_cold_shard_merges_into_the_next_coldest() {
        let mut p = policy();
        // Shard 2 draws ~2% of fair share; shard 1 is the coolest absorber.
        assert_eq!(
            p.decide(&[40.0, 30.0, 0.5, 40.0], &[4, 4, 4, 4]),
            Some(ReshardOp::Merge { from: 2, into: 1 })
        );
    }

    #[test]
    fn an_idle_owning_shard_is_a_merge_candidate() {
        let mut p = policy();
        // Shard 0 owns components but drew nothing this window — exactly
        // the shard worth compacting away.
        assert_eq!(
            p.decide(&[0.0, 50.0, 45.0], &[4, 4, 4]),
            Some(ReshardOp::Merge { from: 0, into: 2 })
        );
    }

    #[test]
    fn merge_is_refused_when_the_pair_would_be_split_worthy() {
        let mut p = ReshardPolicy::new(ReshardPolicyConfig {
            split_skew: 1.2,
            merge_skew: 0.9,
            ..ReshardPolicyConfig::default()
        });
        // Coldest (29 < 0.9·fair≈35.4) is under the generous merge
        // threshold, but merging it into the absorber (29 + 44 = 73 >
        // 1.2·fair≈47.2) would cross the split threshold — refuse. The
        // hottest shard (45) is itself below the split threshold.
        assert_eq!(p.decide(&[29.0, 45.0, 44.0], &[3, 3, 3]), None);
    }

    #[test]
    fn idle_windows_and_cooldowns_are_quiet() {
        let mut p = policy();
        let sizes = [3, 3, 3];
        assert_eq!(
            p.decide(&[0.2, 0.1, 0.0], &sizes),
            None,
            "idle window is noise"
        );
        assert_eq!(
            p.decide(&[100.0, 1.0, 1.0], &sizes),
            Some(ReshardOp::Split { shard: 0 })
        );
        p.note_applied();
        for _ in 0..p.config().cooldown_ticks {
            assert_eq!(
                p.decide(&[100.0, 1.0, 1.0], &sizes),
                None,
                "cooldown tick acted"
            );
        }
        assert_eq!(
            p.decide(&[100.0, 1.0, 1.0], &sizes),
            Some(ReshardOp::Split { shard: 0 }),
            "cooldown must expire"
        );
    }

    #[test]
    fn shard_count_bounds_are_respected() {
        let mut capped = ReshardPolicy::new(ReshardPolicyConfig {
            max_shards: 3,
            ..ReshardPolicyConfig::default()
        });
        assert_eq!(
            capped.decide(&[100.0, 30.0, 30.0], &[4, 4, 4]),
            None,
            "at max_shards"
        );
        let mut floored = ReshardPolicy::new(ReshardPolicyConfig {
            min_shards: 2,
            ..ReshardPolicyConfig::default()
        });
        assert_eq!(floored.decide(&[40.0, 0.1], &[4, 4]), None, "at min_shards");
    }

    #[test]
    fn emptied_shard_ids_do_not_dilute_the_fair_share() {
        let mut p = policy();
        // Shard 1 was merged away (owns nothing); with 2 owning shards the
        // fair share is 50%, and 60/40 is not split-worthy.
        assert_eq!(p.decide(&[60.0, 0.0, 40.0], &[4, 0, 4]), None);
    }
}
