//! Process-wide observability for this crate's shared machinery.
//!
//! The epoch table and the timestamp camera are process-global, so their
//! metrics are too: lazily created [`psnap_obs`] handles that the epoch and
//! [`crate::mv`] modules record into. Scans' per-read fast paths record
//! nothing. Writes do: every multiversioned write installs a version and
//! prunes its chain in place, so `install`, `prune` and `retire` — and
//! with them about ten of this family's records (installed, live
//! versions, chain length, pruned per call, unlinked, retired, bag items)
//! — run on every single write. That is why a record is a store on a line
//! only the recording thread writes ([`psnap_obs::metric`]); none of it
//! counts as a base-object step, so the step model's prices stay exact.
//! [`register_metrics`] names the whole family into a registry for
//! scraping.

use std::sync::{Arc, OnceLock};

use psnap_obs::{Counter, Gauge, Histogram, Metric, Registry};

macro_rules! global_metric {
    ($(#[$doc:meta])* $fn_name:ident, $ty:ident) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Arc<$ty> {
            static HANDLE: OnceLock<Arc<$ty>> = OnceLock::new();
            HANDLE.get_or_init(|| Arc::new($ty::new()))
        }
    };
}

global_metric!(
    /// Records retired through the epoch machinery.
    epoch_retired,
    Counter
);
global_metric!(
    /// Records actually freed by collections.
    epoch_freed,
    Counter
);
global_metric!(
    /// Successful global-epoch advances.
    epoch_advances,
    Counter
);
global_metric!(
    /// Collection attempts that could not advance the epoch (a pinned
    /// straggler deferred reclamation by at least one round).
    epoch_deferrals,
    Counter
);
global_metric!(
    /// Retired-but-not-yet-freed records across every thread's bags (the
    /// live garbage the reclamation scheme is currently holding).
    epoch_bag_items,
    Gauge
);
global_metric!(
    /// Items freed per collection that freed anything.
    epoch_freed_per_collect,
    Histogram
);
global_metric!(
    /// Multiversion register versions installed (chains start at 1).
    mv_installed,
    Counter
);
global_metric!(
    /// Versions unlinked by pruning (reclaimed once their epoch expires).
    mv_unlinked,
    Counter
);
global_metric!(
    /// Versions currently reachable across every live register chain.
    mv_live_versions,
    Gauge
);
global_metric!(
    /// Pending single writes finalized by a helping reader instead of their
    /// own writer.
    mv_help_finalized,
    Counter
);
global_metric!(
    /// Chain length observed at the start of each effective prune.
    mv_chain_len,
    Histogram
);
global_metric!(
    /// Camera cutovers published (one per reshard migration — see
    /// [`crate::TimestampCamera::cutover`]).
    mv_cutovers,
    Counter
);
global_metric!(
    /// Versions copied across registers by reshard migrations, with their
    /// original timestamps frozen.
    mv_migrated_versions,
    Counter
);
global_metric!(
    /// Versions unlinked per effective prune (0 records mean the prune
    /// found nothing dead).
    mv_pruned_per_call,
    Histogram
);

/// Registers every metric of this crate into `registry` under the
/// `shmem.epoch.*` / `shmem.mv.*` families.
pub fn register_metrics(registry: &Registry) {
    registry.register(
        "shmem.epoch.retired",
        Metric::Counter(Arc::clone(epoch_retired())),
    );
    registry.register(
        "shmem.epoch.freed",
        Metric::Counter(Arc::clone(epoch_freed())),
    );
    registry.register(
        "shmem.epoch.advances",
        Metric::Counter(Arc::clone(epoch_advances())),
    );
    registry.register(
        "shmem.epoch.deferrals",
        Metric::Counter(Arc::clone(epoch_deferrals())),
    );
    registry.register(
        "shmem.epoch.bag_items",
        Metric::Gauge(Arc::clone(epoch_bag_items())),
    );
    registry.register(
        "shmem.epoch.freed_per_collect",
        Metric::Histogram(Arc::clone(epoch_freed_per_collect())),
    );
    registry.register(
        "shmem.mv.installed",
        Metric::Counter(Arc::clone(mv_installed())),
    );
    registry.register(
        "shmem.mv.unlinked",
        Metric::Counter(Arc::clone(mv_unlinked())),
    );
    registry.register(
        "shmem.mv.live_versions",
        Metric::Gauge(Arc::clone(mv_live_versions())),
    );
    registry.register(
        "shmem.mv.help_finalized",
        Metric::Counter(Arc::clone(mv_help_finalized())),
    );
    registry.register(
        "shmem.mv.chain_len",
        Metric::Histogram(Arc::clone(mv_chain_len())),
    );
    registry.register(
        "shmem.mv.cutovers",
        Metric::Counter(Arc::clone(mv_cutovers())),
    );
    registry.register(
        "shmem.mv.migrated_versions",
        Metric::Counter(Arc::clone(mv_migrated_versions())),
    );
    registry.register(
        "shmem.mv.pruned_per_call",
        Metric::Histogram(Arc::clone(mv_pruned_per_call())),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_exposes_live_handles() {
        let registry = Registry::new();
        register_metrics(&registry);
        let before = registry.counter("shmem.mv.installed").get();
        mv_installed().inc();
        assert_eq!(registry.counter("shmem.mv.installed").get(), before + 1);
        let text = registry.dump_text();
        assert!(text.contains("shmem.epoch.bag_items"));
        assert!(text.contains("shmem.mv.chain_len"));
    }
}
