//! The partial snapshot object interface.

use psnap_shmem::ProcessId;

/// A repartitioning request against a sharded implementation: change the
/// component→shard assignment of a live object without stopping traffic.
///
/// Shard ids refer to the *current* generation's id space (see
/// [`Resharding::generation`]); a split appends its new shard at the
/// next free id, a merge leaves the `from` id allocated but empty. Both ops
/// bump the generation by exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshardOp {
    /// Split `shard` in two: the first half of its components, in index
    /// order, keeps the label, the rest take a freshly appended shard's.
    Split {
        /// The shard to split (must own at least two components).
        shard: usize,
    },
    /// Relabel every component of `from` as `into`'s, leaving `from` empty.
    Merge {
        /// The shard to drain (becomes empty).
        from: usize,
        /// The shard that absorbs `from`'s components.
        into: usize,
    },
}

/// A linearizable partial snapshot object over `m` components of type `T`
/// (Section 2.1 of the paper).
///
/// * [`update`](PartialSnapshot::update) atomically replaces one component.
/// * [`scan`](PartialSnapshot::scan) atomically reads an arbitrary subset of
///   the components: the returned vector holds the value of component
///   `components[j]` at position `j`, and all returned values are consistent
///   with a single linearization point inside the scan's interval.
///
/// All methods take the id of the calling process explicitly; process ids must
/// be smaller than the `max_processes` the object was created with (they index
/// the per-process announcement registers of the paper's algorithms).
pub trait PartialSnapshot<T: Clone + Send + Sync + 'static>: Send + Sync {
    /// Number of components `m`.
    fn components(&self) -> usize;

    /// Maximum number of processes `n` the object was configured for.
    fn max_processes(&self) -> usize;

    /// Atomically writes `value` into `component` on behalf of process `pid`.
    fn update(&self, pid: ProcessId, component: usize, value: T);

    /// Atomically writes every `(component, value)` pair of `writes` on
    /// behalf of process `pid`.
    ///
    /// # Atomicity contract
    ///
    /// The whole batch takes effect at a **single linearization point**: a
    /// concurrent scan observes either every write of the batch or none of
    /// them, never a strict subset. Duplicate components within one batch
    /// resolve **last-write-wins** (the batch behaves as if only the final
    /// occurrence of each component were present). An empty batch is a no-op
    /// (the process id is still validated) and a one-element batch is
    /// equivalent to [`update`](PartialSnapshot::update).
    ///
    /// # Progress
    ///
    /// Batched updates are serialized against each other per object, and
    /// they make concurrent scans blocking: a scan waits out any batch write
    /// phase in flight (so a batcher suspended mid-batch stalls scans until
    /// it resumes), and a relentless batch stream can invalidate scan
    /// windows unboundedly. [`is_wait_free`](PartialSnapshot::is_wait_free)
    /// continues to describe the paper's single-update/scan interface.
    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]);

    /// Atomically reads the listed components on behalf of process `pid`.
    ///
    /// The `components` slice may list indices in any order; duplicates are
    /// allowed and each occurrence is answered. The result has the same length
    /// and order as `components`.
    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T>;

    /// Scans all `m` components (the classical snapshot `scan`).
    fn scan_all(&self, pid: ProcessId) -> Vec<T> {
        let all: Vec<usize> = (0..self.components()).collect();
        self.scan(pid, &all)
    }

    /// True if every operation of this implementation completes in a bounded
    /// number of its own steps (used by the harness to decide whether an
    /// implementation may be exposed to adversarial stalls).
    fn is_wait_free(&self) -> bool;

    /// Short name used in experiment tables.
    fn name(&self) -> &'static str;
}

impl<T: Clone + Send + Sync + 'static, S: PartialSnapshot<T> + ?Sized> PartialSnapshot<T>
    for std::sync::Arc<S>
{
    fn components(&self) -> usize {
        (**self).components()
    }
    fn max_processes(&self) -> usize {
        (**self).max_processes()
    }
    fn update(&self, pid: ProcessId, component: usize, value: T) {
        (**self).update(pid, component, value)
    }
    fn update_many(&self, pid: ProcessId, writes: &[(usize, T)]) {
        (**self).update_many(pid, writes)
    }
    fn scan(&self, pid: ProcessId, components: &[usize]) -> Vec<T> {
        (**self).scan(pid, components)
    }
    fn scan_all(&self, pid: ProcessId) -> Vec<T> {
        (**self).scan_all(pid)
    }
    fn is_wait_free(&self) -> bool {
        (**self).is_wait_free()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Online repartitioning of a sharded implementation: the four operations a
/// reshard policy reads and drives. The paper's objects are unsharded and do
/// not implement it; only the sharded store (and `Arc`s of it) does, and
/// there a shard is a label over one object's registers, so a reshard
/// changes the labels and moves no value.
pub trait Resharding: Send + Sync {
    /// Per-shard operation counts ("heat"): element `i` is how many
    /// operations have touched shard `i` since construction.
    fn shard_heat(&self) -> Vec<u64>;

    /// Components owned per shard under the current partition map: element
    /// `i` is how many components shard `i` currently labels (`0` for a
    /// merged-away shard id whose slot stays allocated). A reshard policy
    /// needs this alongside [`shard_heat`](Resharding::shard_heat): rates
    /// alone cannot tell an emptied shard from an idle one that still owns
    /// components.
    fn shard_sizes(&self) -> Vec<usize>;

    /// The generation number of the partition map currently labelling this
    /// object; an accepted [`reshard`](Resharding::reshard) advances it by
    /// one. The serve layer's reshard driver stamps it on each accepted op's
    /// span and flight-recorder dump.
    fn generation(&self) -> u64;

    /// Applies a repartitioning op to a live object, returning `true` if the
    /// layout changed (the generation advanced by one). Callers must treat a
    /// refusal (a degenerate op, such as a split of a shard with fewer than
    /// two components) as "layout unchanged", not an error.
    /// Implementations must not stop the world: scans, updates and batches
    /// in flight on the old generation complete correctly and linearizably,
    /// and the reshard must not wait for them.
    fn reshard(&self, op: ReshardOp) -> bool;
}

impl<S: Resharding + ?Sized> Resharding for std::sync::Arc<S> {
    fn shard_heat(&self) -> Vec<u64> {
        (**self).shard_heat()
    }
    fn shard_sizes(&self) -> Vec<usize> {
        (**self).shard_sizes()
    }
    fn generation(&self) -> u64 {
        (**self).generation()
    }
    fn reshard(&self, op: ReshardOp) -> bool {
        (**self).reshard(op)
    }
}

/// Validates the arguments of a batched update against an object of `m`
/// components and `n` processes; shared by all implementations, in this
/// crate and in the sharded stores built on it.
///
/// # Panics
///
/// If `pid` is not below `n` ("process id … out of range") or a written
/// component is not below `m` ("component … out of range").
pub fn validate_batch_args<T>(m: usize, n: usize, pid: ProcessId, writes: &[(usize, T)]) {
    assert!(
        pid.index() < n,
        "process id {pid} out of range: object configured for {n} processes"
    );
    for (c, _) in writes {
        assert!(
            *c < m,
            "component {c} out of range: object has {m} components"
        );
    }
}

/// Validates scan/update arguments against an object of `m` components and
/// `n` processes; shared by all implementations, like
/// [`validate_batch_args`], and panicking the same way.
pub fn validate_args(m: usize, n: usize, pid: ProcessId, components: &[usize]) {
    assert!(
        pid.index() < n,
        "process id {pid} out of range: object configured for {n} processes"
    );
    for &c in components {
        assert!(
            c < m,
            "component {c} out of range: object has {m} components"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_good_args() {
        validate_args(8, 4, ProcessId(3), &[0, 7, 7]);
        validate_args(1, 1, ProcessId(0), &[]);
    }

    #[test]
    #[should_panic(expected = "process id")]
    fn validate_rejects_bad_pid() {
        validate_args(8, 4, ProcessId(4), &[0]);
    }

    #[test]
    #[should_panic(expected = "component")]
    fn validate_rejects_bad_component() {
        validate_args(8, 4, ProcessId(0), &[8]);
    }
}
