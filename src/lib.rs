//! Umbrella crate for workspace-level examples and integration tests.
//!
//! Re-exports the public API of every crate in the reproduction so examples
//! and integration tests can use a single import root, and holds
//! [`ImplKind`], the list of implementations those tests iterate.

pub use psnap_activeset as activeset;
pub use psnap_core as snapshot;
pub use psnap_json as json;
pub use psnap_obs as obs;
pub use psnap_serve as serve;
pub use psnap_shard as shard;
pub use psnap_shmem as shmem;
pub use psnap_sim as sim;
pub use psnap_sim::lincheck;
pub use psnap_wire as wire;
pub use psnap_workloads as workloads;

pub mod implementations;

pub use implementations::ImplKind;
