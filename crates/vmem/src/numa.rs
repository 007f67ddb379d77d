//! NUMA node identifiers and placement helpers.
//!
//! The NeuMMU case study (Section V) models a system with one capacity-optimized
//! host (CPU) memory and several bandwidth-optimized NPU-local memories. Pages
//! can live on any node, and an MMU-equipped NPU may access remote pages either
//! through fine-grained NUMA loads or by migrating pages into its local memory.

use std::fmt;

use serde::Serialize;

/// Identifies one memory node in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum MemNode {
    /// Host (CPU-attached, capacity-optimized) memory.
    Host,
    /// Local memory of the NPU with the given index.
    Npu(u16),
}

impl MemNode {
    /// True if this node is NPU-local memory.
    #[must_use]
    pub const fn is_npu(self) -> bool {
        matches!(self, MemNode::Npu(_))
    }

    /// The NPU index, if this is an NPU node.
    #[must_use]
    pub const fn npu_index(self) -> Option<u16> {
        match self {
            MemNode::Npu(i) => Some(i),
            MemNode::Host => None,
        }
    }

    /// True if an access from `accessor` to memory on `self` is local.
    #[must_use]
    pub fn is_local_to(self, accessor: MemNode) -> bool {
        self == accessor
    }
}

impl fmt::Display for MemNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemNode::Host => write!(f, "host"),
            MemNode::Npu(i) => write!(f, "npu{i}"),
        }
    }
}

/// How a multi-device system places the shards of a partitioned data structure
/// (the embedding tables of Section V) across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PlacementPolicy {
    /// Everything stays in host memory (the "host-centric" approach of
    /// Section III-A).
    HostOnly,
    /// Shard `i` is placed on `Npu(i % num_npus)` (the "accelerator-centric"
    /// model parallelism of Figure 5).
    RoundRobinNpus {
        /// Number of NPUs participating in the round-robin placement.
        num_npus: u16,
    },
}

impl PlacementPolicy {
    /// Node that owns shard `shard_index` under this policy.
    #[must_use]
    pub fn node_for_shard(self, shard_index: usize) -> MemNode {
        match self {
            PlacementPolicy::HostOnly => MemNode::Host,
            PlacementPolicy::RoundRobinNpus { num_npus } => {
                assert!(
                    num_npus > 0,
                    "round-robin placement requires at least one NPU"
                );
                MemNode::Npu((shard_index % num_npus as usize) as u16)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_display_and_queries() {
        assert_eq!(MemNode::Host.to_string(), "host");
        assert_eq!(MemNode::Npu(3).to_string(), "npu3");
        assert!(MemNode::Npu(0).is_npu());
        assert!(!MemNode::Host.is_npu());
        assert_eq!(MemNode::Npu(7).npu_index(), Some(7));
        assert_eq!(MemNode::Host.npu_index(), None);
    }

    #[test]
    fn locality() {
        assert!(MemNode::Npu(1).is_local_to(MemNode::Npu(1)));
        assert!(!MemNode::Npu(1).is_local_to(MemNode::Npu(2)));
        assert!(!MemNode::Host.is_local_to(MemNode::Npu(0)));
    }

    #[test]
    fn round_robin_placement_cycles_over_npus() {
        let policy = PlacementPolicy::RoundRobinNpus { num_npus: 4 };
        assert_eq!(policy.node_for_shard(0), MemNode::Npu(0));
        assert_eq!(policy.node_for_shard(3), MemNode::Npu(3));
        assert_eq!(policy.node_for_shard(4), MemNode::Npu(0));
        assert_eq!(policy.node_for_shard(9), MemNode::Npu(1));
    }

    #[test]
    fn host_only_placement() {
        let policy = PlacementPolicy::HostOnly;
        for shard in 0..8 {
            assert_eq!(policy.node_for_shard(shard), MemNode::Host);
        }
    }

    #[test]
    #[should_panic(expected = "at least one NPU")]
    fn round_robin_with_zero_npus_panics() {
        let policy = PlacementPolicy::RoundRobinNpus { num_npus: 0 };
        let _ = policy.node_for_shard(0);
    }
}
