//! NUMA node identifiers.
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
    #[cfg(test)]
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
    #[cfg(test)]
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
}
