//! NUMA-aware physical frame allocation.
//!
//! [`PhysicalMemory`] models the pool of physical frames available in the
//! system. Each memory node (host memory, each NPU's HBM stack) owns a disjoint
//! physical-address window and hands out 4 KB frames from it. The allocator is
//! a simple bump-plus-free-list design: the simulator only needs frame
//! *identities* and per-node occupancy accounting, not data contents.
//!
//! Freed frames are kept as `(first, count)` runs, so freeing a 2 MB page is
//! one push instead of 512, and reuse hands frames back in exactly the order a
//! per-frame LIFO stack would.

use serde::Serialize;

use crate::addr::{PageSize, PhysFrameNum, PAGE_SHIFT_4K};
use crate::error::VmemError;
use crate::numa::MemNode;

/// Size of the physical-address window reserved per node (1 TiB), which keeps
/// frame numbers from different nodes disjoint and easy to attribute.
const NODE_WINDOW_BYTES: u64 = 1 << 40;

/// Frames per node window. Window 0 is never assigned; the node declared at
/// index `i` owns window `i + 1`.
const WINDOW_FRAMES: u64 = NODE_WINDOW_BYTES >> PAGE_SHIFT_4K;

/// Describes the capacity of one memory node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct NodeSpec {
    /// The node being described.
    pub node: MemNode,
    /// Capacity of the node in bytes.
    pub capacity_bytes: u64,
}

impl NodeSpec {
    /// Creates a node specification.
    #[must_use]
    pub fn new(node: MemNode, capacity_bytes: u64) -> Self {
        NodeSpec {
            node,
            capacity_bytes,
        }
    }
}

#[derive(Debug, Clone)]
struct NodeState {
    /// First frame number of this node's window.
    base_frame: u64,
    /// Total number of 4 KB frames.
    capacity_frames: u64,
    /// Next never-allocated frame (bump pointer, relative to `base_frame`).
    bump: u64,
    /// Freed frames as `(first, count)` runs relative to `base_frame`, never
    /// empty. The last run is reused first, highest frame first: the same
    /// sequence a stack of single frames pushed in ascending order pops.
    free_runs: Vec<(u64, u64)>,
    /// Total frames held in `free_runs`.
    free_frames: u64,
    /// Currently allocated frame count.
    allocated: u64,
    /// High-water mark of allocated frames.
    peak_allocated: u64,
}

/// The system's physical memory: a set of NUMA nodes with frame allocators.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    /// Node states in declaration order, parallel to `node_order`.
    nodes: Vec<NodeState>,
    node_order: Vec<MemNode>,
}

impl PhysicalMemory {
    /// Creates a physical memory with the given nodes.
    ///
    /// # Panics
    ///
    /// Panics if the same node appears twice or a node capacity exceeds the
    /// 1 TiB per-node window.
    #[must_use]
    pub fn new(specs: &[NodeSpec]) -> Self {
        let mut nodes = Vec::with_capacity(specs.len());
        let mut node_order = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            assert!(
                spec.capacity_bytes <= NODE_WINDOW_BYTES,
                "node {} capacity {} exceeds the per-node window",
                spec.node,
                spec.capacity_bytes
            );
            assert!(
                !node_order.contains(&spec.node),
                "node {} specified twice",
                spec.node
            );
            nodes.push(NodeState {
                base_frame: (i as u64 + 1) * WINDOW_FRAMES,
                capacity_frames: spec.capacity_bytes >> PAGE_SHIFT_4K,
                bump: 0,
                free_runs: Vec::new(),
                free_frames: 0,
                allocated: 0,
                peak_allocated: 0,
            });
            node_order.push(spec.node);
        }
        PhysicalMemory { nodes, node_order }
    }

    /// Creates a typical NeuMMU evaluation system: one host node plus
    /// `num_npus` NPU nodes, with the given per-NPU capacity and a large
    /// (256 GiB) host memory.
    #[must_use]
    pub fn with_npus(num_npus: u16, npu_capacity_bytes: u64) -> Self {
        let mut specs = vec![NodeSpec::new(MemNode::Host, 256 << 30)];
        for i in 0..num_npus {
            specs.push(NodeSpec::new(MemNode::Npu(i), npu_capacity_bytes));
        }
        PhysicalMemory::new(&specs)
    }

    /// Nodes configured in this memory, in declaration order.
    #[must_use]
    pub fn nodes(&self) -> &[MemNode] {
        &self.node_order
    }

    /// Index of `node` in declaration order: a scan of at most a handful of
    /// nodes, cheaper than hashing the key.
    fn index_of(&self, node: MemNode) -> Result<usize, VmemError> {
        self.node_order
            .iter()
            .position(|&n| n == node)
            .ok_or(VmemError::UnknownNode { node })
    }

    fn node_mut(&mut self, node: MemNode) -> Result<&mut NodeState, VmemError> {
        let i = self.index_of(node)?;
        Ok(&mut self.nodes[i])
    }

    fn node_ref(&self, node: MemNode) -> Result<&NodeState, VmemError> {
        Ok(&self.nodes[self.index_of(node)?])
    }

    /// Index of the node whose window holds `frame`.
    fn window_of(&self, frame: u64) -> Result<usize, VmemError> {
        (frame / WINDOW_FRAMES)
            .checked_sub(1)
            .filter(|&i| i < self.nodes.len() as u64)
            .map(|i| i as usize)
            .ok_or(VmemError::UnknownNode {
                node: MemNode::Host,
            })
    }

    /// Allocates a single 4 KB frame on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::OutOfMemory`] if the node is full and
    /// [`VmemError::UnknownNode`] if the node is not configured.
    pub fn alloc_frame(&mut self, node: MemNode) -> Result<PhysFrameNum, VmemError> {
        let state = self.node_mut(node)?;
        let frame = if let Some(run) = state.free_runs.last_mut() {
            run.1 -= 1;
            let f = run.0 + run.1;
            if run.1 == 0 {
                state.free_runs.pop();
            }
            state.free_frames -= 1;
            f
        } else if state.bump < state.capacity_frames {
            let f = state.bump;
            state.bump += 1;
            f
        } else {
            return Err(VmemError::OutOfMemory {
                node,
                frames_requested: 1,
            });
        };
        state.allocated += 1;
        state.peak_allocated = state.peak_allocated.max(state.allocated);
        Ok(PhysFrameNum::new(state.base_frame + frame))
    }

    /// Allocates `count` physically contiguous 4 KB frames on `node` and
    /// returns the first frame. Contiguity is required when backing a 2 MB
    /// page (512 frames).
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::OutOfMemory`] if the node does not have `count`
    /// contiguous frames left in its bump region.
    pub fn alloc_contiguous(
        &mut self,
        node: MemNode,
        count: u64,
    ) -> Result<PhysFrameNum, VmemError> {
        if count == 1 {
            return self.alloc_frame(node);
        }
        let state = self.node_mut(node)?;
        if state.bump + count > state.capacity_frames {
            return Err(VmemError::OutOfMemory {
                node,
                frames_requested: count,
            });
        }
        let first = state.bump;
        state.bump += count;
        state.allocated += count;
        state.peak_allocated = state.peak_allocated.max(state.allocated);
        Ok(PhysFrameNum::new(state.base_frame + first))
    }

    /// Allocates the frames backing one page of the given size on `node`.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures from the underlying node.
    pub fn alloc_page(
        &mut self,
        node: MemNode,
        page_size: PageSize,
    ) -> Result<PhysFrameNum, VmemError> {
        let frames = page_size.bytes() >> PAGE_SHIFT_4K;
        self.alloc_contiguous(node, frames)
    }

    /// Frees all frames of one page of the given size starting at `first`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::UnknownNode`] if a frame does not belong to any
    /// configured node.
    pub fn free_page(&mut self, first: PhysFrameNum, page_size: PageSize) -> Result<(), VmemError> {
        self.free_run(first.raw(), page_size.bytes() >> PAGE_SHIFT_4K)
    }

    /// Frees `count` frames starting at `first`, one run per node window the
    /// range touches (one in practice: allocations never straddle a window).
    /// Frames before the first one outside every window stay freed, exactly
    /// as if the frames had been freed one at a time in ascending order.
    fn free_run(&mut self, first: u64, count: u64) -> Result<(), VmemError> {
        let end = first + count;
        let mut frame = first;
        while frame < end {
            let i = self.window_of(frame)?;
            let state = &mut self.nodes[i];
            let run_end = end.min(state.base_frame + WINDOW_FRAMES);
            let (start, len) = (frame - state.base_frame, run_end - frame);
            match state.free_runs.last_mut() {
                // Extending the top run keeps the LIFO order: its new frames
                // sit above the old ones and are handed out first.
                Some(top) if top.0 + top.1 == start => top.1 += len,
                _ => state.free_runs.push((start, len)),
            }
            state.free_frames += len;
            state.allocated = state.allocated.saturating_sub(len);
            frame = run_end;
        }
        Ok(())
    }

    /// Number of bytes currently allocated on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::UnknownNode`] if the node is not configured.
    pub fn used_bytes(&self, node: MemNode) -> Result<u64, VmemError> {
        Ok(self.node_ref(node)?.allocated << PAGE_SHIFT_4K)
    }

    /// Peak number of bytes ever allocated on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::UnknownNode`] if the node is not configured.
    pub fn peak_bytes(&self, node: MemNode) -> Result<u64, VmemError> {
        Ok(self.node_ref(node)?.peak_allocated << PAGE_SHIFT_4K)
    }

    /// Capacity of `node` in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::UnknownNode`] if the node is not configured.
    pub fn capacity_bytes(&self, node: MemNode) -> Result<u64, VmemError> {
        Ok(self.node_ref(node)?.capacity_frames << PAGE_SHIFT_4K)
    }

    /// Remaining free bytes on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::UnknownNode`] if the node is not configured.
    pub fn free_bytes(&self, node: MemNode) -> Result<u64, VmemError> {
        let state = self.node_ref(node)?;
        Ok((state.capacity_frames - state.bump + state.free_frames) << PAGE_SHIFT_4K)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_memory() -> PhysicalMemory {
        PhysicalMemory::new(&[
            NodeSpec::new(MemNode::Host, 1 << 20),
            NodeSpec::new(MemNode::Npu(0), 1 << 20),
        ])
    }

    #[test]
    fn frames_from_different_nodes_do_not_collide() {
        let mut mem = small_memory();
        let host = mem.alloc_frame(MemNode::Host).unwrap();
        let npu = mem.alloc_frame(MemNode::Npu(0)).unwrap();
        assert_ne!(host, npu);
    }

    #[test]
    fn allocation_exhausts_and_errors() {
        let mut mem = PhysicalMemory::new(&[NodeSpec::new(MemNode::Npu(0), 3 * 4096)]);
        for _ in 0..3 {
            mem.alloc_frame(MemNode::Npu(0)).unwrap();
        }
        let err = mem.alloc_frame(MemNode::Npu(0)).unwrap_err();
        assert!(matches!(err, VmemError::OutOfMemory { .. }));
    }

    #[test]
    fn freeing_allows_reuse() {
        let mut mem = PhysicalMemory::new(&[NodeSpec::new(MemNode::Npu(0), 2 * 4096)]);
        let a = mem.alloc_frame(MemNode::Npu(0)).unwrap();
        let _b = mem.alloc_frame(MemNode::Npu(0)).unwrap();
        assert!(mem.alloc_frame(MemNode::Npu(0)).is_err());
        mem.free_page(a, PageSize::Size4K).unwrap();
        let c = mem.alloc_frame(MemNode::Npu(0)).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn contiguous_allocation_for_huge_pages() {
        let mut mem = PhysicalMemory::new(&[NodeSpec::new(MemNode::Host, 4 << 20)]);
        let first = mem.alloc_page(MemNode::Host, PageSize::Size2M).unwrap();
        let second = mem.alloc_page(MemNode::Host, PageSize::Size2M).unwrap();
        assert_eq!(second.raw() - first.raw(), 512);
        assert_eq!(mem.used_bytes(MemNode::Host).unwrap(), 4 << 20);
        assert!(mem.alloc_page(MemNode::Host, PageSize::Size2M).is_err());
    }

    #[test]
    fn accounting_tracks_usage_and_peak() {
        let mut mem = small_memory();
        assert_eq!(mem.used_bytes(MemNode::Host).unwrap(), 0);
        let f = mem.alloc_frame(MemNode::Host).unwrap();
        assert_eq!(mem.used_bytes(MemNode::Host).unwrap(), 4096);
        assert_eq!(mem.peak_bytes(MemNode::Host).unwrap(), 4096);
        mem.free_page(f, PageSize::Size4K).unwrap();
        assert_eq!(mem.used_bytes(MemNode::Host).unwrap(), 0);
        assert_eq!(mem.peak_bytes(MemNode::Host).unwrap(), 4096);
        assert_eq!(mem.capacity_bytes(MemNode::Host).unwrap(), 1 << 20);
        assert_eq!(mem.free_bytes(MemNode::Host).unwrap(), 1 << 20);
    }

    #[test]
    fn unknown_node_is_reported() {
        let mut mem = small_memory();
        assert!(matches!(
            mem.alloc_frame(MemNode::Npu(9)),
            Err(VmemError::UnknownNode { .. })
        ));
        assert!(mem.used_bytes(MemNode::Npu(9)).is_err());
    }

    #[test]
    fn with_npus_convenience_constructor() {
        let mem = PhysicalMemory::with_npus(4, 16 << 30);
        assert_eq!(mem.nodes().len(), 5);
        assert_eq!(mem.capacity_bytes(MemNode::Npu(3)).unwrap(), 16 << 30);
        assert_eq!(mem.capacity_bytes(MemNode::Host).unwrap(), 256 << 30);
    }
}
