//! Virtual-memory substrate for the NeuMMU reproduction.
//!
//! This crate provides the pieces of a conventional x86-64 style virtual memory
//! system that the NeuMMU paper assumes as its environment:
//!
//! * typed virtual/physical addresses and page numbers ([`addr`]),
//! * a 4-level radix page table with 4 KB and 2 MB leaf pages ([`page_table`]),
//! * a NUMA-aware physical frame allocator ([`frame_alloc`]),
//! * device address spaces with segment allocation, demand paging and page
//!   migration ([`address_space`]),
//! * address-space identifiers that tag each tenant's translation state
//!   ([`asid`]),
//! * NUMA node identifiers ([`numa`]).
//!
//! The page table is a faithful structural model: every walk reports the exact
//! sequence of page-table entries touched, which the MMU crate uses to count
//! translation-invoked memory accesses (the quantity behind the paper's energy
//! results in Figure 12b and Section IV-D).
//!
//! # Example
//!
//! ```
//! use neummu_vmem::prelude::*;
//!
//! # fn main() -> Result<(), VmemError> {
//! let mut memory = PhysicalMemory::new(&[
//!     NodeSpec::new(MemNode::Host, 4 << 30),
//!     NodeSpec::new(MemNode::Npu(0), 1 << 30),
//! ]);
//! let mut space = AddressSpace::new("npu0");
//! let seg = space.alloc_segment(
//!     "weights",
//!     8 << 20,
//!     SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
//!     &mut memory,
//! )?;
//! let translation = space.translate(seg.start())?;
//! assert_eq!(translation.node, MemNode::Npu(0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod addr;
pub mod address_space;
pub mod asid;
pub mod error;
pub mod frame_alloc;
pub mod numa;
pub mod page_table;

pub use addr::{PageSize, PathTag, PhysAddr, PhysFrameNum, VirtAddr, VirtPageNum, WalkIndexLevel};
pub use address_space::{
    AddressSpace, FaultOutcome, Population, Segment, SegmentOptions, SpaceStats,
};
pub use asid::Asid;
pub use error::VmemError;
pub use frame_alloc::{NodeSpec, PhysicalMemory};
pub use numa::{MemNode, PlacementPolicy};
pub use page_table::{
    pages_2m, pages_4k, PageTable, PageTableStats, TableId, Translation, WalkLevel, WalkPath,
    WalkProbe, WalkStep,
};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::addr::{
        PageSize, PathTag, PhysAddr, PhysFrameNum, VirtAddr, VirtPageNum, WalkIndexLevel,
    };
    pub use crate::address_space::{
        AddressSpace, FaultOutcome, Population, Segment, SegmentOptions, SpaceStats,
    };
    pub use crate::asid::Asid;
    pub use crate::error::VmemError;
    pub use crate::frame_alloc::{NodeSpec, PhysicalMemory};
    pub use crate::numa::{MemNode, PlacementPolicy};
    pub use crate::page_table::{
        pages_2m, pages_4k, PageTable, PageTableStats, TableId, Translation, WalkLevel, WalkPath,
        WalkProbe, WalkStep,
    };
}
