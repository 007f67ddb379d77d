//! The NeuMMU core: address-translation hardware models for NPUs.
//!
//! This crate implements the paper's contribution (Section IV) and the
//! baselines it is compared against:
//!
//! * a GPU-style **baseline IOMMU**: a 2048-entry IOTLB in front of 8 shared
//!   hardware page-table walkers (Table I),
//! * **NeuMMU**: the same IOTLB plus
//!   - a *Pending Translation Scoreboard* (PTS) that detects translation
//!     requests to pages whose walk is already in flight,
//!   - a per-walker *Pending Request Merging Buffer* (PRMB) that merges such
//!     requests instead of spending another walk (Section IV-A),
//!   - a much larger pool of parallel page-table walkers, making the design
//!     throughput-centric (Section IV-B), and
//!   - a per-walker *Translation Path Register* (TPreg) that skips the upper
//!     levels of the radix walk when the L4/L3/L2 indices match the previous
//!     walk (Section IV-C),
//! * an **oracular MMU** in which every translation completes instantly — the
//!   normalization baseline of every figure,
//! * the **UPTC / TPC** MMU-cache design points used in the Section IV-C
//!   design-space discussion.
//!
//! The cycle-level behaviour is exposed through [`engine::TranslationEngine`],
//! which the NPU simulator drives with one translation request per DMA
//! transaction.
//!
//! # Example
//!
//! ```
//! use neummu_mmu::prelude::*;
//! use neummu_vmem::prelude::*;
//!
//! # fn main() -> Result<(), VmemError> {
//! // Map a small segment and translate a burst of addresses through NeuMMU.
//! let mut memory = PhysicalMemory::with_npus(1, 1 << 30);
//! let mut space = AddressSpace::new("npu0");
//! let seg = space.alloc_segment(
//!     "weights",
//!     1 << 20,
//!     SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
//!     &mut memory,
//! )?;
//! let mut mmu = TranslationEngine::new(MmuConfig::neummu());
//! let mut cycle = 0;
//! for i in 0..64 {
//!     let outcome = mmu.translate(space.page_table(), seg.start().add(i * 512), cycle);
//!     cycle = outcome.accept_cycle + 1;
//! }
//! assert_eq!(mmu.stats().requests, 64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod engine;
pub mod mmu_cache;
pub mod stats;
pub mod tlb;
pub mod tpreg;
pub mod walker;

pub use config::{MmuConfig, MmuKind};
pub use engine::{
    AddressTranslator, OracleTranslator, RunOutcome, TranslationEngine, TranslationOutcome,
    TranslationSource,
};
pub use mmu_cache::{MmuCacheKind, TranslationPathCache, UnifiedPageTableCache, WalkCache};
// Fault-injection vocabulary, re-exported so downstream crates configuring a
// faulted engine need not depend on `neummu_faults` directly.
pub use neummu_faults::{
    DeviceFaultConfig, DeviceFaultPlan, FaultCounters, FaultError, FaultKind, FaultRate,
    InjectedFault, ResilienceConfig,
};
pub use stats::TranslationStats;
pub use tlb::Tlb;
pub use tpreg::TranslationPathRegister;
pub use walker::WalkerPool;

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::config::{MmuConfig, MmuKind};
    pub use crate::engine::{
        AddressTranslator, OracleTranslator, RunOutcome, TranslationEngine, TranslationOutcome,
        TranslationSource,
    };
    pub use crate::mmu_cache::{
        MmuCacheKind, TranslationPathCache, UnifiedPageTableCache, WalkCache,
    };
    pub use crate::stats::TranslationStats;
    pub use crate::tlb::Tlb;
    pub use crate::tpreg::TranslationPathRegister;
    pub use crate::walker::WalkerPool;
}
