//! Energy accounting for address translation.
//!
//! The NeuMMU paper quantifies the energy cost of address translation with two
//! ingredients (Section IV-B/IV-C, Figure 12b):
//!
//! 1. the **DRAM accesses performed by page-table walks** (each walked level is
//!    one memory access), costed with a 45 nm-class energy table, and
//! 2. the **SRAM accesses of the MMU structures themselves** (TLB, PTS, PRMB,
//!    TPreg), costed with CACTI-style per-access constants.
//!
//! All headline energy results in the paper are *ratios* between design points
//! (e.g. "7.1× more energy without PRMB", "16.3× less energy than the baseline
//! IOMMU"), so what matters is counting events consistently; the absolute
//! constants only set the scale.
//!
//! # Example
//!
//! ```
//! use neummu_energy::{EnergyEvent, EnergyMeter, EnergyTable};
//!
//! // One TLB lookup that missed and started a full 4-level walk.
//! let meter = EnergyMeter::from_counts(EnergyTable::default(), |event| match event {
//!     EnergyEvent::PageWalkMemoryAccess => 4,
//!     EnergyEvent::TlbLookup => 1,
//!     _ => 0,
//! });
//! assert!(meter.total_nj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accounting;
pub mod tables;

pub use accounting::{EnergyBreakdown, EnergyEvent, EnergyMeter};
pub use tables::EnergyTable;
