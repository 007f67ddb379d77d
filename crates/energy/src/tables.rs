//! Per-event energy constants.
//!
//! The paper uses Horowitz's 45 nm energy table for DRAM accesses incurred by
//! page-table walks and CACTI 6.5 for the SRAM structures it adds (PRMB, PTS,
//! TPreg). The constants below follow the commonly cited 45 nm numbers: a DRAM
//! access costs on the order of nanojoules while small SRAM lookups cost
//! picojoules — a three-orders-of-magnitude gap, which is what makes redundant
//! page-table walks so expensive (Figure 12b).

use serde::{Deserialize, Serialize};

/// Per-event energy constants, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyTable {
    /// One DRAM access performed by a page-table walk (one level).
    pub dram_access_nj: f64,
    /// One lookup in the 2048-entry IOTLB.
    pub tlb_lookup_nj: f64,
    /// One fill (insertion) into the IOTLB.
    pub tlb_fill_nj: f64,
    /// One lookup of the fully-associative pending translation scoreboard.
    pub pts_lookup_nj: f64,
    /// One PRMB slot write (merging a pending request).
    pub prmb_write_nj: f64,
    /// One PRMB slot read (returning a merged request to the DMA).
    pub prmb_read_nj: f64,
    /// One TPreg comparison/read (16-byte register per PTW).
    pub tpreg_access_nj: f64,
}

impl EnergyTable {
    /// The default 45 nm-class constants used throughout the reproduction.
    #[must_use]
    pub const fn cmos_45nm() -> Self {
        EnergyTable {
            // Horowitz ISSCC'14 tutorial table: DRAM access ≈ 1.3–2.6 nJ.
            dram_access_nj: 2.0,
            // 2048-entry, ~16 KB SRAM lookup (CACTI-class estimate).
            tlb_lookup_nj: 0.012,
            tlb_fill_nj: 0.012,
            // 128-entry fully associative CAM.
            pts_lookup_nj: 0.006,
            // 8-byte PRMB slot access.
            prmb_write_nj: 0.002,
            prmb_read_nj: 0.002,
            // 16-byte register comparison.
            tpreg_access_nj: 0.0005,
        }
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        Self::cmos_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_dominates_sram_by_orders_of_magnitude() {
        let t = EnergyTable::cmos_45nm();
        assert!(t.dram_access_nj > 100.0 * t.tlb_lookup_nj);
        assert!(t.dram_access_nj > 100.0 * t.prmb_write_nj);
        assert!(t.dram_access_nj > 1000.0 * t.tpreg_access_nj);
    }

    #[test]
    fn all_constants_positive() {
        let t = EnergyTable::default();
        for v in [
            t.dram_access_nj,
            t.tlb_lookup_nj,
            t.tlb_fill_nj,
            t.pts_lookup_nj,
            t.prmb_write_nj,
            t.prmb_read_nj,
            t.tpreg_access_nj,
        ] {
            assert!(v > 0.0);
        }
    }
}
