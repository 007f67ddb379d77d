//! The [`EnergyMeter`]: event counts priced into energy.

use std::fmt;

use serde::Serialize;

use crate::tables::EnergyTable;

/// An energy-relevant event in the translation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum EnergyEvent {
    /// One DRAM access performed by a page-table walk (one visited level).
    PageWalkMemoryAccess,
    /// One IOTLB lookup.
    TlbLookup,
    /// One IOTLB fill.
    TlbFill,
    /// One pending-translation-scoreboard lookup.
    PtsLookup,
    /// One PRMB slot write (request merged into an in-flight walk).
    PrmbWrite,
    /// One PRMB slot read (merged request returned to the DMA).
    PrmbRead,
    /// One TPreg access (tag compare or fill).
    TpregAccess,
}

impl EnergyEvent {
    /// All event kinds.
    pub const ALL: [EnergyEvent; 7] = [
        EnergyEvent::PageWalkMemoryAccess,
        EnergyEvent::TlbLookup,
        EnergyEvent::TlbFill,
        EnergyEvent::PtsLookup,
        EnergyEvent::PrmbWrite,
        EnergyEvent::PrmbRead,
        EnergyEvent::TpregAccess,
    ];
}

impl fmt::Display for EnergyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EnergyEvent::PageWalkMemoryAccess => "page-walk DRAM access",
            EnergyEvent::TlbLookup => "TLB lookup",
            EnergyEvent::TlbFill => "TLB fill",
            EnergyEvent::PtsLookup => "PTS lookup",
            EnergyEvent::PrmbWrite => "PRMB write",
            EnergyEvent::PrmbRead => "PRMB read",
            EnergyEvent::TpregAccess => "TPreg access",
        };
        f.write_str(name)
    }
}

/// Per-event-kind energy totals, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct EnergyBreakdown {
    /// Energy spent on page-walk DRAM accesses.
    pub dram_nj: f64,
    /// Energy spent on all SRAM structures (TLB, PTS, PRMB, TPreg).
    pub sram_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    #[must_use]
    pub fn total_nj(&self) -> f64 {
        self.dram_nj + self.sram_nj
    }
}

/// Translation-pipeline event counts priced with an energy table.
///
/// A meter is a value, not an accumulator: translators keep their counts in
/// their statistics and build a meter from them on demand.
#[derive(Debug, Clone, Serialize)]
pub struct EnergyMeter {
    table: EnergyTable,
    counts: [u64; EnergyEvent::ALL.len()],
}

impl Default for EnergyMeter {
    /// An all-zero meter priced with the default table.
    fn default() -> Self {
        Self::from_counts(EnergyTable::default(), |_| 0)
    }
}

impl EnergyMeter {
    /// A meter holding `count(event)` occurrences of every event, priced
    /// with `table`.
    #[must_use]
    pub fn from_counts(table: EnergyTable, count: impl Fn(EnergyEvent) -> u64) -> Self {
        EnergyMeter {
            table,
            counts: EnergyEvent::ALL.map(count),
        }
    }

    /// Index of `event` in [`EnergyEvent::ALL`].
    const fn index(event: EnergyEvent) -> usize {
        match event {
            EnergyEvent::PageWalkMemoryAccess => 0,
            EnergyEvent::TlbLookup => 1,
            EnergyEvent::TlbFill => 2,
            EnergyEvent::PtsLookup => 3,
            EnergyEvent::PrmbWrite => 4,
            EnergyEvent::PrmbRead => 5,
            EnergyEvent::TpregAccess => 6,
        }
    }

    /// Number of occurrences of `event`.
    #[must_use]
    pub fn count(&self, event: EnergyEvent) -> u64 {
        self.counts[Self::index(event)]
    }

    /// Energy cost of a single occurrence of `event`, in nanojoules.
    #[must_use]
    pub fn unit_cost_nj(&self, event: EnergyEvent) -> f64 {
        match event {
            EnergyEvent::PageWalkMemoryAccess => self.table.dram_access_nj,
            EnergyEvent::TlbLookup => self.table.tlb_lookup_nj,
            EnergyEvent::TlbFill => self.table.tlb_fill_nj,
            EnergyEvent::PtsLookup => self.table.pts_lookup_nj,
            EnergyEvent::PrmbWrite => self.table.prmb_write_nj,
            EnergyEvent::PrmbRead => self.table.prmb_read_nj,
            EnergyEvent::TpregAccess => self.table.tpreg_access_nj,
        }
    }

    /// Total translation energy in nanojoules.
    #[must_use]
    pub fn total_nj(&self) -> f64 {
        EnergyEvent::ALL
            .iter()
            .map(|e| self.count(*e) as f64 * self.unit_cost_nj(*e))
            .sum()
    }

    /// DRAM-vs-SRAM breakdown of the total energy.
    #[must_use]
    pub fn breakdown(&self) -> EnergyBreakdown {
        let dram_nj = self.count(EnergyEvent::PageWalkMemoryAccess) as f64
            * self.unit_cost_nj(EnergyEvent::PageWalkMemoryAccess);
        EnergyBreakdown {
            dram_nj,
            sram_nj: self.total_nj() - dram_nj,
        }
    }

    /// Ratio of this meter's total energy to `baseline`'s total energy.
    ///
    /// Returns `None` if the baseline recorded zero energy.
    #[cfg(test)]
    #[must_use]
    pub fn relative_to(&self, baseline: &EnergyMeter) -> Option<f64> {
        let base = baseline.total_nj();
        if base == 0.0 {
            None
        } else {
            Some(self.total_nj() / base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A default-table meter holding the given `(event, count)` pairs.
    fn meter(counts: &[(EnergyEvent, u64)]) -> EnergyMeter {
        EnergyMeter::from_counts(EnergyTable::default(), |event| {
            counts
                .iter()
                .find(|(e, _)| *e == event)
                .map_or(0, |(_, n)| *n)
        })
    }

    #[test]
    fn counting_and_total() {
        assert_eq!(EnergyMeter::default().total_nj(), 0.0);
        let m = meter(&[
            (EnergyEvent::PageWalkMemoryAccess, 4),
            (EnergyEvent::TlbLookup, 100),
        ]);
        assert_eq!(m.count(EnergyEvent::PageWalkMemoryAccess), 4);
        assert_eq!(m.count(EnergyEvent::TlbLookup), 100);
        assert_eq!(m.count(EnergyEvent::PrmbRead), 0);
        let expected = 4.0 * m.unit_cost_nj(EnergyEvent::PageWalkMemoryAccess)
            + 100.0 * m.unit_cost_nj(EnergyEvent::TlbLookup);
        assert!((m.total_nj() - expected).abs() < 1e-12);
    }

    #[test]
    fn breakdown_splits_dram_and_sram() {
        let m = meter(&[
            (EnergyEvent::PageWalkMemoryAccess, 10),
            (EnergyEvent::PrmbWrite, 10),
        ]);
        let b = m.breakdown();
        assert!(b.dram_nj > b.sram_nj);
        assert!((b.total_nj() - m.total_nj()).abs() < 1e-12);
    }

    #[test]
    fn relative_to_baseline() {
        let neummu = meter(&[(EnergyEvent::PageWalkMemoryAccess, 10)]);
        let iommu = meter(&[(EnergyEvent::PageWalkMemoryAccess, 163)]);
        let ratio = iommu.relative_to(&neummu).unwrap();
        assert!((ratio - 16.3).abs() < 0.01);
        let empty = EnergyMeter::default();
        assert!(neummu.relative_to(&empty).is_none());
    }

    #[test]
    fn index_matches_all_order() {
        for (i, e) in EnergyEvent::ALL.iter().enumerate() {
            assert_eq!(EnergyMeter::index(*e), i);
        }
    }

    #[test]
    fn event_display_names_are_nonempty() {
        for e in EnergyEvent::ALL {
            assert!(!e.to_string().is_empty());
        }
    }
}
