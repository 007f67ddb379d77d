//! Translation statistics collected by the engines.

use serde::Serialize;

/// Counters describing one translation engine's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TranslationStats {
    /// Translation requests presented to the engine.
    pub requests: u64,
    /// Requests satisfied by the IOTLB.
    pub tlb_hits: u64,
    /// Requests that missed the IOTLB.
    pub tlb_misses: u64,
    /// Requests merged into an in-flight walk by the PTS/PRMB.
    pub merged: u64,
    /// Page-table walks started.
    pub walks: u64,
    /// Page-table entry (DRAM) accesses performed by all walks.
    pub walk_memory_accesses: u64,
    /// Walks that retired with a translation and filled the TLB (a refill
    /// of a resident entry counts too, unlike [`crate::Tlb::fills`]).
    pub tlb_fills: u64,
    /// Merged requests returned from the PRMB when their walk retired.
    pub prmb_reads: u64,
    /// Page-table levels skipped thanks to the TPreg.
    pub tpreg_skipped_levels: u64,
    /// Walks whose L4 index matched the walker's TPreg.
    pub tpreg_l4_hits: u64,
    /// Walks whose L4 and L3 indices matched the walker's TPreg.
    pub tpreg_l3_hits: u64,
    /// Walks whose L4, L3 and L2 indices all matched the walker's TPreg.
    pub tpreg_l2_hits: u64,
    /// Walks checked against a valid TPreg (the denominator of the hit rates).
    pub tpreg_lookups: u64,
    /// Requests that could not be accepted immediately because every walker
    /// and every mergeable slot was busy.
    pub structural_stalls: u64,
    /// Total cycles requests spent waiting for translation bandwidth.
    pub stall_cycles: u64,
    /// Requests that targeted an unmapped page (translation faults).
    pub faults: u64,
    /// Cycle at which the last translation completed.
    pub last_completion_cycle: u64,
}

impl TranslationStats {
    /// IOTLB hit rate (0.0 when no requests were made).
    #[must_use]
    pub fn tlb_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / self.requests as f64
        }
    }

    /// Fraction of TLB misses that were merged instead of walking.
    #[must_use]
    pub fn merge_rate(&self) -> f64 {
        if self.tlb_misses == 0 {
            0.0
        } else {
            self.merged as f64 / self.tlb_misses as f64
        }
    }

    /// Average page-table memory accesses per walk.
    #[must_use]
    pub fn accesses_per_walk(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.walk_memory_accesses as f64 / self.walks as f64
        }
    }

    /// TPreg tag-match rate at the L4 index (Figure 13).
    #[must_use]
    pub fn tpreg_l4_rate(&self) -> f64 {
        Self::rate(self.tpreg_l4_hits, self.tpreg_lookups)
    }

    /// TPreg tag-match rate at the L3 index (Figure 13).
    #[must_use]
    pub fn tpreg_l3_rate(&self) -> f64 {
        Self::rate(self.tpreg_l3_hits, self.tpreg_lookups)
    }

    /// TPreg tag-match rate at the L2 index (Figure 13).
    #[must_use]
    pub fn tpreg_l2_rate(&self) -> f64 {
        Self::rate(self.tpreg_l2_hits, self.tpreg_lookups)
    }

    fn rate(hits: u64, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Merges another stats block into this one (for aggregating per-layer
    /// results into per-workload results).
    pub fn merge(&mut self, other: &TranslationStats) {
        self.requests += other.requests;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.merged += other.merged;
        self.walks += other.walks;
        self.walk_memory_accesses += other.walk_memory_accesses;
        self.tlb_fills += other.tlb_fills;
        self.prmb_reads += other.prmb_reads;
        self.tpreg_skipped_levels += other.tpreg_skipped_levels;
        self.tpreg_l4_hits += other.tpreg_l4_hits;
        self.tpreg_l3_hits += other.tpreg_l3_hits;
        self.tpreg_l2_hits += other.tpreg_l2_hits;
        self.tpreg_lookups += other.tpreg_lookups;
        self.structural_stalls += other.structural_stalls;
        self.stall_cycles += other.stall_cycles;
        self.faults += other.faults;
        self.last_completion_cycle = self.last_completion_cycle.max(other.last_completion_cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let stats = TranslationStats::default();
        assert_eq!(stats.tlb_hit_rate(), 0.0);
        assert_eq!(stats.merge_rate(), 0.0);
        assert_eq!(stats.accesses_per_walk(), 0.0);
        assert_eq!(stats.tpreg_l2_rate(), 0.0);
    }

    #[test]
    fn rates_compute_fractions() {
        let stats = TranslationStats {
            requests: 100,
            tlb_hits: 25,
            tlb_misses: 75,
            merged: 50,
            walks: 25,
            walk_memory_accesses: 100,
            tpreg_lookups: 20,
            tpreg_l4_hits: 19,
            tpreg_l3_hits: 18,
            tpreg_l2_hits: 10,
            ..TranslationStats::default()
        };
        assert!((stats.tlb_hit_rate() - 0.25).abs() < 1e-12);
        assert!((stats.merge_rate() - 50.0 / 75.0).abs() < 1e-12);
        assert!((stats.accesses_per_walk() - 4.0).abs() < 1e-12);
        assert!((stats.tpreg_l4_rate() - 0.95).abs() < 1e-12);
        assert!((stats.tpreg_l2_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = TranslationStats {
            requests: 10,
            walks: 2,
            last_completion_cycle: 50,
            ..Default::default()
        };
        let b = TranslationStats {
            requests: 5,
            walks: 1,
            last_completion_cycle: 40,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.requests, 15);
        assert_eq!(a.walks, 3);
        assert_eq!(a.last_completion_cycle, 50);
    }
}
