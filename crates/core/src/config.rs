//! MMU configuration and the paper's named design points.

use serde::Serialize;

use neummu_vmem::PageSize;

/// Named MMU design points evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MmuKind {
    /// Oracular MMU: every translation hits with zero latency (the baseline
    /// all figures are normalized against).
    Oracle,
    /// GPU-style baseline IOMMU: IOTLB + a handful of shared page-table
    /// walkers, no request merging, no translation-path register.
    BaselineIommu,
    /// The proposed NeuMMU: PTS + PRMB + many parallel walkers + TPreg.
    NeuMmu,
    /// A custom configuration produced by the builder methods.
    Custom,
}

impl MmuKind {
    /// Short label used in result tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MmuKind::Oracle => "Oracle",
            MmuKind::BaselineIommu => "IOMMU",
            MmuKind::NeuMmu => "NeuMMU",
            MmuKind::Custom => "Custom",
        }
    }
}

/// Configuration of a translation engine.
///
/// Defaults follow Table I of the paper; the named constructors give the three
/// design points used throughout the evaluation, and the `with_*` builder
/// methods support the sensitivity sweeps of Figures 10–12 and Section VI-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MmuConfig {
    /// Which named design point this configuration corresponds to.
    pub kind: MmuKind,
    /// Number of IOTLB entries (Table I: 2048).
    pub tlb_entries: usize,
    /// IOTLB associativity (ways per set).
    pub tlb_ways: usize,
    /// IOTLB hit latency in cycles (Table I: 5).
    pub tlb_hit_latency: u64,
    /// Number of hardware page-table walkers (Table I baseline: 8; NeuMMU: 128).
    pub num_ptws: usize,
    /// Latency of each page-table level access in cycles (Table I: 100).
    pub walk_latency_per_level: u64,
    /// Mergeable PRMB slots per walker; 0 disables merging entirely (baseline
    /// IOMMU behaviour, where concurrent requests to an in-flight page each
    /// spend their own walk).
    pub prmb_slots_per_ptw: usize,
    /// Whether each walker carries a translation path register.
    pub tpreg_enabled: bool,
    /// Page size the engine translates at.
    pub page_size: PageSize,
}

impl MmuConfig {
    /// The oracular MMU.
    #[must_use]
    pub fn oracle() -> Self {
        MmuConfig {
            kind: MmuKind::Oracle,
            ..Self::baseline_iommu()
        }
    }

    /// The baseline IOMMU of Table I: 2048-entry TLB, 8 walkers, no merging,
    /// no TPreg.
    #[must_use]
    pub fn baseline_iommu() -> Self {
        MmuConfig {
            kind: MmuKind::BaselineIommu,
            tlb_entries: 2048,
            tlb_ways: 8,
            tlb_hit_latency: 5,
            num_ptws: 8,
            walk_latency_per_level: 100,
            prmb_slots_per_ptw: 0,
            tpreg_enabled: false,
            page_size: PageSize::Size4K,
        }
    }

    /// The proposed NeuMMU design point: 32 PRMB slots per walker, 128
    /// walkers, TPreg enabled (Section IV-D).
    #[must_use]
    pub fn neummu() -> Self {
        MmuConfig {
            kind: MmuKind::NeuMmu,
            num_ptws: 128,
            prmb_slots_per_ptw: 32,
            tpreg_enabled: true,
            ..Self::baseline_iommu()
        }
    }

    /// Overrides the number of page-table walkers (Figures 11 and 12a).
    #[must_use]
    pub fn with_ptws(mut self, num_ptws: usize) -> Self {
        self.num_ptws = num_ptws;
        self.kind = MmuKind::Custom;
        self
    }

    /// Overrides the PRMB slot count (Figure 10); 0 disables merging.
    #[must_use]
    pub fn with_prmb_slots(mut self, slots: usize) -> Self {
        self.prmb_slots_per_ptw = slots;
        self.kind = MmuKind::Custom;
        self
    }

    /// Overrides the number of TLB entries (the TLB sweep of Section III-C
    /// and the sensitivity study of Section VI-C).
    #[must_use]
    pub fn with_tlb_entries(mut self, entries: usize) -> Self {
        self.tlb_entries = entries;
        self.kind = MmuKind::Custom;
        self
    }

    /// Enables or disables the TPreg.
    #[must_use]
    pub fn with_tpreg(mut self, enabled: bool) -> Self {
        self.tpreg_enabled = enabled;
        self.kind = MmuKind::Custom;
        self
    }

    /// Switches the translation page size (Section VI-A large pages).
    #[must_use]
    pub fn with_page_size(mut self, page_size: PageSize) -> Self {
        self.page_size = page_size;
        self
    }

    /// True if this configuration merges requests to in-flight pages.
    #[must_use]
    pub fn merging_enabled(&self) -> bool {
        self.prmb_slots_per_ptw > 0
    }

    /// Builds a fresh translator for this configuration — the oracle for
    /// [`MmuKind::Oracle`], the cycle-accounted engine otherwise.
    ///
    /// `MmuConfig` is `Copy`, so this is the cheap clone/reset path for
    /// per-point simulation state: keep the config, rebuild the translator.
    /// Equivalent to (and implemented by)
    /// [`crate::engine::TranslationEngine::for_config`].
    #[must_use]
    pub fn translator(&self) -> Box<dyn crate::engine::AddressTranslator> {
        crate::engine::TranslationEngine::for_config(*self)
    }
}

impl Default for MmuConfig {
    fn default() -> Self {
        Self::neummu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_baseline_parameters() {
        let cfg = MmuConfig::baseline_iommu();
        assert_eq!(cfg.tlb_entries, 2048);
        assert_eq!(cfg.tlb_hit_latency, 5);
        assert_eq!(cfg.num_ptws, 8);
        assert_eq!(cfg.walk_latency_per_level, 100);
        assert!(!cfg.merging_enabled());
        assert!(!cfg.tpreg_enabled);
    }

    #[test]
    fn neummu_design_point() {
        let cfg = MmuConfig::neummu();
        assert_eq!(cfg.num_ptws, 128);
        assert_eq!(cfg.prmb_slots_per_ptw, 32);
        assert!(cfg.tpreg_enabled);
        assert_eq!(cfg.kind.label(), "NeuMMU");
    }

    #[test]
    fn builder_methods_mark_custom() {
        let cfg = MmuConfig::neummu().with_ptws(256);
        assert_eq!(cfg.num_ptws, 256);
        assert_eq!(cfg.kind, MmuKind::Custom);
        let cfg = MmuConfig::baseline_iommu()
            .with_prmb_slots(16)
            .with_tlb_entries(128);
        assert_eq!(cfg.prmb_slots_per_ptw, 16);
        assert_eq!(cfg.tlb_entries, 128);
    }

    #[test]
    fn large_pages_shorten_walks() {
        use neummu_vmem::{MemNode, PageTable, PhysFrameNum, VirtAddr};

        let cfg = MmuConfig::baseline_iommu().with_page_size(PageSize::Size2M);
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(0),
            PageSize::Size2M,
            PhysFrameNum::new(0),
            MemNode::Npu(0),
        )
        .unwrap();
        let walk = cfg.translator().translate(&pt, VirtAddr::new(0x1234), 0);
        assert!(matches!(
            walk.source,
            crate::engine::TranslationSource::PageWalk { levels_read: 3 }
        ));
    }

    #[test]
    fn translator_builder_dispatches_on_kind_and_is_send() {
        fn assert_send<T: Send + ?Sized>(_: &T) {}
        let oracle = MmuConfig::oracle().translator();
        assert_eq!(oracle.page_size(), PageSize::Size4K);
        assert_send(oracle.as_ref());
        let engine = MmuConfig::neummu().translator();
        assert_eq!(engine.stats().requests, 0);
        assert_send(engine.as_ref());
    }
}
