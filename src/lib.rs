//! Facade crate for the NeuMMU reproduction.
//!
//! Re-exports the workspace crates under a single name so that examples and
//! downstream users can depend on `neummu` alone.
//!
//! ```
//! use neummu::mmu::MmuConfig;
//! let cfg = MmuConfig::neummu();
//! assert!(cfg.num_ptws >= 1);
//! ```

#![deny(missing_docs)]

pub use neummu_energy as energy;
pub use neummu_mem as mem;
pub use neummu_mmu as mmu;
pub use neummu_npu as npu;
pub use neummu_sim as sim;
pub use neummu_store as store;
pub use neummu_trace as trace;
pub use neummu_vmem as vmem;
pub use neummu_workloads as workloads;

/// Compile-time and behavioural lock on the workspace's public API surface.
///
/// Downstream crates (the experiments binary, benches, integration tests and
/// external users of the facade) rely on these exact paths and constructor
/// names. If a refactor renames or moves any of them, this module fails to
/// compile or its assertions fail — change it deliberately, together with the
/// dependents, never as a side effect.
#[cfg(test)]
mod workspace_sanity {
    #[test]
    fn mmu_config_constructors_are_stable() {
        // The three design points every experiment is built from.
        let neummu = crate::mmu::MmuConfig::neummu();
        let baseline = crate::mmu::MmuConfig::baseline_iommu();
        let oracle = crate::mmu::MmuConfig::oracle();
        assert!(neummu.num_ptws >= 1);
        assert!(baseline.num_ptws >= 1);
        // NeuMMU is the throughput-centric point: strictly more walkers than
        // the baseline IOMMU (128 vs 8 in the paper's Table I).
        assert!(neummu.num_ptws > baseline.num_ptws);
        let _ = oracle;
        // Builder-style refinements keep their names and chain.
        let tuned = crate::mmu::MmuConfig::neummu()
            .with_ptws(64)
            .with_prmb_slots(8)
            .with_tlb_entries(1024)
            .with_tpreg(true);
        assert_eq!(tuned.num_ptws, 64);
    }

    #[test]
    fn facade_reexport_paths_are_stable() {
        // Each line is a distinct facade path used by tests/examples; this
        // test exists to break loudly if a re-export is dropped or renamed.
        let _engine: fn() -> crate::mmu::TranslationEngine =
            || crate::mmu::TranslationEngine::new(crate::mmu::MmuConfig::neummu());
        let _dense: fn() -> crate::sim::dense::DenseSimulator = || {
            crate::sim::dense::DenseSimulator::new(crate::sim::dense::DenseSimConfig::with_mmu(
                crate::mmu::MmuConfig::neummu(),
            ))
        };
        let _embedding: fn() -> crate::sim::embedding::EmbeddingSimConfig =
            || crate::sim::embedding::EmbeddingSimConfig::with_mmu(crate::mmu::MmuConfig::neummu());
        let _npu = crate::npu::NpuConfig::tpu_like();
        let _dram = crate::mem::DramModel::tpu_like();
        let _interconnect = crate::mem::interconnect::InterconnectConfig::table1();
        let _page_size = crate::vmem::PageSize::Size4K;
        let _asid = crate::vmem::Asid::GLOBAL;
        let _serving: fn() -> crate::sim::ServingSimulator = || {
            crate::sim::ServingSimulator::new(crate::sim::ServingConfig::with_mmu(
                crate::mmu::MmuConfig::neummu(),
            ))
        };
        let _sink: fn() -> crate::trace::TraceSink = crate::trace::TraceSink::in_memory;
        let _ncf = crate::workloads::EmbeddingModel::ncf();
        let _dlrm = crate::workloads::EmbeddingModel::dlrm();
        let _meter = crate::energy::EnergyMeter::default();
    }

    #[test]
    fn dense_and_sparse_suites_are_reachable() {
        let dense = crate::workloads::WorkloadId::ALL.map(crate::workloads::DenseWorkload::new);
        assert!(!dense.is_empty(), "dense suite lost its workloads");
        let sparse = crate::workloads::sparse_suite();
        assert!(!sparse.is_empty(), "sparse suite lost its models");
    }
}
