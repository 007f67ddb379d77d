//! Integrated NPU + MMU simulator and the per-figure experiment runners.
//!
//! This crate ties the substrates together into the two simulators the paper's
//! evaluation is built on:
//!
//! * [`dense`] — the per-layer, per-tile pipeline simulator for conventional
//!   dense DNNs (Figures 6–14 and the Section VI studies). It drives one
//!   translation request per DMA transaction through an
//!   [`neummu_mmu::AddressTranslator`] and overlaps each tile's compute phase
//!   with the next tile's memory phase, exactly as sketched in Figure 3.
//! * [`embedding`] — the multi-NPU embedding-layer case study of Section V
//!   (Figures 15 and 16): model-parallel embedding tables, CPU-relayed copies
//!   vs. fine-grained NUMA gathers vs. demand paging.
//!
//! One multi-tenant driver stacks on top: [`serving`]'s turn loop shares one
//! engine between tenants, either closed loop (a batch of [`multi_tenant`]
//! tenants run to completion) or as the open-loop datacenter leg — seeded
//! arrival generators, bounded admission queues, pluggable scheduling
//! policies and exact SLO percentiles.
//!
//! [`experiments`] contains one runner per table/figure of the paper; each
//! returns a typed result that can be rendered with [`report`]. [`runner`]
//! executes those experiments as parallel job graphs on a scoped thread pool,
//! with every simulated point memoized once and a wall-clock self-profile;
//! serial and parallel schedules produce bit-identical results.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dense;
pub mod embedding;
pub mod error;
pub mod experiments;
mod memory_phase;
pub mod multi_tenant;
pub mod persist;
pub mod report;
pub mod runner;
pub mod serving;

pub use dense::{DenseSimConfig, DenseSimulator, LayerResult, TranslationTrace, WorkloadResult};
pub use embedding::{
    EmbeddingPhaseBreakdown, EmbeddingSimConfig, EmbeddingSimulator, GatherStrategy,
};
pub use error::SimError;
pub use multi_tenant::{MultiTenantResult, TenantSpec, TenantStats};
pub use report::ResultTable;
pub use runner::{ExperimentRunner, PointCache, SelfProfile};
pub use serving::{
    ArrivalConfig, ArrivalShape, CircuitBreakerConfig, LatencyHistogram, OverflowPolicy,
    ServingConfig, ServingFaults, ServingPolicy, ServingResult, ServingSimulator,
    ServingTenantSpec,
};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::dense::{
        DenseSimConfig, DenseSimulator, LayerResult, TranslationTrace, WorkloadResult,
    };
    pub use crate::embedding::{
        EmbeddingPhaseBreakdown, EmbeddingSimConfig, EmbeddingSimulator, GatherStrategy,
    };
    pub use crate::error::SimError;
    pub use crate::multi_tenant::{MultiTenantResult, TenantSpec, TenantStats};
    pub use crate::report::ResultTable;
    pub use crate::runner::{ExperimentRunner, PointCache, SelfProfile};
    pub use crate::serving::{
        ArrivalConfig, ArrivalShape, CircuitBreakerConfig, LatencyHistogram, OverflowPolicy,
        ServingConfig, ServingFaults, ServingPolicy, ServingResult, ServingSimulator,
        ServingTenantSpec,
    };
}
