//! One experiment runner per table/figure of the paper's evaluation.
//!
//! Each submodule reproduces a group of related figures:
//!
//! * [`table1`] — the Table I configuration dump.
//! * [`characterization`] — the data-driven characterization figures:
//!   per-tile page divergence (Figure 6), translation-burst time series
//!   (Figure 7) and the tile virtual-address trace (Figure 14).
//! * [`performance`] — the performance/energy figures: baseline IOMMU
//!   (Figure 8), PRMB sweep (Figure 10), PTW sweep with and without PRMB
//!   (Figures 11 and 12a), the energy/performance trade-off (Figure 12b), the
//!   TPreg hit rates (Figure 13), the headline NeuMMU summary (Section IV-D),
//!   large pages (Section VI-A), the spatial-array NPU (Section VI-B) and the
//!   sensitivity study (Section VI-C).
//! * [`mmu_cache_study`] — the UPTC vs TPC design-space comparison
//!   (Section IV-C).
//! * [`recommender`] — the embedding-layer case study: the NUMA latency
//!   breakdown (Figure 15) and demand paging with small vs large pages
//!   (Figure 16).
//! * [`multi_tenant`] — beyond the paper: the tenant-count sweep measuring
//!   per-tenant slowdown and TLB/walker contention when one NPU's
//!   translation front end is time-shared between ASID-tagged tenants.
//! * [`serving`] — beyond the paper: open-loop datacenter serving. Seeded
//!   arrival generators feed bounded admission queues; a load × policy sweep
//!   reports exact per-tenant SLO percentiles and goodput under overload.
//! * [`resilience`] — beyond the paper: device-fault injection. A fault-rate
//!   × recovery-mechanism sweep reports availability/goodput curves, exact
//!   recovery-latency percentiles and faults-disabled mechanism overhead.
//!
//! Every runner takes an [`ExperimentScale`]: `Full` regenerates the figure
//! over the complete benchmark suite (what the `neummu-experiments` binary
//! does), `Smoke` runs a reduced subset so that tests and Criterion benches
//! finish quickly while exercising the same code paths.

pub mod characterization;
pub mod mmu_cache_study;
pub mod multi_tenant;
pub mod performance;
pub mod recommender;
pub mod resilience;
pub mod serving;
pub mod table1;

use serde::Serialize;

use neummu_workloads::{WorkloadId, DENSE_BATCH_SIZES};

/// How much of the benchmark suite an experiment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ExperimentScale {
    /// The complete suite used by the paper (all workloads, all batch sizes).
    Full,
    /// A reduced subset for tests and benchmarks: one CNN and one RNN at
    /// batch 1.
    Smoke,
}

impl ExperimentScale {
    /// The dense workloads covered at this scale.
    #[must_use]
    pub fn workloads(self) -> Vec<WorkloadId> {
        match self {
            ExperimentScale::Full => WorkloadId::ALL.to_vec(),
            ExperimentScale::Smoke => vec![WorkloadId::Cnn1, WorkloadId::Rnn2],
        }
    }

    /// The batch sizes covered at this scale.
    #[must_use]
    pub fn batches(self) -> Vec<u64> {
        match self {
            ExperimentScale::Full => DENSE_BATCH_SIZES.to_vec(),
            ExperimentScale::Smoke => vec![1],
        }
    }

    /// The `(workload, batch)` grid covered at this scale, in figure order —
    /// the canonical cell enumeration every experiment family iterates. Job
    /// order (and therefore artifact row order and oracle-cache key sharing)
    /// follows this single definition.
    #[must_use]
    pub fn grid(self) -> Vec<(WorkloadId, u64)> {
        let batches = self.batches();
        self.workloads()
            .into_iter()
            .flat_map(|workload| batches.iter().map(move |&batch| (workload, batch)))
            .collect()
    }

    /// A label for artifact file names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExperimentScale::Full => "full",
            ExperimentScale::Smoke => "smoke",
        }
    }
}

/// A single `(workload, batch)` point of the dense suite with a measured
/// normalized performance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DensePoint {
    /// Workload identity.
    pub workload: WorkloadId,
    /// Batch size.
    pub batch: u64,
    /// Performance normalized to the oracular MMU (1.0 = no overhead).
    pub normalized_perf: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_enumerate_workloads_and_batches() {
        assert_eq!(ExperimentScale::Full.workloads().len(), 6);
        assert_eq!(ExperimentScale::Full.batches(), vec![1, 4, 8]);
        assert_eq!(ExperimentScale::Smoke.workloads().len(), 2);
        assert_eq!(ExperimentScale::Smoke.batches(), vec![1]);
        assert_eq!(ExperimentScale::Smoke.label(), "smoke");
    }

    #[test]
    fn grid_is_workload_major_batch_minor() {
        assert_eq!(
            ExperimentScale::Smoke.grid(),
            vec![(WorkloadId::Cnn1, 1), (WorkloadId::Rnn2, 1)]
        );
        let full = ExperimentScale::Full.grid();
        assert_eq!(full.len(), 18);
        assert_eq!(full[0], (WorkloadId::Cnn1, 1));
        assert_eq!(full[2], (WorkloadId::Cnn1, 8));
        assert_eq!(full[3], (WorkloadId::Cnn2, 1));
    }
}
