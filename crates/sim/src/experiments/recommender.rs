//! The embedding-layer case study: Figures 15 and 16.

use serde::Serialize;

use neummu_mem::interconnect::TransferKind;
use neummu_mmu::{MmuConfig, MmuKind};
use neummu_vmem::PageSize;
use neummu_workloads::{sparse_suite, EmbeddingModel};

use crate::embedding::{
    EmbeddingPhaseBreakdown, EmbeddingSimConfig, EmbeddingSimulator, GatherStrategy,
};
use crate::error::SimError;
use crate::experiments::ExperimentScale;
use crate::report::{norm, ResultTable};
use crate::runner::ExperimentRunner;

/// Batch sizes of the Figure 15 study.
pub const FIG15_BATCHES: [u64; 3] = [1, 8, 64];
/// Batch sizes of the Figure 16 study.
pub const FIG16_BATCHES: [u64; 3] = [1, 4, 8];

fn sparse_models(scale: ExperimentScale) -> Vec<EmbeddingModel> {
    match scale {
        ExperimentScale::Full => sparse_suite(),
        ExperimentScale::Smoke => vec![EmbeddingModel::ncf()],
    }
}

fn batches(scale: ExperimentScale, full: &[u64]) -> Vec<u64> {
    match scale {
        ExperimentScale::Full => full.to_vec(),
        ExperimentScale::Smoke => vec![full[1]],
    }
}

/// One bar of Figure 15: a model/batch/strategy combination with its latency
/// breakdown, normalized to the MMU-less baseline of the same model/batch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig15Row {
    /// Model name (NCF or DLRM).
    pub model: String,
    /// Minibatch size.
    pub batch: u64,
    /// Gather strategy label (Baseline / NUMA(slow) / NUMA(fast)).
    pub strategy: String,
    /// Latency breakdown of the step.
    pub breakdown: EmbeddingPhaseBreakdown,
    /// Total latency normalized to the baseline strategy (baseline = 1.0).
    pub normalized_latency: f64,
}

/// Figure 15 result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig15Result {
    /// One row per model/batch/strategy combination.
    pub rows: Vec<Fig15Row>,
}

impl Fig15Result {
    /// Average latency reduction of the given strategy relative to the
    /// baseline (e.g. 0.31 means 31% lower latency).
    #[must_use]
    pub fn average_latency_reduction(&self, strategy_label: &str) -> f64 {
        let reductions: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.strategy == strategy_label)
            .map(|r| 1.0 - r.normalized_latency)
            .collect();
        if reductions.is_empty() {
            0.0
        } else {
            reductions.iter().sum::<f64>() / reductions.len() as f64
        }
    }

    /// Renders the result as a table.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Figure 15: latency breakdown of embedding gathers (normalized to the MMU-less baseline)",
            &["Model", "Batch", "Strategy", "GEMM", "Reduction", "Else", "Embedding lookup", "Total (normalized)"],
        );
        for row in &self.rows {
            let total = row.breakdown.total_cycles().max(1) as f64;
            table.push_row(&[
                row.model.clone(),
                format!("b{:02}", row.batch),
                row.strategy.clone(),
                norm(row.breakdown.gemm_cycles as f64 / total * row.normalized_latency),
                norm(row.breakdown.reduction_cycles as f64 / total * row.normalized_latency),
                norm(row.breakdown.other_cycles as f64 / total * row.normalized_latency),
                norm(row.breakdown.embedding_gather_cycles as f64 / total * row.normalized_latency),
                norm(row.normalized_latency),
            ]);
        }
        table
    }
}

/// Runs the Figure 15 experiment: MMU-less CPU-relayed copies vs NUMA over
/// PCIe vs NUMA over the NPU↔NPU link, for NCF and DLRM.
///
/// One job per `(model, batch)` cell, each producing the three strategy rows.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig15_numa_breakdown_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<Fig15Result, SimError> {
    let sim = EmbeddingSimulator::new(EmbeddingSimConfig::with_mmu(MmuConfig::neummu()));
    let strategies = [
        GatherStrategy::HostRelayedCopy,
        GatherStrategy::NumaDirect {
            link: TransferKind::Pcie,
        },
        GatherStrategy::NumaDirect {
            link: TransferKind::NpuLink,
        },
    ];
    let mut cells = Vec::new();
    for model in sparse_models(scale) {
        for &batch in &batches(scale, &FIG15_BATCHES) {
            cells.push((model.clone(), batch));
        }
    }
    let row_groups = runner.run_jobs("recommender/fig15", cells.len(), |i| {
        let (model, batch) = &cells[i];
        let batch = *batch;
        let baseline = sim.simulate(model, batch, GatherStrategy::HostRelayedCopy)?;
        let baseline_total = baseline.total_cycles().max(1) as f64;
        let mut rows = Vec::with_capacity(strategies.len());
        for strategy in strategies {
            let breakdown = if matches!(strategy, GatherStrategy::HostRelayedCopy) {
                baseline
            } else {
                sim.simulate(model, batch, strategy)?
            };
            rows.push(Fig15Row {
                model: model.name().to_string(),
                batch,
                strategy: strategy.label().to_string(),
                breakdown,
                normalized_latency: breakdown.total_cycles() as f64 / baseline_total,
            });
        }
        Ok(rows)
    })?;
    Ok(Fig15Result {
        rows: row_groups.into_iter().flatten().collect(),
    })
}

/// One bar of Figure 16: demand paging under a given page size and MMU,
/// normalized to the oracular MMU with 4 KB pages.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig16Row {
    /// Model name.
    pub model: String,
    /// Minibatch size.
    pub batch: u64,
    /// Page size used for demand paging.
    pub page_size: PageSize,
    /// MMU design point (baseline IOMMU or NeuMMU).
    pub mmu: MmuKind,
    /// Performance normalized to the 4 KB oracle (higher is better).
    pub normalized_perf: f64,
    /// Bytes moved over the interconnect by page migrations.
    pub migrated_bytes: u64,
}

/// Figure 16 result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig16Result {
    /// One row per model/batch/page-size/MMU combination.
    pub rows: Vec<Fig16Row>,
}

impl Fig16Result {
    /// Average normalized performance of a `(page size, MMU)` combination.
    #[must_use]
    pub fn average(&self, page_size: PageSize, mmu: MmuKind) -> f64 {
        let values: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.page_size == page_size && r.mmu == mmu)
            .map(|r| r.normalized_perf)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Renders the result as a table.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Figure 16: demand paging of sparse embeddings (normalized to the 4KB oracle)",
            &[
                "Model",
                "Batch",
                "Page size",
                "MMU",
                "Normalized perf",
                "Migrated MB",
            ],
        );
        for row in &self.rows {
            table.push_row(&[
                row.model.clone(),
                format!("b{:02}", row.batch),
                row.page_size.to_string(),
                row.mmu.label().to_string(),
                norm(row.normalized_perf),
                format!("{:.1}", row.migrated_bytes as f64 / (1 << 20) as f64),
            ]);
        }
        table
    }
}

/// Runs the Figure 16 experiment: demand paging with 4 KB vs 2 MB pages under
/// the baseline IOMMU and NeuMMU, all normalized to a 4 KB oracle.
///
/// One job per `(model, batch)` cell, each simulating its own oracle baseline
/// and the four `(page size, MMU)` combinations.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig16_demand_paging_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<Fig16Result, SimError> {
    let link = TransferKind::NpuLink;
    let strategy = GatherStrategy::DemandPaging { link };
    let mut cells = Vec::new();
    for model in sparse_models(scale) {
        for &batch in &batches(scale, &FIG16_BATCHES) {
            cells.push((model.clone(), batch));
        }
    }
    let row_groups = runner.run_jobs("recommender/fig16", cells.len(), |i| {
        let (model, batch) = &cells[i];
        let batch = *batch;
        let oracle = EmbeddingSimulator::new(EmbeddingSimConfig::with_mmu(MmuConfig::oracle()))
            .simulate(model, batch, strategy)?;
        let oracle_cycles = oracle.total_cycles().max(1) as f64;
        let mut rows = Vec::with_capacity(4);
        for page_size in [PageSize::Size4K, PageSize::Size2M] {
            for mmu in [MmuConfig::baseline_iommu(), MmuConfig::neummu()] {
                let mmu = mmu.with_page_size(page_size);
                let run = EmbeddingSimulator::new(EmbeddingSimConfig::with_mmu(mmu))
                    .simulate(model, batch, strategy)?;
                rows.push(Fig16Row {
                    model: model.name().to_string(),
                    batch,
                    page_size,
                    mmu: if mmu.prmb_slots_per_ptw > 0 {
                        MmuKind::NeuMmu
                    } else {
                        MmuKind::BaselineIommu
                    },
                    normalized_perf: oracle_cycles / run.total_cycles().max(1) as f64,
                    migrated_bytes: run.interconnect_bytes,
                });
            }
        }
        Ok(rows)
    })?;
    Ok(Fig16Result {
        rows: row_groups.into_iter().flatten().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: ExperimentScale = ExperimentScale::Smoke;

    #[test]
    fn fig15_numa_reduces_latency() {
        let result = fig15_numa_breakdown_on(&ExperimentRunner::serial(), SMOKE).unwrap();
        assert!(!result.rows.is_empty());
        // The baseline rows are exactly 1.0 by construction.
        for row in result.rows.iter().filter(|r| r.strategy == "Baseline") {
            assert!((row.normalized_latency - 1.0).abs() < 1e-9);
        }
        let slow = result.average_latency_reduction("NUMA(slow)");
        let fast = result.average_latency_reduction("NUMA(fast)");
        assert!(slow > 0.0, "NUMA(slow) should reduce latency, got {slow}");
        assert!(
            fast >= slow,
            "NUMA(fast) {fast} should be at least NUMA(slow) {slow}"
        );
        assert!(result.to_table().rows().len() >= 3);
    }

    #[test]
    fn fig16_small_pages_beat_large_pages_for_sparse_access() {
        let result = fig16_demand_paging_on(&ExperimentRunner::serial(), SMOKE).unwrap();
        let neummu_4k = result.average(PageSize::Size4K, MmuKind::NeuMmu);
        let neummu_2m = result.average(PageSize::Size2M, MmuKind::NeuMmu);
        let iommu_4k = result.average(PageSize::Size4K, MmuKind::BaselineIommu);
        assert!(neummu_4k > 0.7, "NeuMMU 4K normalized perf {neummu_4k}");
        assert!(
            neummu_4k > neummu_2m,
            "4K {neummu_4k} should beat 2M {neummu_2m}"
        );
        assert!(
            neummu_4k >= iommu_4k,
            "NeuMMU {neummu_4k} should be >= IOMMU {iommu_4k}"
        );
        assert!(result.to_table().rows().len() >= 4);
    }
}
