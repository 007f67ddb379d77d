//! Performance and energy experiments: Figures 8, 10, 11, 12, 13, the
//! Section IV-D summary, and the Section VI studies.

use serde::Serialize;

use neummu_mmu::MmuConfig;
use neummu_npu::NpuConfig;
use neummu_vmem::PageSize;
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::dense::{DenseSimConfig, DenseSimulator, WorkloadResult};
use crate::error::SimError;
use crate::experiments::{DensePoint, ExperimentScale};
use crate::report::{mean, norm, pct, ResultTable};
use crate::runner::ExperimentRunner;

/// A normalized-performance sweep over the dense suite for several MMU
/// configurations (the common shape of Figures 8, 10, 11 and 12a).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NormalizedSweep {
    /// Human-readable name of the swept parameter (e.g. `PTW`).
    pub parameter: String,
    /// The label of each configuration (e.g. `PTW(8)`).
    pub config_labels: Vec<String>,
    /// For each configuration, one point per `(workload, batch)`.
    pub points: Vec<Vec<DensePoint>>,
}

impl NormalizedSweep {
    /// Average normalized performance of each configuration.
    #[must_use]
    pub fn averages(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|pts| mean(&pts.iter().map(|p| p.normalized_perf).collect::<Vec<_>>()))
            .collect()
    }

    /// Renders the sweep as a table (rows: workload/batch, columns: configs).
    #[must_use]
    pub fn to_table(&self, title: &str) -> ResultTable {
        let mut headers: Vec<&str> = vec!["Workload", "Batch"];
        let labels: Vec<String> = self.config_labels.clone();
        for label in &labels {
            headers.push(label.as_str());
        }
        let mut table = ResultTable::new(title, &headers);
        if let Some(first) = self.points.first() {
            for (i, point) in first.iter().enumerate() {
                let mut row = vec![
                    point.workload.label().to_string(),
                    format!("b{:02}", point.batch),
                ];
                for config_points in &self.points {
                    row.push(norm(config_points[i].normalized_perf));
                }
                table.push_row(&row);
            }
        }
        let mut avg_row = vec!["Average".to_string(), "-".to_string()];
        for avg in self.averages() {
            avg_row.push(norm(avg));
        }
        table.push_row(&avg_row);
        table
    }
}

/// Runs a sweep of MMU configurations over the dense suite as one job per
/// `(config, workload, batch)` cell. Both sides of every cell come from the
/// runner's point cache, so each oracle baseline simulates once per
/// `(workload, batch, page size)` instead of once per configuration column,
/// and a design point another family already ran is not simulated again.
fn sweep(
    runner: &ExperimentRunner,
    parameter: &str,
    configs: &[(String, MmuConfig)],
    scale: ExperimentScale,
    npu: NpuConfig,
) -> Result<NormalizedSweep, SimError> {
    let grid = scale.grid();
    let cells: Vec<(MmuConfig, WorkloadId, u64)> = configs
        .iter()
        .flat_map(|(_, mmu)| grid.iter().map(|&(w, b)| (*mmu, w, b)))
        .collect();
    let phase = format!("performance/{parameter}");
    let values = runner.run_jobs(&phase, cells.len(), |i| {
        let (mmu, workload_id, batch) = cells[i];
        runner.normalized_point(workload_id, batch, mmu, npu)
    })?;
    let points = values
        .chunks(grid.len())
        .map(|chunk| {
            chunk
                .iter()
                .zip(&grid)
                .map(|(&normalized_perf, &(workload, batch))| DensePoint {
                    workload,
                    batch,
                    normalized_perf,
                })
                .collect()
        })
        .collect();
    Ok(NormalizedSweep {
        parameter: parameter.to_string(),
        config_labels: configs.iter().map(|(l, _)| l.clone()).collect(),
        points,
    })
}

/// Figure 8: normalized performance of the baseline IOMMU (2048-entry TLB,
/// 8 PTWs) with 4 KB pages, relative to the oracular MMU.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig08_baseline_iommu_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<NormalizedSweep, SimError> {
    sweep(
        runner,
        "Baseline IOMMU",
        &[("IOMMU".to_string(), MmuConfig::baseline_iommu())],
        scale,
        NpuConfig::tpu_like(),
    )
}

/// Figure 10: sensitivity to the number of PRMB mergeable slots (8 PTWs).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig10_prmb_sweep_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<NormalizedSweep, SimError> {
    let configs: Vec<(String, MmuConfig)> = [1usize, 2, 4, 8, 16, 32]
        .iter()
        .map(|&slots| {
            (
                format!("PRMB({slots})"),
                MmuConfig::baseline_iommu().with_prmb_slots(slots),
            )
        })
        .collect();
    sweep(runner, "PRMB slots", &configs, scale, NpuConfig::tpu_like())
}

/// Figure 11: sensitivity to the number of PTWs with PRMB(32).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig11_ptw_sweep_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<NormalizedSweep, SimError> {
    let counts: &[usize] = match scale {
        ExperimentScale::Full => &[8, 16, 32, 64, 128, 256, 512, 1024],
        ExperimentScale::Smoke => &[8, 128],
    };
    let configs: Vec<(String, MmuConfig)> = counts
        .iter()
        .map(|&ptws| {
            (
                format!("PTW({ptws})"),
                MmuConfig::baseline_iommu()
                    .with_prmb_slots(32)
                    .with_ptws(ptws),
            )
        })
        .collect();
    sweep(
        runner,
        "PTWs with PRMB(32)",
        &configs,
        scale,
        NpuConfig::tpu_like(),
    )
}

/// Figure 12a: sensitivity to the number of PTWs *without* the PRMB.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig12a_ptw_no_prmb_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<NormalizedSweep, SimError> {
    let counts: &[usize] = match scale {
        ExperimentScale::Full => &[8, 16, 32, 64, 128, 256, 512, 1024],
        ExperimentScale::Smoke => &[8, 1024],
    };
    let configs: Vec<(String, MmuConfig)> = counts
        .iter()
        .map(|&ptws| {
            (
                format!("PTW({ptws})"),
                MmuConfig::baseline_iommu().with_ptws(ptws),
            )
        })
        .collect();
    sweep(
        runner,
        "PTWs without PRMB",
        &configs,
        scale,
        NpuConfig::tpu_like(),
    )
}

/// One `[PRMB, PTW]` design point of Figure 12b.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnergyPerfPoint {
    /// PRMB mergeable slots per walker.
    pub prmb_slots: usize,
    /// Number of page-table walkers.
    pub num_ptws: usize,
    /// Average normalized performance over the suite.
    pub normalized_perf: f64,
    /// Translation energy normalized to the `[32, 128]` NeuMMU design point.
    pub normalized_energy: f64,
}

/// Figure 12b: energy and performance of `[PRMB, PTW]` design points.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig12bResult {
    /// The swept design points.
    pub points: Vec<EnergyPerfPoint>,
}

impl Fig12bResult {
    /// Renders the result as a table.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Figure 12b: energy vs performance of [PRMB, PTW] design points",
            &["[PRMB, PTW]", "Normalized performance", "Normalized energy"],
        );
        for p in &self.points {
            table.push_row(&[
                format!("[{},{}]", p.prmb_slots, p.num_ptws),
                norm(p.normalized_perf),
                norm(p.normalized_energy),
            ]);
        }
        table
    }
}

/// Runs the Figure 12b experiment.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig12b_energy_perf_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<Fig12bResult, SimError> {
    let design_points: &[(usize, usize)] = match scale {
        ExperimentScale::Full => &[
            (512, 8),
            (256, 16),
            (128, 32),
            (64, 64),
            (32, 128),
            (16, 256),
            (8, 512),
            (4, 1024),
            (2, 2048),
            (1, 4096),
        ],
        ExperimentScale::Smoke => &[(32, 128), (1, 4096)],
    };
    let npu = NpuConfig::tpu_like();
    let grid = scale.grid();
    let cells: Vec<((usize, usize), WorkloadId, u64)> = design_points
        .iter()
        .flat_map(|&dp| grid.iter().map(move |&(w, b)| (dp, w, b)))
        .collect();
    let values = runner.run_jobs("performance/fig12b", cells.len(), |i| {
        let ((prmb, ptws), workload_id, batch) = cells[i];
        let mmu = MmuConfig::neummu().with_prmb_slots(prmb).with_ptws(ptws);
        let oracle = MmuConfig::oracle().with_page_size(mmu.page_size);
        let oracle = runner.dense_point(workload_id, batch, oracle, npu)?;
        let run = runner.dense_point(workload_id, batch, mmu, npu)?;
        Ok((run.normalized_to(&oracle), run.translation_energy_nj))
    })?;
    // Aggregate per design point in cell order — the same workload-major,
    // batch-minor order the serial loop used, so float sums are identical.
    let mut measured = Vec::new();
    for (dp_index, &(prmb, ptws)) in design_points.iter().enumerate() {
        let cells_of_point = &values[dp_index * grid.len()..(dp_index + 1) * grid.len()];
        let perfs: Vec<f64> = cells_of_point.iter().map(|&(perf, _)| perf).collect();
        let energy: f64 = cells_of_point.iter().map(|&(_, energy)| energy).sum();
        measured.push((prmb, ptws, mean(&perfs), energy));
    }
    let reference_energy = measured
        .iter()
        .find(|(prmb, ptws, _, _)| *prmb == 32 && *ptws == 128)
        .map_or_else(|| measured[0].3, |m| m.3)
        .max(1e-9);
    let points = measured
        .into_iter()
        .map(
            |(prmb_slots, num_ptws, normalized_perf, energy)| EnergyPerfPoint {
                prmb_slots,
                num_ptws,
                normalized_perf,
                normalized_energy: energy / reference_energy,
            },
        )
        .collect();
    Ok(Fig12bResult { points })
}

/// One row of Figure 13: TPreg tag-match rates of a workload/batch point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TpregHitRow {
    /// Workload identity.
    pub workload: WorkloadId,
    /// Batch size.
    pub batch: u64,
    /// L4-index match rate.
    pub l4_rate: f64,
    /// L3-index match rate.
    pub l3_rate: f64,
    /// L2-index match rate.
    pub l2_rate: f64,
}

/// Figure 13 result: TPreg hit rates across the dense suite.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig13Result {
    /// One row per `(workload, batch)` point.
    pub rows: Vec<TpregHitRow>,
}

impl Fig13Result {
    /// Renders the result as a table.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Figure 13: TPreg tag-match rate at the L4/L3/L2 indices",
            &["Workload", "Batch", "L4 idx", "L3 idx", "L2 idx"],
        );
        for row in &self.rows {
            table.push_row(&[
                row.workload.label().to_string(),
                format!("b{:02}", row.batch),
                pct(row.l4_rate),
                pct(row.l3_rate),
                pct(row.l2_rate),
            ]);
        }
        table
    }
}

/// Runs the Figure 13 experiment under the NeuMMU design point.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig13_tpreg_hit_rate_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<Fig13Result, SimError> {
    let npu = NpuConfig::tpu_like();
    let cells = scale.grid();
    let rows = runner.run_jobs("performance/fig13", cells.len(), |i| {
        let (workload_id, batch) = cells[i];
        let run = runner.dense_point(workload_id, batch, MmuConfig::neummu(), npu)?;
        Ok(TpregHitRow {
            workload: workload_id,
            batch,
            l4_rate: run.translation.tpreg_l4_rate(),
            l3_rate: run.translation.tpreg_l3_rate(),
            l2_rate: run.translation.tpreg_l2_rate(),
        })
    })?;
    Ok(Fig13Result { rows })
}

/// The headline Section IV-D summary: baseline IOMMU vs NeuMMU overheads,
/// energy ratio, and walk-access reduction.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SummaryResult {
    /// Average performance overhead of the baseline IOMMU (1 − normalized).
    pub iommu_avg_overhead: f64,
    /// Average performance overhead of NeuMMU.
    pub neummu_avg_overhead: f64,
    /// Baseline-IOMMU translation energy divided by NeuMMU translation energy.
    pub energy_reduction: f64,
    /// Baseline-IOMMU page-walk DRAM accesses divided by NeuMMU's.
    pub walk_access_reduction: f64,
}

impl SummaryResult {
    /// Renders the result as a table.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Section IV-D summary: NeuMMU vs baseline IOMMU",
            &["Metric", "Value"],
        );
        table.push_row(&[
            "Baseline IOMMU avg performance overhead",
            &pct(self.iommu_avg_overhead),
        ]);
        table.push_row(&[
            "NeuMMU avg performance overhead",
            &pct(self.neummu_avg_overhead),
        ]);
        table.push_row(&[
            "Translation energy reduction (IOMMU / NeuMMU)",
            &format!("{:.1}x", self.energy_reduction),
        ]);
        table.push_row(&[
            "Page-walk memory-access reduction (IOMMU / NeuMMU)",
            &format!("{:.1}x", self.walk_access_reduction),
        ]);
        table
    }
}

/// Per-point measurements backing [`SummaryResult`].
struct SummaryCell {
    iommu_perf: f64,
    neummu_perf: f64,
    iommu_energy: f64,
    neummu_energy: f64,
    iommu_walk_accesses: u64,
    neummu_walk_accesses: u64,
}

/// Runs the Section IV-D summary experiment.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn summary_neummu_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<SummaryResult, SimError> {
    let npu = NpuConfig::tpu_like();
    let cells = scale.grid();
    let measured = runner.run_jobs("performance/summary", cells.len(), |i| {
        let (workload_id, batch) = cells[i];
        let oracle = runner.dense_point(workload_id, batch, MmuConfig::oracle(), npu)?;
        let iommu = runner.dense_point(workload_id, batch, MmuConfig::baseline_iommu(), npu)?;
        let neummu = runner.dense_point(workload_id, batch, MmuConfig::neummu(), npu)?;
        Ok(SummaryCell {
            iommu_perf: iommu.normalized_to(&oracle),
            neummu_perf: neummu.normalized_to(&oracle),
            iommu_energy: iommu.translation_energy_nj,
            neummu_energy: neummu.translation_energy_nj,
            iommu_walk_accesses: iommu.translation.walk_memory_accesses,
            neummu_walk_accesses: neummu.translation.walk_memory_accesses,
        })
    })?;
    let mut iommu_perfs = Vec::new();
    let mut neummu_perfs = Vec::new();
    let mut iommu_energy = 0.0;
    let mut neummu_energy = 0.0;
    let mut iommu_walk_accesses = 0u64;
    let mut neummu_walk_accesses = 0u64;
    for cell in &measured {
        iommu_perfs.push(cell.iommu_perf);
        neummu_perfs.push(cell.neummu_perf);
        iommu_energy += cell.iommu_energy;
        neummu_energy += cell.neummu_energy;
        iommu_walk_accesses += cell.iommu_walk_accesses;
        neummu_walk_accesses += cell.neummu_walk_accesses;
    }
    Ok(SummaryResult {
        iommu_avg_overhead: 1.0 - mean(&iommu_perfs),
        neummu_avg_overhead: 1.0 - mean(&neummu_perfs),
        energy_reduction: iommu_energy / neummu_energy.max(1e-9),
        walk_access_reduction: iommu_walk_accesses as f64 / neummu_walk_accesses.max(1) as f64,
    })
}

/// Section VI-A: the dense suite with 2 MB large pages, baseline IOMMU and
/// NeuMMU, both normalized to a large-page oracle.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn largepage_dense_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<NormalizedSweep, SimError> {
    let configs = vec![
        (
            "IOMMU-2MB".to_string(),
            MmuConfig::baseline_iommu().with_page_size(PageSize::Size2M),
        ),
        (
            "NeuMMU-2MB".to_string(),
            MmuConfig::neummu().with_page_size(PageSize::Size2M),
        ),
    ];
    sweep(
        runner,
        "Large pages",
        &configs,
        scale,
        NpuConfig::tpu_like(),
    )
}

/// Section VI-B: the spatial-array NPU with the baseline IOMMU and NeuMMU.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn spatial_npu_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<NormalizedSweep, SimError> {
    let configs = vec![
        ("IOMMU".to_string(), MmuConfig::baseline_iommu()),
        ("NeuMMU".to_string(), MmuConfig::neummu()),
    ];
    sweep(
        runner,
        "Spatial-array NPU",
        &configs,
        scale,
        NpuConfig::spatial_array(),
    )
}

/// One sensitivity point of Section VI-C.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SensitivityPoint {
    /// Description of the configuration.
    pub label: String,
    /// Average normalized performance across the covered suite.
    pub avg_normalized_perf: f64,
    /// Worst-case normalized performance.
    pub min_normalized_perf: f64,
}

/// Section VI-C sensitivity result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SensitivityResult {
    /// Architecture-parameter sensitivity points (PRMB / PTW / TLB sweeps).
    pub architecture_points: Vec<SensitivityPoint>,
    /// Large-batch (common-layer) points: `(workload, batch, IOMMU, NeuMMU)`.
    pub large_batch_points: Vec<(WorkloadId, u64, f64, f64)>,
}

impl SensitivityResult {
    /// Renders the result as a table.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Section VI-C: NeuMMU sensitivity",
            &[
                "Configuration",
                "Avg normalized perf",
                "Min normalized perf",
            ],
        );
        for p in &self.architecture_points {
            table.push_row(&[
                p.label.clone(),
                norm(p.avg_normalized_perf),
                norm(p.min_normalized_perf),
            ]);
        }
        for (workload, batch, iommu, neummu) in &self.large_batch_points {
            table.push_row(&[
                format!(
                    "{} common layer b{batch} (IOMMU vs NeuMMU)",
                    workload.label()
                ),
                norm(*iommu),
                norm(*neummu),
            ]);
        }
        table
    }
}

/// Runs the Section VI-C sensitivity study: architecture sweeps over the
/// dense suite plus large-batch common-layer runs.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn sensitivity_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<SensitivityResult, SimError> {
    let npu = NpuConfig::tpu_like();
    let arch_configs: Vec<(String, MmuConfig)> = match scale {
        ExperimentScale::Full => vec![
            (
                "PRMB(1) PTW(128)".into(),
                MmuConfig::neummu().with_prmb_slots(1),
            ),
            (
                "PRMB(8) PTW(128)".into(),
                MmuConfig::neummu().with_prmb_slots(8),
            ),
            ("PRMB(32) PTW(64)".into(), MmuConfig::neummu().with_ptws(64)),
            (
                "PRMB(32) PTW(256)".into(),
                MmuConfig::neummu().with_ptws(256),
            ),
            ("TLB(128)".into(), MmuConfig::neummu().with_tlb_entries(128)),
            ("TLB(512)".into(), MmuConfig::neummu().with_tlb_entries(512)),
            ("No TPreg".into(), MmuConfig::neummu().with_tpreg(false)),
        ],
        ExperimentScale::Smoke => vec![
            ("PRMB(32) PTW(64)".into(), MmuConfig::neummu().with_ptws(64)),
            ("TLB(128)".into(), MmuConfig::neummu().with_tlb_entries(128)),
        ],
    };

    let grid = scale.grid();
    let arch_cells: Vec<(MmuConfig, WorkloadId, u64)> = arch_configs
        .iter()
        .flat_map(|(_, mmu)| grid.iter().map(|&(w, b)| (*mmu, w, b)))
        .collect();
    let arch_values = runner.run_jobs("performance/sensitivity", arch_cells.len(), |i| {
        let (mmu, workload_id, batch) = arch_cells[i];
        runner.normalized_point(workload_id, batch, mmu, npu)
    })?;
    let architecture_points = arch_configs
        .iter()
        .zip(arch_values.chunks(grid.len()))
        .map(|((label, _), perfs)| SensitivityPoint {
            label: label.clone(),
            avg_normalized_perf: mean(perfs),
            min_normalized_perf: perfs.iter().copied().fold(f64::INFINITY, f64::min),
        })
        .collect();

    // Large-batch study over the per-network common layer. The common layer is
    // not the full workload, so its oracle runs stay out of the memoization
    // cache (they would alias full-workload keys) and live inside each job.
    let large_batches: &[u64] = match scale {
        ExperimentScale::Full => &[32, 64, 128],
        ExperimentScale::Smoke => &[32],
    };
    let mut large_cells = Vec::new();
    for workload_id in scale.workloads() {
        for &batch in large_batches {
            large_cells.push((workload_id, batch));
        }
    }
    let large_batch_points = runner.run_jobs(
        "performance/sensitivity-large-batch",
        large_cells.len(),
        |i| {
            let (workload_id, batch) = large_cells[i];
            let layer = DenseWorkload::new(workload_id).common_layer(batch);
            let sim_for = |mmu: MmuConfig| -> Result<WorkloadResult, SimError> {
                let mut config = DenseSimConfig::with_mmu(mmu);
                config.npu = npu;
                DenseSimulator::new(config).simulate_layer(&layer)
            };
            let oracle = sim_for(MmuConfig::oracle())?;
            let iommu = sim_for(MmuConfig::baseline_iommu())?.normalized_to(&oracle);
            let neummu = sim_for(MmuConfig::neummu())?.normalized_to(&oracle);
            Ok((workload_id, batch, iommu, neummu))
        },
    )?;

    Ok(SensitivityResult {
        architecture_points,
        large_batch_points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: ExperimentScale = ExperimentScale::Smoke;

    #[test]
    fn fig08_baseline_iommu_loses_most_of_its_performance() {
        let sweep = fig08_baseline_iommu_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        let avg = sweep.averages()[0];
        assert!(avg < 0.6, "baseline IOMMU normalized perf {avg}");
        let table = sweep.to_table("Figure 8");
        assert!(table.to_markdown().contains("Average"));
    }

    #[test]
    fn fig10_more_prmb_slots_help() {
        // Smoke-scale variant with two slot counts to bound runtime.
        let configs = vec![
            (
                "PRMB(1)".to_string(),
                MmuConfig::baseline_iommu().with_prmb_slots(1),
            ),
            (
                "PRMB(32)".to_string(),
                MmuConfig::baseline_iommu().with_prmb_slots(32),
            ),
        ];
        let sweep = super::sweep(
            &ExperimentRunner::new(1),
            "PRMB slots",
            &configs,
            SMOKE,
            NpuConfig::tpu_like(),
        )
        .unwrap();
        let avgs = sweep.averages();
        assert!(
            avgs[1] >= avgs[0],
            "PRMB(32) {} should beat PRMB(1) {}",
            avgs[1],
            avgs[0]
        );
    }

    #[test]
    fn sweeps_simulate_each_oracle_baseline_exactly_once() {
        // Two configuration columns over the smoke grid: the oracle baseline
        // of each (workload, batch, page size) key must simulate once, with
        // the second column's request served from the point cache, and each
        // column's candidate simulates once per cell.
        let runner = ExperimentRunner::new(1);
        let configs = vec![
            ("IOMMU".to_string(), MmuConfig::baseline_iommu()),
            ("NeuMMU".to_string(), MmuConfig::neummu()),
        ];
        let sweep = super::sweep(
            &runner,
            "memoization",
            &configs,
            SMOKE,
            NpuConfig::tpu_like(),
        )
        .unwrap();
        let grid_cells = SMOKE.grid().len();
        let keys = grid_cells * (1 + configs.len());
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(runner.cache().simulations() as usize, keys);
        assert_eq!(runner.cache().len(), keys);
        assert_eq!(
            runner.cache().hits() as usize,
            grid_cells * (configs.len() - 1),
            "every further baseline request is a cache hit"
        );
    }

    #[test]
    fn a_design_point_simulates_once_across_families() {
        // Figure 8's baseline IOMMU is Figure 12a's `PTW(8)` column (relabelled
        // `Custom` by `with_ptws`) and the summary's IOMMU: on one runner it
        // simulates once per grid cell, like the oracle each of them divides by.
        let runner = ExperimentRunner::new(1);
        let cells = SMOKE.grid().len() as u64;
        let counts = || (runner.cache().simulations(), runner.cache().hits());

        // Figure 8: the oracle and the IOMMU per cell.
        fig08_baseline_iommu_on(&runner, SMOKE).unwrap();
        assert_eq!(counts(), (2 * cells, 0));
        // Figure 12a at smoke scale, PTW(8) and PTW(1024): two oracle hits and
        // a `PTW(8)` hit per cell; only `PTW(1024)` is new.
        fig12a_ptw_no_prmb_on(&runner, SMOKE).unwrap();
        assert_eq!(counts(), (3 * cells, 3 * cells));
        // The summary: oracle and IOMMU hit; only NeuMMU is new.
        summary_neummu_on(&runner, SMOKE).unwrap();
        assert_eq!(counts(), (4 * cells, 5 * cells));
        assert_eq!(runner.cache().len() as u64, 4 * cells);
    }

    #[test]
    fn fig11_more_ptws_close_the_gap() {
        let sweep = fig11_ptw_sweep_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        let avgs = sweep.averages();
        // 8 vs 128 walkers with PRMB(32).
        assert!(avgs[1] > avgs[0]);
        assert!(
            avgs[1] > 0.9,
            "128 PTWs with PRMB should be near oracle, got {}",
            avgs[1]
        );
    }

    #[test]
    fn fig12_many_ptws_without_prmb_match_perf_but_waste_energy() {
        let with_prmb = fig12b_energy_perf_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        let nominal = &with_prmb.points[0];
        let no_prmb_like = &with_prmb.points[1]; // [1, 4096]
        assert!(no_prmb_like.normalized_perf > 0.9);
        assert!(nominal.normalized_perf > 0.9);
        assert!(
            no_prmb_like.normalized_energy > 2.0 * nominal.normalized_energy,
            "expected the merge-less design point to spend much more energy: {} vs {}",
            no_prmb_like.normalized_energy,
            nominal.normalized_energy
        );
    }

    #[test]
    fn fig13_tpreg_hit_rates_are_high_at_l4_l3() {
        let result = fig13_tpreg_hit_rate_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        for row in &result.rows {
            assert!(row.l4_rate > 0.9, "{:?} l4 {}", row.workload, row.l4_rate);
            assert!(row.l3_rate > 0.9);
            assert!(row.l2_rate <= row.l3_rate + 1e-9);
        }
    }

    #[test]
    fn summary_shows_neummu_closing_the_gap() {
        let summary = summary_neummu_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        assert!(
            summary.iommu_avg_overhead > 0.4,
            "iommu overhead {}",
            summary.iommu_avg_overhead
        );
        assert!(
            summary.neummu_avg_overhead < 0.1,
            "neummu overhead {}",
            summary.neummu_avg_overhead
        );
        assert!(summary.energy_reduction > 2.0);
        assert!(summary.walk_access_reduction > 2.0);
        assert!(summary.to_table().rows().len() == 4);
    }

    #[test]
    fn largepages_reduce_dense_overheads() {
        let large = largepage_dense_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        let small = fig08_baseline_iommu_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        // IOMMU with 2 MB pages performs much better than with 4 KB pages.
        assert!(large.averages()[0] > small.averages()[0]);
        // NeuMMU stays near the oracle under large pages too.
        assert!(large.averages()[1] > 0.9);
    }

    #[test]
    fn spatial_array_npu_benefits_similarly() {
        let result = spatial_npu_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        let avgs = result.averages();
        assert!(
            avgs[1] > avgs[0],
            "NeuMMU should beat IOMMU on the spatial NPU"
        );
        assert!(avgs[1] > 0.85);
    }
}
