//! The Section IV-C MMU-cache design-space comparison: UPTC vs TPC.
//!
//! The paper compares a physically tagged unified page-table cache (UPTC)
//! against a virtually tagged translation path cache (TPC) by replaying the
//! page-table walks the NPU performs and measuring per-level hit rates and the
//! number of walk memory accesses each design eliminates. This experiment
//! rebuilds that comparison: the walk stream is the sequence of pages the
//! dense simulator actually walks under the NeuMMU configuration.

use serde::Serialize;

use neummu_mmu::{MmuConfig, TranslationPathCache, UnifiedPageTableCache, WalkCache};
use neummu_npu::{DmaEngine, NpuConfig, TilingPlan};
use neummu_vmem::{AddressSpace, PhysicalMemory, SegmentOptions, VirtAddr};
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::error::SimError;
use crate::experiments::ExperimentScale;
use crate::report::{pct, ResultTable};
use crate::runner::ExperimentRunner;

/// Per-workload comparison of the two MMU-cache organizations.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MmuCacheRow {
    /// Workload identity.
    pub workload: WorkloadId,
    /// Batch size.
    pub batch: u64,
    /// UPTC entry hit rate.
    pub uptc_hit_rate: f64,
    /// TPC hit rates at the L4/L3/L2 depths.
    pub tpc_depth_rates: (f64, f64, f64),
    /// Walk memory accesses remaining with the UPTC.
    pub uptc_accesses: u64,
    /// Walk memory accesses remaining with the TPC.
    pub tpc_accesses: u64,
}

/// Result of the UPTC-vs-TPC study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MmuCacheStudyResult {
    /// One row per `(workload, batch)` point.
    pub rows: Vec<MmuCacheRow>,
}

impl MmuCacheStudyResult {
    /// Fraction of page-table reads that the TPC eliminates relative to the
    /// UPTC (aggregated over all rows); positive when the TPC is better.
    #[must_use]
    pub fn tpc_walk_reduction_vs_uptc(&self) -> f64 {
        let uptc: u64 = self.rows.iter().map(|r| r.uptc_accesses).sum();
        let tpc: u64 = self.rows.iter().map(|r| r.tpc_accesses).sum();
        if uptc == 0 {
            return 0.0;
        }
        1.0 - tpc as f64 / uptc as f64
    }

    /// Renders the result as a table.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Section IV-C: UPTC vs TPC translation caching",
            &[
                "Workload",
                "Batch",
                "UPTC hit rate",
                "TPC L4",
                "TPC L3",
                "TPC L2",
                "UPTC walk reads",
                "TPC walk reads",
            ],
        );
        for row in &self.rows {
            table.push_row(&[
                row.workload.label().to_string(),
                format!("b{:02}", row.batch),
                pct(row.uptc_hit_rate),
                pct(row.tpc_depth_rates.0),
                pct(row.tpc_depth_rates.1),
                pct(row.tpc_depth_rates.2),
                row.uptc_accesses.to_string(),
                row.tpc_accesses.to_string(),
            ]);
        }
        table
    }
}

/// Number of entries given to each cache organization in the comparison
/// (small, as in the paper's discussion of lightweight designs).
const CACHE_ENTRIES: usize = 16;

/// Runs the UPTC-vs-TPC comparison.
///
/// The walk stream replayed into the caches is the page-granular address
/// stream of every tile fetch (the pages a translation engine would walk when
/// its TLB cannot keep up with the burst).
///
/// One job per `(workload, batch)` cell, each replaying its own walk stream
/// into private cache instances.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn run_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<MmuCacheStudyResult, SimError> {
    let npu = NpuConfig::tpu_like();
    let mmu = MmuConfig::neummu();
    let dma = DmaEngine::new(npu.dma);
    let cells = scale.grid();

    let rows = runner.run_jobs("mmu_cache/uptc_vs_tpc", cells.len(), |i| {
        let (workload_id, batch) = cells[i];
        let workload = DenseWorkload::new(workload_id);
        let mut memory = PhysicalMemory::with_npus(1, 64 << 30);
        let mut space = AddressSpace::new("walk-replay");
        let mut uptc = UnifiedPageTableCache::new(CACHE_ENTRIES);
        let mut tpc = TranslationPathCache::new(CACHE_ENTRIES);
        let mut uptc_accesses = 0u64;
        let mut tpc_accesses = 0u64;

        for (layer_index, layer) in workload.layers(batch).iter().enumerate() {
            let plan = TilingPlan::for_layer(layer, &npu)?;
            let opts = SegmentOptions::new(neummu_vmem::MemNode::Npu(0), mmu.page_size);
            let ia = space.alloc_segment(
                format!("l{layer_index}_ia"),
                plan.ia_segment_bytes().max(1),
                opts,
                &mut memory,
            )?;
            let w = space.alloc_segment(
                format!("l{layer_index}_w"),
                plan.w_segment_bytes().max(1),
                opts,
                &mut memory,
            )?;
            for tile in plan.tiles() {
                for (fetch, base) in [(tile.ia_fetch, ia.start()), (tile.w_fetch, w.start())]
                    .into_iter()
                    .filter_map(|(f, b)| f.map(|f| (f, b)))
                {
                    // Walk once per distinct page of the fetch window.
                    let first_page = fetch.offset >> 12;
                    let last_page = (fetch.end().saturating_sub(1)) >> 12;
                    for page in first_page..=last_page {
                        let va = VirtAddr::new(base.raw() + (page << 12));
                        let _ = dma; // the DMA defines the stream granularity
                        let path = space.walk(va);
                        uptc_accesses += u64::from(uptc.access(&path).levels_read);
                        tpc_accesses += u64::from(tpc.access(&path).levels_read);
                    }
                }
            }
        }

        Ok(MmuCacheRow {
            workload: workload_id,
            batch,
            uptc_hit_rate: uptc.hit_rate(),
            tpc_depth_rates: tpc.depth_hit_rates(),
            uptc_accesses,
            tpc_accesses,
        })
    })?;
    Ok(MmuCacheStudyResult { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpc_is_at_least_as_effective_as_uptc() {
        let result = run_on(&ExperimentRunner::serial(), ExperimentScale::Smoke).unwrap();
        assert_eq!(result.rows.len(), 2);
        for row in &result.rows {
            assert!(row.tpc_accesses <= row.uptc_accesses, "{:?}", row.workload);
            assert!(row.tpc_depth_rates.0 >= row.tpc_depth_rates.2);
            assert!(row.uptc_hit_rate > 0.5);
        }
        assert!(result.tpc_walk_reduction_vs_uptc() >= 0.0);
        assert!(result.to_table().rows().len() == 2);
    }
}
