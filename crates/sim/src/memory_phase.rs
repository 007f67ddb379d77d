//! The memory phase the dense and serving drivers share.
//!
//! Both drivers lay a network out one layer at a time with [`map_layer`] and
//! consume its DMA stream one same-page run at a time with [`run_step`]. The
//! translator is the only place a translation event is counted: a driver
//! that reports per-layer or per-tenant counts takes differences of its
//! [`AddressTranslator::stats`].

use neummu_mem::dram::DramModel;
use neummu_mmu::{AddressTranslator, RunOutcome};
use neummu_npu::{Layer, NpuConfig, PageRun, TileFetch, TileWork, TilingPlan};
use neummu_vmem::{AddressSpace, Asid, PageTable, PhysicalMemory, SegmentOptions, VirtAddr};

use crate::error::SimError;

/// One layer laid out in an address space: its tiling plan and the base
/// virtual addresses of its IA and W segments.
pub(crate) struct MappedLayer {
    pub(crate) plan: TilingPlan,
    ia_base: u64,
    w_base: u64,
}

impl MappedLayer {
    /// `(segment base, fetch)` of the tile's IA fetch, then its W fetch.
    pub(crate) fn fetches<'t>(
        &self,
        tile: &'t TileWork,
    ) -> impl Iterator<Item = (u64, &'t TileFetch)> {
        let ia = tile.ia_fetch.as_ref().map(|fetch| (self.ia_base, fetch));
        let w = tile.w_fetch.as_ref().map(|fetch| (self.w_base, fetch));
        [ia, w].into_iter().flatten()
    }
}

/// Tiles layer `layer_index` and allocates its IA segment, then its W
/// segment (named `l{index}_{name}_ia` and `_w`), in `space`, backed by
/// `memory`.
pub(crate) fn map_layer(
    space: &mut AddressSpace,
    memory: &mut PhysicalMemory,
    npu: &NpuConfig,
    seg_opts: SegmentOptions,
    layer_index: usize,
    layer: &Layer,
) -> Result<MappedLayer, SimError> {
    let plan = TilingPlan::for_layer(layer, npu)?;
    let ia_seg = space.alloc_segment(
        format!("l{layer_index}_{}_ia", layer.name()),
        plan.ia_segment_bytes().max(1),
        seg_opts,
        memory,
    )?;
    let w_seg = space.alloc_segment(
        format!("l{layer_index}_{}_w", layer.name()),
        plan.w_segment_bytes().max(1),
        seg_opts,
        memory,
    )?;
    Ok(MappedLayer {
        plan,
        ia_base: ia_seg.start().raw(),
        w_base: w_seg.start().raw(),
    })
}

/// Translates the same-page `run` (offsets relative to `base`) in context
/// `asid`, its first request issued at `*issue`, and schedules the data of
/// the prefix the translator consumed on `dram`.
///
/// Advances `*issue` to one cycle past the last accepted request and returns
/// the outcome with the cycle the prefix's last byte arrives. When the
/// translator consumed only a prefix (PRMB exhaustion, an eviction), the
/// caller continues from `run.suffix(out.consumed)`, which reproduces the
/// per-transaction sequence exactly.
pub(crate) fn run_step<T: AddressTranslator + ?Sized>(
    translator: &mut T,
    dram: &mut DramModel,
    page_table: &PageTable,
    asid: Asid,
    base: u64,
    run: PageRun,
    issue: &mut u64,
) -> (RunOutcome, u64) {
    let va = VirtAddr::new(base + run.first.offset);
    let out = translator.translate_run_tagged(page_table, asid, va, run.txn_count, *issue);
    *issue = out.last_accept() + 1;
    let scheduled = run.prefix(out.consumed);
    let data_ready = dram.schedule_run(
        out.first.complete_cycle,
        out.complete_stride,
        scheduled.txn_count,
        scheduled.first.bytes,
        scheduled.interior_txn_bytes(),
        scheduled.txn_len(scheduled.txn_count - 1),
    );
    (out, data_ready)
}
