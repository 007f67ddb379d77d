//! Benchmark-side replay drivers for the traced run.
//!
//! The simulators keep their layer calls inside one function, so a host-time
//! breakdown cannot be taken from outside them. These drivers re-drive the
//! same public calls in the same order — `TilingPlan::for_layer`,
//! `AddressSpace::alloc_segment`, `DmaEngine::page_runs`,
//! `AddressTranslator::translate_run`, `DramModel::schedule_run` for the
//! dense pipeline, and the demand-paging gather loop of the embedding
//! simulator — with a span clock around each call. Their simulated cycles
//! must equal the simulators' own; the caller checks that, so a replay that
//! drifted from the simulator cannot report layer times for other work.

use std::time::Instant;

use neummu_mem::dram::DramModel;
use neummu_mem::interconnect::{CopyEngine, TransferKind};
use neummu_mmu::{MmuConfig, TranslationStats};
use neummu_npu::{DmaEngine, Layer, NpuConfig, TileFetch, TilingPlan};
use neummu_sim::{DenseSimConfig, EmbeddingSimConfig, SimError};
use neummu_vmem::{
    AddressSpace, MemNode, NodeSpec, PhysicalMemory, Segment, SegmentOptions, VirtAddr,
};
use neummu_workloads::EmbeddingModel;

use crate::host::LayerClock;

/// The layer spans a replay times, one clock each.
#[derive(Debug, Clone, Copy)]
pub enum Span {
    /// npu: `TilingPlan::for_layer`.
    Tiling,
    /// vmem: `AddressSpace::alloc_segment` (one call per segment).
    Map,
    /// npu: `DmaEngine::page_runs` iteration and per-fetch demand counting.
    PageRuns,
    /// mmu: `translate_run` and TLB invalidation.
    Translate,
    /// mem: `DramModel` scheduling and `CopyEngine` migrations.
    Mem,
    /// vmem: demand faults, translations and page migrations of a gather.
    VmemPaging,
    /// workloads: drawing the seeded lookup stream.
    Lookups,
    /// sim.serving: `ArrivalConfig::generate`.
    Arrivals,
}

/// Host time per layer span, summed over every call.
#[derive(Debug, Clone)]
pub struct Ledger {
    clocks: [LayerClock; 8],
    /// Pages the `alloc_segment` calls mapped eagerly.
    pub map_pages: u64,
    /// Translation requests the `translate_run` calls resolved.
    pub requests: u64,
    mark: Instant,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            clocks: [LayerClock::default(); 8],
            map_pages: 0,
            requests: 0,
            mark: Instant::now(),
        }
    }
}

impl Ledger {
    /// Starts the next span now.
    pub fn start(&mut self) {
        self.mark = Instant::now();
    }

    /// Ends the current span, charging it to `layer`, and starts the next.
    pub fn lap(&mut self, layer: Span) {
        let now = Instant::now();
        self.clocks[layer as usize].add(self.mark, now);
        self.mark = now;
    }

    /// The span clock of `layer`.
    pub fn clock(&self, layer: Span) -> &LayerClock {
        &self.clocks[layer as usize]
    }

    /// Keeps, per layer, the faster of this replay and `other`, a replay of
    /// the same calls: like the end-to-end `wall_s`, layer times are taken
    /// at the quietest moment a run saw.
    fn keep_faster(&mut self, other: &Ledger) {
        for (mine, theirs) in self.clocks.iter_mut().zip(&other.clocks) {
            if theirs.total < mine.total {
                *mine = *theirs;
            }
        }
    }
}

/// The per-layer clocks of a replay, and the host cost of one clock read
/// to subtract from each span.
pub struct Replayed {
    pub ledger: Ledger,
    pub span_s: f64,
}

impl Replayed {
    /// Self seconds of `layer` per replay, less one clock read per span.
    pub fn self_s(&self, layer: Span) -> f64 {
        self.ledger.clock(layer).self_s(self.span_s)
    }

    /// Nanoseconds of `layer` per `per` units, less one clock read per span.
    pub fn ns_per(&self, layer: Span, per: u64) -> f64 {
        self.ledger.clock(layer).ns_per(per, self.span_s)
    }
}

/// Runs `replay` `times` times, keeping each layer's fastest clock, and
/// prices one clock read as the median gap between back-to-back reads.
/// Returns the last run's result with the clocks.
pub fn fastest_of<R>(times: usize, replay: impl Fn(&mut Ledger) -> R) -> (Replayed, R) {
    let mut best = Ledger::default();
    let mut result = replay(&mut best);
    for _ in 1..times {
        let mut ledger = Ledger::default();
        result = replay(&mut ledger);
        best.keep_faster(&ledger);
    }
    let gaps: Vec<f64> = (0..10_001)
        .map(|_| {
            let a = Instant::now();
            (Instant::now() - a).as_secs_f64()
        })
        .collect();
    let span_s = crate::host::median(&gaps);
    (
        Replayed {
            ledger: best,
            span_s,
        },
        result,
    )
}

/// Tiles `layer` and maps its IA and W operand segments exactly as the
/// dense simulator (and the serving simulator's per-tenant set-up) does,
/// timing both layers' calls.
pub fn map_layer(
    space: &mut AddressSpace,
    memory: &mut PhysicalMemory,
    layer_index: usize,
    layer: &Layer,
    npu: &NpuConfig,
    seg_opts: SegmentOptions,
    ledger: &mut Ledger,
) -> Result<(TilingPlan, Segment, Segment), SimError> {
    ledger.start();
    let plan = TilingPlan::for_layer(layer, npu)?;
    ledger.lap(Span::Tiling);
    let ia_seg = space.alloc_segment(
        format!("l{layer_index}_{}_ia", layer.name()),
        plan.ia_segment_bytes().max(1),
        seg_opts,
        memory,
    )?;
    ledger.lap(Span::Map);
    let w_seg = space.alloc_segment(
        format!("l{layer_index}_{}_w", layer.name()),
        plan.w_segment_bytes().max(1),
        seg_opts,
        memory,
    )?;
    ledger.lap(Span::Map);
    ledger.map_pages += ia_seg.page_count() + w_seg.page_count();
    Ok((plan, ia_seg, w_seg))
}

/// Re-drives `DenseSimulator::simulate_workload` call for call and returns
/// its total cycles.
pub fn dense(
    config: &DenseSimConfig,
    layers: &[Layer],
    ledger: &mut Ledger,
) -> Result<u64, SimError> {
    let mut memory =
        PhysicalMemory::new(&[NodeSpec::new(config.node, config.memory_capacity_bytes)]);
    let mut space = AddressSpace::new("dense-npu");
    let mut translator = config.mmu.translator();
    let mut dram = DramModel::new(config.dram);
    let dma = DmaEngine::new(config.npu.dma);
    let page_bytes = config.mmu.page_size.bytes();
    let seg_opts = SegmentOptions::new(config.node, config.mmu.page_size);

    let mut now = 0u64;
    for (layer_index, layer) in layers.iter().enumerate() {
        let (plan, ia_seg, w_seg) = map_layer(
            &mut space,
            &mut memory,
            layer_index,
            layer,
            &config.npu,
            seg_opts,
            ledger,
        )?;

        let layer_start = now;
        let mut prev_mem_end = layer_start;
        let mut compute_end_prev = layer_start;
        let mut compute_end_prev2 = layer_start;
        for tile in plan.tiles() {
            let mem_start = prev_mem_end.max(compute_end_prev2);
            let mut issue_cycle = mem_start;
            let mut mem_end = mem_start;
            let fetches: [Option<(&TileFetch, VirtAddr)>; 2] = [
                tile.ia_fetch.as_ref().map(|f| (f, ia_seg.start())),
                tile.w_fetch.as_ref().map(|f| (f, w_seg.start())),
            ];
            for (fetch, seg_base) in fetches.into_iter().flatten() {
                ledger.start();
                std::hint::black_box(dma.translation_demand(fetch));
                let mut runs = dma.page_runs(fetch, seg_base.raw(), page_bytes);
                loop {
                    let next = runs.next();
                    ledger.lap(Span::PageRuns);
                    let Some(mut run) = next else { break };
                    loop {
                        let va = seg_base.add(run.first.offset);
                        let out = translator.translate_run(
                            space.page_table(),
                            va,
                            run.txn_count,
                            issue_cycle,
                        );
                        ledger.lap(Span::Translate);
                        ledger.requests += out.consumed;
                        issue_cycle = out.last_accept() + 1;
                        let scheduled = run.prefix(out.consumed);
                        let data_ready = dram.schedule_run(
                            out.first.complete_cycle,
                            out.complete_stride,
                            scheduled.txn_count,
                            scheduled.first.bytes,
                            scheduled.interior_txn_bytes(),
                            scheduled.txn_len(scheduled.txn_count - 1),
                        );
                        ledger.lap(Span::Mem);
                        mem_end = mem_end.max(data_ready);
                        if out.consumed == run.txn_count {
                            break;
                        }
                        run = run.suffix(out.consumed);
                    }
                }
            }
            mem_end = mem_end.max(issue_cycle);
            let compute_cycles = config.npu.compute.tile_compute_cycles(
                tile.compute.m,
                tile.compute.k,
                tile.compute.n,
            );
            let compute_end = mem_end.max(compute_end_prev) + compute_cycles;
            prev_mem_end = mem_end;
            compute_end_prev2 = compute_end_prev;
            compute_end_prev = compute_end;
        }
        let step_cycles = compute_end_prev.saturating_sub(layer_start).max(1);
        now = layer_start + step_cycles * plan.repeats();
    }
    Ok(now)
}

/// Cycles and counts of one replayed demand-paging gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gather {
    /// The gather phase's cycles (`embedding_gather_cycles`).
    pub cycles: u64,
    /// Pages migrated into local memory.
    pub pages_migrated: u64,
    /// The gather translator's counters.
    pub stats: TranslationStats,
}

/// Re-drives the demand-paging gather phase of
/// `EmbeddingSimulator::simulate` for NPU 0's share of `batch`.
pub fn demand_paging_gather(
    config: &EmbeddingSimConfig,
    model: &EmbeddingModel,
    batch: u64,
    link: TransferKind,
    ledger: &mut Ledger,
) -> Result<Gather, SimError> {
    let local_node = MemNode::Npu(0);
    let share = batch.div_ceil(u64::from(config.num_npus)).max(1);
    let mut memory = PhysicalMemory::with_npus(config.num_npus, config.npu_memory_bytes);
    let mut space = AddressSpace::new("embedding-system");
    let page_size = config.mmu.page_size;
    let page_bytes = page_size.bytes();
    let mut segments = Vec::with_capacity(model.tables().len());
    for (i, table) in model.tables().iter().enumerate() {
        let owner = MemNode::Npu((i % config.num_npus as usize) as u16);
        ledger.start();
        let seg = space.alloc_segment(
            table.name.clone(),
            table.table_bytes(),
            SegmentOptions::new(owner, page_size).lazy(),
            &mut memory,
        )?;
        ledger.lap(Span::Map);
        segments.push((seg.start(), table.vector_bytes()));
    }
    let mut translator = config.mmu.translator();
    let mut copy_engine = CopyEngine::new(config.interconnect);
    let mut local_dram = DramModel::new(config.dram);

    let mut gather = Gather {
        cycles: 0,
        pages_migrated: 0,
        stats: TranslationStats::default(),
    };
    let mut issue_cycle = 0u64;
    let mut stream = model.lookup_stream(share, config.seed);
    ledger.start();
    loop {
        let next = stream.next();
        ledger.lap(Span::Lookups);
        let Some((table_idx, row)) = next else { break };
        let (seg_start, vector_bytes) = segments[table_idx];
        let va = seg_start.add(row * vector_bytes);
        space.ensure_mapped(va, &mut memory)?;
        ledger.lap(Span::VmemPaging);
        let out = translator.translate_run(space.page_table(), va, 1, issue_cycle);
        ledger.lap(Span::Translate);
        ledger.requests += out.consumed;
        issue_cycle = out.last_accept() + 1;
        let mut ready = out.first.complete_cycle;
        let translation = space.translate(va)?;
        ledger.lap(Span::VmemPaging);
        if translation.node != local_node {
            gather.pages_migrated += 1;
            ready = copy_engine.page_migration(ready, page_bytes, link);
            ledger.lap(Span::Mem);
            space.migrate_page(va, local_node, &mut memory)?;
            ledger.lap(Span::VmemPaging);
            translator.invalidate_page(va);
            ledger.lap(Span::Translate);
        }
        let done = local_dram.schedule_transfer(ready, vector_bytes);
        ledger.lap(Span::Mem);
        gather.cycles = gather.cycles.max(done);
    }
    gather.stats = *translator.stats();
    Ok(gather)
}

/// Maps the operand segments of `layers` with eager 4 KB pages, as the
/// dense simulator does, then probes every mapped page once in address
/// order. Returns `(probes, total ns)`.
pub fn probe_sweep(layers: &[Layer]) -> (u64, f64) {
    let config = DenseSimConfig::with_mmu(MmuConfig::neummu());
    let mut memory =
        PhysicalMemory::new(&[NodeSpec::new(config.node, config.memory_capacity_bytes)]);
    let mut space = AddressSpace::new("probe");
    let seg_opts = SegmentOptions::new(config.node, config.mmu.page_size);
    let mut pages: Vec<VirtAddr> = Vec::new();
    let mut untimed = Ledger::default();
    for (index, layer) in layers.iter().enumerate() {
        let (_, ia, w) = map_layer(
            &mut space,
            &mut memory,
            index,
            layer,
            &config.npu,
            seg_opts,
            &mut untimed,
        )
        .expect("64 GiB holds the probed layers");
        for seg in [ia, w] {
            pages.extend((0..seg.page_count()).map(|p| seg.start().add(p * 4096)));
        }
    }
    let table = space.page_table();
    let start = Instant::now();
    let mut mapped = 0u64;
    for &va in &pages {
        mapped += u64::from(std::hint::black_box(table.probe(va)).is_hit());
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(mapped, pages.len() as u64, "every operand page is mapped");
    (pages.len() as u64, ns)
}
