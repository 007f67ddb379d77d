//! The dense-DNN pipeline simulator.
//!
//! For every layer the simulator builds the SPM-constrained tiling plan, lays
//! the layer's IA/W operands out in the NPU's virtual address space, and then
//! walks the tile sequence with the double-buffered pipeline of Figure 3:
//! tile *n*'s compute phase overlaps tile *n+1*'s memory phase.
//!
//! A tile's memory phase is simulated at per-transaction granularity: the DMA
//! decomposes each tile fetch into linearized memory transactions, issues at
//! most one translation request per cycle to the configured
//! [`neummu_mmu::AddressTranslator`], and schedules each transaction's data
//! transfer on the
//! shared HBM bandwidth once its translation completes. The memory phase ends
//! when the last byte of the tile has arrived. This is the mechanism through
//! which translation throughput (the paper's central concern) throttles
//! end-to-end performance.

use serde::Serialize;

use neummu_mem::dram::{DramConfig, DramModel};
use neummu_mmu::MmuConfig;
use neummu_npu::{DmaEngine, Layer, NpuConfig, TensorKind};
use neummu_vmem::{AddressSpace, Asid, MemNode, PhysicalMemory, SegmentOptions};

use crate::error::SimError;
use crate::memory_phase::{map_layer, run_step};

/// Configuration of a dense-workload simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DenseSimConfig {
    /// NPU architecture parameters.
    pub npu: NpuConfig,
    /// MMU design point under evaluation.
    pub mmu: MmuConfig,
    /// Local memory system parameters.
    pub dram: DramConfig,
    /// Memory node the NPU's operands live on.
    pub node: MemNode,
    /// Capacity of the NPU-local memory used to back the operands.
    pub memory_capacity_bytes: u64,
    /// Collect the per-window translation-issue trace (Figure 7) and the
    /// per-tile virtual-address windows (Figure 14). Off by default because it
    /// grows with simulated time.
    pub collect_traces: bool,
    /// Window width (cycles) of the translation-issue trace.
    pub trace_window_cycles: u64,
}

impl DenseSimConfig {
    /// The paper's default setup with the given MMU design point.
    #[must_use]
    pub fn with_mmu(mmu: MmuConfig) -> Self {
        DenseSimConfig {
            npu: NpuConfig::tpu_like(),
            mmu,
            dram: DramConfig::table1(),
            node: MemNode::Npu(0),
            memory_capacity_bytes: 64 << 30,
            collect_traces: false,
            trace_window_cycles: 1000,
        }
    }

    /// Enables trace collection (Figures 7 and 14).
    #[must_use]
    pub fn with_traces(mut self) -> Self {
        self.collect_traces = true;
        self
    }
}

/// Translations issued per fixed-width time window (the Figure 7 series).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TranslationTrace {
    /// Window width in cycles.
    pub window_cycles: u64,
    /// Number of translation requests issued in each window.
    pub counts: Vec<u64>,
    /// Virtual-address windows fetched per tile: `(tile index, kind, start, end)`
    /// (the Figure 14 trace). Capped to the first few thousand tiles. The
    /// operand kind is the `Copy` [`TensorKind`] (serialized via its `Display`
    /// labels `IA`/`W`/`OA`), so recording a window never allocates.
    pub tile_va_windows: Vec<(u64, TensorKind, u64, u64)>,
    /// True if the run produced more tile windows than the
    /// [`TranslationTrace::WINDOW_CAP`] cap and `tile_va_windows` is
    /// therefore a silent prefix of the real trace. Off for every workload
    /// the paper traces; reports surface it so a capped trace is never
    /// mistaken for a complete one.
    pub windows_truncated: bool,
}

impl TranslationTrace {
    /// Maximum number of per-tile VA windows recorded before the trace stops
    /// growing (and flags itself truncated).
    pub const WINDOW_CAP: usize = 4096;

    /// Records one tile fetch's VA window, flagging truncation instead of
    /// silently dropping windows past the cap.
    fn record_window(&mut self, tile: u64, kind: TensorKind, start: u64, end: u64) {
        if self.tile_va_windows.len() < Self::WINDOW_CAP {
            self.tile_va_windows.push((tile, kind, start, end));
        } else {
            self.windows_truncated = true;
        }
    }

    fn record_issue(&mut self, cycle: u64) {
        if self.window_cycles == 0 {
            return;
        }
        let window = (cycle / self.window_cycles) as usize;
        if self.counts.len() <= window {
            self.counts.resize(window + 1, 0);
        }
        self.counts[window] += 1;
    }

    /// Maximum translations observed in any window.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

/// Per-layer simulation result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayerResult {
    /// Layer name.
    pub layer_name: String,
    /// Cycles of one execution step of the layer.
    pub step_cycles: u64,
    /// Number of times the step executes (time steps of recurrent layers).
    pub repeats: u64,
    /// Total cycles attributed to the layer (`step_cycles × repeats`).
    pub total_cycles: u64,
    /// Sum of tile compute-phase cycles (one step).
    pub compute_cycles: u64,
    /// Sum of tile memory-phase cycles (one step).
    pub memory_cycles: u64,
    /// Number of tiles in one step.
    pub tile_count: u64,
    /// Translation requests issued by one step.
    pub translation_requests: u64,
    /// Maximum distinct 4 KB pages touched by a single tile.
    pub max_pages_per_tile: u64,
    /// Average distinct 4 KB pages touched per tile.
    pub avg_pages_per_tile: f64,
}

/// Whole-workload simulation result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadResult {
    /// Total cycles of the workload (all layers, including repeats).
    pub total_cycles: u64,
    /// Per-layer results.
    pub layers: Vec<LayerResult>,
    /// Aggregate translation statistics (one step per layer).
    pub translation: neummu_mmu::TranslationStats,
    /// Total translation energy in nanojoules (one step per layer).
    pub translation_energy_nj: f64,
    /// Optional traces (Figures 7 and 14).
    pub trace: Option<TranslationTrace>,
}

impl WorkloadResult {
    /// Performance of this run normalized to a reference run of the same
    /// workload (typically the oracular MMU): `reference_cycles / own_cycles`.
    #[must_use]
    pub fn normalized_to(&self, reference: &WorkloadResult) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        reference.total_cycles as f64 / self.total_cycles as f64
    }

    /// Maximum per-tile page divergence across the whole workload (Figure 6).
    #[must_use]
    pub fn max_pages_per_tile(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.max_pages_per_tile)
            .max()
            .unwrap_or(0)
    }

    /// Average per-tile page divergence across the whole workload (Figure 6).
    #[must_use]
    pub fn avg_pages_per_tile(&self) -> f64 {
        let tiles: u64 = self.layers.iter().map(|l| l.tile_count).sum();
        if tiles == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .layers
            .iter()
            .map(|l| l.avg_pages_per_tile * l.tile_count as f64)
            .sum();
        weighted / tiles as f64
    }
}

/// The dense-workload simulator.
#[derive(Debug, Clone)]
pub struct DenseSimulator {
    config: DenseSimConfig,
}

impl DenseSimulator {
    /// Creates a simulator with the given configuration.
    #[must_use]
    pub fn new(config: DenseSimConfig) -> Self {
        DenseSimulator { config }
    }

    /// The simulator's configuration.
    #[must_use]
    pub fn config(&self) -> &DenseSimConfig {
        &self.config
    }

    /// Simulates a full workload (a list of layers executed back to back).
    ///
    /// # Errors
    ///
    /// Returns an error if a layer is invalid, a tile cannot fit the
    /// scratchpad, or the operands cannot be mapped.
    pub fn simulate_workload(&self, layers: &[Layer]) -> Result<WorkloadResult, SimError> {
        self.config.npu.validate()?;
        let mut memory = PhysicalMemory::new(&[neummu_vmem::NodeSpec::new(
            self.config.node,
            self.config.memory_capacity_bytes,
        )]);
        let mut space = AddressSpace::new("dense-npu");
        let mut translator = self.config.mmu.translator();
        let mut dram = DramModel::new(self.config.dram);
        let dma = DmaEngine::new(self.config.npu.dma);

        let mut trace = if self.config.collect_traces {
            Some(TranslationTrace {
                window_cycles: self.config.trace_window_cycles,
                ..TranslationTrace::default()
            })
        } else {
            None
        };

        let mut now = 0u64;
        // One `sim/dense/layer` trace span per layer: the layer's slice of
        // the simulated timeline, payload = translation requests it issued.
        let layer_trace = neummu_trace::global().map(|sink| (sink, sink.kind("sim/dense/layer")));
        let mut layer_results = Vec::with_capacity(layers.len());
        let mut global_tile_index = 0u64;
        // Same-page runs are grouped at the translator's page size, so every
        // address of a run shares one TLB tag.
        let page_bytes = self.config.mmu.page_size.bytes();
        let seg_opts = SegmentOptions::new(self.config.node, self.config.mmu.page_size);

        for (layer_index, layer) in layers.iter().enumerate() {
            let mapped = map_layer(
                &mut space,
                &mut memory,
                &self.config.npu,
                seg_opts,
                layer_index,
                layer,
            )?;
            let plan = &mapped.plan;
            let requests_before = translator.stats().requests;

            let layer_start = now;
            let mut prev_mem_end = layer_start;
            let mut compute_end_prev = layer_start;
            let mut compute_end_prev2 = layer_start;
            let mut compute_sum = 0u64;
            let mut memory_sum = 0u64;
            let mut max_pages = 0u64;
            let mut pages_sum = 0u64;

            for tile in plan.tiles() {
                // Double buffering: this tile's fetch may start once the DMA
                // finished the previous tile's fetch and the buffer half it
                // will overwrite has been consumed (two tiles earlier).
                let mem_start = prev_mem_end.max(compute_end_prev2);
                let mut issue_cycle = mem_start;
                let mut mem_end = mem_start;
                let mut tile_pages = 0u64;

                for (seg_base, fetch) in mapped.fetches(tile) {
                    tile_pages += dma.translation_demand(fetch).distinct_pages_4k;
                    if let Some(trace) = trace.as_mut() {
                        let start = seg_base + fetch.offset;
                        trace.record_window(
                            global_tile_index,
                            fetch.kind,
                            start,
                            start + fetch.bytes,
                        );
                    }
                    // The run-coalesced memory phase: the DMA stream is
                    // consumed one same-page run at a time. Each run step
                    // resolves the run's first request through the full
                    // translation path and replays the rest arithmetically
                    // (identical outcomes, one TLB touch); the matching data
                    // transfers batch into one DRAM occupancy computation. A
                    // run the translator could not fully replay (PRMB
                    // exhaustion, an eviction) continues from its suffix, so
                    // the per-transaction sequence is reproduced exactly.
                    for mut run in dma.page_runs(fetch, seg_base, page_bytes) {
                        loop {
                            let (out, data_ready) = run_step(
                                translator.as_mut(),
                                &mut dram,
                                space.page_table(),
                                Asid::GLOBAL,
                                seg_base,
                                run,
                                &mut issue_cycle,
                            );
                            debug_assert!(!out.first.fault, "dense operands are eagerly mapped");
                            if let Some(trace) = trace.as_mut() {
                                for j in 0..out.consumed {
                                    trace.record_issue(out.accept(j));
                                }
                            }
                            mem_end = mem_end.max(data_ready);
                            if out.consumed == run.txn_count {
                                break;
                            }
                            run = run.suffix(out.consumed);
                        }
                    }
                }
                mem_end = mem_end.max(issue_cycle);

                let compute_cycles = self.config.npu.compute.tile_compute_cycles(
                    tile.compute.m,
                    tile.compute.k,
                    tile.compute.n,
                );
                let compute_start = mem_end.max(compute_end_prev);
                let compute_end = compute_start + compute_cycles;

                compute_sum += compute_cycles;
                memory_sum += mem_end - mem_start;
                max_pages = max_pages.max(tile_pages);
                pages_sum += tile_pages;

                prev_mem_end = mem_end;
                compute_end_prev2 = compute_end_prev;
                compute_end_prev = compute_end;
                global_tile_index += 1;
            }

            let requests = translator.stats().requests - requests_before;
            let step_cycles = compute_end_prev.saturating_sub(layer_start).max(1);
            let repeats = plan.repeats();
            let total_cycles = step_cycles * repeats;
            now = layer_start + total_cycles;

            if let Some((sink, kind)) = layer_trace {
                sink.emit(neummu_trace::Event {
                    kind,
                    asid: 0,
                    start: layer_start,
                    end: now,
                    payload: requests,
                });
            }

            layer_results.push(LayerResult {
                layer_name: layer.name().to_string(),
                step_cycles,
                repeats,
                total_cycles,
                compute_cycles: compute_sum,
                memory_cycles: memory_sum,
                tile_count: plan.tile_count(),
                translation_requests: requests,
                max_pages_per_tile: max_pages,
                avg_pages_per_tile: if plan.tile_count() == 0 {
                    0.0
                } else {
                    pages_sum as f64 / plan.tile_count() as f64
                },
            });
        }

        Ok(WorkloadResult {
            total_cycles: now,
            layers: layer_results,
            translation: *translator.stats(),
            translation_energy_nj: translator.energy().total_nj(),
            trace,
        })
    }

    /// Simulates a single layer (convenience wrapper).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DenseSimulator::simulate_workload`].
    pub fn simulate_layer(&self, layer: &Layer) -> Result<WorkloadResult, SimError> {
        self.simulate_workload(std::slice::from_ref(layer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_mmu::MmuConfig;
    use neummu_npu::Layer;

    fn small_conv() -> Layer {
        Layer::conv2d("conv", 1, 64, 28, 28, 64, 3, 3, 1, 1)
    }

    fn small_lstm() -> Layer {
        Layer::lstm_cell("lstm", 1, 512, 512, 4)
    }

    fn run(layer: &Layer, mmu: MmuConfig) -> WorkloadResult {
        DenseSimulator::new(DenseSimConfig::with_mmu(mmu))
            .simulate_layer(layer)
            .unwrap()
    }

    #[test]
    fn oracle_is_never_slower_than_iommu() {
        for layer in [small_conv(), small_lstm()] {
            let oracle = run(&layer, MmuConfig::oracle());
            let iommu = run(&layer, MmuConfig::baseline_iommu());
            let neummu = run(&layer, MmuConfig::neummu());
            assert!(
                oracle.total_cycles <= iommu.total_cycles,
                "{}",
                layer.name()
            );
            assert!(oracle.total_cycles <= neummu.total_cycles);
            assert!(neummu.total_cycles <= iommu.total_cycles);
        }
    }

    #[test]
    fn neummu_is_close_to_oracle_for_a_memory_bound_layer() {
        let layer = small_lstm();
        let oracle = run(&layer, MmuConfig::oracle());
        let neummu = run(&layer, MmuConfig::neummu());
        let iommu = run(&layer, MmuConfig::baseline_iommu());
        let neummu_norm = neummu.normalized_to(&oracle);
        let iommu_norm = iommu.normalized_to(&oracle);
        assert!(neummu_norm > 0.9, "NeuMMU normalized perf {neummu_norm}");
        assert!(
            iommu_norm < 0.5,
            "baseline IOMMU normalized perf {iommu_norm}"
        );
    }

    #[test]
    fn repeats_scale_total_cycles() {
        let one_step = Layer::lstm_cell("lstm", 1, 512, 512, 1);
        let four_steps = Layer::lstm_cell("lstm", 1, 512, 512, 4);
        let a = run(&one_step, MmuConfig::oracle());
        let b = run(&four_steps, MmuConfig::oracle());
        assert_eq!(b.total_cycles, 4 * a.total_cycles);
        assert_eq!(b.layers[0].repeats, 4);
    }

    #[test]
    fn translation_requests_match_transaction_count() {
        let layer = small_conv();
        let result = run(&layer, MmuConfig::neummu());
        let requests: u64 = result.layers.iter().map(|l| l.translation_requests).sum();
        assert_eq!(result.translation.requests, requests);
        assert!(requests > 0);
    }

    #[test]
    fn page_divergence_is_reported_per_tile() {
        let layer = small_lstm();
        let result = run(&layer, MmuConfig::oracle());
        assert!(result.max_pages_per_tile() > 0);
        assert!(result.avg_pages_per_tile() > 0.0);
        assert!(result.avg_pages_per_tile() <= result.max_pages_per_tile() as f64);
    }

    #[test]
    fn traces_capture_issue_bursts_and_va_windows() {
        let config = DenseSimConfig::with_mmu(MmuConfig::oracle()).with_traces();
        let result = DenseSimulator::new(config)
            .simulate_layer(&small_conv())
            .unwrap();
        let trace = result.trace.expect("traces requested");
        assert!(!trace.counts.is_empty());
        assert!(trace.peak() > 0);
        assert!(trace.peak() <= config.trace_window_cycles);
        assert!(!trace.tile_va_windows.is_empty());
        // VA windows advance monotonically within a tensor kind.
        let ia_starts: Vec<u64> = trace
            .tile_va_windows
            .iter()
            .filter(|(_, kind, _, _)| *kind == TensorKind::InputActivation)
            .map(|(_, _, start, _)| *start)
            .collect();
        assert!(ia_starts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn walk_accesses_drop_with_neummu_prmb_and_tpreg() {
        let layer = small_lstm();
        let iommu = run(&layer, MmuConfig::baseline_iommu());
        let neummu = run(&layer, MmuConfig::neummu());
        assert!(
            iommu.translation.walk_memory_accesses > 4 * neummu.translation.walk_memory_accesses,
            "iommu {} vs neummu {}",
            iommu.translation.walk_memory_accesses,
            neummu.translation.walk_memory_accesses
        );
        assert!(iommu.translation_energy_nj > neummu.translation_energy_nj);
    }

    #[test]
    fn multi_layer_workloads_accumulate() {
        let layers = vec![small_conv(), small_lstm()];
        let sim = DenseSimulator::new(DenseSimConfig::with_mmu(MmuConfig::oracle()));
        let combined = sim.simulate_workload(&layers).unwrap();
        assert_eq!(combined.layers.len(), 2);
        let sum: u64 = combined.layers.iter().map(|l| l.total_cycles).sum();
        assert_eq!(combined.total_cycles, sum);
    }
}
