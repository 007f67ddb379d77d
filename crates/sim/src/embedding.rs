//! The multi-NPU embedding-layer case study (Section V, Figures 15 and 16).
//!
//! The system model follows Figure 5 of the paper: the embedding tables of a
//! recommender model are model-parallelized round-robin across the NPUs, while
//! the MLP portions are data-parallel. After the embedding lookup phase, every
//! NPU must hold the embeddings of its share of the minibatch from *all*
//! tables, most of which live in a remote NPU's memory. The simulator measures
//! the latency of one NPU's (NPU 0's) inference step, broken down into the
//! four components of Figure 15: GEMM (the MLP stacks), Reduction
//! (feature-interaction / element-wise work), Else (framework overhead) and
//! the Embedding lookup (gather) itself.
//!
//! Three gather strategies are modelled:
//!
//! * [`GatherStrategy::HostRelayedCopy`] — the MMU-less baseline: the CPU
//!   runtime copies remote embeddings into host pinned memory and then into
//!   the destination NPU, both hops over PCIe.
//! * [`GatherStrategy::NumaDirect`] — NeuMMU-enabled fine-grained NUMA loads
//!   over PCIe ("NUMA(slow)") or the NPU↔NPU link ("NUMA(fast)").
//! * [`GatherStrategy::DemandPaging`] — NeuMMU-enabled demand paging: the
//!   faulting page (4 KB or 2 MB) is migrated into local memory before the
//!   access (Figure 16).

use serde::Serialize;

use neummu_mem::dram::{DramConfig, DramModel};
use neummu_mem::interconnect::{CopyEngine, InterconnectConfig, TransferKind};
use neummu_mmu::MmuConfig;
use neummu_npu::NpuConfig;
use neummu_vmem::{AddressSpace, MemNode, PhysicalMemory, SegmentOptions};
use neummu_workloads::EmbeddingModel;

use neummu_mmu::{AddressTranslator, RunOutcome};
use neummu_vmem::{PageTable, VirtAddr};

use crate::dense::{DenseSimConfig, DenseSimulator};
use crate::error::SimError;

/// Translates one same-page run of gather lookups and advances the issue
/// cursor — the single translate-and-advance call site shared by the NUMA
/// and demand-paging gather strategies (demand paging passes runs of one:
/// a migration invalidates translation state, so nothing replays across it).
fn translate_gather_run(
    translator: &mut dyn AddressTranslator,
    page_table: &PageTable,
    va: VirtAddr,
    count: u64,
    issue_cycle: &mut u64,
) -> RunOutcome {
    let out = translator.translate_run(page_table, va, count, *issue_cycle);
    *issue_cycle = out.last_accept() + 1;
    out
}

/// How remote embeddings are gathered into the local NPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GatherStrategy {
    /// MMU-less baseline: CPU-relayed staged copies over PCIe.
    HostRelayedCopy,
    /// Fine-grained NUMA loads over the given interconnect.
    NumaDirect {
        /// Which link carries the remote loads.
        link: TransferKind,
    },
    /// Demand paging: migrate the faulting page into local memory, then access
    /// it locally.
    DemandPaging {
        /// Which link carries the page migrations.
        link: TransferKind,
    },
}

impl GatherStrategy {
    /// Label used in the Figure 15/16 result tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            GatherStrategy::HostRelayedCopy => "Baseline",
            GatherStrategy::NumaDirect {
                link: TransferKind::Pcie,
            } => "NUMA(slow)",
            GatherStrategy::NumaDirect {
                link: TransferKind::NpuLink,
            } => "NUMA(fast)",
            GatherStrategy::DemandPaging {
                link: TransferKind::Pcie,
            } => "DemandPaging(PCIe)",
            GatherStrategy::DemandPaging {
                link: TransferKind::NpuLink,
            } => "DemandPaging",
        }
    }

    /// True if this strategy requires address-translation support on the NPU.
    #[must_use]
    pub fn needs_mmu(&self) -> bool {
        !matches!(self, GatherStrategy::HostRelayedCopy)
    }
}

/// Configuration of the embedding case study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EmbeddingSimConfig {
    /// NPU architecture parameters (used for the MLP phase).
    pub npu: NpuConfig,
    /// MMU design point used for remote-access translation.
    pub mmu: MmuConfig,
    /// Local memory system.
    pub dram: DramConfig,
    /// System interconnect parameters.
    pub interconnect: InterconnectConfig,
    /// Number of NPUs sharing the embedding tables.
    pub num_npus: u16,
    /// Per-NPU local memory capacity.
    pub npu_memory_bytes: u64,
    /// Seed of the embedding-index generator.
    pub seed: u64,
    /// Fixed framework/runtime overhead charged per inference step ("Else").
    pub framework_overhead_cycles: u64,
}

impl EmbeddingSimConfig {
    /// The paper's setup (Table I) with the given MMU design point.
    #[must_use]
    pub fn with_mmu(mmu: MmuConfig) -> Self {
        EmbeddingSimConfig {
            npu: NpuConfig::tpu_like(),
            mmu,
            dram: DramConfig::table1(),
            interconnect: InterconnectConfig::table1(),
            num_npus: 4,
            npu_memory_bytes: 32 << 30,
            seed: 0x4e65_754d_4d55,
            framework_overhead_cycles: 5_000,
        }
    }
}

/// Latency breakdown of one inference step on one NPU (the Figure 15 stack).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EmbeddingPhaseBreakdown {
    /// Cycles spent in the MLP GEMMs.
    pub gemm_cycles: u64,
    /// Cycles spent in feature interaction / element-wise reduction.
    pub reduction_cycles: u64,
    /// Fixed framework overhead ("Else").
    pub other_cycles: u64,
    /// Cycles spent gathering embeddings (local + remote).
    pub embedding_gather_cycles: u64,
    /// Number of embedding vectors gathered.
    pub vectors_gathered: u64,
    /// Vectors that had to come from a remote node.
    pub remote_vectors: u64,
    /// Bytes moved across the system interconnect.
    pub interconnect_bytes: u64,
    /// Pages migrated by demand paging.
    pub pages_migrated: u64,
    /// Translation requests issued during the gather (0 for the MMU-less
    /// baseline).
    pub translation_requests: u64,
}

impl EmbeddingPhaseBreakdown {
    /// Total latency of the step.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.gemm_cycles + self.reduction_cycles + self.other_cycles + self.embedding_gather_cycles
    }
}

/// The embedding case-study simulator.
#[derive(Debug, Clone)]
pub struct EmbeddingSimulator {
    config: EmbeddingSimConfig,
}

impl EmbeddingSimulator {
    /// Creates a simulator with the given configuration.
    #[must_use]
    pub fn new(config: EmbeddingSimConfig) -> Self {
        EmbeddingSimulator { config }
    }

    /// The simulator's configuration.
    #[must_use]
    pub fn config(&self) -> &EmbeddingSimConfig {
        &self.config
    }

    /// Simulates one inference step of `model` at the given minibatch size
    /// with the given gather strategy, from the perspective of NPU 0.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is inconsistent or the operands
    /// cannot be mapped.
    pub fn simulate(
        &self,
        model: &EmbeddingModel,
        batch: u64,
        strategy: GatherStrategy,
    ) -> Result<EmbeddingPhaseBreakdown, SimError> {
        if self.config.num_npus == 0 {
            return Err(SimError::InvalidConfig {
                reason: "at least one NPU is required".into(),
            });
        }
        if batch == 0 {
            return Err(SimError::InvalidConfig {
                reason: "batch size must be positive".into(),
            });
        }
        let cfg = &self.config;
        let local_node = MemNode::Npu(0);
        let batch_share = batch.div_ceil(u64::from(cfg.num_npus)).max(1);

        // 1. Dense (MLP) phase: data-parallel over local operands. When the
        //    NPU has an MMU, the MLP tile fetches are translated through it as
        //    well (the Figure 16 normalization depends on this); the MMU-less
        //    baseline accesses its physically addressed local memory directly,
        //    which the oracle models.
        let mlp_mmu = if strategy.needs_mmu() {
            cfg.mmu
        } else {
            MmuConfig::oracle()
        };
        let mlp_layers = model.mlp_layers(batch_share);
        let dense_sim = DenseSimulator::new(DenseSimConfig {
            npu: cfg.npu,
            dram: cfg.dram,
            node: local_node,
            memory_capacity_bytes: cfg.npu_memory_bytes,
            collect_traces: false,
            trace_window_cycles: 1000,
            mmu: mlp_mmu,
        });
        let gemm_cycles = dense_sim.simulate_workload(&mlp_layers)?.total_cycles;

        // 2. Reduction / feature interaction: element-wise work over the
        //    gathered vectors on the NPU's vector units.
        let emb_dim = model.tables().first().map_or(64, |t| t.dim);
        let elementwise_ops = batch_share * model.lookups_per_sample() * emb_dim;
        let reduction_cycles = elementwise_ops.div_ceil(128) + 200;

        // 3. Embedding gather phase.
        let mut memory = PhysicalMemory::with_npus(cfg.num_npus, cfg.npu_memory_bytes);
        let mut space = AddressSpace::new("embedding-system");
        let page_size = cfg.mmu.page_size;
        let mut segments = Vec::new();
        for (i, table) in model.tables().iter().enumerate() {
            let owner = MemNode::Npu((i % cfg.num_npus as usize) as u16);
            let seg = space.alloc_segment(
                table.name.clone(),
                table.table_bytes(),
                SegmentOptions::new(owner, page_size).lazy(),
                &mut memory,
            )?;
            segments.push((seg, owner, table.vector_bytes()));
        }

        let mut translator = cfg.mmu.translator();
        let mut copy_engine = CopyEngine::new(cfg.interconnect);
        let mut local_dram = DramModel::new(cfg.dram);

        let mut gather_end = 0u64;
        let mut issue_cycle = 0u64;
        let mut vectors = 0u64;
        let mut remote_vectors = 0u64;
        let mut interconnect_bytes = 0u64;
        let mut pages_migrated = 0u64;
        let mut host_relayed_remote_bytes: Vec<u64> = vec![0; cfg.num_npus as usize];

        // Lookups are streamed straight from the seeded generator — the same
        // `(table, row)` sequence `generate_lookups` would materialize,
        // without the per-minibatch index buffers. Consecutive lookups that
        // land on the same page of the same table form a run for the
        // coalesced translation path (NUMA gathers only; a demand-paging
        // migration invalidates translation state mid-run).
        let page_shift = page_size.bytes().trailing_zeros();
        let mut stream = model.lookup_stream(batch_share, cfg.seed).peekable();
        while let Some((table_idx, row)) = stream.next() {
            let (seg, owner, vector_bytes) = &segments[table_idx];
            vectors += 1;
            let va = seg.start().add(row * *vector_bytes);
            // The table shard is resident on its owning node; materialize
            // the mapping (this models residency, not a data transfer).
            let resident = space.ensure_mapped(va, &mut memory)?.translation();
            let is_remote = *owner != local_node;
            if is_remote {
                remote_vectors += 1;
            }

            match strategy {
                GatherStrategy::HostRelayedCopy => {
                    // The MMU-less NPU cannot address remote memory at
                    // all; the CPU batches the remote vectors per source
                    // NPU and relays them through pinned host memory.
                    if is_remote {
                        let src = owner.npu_index().unwrap_or(0) as usize;
                        host_relayed_remote_bytes[src] += *vector_bytes;
                    } else {
                        let done = local_dram.schedule_transfer(0, *vector_bytes);
                        gather_end = gather_end.max(done);
                    }
                }
                GatherStrategy::NumaDirect { link } => {
                    // Absorb the consecutive lookups sharing this page into
                    // one run. Later lookups of the run skip their (no-op)
                    // `ensure_mapped`: the page is mapped by the first one.
                    let mut count = 1u64;
                    while let Some(&(next_table, next_row)) = stream.peek() {
                        if next_table != table_idx {
                            break;
                        }
                        let next_va = seg.start().add(next_row * *vector_bytes);
                        if next_va.raw() >> page_shift != va.raw() >> page_shift {
                            break;
                        }
                        stream.next();
                        vectors += 1;
                        if is_remote {
                            remote_vectors += 1;
                        }
                        count += 1;
                    }
                    let mut remaining = count;
                    while remaining > 0 {
                        let out = translate_gather_run(
                            translator.as_mut(),
                            space.page_table(),
                            va,
                            remaining,
                            &mut issue_cycle,
                        );
                        let done = if is_remote {
                            interconnect_bytes += out.consumed * *vector_bytes;
                            let mut last = 0;
                            for j in 0..out.consumed {
                                last =
                                    copy_engine.numa_access(out.complete(j), *vector_bytes, link);
                            }
                            last
                        } else {
                            local_dram.schedule_run(
                                out.first.complete_cycle,
                                out.complete_stride,
                                out.consumed,
                                *vector_bytes,
                                *vector_bytes,
                                *vector_bytes,
                            )
                        };
                        gather_end = gather_end.max(done);
                        remaining -= out.consumed;
                    }
                }
                GatherStrategy::DemandPaging { link } => {
                    let outcome = translate_gather_run(
                        translator.as_mut(),
                        space.page_table(),
                        va,
                        1,
                        &mut issue_cycle,
                    )
                    .first;
                    let mut ready = outcome.complete_cycle;
                    // The engine's walk does not change the page table, so
                    // the fault path's translation still holds.
                    if resident.node != local_node {
                        // Far fault: migrate the whole page into local
                        // memory before accessing it.
                        let page_bytes = page_size.bytes();
                        interconnect_bytes += page_bytes;
                        pages_migrated += 1;
                        ready = copy_engine.page_migration(ready, page_bytes, link);
                        space.migrate_page(va, local_node, &mut memory)?;
                        translator.invalidate_page(va);
                    }
                    let done = local_dram.schedule_transfer(ready, *vector_bytes);
                    gather_end = gather_end.max(done);
                }
            }
        }

        if matches!(strategy, GatherStrategy::HostRelayedCopy) {
            // Issue one staged copy per remote source NPU holding data.
            for bytes in host_relayed_remote_bytes.iter().copied().filter(|b| *b > 0) {
                interconnect_bytes += 2 * bytes; // two PCIe hops
                let done = copy_engine.host_relayed_copy(0, bytes);
                gather_end = gather_end.max(done);
            }
        }

        let translation_requests = if strategy.needs_mmu() {
            translator.stats().requests
        } else {
            0
        };

        // One `sim/embed/gather` trace span for the whole gather phase,
        // payload = vectors gathered.
        if let Some(sink) = neummu_trace::global() {
            sink.emit(neummu_trace::Event {
                kind: sink.kind("sim/embed/gather"),
                asid: 0,
                start: 0,
                end: gather_end,
                payload: vectors,
            });
        }

        Ok(EmbeddingPhaseBreakdown {
            gemm_cycles,
            reduction_cycles,
            other_cycles: cfg.framework_overhead_cycles,
            embedding_gather_cycles: gather_end,
            vectors_gathered: vectors,
            remote_vectors,
            interconnect_bytes,
            pages_migrated,
            translation_requests,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_vmem::PageSize;

    fn small_model() -> EmbeddingModel {
        // NCF-shaped but with fewer rows to keep tests fast; row count does
        // not change the gather path, only footprint.
        EmbeddingModel::ncf()
    }

    fn config(mmu: MmuConfig) -> EmbeddingSimConfig {
        EmbeddingSimConfig::with_mmu(mmu)
    }

    #[test]
    fn numa_beats_host_relayed_copies() {
        let sim = EmbeddingSimulator::new(config(MmuConfig::neummu()));
        let model = small_model();
        for batch in [1u64, 8] {
            let baseline = sim
                .simulate(&model, batch, GatherStrategy::HostRelayedCopy)
                .unwrap();
            let numa_slow = sim
                .simulate(
                    &model,
                    batch,
                    GatherStrategy::NumaDirect {
                        link: TransferKind::Pcie,
                    },
                )
                .unwrap();
            let numa_fast = sim
                .simulate(
                    &model,
                    batch,
                    GatherStrategy::NumaDirect {
                        link: TransferKind::NpuLink,
                    },
                )
                .unwrap();
            assert!(
                baseline.embedding_gather_cycles > numa_slow.embedding_gather_cycles,
                "batch {batch}: baseline {} vs numa_slow {}",
                baseline.embedding_gather_cycles,
                numa_slow.embedding_gather_cycles
            );
            assert!(numa_slow.embedding_gather_cycles >= numa_fast.embedding_gather_cycles);
            assert!(baseline.total_cycles() > numa_fast.total_cycles());
        }
    }

    #[test]
    fn gather_dominates_the_baseline_latency() {
        let sim = EmbeddingSimulator::new(config(MmuConfig::neummu()));
        let baseline = sim
            .simulate(&small_model(), 8, GatherStrategy::HostRelayedCopy)
            .unwrap();
        let fraction = baseline.embedding_gather_cycles as f64 / baseline.total_cycles() as f64;
        assert!(fraction > 0.3, "fraction {fraction}");
    }

    #[test]
    fn demand_paging_with_large_pages_overfetches() {
        let model = small_model();
        let small_pages = EmbeddingSimulator::new(config(MmuConfig::neummu()))
            .simulate(
                &model,
                4,
                GatherStrategy::DemandPaging {
                    link: TransferKind::NpuLink,
                },
            )
            .unwrap();
        let large_pages =
            EmbeddingSimulator::new(config(MmuConfig::neummu().with_page_size(PageSize::Size2M)))
                .simulate(
                    &model,
                    4,
                    GatherStrategy::DemandPaging {
                        link: TransferKind::NpuLink,
                    },
                )
                .unwrap();
        assert!(large_pages.interconnect_bytes > 50 * small_pages.interconnect_bytes);
        assert!(large_pages.embedding_gather_cycles > small_pages.embedding_gather_cycles);
        assert_eq!(small_pages.pages_migrated, small_pages.remote_vectors);
    }

    #[test]
    fn oracle_translation_is_no_slower_than_iommu_for_numa_gathers() {
        let model = small_model();
        let strategy = GatherStrategy::NumaDirect {
            link: TransferKind::NpuLink,
        };
        let oracle = EmbeddingSimulator::new(config(MmuConfig::oracle()))
            .simulate(&model, 64, strategy)
            .unwrap();
        let neummu = EmbeddingSimulator::new(config(MmuConfig::neummu()))
            .simulate(&model, 64, strategy)
            .unwrap();
        let iommu = EmbeddingSimulator::new(config(MmuConfig::baseline_iommu()))
            .simulate(&model, 64, strategy)
            .unwrap();
        assert!(oracle.embedding_gather_cycles <= neummu.embedding_gather_cycles);
        assert!(neummu.embedding_gather_cycles <= iommu.embedding_gather_cycles);
    }

    #[test]
    fn mmu_less_baseline_issues_no_translations() {
        let sim = EmbeddingSimulator::new(config(MmuConfig::neummu()));
        let baseline = sim
            .simulate(&small_model(), 2, GatherStrategy::HostRelayedCopy)
            .unwrap();
        assert_eq!(baseline.translation_requests, 0);
        let numa = sim
            .simulate(
                &small_model(),
                2,
                GatherStrategy::NumaDirect {
                    link: TransferKind::Pcie,
                },
            )
            .unwrap();
        assert!(numa.translation_requests > 0);
        assert_eq!(numa.translation_requests, numa.vectors_gathered);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let mut cfg = config(MmuConfig::neummu());
        cfg.num_npus = 0;
        assert!(EmbeddingSimulator::new(cfg)
            .simulate(&small_model(), 1, GatherStrategy::HostRelayedCopy)
            .is_err());
        let sim = EmbeddingSimulator::new(config(MmuConfig::neummu()));
        assert!(sim
            .simulate(&small_model(), 0, GatherStrategy::HostRelayedCopy)
            .is_err());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(GatherStrategy::HostRelayedCopy.label(), "Baseline");
        assert_eq!(
            GatherStrategy::NumaDirect {
                link: TransferKind::Pcie
            }
            .label(),
            "NUMA(slow)"
        );
        assert_eq!(
            GatherStrategy::NumaDirect {
                link: TransferKind::NpuLink
            }
            .label(),
            "NUMA(fast)"
        );
        assert!(!GatherStrategy::HostRelayedCopy.needs_mmu());
        assert!(GatherStrategy::DemandPaging {
            link: TransferKind::Pcie
        }
        .needs_mmu());
    }
}
