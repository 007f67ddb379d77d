//! Integration tests asserting the qualitative claims of the paper — the
//! "shapes" the reproduction must preserve even though absolute numbers come
//! from a different substrate.
//!
//! Each test names the paper section/figure whose claim it checks. The tests
//! run on a reduced workload set so they stay fast in debug builds; the full
//! figure regeneration lives in the `neummu-experiments` binary.

use neummu::mem::interconnect::TransferKind;
use neummu::mmu::MmuConfig;
use neummu::npu::{DmaEngine, Layer, NpuConfig, TilingPlan};
use neummu::sim::dense::{DenseSimConfig, DenseSimulator, WorkloadResult};
use neummu::sim::embedding::{
    EmbeddingPhaseBreakdown, EmbeddingSimConfig, EmbeddingSimulator, GatherStrategy,
};
use neummu::vmem::PageSize;
use neummu::workloads::EmbeddingModel;

/// A memory-bound recurrent cell: the workload class the paper's Figure 8
/// shows suffering the most from translation overhead.
fn lstm_probe() -> Layer {
    Layer::lstm_cell("claims_lstm", 1, 1024, 1024, 1)
}

/// A compute-heavier convolution.
fn conv_probe() -> Layer {
    Layer::conv2d("claims_conv", 2, 128, 28, 28, 128, 3, 3, 1, 1)
}

fn simulate(layer: &Layer, mmu: MmuConfig) -> WorkloadResult {
    DenseSimulator::new(DenseSimConfig::with_mmu(mmu))
        .simulate_layer(layer)
        .unwrap()
}

/// Section III-C / Figure 6: a tile that fills the scratchpad touches on the
/// order of a thousand distinct 4 KB pages, and decomposes into several times
/// more memory transactions than pages.
#[test]
fn claim_tile_fetches_cause_kilo_page_translation_bursts() {
    let npu = NpuConfig::tpu_like();
    let dma = DmaEngine::new(npu.dma);
    let plan = TilingPlan::for_layer(&Layer::lstm_cell("big", 1, 2048, 2048, 1), &npu).unwrap();
    let biggest = plan
        .tiles()
        .iter()
        .filter_map(|t| t.w_fetch)
        .max_by_key(|f| f.bytes)
        .expect("the LSTM has weight fetches");
    let demand = dma.translation_demand(&biggest);
    assert!(
        demand.distinct_pages_4k > 1000,
        "pages per tile: {}",
        demand.distinct_pages_4k
    );
    assert!(
        demand.transactions >= 4 * demand.distinct_pages_4k,
        "transactions {} vs pages {}",
        demand.transactions,
        demand.distinct_pages_4k
    );
}

/// Figure 8 / Section IV-D: the baseline IOMMU loses a large fraction of
/// performance for dense workloads while NeuMMU stays within a few percent of
/// the oracular MMU.
#[test]
fn claim_baseline_iommu_is_slow_and_neummu_closes_the_gap() {
    for layer in [lstm_probe(), conv_probe()] {
        let oracle = simulate(&layer, MmuConfig::oracle());
        let iommu = simulate(&layer, MmuConfig::baseline_iommu());
        let neummu = simulate(&layer, MmuConfig::neummu());
        let iommu_norm = iommu.normalized_to(&oracle);
        let neummu_norm = neummu.normalized_to(&oracle);
        assert!(
            iommu_norm < 0.6,
            "{}: IOMMU normalized perf {iommu_norm}",
            layer.name()
        );
        assert!(
            neummu_norm > 0.95,
            "{}: NeuMMU normalized perf {neummu_norm}",
            layer.name()
        );
    }
}

/// Section III-C: enlarging the TLB alone does not fix the problem — the
/// bursts outrun the walkers regardless of TLB reach.
#[test]
fn claim_bigger_tlbs_alone_do_not_help() {
    let layer = lstm_probe();
    let oracle = simulate(&layer, MmuConfig::oracle());
    let small_tlb = simulate(&layer, MmuConfig::baseline_iommu());
    let huge_tlb = simulate(
        &layer,
        MmuConfig::baseline_iommu().with_tlb_entries(128 * 1024),
    );
    let small_norm = small_tlb.normalized_to(&oracle);
    let huge_norm = huge_tlb.normalized_to(&oracle);
    assert!(
        huge_norm < small_norm + 0.05,
        "128K-entry TLB should barely help: {small_norm} -> {huge_norm}"
    );
    assert!(huge_norm < 0.6);
}

/// Figure 10 + Figure 11: PRMB merging helps, and adding walkers on top of the
/// PRMB closes the remaining gap.
#[test]
fn claim_prmb_then_ptws_progressively_recover_performance() {
    let layer = lstm_probe();
    let oracle = simulate(&layer, MmuConfig::oracle());
    let baseline = simulate(&layer, MmuConfig::baseline_iommu()).normalized_to(&oracle);
    let with_prmb =
        simulate(&layer, MmuConfig::baseline_iommu().with_prmb_slots(32)).normalized_to(&oracle);
    let with_prmb_and_ptws = simulate(
        &layer,
        MmuConfig::baseline_iommu()
            .with_prmb_slots(32)
            .with_ptws(128),
    )
    .normalized_to(&oracle);
    assert!(
        with_prmb > baseline,
        "PRMB should help: {baseline} -> {with_prmb}"
    );
    assert!(
        with_prmb_and_ptws > with_prmb,
        "extra walkers should help further: {with_prmb} -> {with_prmb_and_ptws}"
    );
    assert!(with_prmb_and_ptws > 0.95);
}

/// Figure 12: a sea of walkers without the PRMB can match NeuMMU's
/// performance but spends several times more page-walk memory accesses
/// (energy).
#[test]
fn claim_many_ptws_without_prmb_waste_energy() {
    let layer = lstm_probe();
    let oracle = simulate(&layer, MmuConfig::oracle());
    let neummu = simulate(&layer, MmuConfig::neummu());
    let brute_force = simulate(&layer, MmuConfig::baseline_iommu().with_ptws(1024));
    assert!(brute_force.normalized_to(&oracle) > 0.9);
    assert!(neummu.normalized_to(&oracle) > 0.9);
    assert!(
        brute_force.translation.walk_memory_accesses > 4 * neummu.translation.walk_memory_accesses,
        "redundant walks should cost several times more memory accesses: {} vs {}",
        brute_force.translation.walk_memory_accesses,
        neummu.translation.walk_memory_accesses
    );
    assert!(brute_force.translation_energy_nj > 4.0 * neummu.translation_energy_nj);
}

/// Figure 13 / Section IV-C: the TPreg hits nearly always at the L4/L3
/// indices and less often at L2.
#[test]
fn claim_tpreg_hit_rates_follow_the_l4_l3_l2_shape() {
    let result = simulate(&lstm_probe(), MmuConfig::neummu());
    let stats = result.translation;
    assert!(
        stats.tpreg_l4_rate() > 0.95,
        "L4 rate {}",
        stats.tpreg_l4_rate()
    );
    assert!(stats.tpreg_l3_rate() > 0.95);
    assert!(stats.tpreg_l2_rate() <= stats.tpreg_l3_rate());
    assert!(stats.tpreg_skipped_levels > 0);
}

/// Section VI-A: 2 MB pages largely fix the baseline IOMMU for dense,
/// regular workloads.
#[test]
fn claim_large_pages_help_dense_workloads() {
    let layer = lstm_probe();
    let oracle_2m = simulate(&layer, MmuConfig::oracle().with_page_size(PageSize::Size2M));
    let iommu_2m = simulate(
        &layer,
        MmuConfig::baseline_iommu().with_page_size(PageSize::Size2M),
    );
    let oracle_4k = simulate(&layer, MmuConfig::oracle());
    let iommu_4k = simulate(&layer, MmuConfig::baseline_iommu());
    let norm_2m = iommu_2m.normalized_to(&oracle_2m);
    let norm_4k = iommu_4k.normalized_to(&oracle_4k);
    assert!(
        norm_2m > norm_4k + 0.2,
        "2MB pages should help a lot: {norm_4k} -> {norm_2m}"
    );
    assert!(norm_2m > 0.8);
}

/// Section V / Figure 15: CPU-relayed copies are far slower than NUMA loads,
/// and the fast NPU-to-NPU link beats PCIe.
#[test]
fn claim_numa_gathers_beat_cpu_relayed_copies() {
    let model = EmbeddingModel::dlrm();
    let sim = EmbeddingSimulator::new(EmbeddingSimConfig::with_mmu(MmuConfig::neummu()));
    let baseline = sim
        .simulate(&model, 8, GatherStrategy::HostRelayedCopy)
        .unwrap();
    let slow = sim
        .simulate(
            &model,
            8,
            GatherStrategy::NumaDirect {
                link: TransferKind::Pcie,
            },
        )
        .unwrap();
    let fast = sim
        .simulate(
            &model,
            8,
            GatherStrategy::NumaDirect {
                link: TransferKind::NpuLink,
            },
        )
        .unwrap();
    assert!(baseline.total_cycles() > slow.total_cycles());
    assert!(slow.total_cycles() >= fast.total_cycles());
    // The gather phase dominates the MMU-less baseline.
    let gather_fraction = |step: &EmbeddingPhaseBreakdown| {
        step.embedding_gather_cycles as f64 / step.total_cycles() as f64
    };
    assert!(gather_fraction(&baseline) > gather_fraction(&fast));
}

/// Section VI-A / Figure 16: for sparse embedding gathers, demand paging with
/// 2 MB pages moves orders of magnitude more data than 4 KB pages and loses
/// the performance that 4 KB demand paging retains.
#[test]
fn claim_large_page_demand_paging_overfetches_sparse_embeddings() {
    let model = EmbeddingModel::ncf();
    let strategy = GatherStrategy::DemandPaging {
        link: TransferKind::NpuLink,
    };
    let small = EmbeddingSimulator::new(EmbeddingSimConfig::with_mmu(MmuConfig::neummu()))
        .simulate(&model, 4, strategy)
        .unwrap();
    let large = EmbeddingSimulator::new(EmbeddingSimConfig::with_mmu(
        MmuConfig::neummu().with_page_size(PageSize::Size2M),
    ))
    .simulate(&model, 4, strategy)
    .unwrap();
    assert!(large.interconnect_bytes > 100 * small.interconnect_bytes);
    assert!(large.embedding_gather_cycles > 5 * small.embedding_gather_cycles);
}
