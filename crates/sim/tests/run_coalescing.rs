//! Property tests of the run-coalesced burst translation path (PR 5).
//!
//! The tentpole guarantee is bit-exactness: driving a DMA transaction stream
//! through `translate_run` + `DramModel::schedule_run` must reproduce the
//! per-transaction `translate` + `schedule_transfer` sequence exactly — same
//! per-request outcomes, same cycle schedules, same engine statistics, same
//! TLB counters — for *any* tile shape, transaction grain, page-size mix,
//! TLB geometry and walker/PRMB budget. These tests throw randomized
//! configurations at both paths and require equality, and separately check
//! that [`neummu_npu::DmaEngine::page_runs`] is an exact partition of
//! [`neummu_npu::DmaEngine::transaction_iter`].

use proptest::collection;
use proptest::prelude::*;

use neummu_mem::dram::{DramConfig, DramModel};
use neummu_mmu::{AddressTranslator, MmuConfig, TranslationEngine, TranslationOutcome};
use neummu_npu::{DmaConfig, DmaEngine, TensorKind, TileFetch};
use neummu_vmem::{MemNode, PageSize, PageTable, PhysFrameNum, VirtAddr};

/// Outcome of one memory phase: everything a simulator observes.
#[derive(Debug, PartialEq)]
struct PhaseResult {
    outcomes: Vec<TranslationOutcome>,
    data_ready: Vec<u64>,
    final_issue_cycle: u64,
    stats: neummu_mmu::TranslationStats,
    tlb_lookups: u64,
    tlb_hits: u64,
    tlb_fills: u64,
    tlb_occupancy: usize,
    dram_busy_until: u64,
    dram_total_bytes: u64,
}

/// Maps every page a fetch list touches, starting from `base`.
fn mapped_table(base: u64, fetches: &[TileFetch], page_size: PageSize) -> PageTable {
    let mut pt = PageTable::new();
    let page_bytes = page_size.bytes();
    let end = fetches.iter().map(TileFetch::end).max().unwrap_or(0);
    let pages = end.div_ceil(page_bytes) + 1;
    for i in 0..pages {
        pt.map(
            VirtAddr::new(base + i * page_bytes),
            page_size,
            PhysFrameNum::new(0x10_0000 + i * (page_bytes / 4096)),
            MemNode::Npu(0),
        )
        .unwrap();
    }
    pt
}

/// The dense simulator's historical per-transaction memory phase.
fn per_transaction_phase(
    mmu: MmuConfig,
    pt: &PageTable,
    base: u64,
    dma: &DmaEngine,
    fetches: &[TileFetch],
    passes: u32,
) -> PhaseResult {
    let mut engine = TranslationEngine::new(mmu);
    let mut dram = DramModel::new(DramConfig::table1());
    let mut outcomes = Vec::new();
    let mut data_ready = Vec::new();
    let mut issue_cycle = 0u64;
    for _ in 0..passes {
        for fetch in fetches {
            for txn in dma.transaction_iter(fetch) {
                let out = engine.translate(pt, VirtAddr::new(base + txn.offset), issue_cycle);
                issue_cycle = out.accept_cycle + 1;
                data_ready.push(dram.schedule_transfer(out.complete_cycle, txn.bytes));
                outcomes.push(out);
            }
        }
    }
    PhaseResult {
        outcomes,
        data_ready,
        final_issue_cycle: issue_cycle,
        stats: *engine.stats(),
        tlb_lookups: engine.tlb().lookups(),
        tlb_hits: engine.tlb().hits(),
        tlb_fills: engine.tlb().fills(),
        tlb_occupancy: engine.tlb().occupancy(),
        dram_busy_until: dram.busy_until(),
        dram_total_bytes: dram.total_bytes(),
    }
}

/// The run-coalesced memory phase, reconstructing per-transaction results
/// from the compact `RunOutcome`s.
fn run_coalesced_phase(
    mmu: MmuConfig,
    pt: &PageTable,
    base: u64,
    dma: &DmaEngine,
    fetches: &[TileFetch],
    passes: u32,
) -> PhaseResult {
    let mut engine = TranslationEngine::new(mmu);
    let mut dram = DramModel::new(DramConfig::table1());
    let mut outcomes = Vec::new();
    let mut data_ready = Vec::new();
    let mut issue_cycle = 0u64;
    let page_bytes = mmu.page_size.bytes();
    for _ in 0..passes {
        for fetch in fetches {
            for full_run in dma.page_runs(fetch, base, page_bytes) {
                let mut run = full_run;
                loop {
                    let va = VirtAddr::new(base + run.first.offset);
                    let out = engine.translate_run(pt, va, run.txn_count, issue_cycle);
                    issue_cycle = out.last_accept() + 1;
                    for j in 0..out.consumed {
                        outcomes.push(out.outcome(j));
                    }
                    let scheduled = run.prefix(out.consumed);
                    let last_ready = dram.schedule_run(
                        out.first.complete_cycle,
                        out.complete_stride,
                        scheduled.txn_count,
                        scheduled.first.bytes,
                        scheduled.interior_txn_bytes(),
                        scheduled.txn_len(scheduled.txn_count - 1),
                    );
                    // `schedule_run` returns the run's last arrival; all
                    // arrivals a simulator folds into a max are bounded by
                    // it, so recording it per consumed chunk reproduces the
                    // observable schedule.
                    data_ready.push(last_ready);
                    if out.consumed == run.txn_count {
                        break;
                    }
                    run = run.suffix(out.consumed);
                }
            }
        }
    }
    PhaseResult {
        outcomes,
        data_ready,
        final_issue_cycle: issue_cycle,
        stats: *engine.stats(),
        tlb_lookups: engine.tlb().lookups(),
        tlb_hits: engine.tlb().hits(),
        tlb_fills: engine.tlb().fills(),
        tlb_occupancy: engine.tlb().occupancy(),
        dram_busy_until: dram.busy_until(),
        dram_total_bytes: dram.total_bytes(),
    }
}

/// Runs both memory phases and requires them to agree on every outcome,
/// cycle, statistic and TLB counter.
fn assert_phases_agree(
    mmu: MmuConfig,
    pt: &PageTable,
    base: u64,
    dma: &DmaEngine,
    fetches: &[TileFetch],
    passes: u32,
) {
    let reference = per_transaction_phase(mmu, pt, base, dma, fetches, passes);
    let coalesced = run_coalesced_phase(mmu, pt, base, dma, fetches, passes);
    assert_eq!(&reference.outcomes, &coalesced.outcomes);
    assert_eq!(reference.final_issue_cycle, coalesced.final_issue_cycle);
    assert_eq!(&reference.stats, &coalesced.stats);
    assert_eq!(reference.tlb_lookups, coalesced.tlb_lookups);
    assert_eq!(reference.tlb_hits, coalesced.tlb_hits);
    assert_eq!(reference.tlb_fills, coalesced.tlb_fills);
    assert_eq!(reference.tlb_occupancy, coalesced.tlb_occupancy);
    assert_eq!(reference.dram_busy_until, coalesced.dram_busy_until);
    assert_eq!(reference.dram_total_bytes, coalesced.dram_total_bytes);
    // Per-chunk last-arrivals are a subsequence of the per-transaction
    // arrivals, and both schedules end at the same final arrival.
    assert_eq!(reference.data_ready.last(), coalesced.data_ready.last());
    let mut remaining = reference.data_ready.iter();
    for arrival in &coalesced.data_ready {
        assert!(
            remaining.any(|r| r == arrival),
            "chunk arrival {} missing from the per-transaction schedule",
            arrival
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: for random tile shapes, transaction grains
    /// (including page-straddling ones), page-size mixes and TLB/walker/PRMB
    /// geometries, the run-coalesced path agrees with the per-transaction
    /// path on every outcome, every cycle, every statistic.
    #[test]
    fn run_path_agrees_with_per_transaction_path(
        shapes in collection::vec((0u64..16384, 1u64..200_000), 1..4),
        txn_choice in 0usize..4,
        large_pages in any::<bool>(),
        tlb_choice in 0usize..3,
        ways_choice in 0usize..3,
        ptw_choice in 0usize..3,
        prmb_choice in 0usize..3,
        tpreg in any::<bool>(),
        passes in 1u32..3,
    ) {
        let txn_bytes = [64u64, 512, 777, 4096][txn_choice];
        let page_size = if large_pages { PageSize::Size2M } else { PageSize::Size4K };
        let mut mmu = MmuConfig::baseline_iommu()
            .with_tlb_entries([4usize, 64, 2048][tlb_choice])
            .with_ptws([1usize, 8, 128][ptw_choice])
            .with_prmb_slots([0usize, 1, 32][prmb_choice])
            .with_tpreg(tpreg)
            .with_page_size(page_size);
        mmu.tlb_ways = [1usize, 2, 8][ways_choice];
        let fetches: Vec<TileFetch> = shapes
            .iter()
            .map(|&(offset, bytes)| TileFetch { kind: TensorKind::Weight, offset, bytes })
            .collect();
        let base = 0x10_0000_0000u64;
        let pt = mapped_table(base, &fetches, page_size);
        let dma = DmaEngine::new(DmaConfig { max_transaction_bytes: txn_bytes, translations_per_cycle: 1 });
        assert_phases_agree(mmu, &pt, base, &dma, &fetches, passes);
    }

    /// The walk-window shape: the baseline IOMMU (merging disabled, no
    /// TPreg) with 16 to 1024 walkers over many pages, each page a run of
    /// two or more transactions. A walk takes 100 cycles per level, longer
    /// than any run, so from the pool's first saturation on, the walks due
    /// on the next cycles are those of an earlier page: every replayed run
    /// goes through the walker pool's retire/admit window.
    #[test]
    fn run_path_agrees_with_per_transaction_path_in_walk_windows(
        shapes in collection::vec((0u64..16384, 16_384u64..400_000), 1..4),
        txn_choice in 0usize..3,
        tlb_choice in 0usize..3,
        ptw_choice in 0usize..4,
        passes in 1u32..3,
    ) {
        let mmu = MmuConfig::baseline_iommu()
            .with_tlb_entries([8usize, 64, 2048][tlb_choice])
            .with_ptws([16usize, 64, 256, 1024][ptw_choice]);
        let fetches: Vec<TileFetch> = shapes
            .iter()
            .map(|&(offset, bytes)| TileFetch { kind: TensorKind::Weight, offset, bytes })
            .collect();
        let base = 0x10_0000_0000u64;
        let pt = mapped_table(base, &fetches, PageSize::Size4K);
        let txn_bytes = [64u64, 512, 2048][txn_choice];
        let dma = DmaEngine::new(DmaConfig { max_transaction_bytes: txn_bytes, translations_per_cycle: 1 });
        assert_phases_agree(mmu, &pt, base, &dma, &fetches, passes);
    }

    /// `page_runs` is an exact partition of `transaction_iter`: rebuilding
    /// every transaction of every run reproduces the stream, runs are
    /// maximal (consecutive runs never share a page), and every transaction
    /// of a run starts on the run's page.
    #[test]
    fn page_runs_exactly_partition_the_transaction_stream(
        shapes in collection::vec((0u64..16384, 1u64..200_000), 1..4),
        txn_choice in 0usize..4,
        large_pages in any::<bool>(),
        base_choice in 0usize..3,
    ) {
        let txn_bytes = [64u64, 512, 777, 4096][txn_choice];
        let page_bytes = if large_pages { 2u64 << 20 } else { 4096 };
        let base = [0u64, 0x10_0000_0000, 0x7fff_f000][base_choice];
        let dma = DmaEngine::new(DmaConfig { max_transaction_bytes: txn_bytes, translations_per_cycle: 1 });
        for &(offset, bytes) in &shapes {
            let fetch = TileFetch { kind: TensorKind::InputActivation, offset, bytes };
            let reference: Vec<_> = dma.transaction_iter(&fetch).collect();
            let mut rebuilt = Vec::new();
            let mut previous_page = None;
            for run in dma.page_runs(&fetch, base, page_bytes) {
                prop_assert!(run.txn_count >= 1);
                prop_assert_ne!(previous_page, Some(run.page), "runs must be maximal");
                prop_assert_eq!(run.bytes, (0..run.txn_count).map(|i| run.txn_len(i)).sum::<u64>());
                for i in 0..run.txn_count {
                    let txn = run.txn(i);
                    prop_assert_eq!((base + txn.offset) / page_bytes, run.page);
                    rebuilt.push(txn);
                }
                previous_page = Some(run.page);
            }
            prop_assert_eq!(&rebuilt, &reference);
        }
    }
}
