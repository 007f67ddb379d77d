//! The merging-disabled walk replay with the trace tap enabled.
//!
//! This test installs the process-wide trace sink, so it lives in a test
//! binary of its own: no other engine of the process may emit into it.
//!
//! A traced run takes the same replay path as an untraced one, walker-pool
//! windows included; the tap records a window's retirements in one call.
//! Walks retire in the same order whether the requests arrive one
//! `translate` at a time or as `translate_run`s, so the `engine/walk_retire`
//! bins of the two paths must be identical: same event count, same spans,
//! same payloads. Any difference between a window's record and the single
//! records it stands for shows up here.

use neummu_mmu::{AddressTranslator, MmuConfig, TranslationEngine, TranslationOutcome};
use neummu_trace::{KindAggregate, TraceSink};
use neummu_vmem::{MemNode, PageSize, PageTable, PhysFrameNum, VirtAddr};

const BASE: u64 = 0x20_0000_0000;
const PAGES: u64 = 700;
const TXNS_PER_PAGE: u64 = 8;
const TXN_BYTES: u64 = 512;

fn mapped_table() -> PageTable {
    let mut pt = PageTable::new();
    for page in 0..PAGES {
        pt.map(
            VirtAddr::new(BASE + page * 4096),
            PageSize::Size4K,
            PhysFrameNum::new(0x30_0000 + page),
            MemNode::Npu(0),
        )
        .unwrap();
    }
    pt
}

/// The `engine/walk_retire` aggregate of everything emitted so far.
fn retire_aggregate() -> KindAggregate {
    let sink = neummu_trace::global().expect("the sink is installed");
    sink.aggregates()
        .into_iter()
        .find(|(label, _)| label == "engine/walk_retire")
        .map(|(_, aggregate)| aggregate)
        .unwrap_or_default()
}

/// One `translate` per request, two passes over the pages.
fn per_request(config: MmuConfig, pt: &PageTable) -> (Vec<TranslationOutcome>, TranslationEngine) {
    let mut engine = TranslationEngine::new(config);
    let mut outcomes = Vec::new();
    let mut cycle = 0;
    for _ in 0..2 {
        for page in 0..PAGES {
            for i in 0..TXNS_PER_PAGE {
                let va = VirtAddr::new(BASE + page * 4096 + i * TXN_BYTES);
                let out = engine.translate(pt, va, cycle);
                cycle = out.accept_cycle + 1;
                outcomes.push(out);
            }
        }
    }
    (outcomes, engine)
}

/// The same requests as `translate_run`s, one page run at a time.
fn run_path(config: MmuConfig, pt: &PageTable) -> (Vec<TranslationOutcome>, TranslationEngine) {
    let mut engine = TranslationEngine::new(config);
    let mut outcomes = Vec::new();
    let mut cycle = 0;
    for _ in 0..2 {
        for page in 0..PAGES {
            let mut done = 0;
            while done < TXNS_PER_PAGE {
                let va = VirtAddr::new(BASE + page * 4096 + done * TXN_BYTES);
                let out = engine.translate_run(pt, va, TXNS_PER_PAGE - done, cycle);
                outcomes.extend((0..out.consumed).map(|j| out.outcome(j)));
                cycle = out.last_accept() + 1;
                done += out.consumed;
            }
        }
    }
    (outcomes, engine)
}

#[test]
fn traced_walk_windows_emit_the_retirements_of_the_per_request_path() {
    assert!(
        neummu_trace::install(TraceSink::in_memory()).is_some(),
        "this test binary installs the only sink"
    );
    let pt = mapped_table();
    for walkers in [16, 1024] {
        let config = MmuConfig::baseline_iommu().with_ptws(walkers);
        let before = retire_aggregate();
        let (expected, reference) = per_request(config, &pt);
        let reference_stats = *reference.stats();
        // Dropping the engine emits its pending bins.
        drop(reference);
        let after_reference = retire_aggregate();
        let (produced, coalesced) = run_path(config, &pt);
        assert_eq!(produced, expected, "{walkers} walkers");
        assert_eq!(*coalesced.stats(), reference_stats, "{walkers} walkers");
        drop(coalesced);
        let after_run = retire_aggregate();

        let reference_events = after_reference.events - before.events;
        assert!(reference_events > 0, "the walks retired into the trace");
        assert_eq!(after_run.events - after_reference.events, reference_events);
        assert_eq!(
            after_run.span_total - after_reference.span_total,
            after_reference.span_total - before.span_total
        );
        assert_eq!(
            after_run.payload_total - after_reference.payload_total,
            after_reference.payload_total - before.payload_total
        );
        assert_eq!(
            after_reference.payload_total - before.payload_total,
            reference_stats.walks,
            "every walk retires once, weight 1"
        );
    }
}
