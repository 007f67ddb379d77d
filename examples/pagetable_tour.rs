//! A tour of the virtual-memory substrate and the NeuMMU front end.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pagetable_tour
//! ```
//!
//! The example builds a two-NPU system, maps a weight segment and a lazily
//! populated embedding segment, then walks through the mechanisms the rest of
//! the workspace relies on: full page-table walks, TLB/PRMB/TPreg behaviour
//! under a translation burst, demand-paging faults and page migration.

use neummu::mmu::{AddressTranslator, MmuConfig, TranslationEngine, TranslationSource};
use neummu::vmem::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A host plus two NPUs, each with 1 GiB of local memory.
    let mut memory = PhysicalMemory::with_npus(2, 1 << 30);
    let mut space = AddressSpace::new("tour");

    // Weights live in NPU0 memory and are mapped eagerly.
    let weights = space.alloc_segment(
        "weights",
        2 << 20,
        SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
        &mut memory,
    )?;
    // A (small) embedding shard lives on NPU1 and is mapped on first touch.
    let embeddings = space.alloc_segment(
        "embeddings",
        8 << 20,
        SegmentOptions::new(MemNode::Npu(1), PageSize::Size4K).lazy(),
        &mut memory,
    )?;

    // 1. Anatomy of a page-table walk.
    let va = weights.addr_at(0x1234);
    println!("walking {va}:");
    let walk = space.page_table().probe_with(va, |step| {
        println!(
            "  {:?} index {} -> {:?}",
            step.level, step.index, step.outcome
        );
    });
    let translation = walk.translation.expect("weights are eagerly mapped");
    println!(
        "  => {} on {} ({} memory accesses)\n",
        translation.pa,
        translation.node,
        walk.memory_accesses()
    );

    // 2. A translation burst through NeuMMU: the first transaction of a page
    //    walks, later transactions to the same page merge, and the TPreg lets
    //    subsequent walks skip the upper levels.
    let mut mmu = TranslationEngine::new(MmuConfig::neummu());
    let mut cycle = 0;
    let mut sources = Vec::new();
    for i in 0..16u64 {
        let outcome = mmu.translate(space.page_table(), weights.addr_at(i * 512), cycle);
        cycle = outcome.accept_cycle + 1;
        sources.push(outcome.source);
    }
    let walks = sources
        .iter()
        .filter(|s| matches!(s, TranslationSource::PageWalk { .. }))
        .count();
    let merged = sources
        .iter()
        .filter(|s| matches!(s, TranslationSource::Merged))
        .count();
    println!(
        "burst of 16 x 512-byte transactions: {walks} page walks, {merged} merged, {} TLB hits",
        mmu.stats().tlb_hits
    );
    println!(
        "walk memory accesses so far: {} (TPreg skipped {} level reads)\n",
        mmu.stats().walk_memory_accesses,
        mmu.stats().tpreg_skipped_levels
    );

    // 3. Demand paging: the first touch of a lazy page faults it in on its
    //    home node (NPU1)...
    let remote_va = embeddings.addr_at(5 * 4096 + 128);
    let fault = space.ensure_mapped(remote_va, &mut memory)?;
    println!("first touch of {remote_va}: faulted = {}", fault.faulted());
    println!("  resident on {}", fault.translation().node);

    // ...and the page can then be migrated into NPU0's local memory.
    space.migrate_page(remote_va, MemNode::Npu(0), &mut memory)?;
    mmu.invalidate_page(remote_va);
    let after = space.translate(remote_va)?;
    println!("  after migration: resident on {}", after.node);
    println!(
        "  NPU0 memory in use: {} KiB, NPU1 memory in use: {} KiB",
        memory.used_bytes(MemNode::Npu(0))? / 1024,
        memory.used_bytes(MemNode::Npu(1))? / 1024
    );

    println!("\npage-table stats: {:?}", space.page_table().stats());
    Ok(())
}
