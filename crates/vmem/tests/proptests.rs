//! Property-based tests for the virtual-memory substrate.

use proptest::prelude::*;

use neummu_vmem::prelude::*;

/// Strategy producing canonical virtual addresses.
fn canonical_va() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 48)
}

proptest! {
    /// Splitting an address into page base + offset and recombining is lossless.
    #[test]
    fn page_decomposition_roundtrip(raw in canonical_va()) {
        let va = VirtAddr::new(raw);
        for size in [PageSize::Size4K, PageSize::Size2M] {
            let base = va.page_base(size);
            let offset = va.page_offset(size);
            prop_assert_eq!(base.raw() + offset, raw);
            prop_assert!(offset < size.bytes());
            prop_assert!(base.is_aligned(size));
        }
    }

    /// The four 9-bit level indices plus the 12-bit offset reconstruct the address.
    #[test]
    fn level_indices_reconstruct_address(raw in canonical_va()) {
        let va = VirtAddr::new(raw);
        let l4 = u64::from(va.level_index(WalkIndexLevel::L4));
        let l3 = u64::from(va.level_index(WalkIndexLevel::L3));
        let l2 = u64::from(va.level_index(WalkIndexLevel::L2));
        let l1 = u64::from(va.level_index(WalkIndexLevel::L1));
        let offset = va.page_offset(PageSize::Size4K);
        let rebuilt = (l4 << 39) | (l3 << 30) | (l2 << 21) | (l1 << 12) | offset;
        prop_assert_eq!(rebuilt, raw);
    }

    /// Addresses sharing a 2 MB page always share their PathTag.
    #[test]
    fn path_tag_constant_within_2mb_page(base in canonical_va(), off_a in 0u64..(2<<20), off_b in 0u64..(2<<20)) {
        let page = VirtAddr::new(base).page_base(PageSize::Size2M);
        // Stay within the canonical range.
        prop_assume!(page.raw() + (2 << 20) <= (1u64 << 48));
        let a = page.add(off_a);
        let b = page.add(off_b);
        prop_assert_eq!(PathTag::of(a), PathTag::of(b));
    }

    /// Mapping then translating a set of distinct pages returns the frames
    /// they were mapped to, and every walk visits exactly 4 levels.
    #[test]
    fn page_table_map_translate_roundtrip(pages in prop::collection::hash_set(0u64..(1u64 << 24), 1..50)) {
        let mut pt = PageTable::new();
        let pages: Vec<u64> = pages.into_iter().collect();
        for (i, vpn) in pages.iter().enumerate() {
            pt.map(
                VirtPageNum::new(*vpn).base_addr(),
                PageSize::Size4K,
                PhysFrameNum::new(1_000_000 + i as u64),
                MemNode::Npu(0),
            )
            .unwrap();
        }
        for (i, vpn) in pages.iter().enumerate() {
            let va = VirtPageNum::new(*vpn).base_addr().add(123);
            let walk = pt.walk(va);
            prop_assert!(walk.is_hit());
            prop_assert_eq!(walk.memory_accesses(), 4);
            let t = walk.translation.unwrap();
            prop_assert_eq!(t.pfn.raw(), 1_000_000 + i as u64);
        }
        prop_assert_eq!(pt.stats().leaf_4k, pages.len() as u64);
    }

    /// The allocation-free `probe` agrees with the trace-recording `walk` —
    /// hit flag, levels touched, translation and final entry access — on
    /// randomly generated mixes of 4 KB and 2 MB mappings, probed both at
    /// mapped and (likely) unmapped addresses. `walk_from_cached_path`, which
    /// is implemented on the probe, must agree with the probe's L1-only
    /// access count.
    #[test]
    fn probe_agrees_with_walk_on_random_mapping_mixes(
        small_pages in prop::collection::hash_set(0u64..(1u64 << 22), 1..40),
        huge_pages in prop::collection::hash_set(0u64..(1u64 << 13), 1..8),
        probes in prop::collection::vec((0u64..(1u64 << 34), 0u64..4096u64), 1..40),
    ) {
        let mut pt = PageTable::new();
        // 2 MB mappings first (each covers 512 small-page slots)...
        for (i, hp) in huge_pages.iter().enumerate() {
            let va = VirtAddr::new(hp << 21);
            let _ = pt.map(va, PageSize::Size2M, PhysFrameNum::new(2_000_000 + (i as u64) * 512), MemNode::Host);
        }
        // ...then 4 KB mappings wherever no large page already covers them.
        for (i, vpn) in small_pages.iter().enumerate() {
            let va = VirtPageNum::new(*vpn).base_addr();
            let _ = pt.map(va, PageSize::Size4K, PhysFrameNum::new(1_000_000 + i as u64), MemNode::Npu(0));
        }
        // Probe every mapped page plus arbitrary addresses (mostly misses).
        let mapped_vas = small_pages.iter().map(|vpn| (vpn << 12) + 777)
            .chain(huge_pages.iter().map(|hp| (hp << 21) + 123_456));
        let arbitrary_vas = probes.iter().map(|(base, off)| base + off);
        for raw in mapped_vas.chain(arbitrary_vas) {
            let va = VirtAddr::new(raw);
            let probe = pt.probe(va);
            let walk = pt.walk(va);
            prop_assert_eq!(probe.is_hit(), walk.is_hit());
            prop_assert_eq!(probe.memory_accesses(), walk.memory_accesses());
            prop_assert_eq!(probe.translation, walk.translation);
            prop_assert_eq!(Some(&probe.last_step), walk.steps.last());
            let partial = pt.walk_from_cached_path(va);
            prop_assert_eq!(probe.cached_path_accesses(), partial.memory_accesses());
            prop_assert_eq!(probe.translation, partial.translation);
        }
    }

    /// Frame allocation never hands out the same frame twice while it is live,
    /// and freed frames can be reused.
    #[test]
    fn frame_allocator_uniqueness(count in 1usize..200) {
        let mut mem = PhysicalMemory::new(&[NodeSpec::new(MemNode::Npu(0), 1 << 20)]);
        let budget = (1usize << 20) / 4096;
        let n = count.min(budget);
        let mut seen = std::collections::HashSet::new();
        let mut frames = Vec::new();
        for _ in 0..n {
            let f = mem.alloc_frame(MemNode::Npu(0)).unwrap();
            prop_assert!(seen.insert(f.raw()));
            frames.push(f);
        }
        for f in &frames {
            mem.free_frame(*f).unwrap();
        }
        prop_assert_eq!(mem.used_bytes(MemNode::Npu(0)).unwrap(), 0);
        // All freed frames are reusable.
        for _ in 0..n {
            mem.alloc_frame(MemNode::Npu(0)).unwrap();
        }
    }

    /// `pages_in_range` covers exactly the bytes in the range.
    #[test]
    fn pages_in_range_covers_range(start in 0u64..(1u64 << 40), len in 1u64..(1u64 << 20)) {
        let pages = AddressSpace::pages_in_range(VirtAddr::new(start), len);
        let expected = (start + len - 1) / 4096 - start / 4096 + 1;
        prop_assert_eq!(pages.len() as u64, expected);
        // Pages are consecutive and sorted.
        for w in pages.windows(2) {
            prop_assert_eq!(w[1].raw(), w[0].raw() + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Demand paging maps exactly the touched pages of a lazy segment, and
    /// repeated touches never fault twice.
    #[test]
    fn lazy_segment_faults_once_per_page(offsets in prop::collection::vec(0u64..(1u64 << 20), 1..64)) {
        let mut mem = PhysicalMemory::with_npus(1, 1 << 30);
        let mut space = AddressSpace::new("npu0");
        let seg = space
            .alloc_segment(
                "emb",
                1 << 20,
                SegmentOptions::new(MemNode::Host, PageSize::Size4K).lazy(),
                &mut mem,
            )
            .unwrap();
        let mut distinct_pages = std::collections::HashSet::new();
        let mut faults = 0u64;
        for off in &offsets {
            let va = seg.addr_at(*off);
            let outcome = space.ensure_mapped(va, &mut mem).unwrap();
            if outcome.faulted() {
                faults += 1;
            }
            distinct_pages.insert(va.vpn());
        }
        prop_assert_eq!(faults, distinct_pages.len() as u64);
        prop_assert_eq!(space.stats().faults, faults);
        prop_assert_eq!(
            mem.used_bytes(MemNode::Host).unwrap(),
            distinct_pages.len() as u64 * 4096
        );
    }

    /// Migration preserves the page offset of every translated address and
    /// moves occupancy from the source to the destination node.
    #[test]
    fn migration_preserves_offsets(page_index in 0u64..256, probe_offset in 0u64..4096u64) {
        let mut mem = PhysicalMemory::with_npus(2, 1 << 30);
        let mut space = AddressSpace::new("sys");
        let seg = space
            .alloc_segment(
                "table",
                256 * 4096,
                SegmentOptions::new(MemNode::Npu(1), PageSize::Size4K),
                &mut mem,
            )
            .unwrap();
        let va = seg.addr_at(page_index * 4096 + probe_offset);
        let before = space.translate(va).unwrap();
        space.migrate_page(va, MemNode::Npu(0), &mut mem).unwrap();
        let after = space.translate(va).unwrap();
        prop_assert_eq!(before.pa.frame_offset(), after.pa.frame_offset());
        prop_assert_eq!(after.node, MemNode::Npu(0));
    }
}

/// Frames per 1 TiB node window: the node declared at index `i` owns window
/// `i + 1`, so its frame ids start at `(i + 1) * WINDOW_FRAMES`.
const WINDOW_FRAMES: u64 = 1 << 28;

/// One node of the per-frame reference allocator.
struct RefNode {
    node: MemNode,
    capacity: u64,
    bump: u64,
    /// Freed frames, one entry per 4 KB frame, reused last-in first-out.
    free: Vec<u64>,
    allocated: u64,
    peak: u64,
}

/// The allocator as it was before free frames were kept as runs: a bump
/// pointer plus a per-frame LIFO free stack per node. [`PhysicalMemory`] must
/// reproduce it exactly.
struct RefMemory {
    nodes: Vec<RefNode>,
}

impl RefMemory {
    fn new(specs: &[NodeSpec]) -> Self {
        let nodes = specs
            .iter()
            .map(|s| RefNode {
                node: s.node,
                capacity: s.capacity_bytes / 4096,
                bump: 0,
                free: Vec::new(),
                allocated: 0,
                peak: 0,
            })
            .collect();
        RefMemory { nodes }
    }

    fn index(&self, node: MemNode) -> Result<usize, VmemError> {
        self.nodes
            .iter()
            .position(|n| n.node == node)
            .ok_or(VmemError::UnknownNode { node })
    }

    fn alloc(&mut self, node: MemNode, count: u64) -> Result<PhysFrameNum, VmemError> {
        let i = self.index(node)?;
        let n = &mut self.nodes[i];
        let oom = VmemError::OutOfMemory {
            node,
            frames_requested: count,
        };
        let frame = if count == 1 {
            match n.free.pop() {
                Some(f) => f,
                None if n.bump < n.capacity => {
                    n.bump += 1;
                    n.bump - 1
                }
                None => return Err(oom),
            }
        } else if n.bump + count <= n.capacity {
            n.bump += count;
            n.bump - count
        } else {
            return Err(oom);
        };
        n.allocated += count;
        n.peak = n.peak.max(n.allocated);
        Ok(PhysFrameNum::new((i as u64 + 1) * WINDOW_FRAMES + frame))
    }

    fn free(&mut self, first: PhysFrameNum, count: u64) -> Result<(), VmemError> {
        for f in first.raw()..first.raw() + count {
            let i = (f / WINDOW_FRAMES)
                .checked_sub(1)
                .filter(|&i| i < self.nodes.len() as u64)
                .ok_or(VmemError::UnknownNode {
                    node: MemNode::Host,
                })? as usize;
            let n = &mut self.nodes[i];
            n.free.push(f - (i as u64 + 1) * WINDOW_FRAMES);
            n.allocated = n.allocated.saturating_sub(1);
        }
        Ok(())
    }

    fn used_bytes(&self, node: MemNode) -> Result<u64, VmemError> {
        Ok(self.nodes[self.index(node)?].allocated * 4096)
    }

    fn peak_bytes(&self, node: MemNode) -> Result<u64, VmemError> {
        Ok(self.nodes[self.index(node)?].peak * 4096)
    }

    fn free_bytes(&self, node: MemNode) -> Result<u64, VmemError> {
        let n = &self.nodes[self.index(node)?];
        Ok((n.capacity - n.bump + n.free.len() as u64) * 4096)
    }
}

proptest! {
    /// The run-based allocator hands out exactly the frames, reports exactly
    /// the occupancy and fails with exactly the errors of the per-frame
    /// reference, over random interleavings of 4 KB and 2 MB allocations and
    /// frees across several nodes (plus an unconfigured node and frames
    /// outside every window). After every step, `used + free == capacity`
    /// on each node: allocated frames plus free-list frames equal the bump
    /// pointer.
    #[test]
    fn run_free_list_matches_per_frame_reference(
        ops in prop::collection::vec((0u32..6, 0usize..4, 0usize..1 << 16), 1..160),
    ) {
        let specs = [
            NodeSpec::new(MemNode::Host, (4 << 20) + 3 * 4096),
            NodeSpec::new(MemNode::Npu(0), (2 << 20) + 4096),
            NodeSpec::new(MemNode::Npu(1), 16 * 4096),
        ];
        let all_nodes = [MemNode::Host, MemNode::Npu(0), MemNode::Npu(1), MemNode::Npu(9)];
        let mut mem = PhysicalMemory::new(&specs);
        let mut reference = RefMemory::new(&specs);
        // Live pages as (first frame, page size), freed at most once.
        let mut live: Vec<(PhysFrameNum, PageSize)> = Vec::new();
        for &(kind, node_pick, pick) in &ops {
            let node = all_nodes[node_pick];
            match kind {
                0..=2 => {
                    let (got, want) = match kind {
                        0 => (mem.alloc_frame(node), reference.alloc(node, 1)),
                        1 => (mem.alloc_page(node, PageSize::Size4K), reference.alloc(node, 1)),
                        _ => (mem.alloc_page(node, PageSize::Size2M), reference.alloc(node, 512)),
                    };
                    prop_assert_eq!(&got, &want);
                    if let Ok(frame) = got {
                        let size = if kind == 2 { PageSize::Size2M } else { PageSize::Size4K };
                        live.push((frame, size));
                    }
                }
                3 | 4 if !live.is_empty() => {
                    let (first, size) = live.swap_remove(pick % live.len());
                    let frames = size.bytes() / 4096;
                    let got = if kind == 3 && size == PageSize::Size4K {
                        mem.free_frame(first)
                    } else {
                        mem.free_page(first, size)
                    };
                    prop_assert_eq!(got, reference.free(first, frames));
                }
                _ => {
                    // A frame in the unassigned window 0 or past the last
                    // node's window: rejected, nothing freed.
                    let bogus = if pick % 2 == 0 { pick as u64 } else { 4 * WINDOW_FRAMES + pick as u64 };
                    prop_assert_eq!(
                        mem.free_page(PhysFrameNum::new(bogus), PageSize::Size2M),
                        reference.free(PhysFrameNum::new(bogus), 512)
                    );
                    prop_assert_eq!(
                        mem.free_frame(PhysFrameNum::new(bogus)),
                        reference.free(PhysFrameNum::new(bogus), 1)
                    );
                }
            }
            for node in all_nodes {
                prop_assert_eq!(mem.used_bytes(node), reference.used_bytes(node));
                prop_assert_eq!(mem.free_bytes(node), reference.free_bytes(node));
                prop_assert_eq!(mem.peak_bytes(node), reference.peak_bytes(node));
                if let Ok(capacity) = mem.capacity_bytes(node) {
                    prop_assert_eq!(
                        mem.used_bytes(node).unwrap() + mem.free_bytes(node).unwrap(),
                        capacity
                    );
                }
            }
        }
    }
}

/// Maps `count` pages the way the table was built before
/// [`PageTable::map_pages`]: per page, one frame draw and then one `map`.
fn map_per_page(
    pt: &mut PageTable,
    mem: &mut PhysicalMemory,
    va: VirtAddr,
    page_size: PageSize,
    count: u64,
    node: MemNode,
) -> Result<(), VmemError> {
    for page in 0..count {
        let pfn = mem.alloc_page(node, page_size)?;
        pt.map(va.add(page * page_size.bytes()), page_size, pfn, node)?;
    }
    Ok(())
}

fn leaf_pages(pt: &PageTable) -> u64 {
    pt.stats().leaf_4k + pt.stats().leaf_2m
}

/// Asserts that two (table, memory) pairs are indistinguishable: the same
/// walk — steps, `TableId`s and translation — at the page base of every
/// page of `ranges` (plus one page past each end), the same structural
/// statistics, and the same occupancy on every node.
fn assert_same_build(
    got: (&PageTable, &PhysicalMemory),
    want: (&PageTable, &PhysicalMemory),
    ranges: &[(VirtAddr, PageSize, u64)],
    nodes: &[MemNode],
) {
    prop_assert_eq!(got.0.stats(), want.0.stats());
    for &(start, page_size, count) in ranges {
        for page in 0..=count {
            let va = start.add(page * page_size.bytes());
            prop_assert_eq!(got.0.walk(va), want.0.walk(va));
        }
    }
    for &node in nodes {
        prop_assert_eq!(got.1.used_bytes(node), want.1.used_bytes(node));
        prop_assert_eq!(got.1.free_bytes(node), want.1.free_bytes(node));
        prop_assert_eq!(got.1.peak_bytes(node), want.1.peak_bytes(node));
    }
}

/// Radix boundaries a run may straddle: a leaf table (2 MB of 4 KB pages),
/// an L2 table (1 GB) and an L3 table (512 GB).
const BOUNDARIES: [u64; 3] = [1 << 21, 1 << 30, 1 << 39];

fn map_nodes() -> (Vec<NodeSpec>, [MemNode; 3]) {
    let specs = vec![
        NodeSpec::new(MemNode::Host, 1 << 36),
        // Two 2 MB pages, or 1,624 4 KB pages: runs here fail mid-way.
        NodeSpec::new(MemNode::Npu(0), (4 << 20) + 600 * 4096),
        NodeSpec::new(MemNode::Npu(1), 256 << 20),
    ];
    (specs, [MemNode::Host, MemNode::Npu(0), MemNode::Npu(1)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `map_pages` builds exactly the table the per-page loop builds: random
    /// 4 KB and 2 MB runs placed to straddle leaf, L2 and L3 boundaries,
    /// overlapping each other and single pages mapped beforehand (the
    /// one-page `map` that demand paging uses), on nodes that run out of
    /// frames mid-run. Every run must return the same result (error variant
    /// and failing page included), leave the same mapped prefix with the
    /// same frames and `TableId`s, and redraw the revision exactly when it
    /// mapped at least one page.
    #[test]
    fn map_pages_matches_per_page_reference(
        ops in prop::collection::vec(
            (0u32..4, 0u32..2, (0usize..3, 1u64..4), 0u64..1200, 1u64..1100, 0usize..3),
            1..10,
        ),
    ) {
        let (specs, nodes) = map_nodes();
        let (mut pt, mut mem) = (PageTable::new(), PhysicalMemory::new(&specs));
        let (mut ref_pt, mut ref_mem) = (PageTable::new(), PhysicalMemory::new(&specs));
        let mut ranges = Vec::new();
        for &(kind, size_pick, (boundary, multiple), before, count, node_pick) in &ops {
            let page_size = if size_pick == 0 { PageSize::Size4K } else { PageSize::Size2M };
            let node = nodes[node_pick];
            // Half the runs start at one of a few offsets, so runs and
            // pre-filled pages often begin on the same page.
            let before = if before < 600 { before } else { [0, 1, 2, 511, 512, 513][before as usize % 6] };
            let start = VirtAddr::new(
                (BOUNDARIES[boundary] * multiple).saturating_sub(before * page_size.bytes()),
            );
            // Kind 3 pre-fills one page, the rest map a whole run.
            let count = if kind == 3 { 1 } else { count };
            let (leaves, revision) = (leaf_pages(&pt), pt.revision());
            let got = pt.map_pages(start, page_size, count, node, || mem.alloc_page(node, page_size));
            let want = map_per_page(&mut ref_pt, &mut ref_mem, start, page_size, count, node);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(leaf_pages(&pt) != leaves, pt.revision() != revision);
            ranges.push((start, page_size, count));
            assert_same_build((&pt, &mem), (&ref_pt, &ref_mem), &ranges[ranges.len() - 1..], &nodes);
        }
        assert_same_build((&pt, &mem), (&ref_pt, &ref_mem), &ranges, &nodes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `AddressSpace::alloc_segment` maps eager segments exactly as one
    /// `alloc_page` + `map` per page would, interleaved with lazy segments
    /// whose pages `ensure_mapped` faults in: the same walks, `TableId`s,
    /// statistics, frames and node occupancy, and the same error with the
    /// same mapped prefix when the node runs out of frames mid-segment.
    #[test]
    fn alloc_segment_matches_per_page_reference(
        ops in prop::collection::vec((0u32..5, 0u32..2, 1u64..1400, 0usize..3, 0usize..64), 1..14),
    ) {
        let (specs, nodes) = map_nodes();
        let mut space = AddressSpace::new("npu0");
        let mut mem = PhysicalMemory::new(&specs);
        let (mut ref_pt, mut ref_mem) = (PageTable::new(), PhysicalMemory::new(&specs));
        // A lazy anchor segment pins down where segment allocation starts;
        // the reference lays out the rest as `alloc_segment` does.
        let anchor = space
            .alloc_segment("anchor", 1, SegmentOptions::new(MemNode::Host, PageSize::Size4K).lazy(), &mut mem)
            .unwrap();
        let mut next_va = anchor.start().add(4096);
        let mut ranges = vec![(anchor.start(), PageSize::Size4K, 1)];
        let mut lazy: Vec<(VirtAddr, PageSize, u64)> = Vec::new();
        for (i, &(kind, size_pick, pages, node_pick, pick)) in ops.iter().enumerate() {
            let page_size = if size_pick == 0 { PageSize::Size4K } else { PageSize::Size2M };
            let node = nodes[node_pick];
            let (leaves, revision) = (leaf_pages(space.page_table()), space.page_table().revision());
            if kind == 4 {
                // Fault in one page of a lazy segment (if any).
                if lazy.is_empty() {
                    continue;
                }
                let (start, seg_size, seg_pages) = lazy[pick % lazy.len()];
                let va = start.add((pick as u64 * 7919 % seg_pages) * seg_size.bytes() + 123);
                let got = space.ensure_mapped(va, &mut mem).map(|o| o.translation());
                let want = (|| {
                    if !ref_pt.is_mapped(va) {
                        let node = space.segment_containing(va).unwrap().options().node;
                        let pfn = ref_mem.alloc_page(node, seg_size)?;
                        ref_pt.map(va.page_base(seg_size), seg_size, pfn, node)?;
                    }
                    ref_pt.translate(va)
                })();
                prop_assert_eq!(got, want);
            } else {
                let mut options = SegmentOptions::new(node, page_size);
                if kind == 3 {
                    options = options.lazy();
                }
                // 2 MB segments stay small: each page takes 512 frames.
                let pages = if page_size == PageSize::Size2M { pages % 40 + 1 } else { pages };
                let size = pages * page_size.bytes() - (pages % 3) * 1000;
                let start = next_va.align_up(PageSize::Size2M);
                next_va = start.add(pages * page_size.bytes());
                let got = space.alloc_segment(format!("s{i}"), size, options, &mut mem);
                let want = if kind == 3 {
                    lazy.push((start, page_size, pages));
                    Ok(())
                } else {
                    map_per_page(&mut ref_pt, &mut ref_mem, start, page_size, pages, node)
                };
                prop_assert_eq!(got.as_ref().map(Segment::start).map_err(Clone::clone), want.map(|()| start));
                ranges.push((start, page_size, pages));
            }
            let mapped = leaf_pages(space.page_table()) != leaves;
            prop_assert_eq!(mapped, space.page_table().revision() != revision);
            assert_same_build((space.page_table(), &mem), (&ref_pt, &ref_mem), &ranges[ranges.len() - 1..], &nodes);
        }
        assert_same_build((space.page_table(), &mem), (&ref_pt, &ref_mem), &ranges, &nodes);
    }
}
