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
