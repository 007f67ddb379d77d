//! Device address spaces: segment allocation, demand paging and migration.
//!
//! An [`AddressSpace`] models the unified virtual address space that an
//! MMU-equipped NPU shares with the host (Section II-B of the paper). Dense
//! DNN workloads allocate a handful of large segments (input activations,
//! weights, output activations); the embedding case study additionally
//! allocates one segment per embedding-table shard, placed on the owning
//! NPU's memory node, and exercises demand paging / page migration.

use std::collections::HashMap;

use serde::Serialize;

use crate::addr::{PageSize, VirtAddr};
use crate::error::VmemError;
use crate::frame_alloc::PhysicalMemory;
use crate::numa::MemNode;
use crate::page_table::{PageTable, Translation};

/// Base of the heap used for segment allocation.
///
/// Kept well above zero so that a null-ish address is never a valid segment
/// address, and below the 48-bit canonical limit.
const SEGMENT_BASE: u64 = 0x0000_1000_0000;

/// How a segment's pages are populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Population {
    /// All pages are mapped at allocation time (the common case for dense
    /// DNN tensors, which the runtime allocates up front).
    Eager,
    /// Pages are mapped on first touch via [`AddressSpace::ensure_mapped`]
    /// (used to model demand paging of remote embedding pages in Figure 16).
    Lazy,
}

/// Options controlling segment allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SegmentOptions {
    /// Memory node backing the segment.
    pub node: MemNode,
    /// Page size used for the segment's mappings.
    pub page_size: PageSize,
    /// Eager or lazy population.
    pub population: Population,
}

impl SegmentOptions {
    /// Eagerly populated segment on `node` with the given page size.
    #[must_use]
    pub fn new(node: MemNode, page_size: PageSize) -> Self {
        SegmentOptions {
            node,
            page_size,
            population: Population::Eager,
        }
    }

    /// Switches the segment to lazy (demand-paged) population.
    #[must_use]
    pub fn lazy(mut self) -> Self {
        self.population = Population::Lazy;
        self
    }
}

/// A named, contiguous virtual-address segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Segment {
    name: String,
    start: VirtAddr,
    size: u64,
    options: SegmentOptions,
}

impl Segment {
    /// Segment name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First virtual address of the segment.
    #[must_use]
    pub fn start(&self) -> VirtAddr {
        self.start
    }

    /// Size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// One-past-the-end virtual address.
    #[must_use]
    pub fn end(&self) -> VirtAddr {
        self.start.add(self.size)
    }

    /// Allocation options the segment was created with.
    #[must_use]
    pub fn options(&self) -> SegmentOptions {
        self.options
    }

    /// True if `va` lies within the segment.
    #[must_use]
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end()
    }

    /// Virtual address at byte offset `offset` into the segment.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of bounds.
    #[must_use]
    pub fn addr_at(&self, offset: u64) -> VirtAddr {
        assert!(
            offset < self.size,
            "offset {offset} out of bounds for segment `{}`",
            self.name
        );
        self.start.add(offset)
    }

    /// Number of pages (of the segment's page size) spanned by the segment.
    #[must_use]
    pub fn page_count(&self) -> u64 {
        self.size.div_ceil(self.options.page_size.bytes())
    }
}

/// Result of a demand-paging fault handled by [`AddressSpace::ensure_mapped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultOutcome {
    /// The address was already mapped; no fault occurred.
    AlreadyMapped(Translation),
    /// A page was populated to satisfy the fault.
    Populated {
        /// The new translation.
        translation: Translation,
        /// Page size of the populated page (also the amount of data that a
        /// demand-paging transfer has to move).
        page_size: PageSize,
    },
}

impl FaultOutcome {
    /// The translation that is now valid for the faulting address.
    #[must_use]
    pub fn translation(&self) -> Translation {
        match self {
            FaultOutcome::AlreadyMapped(t) => *t,
            FaultOutcome::Populated { translation, .. } => *translation,
        }
    }

    /// True if a page had to be populated.
    #[must_use]
    pub fn faulted(&self) -> bool {
        matches!(self, FaultOutcome::Populated { .. })
    }
}

/// Statistics about an address space's demand-paging and migration activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SpaceStats {
    /// Number of demand-paging faults served.
    pub faults: u64,
    /// Bytes transferred by demand paging (sum of faulted page sizes).
    pub fault_bytes: u64,
    /// Number of pages migrated between nodes.
    pub migrations: u64,
    /// Bytes moved by migrations.
    pub migration_bytes: u64,
}

/// A virtual address space with named segments backed by a page table.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    name: String,
    page_table: PageTable,
    /// The segments, in allocation order.
    segments: Vec<Segment>,
    /// Index into `segments` by name; only ever queried by key.
    by_name: HashMap<String, usize>,
    /// `(base VA, index into segments)` pairs sorted by base VA: the
    /// deterministic, hash-free lookup index behind
    /// [`AddressSpace::segment_containing`], which every demand-paging fault
    /// consults.
    by_base: Vec<(u64, usize)>,
    next_va: VirtAddr,
    stats: SpaceStats,
}

impl AddressSpace {
    /// Creates an empty address space.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        AddressSpace {
            name: name.into(),
            page_table: PageTable::new(),
            segments: Vec::new(),
            by_name: HashMap::new(),
            by_base: Vec::new(),
            next_va: VirtAddr::new(SEGMENT_BASE),
            stats: SpaceStats::default(),
        }
    }

    /// Name of the address space (e.g. the owning device).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Allocates a named segment of `size` bytes.
    ///
    /// Segments are 2 MB aligned so that large-page and small-page segments
    /// never share a 2 MB region. Eager segments are fully mapped immediately
    /// by one [`PageTable::map_pages`] call, drawing frames from `memory`;
    /// lazy segments are mapped on first touch.
    ///
    /// # Errors
    ///
    /// * [`VmemError::EmptySegment`] for a zero-sized request.
    /// * [`VmemError::SegmentExists`] if the name is already in use.
    /// * Frame-allocation errors for eager segments. The segment is not
    ///   registered, but the pages mapped before the failing one stay mapped.
    pub fn alloc_segment(
        &mut self,
        name: impl Into<String>,
        size: u64,
        options: SegmentOptions,
        memory: &mut PhysicalMemory,
    ) -> Result<Segment, VmemError> {
        let name = name.into();
        if size == 0 {
            return Err(VmemError::EmptySegment { name });
        }
        if self.by_name.contains_key(&name) {
            return Err(VmemError::SegmentExists { name });
        }
        let start = self.next_va.align_up(PageSize::Size2M);
        let segment = Segment {
            name: name.clone(),
            start,
            size,
            options,
        };
        // Reserve the VA range (rounded up to the segment page size).
        let reserved = size.div_ceil(options.page_size.bytes()) * options.page_size.bytes();
        self.next_va = start.add(reserved);

        if options.population == Population::Eager {
            let SegmentOptions {
                node, page_size, ..
            } = options;
            self.page_table
                .map_pages(start, page_size, segment.page_count(), node, || {
                    memory.alloc_page(node, page_size)
                })?;
        }
        self.add_segment(segment.clone());
        Ok(segment)
    }

    /// Appends a segment and registers it in the name map and the
    /// base-VA-sorted index.
    ///
    /// In debug builds the insertion position is checked against both
    /// neighbours: a new segment overlapping an existing one would make
    /// `segment_containing` ambiguous, so the invariant is asserted here
    /// rather than silently resolved by lookup order.
    fn add_segment(&mut self, segment: Segment) {
        let at = self
            .by_base
            .partition_point(|(base, _)| *base < segment.start.raw());
        #[cfg(debug_assertions)]
        {
            if let Some(&(_, prev)) = at.checked_sub(1).and_then(|i| self.by_base.get(i)) {
                let prev = &self.segments[prev];
                debug_assert!(
                    prev.end() <= segment.start,
                    "segment `{}` overlaps `{}`",
                    segment.name,
                    prev.name
                );
            }
            if let Some(&(_, next)) = self.by_base.get(at) {
                let next = &self.segments[next];
                debug_assert!(
                    segment.end() <= next.start,
                    "segment `{}` overlaps `{}`",
                    segment.name,
                    next.name
                );
            }
        }
        let index = self.segments.len();
        self.by_base.insert(at, (segment.start.raw(), index));
        self.by_name.insert(segment.name.clone(), index);
        self.segments.push(segment);
    }

    /// Looks up a segment by name.
    #[must_use]
    pub fn segment(&self, name: &str) -> Option<&Segment> {
        self.by_name.get(name).map(|&index| &self.segments[index])
    }

    /// All segments in allocation order.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter()
    }

    /// The segment containing `va`, if any.
    ///
    /// Resolved through the base-VA-sorted index: the candidate is the
    /// segment with the greatest base at or below `va` (segments never
    /// overlap, so at most one can contain the address). No name is hashed
    /// and the answer cannot depend on the name map's hash order.
    #[must_use]
    pub fn segment_containing(&self, va: VirtAddr) -> Option<&Segment> {
        let at = self.by_base.partition_point(|(base, _)| *base <= va.raw());
        let &(_, index) = at.checked_sub(1).and_then(|i| self.by_base.get(i))?;
        let segment = &self.segments[index];
        segment.contains(va).then_some(segment)
    }

    /// Translates a virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotMapped`] for unmapped addresses (including
    /// untouched pages of lazy segments).
    pub fn translate(&self, va: VirtAddr) -> Result<Translation, VmemError> {
        self.page_table.translate(va)
    }

    /// True if the 4 KB page containing `va` is mapped.
    #[must_use]
    pub fn is_mapped(&self, va: VirtAddr) -> bool {
        self.page_table.is_mapped(va)
    }

    /// Ensures the page containing `va` is mapped, faulting it in from the
    /// segment's backing node if necessary (demand paging).
    ///
    /// The page table is probed once: a hit is returned as it is, and a miss
    /// is mapped by resuming that probe's descent where it stopped
    /// ([`PageTable::map_at_miss`]).
    ///
    /// # Errors
    ///
    /// * [`VmemError::NotMapped`] if `va` does not belong to any segment.
    /// * Frame-allocation errors if the backing node is out of memory.
    pub fn ensure_mapped(
        &mut self,
        va: VirtAddr,
        memory: &mut PhysicalMemory,
    ) -> Result<FaultOutcome, VmemError> {
        let probe = self.page_table.probe(va);
        if let Some(t) = probe.translation {
            return Ok(FaultOutcome::AlreadyMapped(t));
        }
        let SegmentOptions {
            node, page_size, ..
        } = self
            .segment_containing(va)
            .ok_or(VmemError::NotMapped { va })?
            .options;
        // Segments are 2 MB aligned, so the page base is also the segment's
        // page boundary.
        let translation = self.page_table.map_at_miss(&probe, page_size, node, || {
            memory.alloc_page(node, page_size)
        })?;
        self.stats.faults += 1;
        self.stats.fault_bytes += page_size.bytes();
        Ok(FaultOutcome::Populated {
            translation,
            page_size,
        })
    }

    /// Migrates the page containing `va` to `dst_node`, allocating a new
    /// backing page there and freeing the old one.
    ///
    /// Returns the translation that was in effect *before* the migration.
    /// The page table is probed once, and the leaf that probe found is
    /// rewritten ([`PageTable::remap_at`]); the new page is allocated before
    /// the old one is freed.
    ///
    /// # Errors
    ///
    /// * [`VmemError::NotMapped`] if the page is not mapped.
    /// * Frame-allocation errors if `dst_node` is out of memory.
    pub fn migrate_page(
        &mut self,
        va: VirtAddr,
        dst_node: MemNode,
        memory: &mut PhysicalMemory,
    ) -> Result<Translation, VmemError> {
        let probe = self.page_table.probe(va);
        let old = probe.translation.ok_or(VmemError::NotMapped { va })?;
        if old.node == dst_node {
            return Ok(old);
        }
        let new_pfn = memory.alloc_page(dst_node, old.page_size)?;
        memory.free_page(old.pfn, old.page_size)?;
        self.page_table.remap_at(&probe, new_pfn, dst_node)?;
        self.stats.migrations += 1;
        self.stats.migration_bytes += old.page_size.bytes();
        Ok(old)
    }

    /// Distinct 4 KB virtual pages covered by the byte range
    /// `[start, start + len)`.
    #[cfg(test)]
    #[must_use]
    pub fn pages_in_range(start: VirtAddr, len: u64) -> Vec<crate::addr::VirtPageNum> {
        if len == 0 {
            return Vec::new();
        }
        let first = start.vpn().raw();
        let last = start.add(len - 1).vpn().raw();
        (first..=last).map(crate::addr::VirtPageNum::new).collect()
    }

    /// The underlying page table.
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Demand-paging and migration statistics.
    #[must_use]
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> PhysicalMemory {
        PhysicalMemory::with_npus(2, 1 << 30)
    }

    #[test]
    fn eager_segment_is_fully_mapped() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        let seg = space
            .alloc_segment(
                "ia",
                3 * 4096 + 100,
                SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                &mut mem,
            )
            .unwrap();
        assert_eq!(seg.page_count(), 4);
        for page in 0..4u64 {
            assert!(space.is_mapped(seg.start().add(page * 4096)));
        }
        assert!(!space.is_mapped(seg.start().add(4 * 4096)));
        assert_eq!(mem.used_bytes(MemNode::Npu(0)).unwrap(), 4 * 4096);
    }

    #[test]
    fn lazy_segment_faults_on_touch() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        let seg = space
            .alloc_segment(
                "emb",
                1 << 20,
                SegmentOptions::new(MemNode::Host, PageSize::Size4K).lazy(),
                &mut mem,
            )
            .unwrap();
        let va = seg.addr_at(8192 + 17);
        assert!(!space.is_mapped(va));
        let outcome = space.ensure_mapped(va, &mut mem).unwrap();
        assert!(outcome.faulted());
        assert_eq!(outcome.translation().node, MemNode::Host);
        // The second touch does not fault.
        let again = space.ensure_mapped(va, &mut mem).unwrap();
        assert!(!again.faulted());
        assert_eq!(space.stats().faults, 1);
        assert_eq!(space.stats().fault_bytes, 4096);
    }

    #[test]
    fn large_page_segments_fault_2mb_at_a_time() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        let seg = space
            .alloc_segment(
                "emb2m",
                8 << 20,
                SegmentOptions::new(MemNode::Npu(1), PageSize::Size2M).lazy(),
                &mut mem,
            )
            .unwrap();
        let outcome = space.ensure_mapped(seg.addr_at(3 << 20), &mut mem).unwrap();
        match outcome {
            FaultOutcome::Populated { page_size, .. } => assert_eq!(page_size, PageSize::Size2M),
            FaultOutcome::AlreadyMapped(_) => panic!("expected a fault"),
        }
        assert_eq!(mem.used_bytes(MemNode::Npu(1)).unwrap(), 2 << 20);
        // Addresses within the same 2 MB page do not fault again.
        assert!(!space
            .ensure_mapped(seg.addr_at((2 << 20) + 5), &mut mem)
            .unwrap()
            .faulted());
    }

    #[test]
    fn contexts_are_fully_isolated() {
        let mut mem = memory();
        let mut a = AddressSpace::new("a");
        let mut b = AddressSpace::new("b");
        let opts = SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K);
        let seg = a.alloc_segment("w", 4096, opts, &mut mem).unwrap();
        assert!(a.is_mapped(seg.start()));
        assert!(!b.is_mapped(seg.start()));
        // Same allocation order in the other space lands on the same VA
        // (per-space layout is deterministic and space-local).
        let seg_b = b.alloc_segment("w", 4096, opts, &mut mem).unwrap();
        assert_eq!(seg.start(), seg_b.start());
    }

    #[test]
    fn segments_do_not_overlap_and_are_2mb_aligned() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        let a = space
            .alloc_segment(
                "a",
                5000,
                SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                &mut mem,
            )
            .unwrap();
        let b = space
            .alloc_segment(
                "b",
                5000,
                SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                &mut mem,
            )
            .unwrap();
        assert!(a.start().is_aligned(PageSize::Size2M));
        assert!(b.start().is_aligned(PageSize::Size2M));
        assert!(b.start() >= a.end());
        assert!(!a.contains(b.start()));
        assert_eq!(space.segments().count(), 2);
        assert_eq!(
            space.segment_containing(a.addr_at(100)).unwrap().name(),
            "a"
        );
    }

    #[test]
    fn segment_containing_resolves_through_the_sorted_index() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        // Enough segments that a hash-ordered `.values().find()` would visit
        // them in an arbitrary order; the sorted index must find the owner of
        // every boundary address regardless.
        let mut segs = Vec::new();
        for i in 0..32u64 {
            let seg = space
                .alloc_segment(
                    format!("seg{i}"),
                    4096 * (1 + i % 5),
                    SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                    &mut mem,
                )
                .unwrap();
            segs.push(seg);
        }
        for seg in &segs {
            assert_eq!(
                space.segment_containing(seg.start()).unwrap().name(),
                seg.name()
            );
            let last_byte = seg.start().add(seg.size() - 1);
            assert_eq!(
                space.segment_containing(last_byte).unwrap().name(),
                seg.name()
            );
            // One-past-the-end belongs to the 2 MB alignment gap, not `seg`.
            assert_ne!(
                space.segment_containing(seg.end()).map(Segment::name),
                Some(seg.name())
            );
        }
        assert!(space
            .segment_containing(VirtAddr::new(SEGMENT_BASE - 1))
            .is_none());
    }

    #[test]
    fn duplicate_and_empty_segments_rejected() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        space
            .alloc_segment(
                "w",
                4096,
                SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                &mut mem,
            )
            .unwrap();
        assert!(matches!(
            space.alloc_segment(
                "w",
                4096,
                SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                &mut mem
            ),
            Err(VmemError::SegmentExists { .. })
        ));
        assert!(matches!(
            space.alloc_segment(
                "empty",
                0,
                SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                &mut mem
            ),
            Err(VmemError::EmptySegment { .. })
        ));
    }

    #[test]
    fn migration_moves_page_between_nodes() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        let seg = space
            .alloc_segment(
                "emb",
                16 * 4096,
                SegmentOptions::new(MemNode::Npu(1), PageSize::Size4K),
                &mut mem,
            )
            .unwrap();
        let va = seg.addr_at(4096 * 3 + 7);
        let before = space.translate(va).unwrap();
        assert_eq!(before.node, MemNode::Npu(1));
        let used_before = mem.used_bytes(MemNode::Npu(0)).unwrap();
        space.migrate_page(va, MemNode::Npu(0), &mut mem).unwrap();
        let after = space.translate(va).unwrap();
        assert_eq!(after.node, MemNode::Npu(0));
        assert_eq!(after.pa.raw() % 4096, before.pa.raw() % 4096);
        assert_eq!(mem.used_bytes(MemNode::Npu(0)).unwrap(), used_before + 4096);
        assert_eq!(space.stats().migrations, 1);
        // Migrating to the current node is a no-op.
        space.migrate_page(va, MemNode::Npu(0), &mut mem).unwrap();
        assert_eq!(space.stats().migrations, 1);
    }

    #[test]
    fn migrating_a_2mb_page_frees_exactly_2mib_on_the_source() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        let seg = space
            .alloc_segment(
                "emb2m",
                4 << 20,
                SegmentOptions::new(MemNode::Npu(1), PageSize::Size2M),
                &mut mem,
            )
            .unwrap();
        let free_before = mem.free_bytes(MemNode::Npu(1)).unwrap();
        let used_before = mem.used_bytes(MemNode::Npu(1)).unwrap();
        let old = space
            .migrate_page(seg.addr_at(3 << 20), MemNode::Npu(0), &mut mem)
            .unwrap();
        assert_eq!(old.page_size, PageSize::Size2M);
        assert_eq!(
            mem.free_bytes(MemNode::Npu(1)).unwrap(),
            free_before + (2 << 20)
        );
        assert_eq!(
            mem.used_bytes(MemNode::Npu(1)).unwrap(),
            used_before - (2 << 20)
        );
        assert_eq!(mem.used_bytes(MemNode::Npu(0)).unwrap(), 2 << 20);
        // The freed page is reused frame by frame, highest frame first.
        let reused = mem.alloc_frame(MemNode::Npu(1)).unwrap();
        assert_eq!(reused.raw(), old.pfn.raw() + 511);
    }

    #[test]
    fn eager_segment_out_of_memory_keeps_the_mapped_prefix() {
        let mut mem = PhysicalMemory::new(&[crate::frame_alloc::NodeSpec::new(
            MemNode::Npu(0),
            600 * 4096,
        )]);
        let mut space = AddressSpace::new("npu0");
        let err = space
            .alloc_segment(
                "big",
                1000 * 4096,
                SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                &mut mem,
            )
            .unwrap_err();
        assert!(matches!(err, VmemError::OutOfMemory { .. }));
        assert!(space.segment("big").is_none());
        // The 600 pages that got frames stay mapped, across two leaf tables.
        assert_eq!(space.page_table().stats().leaf_4k, 600);
        let start = VirtAddr::new(SEGMENT_BASE);
        assert!(space.is_mapped(start.add(599 * 4096)));
        assert!(!space.is_mapped(start.add(600 * 4096)));
        assert_eq!(mem.free_bytes(MemNode::Npu(0)).unwrap(), 0);
    }

    #[test]
    fn fault_outside_any_segment_is_an_error() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        let err = space
            .ensure_mapped(VirtAddr::new(0x10), &mut mem)
            .unwrap_err();
        assert!(matches!(err, VmemError::NotMapped { .. }));
    }

    proptest::proptest! {
        /// `pages_in_range` covers exactly the bytes in the range.
        #[test]
        fn pages_in_range_covers_range(start in 0u64..(1u64 << 40), len in 1u64..(1u64 << 20)) {
            let pages = AddressSpace::pages_in_range(VirtAddr::new(start), len);
            let expected = (start + len - 1) / 4096 - start / 4096 + 1;
            proptest::prop_assert_eq!(pages.len() as u64, expected);
            // Pages are consecutive and sorted.
            for w in pages.windows(2) {
                proptest::prop_assert_eq!(w[1].raw(), w[0].raw() + 1);
            }
        }
    }

    #[test]
    fn pages_in_range_enumerates_touched_pages() {
        let pages = AddressSpace::pages_in_range(VirtAddr::new(0xfff), 2);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].raw(), 0);
        assert_eq!(pages[1].raw(), 1);
        assert!(AddressSpace::pages_in_range(VirtAddr::new(0x1000), 0).is_empty());
        let one = AddressSpace::pages_in_range(VirtAddr::new(0x2000), 4096);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn addr_at_bounds_check() {
        let mut mem = memory();
        let mut space = AddressSpace::new("npu0");
        let seg = space
            .alloc_segment(
                "s",
                4096,
                SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
                &mut mem,
            )
            .unwrap();
        assert_eq!(seg.addr_at(0), seg.start());
        let result = std::panic::catch_unwind(|| seg.addr_at(4096));
        assert!(result.is_err());
    }
}
