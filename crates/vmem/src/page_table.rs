//! An x86-64 style 4-level radix page table.
//!
//! The table is a structural model: it stores real per-level nodes and reports,
//! for every walk, exactly which entries were touched ([`WalkPath`]). The MMU
//! crate uses the walk path to
//!
//! * charge one memory access per visited level (Section IV-C of the paper),
//! * decide how many levels a TPreg / translation-path cache hit can skip, and
//! * attribute per-level latency (100 cycles per level in Table I).
//!
//! Interior nodes are stored sparsely (only populated entries are kept), which
//! keeps the model practical even for the multi-hundred-GB embedding tables of
//! Section V while preserving the radix-tree structure exactly.
//!
//! The table is built one leaf table at a time. [`PageTable::map_pages`]
//! maps a run of pages with one descent from the root per leaf table (an L1
//! node holds 512 4 KB entries, an L2 node 512 2 MB entries), reserves the
//! leaf's entries once and appends them in ascending index order.
//! [`PageTable::map`] is its one-page case, so there is one mapping
//! implementation; a run leaves exactly the table, frames and errors that
//! mapping its pages one at a time would. A demand-paging fault has already
//! probed the page: [`PageTable::map_at_miss`] maps it through the same
//! descent, resumed at the step where the probe stopped, and
//! [`PageTable::remap_at`] rewrites the leaf a hit probe found, which is all
//! [`PageTable::remap`] does after its own probe.
//!
//! Two query paths exist. [`PageTable::walk`] records every entry access as a
//! [`WalkPath`] — an allocating trace used by tests, inspection tooling and
//! the MMU-cache studies. [`PageTable::probe`] performs the same traversal but
//! returns a `Copy` [`WalkProbe`] without touching the heap; it is the hot
//! path the translation engines use, since they only need the leaf, the level
//! count and the final entry access.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

use crate::addr::{
    PageSize, PhysAddr, PhysFrameNum, VirtAddr, WalkIndexLevel, ENTRIES_PER_TABLE, PAGE_SHIFT_2M,
    PAGE_SHIFT_4K,
};
use crate::error::VmemError;
use crate::numa::MemNode;

/// Identifies one page-table node (interior table) within a [`PageTable`].
///
/// In real hardware this would be the physical address of the 4 KB table; the
/// model uses a dense id and exposes a synthetic physical address so that
/// physically tagged MMU caches (the UPTC of Section IV-C) can be modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TableId(u32);

impl TableId {
    /// Synthetic physical address of this table node.
    #[must_use]
    pub fn phys_addr(self) -> PhysAddr {
        // Page-table nodes live in a reserved physical window far above any
        // node window used by the frame allocator.
        PhysAddr::new((0x7000_0000_0000u64) + (u64::from(self.0) << PAGE_SHIFT_4K))
    }

    /// Raw index of the table node.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

/// One entry of a page-table node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
enum Entry {
    /// Points to the next-lower-level table.
    Table(TableId),
    /// Leaf mapping.
    Leaf {
        /// First backing frame (4 KB units).
        pfn: PhysFrameNum,
        /// Memory node holding the data.
        node: MemNode,
        /// Leaf page size.
        page_size: PageSize,
    },
}

/// One page-table node: the populated entries, sorted by their 9-bit index.
///
/// Nodes hold at most 512 entries and are probed orders of magnitude more
/// often than they are mutated, so a compact sorted vec serves the
/// translation hot path while `O(n)` inserts stay negligible. A lookup starts
/// at the direct slot `index - first`: eagerly mapped tensors fill their leaf
/// nodes contiguously, and there that one load is the answer. Only a node
/// with holes falls back to a binary search, over the prefix before that
/// slot.
#[derive(Debug, Clone, Default)]
struct TableNode {
    entries: Vec<(u16, Entry)>,
}

impl TableNode {
    /// The slot holding `index` (`Ok`), or the slot where it would be
    /// inserted (`Err`), exactly as a binary search over the node returns.
    ///
    /// Indices are sorted and distinct, so `entries[j].0 >= first + j` with
    /// `first = entries[0].0`. For `k = index - first`, either
    /// `entries[k].0 == index` (always so on a dense node), or every slot from
    /// `k` on holds a larger index and a match can only lie in `entries[..k]`.
    #[inline]
    fn slot_of(&self, index: u16) -> Result<usize, usize> {
        let Some(k) = self
            .entries
            .first()
            .and_then(|&(first, _)| index.checked_sub(first))
        else {
            return Err(0);
        };
        let k = usize::from(k);
        let end = match self.entries.get(k) {
            Some(&(at, _)) if at == index => return Ok(k),
            Some(_) => k,
            None => self.entries.len(),
        };
        self.entries[..end].binary_search_by_key(&index, |&(i, _)| i)
    }

    #[inline]
    fn get(&self, index: u16) -> Option<Entry> {
        self.slot_of(index).ok().map(|slot| self.entries[slot].1)
    }

    /// Inserts `entry` at `index`; returns `false` if the index is occupied.
    ///
    /// Tables are built in ascending index order, so the common case appends
    /// past the last entry. Otherwise the node already holds a later index,
    /// and a plain binary search finds the slot: `slot_of`'s direct slot
    /// would only answer for an occupied index, and inlined here it kept this
    /// function out of the map loop, which made eager mapping about twice as
    /// slow (`vmem/alloc_segment_eager_*`).
    #[inline]
    fn try_insert(&mut self, index: u16, entry: Entry) -> bool {
        if self.entries.last().is_none_or(|&(last, _)| last < index) {
            self.entries.push((index, entry));
            return true;
        }
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(_) => false,
            Err(slot) => {
                self.entries.insert(slot, (index, entry));
                true
            }
        }
    }

    /// Inserts or replaces the entry at `index`.
    fn set(&mut self, index: u16, entry: Entry) {
        match self.slot_of(index) {
            Ok(slot) => self.entries[slot].1 = entry,
            Err(slot) => self.entries.insert(slot, (index, entry)),
        }
    }

    fn remove(&mut self, index: u16) {
        if let Ok(slot) = self.slot_of(index) {
            self.entries.remove(slot);
        }
    }
}

/// The result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Translation {
    /// Translated physical address.
    pub pa: PhysAddr,
    /// First frame of the containing page.
    pub pfn: PhysFrameNum,
    /// Page size of the mapping that was hit.
    pub page_size: PageSize,
    /// Memory node holding the page.
    pub node: MemNode,
}

impl Translation {
    /// The translation of `va` through a leaf mapping its page to `pfn`.
    pub(crate) fn of(va: VirtAddr, pfn: PhysFrameNum, page_size: PageSize, node: MemNode) -> Self {
        Translation {
            pa: PhysAddr::new(pfn.base_addr().raw() + va.page_offset(page_size)),
            pfn,
            page_size,
            node,
        }
    }
}

/// What a walk found at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WalkLevel {
    /// The entry pointed at a next-level table.
    NextTable {
        /// The table the entry points to.
        next: TableId,
    },
    /// The entry was a leaf mapping.
    Leaf {
        /// Page size of the leaf.
        page_size: PageSize,
    },
    /// The entry was not present (translation fault).
    NotPresent,
}

/// One step of a page-table walk: the access to a single page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WalkStep {
    /// The level whose table was accessed (L4 is the root).
    pub level: WalkIndexLevel,
    /// The table node that was read.
    pub table: TableId,
    /// The 9-bit index used within that table.
    pub index: u16,
    /// What was found.
    pub outcome: WalkLevel,
}

/// The full trace of one page-table walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WalkPath {
    /// The virtual address that was walked.
    pub va: VirtAddr,
    /// Entry accesses in walk order (root first).
    pub steps: Vec<WalkStep>,
    /// The translation, if the walk succeeded.
    pub translation: Option<Translation>,
}

impl WalkPath {
    /// Number of page-table memory accesses this walk performed.
    #[must_use]
    pub fn memory_accesses(&self) -> u32 {
        self.steps.len() as u32
    }

    /// True if the walk reached a leaf mapping.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        self.translation.is_some()
    }
}

/// The allocation-free result of a [`PageTable::probe`].
///
/// A probe traverses exactly the entries a full [`PageTable::walk`] would,
/// but records only what the translation engines need — the final entry
/// access, the number of levels touched and the translation — in a `Copy`
/// value, so the hot path never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WalkProbe {
    /// The virtual address that was probed.
    pub va: VirtAddr,
    /// The final entry access of the walk: the leaf for a hit, the missing
    /// entry for a miss.
    pub last_step: WalkStep,
    /// The translation, if the probe reached a leaf mapping.
    pub translation: Option<Translation>,
}

impl WalkProbe {
    /// True if the probe reached a leaf mapping.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        self.translation.is_some()
    }

    /// Number of page-table memory accesses the walk performed. The walk
    /// stops at the level of its final access, so the root-first access count
    /// follows directly from that level (L4 → 1, ..., L1 → 4).
    #[must_use]
    pub fn memory_accesses(&self) -> u32 {
        5 - self.last_step.level.as_number()
    }

    /// Number of accesses a PTW whose TPreg/path cache already holds the
    /// L4/L3/L2 entries performs: only the L1 access remains (1 for 4 KB
    /// leaves and 4 KB misses detected at L1, 0 otherwise).
    #[must_use]
    pub fn cached_path_accesses(&self) -> u32 {
        u32::from(self.last_step.level == WalkIndexLevel::L1)
    }
}

/// Aggregate statistics about the page table's structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PageTableStats {
    /// Number of interior table nodes allocated (including the root).
    pub tables: u64,
    /// Number of 4 KB leaf mappings.
    pub leaf_4k: u64,
    /// Number of 2 MB leaf mappings.
    pub leaf_2m: u64,
}

impl PageTableStats {
    /// Total bytes mapped by the table.
    #[must_use]
    pub fn mapped_bytes(&self) -> u64 {
        self.leaf_4k * PageSize::Size4K.bytes() + self.leaf_2m * PageSize::Size2M.bytes()
    }
}

/// Process-wide source of mapped-ness revision stamps. Every draw is unique,
/// so a revision identifies one mapped-ness state of one table: two equal
/// revisions can only be snapshots of the same state (a table and its
/// unmutated clone), never two independently mutated tables that happen to
/// have seen the same number of operations.
static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);

fn fresh_revision() -> u64 {
    NEXT_REVISION.fetch_add(1, Ordering::Relaxed)
}

/// Where a descent from the root starts: the root table, read at L4.
const ROOT_STEP: (TableId, WalkIndexLevel) = (PageTable::ROOT, WalkIndexLevel::L4);

/// The level whose tables hold the leaves of `page_size`.
fn leaf_level(page_size: PageSize) -> WalkIndexLevel {
    match page_size {
        PageSize::Size4K => WalkIndexLevel::L1,
        PageSize::Size2M => WalkIndexLevel::L2,
    }
}

/// A 4-level radix page table with 4 KB and 2 MB leaves.
#[derive(Debug, Clone)]
pub struct PageTable {
    nodes: Vec<TableNode>,
    stats: PageTableStats,
    /// Stamp of the table's current mapped-ness state; see
    /// [`PageTable::revision`].
    revision: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table (root node only).
    #[must_use]
    pub fn new() -> Self {
        PageTable {
            nodes: vec![TableNode::default()],
            stats: PageTableStats {
                tables: 1,
                ..PageTableStats::default()
            },
            revision: fresh_revision(),
        }
    }

    /// Stamp of the table's *mapped-ness* state: re-drawn (from a process-wide
    /// unique source) on every [`PageTable::map_pages`] call that maps at
    /// least one page and every successful [`PageTable::unmap`], and
    /// untouched by [`PageTable::remap`] (migration changes the backing
    /// frame/node but not whether an address is mapped).
    /// A cheap, sound version stamp for mapped-ness memos: equal revisions
    /// guarantee identical `is_mapped` answers for every address — across
    /// tables too, since stamps are never reused (a clone shares its
    /// original's stamp exactly until either mutates, which is precisely when
    /// their mapped-ness states coincide).
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    const ROOT: TableId = TableId(0);

    fn alloc_node(&mut self) -> TableId {
        let id = TableId(self.nodes.len() as u32);
        self.nodes.push(TableNode::default());
        self.stats.tables += 1;
        id
    }

    /// Maps one page of the given size starting at `va` to the frame(s)
    /// beginning at `pfn` on `node`: the one-page case of
    /// [`PageTable::map_pages`].
    ///
    /// # Errors
    ///
    /// * [`VmemError::MisalignedMapping`] if `va` is not aligned to `page_size`.
    /// * [`VmemError::AlreadyMapped`] if any part of the range is mapped.
    pub fn map(
        &mut self,
        va: VirtAddr,
        page_size: PageSize,
        pfn: PhysFrameNum,
        node: MemNode,
    ) -> Result<(), VmemError> {
        self.map_pages(va, page_size, 1, node, || Ok(pfn))
    }

    /// Maps `count` consecutive pages of `page_size` starting at `va` on
    /// `node`, drawing each page's first frame from `next_frame`.
    ///
    /// The run is built one leaf table at a time (512 4 KB entries in an L1
    /// node, 512 2 MB entries in an L2 node): one descent from the root per
    /// leaf table, one reservation of the leaf's entries, then appends in
    /// ascending index order. The result is exactly that of mapping the pages
    /// one by one, drawing each frame just before its page is mapped: the same
    /// frames, the same interior nodes allocated in the same order (so
    /// [`TableId`]s match), and on an error the same failing page, with every
    /// page before it left mapped. The revision is redrawn once per call if
    /// at least one page was mapped.
    ///
    /// # Errors
    ///
    /// * [`VmemError::MisalignedMapping`] if `va` is not aligned to
    ///   `page_size` (checked before any frame is drawn).
    /// * [`VmemError::AlreadyMapped`] at the first page whose entry is
    ///   occupied or that lies under an existing larger leaf.
    /// * Any error of `next_frame`, returned at the page it failed for.
    pub fn map_pages(
        &mut self,
        va: VirtAddr,
        page_size: PageSize,
        count: u64,
        node: MemNode,
        mut next_frame: impl FnMut() -> Result<PhysFrameNum, VmemError>,
    ) -> Result<(), VmemError> {
        if !va.is_aligned(page_size) {
            return Err(VmemError::MisalignedMapping { va, page_size });
        }
        self.map_from(ROOT_STEP, va, page_size, count, node, &mut next_frame)
    }

    /// Maps the page of `page_size` holding the address `miss` probed, on
    /// `node`, with its frame drawn from `next_frame`, and returns the
    /// probed address's new translation: the fault-in path of demand
    /// paging, which has just probed the address and found it unmapped.
    ///
    /// The descent resumes at the step where the probe stopped, so the
    /// levels above it are not walked again. The table, frames, statistics
    /// and revision come out exactly as `map(va.page_base(page_size), ...)`
    /// would leave them, with the same interior nodes allocated in the same
    /// order. `miss` must be a probe of this table, taken since its last
    /// mapping change.
    ///
    /// # Errors
    ///
    /// * [`VmemError::AlreadyMapped`] if the probe hit, or stopped below the
    ///   leaf level of `page_size` (smaller pages already occupy the slot);
    ///   no frame is drawn.
    /// * Any error of `next_frame`; no node is allocated.
    pub fn map_at_miss(
        &mut self,
        miss: &WalkProbe,
        page_size: PageSize,
        node: MemNode,
        next_frame: impl FnOnce() -> Result<PhysFrameNum, VmemError>,
    ) -> Result<Translation, VmemError> {
        let page = miss.va.page_base(page_size);
        let step = miss.last_step;
        if miss.is_hit() || step.level < leaf_level(page_size) {
            return Err(VmemError::AlreadyMapped { vpn: page.vpn() });
        }
        let pfn = next_frame()?;
        self.map_from(
            (step.table, step.level),
            page,
            page_size,
            1,
            node,
            &mut || Ok(pfn),
        )?;
        Ok(Translation::of(miss.va, pfn, page_size, node))
    }

    /// [`PageTable::map_pages`] for an aligned `va`, with the first leaf
    /// table's descent starting at `from`: the redraw of the revision around
    /// [`PageTable::map_leaf_runs`].
    fn map_from(
        &mut self,
        from: (TableId, WalkIndexLevel),
        va: VirtAddr,
        page_size: PageSize,
        count: u64,
        node: MemNode,
        next_frame: &mut impl FnMut() -> Result<PhysFrameNum, VmemError>,
    ) -> Result<(), VmemError> {
        let leaves = |stats: PageTableStats| stats.leaf_4k + stats.leaf_2m;
        let before = leaves(self.stats);
        let result = self.map_leaf_runs(from, va, page_size, count, node, next_frame);
        if leaves(self.stats) != before {
            self.revision = fresh_revision();
        }
        result
    }

    /// The body of [`PageTable::map_pages`]: the first leaf table's descent
    /// starts at `from`, every later one at the root.
    fn map_leaf_runs(
        &mut self,
        mut from: (TableId, WalkIndexLevel),
        va: VirtAddr,
        page_size: PageSize,
        count: u64,
        node: MemNode,
        next_frame: &mut impl FnMut() -> Result<PhysFrameNum, VmemError>,
    ) -> Result<(), VmemError> {
        let leaf_level = leaf_level(page_size);
        let mut page = 0;
        while page < count {
            let run_va = va.add(page * page_size.bytes());
            let first_index = run_va.level_index(leaf_level);
            let run = (count - page).min((ENTRIES_PER_TABLE - usize::from(first_index)) as u64);
            // The first frame is drawn before the descent, as a lone `map`
            // caller would: a failed draw allocates no interior node.
            let mut pfn = next_frame()?;
            let leaf = self.descend(from, run_va, leaf_level)?;
            from = ROOT_STEP;
            let table = &mut self.nodes[leaf.0 as usize];
            // Exact on a fresh leaf; amortized on one that already holds
            // entries, so one-page maps (demand paging) keep doubling.
            table.entries.reserve(run as usize);
            for i in 0..run {
                if i > 0 {
                    pfn = next_frame()?;
                }
                let entry = Entry::Leaf {
                    pfn,
                    node,
                    page_size,
                };
                if !table.try_insert(first_index + i as u16, entry) {
                    let vpn = run_va.add(i * page_size.bytes()).vpn();
                    return Err(VmemError::AlreadyMapped { vpn });
                }
                match page_size {
                    PageSize::Size4K => self.stats.leaf_4k += 1,
                    PageSize::Size2M => self.stats.leaf_2m += 1,
                }
            }
            page += run;
        }
        Ok(())
    }

    /// Descends from the table `from` names (the node read at that level on
    /// the way to `va`) to the table at `leaf_level` covering `va`,
    /// allocating missing interior nodes on the way.
    ///
    /// # Errors
    ///
    /// [`VmemError::AlreadyMapped`] if a larger leaf already covers `va`.
    fn descend(
        &mut self,
        (mut current, from): (TableId, WalkIndexLevel),
        va: VirtAddr,
        leaf_level: WalkIndexLevel,
    ) -> Result<TableId, VmemError> {
        let levels = WalkIndexLevel::WALK_ORDER.into_iter();
        for level in levels.skip_while(|&level| level > from) {
            if level == leaf_level {
                return Ok(current);
            }
            let index = va.level_index(level);
            let existing = self.nodes[current.0 as usize].get(index);
            current = match existing {
                Some(Entry::Table(next)) => next,
                Some(Entry::Leaf { .. }) => {
                    // A larger page already covers this range.
                    return Err(VmemError::AlreadyMapped { vpn: va.vpn() });
                }
                None => {
                    let next = self.alloc_node();
                    self.nodes[current.0 as usize].try_insert(index, Entry::Table(next));
                    next
                }
            };
        }
        unreachable!("walk order always reaches the leaf level");
    }

    /// Removes the mapping covering `va` and returns its previous leaf.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotMapped`] if no mapping covers `va`.
    pub fn unmap(&mut self, va: VirtAddr) -> Result<Translation, VmemError> {
        let probe = self.probe(va);
        let translation = probe.translation.ok_or(VmemError::NotMapped { va })?;
        let leaf_step = probe.last_step;
        self.nodes[leaf_step.table.0 as usize].remove(leaf_step.index);
        match translation.page_size {
            PageSize::Size4K => self.stats.leaf_4k -= 1,
            PageSize::Size2M => self.stats.leaf_2m -= 1,
        }
        self.revision = fresh_revision();
        Ok(translation)
    }

    /// Changes the backing frame/node of an existing mapping (page migration).
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotMapped`] if no mapping covers `va`.
    pub fn remap(
        &mut self,
        va: VirtAddr,
        new_pfn: PhysFrameNum,
        new_node: MemNode,
    ) -> Result<Translation, VmemError> {
        let probe = self.probe(va);
        self.remap_at(&probe, new_pfn, new_node)
    }

    /// Rewrites the leaf a probe of this table hit to back its page with
    /// `new_pfn` on `new_node`, and returns the translation it replaced: the
    /// leaf rewrite of [`PageTable::remap`], for a caller that has just
    /// probed the address (page migration). `hit` must be taken since the
    /// table's last mapping change.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotMapped`] if the probe missed.
    pub fn remap_at(
        &mut self,
        hit: &WalkProbe,
        new_pfn: PhysFrameNum,
        new_node: MemNode,
    ) -> Result<Translation, VmemError> {
        let old = hit.translation.ok_or(VmemError::NotMapped { va: hit.va })?;
        let leaf_step = hit.last_step;
        self.nodes[leaf_step.table.0 as usize].set(
            leaf_step.index,
            Entry::Leaf {
                pfn: new_pfn,
                node: new_node,
                page_size: old.page_size,
            },
        );
        Ok(old)
    }

    /// Probes the page table for `va` without allocating.
    ///
    /// This is the translation hot path: it traverses exactly the entries
    /// [`PageTable::walk`] would but returns a `Copy` [`WalkProbe`] instead of
    /// materializing the step trace.
    #[inline]
    #[must_use]
    pub fn probe(&self, va: VirtAddr) -> WalkProbe {
        let mut current = Self::ROOT;
        for level in WalkIndexLevel::WALK_ORDER {
            let index = va.level_index(level);
            match self.nodes[current.0 as usize].get(index) {
                Some(Entry::Table(next)) => current = next,
                Some(Entry::Leaf {
                    pfn,
                    node,
                    page_size,
                }) => {
                    return WalkProbe {
                        va,
                        last_step: WalkStep {
                            level,
                            table: current,
                            index,
                            outcome: WalkLevel::Leaf { page_size },
                        },
                        translation: Some(Translation::of(va, pfn, page_size, node)),
                    };
                }
                None => {
                    return WalkProbe {
                        va,
                        last_step: WalkStep {
                            level,
                            table: current,
                            index,
                            outcome: WalkLevel::NotPresent,
                        },
                        translation: None,
                    };
                }
            }
        }
        unreachable!("L1 entries are always leaves or absent");
    }

    /// Walks the page table for `va`, reporting every entry access.
    ///
    /// The step trace allocates; simulation hot paths use the trace-free
    /// [`PageTable::probe`] instead and `walk` serves tests, inspection and
    /// the MMU-cache studies that need per-entry access records.
    #[must_use]
    pub fn walk(&self, va: VirtAddr) -> WalkPath {
        let mut steps = Vec::with_capacity(4);
        let mut current = Self::ROOT;
        for level in WalkIndexLevel::WALK_ORDER {
            let index = va.level_index(level);
            match self.nodes[current.0 as usize].get(index) {
                Some(Entry::Table(next)) => {
                    steps.push(WalkStep {
                        level,
                        table: current,
                        index,
                        outcome: WalkLevel::NextTable { next },
                    });
                    current = next;
                }
                Some(Entry::Leaf {
                    pfn,
                    node,
                    page_size,
                }) => {
                    steps.push(WalkStep {
                        level,
                        table: current,
                        index,
                        outcome: WalkLevel::Leaf { page_size },
                    });
                    return WalkPath {
                        va,
                        steps,
                        translation: Some(Translation::of(va, pfn, page_size, node)),
                    };
                }
                None => {
                    steps.push(WalkStep {
                        level,
                        table: current,
                        index,
                        outcome: WalkLevel::NotPresent,
                    });
                    return WalkPath {
                        va,
                        steps,
                        translation: None,
                    };
                }
            }
        }
        WalkPath {
            va,
            steps,
            translation: None,
        }
    }

    /// Walks the page table starting below the L2 level, as a PTW whose
    /// TPreg/translation-path cache already holds the L4/L3/L2 entries would.
    ///
    /// Returns the walk steps actually performed (at most the L1 access for a
    /// 4 KB mapping; an empty step list for a 2 MB mapping whose leaf lives at
    /// L2 and is therefore covered by the cached path). Implemented on the
    /// probe path: only the final entry access can sit at L1, so the step
    /// trace is reconstructed from it without a second traversal.
    #[must_use]
    pub fn walk_from_cached_path(&self, va: VirtAddr) -> WalkPath {
        let probe = self.probe(va);
        let steps = if probe.last_step.level == WalkIndexLevel::L1 {
            vec![probe.last_step]
        } else {
            Vec::new()
        };
        WalkPath {
            va,
            steps,
            translation: probe.translation,
        }
    }

    /// Translates `va` without recording walk steps.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotMapped`] if no mapping covers `va`.
    pub fn translate(&self, va: VirtAddr) -> Result<Translation, VmemError> {
        self.probe(va)
            .translation
            .ok_or(VmemError::NotMapped { va })
    }

    /// True if `va` is covered by a mapping.
    #[must_use]
    pub fn is_mapped(&self, va: VirtAddr) -> bool {
        self.probe(va).is_hit()
    }

    /// Structural statistics of the table.
    #[must_use]
    pub fn stats(&self) -> PageTableStats {
        self.stats
    }
}

/// Number of 4 KB pages needed to cover `bytes`.
#[must_use]
pub fn pages_4k(bytes: u64) -> u64 {
    bytes.div_ceil(1 << PAGE_SHIFT_4K)
}

/// Number of 2 MB pages needed to cover `bytes`.
#[must_use]
pub fn pages_2m(bytes: u64) -> u64 {
    bytes.div_ceil(1 << PAGE_SHIFT_2M)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtPageNum;

    fn map_4k(pt: &mut PageTable, va: u64, pfn: u64) {
        pt.map(
            VirtAddr::new(va),
            PageSize::Size4K,
            PhysFrameNum::new(pfn),
            MemNode::Npu(0),
        )
        .unwrap();
    }

    #[test]
    fn map_and_translate_4k() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x40_0000, 0x99);
        let t = pt.translate(VirtAddr::new(0x40_0123)).unwrap();
        assert_eq!(t.pa.raw(), (0x99 << 12) | 0x123);
        assert_eq!(t.page_size, PageSize::Size4K);
        assert_eq!(t.node, MemNode::Npu(0));
    }

    #[test]
    fn walk_of_4k_mapping_takes_four_accesses() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x40_0000, 0x99);
        let path = pt.walk(VirtAddr::new(0x40_0000));
        assert!(path.is_hit());
        assert_eq!(path.memory_accesses(), 4);
        assert_eq!(path.steps[0].level, WalkIndexLevel::L4);
        assert_eq!(path.steps[3].level, WalkIndexLevel::L1);
        assert!(matches!(
            path.steps[3].outcome,
            WalkLevel::Leaf {
                page_size: PageSize::Size4K
            }
        ));
    }

    #[test]
    fn walk_of_2m_mapping_takes_three_accesses() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(0x20_0000),
            PageSize::Size2M,
            PhysFrameNum::new(0x1000),
            MemNode::Host,
        )
        .unwrap();
        let path = pt.walk(VirtAddr::new(0x20_0000 + 0x1234));
        assert!(path.is_hit());
        assert_eq!(path.memory_accesses(), 3);
        let t = path.translation.unwrap();
        assert_eq!(t.pa.raw(), (0x1000u64 << 12) + 0x1234);
        assert_eq!(t.page_size, PageSize::Size2M);
    }

    #[test]
    fn walk_miss_reports_partial_path() {
        let pt = PageTable::new();
        let path = pt.walk(VirtAddr::new(0x1234_5678));
        assert!(!path.is_hit());
        assert_eq!(path.memory_accesses(), 1);
        assert!(matches!(path.steps[0].outcome, WalkLevel::NotPresent));
    }

    #[test]
    fn misaligned_2m_mapping_rejected() {
        let mut pt = PageTable::new();
        let err = pt
            .map(
                VirtAddr::new(0x1000),
                PageSize::Size2M,
                PhysFrameNum::new(1),
                MemNode::Host,
            )
            .unwrap_err();
        assert!(matches!(err, VmemError::MisalignedMapping { .. }));
    }

    #[test]
    fn double_mapping_rejected() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x1000, 1);
        let err = pt
            .map(
                VirtAddr::new(0x1000),
                PageSize::Size4K,
                PhysFrameNum::new(2),
                MemNode::Host,
            )
            .unwrap_err();
        assert!(matches!(err, VmemError::AlreadyMapped { .. }));
        // Mapping a 4 KB page under an existing 2 MB page is also rejected.
        pt.map(
            VirtAddr::new(0x20_0000),
            PageSize::Size2M,
            PhysFrameNum::new(3),
            MemNode::Host,
        )
        .unwrap();
        let err = pt
            .map(
                VirtAddr::new(0x20_1000),
                PageSize::Size4K,
                PhysFrameNum::new(4),
                MemNode::Host,
            )
            .unwrap_err();
        assert!(matches!(err, VmemError::AlreadyMapped { .. }));
    }

    #[test]
    fn unmap_removes_mapping_and_updates_stats() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x5000, 42);
        assert_eq!(pt.stats().leaf_4k, 1);
        let old = pt.unmap(VirtAddr::new(0x5000)).unwrap();
        assert_eq!(old.pfn.raw(), 42);
        assert_eq!(pt.stats().leaf_4k, 0);
        assert!(!pt.is_mapped(VirtAddr::new(0x5000)));
        assert!(matches!(
            pt.unmap(VirtAddr::new(0x5000)),
            Err(VmemError::NotMapped { .. })
        ));
    }

    #[test]
    fn remap_changes_frame_and_node() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x5000, 42);
        let old = pt
            .remap(
                VirtAddr::new(0x5000),
                PhysFrameNum::new(100),
                MemNode::Npu(3),
            )
            .unwrap();
        assert_eq!(old.pfn.raw(), 42);
        let t = pt.translate(VirtAddr::new(0x5abc)).unwrap();
        assert_eq!(t.pfn.raw(), 100);
        assert_eq!(t.node, MemNode::Npu(3));
        assert_eq!(t.pa.raw(), (100u64 << 12) | 0xabc);
    }

    #[test]
    fn adjacent_pages_share_upper_tables() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x10_0000, 1);
        let tables_after_first = pt.stats().tables;
        map_4k(&mut pt, 0x10_1000, 2);
        // The second page is in the same L1 table: no new interior nodes.
        assert_eq!(pt.stats().tables, tables_after_first);
        let a = pt.walk(VirtAddr::new(0x10_0000));
        let b = pt.walk(VirtAddr::new(0x10_1000));
        for i in 0..3 {
            assert_eq!(a.steps[i].table, b.steps[i].table);
        }
    }

    #[test]
    fn walk_from_cached_path_skips_upper_levels() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x40_0000, 7);
        let partial = pt.walk_from_cached_path(VirtAddr::new(0x40_0000));
        assert!(partial.is_hit());
        assert_eq!(partial.memory_accesses(), 1);
        pt.map(
            VirtAddr::new(0x8000_0000),
            PageSize::Size2M,
            PhysFrameNum::new(0x2000),
            MemNode::Host,
        )
        .unwrap();
        let partial2m = pt.walk_from_cached_path(VirtAddr::new(0x8000_0000));
        assert!(partial2m.is_hit());
        assert_eq!(partial2m.memory_accesses(), 0);
    }

    #[test]
    fn stats_mapped_bytes() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x1000, 1);
        pt.map(
            VirtAddr::new(0x20_0000),
            PageSize::Size2M,
            PhysFrameNum::new(512),
            MemNode::Host,
        )
        .unwrap();
        assert_eq!(pt.stats().mapped_bytes(), 4096 + 2 * 1024 * 1024);
    }

    #[test]
    fn page_count_helpers() {
        assert_eq!(pages_4k(1), 1);
        assert_eq!(pages_4k(4096), 1);
        assert_eq!(pages_4k(4097), 2);
        assert_eq!(pages_2m(2 * 1024 * 1024 + 1), 2);
    }

    #[test]
    fn probe_agrees_with_walk_on_hits_misses_and_both_page_sizes() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x40_0000, 0x99);
        pt.map(
            VirtAddr::new(0x8000_0000),
            PageSize::Size2M,
            PhysFrameNum::new(0x2000),
            MemNode::Host,
        )
        .unwrap();
        for raw in [
            0x40_0000u64,     // 4 KB hit
            0x40_0123,        // 4 KB hit, interior offset
            0x8000_0000,      // 2 MB hit
            0x8012_3456,      // 2 MB hit, interior offset
            0x40_1000,        // miss at L1 (sibling page)
            0x1234_5678,      // miss at an upper level
            0x0007_ffff_f000, // miss far away
        ] {
            let va = VirtAddr::new(raw);
            let probe = pt.probe(va);
            let walk = pt.walk(va);
            assert_eq!(probe.is_hit(), walk.is_hit(), "hit mismatch at {va}");
            assert_eq!(
                probe.memory_accesses(),
                walk.memory_accesses(),
                "access-count mismatch at {va}"
            );
            assert_eq!(probe.translation, walk.translation, "leaf mismatch at {va}");
            assert_eq!(
                Some(&probe.last_step),
                walk.steps.last(),
                "final step mismatch at {va}"
            );
        }
    }

    #[test]
    fn probe_cached_path_accesses_match_walk_from_cached_path() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x40_0000, 7);
        pt.map(
            VirtAddr::new(0x8000_0000),
            PageSize::Size2M,
            PhysFrameNum::new(0x2000),
            MemNode::Host,
        )
        .unwrap();
        for raw in [0x40_0000u64, 0x8000_0000, 0x40_1000, 0x1234_5678] {
            let va = VirtAddr::new(raw);
            let probe = pt.probe(va);
            let partial = pt.walk_from_cached_path(va);
            assert_eq!(probe.cached_path_accesses(), partial.memory_accesses());
            assert_eq!(probe.translation, partial.translation);
        }
    }

    #[test]
    fn revision_changes_on_map_and_unmap_but_not_remap() {
        let mut pt = PageTable::new();
        let fresh = pt.revision();
        map_4k(&mut pt, 0x1000, 1);
        let after_map = pt.revision();
        assert_ne!(after_map, fresh);
        // Failed maps leave the revision alone.
        assert!(pt
            .map(
                VirtAddr::new(0x1000),
                PageSize::Size4K,
                PhysFrameNum::new(2),
                MemNode::Host
            )
            .is_err());
        assert_eq!(pt.revision(), after_map);
        // Migration does not change mapped-ness.
        pt.remap(VirtAddr::new(0x1000), PhysFrameNum::new(9), MemNode::Npu(1))
            .unwrap();
        assert_eq!(pt.revision(), after_map);
        pt.unmap(VirtAddr::new(0x1000)).unwrap();
        let after_unmap = pt.revision();
        assert_ne!(after_unmap, after_map);
        assert!(pt.unmap(VirtAddr::new(0x1000)).is_err());
        assert_eq!(pt.revision(), after_unmap);
    }

    #[test]
    fn revisions_are_unique_across_tables_and_track_clone_divergence() {
        // Two tables that saw the same number of mutations must not share a
        // stamp — equal revisions promise identical mapped-ness everywhere.
        let mut a = PageTable::new();
        let mut b = PageTable::new();
        assert_ne!(a.revision(), b.revision());
        map_4k(&mut a, 0x1000, 1);
        map_4k(&mut b, 0x2000, 2);
        assert_ne!(a.revision(), b.revision());
        // A clone shares the stamp exactly while the states coincide...
        let mut c = a.clone();
        assert_eq!(c.revision(), a.revision());
        // ...and diverges as soon as either mutates.
        map_4k(&mut c, 0x3000, 3);
        assert_ne!(c.revision(), a.revision());
    }

    /// Maps `count` 4 KB pages from `va` through `map_pages`, numbering the
    /// drawn frames from 1000; returns the result and the frames drawn.
    fn map_run_4k(pt: &mut PageTable, va: u64, count: u64) -> (Result<(), VmemError>, u64) {
        let mut drawn = 0;
        let result = pt.map_pages(
            VirtAddr::new(va),
            PageSize::Size4K,
            count,
            MemNode::Host,
            || {
                drawn += 1;
                Ok(PhysFrameNum::new(999 + drawn))
            },
        );
        (result, drawn)
    }

    #[test]
    fn map_pages_stops_at_an_occupied_page_and_keeps_the_prefix() {
        let mut pt = PageTable::new();
        // Page 700 of the run, in its second leaf table, is already mapped.
        map_4k(&mut pt, 700 << 12, 7);
        let revision = pt.revision();
        let (result, drawn) = map_run_4k(&mut pt, 0, 1000);
        assert_eq!(
            result,
            Err(VmemError::AlreadyMapped {
                vpn: VirtPageNum::new(700)
            })
        );
        // Every page up to and including the failing one drew its frame.
        assert_eq!(drawn, 701);
        assert_eq!(pt.stats().leaf_4k, 701);
        assert_ne!(pt.revision(), revision);
        for page in 0..700 {
            assert_eq!(
                pt.translate(VirtAddr::new(page << 12)).unwrap().pfn.raw(),
                1000 + page
            );
        }
        assert_eq!(pt.translate(VirtAddr::new(700 << 12)).unwrap().pfn.raw(), 7);
        assert!(!pt.is_mapped(VirtAddr::new(701 << 12)));
    }

    #[test]
    fn map_pages_stops_under_an_existing_2mb_leaf() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(0x20_0000),
            PageSize::Size2M,
            PhysFrameNum::new(512),
            MemNode::Host,
        )
        .unwrap();
        // A 4 KB run from 1 MB runs into the 2 MB page at its 257th page.
        let (result, drawn) = map_run_4k(&mut pt, 0x10_0000, 600);
        assert_eq!(
            result,
            Err(VmemError::AlreadyMapped {
                vpn: VirtAddr::new(0x20_0000).vpn()
            })
        );
        assert_eq!(drawn, 257);
        assert_eq!(pt.stats().leaf_4k, 256);
        assert_eq!(pt.stats().leaf_2m, 1);
    }

    #[test]
    fn map_pages_stops_at_a_failed_frame_draw_before_descending() {
        let mut pt = PageTable::new();
        let oom = VmemError::OutOfMemory {
            node: MemNode::Host,
            frames_requested: 1,
        };
        // Frames run out exactly at the first page of the second leaf table.
        let mut left = 512u64;
        let result = pt.map_pages(
            VirtAddr::new(0),
            PageSize::Size4K,
            600,
            MemNode::Host,
            || {
                left = left.checked_sub(1).ok_or(oom.clone())?;
                Ok(PhysFrameNum::new(left))
            },
        );
        assert_eq!(result, Err(oom));
        assert_eq!(pt.stats().leaf_4k, 512);
        // Root, L3, L2 and one L1 node: the failed page allocated no table.
        assert_eq!(pt.stats().tables, 4);
        assert!(pt.is_mapped(VirtAddr::new(511 << 12)));
        assert!(!pt.is_mapped(VirtAddr::new(512 << 12)));
    }

    #[test]
    fn map_pages_that_map_nothing_keep_the_revision() {
        let mut pt = PageTable::new();
        let revision = pt.revision();
        assert_eq!(map_run_4k(&mut pt, 0x1000, 0), (Ok(()), 0));
        // A misaligned run is rejected before any frame is drawn.
        let (result, drawn) = map_run_4k(&mut pt, 0x1234, 4);
        assert!(matches!(result, Err(VmemError::MisalignedMapping { .. })));
        assert_eq!(drawn, 0);
        map_4k(&mut pt, 0x1000, 1);
        let revision_after_map = pt.revision();
        assert_ne!(revision_after_map, revision);
        // A run failing at its first page maps nothing.
        assert!(map_run_4k(&mut pt, 0x1000, 4).0.is_err());
        assert_eq!(pt.revision(), revision_after_map);
        assert_eq!(pt.stats().leaf_4k, 1);
    }

    #[test]
    fn map_at_miss_builds_what_map_builds_from_every_missed_level() {
        // One 4 KB page at 4 MB: L4 and L3 index 0, L2 index 2, L1 index 0.
        let mut base = PageTable::new();
        map_4k(&mut base, 0x40_0000, 1);
        let cases = [
            (1u64 << 39, PageSize::Size4K, WalkIndexLevel::L4),
            (1 << 30, PageSize::Size4K, WalkIndexLevel::L3),
            (0x60_0000, PageSize::Size4K, WalkIndexLevel::L2),
            (0x40_1000, PageSize::Size4K, WalkIndexLevel::L1),
            (0x80_0000, PageSize::Size2M, WalkIndexLevel::L2),
        ];
        for (raw, page_size, missed_at) in cases {
            let va = VirtAddr::new(raw + 0x123);
            let node = MemNode::Npu(1);
            let mut want = base.clone();
            want.map(
                va.page_base(page_size),
                page_size,
                PhysFrameNum::new(512),
                node,
            )
            .unwrap();
            let mut got = base.clone();
            let miss = got.probe(va);
            assert_eq!(miss.last_step.level, missed_at, "{va}");
            let translation = got
                .map_at_miss(&miss, page_size, node, || Ok(PhysFrameNum::new(512)))
                .unwrap();
            assert_eq!(Ok(translation), want.translate(va), "{va}");
            assert_eq!(got.walk(va), want.walk(va), "{va}");
            assert_eq!(got.stats(), want.stats(), "{va}");
            assert_ne!(got.revision(), base.revision(), "{va}");
            // The next allocated node gets the same id on both tables.
            map_4k(&mut got, 0x7f_0000_0000, 9);
            map_4k(&mut want, 0x7f_0000_0000, 9);
            assert_eq!(
                got.walk(VirtAddr::new(0x7f_0000_0000)),
                want.walk(VirtAddr::new(0x7f_0000_0000))
            );
        }
    }

    #[test]
    fn map_at_miss_rejects_hits_and_slots_of_smaller_pages_before_drawing() {
        let mut pt = PageTable::new();
        map_4k(&mut pt, 0x40_0000, 1);
        let (stats, revision) = (pt.stats(), pt.revision());
        let no_frame = || -> Result<PhysFrameNum, VmemError> { panic!("no frame may be drawn") };
        // A hit, and a 2 MB page whose probe stopped at the L1 table below.
        for (raw, page_size) in [(0x40_0000, PageSize::Size4K), (0x40_1000, PageSize::Size2M)] {
            let miss = pt.probe(VirtAddr::new(raw));
            assert_eq!(
                pt.map_at_miss(&miss, page_size, MemNode::Host, no_frame),
                Err(VmemError::AlreadyMapped {
                    vpn: VirtAddr::new(raw).page_base(page_size).vpn()
                })
            );
        }
        // A failed draw allocates no node.
        let miss = pt.probe(VirtAddr::new(1 << 39));
        let oom = VmemError::OutOfMemory {
            node: MemNode::Host,
            frames_requested: 1,
        };
        assert_eq!(
            pt.map_at_miss(&miss, PageSize::Size4K, MemNode::Host, || Err(oom.clone())),
            Err(oom.clone())
        );
        assert_eq!((pt.stats(), pt.revision()), (stats, revision));
    }

    /// A node holding `indices` (sorted, distinct), each pointing at a table.
    fn node_of(indices: impl IntoIterator<Item = u16>) -> TableNode {
        TableNode {
            entries: indices
                .into_iter()
                .map(|i| (i, Entry::Table(TableId(u32::from(i)))))
                .collect(),
        }
    }

    #[test]
    fn slot_of_edges() {
        assert_eq!(node_of([]).slot_of(0), Err(0));
        let node = node_of([5, 6, 7]);
        // Below the first index, and past the last entry.
        assert_eq!(node.slot_of(0), Err(0));
        assert_eq!(node.slot_of(4), Err(0));
        assert_eq!(node.slot_of(8), Err(3));
        assert_eq!(node.slot_of(511), Err(3));
        assert_eq!(node.slot_of(6), Ok(1));
        // The first gap after a contiguous prefix, and the entries past it.
        let node = node_of([0, 1, 2, 3, 7, 8, 9]);
        assert_eq!(node.slot_of(3), Ok(3));
        assert_eq!(node.slot_of(4), Err(4));
        assert_eq!(node.slot_of(6), Err(4));
        assert_eq!(node.slot_of(7), Ok(4));
        assert_eq!(node.slot_of(9), Ok(6));
        // The direct slot holds a larger index and the match lies before it.
        let node = node_of([0, 5, 6, 7, 8, 9, 10]);
        assert_eq!(node.slot_of(5), Ok(1));
        assert_eq!(node.slot_of(6), Ok(2));
        assert_eq!(node.slot_of(4), Err(1));
        // A full node.
        let node = node_of(0..512);
        assert_eq!(node.slot_of(0), Ok(0));
        assert_eq!(node.slot_of(511), Ok(511));
    }

    #[test]
    fn slot_of_matches_binary_search_on_every_index() {
        let shapes = [
            node_of([]),
            node_of([0]),
            node_of([511]),
            node_of(0..512),
            node_of(100..300),
            node_of((0..4).chain(7..10)),
            node_of([0].into_iter().chain(5..=10)),
            node_of((0..512).step_by(3)),
            node_of((0..512).filter(|i| (i * 37) % 11 < 7)),
        ];
        for node in &shapes {
            for index in 0..512 {
                let want = node.entries.binary_search_by_key(&index, |&(i, _)| i);
                assert_eq!(node.slot_of(index), want, "index {index}");
            }
        }
    }

    #[test]
    fn table_ids_have_distinct_synthetic_addresses() {
        let a = TableId(0).phys_addr();
        let b = TableId(1).phys_addr();
        assert_ne!(a, b);
        assert_eq!(b.raw() - a.raw(), 4096);
    }
}
