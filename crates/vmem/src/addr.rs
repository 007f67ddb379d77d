//! Typed virtual and physical addresses, page numbers and page sizes.
//!
//! The NeuMMU paper assumes an x86-64 style virtual memory layout: 48-bit
//! canonical virtual addresses, 4 KB baseline pages, optional 2 MB large pages,
//! and a 4-level radix page table indexed by four 9-bit fields (L4..L1).
//! This module defines the strongly typed address vocabulary used everywhere
//! else in the workspace.

use std::fmt;

use serde::Serialize;

/// Number of index bits per radix-tree level (x86-64 uses 9).
pub const LEVEL_INDEX_BITS: u32 = 9;
/// Number of entries in one page-table node (2^9 = 512).
pub const ENTRIES_PER_TABLE: usize = 1 << LEVEL_INDEX_BITS;
/// Number of virtual-address bits actually translated (x86-64 uses 48).
pub const VA_BITS: u32 = 48;
/// Shift of a baseline 4 KB page.
pub const PAGE_SHIFT_4K: u32 = 12;
/// Shift of a 2 MB large page.
pub const PAGE_SHIFT_2M: u32 = 21;

/// Supported page sizes.
///
/// The paper evaluates baseline 4 KB pages throughout Sections IV and V and
/// revisits 2 MB large pages in Section VI-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum PageSize {
    /// Baseline 4 KB page (leaf at L1).
    Size4K,
    /// 2 MB large page (leaf at L2).
    Size2M,
}

impl PageSize {
    /// Size of the page in bytes.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 1 << PAGE_SHIFT_4K,
            PageSize::Size2M => 1 << PAGE_SHIFT_2M,
        }
    }

    /// log2 of the page size.
    #[must_use]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => PAGE_SHIFT_4K,
            PageSize::Size2M => PAGE_SHIFT_2M,
        }
    }

    /// Mask selecting the page-offset bits.
    #[must_use]
    pub const fn offset_mask(self) -> u64 {
        self.bytes() - 1
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KB"),
            PageSize::Size2M => write!(f, "2MB"),
        }
    }
}

/// A virtual address in a device (NPU) or host address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct VirtAddr(u64);

/// A physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct PhysAddr(u64);

/// A virtual page number: the virtual address shifted right by the 4 KB page
/// shift. Virtual page numbers are always expressed in 4 KB units, even when a
/// region is backed by 2 MB pages, so that TLB/PTS tagging is uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct VirtPageNum(u64);

/// A physical frame number in 4 KB units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct PhysFrameNum(u64);

impl VirtAddr {
    /// Creates a virtual address from a raw value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the address uses more than [`VA_BITS`] bits;
    /// the simulator never produces non-canonical addresses.
    #[inline]
    #[must_use]
    pub fn new(raw: u64) -> Self {
        debug_assert!(
            raw < (1u64 << VA_BITS),
            "virtual address {raw:#x} exceeds the {VA_BITS}-bit canonical range"
        );
        VirtAddr(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Virtual page number (4 KB granularity).
    #[must_use]
    pub const fn vpn(self) -> VirtPageNum {
        VirtPageNum(self.0 >> PAGE_SHIFT_4K)
    }

    /// Page number at the given page size granularity.
    #[must_use]
    pub const fn page_number(self, size: PageSize) -> u64 {
        self.0 >> size.shift()
    }

    /// Offset within a page of the given size.
    #[must_use]
    pub const fn page_offset(self, size: PageSize) -> u64 {
        self.0 & size.offset_mask()
    }

    /// Address rounded down to the containing page boundary.
    #[must_use]
    pub const fn page_base(self, size: PageSize) -> VirtAddr {
        VirtAddr(self.0 & !size.offset_mask())
    }

    /// Radix-tree index at the given walk level.
    ///
    /// Level 4 is the root (bits 47..39), level 1 is the leaf level for 4 KB
    /// pages (bits 20..12).
    #[inline]
    #[must_use]
    pub fn level_index(self, level: WalkIndexLevel) -> u16 {
        let shift = PAGE_SHIFT_4K + LEVEL_INDEX_BITS * (level.as_number() - 1);
        ((self.0 >> shift) & ((1 << LEVEL_INDEX_BITS) - 1)) as u16
    }

    /// Returns the address advanced by `bytes`.
    // Named `add` for call-site readability; the byte-offset semantics differ
    // from `ops::Add` (no `VirtAddr + VirtAddr`), so the trait is not implemented.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    #[must_use]
    pub fn add(self, bytes: u64) -> VirtAddr {
        VirtAddr::new(self.0 + bytes)
    }

    /// Byte distance from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier > self`.
    #[cfg(test)]
    #[must_use]
    pub fn offset_from(self, earlier: VirtAddr) -> u64 {
        assert!(
            earlier.0 <= self.0,
            "offset_from called with a later address ({:#x} > {:#x})",
            earlier.0,
            self.0
        );
        self.0 - earlier.0
    }

    /// True if the address is aligned to the given page size.
    #[must_use]
    pub const fn is_aligned(self, size: PageSize) -> bool {
        self.0 & size.offset_mask() == 0
    }

    /// Rounds the address up to the next boundary of the given page size.
    #[must_use]
    pub const fn align_up(self, size: PageSize) -> VirtAddr {
        let mask = size.offset_mask();
        VirtAddr((self.0 + mask) & !mask)
    }
}

impl PhysAddr {
    /// Creates a physical address from a raw value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Physical frame number (4 KB granularity).
    #[must_use]
    pub const fn pfn(self) -> PhysFrameNum {
        PhysFrameNum(self.0 >> PAGE_SHIFT_4K)
    }
}

impl VirtPageNum {
    /// Creates a virtual page number from its raw value (4 KB units).
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        VirtPageNum(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// First virtual address of the page.
    #[must_use]
    pub fn base_addr(self) -> VirtAddr {
        VirtAddr::new(self.0 << PAGE_SHIFT_4K)
    }

    /// The page number of the containing 2 MB region.
    #[cfg(test)]
    #[must_use]
    pub const fn huge_page_number(self) -> u64 {
        self.0 >> (PAGE_SHIFT_2M - PAGE_SHIFT_4K)
    }

    /// Next page number.
    #[must_use]
    pub const fn next(self) -> VirtPageNum {
        VirtPageNum(self.0 + 1)
    }
}

impl PhysFrameNum {
    /// Creates a physical frame number from its raw value (4 KB units).
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        PhysFrameNum(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// First physical address of the frame.
    #[must_use]
    pub const fn base_addr(self) -> PhysAddr {
        PhysAddr::new(self.0 << PAGE_SHIFT_4K)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

impl fmt::Display for VirtPageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

impl fmt::Display for PhysFrameNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

impl From<VirtAddr> for u64 {
    fn from(value: VirtAddr) -> Self {
        value.0
    }
}

impl From<PhysAddr> for u64 {
    fn from(value: PhysAddr) -> Self {
        value.0
    }
}

/// Identifies a radix-tree indexing level of the virtual address.
///
/// x86-64 names these PML4 (level 4) down to the page table (level 1). The
/// paper's TPreg caches the L4/L3/L2 components of the most recent walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum WalkIndexLevel {
    /// Leaf level for 4 KB pages (bits 20..12).
    L1,
    /// Leaf level for 2 MB pages (bits 29..21).
    L2,
    /// Page-directory-pointer level (bits 38..30).
    L3,
    /// Root level (bits 47..39).
    L4,
}

impl WalkIndexLevel {
    /// All levels ordered from root (L4) to leaf (L1), i.e. walk order.
    pub const WALK_ORDER: [WalkIndexLevel; 4] = [
        WalkIndexLevel::L4,
        WalkIndexLevel::L3,
        WalkIndexLevel::L2,
        WalkIndexLevel::L1,
    ];

    /// Numeric level (4 for the root, 1 for the 4 KB leaf level).
    #[must_use]
    pub const fn as_number(self) -> u32 {
        match self {
            WalkIndexLevel::L1 => 1,
            WalkIndexLevel::L2 => 2,
            WalkIndexLevel::L3 => 3,
            WalkIndexLevel::L4 => 4,
        }
    }

    /// Constructs a level from its numeric value.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=4`.
    #[cfg(test)]
    #[must_use]
    pub fn from_number(n: u32) -> Self {
        match n {
            1 => WalkIndexLevel::L1,
            2 => WalkIndexLevel::L2,
            3 => WalkIndexLevel::L3,
            4 => WalkIndexLevel::L4,
            _ => panic!("page-table level {n} out of range 1..=4"),
        }
    }
}

impl fmt::Display for WalkIndexLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.as_number())
    }
}

/// The L4/L3/L2 index triple of a virtual address.
///
/// Two addresses with identical triples share the entire upper translation
/// path; this is precisely the tag the paper's TPreg and TPC structures use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PathTag {
    /// Root-level (L4) index.
    pub l4: u16,
    /// L3 index.
    pub l3: u16,
    /// L2 index.
    pub l2: u16,
}

impl PathTag {
    /// Extracts the path tag of a virtual address.
    #[inline]
    #[must_use]
    pub fn of(va: VirtAddr) -> Self {
        PathTag {
            l4: va.level_index(WalkIndexLevel::L4),
            l3: va.level_index(WalkIndexLevel::L3),
            l2: va.level_index(WalkIndexLevel::L2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_constants() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Size4K.to_string(), "4KB");
        assert_eq!(PageSize::Size2M.to_string(), "2MB");
    }

    #[test]
    fn virt_addr_page_decomposition() {
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(va.vpn().raw(), 0x12345);
        assert_eq!(va.page_offset(PageSize::Size4K), 0x678);
        assert_eq!(va.page_base(PageSize::Size4K).raw(), 0x1234_5000);
        assert_eq!(va.page_offset(PageSize::Size2M), 0x14_5678);
        assert_eq!(va.page_base(PageSize::Size2M).raw(), 0x1220_0000);
    }

    #[test]
    fn level_index_extraction_matches_manual_bit_slicing() {
        // Construct an address with known 9-bit indices: L4=5, L3=6, L2=7, L1=8.
        let raw: u64 = (5u64 << 39) | (6u64 << 30) | (7u64 << 21) | (8u64 << 12) | 0xabc;
        let va = VirtAddr::new(raw);
        assert_eq!(va.level_index(WalkIndexLevel::L4), 5);
        assert_eq!(va.level_index(WalkIndexLevel::L3), 6);
        assert_eq!(va.level_index(WalkIndexLevel::L2), 7);
        assert_eq!(va.level_index(WalkIndexLevel::L1), 8);
        assert_eq!(va.page_offset(PageSize::Size4K), 0xabc);
    }

    #[test]
    fn path_tag_equality_tracks_upper_bits_only() {
        let a = VirtAddr::new((3u64 << 39) | (1u64 << 30) | (2u64 << 21) | (10u64 << 12));
        let b = VirtAddr::new((3u64 << 39) | (1u64 << 30) | (2u64 << 21) | (511u64 << 12));
        let c = VirtAddr::new((3u64 << 39) | (1u64 << 30) | (3u64 << 21) | (10u64 << 12));
        assert_eq!(PathTag::of(a), PathTag::of(b));
        assert_ne!(PathTag::of(a), PathTag::of(c));
    }

    #[test]
    fn alignment_helpers() {
        let va = VirtAddr::new(0x1001);
        assert!(!va.is_aligned(PageSize::Size4K));
        assert_eq!(va.align_up(PageSize::Size4K).raw(), 0x2000);
        assert!(VirtAddr::new(0x20_0000).is_aligned(PageSize::Size2M));
        assert_eq!(VirtAddr::new(0).align_up(PageSize::Size2M).raw(), 0);
    }

    #[test]
    fn vpn_and_pfn_roundtrip() {
        let vpn = VirtPageNum::new(0x4_2000);
        assert_eq!(vpn.base_addr().vpn(), vpn);
        assert_eq!(vpn.next().raw(), 0x4_2001);
        let pfn = PhysFrameNum::new(77);
        assert_eq!(pfn.base_addr().pfn(), pfn);
        assert_eq!(pfn.base_addr().raw(), 77 * 4096);
    }

    #[test]
    fn huge_page_number_groups_512_small_pages() {
        let a = VirtPageNum::new(512);
        let b = VirtPageNum::new(1023);
        let c = VirtPageNum::new(1024);
        assert_eq!(a.huge_page_number(), 1);
        assert_eq!(b.huge_page_number(), 1);
        assert_eq!(c.huge_page_number(), 2);
    }

    #[test]
    fn offset_from_and_add() {
        let base = VirtAddr::new(0x10_0000);
        let later = base.add(0x234);
        assert_eq!(later.offset_from(base), 0x234);
    }

    #[test]
    #[should_panic(expected = "later address")]
    fn offset_from_panics_when_reversed() {
        let base = VirtAddr::new(0x10_0000);
        let later = base.add(0x234);
        let _ = base.offset_from(later);
    }

    #[test]
    fn walk_index_level_numbers_roundtrip() {
        for n in 1..=4 {
            assert_eq!(WalkIndexLevel::from_number(n).as_number(), n);
        }
        assert_eq!(WalkIndexLevel::WALK_ORDER[0], WalkIndexLevel::L4);
        assert_eq!(WalkIndexLevel::WALK_ORDER[3], WalkIndexLevel::L1);
    }
}
