//! MMU-cache design points: the unified page-table cache (UPTC) and the
//! translation path cache (TPC).
//!
//! Section IV-C of the paper compares two classic translation-caching
//! organizations before settling on the single-entry-per-walker TPreg:
//!
//! * the **UPTC** keeps individual page-table entries, tagged by the entry's
//!   *physical* address, in one unified cache shared by all levels (the
//!   organization associated with AMD processors), and
//! * the **TPC** keeps whole upper paths (the L4/L3/L2 entries concatenated),
//!   tagged by the *virtual* L4/L3/L2 indices (the organization associated
//!   with Intel processors).
//!
//! Both are driven with the sequence of page-table walks an engine performs,
//! each given as the entries it read (the steps
//! [`neummu_vmem::PageTable::probe_with`] visits); they report how many
//! memory accesses each walk can skip and their hit rates, reproducing the
//! design-space numbers quoted in the paper (TPC is more effective at
//! capturing NPU translation locality and eliminates more walks than UPTC).

use serde::Serialize;

use neummu_vmem::{PathTag, VirtAddr, WalkIndexLevel, WalkStep};

/// Which MMU-cache organization a [`WalkCache`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MmuCacheKind {
    /// Unified page-table cache (physically tagged individual entries).
    Uptc,
    /// Translation path cache (virtually tagged upper paths).
    Tpc,
}

/// The outcome of probing an MMU cache with one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WalkCacheOutcome {
    /// Page-table levels whose memory reads the cache eliminated.
    pub skipped_levels: u32,
    /// Page-table levels that still had to be read from memory.
    pub levels_read: u32,
}

/// Common interface of the UPTC and TPC models.
pub trait WalkCache {
    /// Probes the cache with the walk of `va`, whose entry reads are `steps`
    /// (root first), updates its contents, and returns how many level reads
    /// were skipped.
    fn access(&mut self, va: VirtAddr, steps: &[WalkStep]) -> WalkCacheOutcome;

    /// Which organization this cache implements.
    fn kind(&self) -> MmuCacheKind;

    /// Entry-lookup hit rate observed so far.
    fn hit_rate(&self) -> f64;

    /// Total page-table memory accesses eliminated so far.
    fn skipped_accesses(&self) -> u64;
}

/// Least-recently-used bookkeeping shared by both cache models.
///
/// Entries live in parallel vectors rather than a hash map: the capacities
/// modelled here are tiny (the study sweep uses 16 entries, the TPreg one),
/// linear probes are cheaper than hashing at that size, and — the property
/// `neummu_lint` rule D001 enforces — every traversal visits entries in a
/// deterministic order instead of `RandomState` hash order. Eviction picks
/// the unique stamp minimum, so victims are identical to the previous
/// hash-map implementation's.
#[derive(Debug, Clone, Default, Serialize)]
struct LruCore<K: PartialEq + Clone> {
    keys: Vec<K>,
    stamps: Vec<u64>,
    capacity: usize,
    stamp: u64,
}

impl<K: PartialEq + Clone> LruCore<K> {
    fn new(capacity: usize) -> Self {
        LruCore {
            keys: Vec::new(),
            stamps: Vec::new(),
            capacity,
            stamp: 0,
        }
    }

    fn position(&self, key: &K) -> Option<usize> {
        self.keys.iter().position(|k| k == key)
    }

    fn touch_at(&mut self, index: usize) {
        self.stamp += 1;
        self.stamps[index] = self.stamp;
    }

    fn contains_and_touch(&mut self, key: &K) -> bool {
        self.stamp += 1;
        match self.position(key) {
            Some(i) => {
                self.stamps[i] = self.stamp;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, key: K) {
        self.stamp += 1;
        if let Some(i) = self.position(&key) {
            self.stamps[i] = self.stamp;
            return;
        }
        if self.keys.len() >= self.capacity {
            if let Some(victim) = self
                .stamps
                .iter()
                .enumerate()
                .min_by_key(|(_, stamp)| **stamp)
                .map(|(i, _)| i)
            {
                self.keys.swap_remove(victim);
                self.stamps.swap_remove(victim);
            }
        }
        self.keys.push(key);
        self.stamps.push(self.stamp);
    }
}

/// A unified page-table cache: individual entries tagged by physical address.
#[derive(Debug, Clone, Serialize)]
pub struct UnifiedPageTableCache {
    lru: LruCore<(u32, u16)>,
    lookups: u64,
    hits: u64,
    skipped: u64,
}

impl UnifiedPageTableCache {
    /// Creates a UPTC with the given entry count.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        UnifiedPageTableCache {
            lru: LruCore::new(entries.max(1)),
            lookups: 0,
            hits: 0,
            skipped: 0,
        }
    }
}

impl WalkCache for UnifiedPageTableCache {
    fn access(&mut self, _va: VirtAddr, steps: &[WalkStep]) -> WalkCacheOutcome {
        let mut skipped = 0u32;
        let mut read = 0u32;
        for step in steps {
            // The leaf (L1) entry is never cached by an MMU cache; it is what
            // the walk produces.
            if step.level == WalkIndexLevel::L1 {
                read += 1;
                continue;
            }
            let key = (step.table.index(), step.index);
            self.lookups += 1;
            if self.lru.contains_and_touch(&key) {
                self.hits += 1;
                skipped += 1;
            } else {
                read += 1;
                self.lru.insert(key);
            }
        }
        self.skipped += u64::from(skipped);
        WalkCacheOutcome {
            skipped_levels: skipped,
            levels_read: read,
        }
    }

    fn kind(&self) -> MmuCacheKind {
        MmuCacheKind::Uptc
    }

    fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    fn skipped_accesses(&self) -> u64 {
        self.skipped
    }
}

/// A translation path cache: whole upper paths tagged by virtual indices.
#[derive(Debug, Clone, Serialize)]
pub struct TranslationPathCache {
    lru: LruCore<(u16, u16, u16)>,
    lookups: u64,
    /// Hits at each depth: [L4-only, L4+L3, full path].
    depth_hits: [u64; 3],
    skipped: u64,
}

impl TranslationPathCache {
    /// Creates a TPC with the given entry count (1 entry models the TPreg).
    #[must_use]
    pub fn new(entries: usize) -> Self {
        TranslationPathCache {
            lru: LruCore::new(entries.max(1)),
            lookups: 0,
            depth_hits: [0; 3],
            skipped: 0,
        }
    }

    /// Tag-match rates at the L4/L3/L2 indices (the quantities of Figure 13).
    #[must_use]
    pub fn depth_hit_rates(&self) -> (f64, f64, f64) {
        if self.lookups == 0 {
            return (0.0, 0.0, 0.0);
        }
        let total = self.lookups as f64;
        (
            self.depth_hits[0] as f64 / total,
            self.depth_hits[1] as f64 / total,
            self.depth_hits[2] as f64 / total,
        )
    }

    fn best_match(&mut self, tag: PathTag) -> u32 {
        // Probe the cache for the longest matching prefix among its entries.
        let mut best = 0u32;
        let mut full_match = None;
        for (i, key) in self.lru.keys.iter().enumerate() {
            let l4 = key.0 == tag.l4;
            let l3 = l4 && key.1 == tag.l3;
            let l2 = l3 && key.2 == tag.l2;
            let depth = u32::from(l4) + u32::from(l3) + u32::from(l2);
            if depth > best {
                best = depth;
            }
            if best == 3 {
                full_match = Some(i);
                break;
            }
        }
        if let Some(i) = full_match {
            // Touch the fully matching entry to keep it resident.
            self.lru.touch_at(i);
        }
        best
    }
}

impl WalkCache for TranslationPathCache {
    fn access(&mut self, va: VirtAddr, steps: &[WalkStep]) -> WalkCacheOutcome {
        let tag = PathTag::of(va);
        self.lookups += 1;
        let depth = self.best_match(tag);
        if depth >= 1 {
            self.depth_hits[0] += 1;
        }
        if depth >= 2 {
            self.depth_hits[1] += 1;
        }
        if depth >= 3 {
            self.depth_hits[2] += 1;
        }
        // The cache can skip at most the upper levels the walk would read
        // (never the leaf).
        let total_levels = steps.len() as u32;
        let skippable = total_levels.saturating_sub(1);
        let skipped = depth.min(skippable);
        self.skipped += u64::from(skipped);
        self.lru.insert((tag.l4, tag.l3, tag.l2));
        WalkCacheOutcome {
            skipped_levels: skipped,
            levels_read: total_levels - skipped,
        }
    }

    fn kind(&self) -> MmuCacheKind {
        MmuCacheKind::Tpc
    }

    fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.depth_hits[0] as f64 / self.lookups as f64
        }
    }

    fn skipped_accesses(&self) -> u64 {
        self.skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_vmem::{MemNode, PageSize, PageTable, PhysFrameNum};

    /// The entries the walk of `va` reads, root first.
    fn steps_of(pt: &PageTable, va: VirtAddr) -> Vec<WalkStep> {
        let mut steps = Vec::new();
        pt.probe_with(va, |step| steps.push(*step));
        steps
    }

    /// Runs the walks of `walked` through `cache`; returns the (skipped,
    /// read) level totals.
    fn replay_walks<C: WalkCache>(
        cache: &mut C,
        pt: &PageTable,
        walked: impl IntoIterator<Item = VirtAddr>,
    ) -> (u64, u64) {
        let mut skipped = 0u64;
        let mut read = 0u64;
        for va in walked {
            let outcome = cache.access(va, &steps_of(pt, va));
            skipped += u64::from(outcome.skipped_levels);
            read += u64::from(outcome.levels_read);
        }
        (skipped, read)
    }

    fn streaming_table(pages: u64) -> PageTable {
        let mut pt = PageTable::new();
        for i in 0..pages {
            pt.map(
                VirtAddr::new(0x4000_0000 + i * 4096),
                PageSize::Size4K,
                PhysFrameNum::new(0x100 + i),
                MemNode::Npu(0),
            )
            .unwrap();
        }
        pt
    }

    fn streaming_addrs(pages: u64) -> Vec<VirtAddr> {
        (0..pages)
            .map(|i| VirtAddr::new(0x4000_0000 + i * 4096))
            .collect()
    }

    #[test]
    fn tpc_captures_streaming_locality_better_than_a_cold_start() {
        let pages = 1024;
        let pt = streaming_table(pages);
        let mut tpc = TranslationPathCache::new(4);
        let (skipped, read) = replay_walks(&mut tpc, &pt, streaming_addrs(pages));
        // After the first walk, all upper levels hit: ~3 skips per walk.
        assert!(skipped > 3 * (pages - 10));
        assert!(read < pages + 40);
        assert!(tpc.hit_rate() > 0.99);
        let (l4, l3, l2) = tpc.depth_hit_rates();
        assert!(l4 >= l3 && l3 >= l2);
        assert!(l2 > 0.9);
    }

    #[test]
    fn uptc_needs_more_entries_for_the_same_stream() {
        let pages = 1024;
        let pt = streaming_table(pages);
        let mut uptc = UnifiedPageTableCache::new(4);
        let mut tpc = TranslationPathCache::new(4);
        let (uptc_skipped, _) = replay_walks(&mut uptc, &pt, streaming_addrs(pages));
        let (tpc_skipped, _) = replay_walks(&mut tpc, &pt, streaming_addrs(pages));
        // The paper's conclusion: TPC eliminates at least as many page-table
        // reads as UPTC on NPU-style streaming walks.
        assert!(tpc_skipped >= uptc_skipped);
        assert!(uptc.hit_rate() > 0.5);
    }

    #[test]
    fn single_entry_tpc_models_the_tpreg() {
        let pages = 2048; // crosses several 2 MB boundaries
        let pt = streaming_table(pages);
        let mut tpreg_like = TranslationPathCache::new(1);
        replay_walks(&mut tpreg_like, &pt, streaming_addrs(pages));
        let (l4, l3, l2) = tpreg_like.depth_hit_rates();
        assert!(l4 > 0.99);
        assert!(l3 > 0.99);
        assert!(l2 < l3);
    }

    #[test]
    fn random_far_apart_walks_defeat_both_caches() {
        let mut pt = PageTable::new();
        let mut addrs = Vec::new();
        for i in 0..64u64 {
            // Pages 1 GiB apart: different L3/L2 indices every time.
            let va = VirtAddr::new(i << 30);
            pt.map(
                va,
                PageSize::Size4K,
                PhysFrameNum::new(i + 1),
                MemNode::Host,
            )
            .unwrap();
            addrs.push(va);
        }
        let mut tpc = TranslationPathCache::new(1);
        let (skipped, _) = replay_walks(&mut tpc, &pt, addrs.clone());
        // Only the shared L4 entry can ever be skipped.
        assert!(skipped <= 64);
        let (_, _, l2) = tpc.depth_hit_rates();
        assert_eq!(l2, 0.0);
    }

    #[test]
    fn uptc_shares_entries_across_neighbouring_walks() {
        let pt = streaming_table(8);
        let mut uptc = UnifiedPageTableCache::new(64);
        let va = VirtAddr::new(0x4000_0000);
        let first = uptc.access(va, &steps_of(&pt, va));
        // The first walk reads everything (cold).
        assert_eq!(first.skipped_levels, 0);
        let va = VirtAddr::new(0x4000_1000);
        let second = uptc.access(va, &steps_of(&pt, va));
        // The second walk shares L4/L3/L2 entries with the first.
        assert_eq!(second.skipped_levels, 3);
        assert_eq!(second.levels_read, 1);
        assert_eq!(uptc.skipped_accesses(), 3);
    }

    #[test]
    fn cache_kinds_are_reported() {
        assert_eq!(UnifiedPageTableCache::new(8).kind(), MmuCacheKind::Uptc);
        assert_eq!(TranslationPathCache::new(8).kind(), MmuCacheKind::Tpc);
    }

    #[test]
    fn empty_caches_report_zero_rates() {
        let uptc = UnifiedPageTableCache::new(8);
        let tpc = TranslationPathCache::new(8);
        assert_eq!(uptc.hit_rate(), 0.0);
        assert_eq!(tpc.hit_rate(), 0.0);
        assert_eq!(tpc.depth_hit_rates(), (0.0, 0.0, 0.0));
    }
}
