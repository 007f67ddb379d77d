//! Property-based tests for the MMU structures and the translation engine.

use proptest::prelude::*;

use neummu_mmu::prelude::*;
use neummu_mmu::walker::{CompletedWalk, WalkAdmission};
use neummu_vmem::{Asid, MemNode, PageSize, PageTable, PathTag, PhysFrameNum, VirtAddr, WalkStep};

use reference::HeapPool;

/// Builds a page table with the given 4 KB virtual pages mapped.
fn table_with_pages(pages: &[u64]) -> PageTable {
    let mut pt = PageTable::new();
    for (i, &vpn) in pages.iter().enumerate() {
        pt.map(
            VirtAddr::new(vpn << 12),
            PageSize::Size4K,
            PhysFrameNum::new(0x100_0000 + i as u64),
            MemNode::Npu(0),
        )
        .expect("test pages are distinct");
    }
    pt
}

/// Strategy: a monotonically increasing stream of (page, offset) accesses over
/// a small page range, mimicking a DMA sweep.
fn access_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..64, 0u64..4096), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The TLB never reports more hits than lookups and its occupancy never
    /// exceeds its capacity, for any interleaving of lookups and fills.
    #[test]
    fn tlb_invariants(ops in prop::collection::vec((0u64..512, any::<bool>()), 1..500),
                      entries in 1usize..512, ways in 1usize..16) {
        let mut tlb = Tlb::new(entries, ways);
        for (page, is_fill) in ops {
            if is_fill {
                tlb.insert(page);
            } else {
                let hit = tlb.lookup_tagged(Asid::GLOBAL, page);
                if hit {
                    prop_assert!(tlb.contains(page));
                }
            }
            prop_assert!(tlb.occupancy() <= tlb.capacity());
            prop_assert!(tlb.hits() <= tlb.lookups());
        }
    }

    /// A lookup immediately after an insert always hits, regardless of prior
    /// history (the inserted entry is the most recently used in its set).
    #[test]
    fn tlb_insert_then_lookup_hits(history in prop::collection::vec(0u64..4096, 0..300), probe in 0u64..4096) {
        let mut tlb = Tlb::new(128, 4);
        for page in history {
            tlb.insert(page);
        }
        tlb.insert(probe);
        prop_assert!(tlb.lookup_tagged(Asid::GLOBAL, probe));
    }

    /// Engine timing sanity: outcomes are accepted no earlier than issued,
    /// complete no earlier than accepted, and every request is accounted for
    /// as exactly one of {TLB hit, merged, walk}.
    #[test]
    fn engine_accounting_is_exact(stream in access_stream(), neummu in any::<bool>()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let config = if neummu { MmuConfig::neummu() } else { MmuConfig::baseline_iommu() };
        let mut engine = TranslationEngine::new(config);
        let mut cycle = 0u64;
        for (page, offset) in &stream {
            let va = VirtAddr::new((page << 12) | offset);
            let outcome = engine.translate(&pt, va, cycle);
            prop_assert!(outcome.accept_cycle >= cycle);
            prop_assert!(outcome.complete_cycle >= outcome.accept_cycle);
            prop_assert!(!outcome.fault);
            cycle = outcome.accept_cycle + 1;
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.requests, stream.len() as u64);
        prop_assert_eq!(stats.requests, stats.tlb_hits + stats.merged + stats.walks);
        prop_assert!(stats.walk_memory_accesses >= stats.walks);
        prop_assert!(stats.walk_memory_accesses <= stats.walks * 4);
    }

    /// The oracle is a lower bound: for any request stream, its last
    /// completion time never exceeds that of a real engine driven with the
    /// same stream.
    #[test]
    fn oracle_is_a_lower_bound(stream in access_stream()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let mut oracle = OracleTranslator::default();
        let mut engine = TranslationEngine::new(MmuConfig::baseline_iommu());
        let mut oracle_cycle = 0u64;
        let mut engine_cycle = 0u64;
        let mut oracle_last = 0u64;
        let mut engine_last = 0u64;
        for (page, offset) in &stream {
            let va = VirtAddr::new((page << 12) | offset);
            let o = oracle.translate(&pt, va, oracle_cycle);
            oracle_cycle = o.accept_cycle + 1;
            oracle_last = oracle_last.max(o.complete_cycle);
            let e = engine.translate(&pt, va, engine_cycle);
            engine_cycle = e.accept_cycle + 1;
            engine_last = engine_last.max(e.complete_cycle);
        }
        prop_assert!(oracle_last <= engine_last);
    }

    /// Merging never changes *what* is translated, only how much walk work is
    /// spent: with merging enabled the engine performs at most as many walks
    /// and walk memory accesses as without it.
    #[test]
    fn prmb_never_increases_walk_work(stream in access_stream()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let run = |prmb_slots: usize| {
            let mut engine = TranslationEngine::new(
                MmuConfig::baseline_iommu().with_ptws(16).with_prmb_slots(prmb_slots),
            );
            let mut cycle = 0u64;
            for (page, offset) in &stream {
                let va = VirtAddr::new((page << 12) | offset);
                let outcome = engine.translate(&pt, va, cycle);
                cycle = outcome.accept_cycle + 1;
            }
            (engine.stats().walks, engine.stats().walk_memory_accesses)
        };
        let (walks_without, accesses_without) = run(0);
        let (walks_with, accesses_with) = run(32);
        prop_assert!(walks_with <= walks_without);
        prop_assert!(accesses_with <= accesses_without);
    }

    /// The TPreg only removes upper-level reads: per walk, between 1 and 4
    /// levels are read, and enabling it never increases total accesses.
    #[test]
    fn tpreg_never_increases_walk_accesses(page_order in prop::collection::vec(0u64..256, 1..150)) {
        let pages: Vec<u64> = (0..256).collect();
        let pt = table_with_pages(&pages);
        let run = |tpreg: bool| {
            let mut engine = TranslationEngine::new(
                MmuConfig::neummu().with_tlb_entries(16).with_tpreg(tpreg),
            );
            let mut cycle = 0u64;
            for page in &page_order {
                let outcome = engine.translate(&pt, VirtAddr::new(page << 12), cycle);
                cycle = outcome.complete_cycle + 1;
            }
            engine.stats().walk_memory_accesses
        };
        let with_tpreg = run(true);
        let without_tpreg = run(false);
        prop_assert!(with_tpreg <= without_tpreg);
    }

    /// Engine timing invariant: driven in program order (each request issued
    /// at the previous accept + 1), accept cycles are strictly increasing,
    /// never earlier than the issue cycle, and every completion is at or
    /// after its accept.
    #[test]
    fn accept_cycles_are_monotone_and_completions_follow(stream in access_stream(),
                                                        neummu in any::<bool>()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let config = if neummu { MmuConfig::neummu() } else { MmuConfig::baseline_iommu() };
        let mut engine = TranslationEngine::new(config);
        let mut cycle = 0u64;
        let mut last_accept: Option<u64> = None;
        for (page, offset) in &stream {
            let outcome = engine.translate(&pt, VirtAddr::new((page << 12) | offset), cycle);
            prop_assert!(outcome.accept_cycle >= cycle);
            if let Some(prev) = last_accept {
                prop_assert!(outcome.accept_cycle > prev,
                             "accept {} did not advance past {}", outcome.accept_cycle, prev);
            }
            prop_assert!(outcome.complete_cycle >= outcome.accept_cycle);
            last_accept = Some(outcome.accept_cycle);
            cycle = outcome.accept_cycle + 1;
        }
    }

    /// PRMB capacity invariant: a walk can absorb at most `prmb_slots` merged
    /// requests, so the engine's total merge count never exceeds
    /// `walks * prmb_slots` for any stream and any slot count (including 0,
    /// where merging must never happen).
    #[test]
    fn merges_never_exceed_prmb_capacity(stream in access_stream(),
                                         slots in 0usize..8, ptws in 1usize..16) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let mut engine = TranslationEngine::new(
            MmuConfig::baseline_iommu().with_ptws(ptws).with_prmb_slots(slots),
        );
        let mut cycle = 0u64;
        for (page, offset) in &stream {
            let outcome = engine.translate(&pt, VirtAddr::new((page << 12) | offset), cycle);
            cycle = outcome.accept_cycle + 1;
        }
        let stats = engine.stats();
        prop_assert!(stats.merged <= stats.walks * slots as u64,
                     "{} merges exceed {} walks x {} slots", stats.merged, stats.walks, slots);
        if slots == 0 {
            prop_assert_eq!(stats.merged, 0);
        }
    }

    /// `reset()` returns the engine to a state that replays identically: the
    /// same stream driven after a reset produces exactly the same outcome
    /// sequence and statistics as the first run.
    #[test]
    fn reset_replays_identically(stream in access_stream(), neummu in any::<bool>()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let config = if neummu { MmuConfig::neummu() } else { MmuConfig::baseline_iommu() };
        let mut engine = TranslationEngine::new(config);
        let drive = |engine: &mut TranslationEngine| {
            let mut cycle = 0u64;
            let mut outcomes = Vec::with_capacity(stream.len());
            for (page, offset) in &stream {
                let outcome = engine.translate(&pt, VirtAddr::new((page << 12) | offset), cycle);
                cycle = outcome.accept_cycle + 1;
                outcomes.push(outcome);
            }
            outcomes
        };
        let first = drive(&mut engine);
        let stats_first = *engine.stats();
        engine.reset();
        prop_assert_eq!(engine.stats().requests, 0);
        let second = drive(&mut engine);
        prop_assert_eq!(first, second);
        prop_assert_eq!(stats_first, *engine.stats());
    }

    /// A path tag always matches itself and the TPC/UPTC never skip the leaf
    /// level of a walk.
    #[test]
    fn walk_caches_never_skip_the_leaf(pages_accessed in prop::collection::vec(0u64..1024, 1..100)) {
        let pages: Vec<u64> = (0..1024).collect();
        let pt = table_with_pages(&pages);
        let mut tpc = TranslationPathCache::new(4);
        let mut uptc = UnifiedPageTableCache::new(16);
        for page in pages_accessed {
            let va = VirtAddr::new(page << 12);
            let mut steps = [WalkStep::default(); 4];
            let mut total = 0;
            pt.probe_with(va, |step| {
                steps[total] = *step;
                total += 1;
            });
            let steps = &steps[..total];
            let total = total as u32;
            for outcome in [tpc.access(va, steps), uptc.access(va, steps)] {
                prop_assert!(outcome.levels_read >= 1);
                prop_assert_eq!(outcome.levels_read + outcome.skipped_levels, total);
            }
        }
    }
}

/// The walker pool as it was when one `BinaryHeap` held every completion:
/// the reference the per-depth FIFO pool must agree with, event for event.
mod reference {
    use std::cmp::Ordering;
    use std::collections::{BTreeMap, BinaryHeap, VecDeque};

    use neummu_mmu::tpreg::{PathMatch, TranslationPathRegister};
    use neummu_mmu::walker::{CompletedWalk, WalkAdmission};
    use neummu_vmem::{Asid, PathTag};

    struct Walk {
        asid: Asid,
        page_number: u64,
        walker: usize,
        completes_at: u64,
        merged_requests: u32,
        mapped: bool,
        flushed: bool,
        quarantine_until: u64,
    }

    /// Min-heap ordering by completion time, then by the lowest slot.
    #[derive(PartialEq, Eq)]
    struct HeapEntry {
        completes_at: u64,
        walk_slot: usize,
    }

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .completes_at
                .cmp(&self.completes_at)
                .then_with(|| other.walk_slot.cmp(&self.walk_slot))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    pub struct HeapPool {
        prmb_slots: usize,
        walk_latency_per_level: u64,
        tpreg_enabled: bool,
        tpregs: Vec<TranslationPathRegister>,
        free_walkers: VecDeque<usize>,
        walks: Vec<Option<Walk>>,
        free_slots: Vec<usize>,
        pts: BTreeMap<(Asid, u64), usize>,
        heap: BinaryHeap<HeapEntry>,
        quarantined: Vec<(usize, u64)>,
    }

    impl HeapPool {
        pub fn new(
            num_walkers: usize,
            prmb_slots: usize,
            walk_latency_per_level: u64,
            tpreg_enabled: bool,
        ) -> Self {
            HeapPool {
                prmb_slots,
                walk_latency_per_level,
                tpreg_enabled,
                tpregs: vec![TranslationPathRegister::new(); num_walkers],
                free_walkers: (0..num_walkers).collect(),
                walks: Vec::new(),
                free_slots: Vec::new(),
                pts: BTreeMap::new(),
                heap: BinaryHeap::new(),
                quarantined: Vec::new(),
            }
        }

        pub fn has_free_walker(&self) -> bool {
            !self.free_walkers.is_empty()
        }

        pub fn earliest_readmit(&self) -> Option<u64> {
            self.quarantined.iter().map(|&(_, at)| at).min()
        }

        pub fn next_completion(&self) -> Option<u64> {
            self.heap.peek().map(|e| e.completes_at)
        }

        pub fn retire_completed(&mut self, cycle: u64) -> Vec<CompletedWalk> {
            let mut retired = Vec::new();
            while self
                .heap
                .peek()
                .is_some_and(|top| top.completes_at <= cycle)
            {
                let entry = self.heap.pop().unwrap();
                let walk = self.walks[entry.walk_slot].take().unwrap();
                self.free_slots.push(entry.walk_slot);
                if self.prmb_slots > 0 && !walk.flushed {
                    self.pts.remove(&(walk.asid, walk.page_number));
                }
                if walk.quarantine_until > 0 {
                    self.quarantined.push((walk.walker, walk.quarantine_until));
                } else {
                    self.free_walkers.push_back(walk.walker);
                }
                retired.push(CompletedWalk {
                    asid: walk.asid,
                    page_number: walk.page_number,
                    completed_at: walk.completes_at,
                    merged_requests: walk.merged_requests,
                    mapped: walk.mapped,
                });
            }
            retired
        }

        pub fn readmit_quarantined(&mut self, cycle: u64) {
            let mut i = 0;
            while i < self.quarantined.len() {
                if self.quarantined[i].1 <= cycle {
                    let (walker, _) = self.quarantined.swap_remove(i);
                    self.free_walkers.push_back(walker);
                } else {
                    i += 1;
                }
            }
        }

        pub fn try_merge_tagged(&mut self, asid: Asid, page_number: u64) -> Option<(usize, u64)> {
            if self.prmb_slots == 0 {
                return None;
            }
            let slot = *self.pts.get(&(asid, page_number))?;
            let walk = self.walks[slot].as_mut().unwrap();
            if walk.merged_requests as usize >= self.prmb_slots {
                return None;
            }
            walk.merged_requests += 1;
            Some((walk.walker, walk.completes_at))
        }

        fn rejected_retry_at(&self) -> u64 {
            let readmit = self.quarantined.iter().map(|&(_, at)| at).min();
            match (self.next_completion(), readmit) {
                (Some(c), Some(r)) => c.min(r),
                (Some(c), None) => c,
                (None, Some(r)) => r,
                (None, None) => unreachable!(),
            }
        }

        pub fn start_walk_tagged(
            &mut self,
            asid: Asid,
            cycle: u64,
            page_number: u64,
            tag: PathTag,
            full_levels: u32,
            mapped: bool,
        ) -> WalkAdmission {
            let Some(walker) = self.free_walkers.pop_front() else {
                return WalkAdmission::Rejected {
                    retry_at: self.rejected_retry_at(),
                };
            };
            let path_match = if self.tpreg_enabled {
                self.tpregs[walker].probe(tag)
            } else {
                PathMatch::miss()
            };
            let skipped = path_match
                .skippable_levels()
                .min(full_levels.saturating_sub(1));
            let levels_read = (full_levels - skipped).max(1);
            let completes_at = cycle + u64::from(levels_read) * self.walk_latency_per_level;
            if self.tpreg_enabled {
                self.tpregs[walker].fill(tag);
            }
            self.enqueue(asid, page_number, walker, completes_at, mapped, 0);
            WalkAdmission::Started {
                walker,
                completes_at,
                path_match,
                levels_read,
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn start_walk_perturbed(
            &mut self,
            asid: Asid,
            cycle: u64,
            page_number: u64,
            full_levels: u32,
            total_latency: u64,
            mapped: bool,
            quarantine_until: u64,
        ) -> WalkAdmission {
            let Some(walker) = self.free_walkers.pop_front() else {
                return WalkAdmission::Rejected {
                    retry_at: self.rejected_retry_at(),
                };
            };
            let completes_at = cycle + total_latency;
            self.enqueue(
                asid,
                page_number,
                walker,
                completes_at,
                mapped,
                quarantine_until,
            );
            WalkAdmission::Started {
                walker,
                completes_at,
                path_match: PathMatch::miss(),
                levels_read: full_levels,
            }
        }

        fn enqueue(
            &mut self,
            asid: Asid,
            page_number: u64,
            walker: usize,
            completes_at: u64,
            mapped: bool,
            quarantine_until: u64,
        ) {
            let walk = Walk {
                asid,
                page_number,
                walker,
                completes_at,
                merged_requests: 0,
                mapped,
                flushed: false,
                quarantine_until,
            };
            let slot = if let Some(slot) = self.free_slots.pop() {
                self.walks[slot] = Some(walk);
                slot
            } else {
                self.walks.push(Some(walk));
                self.walks.len() - 1
            };
            if self.prmb_slots > 0 {
                self.pts.insert((asid, page_number), slot);
            }
            self.heap.push(HeapEntry {
                completes_at,
                walk_slot: slot,
            });
        }

        pub fn flush_asid(&mut self, asid: Asid) -> usize {
            let merging = self.prmb_slots > 0;
            let mut discarded = 0;
            for walk in self.walks.iter_mut().flatten() {
                if walk.asid == asid && !walk.flushed {
                    if merging {
                        self.pts.remove(&(walk.asid, walk.page_number));
                    }
                    walk.mapped = false;
                    walk.flushed = true;
                    discarded += 1;
                }
            }
            discarded
        }
    }
}

/// Strategy: a random walker-pool workload, one `(op, a, b, c)` tuple per
/// step, decoded by `pool_matches_the_single_heap_reference`.
/// The walks `pool` retires by `cycle`, in completion order.
fn retire(pool: &mut WalkerPool, cycle: u64) -> Vec<CompletedWalk> {
    let mut retired = Vec::new();
    pool.drain_completed(cycle, |walk| retired.push(walk));
    retired
}

fn pool_ops() -> impl Strategy<Value = Vec<(u8, u64, u64, u64)>> {
    prop::collection::vec((0u8..10, 0u64..64, 0u64..64, 0u64..8), 1..250)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The per-depth FIFO pool retires walks in exactly the order one
    /// completion heap would, including its lowest-slot tie-break and LIFO
    /// slot reuse, whatever the admission cycles: same-cycle, increasing and
    /// decreasing admissions, TPreg on and off, 3- and 4-level walks,
    /// fault-perturbed walks with quarantine, PRMB merges and `flush_asid`
    /// mid-flight. `swap_walk_window` is checked against its per-walk
    /// expansion: one drain and one admission per cycle of the window, then
    /// one more admission on both pools. On pools with a PTS or TPregs it
    /// must open no window.
    #[test]
    fn pool_matches_the_single_heap_reference(
        ops in pool_ops(),
        walkers in 1usize..12,
        prmb in 0usize..3,
        tpreg in any::<bool>(),
        latency in 1u64..6,
    ) {
        let mut pool = WalkerPool::new(walkers, prmb, latency, tpreg);
        let mut reference = HeapPool::new(walkers, prmb, latency, tpreg);
        let mut now = 0u64;
        for (op, a, b, c) in ops {
            let asid = Asid::new((a % 2) as u16);
            let page = b % 6;
            let levels = 3 + (c % 2) as u32;
            let mapped = c % 5 != 0;
            // Pages of one 2 MB region share a full TPreg path; the region
            // varies with `a`, so TPreg walks read 1, 2 or all levels.
            let tag = PathTag::of(VirtAddr::new(((a % 4) << 21) | (page << 12)));
            match op {
                // One admission now, later, or earlier than the last one.
                0 | 1 => {
                    let cycle = match a % 3 {
                        0 => now,
                        1 => now + c,
                        _ => now.saturating_sub(c),
                    };
                    prop_assert_eq!(
                        pool.start_walk_tagged(asid, cycle, page, tag, levels, mapped),
                        reference.start_walk_tagged(asid, cycle, page, tag, levels, mapped)
                    );
                }
                // A burst: one walk of one page per consecutive cycle, the
                // shape of a merging-disabled run replay.
                2 | 3 => {
                    for i in 0..=c {
                        prop_assert_eq!(
                            pool.start_walk_tagged(asid, now + i, page, tag, levels, mapped),
                            reference.start_walk_tagged(asid, now + i, page, tag, levels, mapped)
                        );
                    }
                    now += c + 1;
                }
                // A fault-perturbed walk, quarantining its walker on odd `c`.
                4 => {
                    let total_latency = 1 + (a * 7 + b) % 40;
                    let quarantine_until = if c % 2 == 1 { now + total_latency + b } else { 0 };
                    prop_assert_eq!(
                        pool.start_walk_perturbed(
                            asid, now, page, levels, total_latency, mapped, quarantine_until
                        ),
                        reference.start_walk_perturbed(
                            asid, now, page, levels, total_latency, mapped, quarantine_until
                        )
                    );
                }
                5 => {
                    prop_assert_eq!(
                        pool.try_merge_tagged(asid, page),
                        reference.try_merge_tagged(asid, page)
                    );
                }
                6 => {
                    now += a % 16;
                    prop_assert_eq!(retire(&mut pool, now), reference.retire_completed(now));
                }
                7 => {
                    if b % 4 == 0 {
                        prop_assert_eq!(pool.flush_asid(asid), reference.flush_asid(asid));
                    } else {
                        now += a % 8;
                        pool.readmit_quarantined(now);
                        reference.readmit_quarantined(now);
                    }
                }
                // A window starting at the earliest completion (nothing is
                // due before it, as in the engine's replay). Only pools
                // without PTS and TPregs have windows.
                _ => {
                    let Some(cycle) = pool.next_completion() else {
                        continue;
                    };
                    let window = pool.swap_walk_window(asid, cycle, c + 1, page, levels, mapped);
                    if prmb > 0 || tpreg {
                        prop_assert_eq!(window, None);
                    }
                    let walks = window.map_or(0, |w| w.walks);
                    let (mut levels_read, mut latest) = (0u64, 0u64);
                    for k in 0..walks {
                        let w = window.unwrap();
                        prop_assert_eq!(
                            reference.retire_completed(cycle + k),
                            vec![CompletedWalk {
                                asid: w.retired_asid,
                                page_number: w.retired_page,
                                completed_at: cycle + k,
                                merged_requests: 0,
                                mapped: w.retired_mapped,
                            }]
                        );
                        let WalkAdmission::Started { completes_at, levels_read: read, .. } =
                            reference.start_walk_tagged(asid, cycle + k, page, tag, levels, mapped)
                        else {
                            panic!("a retirement frees a walker for the admission");
                        };
                        levels_read += u64::from(read);
                        latest = latest.max(completes_at);
                    }
                    if let Some(w) = window {
                        prop_assert!(w.walks >= 1 && w.walks <= c + 1);
                        prop_assert_ne!((w.retired_asid, w.retired_page), (asid, page));
                        prop_assert_eq!(w.levels_read, levels_read);
                        prop_assert_eq!(w.latest_completion, latest);
                        now = now.max(cycle + walks);
                    }
                    // One more admission takes the same idle walker on both
                    // pools: the window left the idle FIFO in per-walk order.
                    prop_assert_eq!(
                        pool.start_walk_tagged(asid, cycle + walks, page, tag, levels, mapped),
                        reference.start_walk_tagged(asid, cycle + walks, page, tag, levels, mapped)
                    );
                }
            }
            prop_assert_eq!(pool.next_completion(), reference.next_completion());
            prop_assert_eq!(pool.has_free_walker(), reference.has_free_walker());
            prop_assert_eq!(pool.earliest_readmit(), reference.earliest_readmit());
        }
        prop_assert_eq!(retire(&mut pool, u64::MAX), reference.retire_completed(u64::MAX));
    }
}
