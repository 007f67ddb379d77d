//! The page-table walker pool, pending translation scoreboard (PTS) and
//! pending request merging buffers (PRMB).
//!
//! The pool tracks every in-flight page-table walk with its completion time,
//! the virtual page it is translating and how many requests have been merged
//! into it. The PTS is modelled functionally as a lookup from virtual page
//! number to the in-flight walk (the hardware structure is a fully-associative
//! CAM with one entry per walker, Section IV-A / Figure 9); the PRMB is the
//! per-walker budget of mergeable slots.
//!
//! Walkers are assigned to new walks in FIFO (round-robin) order, which is
//! what distributes consecutive walks across walkers and gives the per-walker
//! TPreg its characteristic L4/L3 ≫ L2 hit-rate profile (Figure 13).

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::tpreg::{PathMatch, TranslationPathRegister};
use neummu_vmem::{Asid, PathTag};

/// A two-multiply mixing hasher for the PTS map.
///
/// The PTS is probed on every TLB miss and updated on every walk start and
/// retirement — the hottest map in the whole engine. Its keys are
/// `(Asid, page number)` pairs drawn from the simulated address stream, not
/// from an adversary, so SipHash's collision-attack resistance buys nothing
/// here while costing a large fraction of each probe. The map is never
/// iterated, so hash order cannot reach any observable result (statistics,
/// artifacts, retirement order all flow through the completion heap).
#[derive(Debug, Clone, Copy, Default)]
struct PtsHasher(u64);

/// `floor(2^64 / phi)`, the multiplicative-mixing constant of Fibonacci
/// hashing: consecutive page numbers spread across the whole hash space.
const PTS_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for PtsHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche so high state bits reach the table index.
        let mixed = (self.0 ^ (self.0 >> 32)).wrapping_mul(PTS_MIX);
        mixed ^ (mixed >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PTS_MIX);
        }
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(PTS_MIX);
    }
}

type PtsMap = HashMap<(Asid, u64), usize, BuildHasherDefault<PtsHasher>>;

/// The result of asking the pool to start or join a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkAdmission {
    /// The request was merged into the in-flight walk of the given walker;
    /// it will complete when that walk completes.
    Merged {
        /// Walker whose PRMB absorbed the request.
        walker: usize,
        /// Completion cycle of the in-flight walk.
        completes_at: u64,
    },
    /// A new walk was started on the given walker.
    Started {
        /// Walker that accepted the walk.
        walker: usize,
        /// Completion cycle of the new walk.
        completes_at: u64,
        /// How much of the upper path the walker's TPreg matched.
        path_match: PathMatch,
        /// Page-table levels actually read from memory by this walk.
        levels_read: u32,
    },
    /// Every walker is busy and no mergeable slot is available; the requester
    /// must retry at or after the given cycle.
    Rejected {
        /// Earliest cycle at which capacity may become available.
        retry_at: u64,
    },
}

/// A walk that has completed and should be retired (its translation inserted
/// into the TLB and its merged requests released).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletedWalk {
    /// Context the walk belongs to.
    pub asid: Asid,
    /// Page number (at the engine's page size) that was translated.
    pub page_number: u64,
    /// Cycle at which the walk finished.
    pub completed_at: u64,
    /// Number of requests that were merged into the walk.
    pub merged_requests: u32,
    /// Whether the walked page was actually mapped.
    pub mapped: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct InFlightWalk {
    asid: Asid,
    page_number: u64,
    walker: usize,
    completes_at: u64,
    merged_requests: u32,
    mapped: bool,
    /// Set by [`WalkerPool::flush_asid`]: the walk's context was torn down
    /// while it was in flight. Its PTS entry is already gone (a fresh
    /// same-key walk may own that key now), and its result must be
    /// discarded at retirement.
    flushed: bool,
    /// When nonzero, the serving walker hard-failed during this walk and is
    /// parked (not returned to the free list) at retirement until this
    /// cycle. Set only by [`WalkerPool::start_walk_perturbed`].
    quarantine_until: u64,
}

/// Min-heap ordering by completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct HeapEntry {
    completes_at: u64,
    walk_slot: usize,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .completes_at
            .cmp(&self.completes_at)
            .then_with(|| other.walk_slot.cmp(&self.walk_slot))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The pool of hardware page-table walkers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalkerPool {
    num_walkers: usize,
    prmb_slots: usize,
    walk_latency_per_level: u64,
    tpreg_enabled: bool,
    tpregs: Vec<TranslationPathRegister>,
    /// FIFO of idle walker indices (round-robin assignment).
    free_walkers: VecDeque<usize>,
    /// In-flight walks, indexed by slot id.
    walks: Vec<Option<InFlightWalk>>,
    free_slots: Vec<usize>,
    /// PTS: (context, page number) -> in-flight walk slot. Tagging the key
    /// with the ASID keeps one tenant's requests from merging into another
    /// tenant's in-flight walk of the same virtual page.
    pts: PtsMap,
    /// Completion order.
    heap: BinaryHeap<HeapEntry>,
    /// Hard-failed walkers parked until their cool-down expires, as
    /// `(walker, readmit_at)`. Empty unless fault injection quarantined a
    /// walker; healthy runs never touch it.
    quarantined: Vec<(usize, u64)>,
}

impl WalkerPool {
    /// Creates a pool of `num_walkers` walkers, each with `prmb_slots`
    /// mergeable PRMB slots (0 disables merging) and a per-level walk latency.
    ///
    /// # Panics
    ///
    /// Panics if `num_walkers` is zero.
    #[must_use]
    pub fn new(
        num_walkers: usize,
        prmb_slots: usize,
        walk_latency_per_level: u64,
        tpreg_enabled: bool,
    ) -> Self {
        assert!(num_walkers > 0, "the walker pool needs at least one walker");
        WalkerPool {
            num_walkers,
            prmb_slots,
            walk_latency_per_level,
            tpreg_enabled,
            tpregs: vec![TranslationPathRegister::new(); num_walkers],
            free_walkers: (0..num_walkers).collect(),
            walks: Vec::new(),
            free_slots: Vec::new(),
            pts: PtsMap::default(),
            heap: BinaryHeap::new(),
            quarantined: Vec::new(),
        }
    }

    /// Number of walkers in the pool.
    #[must_use]
    pub fn num_walkers(&self) -> usize {
        self.num_walkers
    }

    /// Number of walks currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.num_walkers - self.free_walkers.len()
    }

    /// True if a new walk could start right now (a walker is idle).
    #[must_use]
    pub fn has_free_walker(&self) -> bool {
        !self.free_walkers.is_empty()
    }

    /// Retires every walk that has completed by `cycle`, invoking `retire`
    /// for each in completion order, without allocating. The caller is
    /// responsible for filling the TLB. Returns the number of walks retired.
    ///
    /// This runs once per translate attempt, and on the overwhelming majority
    /// of calls nothing has completed: that case costs a single heap peek and
    /// returns 0 (the engine tallies these fast exits in its hot-path
    /// telemetry).
    pub fn drain_completed(&mut self, cycle: u64, mut retire: impl FnMut(CompletedWalk)) -> usize {
        let mut retired = 0usize;
        while let Some(top) = self.heap.peek() {
            if top.completes_at > cycle {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            let walk = self.walks[entry.walk_slot]
                .take()
                .expect("heap entries always reference live walks");
            self.free_slots.push(entry.walk_slot);
            // The PTS only holds walks when merging is on (see enqueue_walk).
            if self.prmb_slots > 0 && !walk.flushed {
                self.pts.remove(&(walk.asid, walk.page_number));
            }
            if walk.quarantine_until > 0 {
                // The walker hard-failed during this walk: park it instead
                // of returning it to the free list. The pool shrinks until
                // the cool-down expires and readmit_quarantined runs.
                self.quarantined.push((walk.walker, walk.quarantine_until));
            } else {
                self.free_walkers.push_back(walk.walker);
            }
            retired += 1;
            retire(CompletedWalk {
                asid: walk.asid,
                page_number: walk.page_number,
                completed_at: walk.completes_at,
                merged_requests: walk.merged_requests,
                mapped: walk.mapped,
            });
        }
        retired
    }

    /// Retires every walk that has completed by `cycle`, returning them in
    /// completion order. Convenience wrapper around
    /// [`WalkerPool::drain_completed`] for tests and inspection; the engine
    /// hot path uses the drain form to avoid the `Vec`.
    pub fn retire_completed(&mut self, cycle: u64) -> Vec<CompletedWalk> {
        let mut retired = Vec::new();
        self.drain_completed(cycle, |walk| retired.push(walk));
        retired
    }

    /// Earliest cycle at which any in-flight walk completes (`None` if idle).
    #[must_use]
    pub fn next_completion(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.completes_at)
    }

    /// Number of walkers currently parked in quarantine.
    #[must_use]
    pub fn quarantined_walkers(&self) -> usize {
        self.quarantined.len()
    }

    /// Earliest cycle at which a quarantined walker becomes eligible for
    /// re-admission (`None` if the quarantine is empty).
    #[must_use]
    pub fn earliest_readmit(&self) -> Option<u64> {
        self.quarantined.iter().map(|&(_, at)| at).min()
    }

    /// Returns every quarantined walker whose cool-down expired by `cycle`
    /// to the free list. Allocation-free; a no-op (one emptiness check) when
    /// nothing is quarantined, which is every cycle of a fault-free run.
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

    /// Probes the PTS for an in-flight [`Asid::GLOBAL`] walk of
    /// `page_number` and, if present and a PRMB slot is free, merges the
    /// request into it.
    ///
    /// Returns the completion cycle of the walk the request was merged into,
    /// or `None` if no merge was possible (no in-flight walk, merging
    /// disabled, or the walker's PRMB is full).
    pub fn try_merge(&mut self, page_number: u64) -> Option<(usize, u64)> {
        self.try_merge_tagged(Asid::GLOBAL, page_number)
    }

    /// [`WalkerPool::try_merge`] in the given context: a request only merges
    /// into an in-flight walk with the same `(asid, page_number)` PTS key.
    pub fn try_merge_tagged(&mut self, asid: Asid, page_number: u64) -> Option<(usize, u64)> {
        if self.prmb_slots == 0 {
            return None;
        }
        let slot = *self.pts.get(&(asid, page_number))?;
        let walk = self.walks[slot]
            .as_mut()
            .expect("PTS entries reference live walks");
        if walk.merged_requests as usize >= self.prmb_slots {
            return None;
        }
        walk.merged_requests += 1;
        Some((walk.walker, walk.completes_at))
    }

    /// Merges up to `requests` same-context requests into the in-flight walk
    /// of `page_number` in one step — the run-coalesced bulk form of
    /// [`WalkerPool::try_merge_tagged`]. Returns how many requests were
    /// actually merged: the PRMB budget caps the count exactly as the same
    /// number of individual `try_merge_tagged` calls would (0 when there is
    /// no in-flight walk, merging is disabled, or the PRMB is already full).
    pub fn merge_run_tagged(&mut self, asid: Asid, page_number: u64, requests: u64) -> u64 {
        if self.prmb_slots == 0 || requests == 0 {
            return 0;
        }
        let Some(&slot) = self.pts.get(&(asid, page_number)) else {
            return 0;
        };
        let walk = self.walks[slot]
            .as_mut()
            .expect("PTS entries reference live walks");
        let free = (self.prmb_slots as u64).saturating_sub(u64::from(walk.merged_requests));
        let merged = requests.min(free);
        walk.merged_requests += u32::try_from(merged).expect("PRMB slots fit in u32");
        merged
    }

    /// Starts a new walk at `cycle` for `page_number`, whose full walk would
    /// read `full_levels` page-table entries and whose upper-path tag is
    /// `tag`. `mapped` records whether the page table actually holds a
    /// translation (an unmapped page still costs a partial walk).
    ///
    /// Returns [`WalkAdmission::Rejected`] when every walker is busy.
    pub fn start_walk(
        &mut self,
        cycle: u64,
        page_number: u64,
        tag: PathTag,
        full_levels: u32,
        mapped: bool,
    ) -> WalkAdmission {
        self.start_walk_tagged(Asid::GLOBAL, cycle, page_number, tag, full_levels, mapped)
    }

    /// [`WalkerPool::start_walk`] in the given context: the walk's PTS entry
    /// is keyed by `(asid, page_number)` so only same-context requests can
    /// merge into it.
    #[allow(clippy::too_many_arguments)]
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
        // The TPreg can only skip levels that the walk would otherwise read:
        // for a 4 KB page all of L4/L3/L2, for a 2 MB page only L4/L3 (its L2
        // entry is the leaf and must be read to obtain the translation).
        let skippable_by_size = full_levels.saturating_sub(1);
        let skipped = path_match.skippable_levels().min(skippable_by_size);
        let levels_read = (full_levels - skipped).max(1);
        let completes_at = cycle + u64::from(levels_read) * self.walk_latency_per_level;

        if self.tpreg_enabled {
            self.tpregs[walker].fill(tag);
        }

        let walk = InFlightWalk {
            asid,
            page_number,
            walker,
            completes_at,
            merged_requests: 0,
            mapped,
            flushed: false,
            quarantine_until: 0,
        };
        self.enqueue_walk(walk);
        WalkAdmission::Started {
            walker,
            completes_at,
            path_match,
            levels_read,
        }
    }

    /// Starts a walk whose latency was overridden by an injected device
    /// fault. The perturbed walk bypasses the TPreg entirely (a faulty walk
    /// reads the full path and must not pollute the path registers), costs
    /// exactly `total_latency` cycles, and — when `quarantine_until` is
    /// nonzero — parks its walker at retirement until that cycle. Everything
    /// else (PTS entry, PRMB merging, completion ordering) behaves exactly
    /// like [`WalkerPool::start_walk_tagged`], which is what makes request
    /// conservation hold under faults: a fault only ever changes a walk's
    /// latency and mapped-ness, never its riders.
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
        let walk = InFlightWalk {
            asid,
            page_number,
            walker,
            completes_at,
            merged_requests: 0,
            mapped,
            flushed: false,
            quarantine_until,
        };
        self.enqueue_walk(walk);
        WalkAdmission::Started {
            walker,
            completes_at,
            path_match: PathMatch::miss(),
            levels_read: full_levels,
        }
    }

    /// Retry cycle for a rejected admission: the earliest event that frees a
    /// walker — a walk completion or a quarantine re-admission.
    fn rejected_retry_at(&self) -> u64 {
        match (self.next_completion(), self.earliest_readmit()) {
            (Some(completion), Some(readmit)) => completion.min(readmit),
            (Some(completion), None) => completion,
            (None, Some(readmit)) => readmit,
            (None, None) => {
                unreachable!("no free walkers implies an in-flight or quarantined walker")
            }
        }
    }

    /// Slots the walk into storage, the PTS and the completion heap.
    fn enqueue_walk(&mut self, walk: InFlightWalk) {
        let key = (walk.asid, walk.page_number);
        let completes_at = walk.completes_at;
        let slot = if let Some(slot) = self.free_slots.pop() {
            self.walks[slot] = Some(walk);
            slot
        } else {
            self.walks.push(Some(walk));
            self.walks.len() - 1
        };
        if self.prmb_slots > 0 {
            self.pts.insert(key, slot);
        }
        self.heap.push(HeapEntry {
            completes_at,
            walk_slot: slot,
        });
    }

    /// Invalidates every walker's TPreg (page-table update).
    pub fn invalidate_tpregs(&mut self) {
        for reg in &mut self.tpregs {
            reg.invalidate();
        }
    }

    /// Discards every in-flight walk of one context (context teardown /
    /// page-table switch). The walks keep occupying their walkers until
    /// their completion time — hardware cannot recall a walk in flight —
    /// but their PTS entries vanish immediately, so no later request can
    /// merge into them, and they retire as unmapped, so their (stale)
    /// translations never fill the TLB. Returns the number of walks
    /// discarded.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let merging = self.prmb_slots > 0;
        let WalkerPool { walks, pts, .. } = self;
        let mut discarded = 0;
        for walk in walks.iter_mut().flatten() {
            if walk.asid == asid && !walk.flushed {
                if merging {
                    pts.remove(&(walk.asid, walk.page_number));
                }
                walk.mapped = false;
                walk.flushed = true;
                discarded += 1;
            }
        }
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_vmem::VirtAddr;

    fn tag_of_page(page: u64) -> PathTag {
        PathTag::of(VirtAddr::new(page << 12))
    }

    fn start(pool: &mut WalkerPool, cycle: u64, page: u64) -> WalkAdmission {
        pool.start_walk(cycle, page, tag_of_page(page), 4, true)
    }

    #[test]
    fn walks_complete_after_per_level_latency() {
        let mut pool = WalkerPool::new(2, 0, 100, false);
        match start(&mut pool, 0, 7) {
            WalkAdmission::Started {
                completes_at,
                levels_read,
                ..
            } => {
                assert_eq!(levels_read, 4);
                assert_eq!(completes_at, 400);
            }
            other => panic!("expected Started, got {other:?}"),
        }
        assert_eq!(pool.in_flight(), 1);
        assert!(pool.retire_completed(399).is_empty());
        let retired = pool.retire_completed(400);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].page_number, 7);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn pool_rejects_when_all_walkers_busy() {
        let mut pool = WalkerPool::new(2, 0, 100, false);
        start(&mut pool, 0, 1);
        start(&mut pool, 0, 2);
        match start(&mut pool, 0, 3) {
            WalkAdmission::Rejected { retry_at } => assert_eq!(retry_at, 400),
            other => panic!("expected Rejected, got {other:?}"),
        }
        // After retiring, capacity is available again.
        pool.retire_completed(400);
        assert!(matches!(
            start(&mut pool, 400, 3),
            WalkAdmission::Started { .. }
        ));
    }

    #[test]
    fn merging_requires_prmb_slots() {
        let mut no_merge = WalkerPool::new(4, 0, 100, false);
        start(&mut no_merge, 0, 9);
        assert!(no_merge.try_merge(9).is_none());

        let mut pool = WalkerPool::new(4, 2, 100, false);
        start(&mut pool, 0, 9);
        assert!(pool.try_merge(9).is_some());
        assert!(pool.try_merge(9).is_some());
        // PRMB full after two merges.
        assert!(pool.try_merge(9).is_none());
        // A different page has no in-flight walk to merge into.
        assert!(pool.try_merge(10).is_none());
        let retired = pool.retire_completed(1_000);
        assert_eq!(retired[0].merged_requests, 2);
    }

    #[test]
    fn bulk_merges_respect_the_prmb_budget_like_individual_merges() {
        let mut pool = WalkerPool::new(4, 8, 100, false);
        start(&mut pool, 0, 9);
        // Two individual merges, then a bulk request for ten more: only the
        // six remaining slots are granted.
        assert!(pool.try_merge(9).is_some());
        assert!(pool.try_merge(9).is_some());
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 10), 6);
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 1), 0);
        assert!(pool.try_merge(9).is_none());
        // No in-flight walk, zero requests, disabled merging: all zero.
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 10, 4), 0);
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 0), 0);
        let mut no_merge = WalkerPool::new(4, 0, 100, false);
        start(&mut no_merge, 0, 9);
        assert_eq!(no_merge.merge_run_tagged(Asid::GLOBAL, 9, 4), 0);
        // The retired walk carries the bulk-merged count.
        let retired = pool.retire_completed(u64::MAX);
        assert_eq!(retired[0].merged_requests, 8);
    }

    #[test]
    fn merged_requests_complete_with_their_walk() {
        let mut pool = WalkerPool::new(1, 8, 50, false);
        let completes = match start(&mut pool, 10, 5) {
            WalkAdmission::Started { completes_at, .. } => completes_at,
            other => panic!("unexpected {other:?}"),
        };
        let (_, merged_completes) = pool.try_merge(5).unwrap();
        assert_eq!(merged_completes, completes);
    }

    #[test]
    fn tpreg_skips_levels_for_same_region_walks() {
        let mut pool = WalkerPool::new(1, 0, 100, true);
        // First walk of a region reads all four levels.
        match pool.start_walk(0, 0x1000, tag_of_page(0x1000), 4, true) {
            WalkAdmission::Started { levels_read, .. } => assert_eq!(levels_read, 4),
            other => panic!("unexpected {other:?}"),
        }
        pool.retire_completed(u64::MAX);
        // The next page in the same 2 MB region only reads the leaf level.
        match pool.start_walk(500, 0x1001, tag_of_page(0x1001), 4, true) {
            WalkAdmission::Started {
                levels_read,
                path_match,
                completes_at,
                ..
            } => {
                assert_eq!(levels_read, 1);
                assert!(path_match.l2);
                assert_eq!(completes_at, 600);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tpreg_cannot_skip_the_leaf_of_a_2mb_walk() {
        let mut pool = WalkerPool::new(1, 0, 100, true);
        // 2 MB pages walk three levels; even a full TPreg match must still
        // read the leaf (L2) entry.
        pool.start_walk(0, 0, tag_of_page(0), 3, true);
        pool.retire_completed(u64::MAX);
        match pool.start_walk(0, 1, tag_of_page(0), 3, true) {
            WalkAdmission::Started { levels_read, .. } => assert_eq!(levels_read, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_robin_assignment_spreads_walks_across_walkers() {
        let mut pool = WalkerPool::new(4, 0, 100, false);
        let mut walkers = Vec::new();
        for page in 0..4 {
            if let WalkAdmission::Started { walker, .. } = start(&mut pool, 0, page) {
                walkers.push(walker);
            }
        }
        walkers.sort_unstable();
        assert_eq!(walkers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn retire_order_is_completion_order() {
        let mut pool = WalkerPool::new(4, 0, 100, true);
        // Page 1 misses the TPreg (4 levels); page 2 walk on a different
        // walker also misses. Start them at different cycles.
        start(&mut pool, 100, 1);
        start(&mut pool, 0, 2);
        let retired = pool.retire_completed(u64::MAX);
        assert_eq!(retired.len(), 2);
        assert!(retired[0].completed_at <= retired[1].completed_at);
        assert_eq!(retired[0].page_number, 2);
    }

    #[test]
    fn drain_completed_matches_retire_completed() {
        let build = || {
            let mut pool = WalkerPool::new(4, 2, 100, true);
            start(&mut pool, 100, 1);
            start(&mut pool, 0, 2);
            start(&mut pool, 50, 3);
            pool.try_merge(2);
            pool
        };
        let mut drained = Vec::new();
        let mut a = build();
        let count = a.drain_completed(500, |walk| drained.push(walk));
        let retired = build().retire_completed(500);
        assert_eq!(count, drained.len());
        assert_eq!(drained, retired);
        assert_eq!(drained.len(), 3);
        // Nothing left: the fast path reports zero without invoking the sink.
        assert_eq!(a.drain_completed(u64::MAX, |_| panic!("empty pool")), 0);
    }

    #[test]
    fn pts_keys_are_asid_tagged() {
        let mut pool = WalkerPool::new(4, 8, 100, false);
        let (a, b) = (Asid::new(1), Asid::new(2));
        // Tenant A walks page 9; tenant B's request to the *same* page number
        // must not merge into it (different page tables!) and starts its own
        // walk instead.
        assert!(matches!(
            pool.start_walk_tagged(a, 0, 9, tag_of_page(9), 4, true),
            WalkAdmission::Started { .. }
        ));
        assert!(pool.try_merge_tagged(b, 9).is_none());
        assert!(pool.try_merge_tagged(a, 9).is_some());
        assert!(matches!(
            pool.start_walk_tagged(b, 0, 9, tag_of_page(9), 4, true),
            WalkAdmission::Started { .. }
        ));
        // Both walks retire carrying their own ASID.
        let retired = pool.retire_completed(u64::MAX);
        assert_eq!(retired.len(), 2);
        let mut asids: Vec<u16> = retired.iter().map(|w| w.asid.raw()).collect();
        asids.sort_unstable();
        assert_eq!(asids, vec![1, 2]);
        // The untagged entry points are the GLOBAL context.
        pool.start_walk(0, 5, tag_of_page(5), 4, true);
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 5).is_some());
    }

    #[test]
    fn unmapped_pages_still_consume_a_walk() {
        let mut pool = WalkerPool::new(1, 4, 100, false);
        pool.start_walk(0, 77, tag_of_page(77), 1, false);
        let retired = pool.retire_completed(u64::MAX);
        assert!(!retired[0].mapped);
    }

    #[test]
    fn perturbed_walk_costs_exactly_its_total_latency() {
        let mut pool = WalkerPool::new(2, 4, 100, true);
        let WalkAdmission::Started {
            completes_at,
            path_match,
            levels_read,
            ..
        } = pool.start_walk_perturbed(Asid::GLOBAL, 10, 42, 4, 1_234, true, 0)
        else {
            panic!("perturbed walk must start");
        };
        assert_eq!(completes_at, 10 + 1_234);
        assert_eq!(levels_read, 4);
        assert_eq!(
            path_match.skippable_levels(),
            0,
            "perturbed walks bypass the TPreg"
        );
        assert!(pool.retire_completed(10 + 1_233).is_empty());
        let retired = pool.retire_completed(10 + 1_234);
        assert_eq!(retired.len(), 1);
        assert!(retired[0].mapped);
    }

    #[test]
    fn perturbed_walk_accepts_prmb_merges() {
        let mut pool = WalkerPool::new(2, 4, 100, false);
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 42, 4, 5_000, true, 0);
        assert_eq!(pool.try_merge(42), Some((0, 5_000)));
        let retired = pool.retire_completed(5_000);
        assert_eq!(retired[0].merged_requests, 1);
    }

    #[test]
    fn quarantined_walker_is_parked_until_cooldown() {
        let mut pool = WalkerPool::new(1, 0, 100, false);
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 42, 4, 400, true, 1_000);
        assert_eq!(pool.retire_completed(400).len(), 1);
        // The only walker is now quarantined: the pool has shrunk to zero.
        assert!(!pool.has_free_walker());
        assert_eq!(pool.quarantined_walkers(), 1);
        assert_eq!(pool.earliest_readmit(), Some(1_000));
        // A new walk is rejected with the readmission cycle, not a panic
        // (the heap is empty — there is no in-flight completion to wait on).
        let admission = pool.start_walk(500, 43, tag_of_page(43), 4, true);
        assert_eq!(admission, WalkAdmission::Rejected { retry_at: 1_000 });
        // Before the cool-down expires readmission is a no-op.
        pool.readmit_quarantined(999);
        assert!(!pool.has_free_walker());
        // At the cool-down boundary the walker rejoins the free list.
        pool.readmit_quarantined(1_000);
        assert!(pool.has_free_walker());
        assert_eq!(pool.quarantined_walkers(), 0);
        assert!(matches!(
            pool.start_walk(1_000, 43, tag_of_page(43), 4, true),
            WalkAdmission::Started { .. }
        ));
    }

    #[test]
    fn rejected_retry_at_is_min_of_completion_and_readmit() {
        let mut pool = WalkerPool::new(2, 0, 100, false);
        // Walker 0 quarantines until cycle 5_000; walker 1 walks until 700.
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 1, 4, 300, true, 5_000);
        assert_eq!(pool.retire_completed(300).len(), 1);
        pool.start_walk(300, 2, tag_of_page(2), 4, true);
        let admission = pool.start_walk(350, 3, tag_of_page(3), 4, true);
        assert_eq!(admission, WalkAdmission::Rejected { retry_at: 700 });
    }
}
