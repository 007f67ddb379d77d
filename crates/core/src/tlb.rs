//! The IOTLB: a set-associative, LRU translation lookaside buffer.
//!
//! The baseline IOMMU and NeuMMU share the same IOTLB front end (2048 entries
//! in Table I). The TLB is tagged by page number at the engine's configured
//! page size; a hit returns in a fixed 5-cycle latency. As the paper's
//! analysis shows (Section III-C), the TLB alone cannot absorb the NPU's
//! translation bursts — requests to the same page arrive back to back before
//! the first walk completes — which is exactly the behaviour the engine
//! reproduces on top of this structure.
//!
//! Entries are additionally tagged with the [`Asid`] of the owning tenant
//! context: identical page numbers from different contexts never alias, all
//! contexts compete for the shared capacity (LRU does not partition by
//! tenant), and one tenant's entries can be flushed without disturbing the
//! others ([`Tlb::flush_asid`]). The untagged methods operate on
//! [`Asid::GLOBAL`] and behave exactly like the pre-ASID single-tenant TLB:
//! the set index is computed from the page number alone, so a single-tenant
//! run is bit-identical either way.

use neummu_vmem::Asid;

/// A set-associative TLB with true-LRU replacement within each set.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<Vec<TlbEntry>>,
    ways: usize,
    /// `num_sets - 1` when the set count is a power of two (every Table I
    /// geometry), so the per-lookup set-index computation is a mask rather
    /// than an integer divide; `None` falls back to modulo.
    set_mask: Option<u64>,
    stamp: u64,
    lookups: u64,
    hits: u64,
    fills: u64,
    /// Resident entries per ASID, indexed by [`Asid::index`] and grown on
    /// demand. Maintained incrementally at every fill/eviction/invalidation,
    /// so [`Tlb::occupancy_of`] is O(1) — cheap enough that a scheduling
    /// policy may consult it on every pick (the serving simulator's
    /// TLB-occupancy-aware throttling does exactly that).
    occupancy_by_asid: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    asid: Asid,
    page_number: u64,
    last_used: u64,
}

impl TlbEntry {
    #[inline]
    fn matches(&self, asid: Asid, page_number: u64) -> bool {
        self.page_number == page_number && self.asid == asid
    }
}

impl Tlb {
    /// Creates a TLB with the given total entry count and associativity.
    ///
    /// The number of sets is `entries / ways`, rounded up to at least one.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is zero.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0, "TLB must have at least one entry");
        assert!(ways > 0, "TLB associativity must be at least one");
        let ways = ways.min(entries);
        let num_sets = (entries / ways).max(1);
        Tlb {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            set_mask: num_sets.is_power_of_two().then(|| num_sets as u64 - 1),
            stamp: 0,
            lookups: 0,
            hits: 0,
            fills: 0,
            occupancy_by_asid: Vec::new(),
        }
    }

    /// Adjusts the per-ASID occupancy counter by `delta` entries, growing the
    /// counter vector the first time a context is seen. Every entry
    /// fill/eviction/invalidation path funnels through here, which is what
    /// keeps [`Tlb::occupancy_of`] exact without scanning the sets.
    fn adjust_occupancy(occupancy_by_asid: &mut Vec<u64>, asid: Asid, delta: i64) {
        let index = asid.index();
        if index >= occupancy_by_asid.len() {
            occupancy_by_asid.resize(index + 1, 0);
        }
        let slot = &mut occupancy_by_asid[index];
        *slot = slot
            .checked_add_signed(delta)
            .expect("occupancy counters never go negative");
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    #[inline]
    fn set_index(&self, page_number: u64) -> usize {
        match self.set_mask {
            Some(mask) => (page_number & mask) as usize,
            None => (page_number % self.sets.len() as u64) as usize,
        }
    }

    /// Looks up a page number in the [`Asid::GLOBAL`] context, updating LRU
    /// state. Returns `true` on a hit.
    pub fn lookup(&mut self, page_number: u64) -> bool {
        self.lookup_tagged(Asid::GLOBAL, page_number)
    }

    /// Looks up a page number in the given context, updating LRU state.
    /// Returns `true` on a hit. An entry hits only if both its page number
    /// *and* its ASID match — identical virtual pages of different tenants
    /// never alias.
    ///
    /// # Example
    ///
    /// ```
    /// use neummu_mmu::Tlb;
    /// use neummu_vmem::Asid;
    ///
    /// let mut tlb = Tlb::new(16, 4);
    /// let (a, b) = (Asid::new(1), Asid::new(2));
    /// tlb.insert_tagged(a, 42);
    /// assert!(tlb.lookup_tagged(a, 42));
    /// assert!(!tlb.lookup_tagged(b, 42)); // same page, other tenant: miss
    /// ```
    pub fn lookup_tagged(&mut self, asid: Asid, page_number: u64) -> bool {
        self.lookups += 1;
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_index(page_number);
        if let Some(entry) = self.sets[set]
            .iter_mut()
            .find(|e| e.matches(asid, page_number))
        {
            entry.last_used = stamp;
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Records `hits` back-to-back lookups of one resident entry as a single
    /// LRU touch — the run-coalesced replay of a same-page burst.
    ///
    /// Consecutive hits on one entry are idempotent on true LRU: after the
    /// first touch the entry is already most-recently-used in its set, so
    /// `hits` individual lookups and one batched touch leave the replacement
    /// state in exactly the same relative order. The recency stamp still
    /// advances by `hits` (as `hits` individual lookups would have advanced
    /// it), so the set's stamp arithmetic — and therefore every later
    /// eviction decision — is bit-identical to the per-lookup path.
    ///
    /// Returns `false` (recording nothing) if the entry is not resident; the
    /// caller's run replay is only valid while the entry survives.
    pub fn record_run_hits(&mut self, asid: Asid, page_number: u64, hits: u64) -> bool {
        if hits == 0 {
            return self.contains_tagged(asid, page_number);
        }
        let set = self.set_index(page_number);
        let stamp = self.stamp + hits;
        let Some(entry) = self.sets[set]
            .iter_mut()
            .find(|e| e.matches(asid, page_number))
        else {
            return false;
        };
        entry.last_used = stamp;
        self.stamp = stamp;
        self.lookups += hits;
        self.hits += hits;
        true
    }

    /// Records `misses` lookups that probed a set and found nothing (the
    /// run-coalesced replay of requests that merged into an in-flight walk):
    /// the lookup and stamp counters advance exactly as `misses` individual
    /// missing lookups would have advanced them, without scanning any set.
    pub fn record_run_misses(&mut self, misses: u64) {
        self.stamp += misses;
        self.lookups += misses;
    }

    /// Records `fills` inserts of one page in the given context, each
    /// followed by one lookup that misses (a lookup of a page that is not
    /// resident) — the run-coalesced replay of a walk window, where every
    /// cycle retires a walk of `page_number` and starts a walk of another
    /// page. The page is inserted once, with the recency stamp its last
    /// individual insert would have had; the stamp advances by `2 × fills`
    /// and the lookup count by `fills`, as the individual calls would have
    /// advanced them. Eviction is unchanged: only the first insert can
    /// evict, and no stamp of another entry moves in between. A no-op when
    /// `fills` is 0.
    pub fn insert_run_tagged(&mut self, asid: Asid, page_number: u64, fills: u64) {
        if fills == 0 {
            return;
        }
        self.stamp += 2 * fills - 2;
        self.insert_tagged(asid, page_number);
        self.stamp += 1;
        self.lookups += fills;
    }

    /// Checks for presence in the [`Asid::GLOBAL`] context without updating
    /// LRU state or statistics.
    #[must_use]
    pub fn contains(&self, page_number: u64) -> bool {
        self.contains_tagged(Asid::GLOBAL, page_number)
    }

    /// Checks for presence in the given context without updating LRU state or
    /// statistics.
    #[must_use]
    pub fn contains_tagged(&self, asid: Asid, page_number: u64) -> bool {
        let set = self.set_index(page_number);
        self.sets[set].iter().any(|e| e.matches(asid, page_number))
    }

    /// Inserts a translation into the [`Asid::GLOBAL`] context, evicting the
    /// LRU entry of the set if needed.
    pub fn insert(&mut self, page_number: u64) {
        self.insert_tagged(Asid::GLOBAL, page_number);
    }

    /// Inserts a translation into the given context, evicting the LRU entry
    /// of the set if needed. Eviction ignores ASIDs: all tenants compete for
    /// the shared capacity, which is exactly the cross-tenant contention the
    /// multi-tenant experiments measure.
    pub fn insert_tagged(&mut self, asid: Asid, page_number: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.ways;
        let set_idx = self.set_index(page_number);
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|e| e.matches(asid, page_number)) {
            entry.last_used = stamp;
            return;
        }
        self.fills += 1;
        if set.len() < ways {
            set.push(TlbEntry {
                asid,
                page_number,
                last_used: stamp,
            });
            Self::adjust_occupancy(&mut self.occupancy_by_asid, asid, 1);
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| e.last_used)
            .expect("a full set always has a victim");
        let evicted = victim.asid;
        *victim = TlbEntry {
            asid,
            page_number,
            last_used: stamp,
        };
        Self::adjust_occupancy(&mut self.occupancy_by_asid, evicted, -1);
        Self::adjust_occupancy(&mut self.occupancy_by_asid, asid, 1);
    }

    /// Invalidates a single [`Asid::GLOBAL`] translation (used when a page is
    /// migrated or unmapped). Returns `true` if the entry was present.
    pub fn invalidate(&mut self, page_number: u64) -> bool {
        self.invalidate_tagged(Asid::GLOBAL, page_number)
    }

    /// Invalidates a single translation of the given context. Returns `true`
    /// if the entry was present.
    pub fn invalidate_tagged(&mut self, asid: Asid, page_number: u64) -> bool {
        let set_idx = self.set_index(page_number);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|e| e.matches(asid, page_number)) {
            set.swap_remove(pos);
            Self::adjust_occupancy(&mut self.occupancy_by_asid, asid, -1);
            true
        } else {
            false
        }
    }

    /// Invalidates every translation (full TLB shootdown across all ASIDs).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.occupancy_by_asid.fill(0);
    }

    /// Invalidates every translation of one context, leaving all other
    /// tenants' entries (and their LRU state) untouched. Returns the number
    /// of entries removed.
    ///
    /// # Example
    ///
    /// ```
    /// use neummu_mmu::Tlb;
    /// use neummu_vmem::Asid;
    ///
    /// let mut tlb = Tlb::new(16, 4);
    /// tlb.insert_tagged(Asid::new(1), 7);
    /// tlb.insert_tagged(Asid::new(2), 7);
    /// assert_eq!(tlb.flush_asid(Asid::new(1)), 1);
    /// assert!(!tlb.contains_tagged(Asid::new(1), 7));
    /// assert!(tlb.contains_tagged(Asid::new(2), 7)); // the neighbour survives
    /// ```
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let mut removed = 0;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|e| e.asid != asid);
            removed += before - set.len();
        }
        Self::adjust_occupancy(&mut self.occupancy_by_asid, asid, -(removed as i64));
        removed
    }

    /// Invalidates the page's translation in *every* context (the broadcast
    /// shootdown an untagged invalidation performs in hardware). Returns the
    /// number of entries removed.
    pub fn invalidate_all_contexts(&mut self, page_number: u64) -> usize {
        let set_idx = self.set_index(page_number);
        let set = &mut self.sets[set_idx];
        let before = set.len();
        let occupancy_by_asid = &mut self.occupancy_by_asid;
        set.retain(|e| {
            if e.page_number == page_number {
                Self::adjust_occupancy(occupancy_by_asid, e.asid, -1);
                false
            } else {
                true
            }
        });
        before - set.len()
    }

    /// Number of resident entries belonging to the given context (a
    /// cross-tenant capacity-share snapshot for the contention breakdowns).
    /// O(1): read from the incrementally maintained per-ASID counters, not by
    /// scanning the sets — scheduling policies consult this per pick.
    #[must_use]
    pub fn occupancy_of(&self, asid: Asid) -> usize {
        self.occupancy_by_asid
            .get(asid.index())
            .copied()
            .unwrap_or(0) as usize
    }

    /// Number of valid entries currently resident.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Lifetime lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lifetime hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime fills.
    #[must_use]
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Lifetime hit rate.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new(16, 4);
        assert!(!tlb.lookup(42));
        tlb.insert(42);
        assert!(tlb.lookup(42));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.lookups(), 2);
        assert!((tlb.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_and_occupancy() {
        let mut tlb = Tlb::new(2048, 8);
        assert_eq!(tlb.capacity(), 2048);
        for p in 0..100 {
            tlb.insert(p);
        }
        assert_eq!(tlb.occupancy(), 100);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_a_set() {
        // Single-set TLB makes the LRU order easy to reason about.
        let mut tlb = Tlb::new(2, 2);
        tlb.insert(10);
        tlb.insert(20);
        // Touch 10 so that 20 becomes the LRU victim.
        assert!(tlb.lookup(10));
        tlb.insert(30);
        assert!(tlb.contains(10));
        assert!(!tlb.contains(20));
        assert!(tlb.contains(30));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut tlb = Tlb::new(4, 4);
        tlb.insert(5);
        tlb.insert(5);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.fills(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(8, 2);
        tlb.insert(1);
        tlb.insert(2);
        assert!(tlb.invalidate(1));
        assert!(!tlb.invalidate(1));
        assert!(!tlb.contains(1));
        tlb.flush();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn streaming_working_set_larger_than_capacity_thrashes() {
        // The key property the paper relies on: a streaming page sequence much
        // larger than the TLB yields a negligible hit rate when pages are not
        // revisited before eviction.
        let mut tlb = Tlb::new(256, 8);
        let mut hits = 0;
        for pass in 0..2 {
            for page in 0..4096u64 {
                if tlb.lookup(page) {
                    hits += 1;
                }
                tlb.insert(page);
                let _ = pass;
            }
        }
        assert_eq!(hits, 0, "streaming over 16x the capacity should never hit");
    }

    #[test]
    fn non_power_of_two_set_counts_use_the_modulo_path() {
        let mut tlb = Tlb::new(12, 2); // 6 sets: not a power of two
        for p in 0..24u64 {
            tlb.insert(p);
        }
        // The last two inserts of every set are resident.
        for p in 12..24u64 {
            assert!(tlb.contains(p), "page {p} missing");
        }
        assert_eq!(tlb.occupancy(), 12);
        assert!(tlb.lookup(23));
        assert!(!tlb.lookup(5));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = Tlb::new(0, 1);
    }

    #[test]
    fn run_hit_recording_matches_individual_lookups_bit_for_bit() {
        // Drive two TLBs through the same traffic, one with per-lookup hits
        // and one with a batched run record; their externally visible state
        // (counters, eviction decisions) must be identical.
        let mut individual = Tlb::new(4, 2);
        let mut batched = Tlb::new(4, 2);
        for tlb in [&mut individual, &mut batched] {
            tlb.insert(0);
            tlb.insert(2); // same set as 0 in a 2-set TLB
        }
        for _ in 0..7 {
            assert!(individual.lookup(0));
        }
        assert!(batched.record_run_hits(Asid::GLOBAL, 0, 7));
        assert_eq!(individual.lookups(), batched.lookups());
        assert_eq!(individual.hits(), batched.hits());
        assert_eq!(individual.fills(), batched.fills());
        // Both evict the same victim: 2 is LRU after the touches on 0.
        individual.insert(4);
        batched.insert(4);
        assert!(individual.contains(0) && batched.contains(0));
        assert!(!individual.contains(2) && !batched.contains(2));
        // Missing entries record nothing.
        assert!(!batched.record_run_hits(Asid::GLOBAL, 99, 3));
        // A zero-hit record is presence-check only.
        assert!(batched.record_run_hits(Asid::GLOBAL, 0, 0));
    }

    #[test]
    fn run_insert_recording_matches_individual_fills_and_misses_bit_for_bit() {
        // A walk window: each cycle inserts page 10 (a walk of it retires)
        // and then looks up page 30, which misses (a walk of it starts). The
        // batched record must leave the whole TLB — every entry's recency
        // stamp, the stamp counter, all counters — exactly as the
        // individual calls leave it, whether page 10 was resident or not and
        // whether its insert evicts.
        for fills in 1..=5u64 {
            for resident in [false, true] {
                let mut individual = Tlb::new(2, 2);
                let mut batched = Tlb::new(2, 2);
                for tlb in [&mut individual, &mut batched] {
                    tlb.insert(20);
                    if resident {
                        tlb.insert(10);
                    } else {
                        tlb.insert(40);
                    }
                    assert!(!tlb.lookup(30));
                }
                for _ in 0..fills {
                    individual.insert(10);
                    assert!(!individual.lookup(30));
                }
                batched.insert_run_tagged(Asid::GLOBAL, 10, fills);
                assert_eq!(format!("{individual:?}"), format!("{batched:?}"));
            }
        }
        // Zero fills record nothing.
        let mut tlb = Tlb::new(2, 2);
        tlb.insert_run_tagged(Asid::GLOBAL, 10, 0);
        assert_eq!(format!("{tlb:?}"), format!("{:?}", Tlb::new(2, 2)));
    }

    #[test]
    fn run_miss_recording_advances_lookups_without_hits() {
        let mut tlb = Tlb::new(8, 2);
        tlb.record_run_misses(5);
        assert_eq!(tlb.lookups(), 5);
        assert_eq!(tlb.hits(), 0);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn untagged_methods_are_the_global_asid() {
        let mut tlb = Tlb::new(8, 2);
        tlb.insert(3);
        assert!(tlb.contains_tagged(Asid::GLOBAL, 3));
        assert!(tlb.lookup_tagged(Asid::GLOBAL, 3));
        assert!(tlb.invalidate_tagged(Asid::GLOBAL, 3));
        tlb.insert_tagged(Asid::GLOBAL, 4);
        assert!(tlb.contains(4));
        assert!(tlb.lookup(4));
        assert!(tlb.invalidate(4));
    }

    #[test]
    fn identical_pages_in_different_asids_never_alias() {
        let mut tlb = Tlb::new(16, 4);
        let (a, b) = (Asid::new(1), Asid::new(2));
        tlb.insert_tagged(a, 42);
        assert!(!tlb.lookup_tagged(b, 42), "tenant B must miss on A's entry");
        tlb.insert_tagged(b, 42);
        assert_eq!(tlb.occupancy(), 2, "both tenants hold their own entry");
        assert!(tlb.lookup_tagged(a, 42));
        assert!(tlb.lookup_tagged(b, 42));
        // Invalidating one tenant's page leaves the twin intact.
        assert!(tlb.invalidate_tagged(a, 42));
        assert!(!tlb.contains_tagged(a, 42));
        assert!(tlb.contains_tagged(b, 42));
    }

    #[test]
    fn per_asid_flush_leaves_other_tenants_intact() {
        let mut tlb = Tlb::new(64, 4);
        let (a, b, c) = (Asid::new(1), Asid::new(2), Asid::new(3));
        for page in 0..10u64 {
            tlb.insert_tagged(a, page);
            tlb.insert_tagged(b, page);
        }
        tlb.insert_tagged(c, 99);
        assert_eq!(tlb.occupancy_of(a), 10);
        assert_eq!(tlb.flush_asid(a), 10);
        assert_eq!(tlb.occupancy_of(a), 0);
        assert_eq!(tlb.occupancy_of(b), 10);
        assert_eq!(tlb.occupancy_of(c), 1);
        for page in 0..10u64 {
            assert!(!tlb.contains_tagged(a, page));
            assert!(tlb.contains_tagged(b, page));
        }
        // Flushing an absent tenant is a no-op.
        assert_eq!(tlb.flush_asid(Asid::new(9)), 0);
    }

    /// Reference implementation of `occupancy_of`: scan every set. The
    /// incremental counters must agree with it after any mutation sequence.
    fn scanned_occupancy(tlb: &Tlb, asid: Asid) -> usize {
        tlb.sets
            .iter()
            .map(|set| set.iter().filter(|e| e.asid == asid).count())
            .sum()
    }

    #[test]
    fn occupancy_counters_track_fills_evictions_and_invalidations() {
        // A tiny TLB forces evictions quickly; three tenants interleave
        // inserts, targeted invalidations, broadcast shootdowns and per-ASID
        // flushes. After every mutation the O(1) counter must equal the scan.
        let mut tlb = Tlb::new(8, 2);
        let tenants = [Asid::new(0), Asid::new(1), Asid::new(5)];
        let check = |tlb: &Tlb| {
            for &asid in &tenants {
                assert_eq!(
                    tlb.occupancy_of(asid),
                    scanned_occupancy(tlb, asid),
                    "{asid} counter drifted from the scan"
                );
            }
        };
        for round in 0..6u64 {
            for (lane, &asid) in tenants.iter().enumerate() {
                tlb.insert_tagged(asid, round * 3 + lane as u64);
                check(&tlb);
            }
        }
        tlb.invalidate_tagged(tenants[1], 4);
        check(&tlb);
        tlb.invalidate_all_contexts(4);
        check(&tlb);
        let resident = scanned_occupancy(&tlb, tenants[2]);
        assert_eq!(tlb.flush_asid(tenants[2]), resident);
        check(&tlb);
        tlb.flush();
        for &asid in &tenants {
            assert_eq!(tlb.occupancy_of(asid), 0);
        }
        check(&tlb);
        // Unknown contexts read zero without growing anything.
        assert_eq!(tlb.occupancy_of(Asid::new(999)), 0);
    }

    #[test]
    fn occupancy_counter_handles_cross_asid_eviction() {
        // Single-set TLB: tenant B's insert evicts tenant A's LRU entry, so
        // A's counter must drop and B's must rise in the same operation.
        let mut tlb = Tlb::new(2, 2);
        let (a, b) = (Asid::new(1), Asid::new(2));
        tlb.insert_tagged(a, 10);
        tlb.insert_tagged(a, 20);
        assert_eq!(tlb.occupancy_of(a), 2);
        tlb.insert_tagged(b, 30);
        assert_eq!(tlb.occupancy_of(a), 1);
        assert_eq!(tlb.occupancy_of(b), 1);
        assert_eq!(tlb.occupancy(), 2);
    }

    #[test]
    fn tenants_share_capacity_and_lru_is_asid_blind() {
        // Single-set TLB: tenant B's streaming inserts evict tenant A's cold
        // entry (shared capacity), but A's recently touched entry survives.
        let mut tlb = Tlb::new(2, 2);
        let (a, b) = (Asid::new(1), Asid::new(2));
        tlb.insert_tagged(a, 10);
        tlb.insert_tagged(a, 20);
        assert!(tlb.lookup_tagged(a, 20)); // 10 becomes LRU
        tlb.insert_tagged(b, 30);
        assert!(
            !tlb.contains_tagged(a, 10),
            "cold entry evicted by tenant B"
        );
        assert!(tlb.contains_tagged(a, 20));
        assert!(tlb.contains_tagged(b, 30));
    }
}
