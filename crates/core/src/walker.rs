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
//!
//! Walks retire in `(completes_at, walk_slot)` order: earliest completion
//! first, the lowest slot first among equals (slots are reused LIFO). A
//! fault-free walk costs `levels_read × walk_latency_per_level` cycles with
//! `levels_read` in 1..=4, so walks of one depth admitted on non-decreasing
//! cycles complete in admission order. The pool therefore keeps one sorted
//! FIFO per depth and retires the least of at most five heads: the four FIFO
//! heads and the top of a small side heap. The side heap takes every walk
//! that would not sort after its FIFO's tail — fault-perturbed walks, and
//! admissions on an earlier cycle, or on the same cycle with a lower slot —
//! so the retirement order is exactly a single min-heap's whatever the
//! admission cycles, and a fault-free stream of monotone admissions never
//! touches the heap. The earliest completion is cached, so a drain with
//! nothing due costs one comparison.
//!
//! With merging disabled, a saturated pool retires one walk and admits one
//! on every cycle. [`WalkerPool::swap_walk_window`] does a run of such cycles
//! in one bulk step, when the walks due are all of one page: without TPregs
//! each admission takes the slot and FIFO entry its retirement frees, so the
//! window's walks are rewritten in place and rotated to their FIFO's back.
//! The engine then accounts for the whole window at once.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

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
/// artifacts, retirement order all flow through the completion queues).
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

/// The result of asking the pool to start a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkAdmission {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

#[derive(Debug, Clone)]
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

/// A walk's place in the retirement order: `(completes_at, walk_slot)`.
/// Slots are unique among live walks, so the order is total.
type DueKey = (u64, usize);

/// A [`DueKey`] ordered so that the side heap pops the least key first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MinDue(DueKey);

impl Ord for MinDue {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

impl PartialOrd for MinDue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Number of per-depth completion FIFOs: a walk reads 1..=4 levels.
const DEPTHS: usize = 4;

/// Completion lanes: the per-depth FIFOs (lane `levels_read - 1`), then the
/// side heap (lane [`SIDE`]).
const LANES: usize = DEPTHS + 1;

/// The side heap's lane.
const SIDE: usize = DEPTHS;

/// The head key of an empty lane: it sorts after every real walk.
const IDLE: DueKey = (u64::MAX, usize::MAX);

/// The FIFO of a fault-free walk that reads `levels_read` levels.
#[inline]
fn fifo_of(levels_read: u32) -> Option<usize> {
    let depth = levels_read as usize - 1;
    (depth < DEPTHS).then_some(depth)
}

/// Summary of one [`WalkerPool::swap_walk_window`] call: `walks` walks of
/// one page retired on consecutive cycles, and as many walks admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkWindow {
    /// Number of walks retired, and of walks admitted.
    pub walks: u64,
    /// Context of the retired walks.
    pub retired_asid: Asid,
    /// Page number of the retired walks.
    pub retired_page: u64,
    /// Whether the retired walks' page was mapped (their translations fill
    /// the TLB).
    pub retired_mapped: bool,
    /// Page-table levels read by the admitted walks, summed.
    pub levels_read: u64,
    /// Latest completion cycle among the admitted walks.
    pub latest_completion: u64,
}

/// The pool of hardware page-table walkers.
#[derive(Debug, Clone)]
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
    /// Completion order of fault-free walks, one FIFO per depth
    /// (`levels_read - 1`), each sorted by [`DueKey`].
    by_depth: [VecDeque<DueKey>; DEPTHS],
    /// The least key of each lane, [`IDLE`] when the lane is empty: the
    /// retirement order's candidates, side by side in one array.
    heads: [DueKey; LANES],
    /// Completion order of every walk that does not sort after its depth's
    /// FIFO tail (see the module doc).
    side: BinaryHeap<MinDue>,
    /// Earliest completion cycle of any in-flight walk, `u64::MAX` when
    /// none is in flight: the one comparison of a drain with nothing due.
    next_due: u64,
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
            by_depth: Default::default(),
            heads: [IDLE; LANES],
            side: BinaryHeap::new(),
            next_due: u64::MAX,
            quarantined: Vec::new(),
        }
    }

    /// Number of walkers in the pool.
    #[must_use]
    pub fn num_walkers(&self) -> usize {
        self.num_walkers
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
    /// of calls nothing has completed: that case costs one comparison against
    /// the cached earliest completion and returns 0.
    pub fn drain_completed(&mut self, cycle: u64, mut retire: impl FnMut(CompletedWalk)) -> usize {
        if self.next_due > cycle {
            return 0;
        }
        let mut retired = 0usize;
        loop {
            let (key, lane) = self.earliest();
            let (completes_at, slot) = key;
            if completes_at > cycle || key == IDLE {
                break;
            }
            self.pop_lane(lane);
            let walk = self.retire_slot(slot);
            retired += 1;
            retire(CompletedWalk {
                asid: walk.asid,
                page_number: walk.page_number,
                completed_at: walk.completes_at,
                merged_requests: walk.merged_requests,
                mapped: walk.mapped,
            });
        }
        self.next_due = self.earliest_due();
        retired
    }

    /// The least queued [`DueKey`] and its lane: the least lane head
    /// ([`IDLE`] when nothing is queued).
    #[inline]
    fn earliest(&self) -> (DueKey, usize) {
        let mut lane = 0;
        for candidate in 1..LANES {
            if self.heads[candidate] < self.heads[lane] {
                lane = candidate;
            }
        }
        (self.heads[lane], lane)
    }

    /// The earliest completion cycle of any queued walk (`u64::MAX` when
    /// nothing is queued).
    #[inline]
    fn earliest_due(&self) -> u64 {
        self.heads
            .iter()
            .fold(u64::MAX, |least, &(due, _)| least.min(due))
    }

    /// Removes the head of `lane` and refreshes the lane's head key.
    #[inline]
    fn pop_lane(&mut self, lane: usize) {
        self.heads[lane] = if lane == SIDE {
            self.side.pop();
            self.side.peek().map_or(IDLE, |&MinDue(key)| key)
        } else {
            let fifo = &mut self.by_depth[lane];
            fifo.pop_front();
            fifo.front().copied().unwrap_or(IDLE)
        };
    }

    /// Frees a retiring walk's slot, PTS entry and walker, and returns the
    /// walk.
    #[inline]
    fn retire_slot(&mut self, slot: usize) -> InFlightWalk {
        let walk = self.walks[slot]
            .take()
            .expect("queued entries always reference live walks");
        self.free_slots.push(slot);
        // The PTS only holds walks when merging is on (see occupy).
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
        walk
    }

    /// Retires the walks due on the consecutive cycles `cycle, cycle + 1, ...`
    /// and admits one walk of `page_number` on each, up to `max_walks`, in one
    /// bulk step. The pool ends exactly as one [`WalkerPool::drain_completed`]
    /// and one [`WalkerPool::start_walk_tagged`] per cycle would leave it:
    /// each walk is admitted in the slot and FIFO entry its retirement frees,
    /// its key moved on by the walk latency, on the walker that pushing the
    /// retired one onto the idle FIFO's back and popping its front gives; the
    /// window then rotates to the FIFO's back.
    ///
    /// Only pools without a PTS (merging) or TPregs have windows. A window is
    /// a prefix of the admitted depth's FIFO due on consecutive cycles. It
    /// ends before another lane's head or the first admission falls due, a
    /// tie, or a walk of another `(asid, page, mapped)` than the first, with
    /// merged requests or with a quarantine. Returns `None`, changing
    /// nothing, when the walk due at `cycle` heads another lane, when the
    /// FIFO's tail would not sort before the first admission, when the due
    /// walk is of the admitted `(asid, page)` itself, or when it is empty.
    pub fn swap_walk_window(
        &mut self,
        asid: Asid,
        cycle: u64,
        max_walks: u64,
        page_number: u64,
        full_levels: u32,
        mapped: bool,
    ) -> Option<WalkWindow> {
        if self.prmb_slots > 0 || self.tpreg_enabled {
            return None;
        }
        let levels_read = full_levels.max(1);
        let lane = fifo_of(levels_read)?;
        let latency = u64::from(levels_read) * self.walk_latency_per_level;
        let mut bound = cycle + latency;
        for other in (0..LANES).filter(|&other| other != lane) {
            bound = bound.min(self.heads[other].0);
        }
        let fifo = &mut self.by_depth[lane];
        let (&(due, first_slot), &tail) = (fifo.front()?, fifo.back()?);
        if due != cycle || bound <= cycle || tail >= (cycle + latency, first_slot) {
            return None;
        }
        let first = self.walks[first_slot]
            .as_ref()
            .expect("queued entries always reference live walks");
        let retired = (first.asid, first.page_number, first.mapped);
        if (retired.0, retired.1) == (asid, page_number) {
            return None;
        }
        // Scan and rewrite in one pass: the window is the FIFO's prefix.
        let limit = max_walks.min(bound - cycle);
        let mut n = 0u64;
        let mut entries = fifo.iter_mut().peekable();
        while let Some(key) = entries.next() {
            let (due, slot) = *key;
            if n == limit || due != cycle + n || entries.peek().is_some_and(|next| next.0 == due) {
                break;
            }
            let walk = self.walks[slot]
                .as_mut()
                .expect("queued entries always reference live walks");
            if (walk.asid, walk.page_number, walk.mapped) != retired
                || walk.merged_requests != 0
                || walk.quarantine_until != 0
            {
                break;
            }
            key.0 += latency;
            if let Some(idle) = self.free_walkers.pop_front() {
                self.free_walkers.push_back(walk.walker);
                walk.walker = idle;
            }
            walk.asid = asid;
            walk.page_number = page_number;
            walk.completes_at = key.0;
            walk.mapped = mapped;
            walk.flushed = false;
            n += 1;
        }
        fifo.rotate_left(usize::try_from(n).expect("a window fits in its FIFO"));
        self.heads[lane] = self.by_depth[lane][0];
        self.next_due = self.earliest_due();
        (n > 0).then_some(WalkWindow {
            walks: n,
            retired_asid: retired.0,
            retired_page: retired.1,
            retired_mapped: retired.2,
            levels_read: n * u64::from(levels_read),
            latest_completion: cycle + n - 1 + latency,
        })
    }

    /// Earliest cycle at which any in-flight walk completes (`None` if idle).
    #[must_use]
    pub fn next_completion(&self) -> Option<u64> {
        (self.next_due != u64::MAX).then_some(self.next_due)
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

    /// Probes the PTS for an in-flight walk of `page_number` in context
    /// `asid` and, if present and a PRMB slot is free, merges the request
    /// into it: a request only merges into an in-flight walk with the same
    /// `(asid, page_number)` PTS key.
    ///
    /// Returns the walker and completion cycle of the walk the request was
    /// merged into, or `None` if no merge was possible (no in-flight walk,
    /// merging disabled, or the walker's PRMB is full).
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

    /// Starts a new walk at `cycle` for `page_number` in context `asid`,
    /// whose full walk would read `full_levels` page-table entries and whose
    /// upper-path tag is `tag`. `mapped` records whether the page table
    /// actually holds a translation (an unmapped page still costs a partial
    /// walk). The walk's PTS entry is keyed by `(asid, page_number)` so only
    /// same-context requests can merge into it.
    ///
    /// Returns [`WalkAdmission::Rejected`] when every walker is busy.
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
        let (walk, path_match, levels_read) =
            self.new_walk(walker, asid, cycle, page_number, tag, full_levels, mapped);
        let completes_at = walk.completes_at;
        self.enqueue_walk(walk, fifo_of(levels_read));
        WalkAdmission::Started {
            walker,
            completes_at,
            path_match,
            levels_read,
        }
    }

    /// A fault-free walk on `walker`, which the caller has taken off the
    /// idle FIFO: probes and fills the walker's TPreg. Returns the walk, its
    /// TPreg match and the levels it reads.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn new_walk(
        &mut self,
        walker: usize,
        asid: Asid,
        cycle: u64,
        page_number: u64,
        tag: PathTag,
        full_levels: u32,
        mapped: bool,
    ) -> (InFlightWalk, PathMatch, u32) {
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
        (walk, path_match, levels_read)
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
        self.enqueue_walk(walk, None);
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

    /// Slots the walk into the slot the LIFO free list hands back (a new
    /// one when none is free) and queues it (see [`Self::occupy`]).
    #[inline]
    fn enqueue_walk(&mut self, walk: InFlightWalk, fifo: Option<usize>) {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.walks.push(None);
            self.walks.len() - 1
        });
        self.occupy(slot, walk, fifo);
    }

    /// Puts the walk in the free `slot`, the PTS and the completion order:
    /// the FIFO `fifo` when given and the walk sorts after its tail, the
    /// side heap otherwise.
    #[inline]
    fn occupy(&mut self, slot: usize, walk: InFlightWalk, fifo: Option<usize>) {
        let due = (walk.completes_at, slot);
        if self.prmb_slots > 0 {
            self.pts.insert((walk.asid, walk.page_number), slot);
        }
        self.walks[slot] = Some(walk);
        match fifo {
            Some(depth) if self.by_depth[depth].back().is_none_or(|&tail| tail < due) => {
                let fifo = &mut self.by_depth[depth];
                if fifo.is_empty() {
                    self.heads[depth] = due;
                }
                fifo.push_back(due);
            }
            _ => {
                self.side.push(MinDue(due));
                self.heads[SIDE] = self.heads[SIDE].min(due);
            }
        }
        self.next_due = self.next_due.min(due.0);
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
        pool.start_walk_tagged(Asid::GLOBAL, cycle, page, tag_of_page(page), 4, true)
    }

    /// The walks `drain_completed` retires by `cycle`, in completion order.
    fn retire(pool: &mut WalkerPool, cycle: u64) -> Vec<CompletedWalk> {
        let mut retired = Vec::new();
        pool.drain_completed(cycle, |walk| retired.push(walk));
        retired
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
        assert_eq!(walkers_in_flight(&pool).len(), 1);
        assert!(retire(&mut pool, 399).is_empty());
        let retired = retire(&mut pool, 400);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].page_number, 7);
        assert_eq!(walkers_in_flight(&pool).len(), 0);
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
        retire(&mut pool, 400);
        assert!(matches!(
            start(&mut pool, 400, 3),
            WalkAdmission::Started { .. }
        ));
    }

    #[test]
    fn merging_requires_prmb_slots() {
        let mut no_merge = WalkerPool::new(4, 0, 100, false);
        start(&mut no_merge, 0, 9);
        assert!(no_merge.try_merge_tagged(Asid::GLOBAL, 9).is_none());

        let mut pool = WalkerPool::new(4, 2, 100, false);
        start(&mut pool, 0, 9);
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 9).is_some());
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 9).is_some());
        // PRMB full after two merges.
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 9).is_none());
        // A different page has no in-flight walk to merge into.
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 10).is_none());
        let retired = retire(&mut pool, 1_000);
        assert_eq!(retired[0].merged_requests, 2);
    }

    #[test]
    fn bulk_merges_respect_the_prmb_budget_like_individual_merges() {
        let mut pool = WalkerPool::new(4, 8, 100, false);
        start(&mut pool, 0, 9);
        // Two individual merges, then a bulk request for ten more: only the
        // six remaining slots are granted.
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 9).is_some());
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 9).is_some());
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 10), 6);
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 1), 0);
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 9).is_none());
        // No in-flight walk, zero requests, disabled merging: all zero.
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 10, 4), 0);
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 0), 0);
        let mut no_merge = WalkerPool::new(4, 0, 100, false);
        start(&mut no_merge, 0, 9);
        assert_eq!(no_merge.merge_run_tagged(Asid::GLOBAL, 9, 4), 0);
        // The retired walk carries the bulk-merged count.
        let retired = retire(&mut pool, u64::MAX);
        assert_eq!(retired[0].merged_requests, 8);
    }

    #[test]
    fn merged_requests_complete_with_their_walk() {
        let mut pool = WalkerPool::new(1, 8, 50, false);
        let completes = match start(&mut pool, 10, 5) {
            WalkAdmission::Started { completes_at, .. } => completes_at,
            other => panic!("unexpected {other:?}"),
        };
        let (_, merged_completes) = pool.try_merge_tagged(Asid::GLOBAL, 5).unwrap();
        assert_eq!(merged_completes, completes);
    }

    #[test]
    fn tpreg_skips_levels_for_same_region_walks() {
        let mut pool = WalkerPool::new(1, 0, 100, true);
        // First walk of a region reads all four levels.
        match pool.start_walk_tagged(Asid::GLOBAL, 0, 0x1000, tag_of_page(0x1000), 4, true) {
            WalkAdmission::Started { levels_read, .. } => assert_eq!(levels_read, 4),
            other => panic!("unexpected {other:?}"),
        }
        retire(&mut pool, u64::MAX);
        // The next page in the same 2 MB region only reads the leaf level.
        match pool.start_walk_tagged(Asid::GLOBAL, 500, 0x1001, tag_of_page(0x1001), 4, true) {
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
        pool.start_walk_tagged(Asid::GLOBAL, 0, 0, tag_of_page(0), 3, true);
        retire(&mut pool, u64::MAX);
        match pool.start_walk_tagged(Asid::GLOBAL, 0, 1, tag_of_page(0), 3, true) {
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
        let retired = retire(&mut pool, u64::MAX);
        assert_eq!(retired.len(), 2);
        assert!(retired[0].completed_at <= retired[1].completed_at);
        assert_eq!(retired[0].page_number, 2);
    }

    #[test]
    fn drain_completed_retires_in_completion_order_and_counts() {
        let mut pool = WalkerPool::new(4, 2, 100, true);
        start(&mut pool, 100, 1);
        start(&mut pool, 0, 2);
        start(&mut pool, 50, 3);
        pool.try_merge_tagged(Asid::GLOBAL, 2);
        let mut drained = Vec::new();
        let count = pool.drain_completed(500, |walk| drained.push(walk));
        let order: Vec<_> = drained
            .iter()
            .map(|w| (w.page_number, w.completed_at))
            .collect();
        assert_eq!(count, 3);
        assert_eq!(order, [(2, 400), (3, 450), (1, 500)]);
        assert_eq!(drained[0].merged_requests, 1);
        // Nothing left: the fast path reports zero without invoking the sink.
        assert_eq!(pool.drain_completed(u64::MAX, |_| panic!("empty pool")), 0);
    }

    #[test]
    fn walk_window_swaps_one_retirement_for_one_admission_per_cycle() {
        let mut pool = WalkerPool::new(4, 0, 100, false);
        // Four walks of page 7 on consecutive cycles fill the pool; they
        // complete on cycles 400..=403.
        for cycle in 0..4 {
            start(&mut pool, cycle, 7);
        }
        let window = pool.swap_walk_window(Asid::GLOBAL, 400, 10, 8, 4, true);
        assert_eq!(
            window,
            Some(WalkWindow {
                walks: 4,
                retired_asid: Asid::GLOBAL,
                retired_page: 7,
                retired_mapped: true,
                levels_read: 16,
                latest_completion: 803,
            })
        );
        assert_eq!(walkers_in_flight(&pool).len(), 4);
        assert_eq!(pool.next_completion(), Some(800));
        // The walks due next are of page 8 itself: no window admits page 8.
        assert_eq!(
            pool.swap_walk_window(Asid::GLOBAL, 800, 10, 8, 4, true),
            None
        );
        // A window starts only on the earliest due cycle.
        assert_eq!(
            pool.swap_walk_window(Asid::GLOBAL, 801, 10, 9, 4, true),
            None
        );
        // `max_walks` caps the window.
        let capped = pool.swap_walk_window(Asid::GLOBAL, 800, 2, 9, 4, true);
        assert_eq!(capped.map(|w| (w.walks, w.retired_page)), Some((2, 8)));
        let retired: Vec<(u64, u64)> = retire(&mut pool, u64::MAX)
            .iter()
            .map(|w| (w.page_number, w.completed_at))
            .collect();
        assert_eq!(retired, vec![(8, 802), (8, 803), (9, 1200), (9, 1201)]);
    }

    #[test]
    fn walk_window_stops_where_walks_tie_or_differ() {
        let mut pool = WalkerPool::new(4, 0, 100, false);
        // Two walks tie at cycle 400: the per-cycle path would retire both
        // before one admission, so no window opens and nothing changes.
        start(&mut pool, 0, 7);
        start(&mut pool, 0, 7);
        assert_eq!(
            pool.swap_walk_window(Asid::GLOBAL, 400, 4, 8, 4, true),
            None
        );
        assert_eq!(retire(&mut pool, 400).len(), 2);
        // A walk of another page, or of an unmapped page, ends the window.
        start(&mut pool, 500, 7);
        start(&mut pool, 501, 6);
        pool.start_walk_tagged(Asid::GLOBAL, 502, 7, tag_of_page(7), 4, false);
        let window = pool.swap_walk_window(Asid::GLOBAL, 900, 4, 8, 4, true);
        assert_eq!(window.map(|w| w.walks), Some(1));
        assert_eq!(pool.next_completion(), Some(901));
    }

    /// Expands a window per walk on `pool`: one drain and one admission of
    /// `page` on each of `walks` cycles from `cycle`. Returns the admitted
    /// walkers.
    fn expand_window(pool: &mut WalkerPool, cycle: u64, walks: u64, page: u64) -> Vec<usize> {
        (cycle..cycle + walks)
            .map(|at| {
                assert_eq!(retire(pool, at).len(), 1);
                match start(pool, at, page) {
                    WalkAdmission::Started { walker, .. } => walker,
                    other => panic!("a retirement frees a walker, got {other:?}"),
                }
            })
            .collect()
    }

    /// The walkers of the in-flight walks, in retirement order.
    fn walkers_in_flight(pool: &WalkerPool) -> Vec<usize> {
        pool.by_depth[3]
            .iter()
            .map(|&(_, slot)| pool.walks[slot].as_ref().unwrap().walker)
            .collect()
    }

    #[test]
    fn walk_window_swaps_eight_walks_in_one_call() {
        // Saturated (8 walkers), each admission takes the walker its
        // retirement freed. Unsaturated (32), walkers 8..16 lead the idle
        // FIFO and the retired walkers 0..8 queue behind 16..32.
        for (walkers, admitted, idle) in [
            (8, 0..8, vec![]),
            (32, 8..16, (16..32).chain(0..8).collect()),
        ] {
            let mut pool = WalkerPool::new(walkers, 0, 100, false);
            for cycle in 0..8 {
                start(&mut pool, cycle, 7);
            }
            let mut expanded = pool.clone();
            let window = pool.swap_walk_window(Asid::GLOBAL, 400, 100, 8, 4, true);
            assert_eq!(window.map(|w| w.walks), Some(8));
            let admitted: Vec<usize> = admitted.collect();
            assert_eq!(expand_window(&mut expanded, 400, 8, 8), admitted);
            assert_eq!(walkers_in_flight(&pool), admitted);
            assert_eq!(pool.free_walkers, idle);
            assert_eq!(format!("{pool:?}"), format!("{expanded:?}"));
        }
    }

    #[test]
    fn walk_window_ends_at_its_bound() {
        // A 3-level walk due at 402 ends the window of 4-level walks before
        // the tie at 402.
        let mut pool = WalkerPool::new(8, 0, 100, false);
        for cycle in 0..4 {
            start(&mut pool, cycle, 7);
        }
        pool.start_walk_tagged(Asid::GLOBAL, 102, 9, tag_of_page(9), 3, true);
        let window = pool.swap_walk_window(Asid::GLOBAL, 400, 100, 8, 4, true);
        assert_eq!(window.map(|w| w.walks), Some(2));
        // Walks of 4 cycles due at 14..=18, in slots 4, 3, 2, 1, 0 (the
        // LIFO free list hands back the slots of five retired walks): the
        // first admission, key (18, 4), ends the window before its tie with
        // the walk in slot 0 at 18.
        let mut pool = WalkerPool::new(8, 0, 1, false);
        for page in 1..=5 {
            start(&mut pool, 0, page);
        }
        assert_eq!(retire(&mut pool, 4).len(), 5);
        for cycle in 10..15 {
            start(&mut pool, cycle, 7);
        }
        let mut expanded = pool.clone();
        let window = pool.swap_walk_window(Asid::GLOBAL, 14, 100, 8, 4, true);
        assert_eq!(
            window.map(|w| (w.walks, w.latest_completion)),
            Some((4, 21))
        );
        expand_window(&mut expanded, 14, 4, 8);
        assert_eq!(format!("{pool:?}"), format!("{expanded:?}"));
    }

    #[test]
    fn walk_windows_need_a_pool_without_pts_or_tpregs() {
        for (prmb, tpreg) in [(2, false), (0, true)] {
            let mut pool = WalkerPool::new(4, prmb, 100, tpreg);
            start(&mut pool, 0, 7);
            assert_eq!(
                pool.swap_walk_window(Asid::GLOBAL, 400, 4, 8, 4, true),
                None
            );
        }
        // A perturbed walk due first sits in the side heap: no window.
        let mut pool = WalkerPool::new(4, 0, 100, false);
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 7, 4, 400, true, 0);
        assert_eq!(
            pool.swap_walk_window(Asid::GLOBAL, 400, 4, 8, 4, true),
            None
        );
        // A window admitting 3-level walks cannot retire 4-level ones.
        let mut pool = WalkerPool::new(4, 0, 100, false);
        start(&mut pool, 0, 7);
        assert_eq!(
            pool.swap_walk_window(Asid::GLOBAL, 400, 4, 8, 3, true),
            None
        );
        // The FIFO's tail, due at 800 in slot 1, sorts after the first
        // admission's key (800, slot 0): that admission would queue in the
        // side heap, so no window opens.
        start(&mut pool, 400, 6);
        assert_eq!(
            pool.swap_walk_window(Asid::GLOBAL, 400, 4, 8, 4, true),
            None
        );
        assert_eq!(walkers_in_flight(&pool).len(), 2);
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
        let retired = retire(&mut pool, u64::MAX);
        assert_eq!(retired.len(), 2);
        let mut asids: Vec<u16> = retired.iter().map(|w| w.asid.raw()).collect();
        asids.sort_unstable();
        assert_eq!(asids, vec![1, 2]);
    }

    #[test]
    fn unmapped_pages_still_consume_a_walk() {
        let mut pool = WalkerPool::new(1, 4, 100, false);
        pool.start_walk_tagged(Asid::GLOBAL, 0, 77, tag_of_page(77), 1, false);
        let retired = retire(&mut pool, u64::MAX);
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
        assert!(retire(&mut pool, 10 + 1_233).is_empty());
        let retired = retire(&mut pool, 10 + 1_234);
        assert_eq!(retired.len(), 1);
        assert!(retired[0].mapped);
    }

    #[test]
    fn perturbed_walk_accepts_prmb_merges() {
        let mut pool = WalkerPool::new(2, 4, 100, false);
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 42, 4, 5_000, true, 0);
        assert_eq!(pool.try_merge_tagged(Asid::GLOBAL, 42), Some((0, 5_000)));
        let retired = retire(&mut pool, 5_000);
        assert_eq!(retired[0].merged_requests, 1);
    }

    #[test]
    fn quarantined_walker_is_parked_until_cooldown() {
        let mut pool = WalkerPool::new(1, 0, 100, false);
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 42, 4, 400, true, 1_000);
        assert_eq!(retire(&mut pool, 400).len(), 1);
        // The only walker is now quarantined: the pool has shrunk to zero.
        assert!(!pool.has_free_walker());
        assert_eq!(pool.earliest_readmit(), Some(1_000));
        // A new walk is rejected with the readmission cycle, not a panic
        // (the heap is empty — there is no in-flight completion to wait on).
        let admission = pool.start_walk_tagged(Asid::GLOBAL, 500, 43, tag_of_page(43), 4, true);
        assert_eq!(admission, WalkAdmission::Rejected { retry_at: 1_000 });
        // Before the cool-down expires readmission is a no-op.
        pool.readmit_quarantined(999);
        assert!(!pool.has_free_walker());
        // At the cool-down boundary the walker rejoins the free list.
        pool.readmit_quarantined(1_000);
        assert!(pool.has_free_walker());
        assert_eq!(pool.earliest_readmit(), None);
        assert!(matches!(
            pool.start_walk_tagged(Asid::GLOBAL, 1_000, 43, tag_of_page(43), 4, true),
            WalkAdmission::Started { .. }
        ));
    }

    #[test]
    fn rejected_retry_at_is_min_of_completion_and_readmit() {
        let mut pool = WalkerPool::new(2, 0, 100, false);
        // Walker 0 quarantines until cycle 5_000; walker 1 walks until 700.
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 1, 4, 300, true, 5_000);
        assert_eq!(retire(&mut pool, 300).len(), 1);
        pool.start_walk_tagged(Asid::GLOBAL, 300, 2, tag_of_page(2), 4, true);
        let admission = pool.start_walk_tagged(Asid::GLOBAL, 350, 3, tag_of_page(3), 4, true);
        assert_eq!(admission, WalkAdmission::Rejected { retry_at: 700 });
    }
}
