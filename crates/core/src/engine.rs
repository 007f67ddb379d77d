//! The cycle-accounted translation front end driven by the NPU's DMA engine.
//!
//! The DMA presents translation requests in program order, at most one per
//! cycle. Each request flows through the structures of Figure 9:
//!
//! 1. the IOTLB (hit → done after the TLB hit latency),
//! 2. on a miss, the pending translation scoreboard (PTS); a hit merges the
//!    request into the in-flight walk's PRMB,
//! 3. otherwise a free page-table walker starts a walk, reading one
//!    page-table level per `walk_latency_per_level` cycles (minus the levels
//!    its TPreg lets it skip),
//! 4. when neither a walker nor a mergeable slot is available the request —
//!    and therefore the DMA — stalls until translation bandwidth frees up.
//!
//! The engine reports, for every request, when it was *accepted* (the DMA may
//! not issue the next request earlier) and when its translation *completed*
//! (the data fetch may start no earlier). These two numbers are what couple
//! address translation into the NPU performance model.

use std::sync::OnceLock;

use serde::Serialize;

use neummu_energy::{EnergyEvent, EnergyMeter, EnergyTable};
use neummu_faults::{
    DeviceFaultConfig, DeviceFaultPlan, FaultCounters, FaultError, InjectedFault, ResilienceConfig,
    FAULT_KINDS,
};
use neummu_vmem::{Asid, PageSize, PageTable, PathTag, VirtAddr, WalkProbe};

use crate::config::{MmuConfig, MmuKind};
use crate::stats::TranslationStats;
use crate::tlb::Tlb;
use crate::walker::{WalkAdmission, WalkerPool};

/// How a translation request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TranslationSource {
    /// Satisfied with zero latency by the oracular MMU.
    Oracle,
    /// Hit in the IOTLB.
    TlbHit,
    /// Merged into an in-flight walk by the PTS/PRMB.
    Merged,
    /// Required a page-table walk that read the given number of levels.
    PageWalk {
        /// Page-table levels read from memory.
        levels_read: u32,
    },
}

/// The timing outcome of one translation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TranslationOutcome {
    /// Cycle at which the engine accepted the request. Always at least the
    /// issue cycle; later when the request had to stall for translation
    /// bandwidth. The requester may issue its next request no earlier than
    /// `accept_cycle + 1`.
    pub accept_cycle: u64,
    /// Cycle at which the translated physical address is available.
    pub complete_cycle: u64,
    /// How the request was satisfied.
    pub source: TranslationSource,
    /// True if the page was not mapped (translation fault). The caller decides
    /// how to handle the fault (demand paging, NUMA mapping, abort).
    pub fault: bool,
}

/// The outcome of a run-coalesced burst of same-page translation requests
/// (see [`AddressTranslator::translate_run`]).
///
/// The first request of the run resolves through the full translation path
/// and its outcome is reported verbatim in `first`. The remaining
/// `consumed - 1` requests were *replayed* arithmetically: request `j`
/// (0-based within the run) was accepted at `first.accept_cycle + j` and
/// completed at `first.complete_cycle + j * complete_stride` — a stride of 1
/// for replayed TLB hits (each hit completes a fixed TLB latency after its
/// own accept) and 0 for replayed PRMB merges (every merged request completes
/// when the shared walk retires). A run outcome never hides information: the
/// per-request [`TranslationOutcome`]s reconstructed by
/// [`RunOutcome::outcome`] are bit-identical to what `consumed` individual
/// `translate` calls would have returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Outcome of the run's first request (full translation path).
    pub first: TranslationOutcome,
    /// How many of the run's requests this call resolved (at least 1, at
    /// most the requested count). When smaller than the requested count, the
    /// replay hit a non-arithmetic event (PRMB exhaustion, an eviction, a
    /// fault) and the caller re-issues the remainder with another
    /// `translate_run` call, whose first request takes the full path —
    /// exactly like the per-transaction sequence.
    pub consumed: u64,
    /// Completion stride of the replayed requests: 1 for TLB-hit replays,
    /// 0 for merge replays (and for an unreplayed single).
    pub complete_stride: u64,
    /// How each replayed request was satisfied.
    pub replay_source: TranslationSource,
    /// Fault flag of every replayed request (the oracle replays faulting
    /// bursts; the cycle-accounted engine never replays past a fault).
    pub replay_fault: bool,
}

impl RunOutcome {
    /// A run outcome that resolved only its first request.
    #[must_use]
    pub fn single(first: TranslationOutcome) -> Self {
        RunOutcome {
            first,
            consumed: 1,
            complete_stride: 0,
            replay_source: first.source,
            replay_fault: first.fault,
        }
    }

    /// Number of requests replayed arithmetically (`consumed - 1`).
    #[must_use]
    pub fn replayed(&self) -> u64 {
        self.consumed - 1
    }

    /// Accept cycle of the `index`-th request of the run.
    #[must_use]
    pub fn accept(&self, index: u64) -> u64 {
        debug_assert!(index < self.consumed);
        self.first.accept_cycle + index
    }

    /// Completion cycle of the `index`-th request of the run.
    #[must_use]
    pub fn complete(&self, index: u64) -> u64 {
        debug_assert!(index < self.consumed);
        if index == 0 {
            self.first.complete_cycle
        } else {
            self.first.complete_cycle + index * self.complete_stride
        }
    }

    /// Accept cycle of the run's last resolved request (the requester may
    /// issue its next request no earlier than one cycle later).
    #[must_use]
    pub fn last_accept(&self) -> u64 {
        self.accept(self.consumed - 1)
    }

    /// The full per-request outcome of the `index`-th request, bit-identical
    /// to what an individual `translate` call would have returned.
    #[must_use]
    pub fn outcome(&self, index: u64) -> TranslationOutcome {
        if index == 0 {
            return self.first;
        }
        TranslationOutcome {
            accept_cycle: self.accept(index),
            complete_cycle: self.complete(index),
            source: self.replay_source,
            fault: self.replay_fault,
        }
    }
}

/// Common interface of the oracular MMU and the cycle-accounted engines.
///
/// The trait requires `Send` so that boxed translators — and any per-point
/// simulation state embedding one — can move onto worker threads of the
/// parallel experiment runner. All translator state is plain owned data, so
/// every implementation satisfies the bound structurally.
pub trait AddressTranslator: Send {
    /// Translates `va` for a request issued at `cycle`.
    ///
    /// Requests must be issued in non-decreasing cycle order; the engine
    /// models an in-order DMA front end. Equivalent to
    /// [`AddressTranslator::translate_tagged`] in the [`Asid::GLOBAL`]
    /// context.
    fn translate(&mut self, page_table: &PageTable, va: VirtAddr, cycle: u64)
        -> TranslationOutcome;

    /// Translates `va` in the tenant context `asid`, walking that tenant's
    /// `page_table`.
    ///
    /// Translators that cache per-address state (the IOTLB, the PTS) key it
    /// by `(asid, page)` so contexts never alias; stateless translators (the
    /// oracle, whose memo is already stamped by the page table's globally
    /// unique revision) ignore the tag, which is what this default does.
    fn translate_tagged(
        &mut self,
        page_table: &PageTable,
        asid: Asid,
        va: VirtAddr,
        cycle: u64,
    ) -> TranslationOutcome {
        let _ = asid;
        self.translate(page_table, va, cycle)
    }

    /// Invalidates every cached translation belonging to the tenant context
    /// `asid` (context teardown / page-table switch), leaving other tenants'
    /// state untouched. Stateless translators need not do anything.
    fn flush_asid(&mut self, asid: Asid) {
        let _ = asid;
    }

    /// Translates a run of `count` back-to-back same-page requests, the
    /// first at address `va` issued at `cycle`, each subsequent request
    /// issued one cycle after the previous one was accepted — the exact
    /// issue pattern of a DMA burst. Every address of the run must lie on
    /// the same [`AddressTranslator::page_size`] page as `va`.
    ///
    /// Implementations resolve the first request through the full
    /// translation path and may *replay* as many of the remaining requests
    /// as behave arithmetically (see [`RunOutcome`]); the sequence of
    /// outcomes and every statistic are bit-identical to `count` individual
    /// [`AddressTranslator::translate`] calls. The default implementation
    /// coalesces nothing: it resolves the first request and returns
    /// `consumed == 1`, which is always correct.
    ///
    /// Equivalent to [`AddressTranslator::translate_run_tagged`] in the
    /// [`Asid::GLOBAL`] context.
    fn translate_run(
        &mut self,
        page_table: &PageTable,
        va: VirtAddr,
        count: u64,
        cycle: u64,
    ) -> RunOutcome {
        debug_assert!(count >= 1, "a run has at least one request");
        RunOutcome::single(self.translate(page_table, va, cycle))
    }

    /// [`AddressTranslator::translate_run`] in the tenant context `asid`.
    /// The default resolves the first request and coalesces nothing.
    fn translate_run_tagged(
        &mut self,
        page_table: &PageTable,
        asid: Asid,
        va: VirtAddr,
        count: u64,
        cycle: u64,
    ) -> RunOutcome {
        debug_assert!(count >= 1, "a run has at least one request");
        RunOutcome::single(self.translate_tagged(page_table, asid, va, cycle))
    }

    /// Statistics accumulated so far.
    fn stats(&self) -> &TranslationStats;

    /// Translation energy so far, priced from the statistics (walk DRAM
    /// accesses plus MMU SRAM accesses, Section IV-B/IV-C).
    fn energy(&self) -> EnergyMeter;

    /// The configured page size of the engine.
    fn page_size(&self) -> PageSize;

    /// Resets statistics and internal occupancy (but not the
    /// configuration).
    fn reset(&mut self);

    /// Invalidates any cached translation state for the page containing `va`
    /// (after page migration or unmapping). The oracle has no cached state,
    /// so the default implementation does nothing.
    fn invalidate_page(&mut self, va: VirtAddr) {
        let _ = va;
    }
}

/// The mapped-ness of the most recent page probed by the oracle.
///
/// The oracle only ever asks "is this address mapped?", and the DMA asks it
/// in page-local bursts (a 512-byte transaction stream touches the same 4 KB
/// page eight times in a row, a 2 MB page 4096 times). Mapped-ness is
/// constant across the leaf page containing the address, so the memo answers
/// repeat questions without traversing the radix tree.
/// [`PageTable::revision`] serves as the version stamp: a globally unique
/// draw re-taken on every `map`/`unmap`, so the memo can never survive a
/// mapped-ness change (even a compensating unmap+map pair) nor leak across
/// two different page tables, and stays put across `remap` (page migration),
/// which cannot change mapped-ness. Like the engine's IOTLB, the memo
/// additionally honors [`AddressTranslator::invalidate_page`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MappedRangeMemo {
    stamp: u64,
    start: u64,
    end: u64,
    mapped: bool,
}

impl MappedRangeMemo {
    fn covers(&self, stamp: u64, va: VirtAddr) -> bool {
        self.stamp == stamp && self.start <= va.raw() && va.raw() < self.end
    }
}

/// Event-kind indices of the engine's trace tap (into [`TAP_LABELS`] /
/// [`TAP_CAPS`] / [`EngineTap::bins`]).
const TAP_TLB_HIT: usize = 0;
const TAP_MERGE: usize = 1;
const TAP_WALK: usize = 2;
const TAP_FAULT: usize = 3;
const TAP_REPLAY_HITS: usize = 4;
const TAP_REPLAY_MERGES: usize = 5;
const TAP_REPLAY_WALKS: usize = 6;
const TAP_RETIRE: usize = 7;
const TAP_KIND_COUNT: usize = 8;

/// Trace kind labels, interned once per process against the installed sink.
const TAP_LABELS: [&str; TAP_KIND_COUNT] = [
    "engine/tlb_hit",
    "engine/prmb_merge",
    "engine/page_walk",
    "engine/fault",
    "engine/replay/hits",
    "engine/replay/merges",
    "engine/replay/walks",
    "engine/walk_retire",
];

/// How many same-kind, same-ASID events accumulate in a bin before it is
/// emitted as one trace record. Chosen so that a full-scale run (hundreds of
/// millions of requests) produces a trace of a few million records: frequent
/// kinds bin coarsely, walks finely enough that their span distribution
/// survives, and faults are emitted individually.
const TAP_CAPS: [u32; TAP_KIND_COUNT] = [1024, 1024, 256, 1, 256, 256, 256, 1024];

/// One accumulating bin of the engine's trace tap: `events` same-kind events
/// of one ASID, covering the cycle span `start..end`, with summed `weight`
/// (request count).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TraceBin {
    asid: u16,
    events: u32,
    weight: u64,
    start: u64,
    end: u64,
}

/// The engine's connection to the process-wide event-trace sink
/// (`neummu_trace`), binned so emission stays off the per-request path.
///
/// The tap accumulates locally and emits its pending bins when dropped; each
/// bin is one trace *event* carrying the covered cycle span. Bins depend
/// only on the deterministic per-engine call sequence (timestamps are
/// simulated cycles, a bin never spans two ASIDs), so trace content is
/// identical across runner thread counts. `enabled` is
/// captured at construction: a sink installed later misses at most the
/// engines already built, and no sink ever means zero work per event beyond
/// one predictable branch.
#[derive(Debug)]
struct EngineTap {
    enabled: bool,
    bins: [TraceBin; TAP_KIND_COUNT],
}

/// Kind ids for [`TAP_LABELS`], interned against the installed global sink
/// once per process. Never caches a negative: if no sink is installed yet,
/// later calls re-check.
fn tap_kinds() -> Option<&'static [neummu_trace::KindId; TAP_KIND_COUNT]> {
    static KINDS: OnceLock<[neummu_trace::KindId; TAP_KIND_COUNT]> = OnceLock::new();
    if let Some(kinds) = KINDS.get() {
        return Some(kinds);
    }
    let sink = neummu_trace::global()?;
    Some(KINDS.get_or_init(|| TAP_LABELS.map(|label| sink.kind(label))))
}

/// Fault outcomes a trace event distinguishes: recovered / failed / hung.
const FAULT_OUTCOME_COUNT: usize = 3;

/// Trace kind labels for injected device faults, `fault/<kind>/<outcome>`,
/// row order matching [`neummu_faults::FaultKind::index`]. Unlike
/// [`TAP_LABELS`] these are
/// interned *lazily*, on the first fault actually emitted: registering them
/// eagerly alongside the tap labels would add twelve kinds to every trace's
/// label table and change the bytes of fault-free golden traces.
const FAULT_TRACE_LABELS: [[&str; FAULT_OUTCOME_COUNT]; FAULT_KINDS] = [
    [
        "fault/timeout/recovered",
        "fault/timeout/failed",
        "fault/timeout/hung",
    ],
    [
        "fault/dropped/recovered",
        "fault/dropped/failed",
        "fault/dropped/hung",
    ],
    [
        "fault/transient/recovered",
        "fault/transient/failed",
        "fault/transient/hung",
    ],
    [
        "fault/stuck/recovered",
        "fault/stuck/failed",
        "fault/stuck/hung",
    ],
];

/// Kind ids for [`FAULT_TRACE_LABELS`], interned on first use (see there).
fn fault_trace_kinds() -> Option<&'static [[neummu_trace::KindId; FAULT_OUTCOME_COUNT]; FAULT_KINDS]>
{
    static KINDS: OnceLock<[[neummu_trace::KindId; FAULT_OUTCOME_COUNT]; FAULT_KINDS]> =
        OnceLock::new();
    if let Some(kinds) = KINDS.get() {
        return Some(kinds);
    }
    let sink = neummu_trace::global()?;
    Some(KINDS.get_or_init(|| FAULT_TRACE_LABELS.map(|row| row.map(|label| sink.kind(label)))))
}

impl EngineTap {
    /// A tap that emits iff a global sink is installed right now.
    fn new() -> Self {
        EngineTap {
            enabled: neummu_trace::enabled(),
            bins: [TraceBin::default(); TAP_KIND_COUNT],
        }
    }

    /// Folds one event into the `idx` bin, emitting the bin when it is full
    /// or when the ASID changes (a bin never mixes tenants).
    #[inline]
    fn record(&mut self, idx: usize, asid: Asid, start: u64, end: u64, weight: u64) {
        if !self.enabled {
            return;
        }
        self.record_enabled(idx, asid.raw(), start, end, weight);
    }

    /// The common case — same ASID, bin not yet full — is three additions
    /// and a max; bin turnover (first event, ASID switch, full bin) is
    /// outlined as the cold path so this inlines into the translate loop.
    #[inline]
    fn record_enabled(&mut self, idx: usize, asid: u16, start: u64, end: u64, weight: u64) {
        let bin = &mut self.bins[idx];
        if bin.events != 0 && bin.asid == asid && bin.events + 1 < TAP_CAPS[idx] {
            bin.events += 1;
            bin.weight += weight;
            bin.end = bin.end.max(end);
            return;
        }
        self.record_turnover(idx, asid, start, end, weight);
    }

    /// Folds `count` events into the `idx` bin, event `i` spanning the one
    /// cycle `first + i` with `weight`: exactly `count` calls of
    /// [`EngineTap::record`].
    #[inline]
    fn record_run(&mut self, idx: usize, asid: Asid, first: u64, count: u64, weight: u64) {
        if !self.enabled {
            return;
        }
        for cycle in first..first + count {
            self.record_enabled(idx, asid.raw(), cycle, cycle, weight);
        }
    }

    /// Bin turnover: flush on ASID change, (re)initialize, emit when full.
    #[cold]
    fn record_turnover(&mut self, idx: usize, asid: u16, start: u64, end: u64, weight: u64) {
        let bin = &mut self.bins[idx];
        if bin.events > 0 && bin.asid != asid {
            Self::emit(idx, *bin);
            *bin = TraceBin::default();
        }
        if bin.events == 0 {
            bin.asid = asid;
            bin.start = start;
        }
        bin.events += 1;
        bin.weight += weight;
        bin.end = bin.end.max(end);
        if bin.events >= TAP_CAPS[idx] {
            Self::emit(idx, *bin);
            *bin = TraceBin::default();
        }
    }

    /// Emits one bin as a trace event (payload = summed request weight).
    fn emit(idx: usize, bin: TraceBin) {
        if let (Some(sink), Some(kinds)) = (neummu_trace::global(), tap_kinds()) {
            sink.emit(neummu_trace::Event {
                kind: kinds[idx],
                asid: bin.asid,
                start: bin.start,
                end: bin.end,
                payload: bin.weight,
            });
        }
    }
}

/// Emits every non-empty bin, so no event outlives its engine.
impl Drop for EngineTap {
    fn drop(&mut self) {
        if !self.enabled {
            return;
        }
        for (idx, bin) in self.bins.iter().enumerate() {
            if bin.events > 0 {
                Self::emit(idx, *bin);
            }
        }
    }
}

/// A clone starts with empty bins: a copied bin would be emitted once by
/// each copy's drop.
impl Clone for EngineTap {
    fn clone(&self) -> Self {
        EngineTap::new()
    }
}

/// The oracular MMU: every translation hits with zero latency.
#[derive(Debug, Clone)]
pub struct OracleTranslator {
    page_size: PageSize,
    stats: TranslationStats,
    memo: Option<MappedRangeMemo>,
}

impl OracleTranslator {
    /// Creates an oracle translating at the given page size.
    #[must_use]
    pub fn new(page_size: PageSize) -> Self {
        OracleTranslator {
            page_size,
            stats: TranslationStats::default(),
            memo: None,
        }
    }

    /// True if `va` is mapped, answered from the last-page memo when the
    /// address falls inside the memoized leaf page and the table is
    /// unchanged, probing (and re-priming the memo) otherwise.
    fn probe_mapped(&mut self, page_table: &PageTable, va: VirtAddr) -> bool {
        let stamp = page_table.revision();
        if let Some(memo) = &self.memo {
            if memo.covers(stamp, va) {
                return memo.mapped;
            }
        }
        let probe = page_table.probe(va);
        let (base, bytes, mapped) = match probe.translation {
            Some(t) => (va.page_base(t.page_size).raw(), t.page_size.bytes(), true),
            // An unmapped address is certainly unmapped across its 4 KB page;
            // claiming more would race with leaf sizes we did not observe.
            None => (
                va.page_base(PageSize::Size4K).raw(),
                PageSize::Size4K.bytes(),
                false,
            ),
        };
        self.memo = Some(MappedRangeMemo {
            stamp,
            start: base,
            end: base + bytes,
            mapped,
        });
        mapped
    }
}

impl Default for OracleTranslator {
    fn default() -> Self {
        Self::new(PageSize::Size4K)
    }
}

impl AddressTranslator for OracleTranslator {
    fn translate(
        &mut self,
        page_table: &PageTable,
        va: VirtAddr,
        cycle: u64,
    ) -> TranslationOutcome {
        self.stats.requests += 1;
        self.stats.tlb_hits += 1;
        self.stats.last_completion_cycle = self.stats.last_completion_cycle.max(cycle);
        let fault = !self.probe_mapped(page_table, va);
        if fault {
            self.stats.faults += 1;
        }
        TranslationOutcome {
            accept_cycle: cycle,
            complete_cycle: cycle,
            source: TranslationSource::Oracle,
            fault,
        }
    }

    fn translate_run(
        &mut self,
        page_table: &PageTable,
        va: VirtAddr,
        count: u64,
        cycle: u64,
    ) -> RunOutcome {
        debug_assert!(count >= 1, "a run has at least one request");
        let first = self.translate(page_table, va, cycle);
        let mut out = RunOutcome::single(first);
        if count <= 1 {
            return out;
        }
        // The run's addresses may arrive in any order within the page (the
        // embedding gather coalesces same-page lookups of random rows), so
        // the replay is valid only if the memo covers the *whole* page: then
        // every request of the run is answered by the memo exactly as the
        // per-request path would answer it. When the mapped leaf is smaller
        // than the translation page this check fails and the run simply
        // stays uncoalesced — correct, just slower.
        let page_start = va.page_base(self.page_size);
        let page_last = VirtAddr::new(page_start.raw() + self.page_size.bytes() - 1);
        let stamp = page_table.revision();
        let covered = self
            .memo
            .is_some_and(|memo| memo.covers(stamp, page_start) && memo.covers(stamp, page_last));
        if !covered {
            return out;
        }
        let replays = count - 1;
        self.stats.requests += replays;
        self.stats.tlb_hits += replays;
        if first.fault {
            self.stats.faults += replays;
        }
        self.stats.last_completion_cycle = self.stats.last_completion_cycle.max(cycle + replays);
        out.consumed = count;
        out.complete_stride = 1;
        out
    }

    fn translate_run_tagged(
        &mut self,
        page_table: &PageTable,
        asid: Asid,
        va: VirtAddr,
        count: u64,
        cycle: u64,
    ) -> RunOutcome {
        // The oracle is stateless across contexts (its memo is stamped by
        // the page table's globally unique revision), so the tagged run is
        // the untagged run.
        let _ = asid;
        self.translate_run(page_table, va, count, cycle)
    }

    fn stats(&self) -> &TranslationStats {
        &self.stats
    }

    /// The oracle spends no translation energy.
    fn energy(&self) -> EnergyMeter {
        EnergyMeter::default()
    }

    fn page_size(&self) -> PageSize {
        self.page_size
    }

    fn reset(&mut self) {
        self.stats = TranslationStats::default();
        self.memo = None;
    }

    fn invalidate_page(&mut self, _va: VirtAddr) {
        self.memo = None;
    }
}

/// Device-fault injection state attached by
/// [`TranslationEngine::with_faults`]: the seeded fault plan plus the
/// resilience mechanisms that decide each injected fault's outcome. Boxed
/// behind an `Option` so a fault-free engine pays exactly one `is_none`
/// branch per walk admission and stays bit-identical to the pre-fault
/// engine.
#[derive(Debug, Clone, PartialEq)]
struct EngineFaults {
    plan: DeviceFaultPlan,
    resilience: ResilienceConfig,
}

/// The cycle-accounted IOMMU / NeuMMU translation engine.
#[derive(Debug, Clone)]
pub struct TranslationEngine {
    config: MmuConfig,
    tlb: Tlb,
    walkers: WalkerPool,
    stats: TranslationStats,
    tap: EngineTap,
    faults: Option<Box<EngineFaults>>,
}

impl TranslationEngine {
    /// Creates an engine from a configuration.
    #[must_use]
    pub fn new(config: MmuConfig) -> Self {
        TranslationEngine {
            config,
            tlb: Tlb::new(config.tlb_entries, config.tlb_ways),
            walkers: WalkerPool::new(
                config.num_ptws,
                config.prmb_slots_per_ptw,
                config.walk_latency_per_level,
                config.tpreg_enabled,
            ),
            stats: TranslationStats::default(),
            tap: EngineTap::new(),
            faults: None,
        }
    }

    /// Creates an engine with a seeded device-fault plan attached. Every
    /// walk admission draws from the plan; injected faults are resolved
    /// against the `resilience` mechanisms at admission time (see
    /// [`neummu_faults`]). Both configs are validated here so an invalid
    /// rate or a zero-cycle budget never reaches the hot path.
    pub fn with_faults(
        config: MmuConfig,
        faults: DeviceFaultConfig,
        resilience: ResilienceConfig,
    ) -> Result<Self, FaultError> {
        resilience.validate()?;
        let plan = DeviceFaultPlan::new(faults)?;
        let mut engine = TranslationEngine::new(config);
        engine.faults = Some(Box::new(EngineFaults { plan, resilience }));
        Ok(engine)
    }

    /// Exact injected/detected/recovered/hung fault accounting, when a fault
    /// plan is attached.
    #[must_use]
    pub fn fault_counters(&self) -> Option<&FaultCounters> {
        self.faults.as_ref().map(|f| f.plan.counters())
    }

    /// Builds the translator matching a configuration — the oracle for
    /// [`MmuKind::Oracle`], a cycle-accounted engine otherwise.
    #[must_use]
    pub fn for_config(config: MmuConfig) -> Box<dyn AddressTranslator> {
        if config.kind == MmuKind::Oracle {
            Box::new(OracleTranslator::new(config.page_size))
        } else {
            Box::new(TranslationEngine::new(config))
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> MmuConfig {
        self.config
    }

    /// The IOTLB (for inspection in tests and experiments).
    #[must_use]
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    fn page_number_of(&self, va: VirtAddr) -> u64 {
        va.page_number(self.config.page_size)
    }

    /// Fault-injection gate on the walk-admission path. For the fault-free
    /// engine this is a single `is_none` branch; with a disarmed plan, one
    /// more load. Armed plans first readmit any quarantined walkers whose
    /// cool-down expired, then draw only when a walker is actually free — a
    /// draw must map 1:1 onto a walk admission, or the structural-stall
    /// retry loop would inflate the injected counts. Returns the resolved
    /// fault plus the cycle until which the serving walker quarantines (0
    /// for none). Registered under lint rule H001: must stay
    /// allocation-free.
    #[inline]
    fn fault_check(&mut self, now: u64, walk_latency: u64) -> Option<(InjectedFault, u64)> {
        let faults = self.faults.as_deref_mut()?;
        if faults.plan.is_disarmed() {
            return None;
        }
        self.walkers.readmit_quarantined(now);
        if !self.walkers.has_free_walker() {
            return None;
        }
        let fault = faults.plan.draw_walk(&faults.resilience, walk_latency)?;
        let quarantine_until = if fault.quarantine {
            now + fault.total_latency + faults.resilience.quarantine_cooldown_cycles
        } else {
            0
        };
        Some((fault, quarantine_until))
    }

    /// True when an attached fault plan can inject faults: every walk
    /// admission must then go through [`TranslationEngine::fault_check`].
    fn fault_plan_armed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| !f.plan.is_disarmed())
    }

    /// Admits one fault-perturbed walk: the injected fault's analytically
    /// resolved `total_latency` replaces the fault-free walk latency, the
    /// TPreg is bypassed (a faulty walk reads the full path and must not
    /// pollute the path registers), and a failed or hung fault retires the
    /// walk unmapped — it never fills the TLB and the request reports a
    /// translation fault for the host to resolve. Outlined and cold: even
    /// storm configs perturb a small fraction of walks.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn admit_perturbed(
        &mut self,
        asid: Asid,
        page_number: u64,
        full_levels: u32,
        mapped: bool,
        fault: InjectedFault,
        quarantine_until: u64,
        now: u64,
        issue_cycle: u64,
    ) -> Option<TranslationOutcome> {
        let effective_mapped = mapped && !fault.failed;
        let WalkAdmission::Started {
            completes_at,
            levels_read,
            ..
        } = self.walkers.start_walk_perturbed(
            asid,
            now,
            page_number,
            full_levels,
            fault.total_latency,
            effective_mapped,
            quarantine_until,
        )
        else {
            return None;
        };
        self.stats.tlb_misses += 1;
        self.stats.walks += 1;
        self.stats.walk_memory_accesses += u64::from(levels_read);
        if !effective_mapped {
            self.stats.faults += 1;
        }
        self.stats.last_completion_cycle = self.stats.last_completion_cycle.max(completes_at);
        self.stats.stall_cycles += now - issue_cycle;
        self.tap.record(TAP_WALK, asid, now, completes_at, 1);
        if !effective_mapped {
            self.tap.record(TAP_FAULT, asid, now, completes_at, 1);
        }
        let walk_latency = u64::from(full_levels) * self.config.walk_latency_per_level;
        self.emit_fault_event(&fault, asid, now, completes_at, walk_latency);
        Some(TranslationOutcome {
            accept_cycle: now,
            complete_cycle: completes_at,
            source: TranslationSource::PageWalk { levels_read },
            fault: !effective_mapped,
        })
    }

    /// Emits one `fault/<kind>/<outcome>` trace event spanning the perturbed
    /// walk, payload carrying the extra cycles the fault cost over the
    /// fault-free walk (the exact recovery latency for recovered faults).
    /// Faults are emitted individually, unbinned — they are rare and each
    /// one matters to the analyzer.
    fn emit_fault_event(
        &self,
        fault: &InjectedFault,
        asid: Asid,
        start: u64,
        end: u64,
        walk_latency: u64,
    ) {
        if !self.tap.enabled {
            return;
        }
        let (Some(sink), Some(kinds)) = (neummu_trace::global(), fault_trace_kinds()) else {
            return;
        };
        let outcome = if fault.recovered {
            0
        } else if fault.hung {
            2
        } else {
            1
        };
        sink.emit(neummu_trace::Event {
            kind: kinds[fault.kind.index()][outcome],
            asid: asid.raw(),
            start,
            end,
            payload: fault.total_latency.saturating_sub(walk_latency),
        });
    }

    /// Retires every walk completed by `cycle`, filling the TLB. Split-borrow
    /// form shared by the per-request path and the run replays.
    fn retire_walks(
        walkers: &mut WalkerPool,
        tlb: &mut Tlb,
        stats: &mut TranslationStats,
        tap: &mut EngineTap,
        cycle: u64,
    ) {
        walkers.drain_completed(cycle, |walk| {
            if walk.mapped {
                tlb.insert_tagged(walk.asid, walk.page_number);
                stats.tlb_fills += 1;
            }
            stats.prmb_reads += u64::from(walk.merged_requests);
            tap.record(
                TAP_RETIRE,
                walk.asid,
                walk.completed_at,
                walk.completed_at,
                1 + u64::from(walk.merged_requests),
            );
        });
    }

    /// Retires completed walks up to `cycle`, filling the TLB.
    fn drain_completions(&mut self, cycle: u64) {
        let TranslationEngine {
            walkers,
            tlb,
            stats,
            tap,
            ..
        } = self;
        Self::retire_walks(walkers, tlb, stats, tap, cycle);
    }

    /// Replays up to `want` same-page requests, one per cycle after
    /// `first_accept`, each of which hits the TLB entry the run's first
    /// request just hit. Returns how many were replayed.
    ///
    /// Consecutive hits on one LRU entry are idempotent — after the first
    /// touch the entry is already most-recently-used — so the replay records
    /// whole hit segments with single batched touches. Walks of *other*
    /// pages that complete mid-run still retire at exactly the cycles the
    /// per-request path would retire them (between the hit that precedes
    /// their completion cycle and the hit that follows it), so TLB insertion
    /// order, recency order and every eviction decision stay bit-identical.
    /// If one of those insertions evicts the run's own entry, the replay
    /// stops at that cycle: per-request, the next lookup would miss.
    fn replay_hit_run(
        &mut self,
        asid: Asid,
        page_number: u64,
        first_accept: u64,
        want: u64,
    ) -> u64 {
        let TranslationEngine {
            config,
            walkers,
            tlb,
            stats,
            tap,
            faults: _,
        } = self;
        let last_cycle = first_accept + want;
        let mut cursor = first_accept;
        loop {
            // The next walk retirement splits the remaining cycles into a
            // pure-hit segment (before it) and the rest.
            let next = walkers.next_completion();
            let segment_end = match next {
                Some(completes) if completes <= last_cycle => completes - 1,
                _ => last_cycle,
            };
            let segment = segment_end - cursor;
            if segment > 0 {
                let resident = tlb.record_run_hits(asid, page_number, segment);
                debug_assert!(resident, "a hit replay requires a resident entry");
                if !resident {
                    break;
                }
                cursor = segment_end;
            }
            match next {
                Some(completes) if completes <= last_cycle => {
                    Self::retire_walks(walkers, tlb, stats, tap, completes);
                    if !tlb.contains_tagged(asid, page_number) {
                        // The retirement evicted the run's entry: the request
                        // at `completes` would miss. Stop exactly there.
                        break;
                    }
                }
                _ => break,
            }
        }
        let replayed = cursor - first_accept;
        if replayed > 0 {
            stats.requests += replayed;
            stats.tlb_hits += replayed;
            stats.last_completion_cycle = stats
                .last_completion_cycle
                .max(cursor + config.tlb_hit_latency);
            tap.record(
                TAP_REPLAY_HITS,
                asid,
                first_accept + 1,
                cursor + config.tlb_hit_latency,
                replayed,
            );
        }
        replayed
    }

    /// Replays up to `want` same-page requests, one per cycle after
    /// `first_accept`, on an engine whose merging is disabled: exactly like
    /// the per-request path, each request misses the TLB and spends its own
    /// walk on the next free walker (the redundant-walk behaviour of the
    /// baseline IOMMU, Figure 8). Returns how many were replayed.
    ///
    /// What the replay skips is only what is provably identical across the
    /// run: the TLB set scan (every lookup of an in-flight page misses until
    /// a walk of the page retires — the replay stops the moment that
    /// happens) and the page-table probe (the page is immutable for the
    /// duration of the call, so `full_levels` is that of the first request,
    /// and the page is mapped: a faulting first request replays nothing). A
    /// request that would be rejected (no idle walker) is
    /// *not* consumed, so the caller's next `translate_run` re-issues it
    /// through the full stall-retry path.
    ///
    /// In a saturated pool every cycle retires one walk and admits one. When
    /// the walks due on the next cycles are all of one other page, one
    /// [`WalkerPool::swap_walk_window`] call retires and admits the whole
    /// window, the TLB takes the window's fills as one
    /// [`Tlb::insert_run_tagged`], and the statistics advance in bulk. Every
    /// other cycle goes through the per-request machinery, one
    /// request at a time.
    fn replay_walk_run(
        &mut self,
        asid: Asid,
        page_number: u64,
        tag: PathTag,
        full_levels: u32,
        first_accept: u64,
        want: u64,
    ) -> u64 {
        let TranslationEngine {
            config,
            walkers,
            tlb,
            stats,
            tap,
            faults: _,
        } = self;
        debug_assert!(
            !config.tpreg_enabled,
            "walk replays require constant per-walk levels (no TPreg)"
        );
        let last_cycle = first_accept + want;
        let mut cursor = first_accept;
        let mut levels_read = 0;
        let mut latest_completion = 0;
        while cursor < last_cycle {
            let cycle = cursor + 1;
            if walkers.next_completion().is_some_and(|c| c <= cycle) {
                if let Some(window) = walkers.swap_walk_window(
                    asid,
                    cycle,
                    last_cycle - cursor,
                    page_number,
                    full_levels,
                    true,
                ) {
                    let walks = window.walks;
                    if window.retired_mapped {
                        tlb.insert_run_tagged(window.retired_asid, window.retired_page, walks);
                        stats.tlb_fills += walks;
                    } else {
                        tlb.record_run_misses(walks);
                    }
                    tap.record_run(TAP_RETIRE, window.retired_asid, cycle, walks, 1);
                    levels_read += window.levels_read;
                    latest_completion = latest_completion.max(window.latest_completion);
                    cursor += walks;
                    continue;
                }
                Self::retire_walks(walkers, tlb, stats, tap, cycle);
                if tlb.contains_tagged(asid, page_number) {
                    // A walk of this page retired: the request at `cycle`
                    // would hit. Stop; the caller's next call replays hits.
                    break;
                }
            }
            if !walkers.has_free_walker() {
                // The request at `cycle` would be rejected and stall.
                break;
            }
            tlb.record_run_misses(1);
            match walkers.start_walk_tagged(asid, cycle, page_number, tag, full_levels, true) {
                WalkAdmission::Started {
                    completes_at,
                    levels_read: read,
                    ..
                } => {
                    levels_read += u64::from(read);
                    latest_completion = latest_completion.max(completes_at);
                    cursor = cycle;
                }
                WalkAdmission::Rejected { .. } => {
                    unreachable!("a free walker accepts a walk when merging is disabled")
                }
            }
        }
        // Every replayed request is one missed lookup and one walk.
        let replayed = cursor - first_accept;
        if replayed > 0 {
            stats.requests += replayed;
            stats.tlb_misses += replayed;
            stats.walks += replayed;
            stats.walk_memory_accesses += levels_read;
            stats.last_completion_cycle = stats.last_completion_cycle.max(latest_completion);
            tap.record(TAP_REPLAY_WALKS, asid, first_accept + 1, cursor, replayed);
        }
        replayed
    }

    /// Replays up to `want` same-page requests, one per cycle after
    /// `first_accept`, each of which merges into the in-flight walk the
    /// run's first request started or merged into. Returns how many were
    /// replayed.
    ///
    /// Merged requests touch no TLB entry (their lookups miss), so walks of
    /// other pages that complete mid-run retire in completion order exactly
    /// as the per-request path retires them. The replay stops — leaving the
    /// remainder to the caller's next `translate_run` call, whose first
    /// request takes the full path — as soon as anything non-arithmetic
    /// happens: the PRMB fills up, the shared walk's PTS entry disappears,
    /// or the run's page lands in the TLB (a duplicate walk retiring, or the
    /// shared walk itself completing inside the run).
    fn replay_merge_run(
        &mut self,
        asid: Asid,
        page_number: u64,
        first_accept: u64,
        want: u64,
    ) -> u64 {
        let TranslationEngine {
            walkers,
            tlb,
            stats,
            tap,
            ..
        } = self;
        let last_cycle = first_accept + want;
        let mut cursor = first_accept;
        loop {
            let next = walkers.next_completion();
            let segment_end = match next {
                Some(completes) if completes <= last_cycle => completes - 1,
                _ => last_cycle,
            };
            let segment = segment_end - cursor;
            if segment > 0 {
                let merged = walkers.merge_run_tagged(asid, page_number, segment);
                tlb.record_run_misses(merged);
                cursor += merged;
                if merged < segment {
                    break;
                }
            }
            match next {
                Some(completes) if completes <= last_cycle => {
                    Self::retire_walks(walkers, tlb, stats, tap, completes);
                    if tlb.contains_tagged(asid, page_number) {
                        // The page's translation just landed: the request at
                        // `completes` would hit, not merge.
                        break;
                    }
                }
                _ => break,
            }
        }
        let replayed = cursor - first_accept;
        if replayed > 0 {
            stats.requests += replayed;
            stats.tlb_misses += replayed;
            stats.merged += replayed;
            tap.record(TAP_REPLAY_MERGES, asid, first_accept + 1, cursor, replayed);
        }
        replayed
    }
}

impl AddressTranslator for TranslationEngine {
    fn translate(
        &mut self,
        page_table: &PageTable,
        va: VirtAddr,
        cycle: u64,
    ) -> TranslationOutcome {
        self.translate_tagged(page_table, Asid::GLOBAL, va, cycle)
    }

    fn translate_tagged(
        &mut self,
        page_table: &PageTable,
        asid: Asid,
        va: VirtAddr,
        cycle: u64,
    ) -> TranslationOutcome {
        self.stats.requests += 1;
        let page_number = self.page_number_of(va);
        let mut now = cycle;
        // The page table is immutable for the duration of one translate call,
        // so the probe is computed at most once and reused across the
        // `Rejected → retry` iterations of the structural-stall loop.
        let mut cached_probe: Option<WalkProbe> = None;

        loop {
            // Retire walks that completed before this attempt so their
            // translations are visible in the TLB and their walkers are free.
            self.drain_completions(now);

            // 1. IOTLB lookup.
            if self.tlb.lookup_tagged(asid, page_number) {
                self.stats.tlb_hits += 1;
                let complete = now + self.config.tlb_hit_latency;
                self.stats.last_completion_cycle = self.stats.last_completion_cycle.max(complete);
                self.stats.stall_cycles += now - cycle;
                self.tap.record(TAP_TLB_HIT, asid, now, complete, 1);
                return TranslationOutcome {
                    accept_cycle: now,
                    complete_cycle: complete,
                    source: TranslationSource::TlbHit,
                    fault: false,
                };
            }

            // 2. PTS lookup / PRMB merge.
            if self.config.merging_enabled() {
                if let Some((_walker, completes_at)) =
                    self.walkers.try_merge_tagged(asid, page_number)
                {
                    self.stats.tlb_misses += 1;
                    self.stats.merged += 1;
                    self.stats.last_completion_cycle =
                        self.stats.last_completion_cycle.max(completes_at);
                    self.stats.stall_cycles += now - cycle;
                    self.tap.record(TAP_MERGE, asid, now, completes_at, 1);
                    return TranslationOutcome {
                        accept_cycle: now,
                        complete_cycle: completes_at,
                        source: TranslationSource::Merged,
                        fault: false,
                    };
                }
            }

            // 3. Try to start a walk on a free walker.
            let probe = *cached_probe.get_or_insert_with(|| page_table.probe(va));
            let mapped = probe.is_hit();
            // A fault is detected as soon as the walk reaches the missing
            // level; either way at least one entry is read.
            let full_levels = probe.memory_accesses().max(1);
            if let Some((fault, quarantine_until)) = self.fault_check(
                now,
                u64::from(full_levels) * self.config.walk_latency_per_level,
            ) {
                if let Some(outcome) = self.admit_perturbed(
                    asid,
                    page_number,
                    full_levels,
                    mapped,
                    fault,
                    quarantine_until,
                    now,
                    cycle,
                ) {
                    return outcome;
                }
                // Unreachable in practice — the gate drew only after
                // verifying a free walker — but degrade to a structural
                // stall rather than asserting.
                self.stats.structural_stalls += 1;
                now += 1;
                continue;
            }
            match self.walkers.start_walk_tagged(
                asid,
                now,
                page_number,
                PathTag::of(va),
                full_levels,
                mapped,
            ) {
                WalkAdmission::Started {
                    completes_at,
                    path_match,
                    levels_read,
                    ..
                } => {
                    self.stats.tlb_misses += 1;
                    self.stats.walks += 1;
                    self.stats.walk_memory_accesses += u64::from(levels_read);
                    if self.config.tpreg_enabled {
                        self.stats.tpreg_lookups += 1;
                        self.stats.tpreg_skipped_levels +=
                            u64::from(full_levels.saturating_sub(levels_read));
                        if path_match.l4 {
                            self.stats.tpreg_l4_hits += 1;
                        }
                        if path_match.l3 {
                            self.stats.tpreg_l3_hits += 1;
                        }
                        if path_match.l2 {
                            self.stats.tpreg_l2_hits += 1;
                        }
                    }
                    if !mapped {
                        self.stats.faults += 1;
                    }
                    self.stats.last_completion_cycle =
                        self.stats.last_completion_cycle.max(completes_at);
                    self.stats.stall_cycles += now - cycle;
                    self.tap.record(TAP_WALK, asid, now, completes_at, 1);
                    if !mapped {
                        self.tap.record(TAP_FAULT, asid, now, completes_at, 1);
                    }
                    return TranslationOutcome {
                        accept_cycle: now,
                        complete_cycle: completes_at,
                        source: TranslationSource::PageWalk { levels_read },
                        fault: !mapped,
                    };
                }
                WalkAdmission::Rejected { retry_at } => {
                    // All walkers busy and no mergeable slot: the DMA stalls
                    // until translation bandwidth frees up, then retries.
                    self.stats.structural_stalls += 1;
                    now = retry_at.max(now + 1);
                }
            }
        }
    }

    fn translate_run(
        &mut self,
        page_table: &PageTable,
        va: VirtAddr,
        count: u64,
        cycle: u64,
    ) -> RunOutcome {
        self.translate_run_tagged(page_table, Asid::GLOBAL, va, count, cycle)
    }

    fn translate_run_tagged(
        &mut self,
        page_table: &PageTable,
        asid: Asid,
        va: VirtAddr,
        count: u64,
        cycle: u64,
    ) -> RunOutcome {
        debug_assert!(count >= 1, "a run has at least one request");
        let first = self.translate_tagged(page_table, asid, va, cycle);
        let mut out = RunOutcome::single(first);
        if count <= 1 || first.fault {
            return out;
        }
        let page_number = self.page_number_of(va);
        let want = count - 1;
        match first.source {
            TranslationSource::TlbHit => {
                let replayed = self.replay_hit_run(asid, page_number, first.accept_cycle, want);
                if replayed > 0 {
                    out.consumed += replayed;
                    out.complete_stride = 1;
                    out.replay_source = TranslationSource::TlbHit;
                    out.replay_fault = false;
                }
            }
            TranslationSource::Merged | TranslationSource::PageWalk { .. }
                if self.config.merging_enabled() =>
            {
                let replayed = self.replay_merge_run(asid, page_number, first.accept_cycle, want);
                if replayed > 0 {
                    out.consumed += replayed;
                    out.complete_stride = 0;
                    out.replay_source = TranslationSource::Merged;
                    out.replay_fault = false;
                }
            }
            TranslationSource::PageWalk { levels_read }
                if !self.config.tpreg_enabled && !self.fault_plan_armed() =>
            {
                // Merging disabled and no TPreg (the baseline-IOMMU shape):
                // every request of the run spends its own full walk, reading
                // the same number of levels — so the replayed walks complete
                // on the same one-cycle stride their accepts advance on.
                // (With a TPreg, later walks skip levels the first one read
                // and completions stop being arithmetic: no replay. With an
                // armed fault plan every admission must draw from the plan,
                // which only the per-request path does: no replay either.)
                let tag = PathTag::of(va);
                let replayed = self.replay_walk_run(
                    asid,
                    page_number,
                    tag,
                    levels_read,
                    first.accept_cycle,
                    want,
                );
                if replayed > 0 {
                    out.consumed += replayed;
                    out.complete_stride = 1;
                    out.replay_source = TranslationSource::PageWalk { levels_read };
                    out.replay_fault = false;
                }
            }
            // An oracle source (which the engine never produces), a
            // TPreg-accelerated unmerged walk, or any unmerged walk while a
            // fault plan is armed: nothing replays arithmetically.
            _ => {}
        }
        out
    }

    fn stats(&self) -> &TranslationStats {
        &self.stats
    }

    /// Every request attempt — the first and each structural-stall retry —
    /// looks up the TLB, then on a miss the PTS (when merging) and the TPreg
    /// (when walking with one), so the SRAM counts follow from the stats.
    fn energy(&self) -> EnergyMeter {
        let s = &self.stats;
        let merging = self.config.merging_enabled();
        let tpreg = self.config.tpreg_enabled;
        EnergyMeter::from_counts(EnergyTable::default(), |event| match event {
            EnergyEvent::PageWalkMemoryAccess => s.walk_memory_accesses,
            EnergyEvent::TlbLookup => s.requests + s.structural_stalls,
            EnergyEvent::TlbFill => s.tlb_fills,
            EnergyEvent::PtsLookup if merging => s.tlb_misses + s.structural_stalls,
            EnergyEvent::PrmbWrite => s.merged,
            EnergyEvent::PrmbRead => s.prmb_reads,
            EnergyEvent::TpregAccess if tpreg => s.tpreg_lookups + s.structural_stalls,
            EnergyEvent::PtsLookup | EnergyEvent::TpregAccess => 0,
        })
    }

    fn page_size(&self) -> PageSize {
        self.config.page_size
    }

    fn reset(&mut self) {
        // An attached fault plan survives the reset but is rebuilt from its
        // config: a reset engine replays the exact same fault schedule from
        // the start, counters cleared — the same "fresh engine" semantics
        // every other field gets.
        let faults = self.faults.take().map(|f| {
            Box::new(EngineFaults {
                plan: DeviceFaultPlan::new(*f.plan.config())
                    .expect("an attached plan was already validated"),
                resilience: f.resilience,
            })
        });
        // The replaced engine's trace tap emits its pending bins as it drops.
        *self = TranslationEngine::new(self.config);
        self.faults = faults;
    }

    fn invalidate_page(&mut self, va: VirtAddr) {
        let page = self.page_number_of(va);
        // An untagged invalidation (page migration / unmap) is a broadcast
        // shootdown: the page's entry dies in every context.
        self.tlb.invalidate_all_contexts(page);
        self.walkers.invalidate_tpregs();
    }

    fn flush_asid(&mut self, asid: Asid) {
        // Drop the tenant's TLB entries AND discard its in-flight walks:
        // their PTS entries vanish (no later request can merge into a walk
        // of the torn-down page table) and their results retire as unmapped,
        // so a stale translation can never re-enter the TLB after the flush.
        // TPregs are per-walker physical hints refreshed by the next walk.
        self.tlb.flush_asid(asid);
        self.walkers.flush_asid(asid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_vmem::{MemNode, PhysFrameNum};

    /// Maps `pages` consecutive 4 KB pages starting at `base`.
    fn mapped_table(base: u64, pages: u64) -> PageTable {
        let mut pt = PageTable::new();
        for i in 0..pages {
            pt.map(
                VirtAddr::new(base + i * 4096),
                PageSize::Size4K,
                PhysFrameNum::new(0x10_0000 + i),
                MemNode::Npu(0),
            )
            .unwrap();
        }
        pt
    }

    #[test]
    fn oracle_translations_are_free() {
        let pt = mapped_table(0x100_0000, 4);
        let mut oracle = OracleTranslator::default();
        let out = oracle.translate(&pt, VirtAddr::new(0x100_0000), 123);
        assert_eq!(out.accept_cycle, 123);
        assert_eq!(out.complete_cycle, 123);
        assert!(!out.fault);
        assert_eq!(oracle.stats().requests, 1);
    }

    #[test]
    fn oracle_memo_survives_bursts_and_tracks_page_table_changes() {
        let mut pt = mapped_table(0x100_0000, 1);
        let mut oracle = OracleTranslator::default();
        // A DMA-style burst to one page: the memo answers the repeats.
        for i in 0..8u64 {
            let out = oracle.translate(&pt, VirtAddr::new(0x100_0000 + i * 512), i);
            assert!(!out.fault);
        }
        // A different, unmapped page re-primes the memo with a negative range.
        assert!(oracle.translate(&pt, VirtAddr::new(0x900_0000), 10).fault);
        assert!(oracle.translate(&pt, VirtAddr::new(0x900_0800), 11).fault);
        // Mapping that page changes the stats stamp: the stale negative memo
        // must not answer.
        pt.map(
            VirtAddr::new(0x900_0000),
            PageSize::Size4K,
            PhysFrameNum::new(0x77),
            MemNode::Npu(0),
        )
        .unwrap();
        assert!(!oracle.translate(&pt, VirtAddr::new(0x900_0800), 12).fault);
        // Unmapping likewise invalidates a stale positive memo.
        pt.unmap(VirtAddr::new(0x900_0000)).unwrap();
        assert!(oracle.translate(&pt, VirtAddr::new(0x900_0800), 13).fault);
        assert_eq!(oracle.stats().faults, 3);
    }

    #[test]
    fn oracle_memo_not_fooled_by_compensating_unmap_map_pairs() {
        // An unmap followed by a map of a different page in the same L1 table
        // returns the structural stats (table and leaf counts) to their prior
        // values; the revision stamp still advances, so the memo must not
        // claim the unmapped page.
        let mut pt = mapped_table(0x100_0000, 2);
        let mut oracle = OracleTranslator::default();
        assert!(!oracle.translate(&pt, VirtAddr::new(0x100_0000), 0).fault);
        let stats_before = pt.stats();
        pt.unmap(VirtAddr::new(0x100_0000)).unwrap();
        pt.map(
            VirtAddr::new(0x100_2000),
            PageSize::Size4K,
            PhysFrameNum::new(0x55),
            MemNode::Npu(0),
        )
        .unwrap();
        assert_eq!(pt.stats(), stats_before, "the pair must be compensating");
        let out = oracle.translate(&pt, VirtAddr::new(0x100_0000), 1);
        assert!(out.fault, "stale memo answered for an unmapped page");
    }

    #[test]
    fn oracle_memo_is_not_confused_by_a_second_page_table() {
        // Two tables with identical mutation counts; the address is mapped
        // only in the first. The memo's revision stamp is globally unique, so
        // switching tables mid-stream must re-probe rather than reuse it.
        let pt_a = mapped_table(0x100_0000, 1);
        let mut pt_b = PageTable::new();
        pt_b.map(
            VirtAddr::new(0x900_0000),
            PageSize::Size4K,
            PhysFrameNum::new(1),
            MemNode::Host,
        )
        .unwrap();
        let mut oracle = OracleTranslator::default();
        assert!(!oracle.translate(&pt_a, VirtAddr::new(0x100_0000), 0).fault);
        assert!(
            oracle.translate(&pt_b, VirtAddr::new(0x100_0000), 1).fault,
            "memo leaked across page tables"
        );
    }

    #[test]
    fn oracle_memo_honors_invalidate_page() {
        let pt = mapped_table(0x200_0000, 1);
        let mut oracle = OracleTranslator::default();
        assert!(!oracle.translate(&pt, VirtAddr::new(0x200_0000), 0).fault);
        // invalidate_page drops the memo; the next request re-probes and
        // still sees the (unchanged) table.
        oracle.invalidate_page(VirtAddr::new(0x200_0000));
        assert!(!oracle.translate(&pt, VirtAddr::new(0x200_0100), 1).fault);
        oracle.reset();
        assert_eq!(oracle.stats().requests, 0);
        assert!(!oracle.translate(&pt, VirtAddr::new(0x200_0200), 2).fault);
    }

    #[test]
    fn first_access_walks_then_tlb_hits() {
        let pt = mapped_table(0x100_0000, 1);
        let mut mmu = TranslationEngine::new(MmuConfig::baseline_iommu());
        let first = mmu.translate(&pt, VirtAddr::new(0x100_0000), 0);
        assert!(matches!(
            first.source,
            TranslationSource::PageWalk { levels_read: 4 }
        ));
        assert_eq!(first.complete_cycle, 400);
        // After the walk completes, the same page hits in the TLB.
        let second = mmu.translate(&pt, VirtAddr::new(0x100_0040), first.complete_cycle + 1);
        assert_eq!(second.source, TranslationSource::TlbHit);
        assert_eq!(second.complete_cycle, second.accept_cycle + 5);
        assert_eq!(mmu.stats().walks, 1);
        assert_eq!(mmu.stats().tlb_hits, 1);
    }

    #[test]
    fn baseline_iommu_spends_redundant_walks_on_bursts_to_one_page() {
        // Back-to-back requests to the same page, issued before the first
        // walk completes: without a PRMB each one burns its own walker.
        let pt = mapped_table(0x200_0000, 1);
        let mut mmu = TranslationEngine::new(MmuConfig::baseline_iommu());
        for i in 0..8u64 {
            let out = mmu.translate(&pt, VirtAddr::new(0x200_0000 + i * 64), i);
            assert!(matches!(out.source, TranslationSource::PageWalk { .. }));
        }
        assert_eq!(mmu.stats().walks, 8);
        assert_eq!(mmu.stats().merged, 0);
        assert_eq!(mmu.stats().walk_memory_accesses, 32);
    }

    #[test]
    fn neummu_merges_bursts_to_one_page() {
        let pt = mapped_table(0x200_0000, 1);
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let mut cycle = 0;
        for i in 0..8u64 {
            let out = mmu.translate(&pt, VirtAddr::new(0x200_0000 + i * 64), cycle);
            cycle = out.accept_cycle + 1;
        }
        assert_eq!(mmu.stats().walks, 1);
        assert_eq!(mmu.stats().merged, 7);
        assert!(mmu.stats().merge_rate() > 0.8);
    }

    #[test]
    fn structural_stall_blocks_the_requester() {
        // One walker, no merging: the second request to a *different* page
        // must wait for the first walk to finish.
        let config = MmuConfig::baseline_iommu().with_ptws(1);
        let pt = mapped_table(0x300_0000, 2);
        let mut mmu = TranslationEngine::new(config);
        let first = mmu.translate(&pt, VirtAddr::new(0x300_0000), 0);
        let second = mmu.translate(&pt, VirtAddr::new(0x300_1000), 1);
        assert_eq!(first.complete_cycle, 400);
        assert!(
            second.accept_cycle >= 400,
            "accept at {}",
            second.accept_cycle
        );
        assert_eq!(mmu.stats().structural_stalls, 1);
        assert!(mmu.stats().stall_cycles >= 399);
    }

    #[test]
    fn prmb_overflow_falls_back_to_stalling() {
        // One walker with a single mergeable slot: the third request to the
        // same page can neither merge nor start a walk.
        let config = MmuConfig::baseline_iommu().with_ptws(1).with_prmb_slots(1);
        let pt = mapped_table(0x400_0000, 1);
        let mut mmu = TranslationEngine::new(config);
        let a = mmu.translate(&pt, VirtAddr::new(0x400_0000), 0);
        let b = mmu.translate(&pt, VirtAddr::new(0x400_0100), 1);
        let c = mmu.translate(&pt, VirtAddr::new(0x400_0200), 2);
        assert!(matches!(a.source, TranslationSource::PageWalk { .. }));
        assert_eq!(b.source, TranslationSource::Merged);
        // The third request stalls until the walk retires, then hits the TLB.
        assert!(c.accept_cycle >= a.complete_cycle);
        assert_eq!(c.source, TranslationSource::TlbHit);
    }

    #[test]
    fn tpreg_reduces_walk_memory_accesses_for_streaming_pages() {
        let pages = 64;
        let pt = mapped_table(0x800_0000, pages);
        let with_tpreg = MmuConfig::neummu().with_ptws(1);
        let without_tpreg = MmuConfig::neummu().with_ptws(1).with_tpreg(false);
        let run = |config: MmuConfig| {
            let mut mmu = TranslationEngine::new(config);
            let mut cycle = 0;
            for i in 0..pages {
                let out = mmu.translate(&pt, VirtAddr::new(0x800_0000 + i * 4096), cycle);
                cycle = out.complete_cycle + 1;
            }
            mmu.stats().walk_memory_accesses
        };
        let accesses_with = run(with_tpreg);
        let accesses_without = run(without_tpreg);
        assert_eq!(accesses_without, pages * 4);
        // First walk reads 4 levels, the rest only the leaf.
        assert_eq!(accesses_with, 4 + (pages - 1));
        assert!(accesses_without > 2 * accesses_with);
    }

    #[test]
    fn tpreg_hit_rates_follow_the_figure13_shape() {
        // Stream many consecutive pages through a single walker: L4/L3 always
        // match after the first walk; L2 misses at every 2 MB boundary.
        let pages = 2048; // 8 MB of consecutive pages
        let pt = mapped_table(0x4000_0000, pages);
        let mut mmu = TranslationEngine::new(MmuConfig::neummu().with_ptws(1).with_tlb_entries(16));
        let mut cycle = 0;
        for i in 0..pages {
            let out = mmu.translate(&pt, VirtAddr::new(0x4000_0000 + i * 4096), cycle);
            cycle = out.complete_cycle + 1;
        }
        let stats = mmu.stats();
        assert!(stats.tpreg_l4_rate() > 0.99);
        assert!(stats.tpreg_l3_rate() > 0.99);
        assert!(stats.tpreg_l2_rate() > 0.9);
        assert!(stats.tpreg_l2_rate() < stats.tpreg_l3_rate());
    }

    #[test]
    fn unmapped_page_reports_a_fault_after_a_partial_walk() {
        let pt = PageTable::new();
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let out = mmu.translate(&pt, VirtAddr::new(0x9999_0000), 0);
        assert!(out.fault);
        assert!(matches!(
            out.source,
            TranslationSource::PageWalk { levels_read: 1 }
        ));
        assert_eq!(mmu.stats().faults, 1);
        // A faulting walk never fills the TLB.
        let again = mmu.translate(&pt, VirtAddr::new(0x9999_0000), out.complete_cycle + 1);
        assert!(again.fault);
    }

    #[test]
    fn large_pages_walk_three_levels_and_cover_more_reach() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(0x4000_0000),
            PageSize::Size2M,
            PhysFrameNum::new(0x8_0000),
            MemNode::Npu(0),
        )
        .unwrap();
        let mut mmu =
            TranslationEngine::new(MmuConfig::baseline_iommu().with_page_size(PageSize::Size2M));
        let first = mmu.translate(&pt, VirtAddr::new(0x4000_0000), 0);
        assert!(matches!(
            first.source,
            TranslationSource::PageWalk { levels_read: 3 }
        ));
        assert_eq!(first.complete_cycle, 300);
        // An address 1 MB away is still in the same 2 MB page: TLB hit.
        let second = mmu.translate(&pt, VirtAddr::new(0x4010_0000), 400);
        assert_eq!(second.source, TranslationSource::TlbHit);
    }

    #[test]
    fn invalidate_page_forces_a_new_walk() {
        let pt = mapped_table(0xa00_0000, 1);
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let first = mmu.translate(&pt, VirtAddr::new(0xa00_0000), 0);
        let hit = mmu.translate(&pt, VirtAddr::new(0xa00_0000), first.complete_cycle + 1);
        assert_eq!(hit.source, TranslationSource::TlbHit);
        mmu.invalidate_page(VirtAddr::new(0xa00_0000));
        let after = mmu.translate(&pt, VirtAddr::new(0xa00_0000), hit.complete_cycle + 1);
        assert!(matches!(after.source, TranslationSource::PageWalk { .. }));
    }

    #[test]
    fn tagged_contexts_do_not_share_tlb_entries() {
        // Two tenants, same VA, each with its own page table. Tenant A's
        // walk fills the TLB under its ASID; tenant B's request to the same
        // VA must miss and walk B's own table.
        let pt_a = mapped_table(0x500_0000, 1);
        let pt_b = mapped_table(0x500_0000, 1);
        let (a, b) = (Asid::new(1), Asid::new(2));
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let first = mmu.translate_tagged(&pt_a, a, VirtAddr::new(0x500_0000), 0);
        assert!(matches!(first.source, TranslationSource::PageWalk { .. }));
        let hit = mmu.translate_tagged(
            &pt_a,
            a,
            VirtAddr::new(0x500_0000),
            first.complete_cycle + 1,
        );
        assert_eq!(hit.source, TranslationSource::TlbHit);
        let cross =
            mmu.translate_tagged(&pt_b, b, VirtAddr::new(0x500_0000), hit.complete_cycle + 1);
        assert!(
            matches!(cross.source, TranslationSource::PageWalk { .. }),
            "tenant B must not hit on tenant A's TLB entry, got {:?}",
            cross.source
        );
        // Once B's walk retires, both tenants hold their own entry.
        let hit_b = mmu.translate_tagged(
            &pt_b,
            b,
            VirtAddr::new(0x500_0000),
            cross.complete_cycle + 1,
        );
        assert_eq!(hit_b.source, TranslationSource::TlbHit);
        assert_eq!(mmu.tlb().occupancy_of(a), 1);
        assert_eq!(mmu.tlb().occupancy_of(b), 1);
    }

    #[test]
    fn tagged_contexts_do_not_merge_into_each_others_walks() {
        // Back-to-back requests to the same page number from two different
        // contexts, issued before the first walk completes: no cross-tenant
        // PRMB merge may happen.
        let pt_a = mapped_table(0x600_0000, 1);
        let pt_b = mapped_table(0x600_0000, 1);
        let (a, b) = (Asid::new(1), Asid::new(2));
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let first = mmu.translate_tagged(&pt_a, a, VirtAddr::new(0x600_0000), 0);
        let second = mmu.translate_tagged(&pt_b, b, VirtAddr::new(0x600_0000), 1);
        assert!(matches!(first.source, TranslationSource::PageWalk { .. }));
        assert!(matches!(second.source, TranslationSource::PageWalk { .. }));
        assert_eq!(mmu.stats().merged, 0);
        // Same context *does* merge.
        let third = mmu.translate_tagged(&pt_a, a, VirtAddr::new(0x600_0040), 2);
        assert_eq!(third.source, TranslationSource::Merged);
    }

    #[test]
    fn flush_asid_only_evicts_the_flushed_tenant() {
        let pt = mapped_table(0x700_0000, 1);
        let (a, b) = (Asid::new(1), Asid::new(2));
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let wa = mmu.translate_tagged(&pt, a, VirtAddr::new(0x700_0000), 0);
        let wb = mmu.translate_tagged(&pt, b, VirtAddr::new(0x700_0000), wa.complete_cycle + 1);
        let mut cycle = wb.complete_cycle + 1;
        mmu.flush_asid(a);
        let after_a = mmu.translate_tagged(&pt, a, VirtAddr::new(0x700_0000), cycle);
        assert!(matches!(after_a.source, TranslationSource::PageWalk { .. }));
        cycle = after_a.complete_cycle + 1;
        let after_b = mmu.translate_tagged(&pt, b, VirtAddr::new(0x700_0000), cycle);
        assert_eq!(after_b.source, TranslationSource::TlbHit);
    }

    #[test]
    fn untagged_translate_is_the_global_context() {
        let pt = mapped_table(0x800_0000, 1);
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let walk = mmu.translate(&pt, VirtAddr::new(0x800_0000), 0);
        let hit = mmu.translate_tagged(
            &pt,
            Asid::GLOBAL,
            VirtAddr::new(0x800_0000),
            walk.complete_cycle + 1,
        );
        assert_eq!(hit.source, TranslationSource::TlbHit);
    }

    #[test]
    fn flush_asid_discards_in_flight_walks() {
        // Tenant A's walk for page P is in flight when A's context is torn
        // down (page-table switch). After the flush, a new same-page request
        // from A must neither merge into the stale walk nor ever see its
        // translation appear in the TLB.
        let pt_old = mapped_table(0x900_0000, 1);
        let pt_new = mapped_table(0x900_0000, 1);
        let a = Asid::new(1);
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let stale = mmu.translate_tagged(&pt_old, a, VirtAddr::new(0x900_0000), 0);
        assert!(matches!(stale.source, TranslationSource::PageWalk { .. }));
        mmu.flush_asid(a);
        // Re-issued against the new table, before the stale walk completes:
        // a fresh walk, not a merge into the doomed one.
        let fresh = mmu.translate_tagged(&pt_new, a, VirtAddr::new(0x900_0000), 1);
        assert!(
            matches!(fresh.source, TranslationSource::PageWalk { .. }),
            "merged into a flushed walk: {:?}",
            fresh.source
        );
        // Let both walks retire; exactly one TLB entry (the fresh walk's) may
        // exist — the flushed walk's stale translation must not have landed.
        let after = mmu.translate_tagged(
            &pt_new,
            a,
            VirtAddr::new(0x900_0000),
            stale.complete_cycle.max(fresh.complete_cycle) + 1,
        );
        assert_eq!(after.source, TranslationSource::TlbHit);
        assert_eq!(mmu.tlb().occupancy_of(a), 1);
    }

    #[test]
    fn flush_asid_during_walk_spares_other_tenants_merges() {
        // Flushing tenant A while tenant B's walk is in flight must leave
        // B's PTS entry mergeable.
        let pt = mapped_table(0xf00_0000, 1);
        let (a, b) = (Asid::new(1), Asid::new(2));
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        mmu.translate_tagged(&pt, b, VirtAddr::new(0xf00_0000), 0);
        mmu.flush_asid(a);
        let merged = mmu.translate_tagged(&pt, b, VirtAddr::new(0xf00_0040), 1);
        assert_eq!(merged.source, TranslationSource::Merged);
    }

    #[test]
    fn invalidate_page_is_a_broadcast_across_contexts() {
        // An untagged invalidation (migration/unmap) kills the page's entry
        // in every context, not just GLOBAL.
        let pt = mapped_table(0x110_0000, 2);
        let (a, b) = (Asid::new(1), Asid::new(2));
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let wa = mmu.translate_tagged(&pt, a, VirtAddr::new(0x110_0000), 0);
        let wb = mmu.translate_tagged(&pt, b, VirtAddr::new(0x110_0000), wa.complete_cycle + 1);
        let wc = mmu.translate_tagged(&pt, b, VirtAddr::new(0x110_1000), wb.complete_cycle + 1);
        let mut cycle = wc.complete_cycle + 1;
        mmu.invalidate_page(VirtAddr::new(0x110_0000));
        for asid in [a, b] {
            let out = mmu.translate_tagged(&pt, asid, VirtAddr::new(0x110_0000), cycle);
            assert!(
                matches!(out.source, TranslationSource::PageWalk { .. }),
                "{asid}: stale entry survived the broadcast shootdown"
            );
            cycle = out.complete_cycle + 1;
        }
        // The *other* page's entry survives.
        let other = mmu.translate_tagged(&pt, b, VirtAddr::new(0x110_1000), cycle);
        assert_eq!(other.source, TranslationSource::TlbHit);
    }

    #[test]
    fn reset_clears_state_but_keeps_configuration() {
        let pt = mapped_table(0xb00_0000, 2);
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        mmu.translate(&pt, VirtAddr::new(0xb00_0000), 0);
        mmu.reset();
        assert_eq!(mmu.stats().requests, 0);
        assert_eq!(mmu.config().kind, MmuKind::NeuMmu);
        assert_eq!(mmu.energy().total_nj(), 0.0);
    }

    #[test]
    fn for_config_dispatches_oracle() {
        let pt = mapped_table(0xc00_0000, 1);
        let mut oracle = TranslationEngine::for_config(MmuConfig::oracle());
        let out = oracle.translate(&pt, VirtAddr::new(0xc00_0000), 7);
        assert_eq!(out.source, TranslationSource::Oracle);
        let mut engine = TranslationEngine::for_config(MmuConfig::neummu());
        let out = engine.translate(&pt, VirtAddr::new(0xc00_0000), 7);
        assert!(matches!(out.source, TranslationSource::PageWalk { .. }));
    }

    /// Drives the same DMA-shaped burst stream (runs of `txns_per_page`
    /// requests per page, one request per cycle after the previous accept)
    /// through a per-request engine and a run-coalesced engine, asserting
    /// bit-identical outcomes, statistics, energy and TLB counters.
    fn assert_run_path_matches_per_request(
        config: MmuConfig,
        pt: &PageTable,
        pages: &[u64],
        base: u64,
        txns_per_page: u64,
        passes: u32,
    ) {
        assert_engines_agree_on_run_and_request_paths(
            &mut TranslationEngine::new(config),
            &mut TranslationEngine::new(config),
            pt,
            pages,
            base,
            txns_per_page,
            passes,
        );
    }

    /// [`assert_run_path_matches_per_request`] on two given engines of one
    /// configuration: `reference` takes one `translate` per request,
    /// `coalesced` takes `translate_run`s. Fault counters must agree too.
    fn assert_engines_agree_on_run_and_request_paths(
        reference: &mut TranslationEngine,
        coalesced: &mut TranslationEngine,
        pt: &PageTable,
        pages: &[u64],
        base: u64,
        txns_per_page: u64,
        passes: u32,
    ) {
        let config = reference.config();
        let mut ref_cycle = 0u64;
        let mut run_cycle = 0u64;
        let page_bytes = config.page_size.bytes();
        let txn_bytes = page_bytes / txns_per_page;
        for pass in 0..passes {
            for &page in pages {
                let va = VirtAddr::new(base + page * page_bytes);
                let mut expected = Vec::new();
                for i in 0..txns_per_page {
                    let out = reference.translate(pt, va.add(i * txn_bytes), ref_cycle);
                    ref_cycle = out.accept_cycle + 1;
                    expected.push(out);
                }
                let mut produced = Vec::new();
                let mut remaining = txns_per_page;
                while remaining > 0 {
                    let index = txns_per_page - remaining;
                    let out = coalesced.translate_run(
                        pt,
                        va.add(index * txn_bytes),
                        remaining,
                        run_cycle,
                    );
                    assert!(out.consumed >= 1 && out.consumed <= remaining);
                    for j in 0..out.consumed {
                        produced.push(out.outcome(j));
                    }
                    run_cycle = out.last_accept() + 1;
                    remaining -= out.consumed;
                }
                assert_eq!(produced, expected, "pass {pass} page {page:#x}");
            }
        }
        assert_eq!(ref_cycle, run_cycle);
        assert_eq!(reference.stats(), coalesced.stats());
        assert_eq!(reference.fault_counters(), coalesced.fault_counters());
        assert_eq!(reference.tlb().lookups(), coalesced.tlb().lookups());
        assert_eq!(reference.tlb().hits(), coalesced.tlb().hits());
        assert_eq!(reference.tlb().fills(), coalesced.tlb().fills());
        assert_eq!(reference.tlb().occupancy(), coalesced.tlb().occupancy());
        assert!((reference.energy().total_nj() - coalesced.energy().total_nj()).abs() < 1e-9);
        for event in [
            neummu_energy::EnergyEvent::TlbLookup,
            neummu_energy::EnergyEvent::TlbFill,
            neummu_energy::EnergyEvent::PtsLookup,
            neummu_energy::EnergyEvent::PrmbWrite,
            neummu_energy::EnergyEvent::PrmbRead,
            neummu_energy::EnergyEvent::PageWalkMemoryAccess,
        ] {
            assert_eq!(
                reference.energy().count(event),
                coalesced.energy().count(event),
                "{event:?}"
            );
        }
    }

    #[test]
    fn run_path_matches_per_request_for_streaming_merges() {
        // NeuMMU streaming: every page's first request walks, the other seven
        // merge. Two passes so the second pass exercises the TLB-hit replay
        // while earlier walks retire mid-run.
        let pt = mapped_table(0x100_0000, 64);
        let pages: Vec<u64> = (0..64).collect();
        assert_run_path_matches_per_request(MmuConfig::neummu(), &pt, &pages, 0x100_0000, 8, 2);
    }

    #[test]
    fn run_path_matches_per_request_when_merging_is_disabled() {
        // Baseline IOMMU: no PRMB, every request spends its own walk; the run
        // path must degenerate to the per-request sequence.
        let pt = mapped_table(0x200_0000, 16);
        let pages: Vec<u64> = (0..16).collect();
        assert_run_path_matches_per_request(
            MmuConfig::baseline_iommu(),
            &pt,
            &pages,
            0x200_0000,
            8,
            2,
        );
    }

    #[test]
    fn run_path_matches_per_request_under_prmb_exhaustion() {
        // One mergeable slot: runs exhaust the PRMB immediately and fall back
        // mid-run (structural stalls included).
        let config = MmuConfig::neummu().with_ptws(2).with_prmb_slots(1);
        let pt = mapped_table(0x300_0000, 16);
        let pages: Vec<u64> = (0..16).collect();
        assert_run_path_matches_per_request(config, &pt, &pages, 0x300_0000, 8, 2);
    }

    #[test]
    fn run_path_matches_per_request_under_tlb_thrashing() {
        // A tiny TLB with a working set larger than capacity: hit-regime
        // replays race against evictions from mid-run retirements.
        let config = MmuConfig::neummu().with_tlb_entries(4);
        let pt = mapped_table(0x400_0000, 32);
        let pages: Vec<u64> = (0..32).collect();
        assert_run_path_matches_per_request(config, &pt, &pages, 0x400_0000, 8, 3);
    }

    #[test]
    fn run_path_matches_per_request_with_2mb_pages() {
        let mut pt = PageTable::new();
        for i in 0..4u64 {
            pt.map(
                VirtAddr::new(0x4000_0000 + i * (2 << 20)),
                PageSize::Size2M,
                PhysFrameNum::new(0x8_0000 + i * 512),
                MemNode::Npu(0),
            )
            .unwrap();
        }
        let config = MmuConfig::neummu().with_page_size(PageSize::Size2M);
        let pages: Vec<u64> = (0..4).collect();
        // 64 transactions per 2 MB page keeps the test fast while spanning
        // walk completion inside each run.
        assert_run_path_matches_per_request(config, &pt, &pages, 0x4000_0000, 64, 2);
    }

    #[test]
    fn tagged_run_replays_do_not_cross_contexts() {
        let pt_a = mapped_table(0x500_0000, 1);
        let pt_b = mapped_table(0x500_0000, 1);
        let (a, b) = (Asid::new(1), Asid::new(2));
        let mut mmu = TranslationEngine::new(MmuConfig::neummu());
        let run_a = mmu.translate_run_tagged(&pt_a, a, VirtAddr::new(0x500_0000), 8, 0);
        assert_eq!(run_a.consumed, 8);
        assert_eq!(run_a.replay_source, TranslationSource::Merged);
        // Tenant B's run to the same page number cannot merge into A's walk:
        // its first request starts a fresh walk and its replays merge into
        // *that* walk only.
        let run_b = mmu.translate_run_tagged(
            &pt_b,
            b,
            VirtAddr::new(0x500_0000),
            8,
            run_a.last_accept() + 1,
        );
        assert_eq!(run_b.consumed, 8);
        assert!(matches!(
            run_b.first.source,
            TranslationSource::PageWalk { .. }
        ));
        assert_eq!(mmu.stats().walks, 2);
        assert_eq!(mmu.stats().merged, 14);
    }

    #[test]
    fn oracle_run_replays_memoized_bursts_and_partial_faults() {
        let pt = mapped_table(0x600_0000, 1);
        let mut oracle = OracleTranslator::default();
        let run = oracle.translate_run(&pt, VirtAddr::new(0x600_0000), 8, 5);
        assert_eq!(run.consumed, 8);
        assert_eq!(run.complete_stride, 1);
        assert_eq!(run.outcome(7).accept_cycle, 12);
        assert_eq!(run.outcome(7).complete_cycle, 12);
        assert!(!run.outcome(7).fault);
        assert_eq!(oracle.stats().requests, 8);
        assert_eq!(oracle.stats().last_completion_cycle, 12);
        // An unmapped page replays its faults from the negative memo.
        let faulting = oracle.translate_run(&pt, VirtAddr::new(0x900_0000), 4, 20);
        assert_eq!(faulting.consumed, 4);
        assert!(faulting.first.fault && faulting.replay_fault);
        assert_eq!(oracle.stats().faults, 4);
        // Same totals as four per-request faulting translates.
        let mut reference = OracleTranslator::default();
        let mut cycle = 20;
        for _ in 0..4 {
            let out = reference.translate(&pt, VirtAddr::new(0x900_0000), cycle);
            assert!(out.fault);
            cycle = out.accept_cycle + 1;
        }
        assert_eq!(reference.stats().faults, 4);
    }

    #[test]
    fn energy_accumulates_walk_accesses() {
        let pt = mapped_table(0xd00_0000, 4);
        let mut mmu = TranslationEngine::new(MmuConfig::baseline_iommu());
        let mut cycle = 0;
        for i in 0..4u64 {
            let out = mmu.translate(&pt, VirtAddr::new(0xd00_0000 + i * 4096), cycle);
            cycle = out.accept_cycle + 1;
        }
        assert_eq!(
            mmu.energy()
                .count(neummu_energy::EnergyEvent::PageWalkMemoryAccess),
            16
        );
        assert!(mmu.energy().total_nj() > 0.0);
    }

    /// Exact per-event energy counts of four engine shapes on one fixed
    /// stream: two strided passes over 50 pages (the last two unmapped),
    /// eight same-page requests per page through the run path, then one late
    /// request after every walk has retired. A change to how any event is
    /// counted or derived must update these numbers deliberately.
    #[test]
    fn energy_counts_are_pinned_per_engine_shape() {
        let events = [
            EnergyEvent::PageWalkMemoryAccess,
            EnergyEvent::TlbLookup,
            EnergyEvent::TlbFill,
            EnergyEvent::PtsLookup,
            EnergyEvent::PrmbWrite,
            EnergyEvent::PrmbRead,
            EnergyEvent::TpregAccess,
        ];
        let faulted = TranslationEngine::with_faults(
            MmuConfig::neummu(),
            DeviceFaultConfig::uniform(7, 0.25),
            ResilienceConfig::all_on(),
        )
        .unwrap();
        let shapes = [
            (
                "baseline IOMMU",
                TranslationEngine::new(MmuConfig::baseline_iommu()),
                [1664, 852, 384, 0, 0, 0, 0],
            ),
            (
                "NeuMMU with TPreg",
                TranslationEngine::new(MmuConfig::neummu()),
                [208, 801, 48, 472, 420, 420, 52],
            ),
            (
                "walker-starved NeuMMU",
                TranslationEngine::new(MmuConfig::neummu().with_ptws(2).with_prmb_slots(2)),
                [114, 868, 96, 387, 212, 212, 175],
            ),
            (
                "fault-injected NeuMMU",
                faulted,
                [204, 801, 48, 720, 669, 669, 12],
            ),
        ];
        let pt = mapped_table(0x100_0000, 48);
        for (name, mut mmu, expected) in shapes {
            let mut cycle = 0;
            for pass in 0..2u64 {
                for i in 0..50u64 {
                    let va = VirtAddr::new(0x100_0000 + ((i * 7 + pass) % 50) * 4096);
                    let mut remaining = 8;
                    while remaining > 0 {
                        let offset = (8 - remaining) * 512;
                        let run = mmu.translate_run(&pt, va.add(offset), remaining, cycle);
                        cycle = run.last_accept() + 1;
                        remaining -= run.consumed;
                    }
                }
            }
            mmu.translate(&pt, VirtAddr::new(0x100_0000), cycle + 1_000_000);
            let energy = mmu.energy();
            assert_eq!(events.map(|e| energy.count(e)), expected, "{name}");
        }
    }

    #[test]
    fn zero_rate_fault_plan_is_bit_identical_to_no_plan() {
        let pt = mapped_table(0xa00_0000, 64);
        let mut plain = TranslationEngine::new(MmuConfig::neummu());
        let mut faulted = TranslationEngine::with_faults(
            MmuConfig::neummu(),
            DeviceFaultConfig::none(0xFEED),
            ResilienceConfig::all_on(),
        )
        .unwrap();
        let mut cycle = 0;
        for i in 0..512u64 {
            let va = VirtAddr::new(0xa00_0000 + (i % 64) * 4096);
            let a = plain.translate(&pt, va, cycle);
            let b = faulted.translate(&pt, va, cycle);
            assert_eq!(a, b, "request {i} diverged under a disarmed plan");
            cycle = a.accept_cycle + 1;
        }
        assert_eq!(plain.stats(), faulted.stats());
        assert_eq!(faulted.fault_counters(), Some(&FaultCounters::default()));
    }

    #[test]
    fn armed_fault_plan_draws_the_same_faults_on_the_run_path() {
        // Merging disabled and no TPreg, the shape whose runs replay walk
        // after walk. Every walk admission must draw from the armed plan,
        // so `translate_run` has to draw exactly the faults that one
        // `translate` per request draws, and agree on every outcome.
        let pt = mapped_table(0xb00_0000, 64);
        let pages: Vec<u64> = (0..64).collect();
        let build = || {
            TranslationEngine::with_faults(
                MmuConfig::baseline_iommu().with_ptws(64),
                DeviceFaultConfig::uniform(7, 0.3),
                ResilienceConfig::all_on(),
            )
            .unwrap()
        };
        let (mut per_request, mut run) = (build(), build());
        assert_engines_agree_on_run_and_request_paths(
            &mut per_request,
            &mut run,
            &pt,
            &pages,
            0xb00_0000,
            8,
            1,
        );
        // The plan was exercised: some walks were perturbed.
        assert!(per_request.fault_counters().unwrap().total_injected() > 0);
    }

    #[test]
    fn recovered_fault_delays_but_still_fills_the_tlb() {
        // Stuck-walker faults at rate 1.0 with the watchdog on: the first
        // touch of a page is a perturbed walk costing watchdog + walk
        // cycles, recovered — so the repeat touch must be a TLB hit.
        let pt = mapped_table(0xa00_0000, 4);
        let config = MmuConfig::neummu();
        let resilience = ResilienceConfig::all_on().with_quarantine(false);
        let mut mmu = TranslationEngine::with_faults(
            config,
            DeviceFaultConfig::none(1).with_kind(
                neummu_faults::FaultKind::WalkerStuck,
                neummu_faults::FaultRate::of(1.0),
            ),
            resilience,
        )
        .unwrap();
        let out = mmu.translate(&pt, VirtAddr::new(0xa00_0000), 0);
        assert!(!out.fault);
        let walk_latency = 4 * config.walk_latency_per_level;
        assert_eq!(
            out.complete_cycle,
            resilience.watchdog_cycles + walk_latency
        );
        let counters = mmu.fault_counters().unwrap();
        assert_eq!(counters.total_recovered(), 1);
        let repeat = mmu.translate(&pt, VirtAddr::new(0xa00_0000), out.complete_cycle + 1);
        assert_eq!(repeat.source, TranslationSource::TlbHit);
    }

    #[test]
    fn hung_fault_reports_a_translation_fault_and_never_fills_the_tlb() {
        // Dropped responses with retransmit off hang to the livelock bound
        // and retire unmapped even though the page is mapped.
        let pt = mapped_table(0xa00_0000, 4);
        let resilience = ResilienceConfig::all_off();
        let mut mmu = TranslationEngine::with_faults(
            MmuConfig::neummu(),
            DeviceFaultConfig::none(2).with_kind(
                neummu_faults::FaultKind::DroppedResponse,
                neummu_faults::FaultRate::of(1.0),
            ),
            resilience,
        )
        .unwrap();
        let out = mmu.translate(&pt, VirtAddr::new(0xa00_0000), 0);
        assert!(out.fault, "a hung walk yields no usable translation");
        assert_eq!(out.complete_cycle, resilience.livelock_bound_cycles);
        assert_eq!(mmu.fault_counters().unwrap().total_hung(), 1);
        // Past the livelock bound the walk has retired — unmapped, so the
        // TLB was never filled and the next touch walks again.
        let repeat = mmu.translate(&pt, VirtAddr::new(0xa00_0000), out.complete_cycle + 1);
        assert!(matches!(repeat.source, TranslationSource::PageWalk { .. }));
    }

    #[test]
    fn quarantine_shrinks_the_pool_and_readmits_after_cooldown() {
        // One walker, stuck fault with watchdog + quarantine: the walk
        // recovers, its walker parks, and until the cool-down expires the
        // only walker is gone — a second translation must stall until
        // readmission rather than hang or panic on an empty pool.
        let pt = mapped_table(0xa00_0000, 4);
        let config = MmuConfig::neummu().with_ptws(1);
        let resilience = ResilienceConfig::all_on();
        let mut mmu = TranslationEngine::with_faults(
            config,
            DeviceFaultConfig::none(3).with_kind(
                neummu_faults::FaultKind::WalkerStuck,
                neummu_faults::FaultRate::bursty(1.0, 1),
            ),
            resilience,
        )
        .unwrap();
        let first = mmu.translate(&pt, VirtAddr::new(0xa00_0000), 0);
        assert!(!first.fault);
        let quarantine_ends = first.complete_cycle + resilience.quarantine_cooldown_cycles;
        // Issued right after the first walk retires: every walker is parked,
        // so the request stalls until readmission (where rate 1.0 strikes
        // again and the perturbed walk starts at the readmission cycle).
        let second = mmu.translate(&pt, VirtAddr::new(0xa00_1000), first.complete_cycle + 1);
        assert!(second.accept_cycle >= quarantine_ends);
        assert!(mmu.stats().structural_stalls > 0);
    }

    #[test]
    fn fault_plan_survives_reset_and_replays_from_the_start() {
        let pt = mapped_table(0xa00_0000, 64);
        let config = MmuConfig::neummu();
        let faults = DeviceFaultConfig::uniform(7, 0.25);
        let resilience = ResilienceConfig::all_on();
        let mut mmu = TranslationEngine::with_faults(config, faults, resilience).unwrap();
        let run = |mmu: &mut TranslationEngine| {
            let mut cycle = 0;
            let mut outs = Vec::new();
            for i in 0..256u64 {
                let out = mmu.translate(&pt, VirtAddr::new(0xa00_0000 + (i % 64) * 4096), cycle);
                outs.push(out);
                cycle = out.accept_cycle + 1;
            }
            outs
        };
        let first = run(&mut mmu);
        let counters_first = mmu.fault_counters().unwrap().clone();
        assert!(counters_first.total_injected() > 0);
        AddressTranslator::reset(&mut mmu);
        assert_eq!(mmu.fault_counters(), Some(&FaultCounters::default()));
        let second = run(&mut mmu);
        assert_eq!(
            first, second,
            "a reset engine must replay the same schedule"
        );
        assert_eq!(mmu.fault_counters(), Some(&counters_first));
    }
}
