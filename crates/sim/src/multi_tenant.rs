//! Multi-tenant NPU sharing: one translation front end, many tenants.
//!
//! The paper models a single address space per NPU, but the serving scenario
//! it motivates — a TPU-style accelerator behind heavy inference traffic —
//! time-shares one NPU between many models and users. This module holds the
//! per-tenant pieces of that scenario:
//!
//! * every tenant is a dense workload ([`TenantSpec`]) under its own
//!   [`Asid`], translating through the page table of its network's
//!   [`neummu_vmem::AddressSpace`] (tenants of one spec map identical
//!   spaces, so a run builds each distinct spec once and shares it),
//! * a tenant's DMA translation stream is the page-run decomposition of its
//!   layers' tile fetches (`map_tenant_fetches`, `TenantStream`),
//! * per-tenant [`TenantStats`] event counters (in the spirit of
//!   CounterPoint's cheap measured counters) expose exactly where the
//!   cross-tenant interference lands: TLB hit-rate collapse, lost merges,
//!   extra walker occupancy, stall cycles.
//!
//! One driver multiplexes the streams onto **one shared cycle-accounted
//! translation engine and one shared HBM**: the turn loop of
//! [`crate::serving::ServingSimulator`]. Its closed-loop entry point,
//! [`ServingSimulator::run_to_completion`], runs a tenant mix to completion
//! and returns a [`MultiTenantResult`]; the open-loop
//! [`ServingSimulator::run`] serves arrivals on the same turns. The DMA front
//! end accepts at most one translation request per cycle, so tenants contend
//! for IOTLB capacity, PTS/PRMB slots, walker bandwidth and DRAM bandwidth.
//!
//! The model follows the dense simulator's accounting of the *memory phase*:
//! each tenant's stream is the exact per-transaction DMA decomposition of its
//! layers' tile fetches (one translation request per transaction, data
//! scheduled on the DRAM bandwidth server once the translation completes),
//! and a tenant is finished when its last byte has arrived. Compute phases
//! are not modelled here — translation throughput under contention is the
//! quantity of interest, and it is unaffected by the overlap structure.
//!
//! A tenant's contention-free baseline, the denominator of its slowdown, is
//! its solo run: with one tenant there is nobody to contend with.
//!
//! [`ServingSimulator::run_to_completion`]: crate::serving::ServingSimulator::run_to_completion
//! [`ServingSimulator::run`]: crate::serving::ServingSimulator::run

use serde::Serialize;

use neummu_npu::{DmaEngine, NpuConfig, PageRun, PageRunIter, TileFetch, TilingPlan};
use neummu_vmem::{Asid, MemNode, NodeSpec, PhysicalMemory, SegmentOptions};
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::error::SimError;

/// One tenant time-sharing the NPU: a dense workload at a batch size.
///
/// # Example
///
/// ```
/// use neummu_sim::multi_tenant::TenantSpec;
/// use neummu_workloads::WorkloadId;
///
/// let tenant = TenantSpec::new(WorkloadId::Cnn1, 1);
/// assert_eq!(tenant.label(), "CNN-1/b01");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TenantSpec {
    /// The tenant's workload.
    pub workload: WorkloadId,
    /// The tenant's batch size.
    pub batch: u64,
}

impl TenantSpec {
    /// Creates a tenant spec.
    #[must_use]
    pub fn new(workload: WorkloadId, batch: u64) -> Self {
        TenantSpec { workload, batch }
    }

    /// Human-readable `workload/batch` label (figure notation).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/b{:02}", self.workload.label(), self.batch)
    }
}

/// Per-tenant event counters and timing of one run on the shared engine.
///
/// The counters are the multi-tenant extension of the repo's telemetry
/// philosophy: cheap measured event counts that validate (or refute) the
/// microarchitectural story — here, how much of a tenant's slowdown is TLB
/// contention vs walker occupancy vs front-end stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TenantStats {
    /// The tenant's context tag.
    pub asid: Asid,
    /// Translation requests issued (one per DMA transaction).
    pub requests: u64,
    /// Requests that hit the (shared) IOTLB.
    pub tlb_hits: u64,
    /// Requests merged into an in-flight same-context walk by the PTS/PRMB.
    pub merged: u64,
    /// Page-table walks spent on this tenant.
    pub walks: u64,
    /// Page-table levels read by this tenant's walks (its walker-occupancy
    /// and walk-energy footprint).
    pub walk_levels_read: u64,
    /// Translation faults (always zero for eagerly mapped dense operands).
    pub faults: u64,
    /// Cycles this tenant's requests spent stalled for translation bandwidth
    /// (accept cycle minus issue cycle, summed).
    pub stall_cycles: u64,
    /// Cycle at which the tenant's last byte of data arrived.
    pub completion_cycle: u64,
    /// IOTLB entries the tenant held when it finished (capacity share).
    pub final_tlb_occupancy: u64,
}

impl TenantStats {
    pub(crate) fn new(asid: Asid) -> Self {
        TenantStats {
            asid,
            requests: 0,
            tlb_hits: 0,
            merged: 0,
            walks: 0,
            walk_levels_read: 0,
            faults: 0,
            stall_cycles: 0,
            completion_cycle: 0,
            final_tlb_occupancy: 0,
        }
    }

    /// IOTLB hit rate of the tenant's own request stream.
    #[must_use]
    pub fn tlb_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / self.requests as f64
        }
    }
}

/// The outcome of one closed-loop run of a tenant mix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiTenantResult {
    /// Tenant mix the run executed, in ASID order.
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant counters and timing, in ASID order.
    pub stats: Vec<TenantStats>,
    /// Cycle at which the last tenant finished.
    pub makespan_cycles: u64,
}

impl MultiTenantResult {
    /// The stats of the tenant registered under `asid`.
    #[must_use]
    pub fn tenant(&self, asid: Asid) -> Option<&TenantStats> {
        self.stats.get(asid.index())
    }

    /// Each tenant's share of the total walker busy cycles (the
    /// walker-occupancy breakdown; empty if no tenant walked).
    #[must_use]
    pub fn walker_occupancy_shares(&self) -> Vec<f64> {
        let total: u64 = self.stats.iter().map(|s| s.walk_levels_read).sum();
        if total == 0 {
            return vec![0.0; self.stats.len()];
        }
        self.stats
            .iter()
            .map(|s| s.walk_levels_read as f64 / total as f64)
            .collect()
    }
}

/// One tenant's DMA translation stream: the page-run decomposition of its
/// layers' tile fetches, yielded lazily in program order.
///
/// The stream hands out [`PageRun`]s clipped to the turn's remaining quota,
/// so a run never spans a tenant switch; a run the shared engine could not
/// fully replay is pushed back and resumes from its suffix. The transaction
/// sequence this produces is exactly the per-transaction decomposition of
/// the fetches.
///
/// A *cyclic* stream (open-loop serving) restarts from the first fetch when
/// the last one is exhausted — each inference request re-fetches the model's
/// operands at the same virtual addresses — and therefore never runs dry. A
/// non-cyclic stream (closed loop) ends, and its end completes the tenant.
///
/// The fetch list is borrowed: every tenant that runs the same network reads
/// the one list that network's mapping produced.
pub(crate) struct TenantStream<'a> {
    dma: DmaEngine,
    /// `(segment base, fetch)` for every IA/W fetch of every tile of every
    /// layer, in issue order.
    fetches: &'a [(u64, TileFetch)],
    next_fetch: usize,
    current: Option<(u64, PageRunIter)>,
    /// Remainder of a clipped or partially consumed run (with its base VA).
    pending: Option<(u64, PageRun)>,
    /// Wrap around at the end of the fetch list instead of ending.
    cyclic: bool,
}

impl<'a> TenantStream<'a> {
    /// Creates a stream over the given fetch list.
    pub(crate) fn new(dma: DmaEngine, fetches: &'a [(u64, TileFetch)], cyclic: bool) -> Self {
        TenantStream {
            dma,
            fetches,
            next_fetch: 0,
            current: None,
            pending: None,
            cyclic,
        }
    }

    /// The next same-page run of at most `max_txns` transactions, with the
    /// segment base VA its offsets are relative to.
    pub(crate) fn next_run(&mut self, max_txns: u64, page_bytes: u64) -> Option<(u64, PageRun)> {
        let (base, run) = match self.pending.take() {
            Some(pending) => pending,
            None => loop {
                if let Some((base, iter)) = self.current.as_mut() {
                    if let Some(run) = iter.next() {
                        break (*base, run);
                    }
                    self.current = None;
                }
                if self.next_fetch == self.fetches.len() && self.cyclic {
                    self.next_fetch = 0;
                }
                let &(base, fetch) = self.fetches.get(self.next_fetch)?;
                self.next_fetch += 1;
                self.current = Some((base, self.dma.page_runs(&fetch, base, page_bytes)));
            },
        };
        if run.txn_count > max_txns {
            self.pending = Some((base, run.suffix(max_txns)));
            Some((base, run.prefix(max_txns)))
        } else {
            Some((base, run))
        }
    }

    /// Returns the unconsumed tail of a run to the front of the stream.
    ///
    /// When the run being returned was itself the clipped prefix of a longer
    /// run, the clip remainder is still pending; the two are contiguous
    /// pieces of the same original run, so they are rejoined rather than one
    /// overwriting the other.
    pub(crate) fn push_back(&mut self, base: u64, run: PageRun) {
        self.pending = Some(match self.pending.take() {
            Some((pending_base, clip_remainder)) => {
                debug_assert_eq!(base, pending_base, "pieces of one run share a base");
                (base, run.join(&clip_remainder))
            }
            None => (base, run),
        });
    }
}

/// Maps one tenant's dense operands (per-layer IA and weight segments) into
/// its private address space and returns the `(segment base, fetch)` pairs of
/// its tile fetch stream, in issue order.
pub(crate) fn map_tenant_fetches(
    space: &mut neummu_vmem::AddressSpace,
    workload: WorkloadId,
    batch: u64,
    npu: &NpuConfig,
    node: MemNode,
    memory_capacity_bytes: u64,
    page_size: neummu_vmem::PageSize,
) -> Result<Vec<(u64, TileFetch)>, SimError> {
    // Every tenant draws frames from its own backing pool: physical frame
    // identity never affects timing, and a private pool keeps a tenant's
    // layout independent of who else is scheduled.
    let mut memory = PhysicalMemory::new(&[NodeSpec::new(node, memory_capacity_bytes)]);
    let layers = DenseWorkload::new(workload).layers(batch);
    let seg_opts = SegmentOptions::new(node, page_size);
    let mut fetches = Vec::new();
    for (layer_index, layer) in layers.iter().enumerate() {
        let plan = TilingPlan::for_layer(layer, npu)?;
        let ia_seg = space.alloc_segment(
            format!("l{layer_index}_{}_ia", layer.name()),
            plan.ia_segment_bytes().max(1),
            seg_opts,
            &mut memory,
        )?;
        let w_seg = space.alloc_segment(
            format!("l{layer_index}_{}_w", layer.name()),
            plan.w_segment_bytes().max(1),
            seg_opts,
            &mut memory,
        )?;
        for tile in plan.tiles() {
            if let Some(fetch) = tile.ia_fetch {
                fetches.push((ia_seg.start().raw(), fetch));
            }
            if let Some(fetch) = tile.w_fetch {
                fetches.push((w_seg.start().raw(), fetch));
            }
        }
    }
    Ok(fetches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{ServingConfig, ServingSimulator};
    use neummu_mmu::MmuConfig;
    use neummu_vmem::{AddressSpace, PageSize, VirtAddr};

    fn smoke_tenants(n: usize) -> Vec<TenantSpec> {
        let mix = [WorkloadId::Cnn1, WorkloadId::Rnn2];
        (0..n).map(|i| TenantSpec::new(mix[i % 2], 1)).collect()
    }

    fn run(config: ServingConfig, tenants: &[TenantSpec]) -> MultiTenantResult {
        ServingSimulator::new(config)
            .run_to_completion(tenants)
            .unwrap()
    }

    #[test]
    fn empty_zero_burst_and_oracle_configs_are_rejected() {
        let neummu = ServingSimulator::new(ServingConfig::with_mmu(MmuConfig::neummu()));
        assert!(matches!(
            neummu.run_to_completion(&[]),
            Err(SimError::InvalidConfig { .. })
        ));
        let zero_burst =
            ServingSimulator::new(ServingConfig::with_mmu(MmuConfig::neummu()).with_burst(0));
        assert!(matches!(
            zero_burst.run_to_completion(&smoke_tenants(1)),
            Err(SimError::InvalidConfig { .. })
        ));
        let oracle = ServingSimulator::new(ServingConfig::with_mmu(MmuConfig::oracle()));
        assert!(matches!(
            oracle.run_to_completion(&smoke_tenants(1)),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn contention_slows_tenants_down() {
        let config = ServingConfig::with_mmu(MmuConfig::neummu());
        let tenants = smoke_tenants(2);
        let shared = run(config.clone(), &tenants);
        let solo: Vec<TenantStats> = tenants
            .iter()
            .map(|&spec| run(config.clone(), &[spec]).stats[0])
            .collect();
        for (s, i) in shared.stats.iter().zip(&solo) {
            assert_eq!(s.requests, i.requests, "same stream either way");
            assert!(
                s.completion_cycle >= i.completion_cycle,
                "sharing cannot speed a tenant up: {} vs {}",
                s.completion_cycle,
                i.completion_cycle
            );
        }
        assert!(
            shared.makespan_cycles > solo.iter().map(|s| s.completion_cycle).max().unwrap() / 2,
            "two interleaved tenants cannot be faster than half a solo tenant"
        );
    }

    #[test]
    fn partially_replayed_clipped_runs_lose_no_transactions() {
        // Regression: a run clipped by the burst quantum whose prefix the
        // engine then only partially replays (here a 1-slot PRMB exhausts
        // after the first merge) must resume from the rejoined remainder —
        // not overwrite it. Per-tenant request totals are invariant under
        // the burst quantum: burst 1 clips every run to a single
        // transaction, so it can never hit the partial-replay path and
        // serves as the reference stream length.
        let tenants = smoke_tenants(2);
        let mmu = MmuConfig::neummu().with_ptws(2).with_prmb_slots(1);
        let reference = run(ServingConfig::with_mmu(mmu).with_burst(1), &tenants);
        for burst in [3u64, 5, 64] {
            let clipped = run(ServingConfig::with_mmu(mmu).with_burst(burst), &tenants);
            for (tenant, (c, r)) in clipped.stats.iter().zip(&reference.stats).enumerate() {
                assert_eq!(
                    c.requests, r.requests,
                    "tenant {tenant} lost transactions at burst {burst}"
                );
                assert_eq!(c.tlb_hits + c.merged + c.walks, c.requests);
            }
        }
    }

    #[test]
    fn one_spec_maps_the_same_network_into_every_fresh_space() {
        // The serving turn loop maps each distinct (workload, batch) once and
        // lets every tenant of that spec read the one build. That is exact
        // only if two builds into fresh spaces agree: the same fetch list, and
        // the same probe and translation on every page a fetch's runs touch.
        let npu = NpuConfig::tpu_like();
        let node = MemNode::Npu(0);
        for page_size in [PageSize::Size4K, PageSize::Size2M] {
            let build = |name: &str| {
                let mut space = AddressSpace::new(name);
                let fetches = map_tenant_fetches(
                    &mut space,
                    WorkloadId::Cnn1,
                    2,
                    &npu,
                    node,
                    64 << 30,
                    page_size,
                )
                .unwrap();
                (space, fetches)
            };
            let (a, fetches_a) = build("tenant-a");
            let (b, fetches_b) = build("tenant-b");
            assert_eq!(fetches_a, fetches_b, "{page_size:?}: fetch lists");
            let dma = DmaEngine::new(npu.dma);
            let mut pages = 0u64;
            for &(base, fetch) in &fetches_a {
                for run in dma.page_runs(&fetch, base, page_size.bytes()) {
                    let va = VirtAddr::new(base + run.first.offset);
                    let probe = a.page_table().probe(va);
                    assert!(probe.is_hit(), "{page_size:?}: {va:?} is mapped");
                    assert_eq!(probe, b.page_table().probe(va), "{page_size:?}: {va:?}");
                    assert_eq!(a.translate(va), b.translate(va), "{page_size:?}: {va:?}");
                    pages += 1;
                }
            }
            assert!(pages > 0, "{page_size:?}: the fetches touch pages");
        }
    }

    #[test]
    fn walker_occupancy_shares_sum_to_one() {
        let result = run(
            ServingConfig::with_mmu(MmuConfig::neummu()),
            &smoke_tenants(2),
        );
        let shares = result.walker_occupancy_shares();
        assert_eq!(shares.len(), 2);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum}");
        assert!(result.tenant(Asid::new(0)).is_some());
        assert!(result.tenant(Asid::new(7)).is_none());
    }
}
