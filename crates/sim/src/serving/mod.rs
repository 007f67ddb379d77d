//! Multi-tenant serving on one shared translation front end.
//!
//! A closed-loop run ([`ServingSimulator::run_to_completion`]) runs every
//! tenant's stream to completion as fast as the hardware allows. A
//! datacenter does not get that luxury: requests arrive when users send them
//! ("heavy traffic from millions of users" — the ROADMAP's north star), queue
//! at the front end, and either meet their latency SLO or don't
//! ([`ServingSimulator::run`]). Both are one turn loop, built from three
//! orthogonal pieces plus the simulator that composes them:
//!
//! * [`arrivals`] — deterministic seeded arrival-time generators (Poisson,
//!   bursty, diurnal), one ChaCha8 stream per tenant;
//! * [`queue`] — bounded per-tenant admission queues with drop/defer
//!   overflow accounting and a conservation law the proptests lock;
//! * [`policy`] — pluggable tenant-scheduling policies (round-robin,
//!   weighted-fair, burst-quantum preemption, TLB-occupancy-aware
//!   throttling);
//! * [`histogram`] — exact integer latency histograms with non-interpolated
//!   nearest-rank percentiles (p50/p99/p99.9 — the SLO numbers).
//!
//! The [`ServingSimulator`] drives admitted requests through the **same**
//! tagged, run-coalesced translation path as every other simulator in this
//! repo (one shared [`TranslationEngine`], one shared DRAM bandwidth
//! server). Open loop, a request is a fixed-length slice of its tenant's
//! cyclic DMA tile-fetch stream — each inference re-touches the model's
//! operands at the same virtual addresses — so IOTLB reach, PRMB merging and
//! walker bandwidth shape the tail latencies exactly as they do the
//! closed-loop figures, where a tenant's one request is its whole stream.
//! Everything is deterministic: identical configs produce bit-identical
//! results on every thread count.
//!
//! [`TranslationEngine`]: neummu_mmu::TranslationEngine

pub mod arrivals;
pub mod histogram;
pub mod policy;
pub mod queue;

pub use arrivals::{derive_seed, ArrivalConfig, ArrivalShape};
pub use histogram::LatencyHistogram;
pub use policy::{PolicyState, ServingPolicy};
pub use queue::{AdmissionQueue, OverflowPolicy, QueueStats, Request};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::Serialize;

use neummu_mem::dram::{DramConfig, DramModel};
use neummu_mmu::{
    DeviceFaultConfig, FaultCounters, MmuConfig, MmuKind, ResilienceConfig, TranslationEngine,
};
use neummu_npu::{DmaEngine, NpuConfig};
use neummu_vmem::{AddressSpace, Asid, MemNode, PageTable};
use neummu_workloads::WorkloadId;

use crate::error::SimError;
use crate::memory_phase::run_step;
use crate::multi_tenant::{
    map_tenant_fetches, MultiTenantResult, TenantSpec, TenantStats, TenantStream,
};

/// One tenant of a serving run: a model, a scheduling weight and an arrival
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServingTenantSpec {
    /// The model the tenant serves.
    pub workload: WorkloadId,
    /// Batch size of one inference request.
    pub batch: u64,
    /// Weighted-fair scheduling weight (≥ 1; only read by
    /// [`ServingPolicy::WeightedFair`]).
    pub weight: u64,
    /// The tenant's arrival process.
    pub arrivals: ArrivalConfig,
}

impl ServingTenantSpec {
    /// Human-readable `workload/batch` label (figure notation).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/b{:02}", self.workload.label(), self.batch)
    }
}

/// Per-tenant circuit breaker: sheds load when a tenant's sojourn p99 blows
/// its SLO (fault storms, overload). The breaker watches tumbling windows of
/// `window_requests` completed requests; when a window's exact nearest-rank
/// p99 exceeds `sojourn_slo_p99_cycles`, the breaker *opens* for
/// `cooldown_cycles`: arrivals stamped inside the open interval are shed —
/// never offered to the admission queue — so the backlog drains instead of
/// compounding. Shed requests are counted per tenant in
/// [`TenantServingStats::shed`], outside the queue's own
/// offered/dropped/deferred accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CircuitBreakerConfig {
    /// The tenant's sojourn-latency SLO: windows whose exact p99 exceeds
    /// this open the breaker.
    pub sojourn_slo_p99_cycles: u64,
    /// Completed requests per tumbling evaluation window.
    pub window_requests: u64,
    /// Cycles the breaker stays open once tripped.
    pub cooldown_cycles: u64,
}

impl CircuitBreakerConfig {
    /// Rejects zero-impossible knobs (mirrors [`ArrivalConfig::validate`]).
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        let invalid = |reason: String| Err(SimError::InvalidConfig { reason });
        if self.sojourn_slo_p99_cycles == 0 {
            return invalid("circuit breaker SLO must be at least one cycle".to_string());
        }
        if self.window_requests == 0 {
            return invalid("circuit breaker window must cover at least one request".to_string());
        }
        if self.cooldown_cycles == 0 {
            return invalid("circuit breaker cooldown must be at least one cycle".to_string());
        }
        Ok(())
    }
}

/// Device-fault injection for a serving run: the seeded fault plan the
/// shared engine draws from, plus the resilience mechanisms that resolve
/// each injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServingFaults {
    /// Per-kind fault rates and the draw seed.
    pub device: DeviceFaultConfig,
    /// Which recovery mechanisms are armed.
    pub resilience: ResilienceConfig,
}

/// Configuration of an open-loop serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// MMU design point of the shared translation engine (must be
    /// cycle-accounted; [`MmuKind::Oracle`] is rejected).
    pub mmu: MmuConfig,
    /// NPU architecture parameters (tiling, DMA transaction size).
    pub npu: NpuConfig,
    /// Shared local memory system parameters.
    pub dram: DramConfig,
    /// Memory node the tenants' operands live on.
    pub node: MemNode,
    /// Backing capacity allocated to each tenant's operands.
    pub memory_capacity_bytes: u64,
    /// Service quantum: DMA transactions a tenant's request is granted before
    /// the policy re-picks.
    pub burst_transactions: u64,
    /// DMA transactions constituting one inference request (a fixed-length
    /// slice of the tenant's cyclic tile-fetch stream).
    pub txns_per_request: u64,
    /// Bounded admission-queue depth per tenant.
    pub queue_depth: usize,
    /// What a full queue does with a new arrival.
    pub overflow: OverflowPolicy,
    /// Tenant-scheduling policy.
    pub policy: ServingPolicy,
    /// Cycles between queue-depth timeline samples.
    pub queue_sample_interval: u64,
    /// Per-tenant circuit breaker (`None` disables shedding entirely; the
    /// run is then bit-identical to a pre-breaker build).
    pub breaker: Option<CircuitBreakerConfig>,
    /// Device-fault injection on the shared engine (`None`, the default,
    /// runs the perfect device).
    pub faults: Option<ServingFaults>,
}

impl ServingConfig {
    /// The paper's default setup (TPU-like NPU, Table I memory system) with
    /// the given MMU design point, round-robin scheduling, 64-transaction
    /// quanta, 128-transaction requests and depth-64 dropping queues.
    #[must_use]
    pub fn with_mmu(mmu: MmuConfig) -> Self {
        ServingConfig {
            mmu,
            npu: NpuConfig::tpu_like(),
            dram: DramConfig::table1(),
            node: MemNode::Npu(0),
            memory_capacity_bytes: 64 << 30,
            burst_transactions: 64,
            txns_per_request: 128,
            queue_depth: 64,
            overflow: OverflowPolicy::Drop,
            policy: ServingPolicy::RoundRobin,
            queue_sample_interval: 1 << 16,
            breaker: None,
            faults: None,
        }
    }

    /// Overrides the scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ServingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the service quantum.
    #[must_use]
    pub fn with_burst(mut self, burst_transactions: u64) -> Self {
        self.burst_transactions = burst_transactions;
        self
    }

    /// Overrides the request size in DMA transactions.
    #[must_use]
    pub fn with_txns_per_request(mut self, txns_per_request: u64) -> Self {
        self.txns_per_request = txns_per_request;
        self
    }

    /// Overrides the bounded queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Overrides the queue-depth sampling interval.
    #[must_use]
    pub fn with_sample_interval(mut self, queue_sample_interval: u64) -> Self {
        self.queue_sample_interval = queue_sample_interval;
        self
    }

    /// Arms the per-tenant circuit breaker.
    #[must_use]
    pub fn with_breaker(mut self, breaker: CircuitBreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Attaches device-fault injection to the shared engine.
    #[must_use]
    pub fn with_faults(mut self, device: DeviceFaultConfig, resilience: ResilienceConfig) -> Self {
        self.faults = Some(ServingFaults { device, resilience });
        self
    }
}

/// Per-tenant outcome of one serving run: translation counters, queue
/// accounting, exact latency histograms and the completion order.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantServingStats {
    /// Translation-path counters (the closed-loop runs report the same).
    pub translation: TenantStats,
    /// Admission-queue accounting.
    pub queue: QueueStats,
    /// Exact sojourn latency (arrival → last data byte) per completed
    /// request — the end-to-end SLO histogram.
    pub sojourn: LatencyHistogram,
    /// Exact translation-stall cycles per completed request (the accept-minus
    /// -issue stalls its transactions accumulated) — the MMU's share of the
    /// tail.
    pub stall: LatencyHistogram,
    /// Arrival sequence numbers in completion order (FIFO service must keep
    /// this strictly increasing — a proptest-locked invariant).
    pub completion_order: Vec<u64>,
    /// Arrivals shed by an open circuit breaker: consumed from the arrival
    /// sequence but never offered to the admission queue. Always zero
    /// without a breaker. Conservation:
    /// `generated arrivals == queue.offered + shed`.
    pub shed: u64,
    /// Times this tenant's breaker opened.
    pub breaker_trips: u64,
}

/// One sample of the queue-depth timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueueDepthSample {
    /// Sample cycle.
    pub cycle: u64,
    /// Requests waiting across all tenants (bounded queues + spillover).
    pub waiting_total: u64,
    /// Deepest single tenant's waiting count at the sample.
    pub waiting_max: u64,
}

/// The outcome of one open-loop serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingResult {
    /// Tenant specs, in ASID order.
    pub tenants: Vec<ServingTenantSpec>,
    /// Per-tenant outcomes, in ASID order.
    pub stats: Vec<TenantServingStats>,
    /// Queue-depth timeline (samples every
    /// [`ServingConfig::queue_sample_interval`] cycles while the run is
    /// busy).
    pub timeline: Vec<QueueDepthSample>,
    /// Cycle at which the last completed request's data arrived.
    pub makespan_cycles: u64,
    /// The engine's exact fault accounting, when fault injection was
    /// configured (`None` for the perfect device).
    pub fault_counters: Option<FaultCounters>,
}

impl ServingResult {
    /// Completed requests across all tenants.
    #[must_use]
    pub fn completed_requests(&self) -> u64 {
        self.stats.iter().map(|s| s.queue.completed).sum()
    }

    /// Offered requests across all tenants.
    #[must_use]
    pub fn offered_requests(&self) -> u64 {
        self.stats.iter().map(|s| s.queue.offered).sum()
    }

    /// Requests shed by open circuit breakers across all tenants.
    #[must_use]
    pub fn shed_requests(&self) -> u64 {
        self.stats.iter().map(|s| s.shed).sum()
    }

    /// Breaker trips across all tenants.
    #[must_use]
    pub fn breaker_trips(&self) -> u64 {
        self.stats.iter().map(|s| s.breaker_trips).sum()
    }

    /// Goodput: completed requests per million cycles of makespan.
    #[must_use]
    pub fn goodput_per_mcycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.completed_requests() as f64 * 1e6 / self.makespan_cycles as f64
    }
}

/// One tenant's live state during the run. `'n` borrows the mapped network
/// the tenant runs, which every tenant of the same spec shares.
struct TenantLane<'n> {
    page_table: &'n PageTable,
    stream: TenantStream<'n>,
    arrivals: Vec<u64>,
    next_arrival: usize,
    queue: AdmissionQueue,
    /// `(request, transactions left, latest data-ready cycle, stall cycles)`.
    in_service: Option<(Request, u64, u64, u64)>,
    /// Tumbling sojourn window the circuit breaker evaluates (unused — and
    /// never recorded into — without a breaker).
    breaker_window: LatencyHistogram,
    /// Cycle until which this tenant's breaker is open (0 = closed).
    breaker_open_until: u64,
    /// Arrivals shed by the open breaker.
    shed: u64,
    /// Times the breaker opened.
    breaker_trips: u64,
}

impl TenantLane<'_> {
    fn runnable(&self) -> bool {
        self.in_service.is_some() || self.queue.depth() > 0
    }

    /// Requests waiting or in service (the burst-quantum observable).
    fn depth(&self) -> u64 {
        self.queue.waiting() + u64::from(self.in_service.is_some())
    }

    /// Offers every arrival stamped at or before `now` and returns the cycle
    /// of the next one, if any. An open breaker sheds arrivals stamped inside
    /// its interval: consumed, never offered, so the backlog drains while the
    /// tenant's SLO recovers.
    fn admit_due(&mut self, now: u64) -> Option<u64> {
        let mut seq = self.queue.stats().offered;
        while let Some(&arrival_cycle) = self.arrivals.get(self.next_arrival) {
            if arrival_cycle > now {
                return Some(arrival_cycle);
            }
            self.next_arrival += 1;
            if arrival_cycle < self.breaker_open_until {
                self.shed += 1;
                continue;
            }
            self.queue.offer(Request { seq, arrival_cycle });
            seq += 1;
        }
        None
    }
}

/// The open-loop serving simulator: arrivals → admission queues → policy →
/// one shared run-coalesced translation engine.
#[derive(Debug, Clone)]
pub struct ServingSimulator {
    config: ServingConfig,
}

impl ServingSimulator {
    /// Creates a simulator with the given configuration.
    #[must_use]
    pub fn new(config: ServingConfig) -> Self {
        ServingSimulator { config }
    }

    /// The simulator's configuration.
    #[must_use]
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    fn validate(&self, tenant_count: usize) -> Result<(), SimError> {
        let config = &self.config;
        let invalid = |reason: String| Err(SimError::InvalidConfig { reason });
        if tenant_count == 0 {
            return invalid("a serving run needs at least one tenant".to_string());
        }
        if config.burst_transactions == 0 {
            return invalid("service quantum must be at least one transaction".to_string());
        }
        if config.txns_per_request == 0 {
            return invalid("a request must span at least one transaction".to_string());
        }
        if config.queue_depth == 0 {
            return invalid("admission queue depth must be at least 1".to_string());
        }
        if config.queue_sample_interval == 0 {
            return invalid("queue sample interval must be at least one cycle".to_string());
        }
        if config.mmu.kind == MmuKind::Oracle {
            return invalid(
                "the serving simulator models contention on a cycle-accounted engine; \
                 the oracular MMU has nothing to contend for"
                    .to_string(),
            );
        }
        config.npu.validate()?;
        if let Some(breaker) = &config.breaker {
            breaker.validate()?;
        }
        if let Some(faults) = &config.faults {
            let invalid_fault = |e: neummu_mmu::FaultError| SimError::InvalidConfig {
                reason: e.to_string(),
            };
            faults.device.validate().map_err(invalid_fault)?;
            faults.resilience.validate().map_err(invalid_fault)?;
        }
        Ok(())
    }

    /// Runs the open-loop serving simulation: generates every tenant's
    /// arrival sequence, admits arrivals through the bounded queues, lets the
    /// policy hand out service quanta on the shared engine, and drains the
    /// queues after the last arrival. Deterministic: the result is a pure
    /// function of the configuration and tenant specs.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] for an empty tenant list, zero
    ///   quantum/request/queue/sampling parameters, an oracular MMU, or an
    ///   invalid arrival config (NaN or non-positive rates are rejected here
    ///   rather than looping forever).
    /// * Propagates tiling and mapping errors.
    pub fn run(&self, tenants: &[ServingTenantSpec]) -> Result<ServingResult, SimError> {
        self.validate(tenants.len())?;
        let mut lanes = Vec::with_capacity(tenants.len());
        for spec in tenants {
            lanes.push((
                TenantSpec::new(spec.workload, spec.batch),
                spec.arrivals.generate()?,
            ));
        }
        let weights: Vec<u64> = tenants.iter().map(|t| t.weight).collect();
        let mut result = self.turn_loop(lanes, &weights, false)?;
        result.tenants = tenants.to_vec();
        Ok(result)
    }

    /// Runs a tenant mix to completion, closed loop: every tenant has one
    /// request, arriving at cycle 0 and lasting until the tenant's tile-fetch
    /// stream runs dry. The turns are the ones [`ServingSimulator::run`]
    /// grants: quanta of [`ServingConfig::burst_transactions`] picked by the
    /// configured policy, on one shared engine and one shared DRAM. Tenant
    /// `i` gets ASID `i`, and each granted quantum is one `tenant/turn` trace
    /// span.
    ///
    /// A mix of one tenant is that tenant's contention-free baseline. The
    /// request size, queue and sampling fields of the configuration do not
    /// shape a closed-loop run.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] for an empty tenant list, zero
    ///   quantum/request/queue/sampling parameters or an oracular MMU.
    /// * Propagates tiling and mapping errors.
    pub fn run_to_completion(&self, tenants: &[TenantSpec]) -> Result<MultiTenantResult, SimError> {
        self.validate(tenants.len())?;
        let lanes = tenants.iter().map(|&spec| (spec, vec![0])).collect();
        let result = self.turn_loop(lanes, &[], true)?;
        Ok(MultiTenantResult {
            tenants: tenants.to_vec(),
            stats: result.stats.into_iter().map(|s| s.translation).collect(),
            makespan_cycles: result.makespan_cycles,
        })
    }

    /// The one turn loop behind both entry points. `tenants` holds each
    /// tenant's spec and arrival cycles (ASID order). Open loop, a request is
    /// [`ServingConfig::txns_per_request`] transactions of the tenant's
    /// cyclic stream; `closed_loop`, a request lasts until the non-cyclic
    /// stream runs dry, and no queue-depth timeline is sampled. The result's
    /// `tenants` is left for the caller.
    #[allow(clippy::too_many_lines)]
    fn turn_loop(
        &self,
        tenants: Vec<(TenantSpec, Vec<u64>)>,
        weights: &[u64],
        closed_loop: bool,
    ) -> Result<ServingResult, SimError> {
        use neummu_mmu::AddressTranslator as _;
        let config = &self.config;
        let tenant_count = tenants.len();
        let txns_per_request = if closed_loop {
            u64::MAX
        } else {
            config.txns_per_request
        };

        // One mapped network per distinct spec. A mapping draws from its own
        // fresh backing pool and lays segments out from a fixed base, so
        // every tenant of one spec would map the very same space: each reads
        // the one build, under its own ASID.
        let mut networks: Vec<(TenantSpec, AddressSpace, _)> = Vec::new();
        for (spec, _) in &tenants {
            if networks.iter().any(|(built, ..)| built == spec) {
                continue;
            }
            let mut space = AddressSpace::new(format!("tenant-{}", spec.label()));
            let fetches = map_tenant_fetches(
                &mut space,
                spec.workload,
                spec.batch,
                &config.npu,
                config.node,
                config.memory_capacity_bytes,
                config.mmu.page_size,
            )?;
            networks.push((*spec, space, fetches));
        }

        // Per-tenant fetch streams, arrival sequences and admission queues.
        let mut lanes = Vec::with_capacity(tenant_count);
        let mut stats = Vec::with_capacity(tenant_count);
        for (tenant, (spec, arrivals)) in tenants.into_iter().enumerate() {
            let asid = Asid::new(u16::try_from(tenant).expect("ASID space exhausted"));
            let (_, space, fetches) = networks
                .iter()
                .find(|(built, ..)| *built == spec)
                .expect("every spec was built above");
            lanes.push(TenantLane {
                page_table: space.page_table(),
                stream: TenantStream::new(DmaEngine::new(config.npu.dma), fetches, !closed_loop),
                arrivals,
                next_arrival: 0,
                queue: AdmissionQueue::new(config.queue_depth, config.overflow),
                in_service: None,
                breaker_window: LatencyHistogram::new(),
                breaker_open_until: 0,
                shed: 0,
                breaker_trips: 0,
            });
            stats.push(TenantServingStats {
                translation: TenantStats::new(asid),
                queue: QueueStats::default(),
                sojourn: LatencyHistogram::new(),
                stall: LatencyHistogram::new(),
                completion_order: Vec::new(),
                shed: 0,
                breaker_trips: 0,
            });
        }

        let mut engine = match &config.faults {
            None => TranslationEngine::new(config.mmu),
            Some(faults) => {
                TranslationEngine::with_faults(config.mmu, faults.device, faults.resilience)
                    .expect("fault configs were validated above")
            }
        };
        let mut dram = DramModel::new(config.dram);
        let tlb_capacity = engine.tlb().capacity() as u64;
        let page_bytes = config.mmu.page_size.bytes();
        let mut policy_state = PolicyState::new(config.policy, tenant_count, weights);
        let mut depths = vec![0u64; tenant_count];
        let mut occupancies = vec![0u64; tenant_count];
        let mut runnable = vec![false; tenant_count];
        let mut runnable_count = 0usize;
        // `(next arrival cycle, tenant)` of every lane with arrivals left.
        let mut due: BinaryHeap<Reverse<(u64, usize)>> = lanes
            .iter()
            .enumerate()
            .filter_map(|(tenant, lane)| Some(Reverse((*lane.arrivals.first()?, tenant))))
            .collect();
        let mut timeline = Vec::new();
        // One trace span per granted quantum: `serving/turn` open loop,
        // `tenant/turn` closed loop.
        let span = if closed_loop {
            "tenant/turn"
        } else {
            "serving/turn"
        };
        let turn_trace = neummu_trace::global().map(|sink| (sink, sink.kind(span)));

        let mut now = 0u64;
        let mut next_sample = 0u64;
        loop {
            // Admit every arrival at or before the current cycle, visiting
            // only the lanes with one due. A tenant waking from idle catches
            // its WFQ virtual service up to the global virtual time (no
            // retroactive credit for idling); only `pick` moves that time, so
            // the order of the lanes woken here does not matter.
            while let Some(&Reverse((cycle, tenant))) = due.peek() {
                if cycle > now {
                    break;
                }
                due.pop();
                let lane = &mut lanes[tenant];
                if let Some(next) = lane.admit_due(now) {
                    due.push(Reverse((next, tenant)));
                }
                if !runnable[tenant] && lane.runnable() {
                    runnable[tenant] = true;
                    runnable_count += 1;
                    policy_state.note_backlogged(tenant);
                }
                depths[tenant] = lane.depth();
            }

            // Queue-depth timeline sample (the closed loop reports none).
            if !closed_loop && now >= next_sample {
                let mut waiting_total = 0u64;
                let mut waiting_max = 0u64;
                for lane in &lanes {
                    let waiting = lane.queue.waiting();
                    waiting_total += waiting;
                    waiting_max = waiting_max.max(waiting);
                }
                timeline.push(QueueDepthSample {
                    cycle: now,
                    waiting_total,
                    waiting_max,
                });
                next_sample = now + config.queue_sample_interval;
            }

            // Find someone to serve, or jump the clock to the next arrival,
            // or finish.
            if runnable_count == 0 {
                let Some(&Reverse((next, _))) = due.peek() else {
                    break; // All arrivals offered, all queues drained: done.
                };
                now = next;
                continue;
            }
            if config.policy.needs_occupancy() {
                for (tenant, occupancy) in occupancies.iter_mut().enumerate() {
                    *occupancy = engine.tlb().occupancy_of(stats[tenant].translation.asid) as u64;
                }
            }
            let tenant = policy_state
                .pick(&runnable, &depths, &occupancies, tlb_capacity)
                .expect("a runnable tenant exists");

            // Serve one quantum of the tenant's head request.
            let lane = &mut lanes[tenant];
            let tenant_stats = &mut stats[tenant];
            let asid = tenant_stats.translation.asid;
            if lane.in_service.is_none() {
                let request = lane.queue.pop_for_service().expect("runnable tenant");
                lane.in_service = Some((request, txns_per_request, 0, 0));
            }
            let turn_start = now;
            let before = *engine.stats();
            let (_, txns_left, _, _) = lane.in_service.expect("set above");
            let mut quota = config.burst_transactions.min(txns_left);
            let granted = quota;
            while quota > 0 {
                // Only a closed-loop stream runs dry: that ends its request.
                let Some((base, run)) = lane.stream.next_run(quota, page_bytes) else {
                    lane.in_service.as_mut().expect("in service").1 = 0;
                    break;
                };
                let (out, data_ready) = run_step(
                    &mut engine,
                    &mut dram,
                    lane.page_table,
                    asid,
                    base,
                    run,
                    &mut now,
                );
                let (_, txns_left, ready_max, _) = lane.in_service.as_mut().expect("in service");
                *txns_left -= out.consumed;
                *ready_max = (*ready_max).max(data_ready);
                quota -= out.consumed;
                if out.consumed < run.txn_count {
                    lane.stream.push_back(base, run.suffix(out.consumed));
                }
            }
            // The engine counted the turn's events: the tenant takes their
            // difference, and its head request the turn's stall cycles.
            lane.in_service.as_mut().expect("in service").3 +=
                engine.stats().stall_cycles - before.stall_cycles;
            let (request, txns_left, ready_max, stall) = lane.in_service.expect("in service");
            let translation = &mut tenant_stats.translation;
            translation.add_turn(&before, engine.stats());
            translation.completion_cycle = translation.completion_cycle.max(ready_max);
            if txns_left == 0 {
                lane.in_service = None;
                lane.queue.complete();
                let sojourn = ready_max.saturating_sub(request.arrival_cycle);
                tenant_stats.sojourn.record(sojourn);
                tenant_stats.stall.record(stall);
                tenant_stats.completion_order.push(request.seq);
                tenant_stats.translation.final_tlb_occupancy =
                    engine.tlb().occupancy_of(asid) as u64;
                if let Some(breaker) = &config.breaker {
                    lane.breaker_window.record(sojourn);
                    if lane.breaker_window.total() >= breaker.window_requests {
                        let p99 = lane.breaker_window.p99().expect("non-empty window");
                        if p99 > breaker.sojourn_slo_p99_cycles {
                            lane.breaker_open_until = now + breaker.cooldown_cycles;
                            lane.breaker_trips += 1;
                        }
                        lane.breaker_window = LatencyHistogram::new();
                    }
                }
            }
            if !lane.runnable() {
                runnable[tenant] = false;
                runnable_count -= 1;
            }
            depths[tenant] = lane.depth();
            policy_state.charge(tenant, granted - quota);
            if let Some((sink, kind)) = turn_trace {
                let consumed = granted - quota;
                if consumed > 0 {
                    sink.emit(neummu_trace::Event {
                        kind,
                        asid: asid.raw(),
                        start: turn_start,
                        end: now,
                        payload: consumed,
                    });
                }
            }
        }

        // The tenants' counts are the engine's, differenced around each turn:
        // they sum to its totals when every request lies in some turn.
        debug_assert_eq!(
            stats.iter().map(|s| s.translation.requests).sum::<u64>(),
            engine.stats().requests,
            "a translation request fell outside every tenant's turn"
        );

        // Final bookkeeping: queue counters.
        for (lane, tenant_stats) in lanes.iter().zip(&mut stats) {
            tenant_stats.queue = lane.queue.stats();
            tenant_stats.shed = lane.shed;
            tenant_stats.breaker_trips = lane.breaker_trips;
        }
        let makespan_cycles = stats
            .iter()
            .map(|s| s.translation.completion_cycle)
            .max()
            .unwrap_or(0);
        Ok(ServingResult {
            tenants: Vec::new(),
            stats,
            timeline,
            makespan_cycles,
            fault_counters: engine.fault_counters().cloned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(workload: WorkloadId, horizon_cycles: u64, seed: u64) -> ServingTenantSpec {
        ServingTenantSpec {
            workload,
            batch: 1,
            weight: 1,
            arrivals: ArrivalConfig {
                shape: ArrivalShape::Poisson,
                rate_per_mcycle: 20.0,
                horizon_cycles,
                seed,
            },
        }
    }

    #[test]
    fn final_tlb_occupancy_is_taken_when_the_tenant_finishes() {
        // The short tenant's last request completes long before the run
        // ends; the long tenant keeps filling the shared IOTLB afterwards.
        // Cutting the long tenant's arrivals at the short tenant's finish
        // leaves everything up to that finish unchanged, so the short
        // tenant's counters (its final IOTLB occupancy included) must agree.
        let simulator = ServingSimulator::new(ServingConfig::with_mmu(
            MmuConfig::neummu().with_tlb_entries(128),
        ));
        let short = tenant(WorkloadId::Cnn1, 200_000, 1);
        let full = simulator
            .run(&[short, tenant(WorkloadId::Rnn2, 2_000_000, 2)])
            .unwrap();
        let finish = full.stats[0].translation.completion_cycle;
        assert!(
            finish < full.makespan_cycles / 2,
            "the long tenant outlives the short one"
        );
        let cut = simulator
            .run(&[short, tenant(WorkloadId::Rnn2, finish, 2)])
            .unwrap();
        assert!(full.stats[0].translation.final_tlb_occupancy > 0);
        assert_eq!(full.stats[0], cut.stats[0]);
    }
}
