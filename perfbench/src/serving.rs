//! `serving_multitenant`: 32 heterogeneous tenants sharing one NeuMMU
//! engine over a 2M-cycle open-loop horizon, for every scheduling policy at
//! offered loads 1.0 and 2.0.

use neummu_mmu::MmuConfig;
use neummu_sim::{
    ArrivalConfig, ArrivalShape, LatencyHistogram, ServingConfig, ServingPolicy, ServingSimulator,
    ServingTenantSpec, SimError,
};
use neummu_vmem::{AddressSpace, NodeSpec, PhysicalMemory, SegmentOptions};
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::check::{Expect, Tally};
use crate::replay::{self, Ledger, Span};
use crate::Rng;

const TENANTS: usize = 32;
const HORIZON_CYCLES: u64 = 2_000_000;
/// Offered loads as fractions of the front end's one-transaction-per-cycle
/// capacity: saturation, and a 2× overload that overflows the queues.
pub const LOADS: [(&str, f64); 2] = [("load1", 1.0), ("load2", 2.0)];

/// Serving runs per pass: every policy at every load.
pub const POINTS: usize = 4 * LOADS.len();

fn policies() -> [(&'static str, ServingPolicy); 4] {
    [
        ("rr", ServingPolicy::RoundRobin),
        ("wfq", ServingPolicy::WeightedFair),
        ("burst", ServingPolicy::BurstQuantum),
        // 32 tenants share the IOTLB (a fair share is ~3%); cap hogs at 8%.
        (
            "tlb",
            ServingPolicy::TlbAware {
                occupancy_cap_pct: 8,
            },
        ),
    ]
}

fn config(policy: ServingPolicy) -> ServingConfig {
    ServingConfig::with_mmu(MmuConfig::neummu()).with_policy(policy)
}

/// The generated inputs: one tenant population per offered load.
pub struct Inputs {
    populations: Vec<(&'static str, Vec<ServingTenantSpec>)>,
}

/// The tenant population at `load`: networks cycle the dense suite at batch
/// 1, arrival shapes cycle Poisson → bursty → diurnal, weights cycle 1..=4,
/// and each tenant's arrival seed is drawn from the benchmark seed.
fn population(load: f64, seed: u64, txns_per_request: u64) -> Vec<ServingTenantSpec> {
    let mut rng = Rng::new(seed);
    let rate_per_mcycle = load * 1e6 / (TENANTS as f64 * txns_per_request as f64);
    (0..TENANTS)
        .map(|index| {
            let shape = match index % 3 {
                0 => ArrivalShape::Poisson,
                1 => ArrivalShape::Bursty {
                    mean_burst_arrivals: 8.0,
                    duty_fraction: 0.25,
                },
                _ => ArrivalShape::Diurnal {
                    period_cycles: HORIZON_CYCLES / 4,
                    trough_fraction: 0.3,
                },
            };
            ServingTenantSpec {
                workload: WorkloadId::ALL[index % WorkloadId::ALL.len()],
                batch: 1,
                weight: 1 + (index as u64) % 4,
                arrivals: ArrivalConfig {
                    shape,
                    rate_per_mcycle,
                    horizon_cycles: HORIZON_CYCLES,
                    seed: rng.next_u64(),
                },
            }
        })
        .collect()
}

/// Generates the tenant populations and performs the simulator's own
/// set-up work once: every tenant's operands tiled and mapped with eager
/// 4 KB pages into a private address space, and every tenant's arrival
/// sequence generated.
pub fn setup(seed: u64, ledger: &mut Ledger) -> Result<Inputs, SimError> {
    let txns_per_request = config(ServingPolicy::RoundRobin).txns_per_request;
    let populations: Vec<_> = LOADS
        .iter()
        .map(|&(label, load)| {
            (
                label,
                population(load, seed ^ load.to_bits(), txns_per_request),
            )
        })
        .collect();
    let base = config(ServingPolicy::RoundRobin);
    let seg_opts = SegmentOptions::new(base.node, base.mmu.page_size);
    for spec in &populations[0].1 {
        let mut memory =
            PhysicalMemory::new(&[NodeSpec::new(base.node, base.memory_capacity_bytes)]);
        let mut space = AddressSpace::new(spec.label());
        let layers = DenseWorkload::new(spec.workload).layers(spec.batch);
        for (index, layer) in layers.iter().enumerate() {
            replay::map_layer(
                &mut space,
                &mut memory,
                index,
                layer,
                &base.npu,
                seg_opts,
                ledger,
            )?;
        }
    }
    for (_, tenants) in &populations {
        for spec in tenants {
            ledger.start();
            let generated = spec.arrivals.generate()?;
            ledger.lap(Span::Arrivals);
            std::hint::black_box(generated);
        }
    }
    Ok(Inputs { populations })
}

/// Serving-layer outcomes of one pass.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Translation counters summed over tenants and points.
    pub requests: u64,
    pub tlb_hits: u64,
    pub merged: u64,
    pub walks: u64,
    pub walk_levels_read: u64,
    pub stall_cycles: u64,
    pub offered: u64,
    pub dropped: u64,
    pub completed: u64,
    pub makespan_cycles: u64,
    /// Sojourn and per-request stall histograms pooled over every tenant of
    /// every point.
    pub sojourn: LatencyHistogram,
    pub stall: LatencyHistogram,
}

/// Runs every policy at every load once.
pub fn pass(inputs: &Inputs, expect: &Expect, counters: &mut Counters) -> Tally {
    let mut tally = Tally::default();
    for (load, tenants) in &inputs.populations {
        for (label, policy) in policies() {
            let key = format!("{label}/{load}");
            let sim = ServingSimulator::new(config(policy));
            match tally.timed(|| sim.run(tenants)) {
                Ok(r) => {
                    let mut identities = Vec::new();
                    for s in &r.stats {
                        let t = &s.translation;
                        identities.push((
                            "requests==tlb_hits+merged+walks",
                            t.requests == t.tlb_hits + t.merged + t.walks,
                        ));
                        identities.push((
                            "offered==completed+dropped",
                            s.queue.offered == s.queue.completed + s.queue.dropped,
                        ));
                        counters.requests += t.requests;
                        counters.tlb_hits += t.tlb_hits;
                        counters.merged += t.merged;
                        counters.walks += t.walks;
                        counters.walk_levels_read += t.walk_levels_read;
                        counters.stall_cycles += t.stall_cycles;
                        for (value, count) in s.sojourn.iter() {
                            counters.sojourn.record_n(value, count);
                        }
                        for (value, count) in s.stall.iter() {
                            counters.stall.record_n(value, count);
                        }
                        tally.requests += t.requests;
                    }
                    let offered = r.offered_requests();
                    let completed = r.completed_requests();
                    let dropped: u64 = r.stats.iter().map(|s| s.queue.dropped).sum();
                    counters.offered += offered;
                    counters.completed += completed;
                    counters.dropped += dropped;
                    counters.makespan_cycles += r.makespan_cycles;
                    tally.model_cycles += r.makespan_cycles;
                    tally.op(
                        expect,
                        &key,
                        &[
                            ("completed", completed),
                            ("dropped", dropped),
                            ("makespan", r.makespan_cycles),
                        ],
                        &identities,
                    );
                }
                Err(e) => tally.error(&key, &e),
            }
        }
    }
    tally.norm_perf = if counters.offered == 0 {
        0.0
    } else {
        counters.completed as f64 / counters.offered as f64
    };
    tally
}

/// Replays each distinct tenant network solo through the dense pipeline on
/// the serving MMU, giving the per-request host cost of the translation,
/// DMA and DRAM calls on this workload's address streams. Returns the
/// number of replays that disagreed with `DenseSimulator`.
pub fn replay_tenants(ledger: &mut Ledger) -> u64 {
    let config = neummu_sim::DenseSimConfig::with_mmu(MmuConfig::neummu());
    let mut mismatches = 0;
    // The simulator runs are the reference, not part of the replay: keep
    // them outside the span clocks.
    for workload in WorkloadId::ALL {
        let layers = DenseWorkload::new(workload).layers(1);
        let expected = neummu_sim::DenseSimulator::new(config)
            .simulate_workload(&layers)
            .map(|r| r.total_cycles);
        if replay::dense(&config, &layers, ledger).ok() != expected.ok() {
            mismatches += 1;
        }
    }
    mismatches
}

/// Every layer of every distinct tenant network, for the page-table probe
/// sweep.
pub fn tenant_layers() -> Vec<neummu_npu::Layer> {
    WorkloadId::ALL
        .iter()
        .flat_map(|&w| DenseWorkload::new(w).layers(1))
        .collect()
}
