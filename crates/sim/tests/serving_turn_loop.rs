//! Exact outcomes of the serving turn loop, pinned value for value.
//!
//! The proptests in `serving_policies.rs` lock the loop's invariants; these
//! tests lock its *numbers*. Each case runs one small configuration and
//! compares the whole result — every counter, histogram, completion order
//! and timeline sample — against a recorded fingerprint (FNV-1a over the
//! result's `Debug` text), plus a few headline counts that say at a glance
//! what moved when a fingerprint breaks.
//!
//! The cases cover the turn loop's corners: arrivals that land on the same
//! cycle for several tenants, idle gaps the clock jumps across, circuit
//! breakers that shed arrivals, deferred overflow, an armed device-fault
//! plan, and every policy over a mix that repeats networks (tenants that
//! share one mapped network).

use std::fmt::Debug;

use neummu_mmu::{DeviceFaultConfig, FaultKind, FaultRate, MmuConfig, ResilienceConfig};
use neummu_sim::serving::{
    derive_seed, ArrivalConfig, ArrivalShape, CircuitBreakerConfig, OverflowPolicy, ServingConfig,
    ServingPolicy, ServingResult, ServingSimulator, ServingTenantSpec,
};
use neummu_sim::TenantSpec;
use neummu_workloads::WorkloadId;

const POLICIES: [ServingPolicy; 4] = [
    ServingPolicy::RoundRobin,
    ServingPolicy::WeightedFair,
    ServingPolicy::BurstQuantum,
    ServingPolicy::TlbAware {
        occupancy_cap_pct: 25,
    },
];

/// FNV-1a over the value's `Debug` text: a compact stand-in for the whole
/// value.
fn fingerprint(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Headline counts of an open-loop run, in the order
/// `(makespan, offered, completed, dropped, deferred, shed, breaker trips,
/// timeline samples)`.
fn headline(result: &ServingResult) -> [u64; 8] {
    let sum = |f: fn(&neummu_sim::serving::QueueStats) -> u64| {
        result.stats.iter().map(|s| f(&s.queue)).sum::<u64>()
    };
    [
        result.makespan_cycles,
        result.offered_requests(),
        result.completed_requests(),
        sum(|q| q.dropped),
        sum(|q| q.deferred),
        result.shed_requests(),
        result.breaker_trips(),
        result.timeline.len() as u64,
    ]
}

fn assert_pinned(label: &str, result: &ServingResult, expected: ([u64; 8], u64)) {
    assert_eq!(headline(result), expected.0, "{label}: headline counts");
    assert_eq!(fingerprint(result), expected.1, "{label}: whole result");
}

fn tenant(workload: WorkloadId, weight: u64, arrivals: ArrivalConfig) -> ServingTenantSpec {
    ServingTenantSpec {
        workload,
        batch: 1,
        weight,
        arrivals,
    }
}

/// Five tenants over three networks (CNN-1 three times), three arrival
/// shapes and weights 1..=3, offered near the front end's capacity.
fn repeated_network_mix(horizon: u64, seed: u64) -> Vec<ServingTenantSpec> {
    let workloads = [
        WorkloadId::Cnn1,
        WorkloadId::Rnn2,
        WorkloadId::Cnn1,
        WorkloadId::Rnn1,
        WorkloadId::Cnn1,
    ];
    workloads
        .iter()
        .enumerate()
        .map(|(i, &workload)| {
            let shape = match i % 3 {
                0 => ArrivalShape::Poisson,
                1 => ArrivalShape::Bursty {
                    mean_burst_arrivals: 4.0,
                    duty_fraction: 0.25,
                },
                _ => ArrivalShape::Diurnal {
                    period_cycles: horizon / 2,
                    trough_fraction: 0.3,
                },
            };
            tenant(
                workload,
                1 + i as u64 % 3,
                ArrivalConfig {
                    shape,
                    rate_per_mcycle: 6_000.0,
                    horizon_cycles: horizon,
                    seed: derive_seed(seed, i as u64),
                },
            )
        })
        .collect()
}

fn config(policy: ServingPolicy) -> ServingConfig {
    ServingConfig::with_mmu(MmuConfig::neummu().with_tlb_entries(256))
        .with_policy(policy)
        .with_txns_per_request(32)
        .with_queue_depth(4)
        .with_sample_interval(1 << 14)
}

fn run(config: ServingConfig, tenants: &[ServingTenantSpec]) -> ServingResult {
    ServingSimulator::new(config).run(tenants).unwrap()
}

#[test]
fn every_policy_over_a_mix_that_repeats_networks() {
    let tenants = repeated_network_mix(120_000, 7);
    let expected: [([u64; 8], u64); 4] = [
        (
            [120_482, 3470, 3263, 207, 0, 0, 0, 8],
            0x0c24_1d34_0f15_150b,
        ),
        (
            [120_482, 3470, 3282, 188, 0, 0, 0, 8],
            0x5d33_2047_ffb3_f46b,
        ),
        ([120_482, 3470, 3382, 88, 0, 0, 0, 8], 0x001b_19a0_e497_0168),
        (
            [120_482, 3470, 3257, 213, 0, 0, 0, 8],
            0xfff1_6b7c_16ca_5a76,
        ),
    ];
    for (policy, expected) in POLICIES.into_iter().zip(expected) {
        let result = run(config(policy), &tenants);
        assert_pinned(policy.label(), &result, expected);
    }
}

#[test]
fn same_cycle_arrivals_and_idle_gaps() {
    // Tenants 0 and 2 draw the same arrival sequence, so every one of their
    // arrivals lands on the same cycle; at 20 requests per million cycles
    // the front end drains between arrivals and the clock jumps the gaps.
    let poisson = |seed| ArrivalConfig {
        shape: ArrivalShape::Poisson,
        rate_per_mcycle: 20.0,
        horizon_cycles: 600_000,
        seed,
    };
    let sparse = poisson(11);
    let tenants = [
        tenant(WorkloadId::Cnn1, 1, sparse),
        tenant(WorkloadId::Rnn2, 1, poisson(12)),
        tenant(WorkloadId::Cnn1, 1, sparse),
    ];
    let expected: [([u64; 8], u64); 4] = [
        ([591_615, 32, 32, 0, 0, 0, 0, 16], 0xd685_8fc5_15f4_2720),
        ([591_615, 32, 32, 0, 0, 0, 0, 16], 0x57bd_8f46_2eaf_56b4),
        ([591_615, 32, 32, 0, 0, 0, 0, 16], 0x57bd_8f46_2eaf_56b4),
        ([591_615, 32, 32, 0, 0, 0, 0, 16], 0xd685_8fc5_15f4_2720),
    ];
    for (policy, expected) in POLICIES.into_iter().zip(expected) {
        let result = run(config(policy), &tenants);
        assert_pinned(policy.label(), &result, expected);
    }
}

#[test]
fn breakers_shed_arrivals_under_overload() {
    let tenants = repeated_network_mix(120_000, 3)
        .into_iter()
        .map(|mut spec| {
            spec.arrivals.rate_per_mcycle *= 2.0;
            spec
        })
        .collect::<Vec<_>>();
    let breaker = CircuitBreakerConfig {
        sojourn_slo_p99_cycles: 400,
        window_requests: 4,
        cooldown_cycles: 2_000,
    };
    let result = run(
        config(ServingPolicy::RoundRobin).with_breaker(breaker),
        &tenants,
    );
    assert!(result.shed_requests() > 0, "the breakers shed load");
    assert_pinned(
        "breaker",
        &result,
        (
            [120_309, 1756, 1672, 84, 0, 5078, 210, 8],
            0xf644_0a08_5fc4_87ff,
        ),
    );
}

#[test]
fn deferred_overflow_drains_past_the_horizon() {
    let tenants = repeated_network_mix(80_000, 5)
        .into_iter()
        .map(|mut spec| {
            spec.arrivals.rate_per_mcycle *= 2.0;
            spec
        })
        .collect::<Vec<_>>();
    for (policy, expected) in [
        (
            ServingPolicy::WeightedFair,
            (
                [149_466, 4655, 4655, 0, 4596, 0, 0, 10],
                0x8349_7b4c_8a8f_0a43,
            ),
        ),
        (
            ServingPolicy::BurstQuantum,
            (
                [149_466, 4655, 4655, 0, 4614, 0, 0, 10],
                0xfbe9_4d29_976f_41ef,
            ),
        ),
    ] {
        let result = run(
            ServingConfig {
                overflow: OverflowPolicy::Defer,
                ..config(policy)
            },
            &tenants,
        );
        let deferred: u64 = result.stats.iter().map(|s| s.queue.deferred).sum();
        assert!(deferred > 0, "{}: the queues overflow", policy.label());
        assert_pinned(policy.label(), &result, expected);
    }
}

#[test]
fn faulted_run_with_retried_and_hung_walks() {
    // Every fault kind at 5% (walker-stuck in bursts of two) with only retry
    // armed: timed-out and transient walks are retried, dropped responses
    // and stuck walkers hang to the livelock bound and report translation
    // faults. The fingerprint covers the engine's fault counters as well as
    // every tenant's counters.
    let device = DeviceFaultConfig::uniform(13, 0.05)
        .with_kind(FaultKind::WalkerStuck, FaultRate::bursty(0.05, 2));
    let result = run(
        config(ServingPolicy::RoundRobin)
            .with_faults(device, ResilienceConfig::all_off().with_retry(true)),
        &repeated_network_mix(60_000, 9),
    );
    let counters = result.fault_counters.as_ref().expect("faults configured");
    assert!(counters.total_recovered() > 0, "retries recover walks");
    assert!(counters.total_hung() > 0, "unrecovered walks hang");
    assert!(
        result.stats.iter().all(|s| s.translation.faults > 0),
        "every tenant sees translation faults"
    );
    assert_pinned(
        "faulted",
        &result,
        (
            [201_717, 1799, 220, 1579, 0, 0, 0, 2],
            0x0d44_cc6f_c176_a85b,
        ),
    );
}

#[test]
fn closed_loop_mix_that_repeats_networks() {
    // Closed loop, every tenant's one request arrives at cycle 0.
    let tenants = [
        TenantSpec::new(WorkloadId::Cnn1, 1),
        TenantSpec::new(WorkloadId::Rnn2, 1),
        TenantSpec::new(WorkloadId::Cnn1, 1),
    ];
    let expected: [(u64, u64); 2] = [
        (603_700, 0xa26f_ee60_52a1_11e0),
        (603_700, 0x2d41_c15c_a1f7_e74e),
    ];
    for (policy, expected) in [ServingPolicy::RoundRobin, ServingPolicy::BurstQuantum]
        .into_iter()
        .zip(expected)
    {
        let result = ServingSimulator::new(config(policy))
            .run_to_completion(&tenants)
            .unwrap();
        assert_eq!(
            (result.makespan_cycles, fingerprint(&result)),
            expected,
            "{}",
            policy.label()
        );
    }
}
