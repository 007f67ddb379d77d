//! Property-locked invariants of the open-loop serving subsystem.
//!
//! Three layers of guarantees, each over randomized configurations:
//!
//! * **request accounting** — for every policy, overflow mode and load, no
//!   request is lost, duplicated or served out of order within its tenant,
//!   and the queue conservation law holds at drain
//!   (`offered == completed + dropped`, nothing in flight);
//! * **translation accounting** — every DMA transaction a request issues is
//!   classified into exactly one source (`requests == hits + merges + walks`);
//! * **policy semantics** — weighted-fair shares converge to the weight
//!   vector under saturation;
//!
//! plus the arrival-generator properties the SLO numbers depend on:
//! non-decreasing timestamps inside the horizon, seed-stable sequences, and
//! an empirical rate near the configured mean.

use proptest::prelude::*;

use neummu_mmu::MmuConfig;
use neummu_sim::serving::{
    derive_seed, ArrivalConfig, ArrivalShape, OverflowPolicy, ServingConfig, ServingPolicy,
    ServingResult, ServingSimulator, ServingTenantSpec,
};
use neummu_workloads::WorkloadId;

const POLICIES: [ServingPolicy; 4] = [
    ServingPolicy::RoundRobin,
    ServingPolicy::WeightedFair,
    ServingPolicy::BurstQuantum,
    ServingPolicy::TlbAware {
        occupancy_cap_pct: 25,
    },
];

/// A small but heterogeneous tenant population: three tenants, three arrival
/// shapes, distinct seeds.
fn population(rate_per_mcycle: f64, horizon: u64, seed: u64) -> Vec<ServingTenantSpec> {
    let shapes = [
        ArrivalShape::Poisson,
        ArrivalShape::Bursty {
            mean_burst_arrivals: 4.0,
            duty_fraction: 0.3,
        },
        ArrivalShape::Diurnal {
            period_cycles: horizon / 2,
            trough_fraction: 0.2,
        },
    ];
    let workloads = [WorkloadId::Cnn1, WorkloadId::Rnn2, WorkloadId::Cnn1];
    (0..3)
        .map(|i| ServingTenantSpec {
            workload: workloads[i],
            batch: 1,
            weight: 1 + i as u64,
            arrivals: ArrivalConfig {
                shape: shapes[i],
                rate_per_mcycle,
                horizon_cycles: horizon,
                seed: derive_seed(seed, i as u64),
            },
        })
        .collect()
}

/// Asserts the full per-tenant accounting contract on a finished run.
fn assert_accounting(result: &ServingResult, overflow: OverflowPolicy, label: &str) {
    for (spec, stats) in result.tenants.iter().zip(&result.stats) {
        let q = stats.queue;
        // Conservation at drain: the run only ends when every queue is empty
        // and nothing is in service, so every offered request either
        // completed or was shed.
        assert_eq!(
            q.offered,
            q.completed + q.dropped,
            "{label}/{}: drain conservation",
            spec.label()
        );
        assert_eq!(
            q.admitted,
            q.completed,
            "{label}/{}: every admitted request completes",
            spec.label()
        );
        if overflow == OverflowPolicy::Defer {
            assert_eq!(q.dropped, 0, "{label}: defer never sheds");
        }
        // No request lost, duplicated or reordered: completion order is
        // exactly one strictly increasing pass over a subset of the arrival
        // sequence numbers (FIFO within the tenant), with as many entries as
        // completions.
        assert_eq!(stats.completion_order.len() as u64, q.completed);
        for pair in stats.completion_order.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{label}/{}: reordered or duplicated completion {pair:?}",
                spec.label()
            );
        }
        if let Some(&last) = stats.completion_order.last() {
            assert!(
                last < q.offered,
                "{label}: completed a request never offered"
            );
        }
        // Under Defer nothing is shed, so service must cover the whole
        // arrival sequence 0..offered.
        if overflow == OverflowPolicy::Defer {
            assert_eq!(stats.completion_order.len() as u64, q.offered);
        }
        // Every transaction is classified into exactly one source.
        let t = stats.translation;
        assert_eq!(
            t.tlb_hits + t.merged + t.walks,
            t.requests,
            "{label}/{}: translation source accounting",
            spec.label()
        );
        // Latency histograms carry one observation per completion.
        assert_eq!(stats.sojourn.total(), q.completed);
        assert_eq!(stats.stall.total(), q.completed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every policy × overflow mode and a randomized load/seed, the
    /// serving loop neither loses, duplicates nor reorders requests, and the
    /// queue and translation conservation laws hold at drain.
    #[test]
    fn no_policy_loses_duplicates_or_reorders_requests(
        seed in 0u64..1 << 48,
        load_pct in 40u64..220,
        overflow_defer in any::<bool>(),
    ) {
        let overflow = if overflow_defer {
            OverflowPolicy::Defer
        } else {
            OverflowPolicy::Drop
        };
        let horizon = 10_000u64;
        let txns_per_request = 16u64;
        // Split the load factor across 3 tenants.
        let rate = load_pct as f64 / 100.0 * 1e6 / (3.0 * txns_per_request as f64);
        for policy in POLICIES {
            let config = ServingConfig {
                overflow,
                ..ServingConfig::with_mmu(MmuConfig::neummu())
                    .with_policy(policy)
                    .with_burst(8)
                    .with_txns_per_request(txns_per_request)
                    .with_queue_depth(4)
                    .with_sample_interval(2048)
            };
            let result = ServingSimulator::new(config)
                .run(&population(rate, horizon, seed))
                .unwrap();
            prop_assert!(result.offered_requests() > 0, "load produced no arrivals");
            assert_accounting(&result, overflow, policy.label());
        }
    }

    /// Under saturation (deferring queues, overload), weighted-fair service
    /// shares converge to the weight vector: two identical tenants with
    /// weights `w0:w1` complete transactions in that ratio.
    #[test]
    fn wfq_shares_converge_to_weights_under_saturation(
        w0 in 1u64..=4,
        w1 in 1u64..=4,
        seed in 0u64..1 << 48,
    ) {
        let horizon = 12_000u64;
        let txns_per_request = 16u64;
        // 3× overload keeps both queues backlogged for the whole run.
        let rate = 3.0 * 1e6 / (2.0 * txns_per_request as f64);
        let tenants: Vec<ServingTenantSpec> = [w0, w1]
            .iter()
            .enumerate()
            .map(|(i, &weight)| ServingTenantSpec {
                workload: WorkloadId::Cnn1,
                batch: 1,
                weight,
                arrivals: ArrivalConfig {
                    shape: ArrivalShape::Poisson,
                    rate_per_mcycle: rate,
                    horizon_cycles: horizon,
                    seed: derive_seed(seed, i as u64),
                },
            })
            .collect();
        let config = ServingConfig {
            overflow: OverflowPolicy::Defer,
            ..ServingConfig::with_mmu(MmuConfig::neummu())
                .with_policy(ServingPolicy::WeightedFair)
                .with_burst(8)
                .with_txns_per_request(txns_per_request)
                .with_queue_depth(4)
                .with_sample_interval(4096)
        };
        let result = ServingSimulator::new(config).run(&tenants).unwrap();
        assert_accounting(&result, OverflowPolicy::Defer, "wfq-saturation");
        // Defer mode eventually serves *everything*, so total transaction
        // counts equalize at drain; the weighted shares show up in *when*
        // each tenant drains. The strictly heavier tenant receives the larger
        // grant share for as long as both are backlogged, so it finishes no
        // later than the lighter one.
        if w0 > w1 {
            prop_assert!(
                result.stats[0].translation.completion_cycle
                    <= result.stats[1].translation.completion_cycle,
                "weight {w0} tenant drained after weight {w1} tenant"
            );
        }
        if w1 > w0 {
            prop_assert!(
                result.stats[1].translation.completion_cycle
                    <= result.stats[0].translation.completion_cycle,
                "weight {w1} tenant drained after weight {w0} tenant"
            );
        }
        // (The tight 1:3-within-10% share assertion lives in the
        // deterministic `wfq_grants_follow_weights_while_saturated` test,
        // where Drop overflow keeps the saturated window the whole run.)
    }

    /// Arrival sequences are non-decreasing, stay inside the horizon, are a
    /// pure function of the seed, and hit the configured mean rate within
    /// tolerance (for every shape).
    #[test]
    fn arrival_generators_are_ordered_seeded_and_calibrated(
        seed in any::<u64>(),
        shape_choice in 0usize..3,
    ) {
        let horizon = 4_000_000u64;
        let rate = 400.0; // 400 req/Mcycle → ~1600 arrivals: tight-enough law of large numbers.
        let shape = [
            ArrivalShape::Poisson,
            ArrivalShape::Bursty { mean_burst_arrivals: 6.0, duty_fraction: 0.4 },
            ArrivalShape::Diurnal { period_cycles: horizon / 4, trough_fraction: 0.5 },
        ][shape_choice];
        let config = ArrivalConfig { shape, rate_per_mcycle: rate, horizon_cycles: horizon, seed };
        let arrivals = config.generate().unwrap();
        let again = config.generate().unwrap();
        prop_assert_eq!(&arrivals, &again, "same seed, same sequence");
        for pair in arrivals.windows(2) {
            prop_assert!(pair[0] <= pair[1], "timestamps must be non-decreasing");
        }
        if let Some(&last) = arrivals.last() {
            prop_assert!(last < horizon);
        }
        let expected = rate * horizon as f64 / 1e6;
        let observed = arrivals.len() as f64;
        prop_assert!(
            (observed - expected).abs() / expected < 0.25,
            "{}: expected ~{expected} arrivals, generated {observed}",
            shape.label()
        );
    }
}

/// The WFQ share property asserted deterministically and tightly: a 1:3
/// weight split over a long saturated window serves transactions 1:3 within
/// 10% — the convergence claim of the policy docs, on the real simulator
/// (not just the [`PolicyState`] unit test).
///
/// Uses `Drop` overflow so the excess load is shed rather than deferred:
/// while both queues stay saturated the engine's grants follow the weights.
///
/// [`PolicyState`]: neummu_sim::serving::PolicyState
#[test]
fn wfq_grants_follow_weights_while_saturated() {
    let horizon = 40_000u64;
    let txns_per_request = 16u64;
    let rate = 4.0 * 1e6 / (2.0 * txns_per_request as f64);
    let tenants: Vec<ServingTenantSpec> = [1u64, 3]
        .iter()
        .enumerate()
        .map(|(i, &weight)| ServingTenantSpec {
            workload: WorkloadId::Cnn1,
            batch: 1,
            weight,
            arrivals: ArrivalConfig {
                shape: ArrivalShape::Poisson,
                rate_per_mcycle: rate,
                horizon_cycles: horizon,
                seed: derive_seed(7, i as u64),
            },
        })
        .collect();
    let config = ServingConfig {
        overflow: OverflowPolicy::Drop,
        ..ServingConfig::with_mmu(MmuConfig::neummu())
            .with_policy(ServingPolicy::WeightedFair)
            .with_burst(8)
            .with_txns_per_request(txns_per_request)
            .with_queue_depth(8)
            .with_sample_interval(8192)
    };
    let result = ServingSimulator::new(config).run(&tenants).unwrap();
    assert_accounting(&result, OverflowPolicy::Drop, "wfq-drop-saturation");
    // Massive overload with a bounded dropping queue: both tenants are
    // backlogged essentially always, so grants — and therefore completed
    // transactions — split 1:3.
    let served: Vec<f64> = result
        .stats
        .iter()
        .map(|s| s.translation.requests as f64)
        .collect();
    let share = served[1] / (served[0] + served[1]);
    assert!(
        (share - 0.75).abs() < 0.075,
        "weight-3 tenant served {share:.3} of transactions, expected ~0.75"
    );
}

/// Identical seeds give identical serving runs, different seeds give
/// different arrival sequences (decorrelated lanes).
#[test]
fn serving_runs_are_seed_deterministic() {
    let config = ServingConfig::with_mmu(MmuConfig::neummu())
        .with_burst(16)
        .with_txns_per_request(32)
        .with_queue_depth(8)
        .with_sample_interval(4096);
    let rate = 1.2 * 1e6 / (3.0 * 32.0);
    let tenants = population(rate, 20_000, 0xA11CE);
    let a = ServingSimulator::new(config.clone()).run(&tenants).unwrap();
    let b = ServingSimulator::new(config).run(&tenants).unwrap();
    assert_eq!(a, b, "same config and seeds must be bit-identical");
    let other = population(rate, 20_000, 0xB0B);
    assert_ne!(
        tenants[0].arrivals.generate().unwrap(),
        other[0].arrivals.generate().unwrap(),
        "different base seeds must decorrelate arrivals"
    );
}
