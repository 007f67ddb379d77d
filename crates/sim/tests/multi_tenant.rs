//! Integration tests of the closed-loop multi-tenant runs: tagged-translation
//! semantics end to end, per-tenant stream conservation under sharing, and
//! byte-level determinism of the experiment family.

use proptest::prelude::*;

use neummu_mmu::MmuConfig;
use neummu_sim::experiments::{multi_tenant as mt_experiment, ExperimentScale};
use neummu_sim::multi_tenant::{MultiTenantResult, TenantSpec};
use neummu_sim::serving::{ServingConfig, ServingSimulator};
use neummu_sim::ExperimentRunner;
use neummu_workloads::WorkloadId;

const SMOKE: ExperimentScale = ExperimentScale::Smoke;

fn run_to_completion(config: ServingConfig, tenants: &[TenantSpec]) -> MultiTenantResult {
    ServingSimulator::new(config)
        .run_to_completion(tenants)
        .unwrap()
}

/// Serializes exactly like `ExperimentArtifacts::json` writes artifacts.
fn artifact_bytes<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("artifact serialization is infallible")
}

#[test]
fn two_identical_tenants_make_identical_progress_under_fair_sharing() {
    // Two tenants running the *same* workload issue the same VAs under
    // different ASIDs. With fair round-robin their streams are symmetric, so
    // their per-tenant counters must agree — any asymmetry would mean one
    // tenant's translations leaked into (or aliased with) the other's.
    let tenants = [
        TenantSpec::new(WorkloadId::Cnn1, 1),
        TenantSpec::new(WorkloadId::Cnn1, 1),
    ];
    let result = run_to_completion(ServingConfig::with_mmu(MmuConfig::neummu()), &tenants);
    let (a, b) = (&result.stats[0], &result.stats[1]);
    assert_eq!(a.requests, b.requests);
    // Every request is accounted to exactly one source.
    for s in [a, b] {
        assert_eq!(s.tlb_hits + s.merged + s.walks, s.requests);
    }
    // Identical VAs in different ASIDs never alias. If tenant B could hit on
    // tenant A's freshly filled entries (or merge into A's in-flight walks of
    // the same page number), B would stop walking almost entirely — its walk
    // count would collapse and its hit count would explode relative to A's.
    // The streams are only phase-shifted by one scheduling burst, so genuine
    // counters differ by at most a sliver; allow 1% for that phase noise.
    let tolerance = (a.requests / 100).max(64);
    assert!(
        a.tlb_hits.abs_diff(b.tlb_hits) <= tolerance,
        "cross-ASID TLB aliasing: {} vs {}",
        a.tlb_hits,
        b.tlb_hits
    );
    assert!(
        a.walks.abs_diff(b.walks) <= tolerance,
        "asymmetric walks: {} vs {}",
        a.walks,
        b.walks
    );
    assert!(
        a.merged.abs_diff(b.merged) <= tolerance,
        "cross-ASID PRMB merging: {} vs {}",
        a.merged,
        b.merged
    );
    // The second-scheduled twin finishes within one burst's worth of issue
    // slots of the first — fair sharing, no starvation.
    assert!(a.completion_cycle.abs_diff(b.completion_cycle) < result.makespan_cycles / 2);
}

#[test]
fn sweep_artifacts_are_byte_identical_across_thread_counts() {
    let serial = mt_experiment::tenant_sweep_on(&ExperimentRunner::new(1), SMOKE).unwrap();
    let parallel = mt_experiment::tenant_sweep_on(&ExperimentRunner::new(4), SMOKE).unwrap();
    assert_eq!(
        artifact_bytes(&serial),
        artifact_bytes(&parallel),
        "multitenant_sweep.json must not depend on the thread count"
    );
    assert_eq!(serial.to_table().to_csv(), parallel.to_table().to_csv());
    assert_eq!(
        serial.counters_table().to_markdown(),
        parallel.counters_table().to_markdown()
    );
}

#[test]
fn repeated_shared_runs_are_bit_identical() {
    let config = ServingConfig::with_mmu(MmuConfig::neummu());
    let tenants = mt_experiment::tenant_mix(SMOKE, 2);
    let a = run_to_completion(config.clone(), &tenants);
    let b = run_to_completion(config, &tenants);
    assert_eq!(artifact_bytes(&a), artifact_bytes(&b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharing the front end changes when a tenant's transactions are
    /// served, never which: for any scheduling burst and any 2-tenant mix,
    /// each tenant issues exactly its solo run's request stream, and every
    /// request is accounted to exactly one translation source.
    #[test]
    fn two_tenant_shared_runs_issue_each_solo_stream(
        burst_choice in 0usize..5,
        first in 0usize..2,
        second in 0usize..2,
    ) {
        let burst = [1u64, 2, 7, 64, 257][burst_choice];
        let pool = [WorkloadId::Cnn1, WorkloadId::Rnn2];
        let tenants = [
            TenantSpec::new(pool[first], 1),
            TenantSpec::new(pool[second], 1),
        ];
        let config = ServingConfig::with_mmu(MmuConfig::neummu()).with_burst(burst);
        let shared = run_to_completion(config.clone(), &tenants);
        for (slot, spec) in tenants.iter().enumerate() {
            let solo = run_to_completion(config.clone(), &[*spec]);
            let s = &shared.stats[slot];
            prop_assert_eq!(
                s.requests,
                solo.stats[0].requests,
                "tenant {} (burst {})", spec.label(), burst
            );
            prop_assert_eq!(s.tlb_hits + s.merged + s.walks, s.requests);
        }
    }
}
