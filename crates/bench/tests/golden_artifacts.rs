//! Golden-artifact regression tests.
//!
//! A small-scale (smoke) subset of the experiment artifacts is regenerated
//! from scratch and compared **byte-for-byte** against JSON/CSV/Markdown
//! files checked in under `tests/golden/`. This pins down two things at once:
//!
//! * the simulator's timing model — any change to cycle accounting, tiling,
//!   walker scheduling or energy accounting shows up as a diff in the golden
//!   numbers and must be a conscious decision (regenerate the goldens), and
//! * the determinism of the parallel runner — the regeneration runs on a
//!   multi-threaded runner, so any scheduling-dependent nondeterminism the
//!   runner could introduce fails the byte comparison immediately.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! cargo run --release --bin neummu_experiments -- --quick --out /tmp/golden \
//!     --only fig08,fig12b,fig13,mmu_cache,table1,serving,multitenant
//! cp /tmp/golden/{fig08_baseline_iommu,fig12b_energy_perf,fig13_tpreg_hit_rate,mmu_cache_uptc_vs_tpc,serving_sweep,multitenant_sweep}.json \
//!    /tmp/golden/table1_configuration.{csv,md} /tmp/golden/serving_goodput.md \
//!    /tmp/golden/serving_slo.csv /tmp/golden/multitenant_tenant_counters.md \
//!    crates/bench/tests/golden/
//! ```

use serde::Serialize;

use neummu_sim::experiments::{
    mmu_cache_study, multi_tenant, performance, serving, table1, ExperimentScale,
};
use neummu_sim::ExperimentRunner;

const SMOKE: ExperimentScale = ExperimentScale::Smoke;

/// Serializes exactly like `ExperimentArtifacts::json` writes artifacts.
fn to_artifact_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("artifact serialization is infallible")
}

fn assert_matches_golden(name: &str, golden: &str, regenerated: &str) {
    assert_eq!(
        golden, regenerated,
        "regenerated `{name}` diverged from tests/golden/{name} — either the \
         timing model changed (regenerate the goldens, see the module docs) \
         or the parallel runner produced nondeterministic output"
    );
}

#[test]
fn fig08_json_matches_golden() {
    let runner = ExperimentRunner::new(4);
    let result = performance::fig08_baseline_iommu_on(&runner, SMOKE).unwrap();
    assert_matches_golden(
        "fig08_baseline_iommu.json",
        include_str!("golden/fig08_baseline_iommu.json"),
        &to_artifact_json(&result),
    );
}

#[test]
fn fig12b_json_matches_golden() {
    let runner = ExperimentRunner::new(4);
    let result = performance::fig12b_energy_perf_on(&runner, SMOKE).unwrap();
    assert_matches_golden(
        "fig12b_energy_perf.json",
        include_str!("golden/fig12b_energy_perf.json"),
        &to_artifact_json(&result),
    );
}

#[test]
fn fig13_json_matches_golden() {
    let runner = ExperimentRunner::new(4);
    let result = performance::fig13_tpreg_hit_rate_on(&runner, SMOKE).unwrap();
    assert_matches_golden(
        "fig13_tpreg_hit_rate.json",
        include_str!("golden/fig13_tpreg_hit_rate.json"),
        &to_artifact_json(&result),
    );
}

#[test]
fn mmu_cache_json_matches_golden() {
    let runner = ExperimentRunner::new(4);
    let result = mmu_cache_study::run_on(&runner, SMOKE).unwrap();
    assert_matches_golden(
        "mmu_cache_uptc_vs_tpc.json",
        include_str!("golden/mmu_cache_uptc_vs_tpc.json"),
        &to_artifact_json(&result),
    );
}

#[test]
fn serving_sweep_artifacts_match_golden() {
    // Pins the whole open-loop serving leg at once: arrival generation,
    // admission queueing, all four scheduling policies, the shared-engine
    // timing, the exact SLO percentiles and the rendered tables.
    let runner = ExperimentRunner::new(4);
    let result = serving::serving_sweep_on(&runner, SMOKE).unwrap();
    assert_matches_golden(
        "serving_sweep.json",
        include_str!("golden/serving_sweep.json"),
        &to_artifact_json(&result),
    );
    assert_matches_golden(
        "serving_goodput.md",
        include_str!("golden/serving_goodput.md"),
        &result.goodput_table().to_markdown(),
    );
    assert_matches_golden(
        "serving_slo.csv",
        include_str!("golden/serving_slo.csv"),
        &result.slo_table().to_csv(),
    );
}

#[test]
fn multitenant_sweep_artifacts_match_golden() {
    // Pins the closed-loop tenant sweep: the shared runs at every tenant
    // count, the memoized solo baselines and the per-tenant counter table.
    let runner = ExperimentRunner::new(4);
    let result = multi_tenant::tenant_sweep_on(&runner, SMOKE).unwrap();
    assert_matches_golden(
        "multitenant_sweep.json",
        include_str!("golden/multitenant_sweep.json"),
        &to_artifact_json(&result),
    );
    assert_matches_golden(
        "multitenant_tenant_counters.md",
        include_str!("golden/multitenant_tenant_counters.md"),
        &result.counters_table().to_markdown(),
    );
}

#[test]
fn table1_csv_and_markdown_match_golden() {
    let table = table1::run_on(&ExperimentRunner::new(1));
    assert_matches_golden(
        "table1_configuration.csv",
        include_str!("golden/table1_configuration.csv"),
        &table.to_csv(),
    );
    assert_matches_golden(
        "table1_configuration.md",
        include_str!("golden/table1_configuration.md"),
        &table.to_markdown(),
    );
}

#[test]
fn serial_regeneration_matches_golden_too() {
    // The goldens were produced by a serial run; a fresh serial runner must
    // reproduce them as well (guards the serial path independently of the
    // parallel path, so a divergence pinpoints which schedule drifted).
    let runner = ExperimentRunner::new(1);
    let result = performance::fig08_baseline_iommu_on(&runner, SMOKE).unwrap();
    assert_matches_golden(
        "fig08_baseline_iommu.json",
        include_str!("golden/fig08_baseline_iommu.json"),
        &to_artifact_json(&result),
    );
}
