//! The multi-tenant contention experiment family.
//!
//! NeuMMU's evaluation assumes the NPU is owned by a single model; a serving
//! deployment time-shares it. This family opens that scenario axis:
//!
//! * a **tenant-count sweep** (1 → 8 at full scale) over a fixed,
//!   deterministic workload mix, every sweep point a closed-loop run of the
//!   mix on one shared engine
//!   ([`ServingSimulator::run_to_completion`]),
//! * **per-tenant slowdown** — each tenant's shared-run completion divided by
//!   its memoized contention-free baseline
//!   ([`ExperimentRunner::isolated_tenant_point`]), and
//! * **contention breakdowns** — per-tenant IOTLB hit rates (shared vs
//!   isolated) and each tenant's share of the total walker occupancy, the
//!   counter-validated story of *where* the slowdown comes from.

use serde::Serialize;

use neummu_mmu::MmuConfig;
use neummu_workloads::WorkloadId;

use crate::error::SimError;
use crate::experiments::ExperimentScale;
use crate::multi_tenant::{TenantSpec, TenantStats};
use crate::report::{norm, pct, ResultTable};
use crate::runner::ExperimentRunner;
use crate::serving::{ServingConfig, ServingSimulator};

/// The deterministic tenant mix of the sweep: the scale's workloads, cycled
/// at batch 1 (batch 1 keeps the full 1→8 sweep tractable; the batch axis is
/// already covered by the single-tenant figures).
///
/// # Example
///
/// ```
/// use neummu_sim::experiments::{multi_tenant, ExperimentScale};
///
/// let mix = multi_tenant::tenant_mix(ExperimentScale::Smoke, 3);
/// let labels: Vec<String> = mix.iter().map(|t| t.label()).collect();
/// assert_eq!(labels, ["CNN-1/b01", "RNN-2/b01", "CNN-1/b01"]);
/// ```
#[must_use]
pub fn tenant_mix(scale: ExperimentScale, tenant_count: usize) -> Vec<TenantSpec> {
    let workloads = scale.workloads();
    (0..tenant_count)
        .map(|i| TenantSpec::new(workloads[i % workloads.len()], 1))
        .collect()
}

/// The tenant counts swept at each scale (1 → 8 at full scale).
#[must_use]
pub fn tenant_counts(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Full => (1..=8).collect(),
        ExperimentScale::Smoke => vec![1, 2],
    }
}

/// One tenant of one sweep point, with its shared-run counters and its
/// contention-free baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantContentionRow {
    /// How many tenants shared the NPU in this sweep point.
    pub tenant_count: usize,
    /// The tenant's workload/batch.
    pub tenant: TenantSpec,
    /// Counters of the shared (contended) run.
    pub shared: TenantStats,
    /// Counters of the tenant's isolated (contention-free) baseline run.
    pub isolated: TenantStats,
}

impl TenantContentionRow {
    /// Per-tenant slowdown: shared completion cycles over isolated completion
    /// cycles (≥ 1.0 up to scheduling rounding).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.isolated.completion_cycle == 0 {
            return 0.0;
        }
        self.shared.completion_cycle as f64 / self.isolated.completion_cycle as f64
    }
}

/// One sweep point's aggregate: the makespan of running the mix to
/// completion on one NPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SweepPointSummary {
    /// Tenant count of the point.
    pub tenant_count: usize,
    /// Cycle at which the last tenant finished.
    pub makespan_cycles: u64,
}

/// The multi-tenant tenant-count sweep result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiTenantSweepResult {
    /// Scheduling burst (transactions per tenant turn) the sweep used.
    pub burst_transactions: u64,
    /// One row per `(tenant count, tenant)`.
    pub rows: Vec<TenantContentionRow>,
    /// One summary per tenant count.
    pub points: Vec<SweepPointSummary>,
}

impl MultiTenantSweepResult {
    /// The rows of one sweep point.
    pub fn rows_of(&self, tenant_count: usize) -> impl Iterator<Item = &TenantContentionRow> {
        self.rows
            .iter()
            .filter(move |row| row.tenant_count == tenant_count)
    }

    /// Mean per-tenant slowdown of one sweep point.
    #[must_use]
    pub fn mean_slowdown(&self, tenant_count: usize) -> f64 {
        let slowdowns: Vec<f64> = self.rows_of(tenant_count).map(|r| r.slowdown()).collect();
        crate::report::mean(&slowdowns)
    }

    /// Renders the sweep as a table: one row per tenant per sweep point,
    /// with the slowdown and the TLB/walker contention breakdowns.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            format!(
                "Multi-tenant sweep: per-tenant slowdown vs isolated run \
                 (round-robin, burst {})",
                self.burst_transactions
            ),
            &[
                "Tenants",
                "ASID",
                "Tenant",
                "Slowdown",
                "TLB hit (shared)",
                "TLB hit (isolated)",
                "Walker share",
                "Stall cycles",
            ],
        );
        for point in &self.points {
            let point_rows: Vec<&TenantContentionRow> = self.rows_of(point.tenant_count).collect();
            let walk_total: u64 = point_rows.iter().map(|r| r.shared.walk_levels_read).sum();
            for row in &point_rows {
                let walker_share = if walk_total == 0 {
                    0.0
                } else {
                    row.shared.walk_levels_read as f64 / walk_total as f64
                };
                table.push_row(&[
                    point.tenant_count.to_string(),
                    row.shared.asid.to_string(),
                    row.tenant.label(),
                    norm(row.slowdown()),
                    pct(row.shared.tlb_hit_rate()),
                    pct(row.isolated.tlb_hit_rate()),
                    pct(walker_share),
                    row.shared.stall_cycles.to_string(),
                ]);
            }
        }
        table
    }

    /// Renders the per-tenant counter table of the most-contended sweep point
    /// (the largest tenant count) — the raw event counts behind the
    /// breakdowns.
    #[must_use]
    pub fn counters_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Per-tenant counters (most-contended sweep point)",
            &[
                "ASID",
                "Tenant",
                "Requests",
                "TLB hits",
                "Merged",
                "Walks",
                "Walk levels",
                "Stall cycles",
                "Final TLB entries",
                "Completion cycle",
            ],
        );
        let Some(max_count) = self.points.iter().map(|p| p.tenant_count).max() else {
            return table;
        };
        for row in self.rows_of(max_count) {
            let s = &row.shared;
            table.push_row(&[
                s.asid.to_string(),
                row.tenant.label(),
                s.requests.to_string(),
                s.tlb_hits.to_string(),
                s.merged.to_string(),
                s.walks.to_string(),
                s.walk_levels_read.to_string(),
                s.stall_cycles.to_string(),
                s.final_tlb_occupancy.to_string(),
                s.completion_cycle.to_string(),
            ]);
        }
        table
    }
}

/// Runs the tenant-count sweep.
///
/// One parallel job per tenant count, then one parallel job per distinct
/// tenant of the sweep for its contention-free baseline, served from the
/// runner's point cache (each distinct tenant simulates its baseline once
/// across the whole sweep).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn tenant_sweep_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<MultiTenantSweepResult, SimError> {
    let simulator = ServingSimulator::new(ServingConfig::with_mmu(MmuConfig::neummu()));
    let config = simulator.config();
    let counts = tenant_counts(scale);
    let shared_runs = runner.run_jobs("multi_tenant/shared", counts.len(), |i| {
        simulator.run_to_completion(&tenant_mix(scale, counts[i]))
    })?;
    // The distinct tenants in order of first appearance.
    let mut solo: Vec<TenantSpec> = Vec::new();
    for spec in shared_runs.iter().flat_map(|run| &run.tenants) {
        if !solo.contains(spec) {
            solo.push(*spec);
        }
    }
    let baselines = runner.run_jobs("multi_tenant/isolated", solo.len(), |i| {
        runner.isolated_tenant_point(solo[i], config)
    })?;

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (&tenant_count, shared) in counts.iter().zip(&shared_runs) {
        points.push(SweepPointSummary {
            tenant_count,
            makespan_cycles: shared.makespan_cycles,
        });
        for (spec, stats) in shared.tenants.iter().zip(&shared.stats) {
            let baseline = solo
                .iter()
                .position(|s| s == spec)
                .expect("every tenant has a baseline");
            rows.push(TenantContentionRow {
                tenant_count,
                tenant: *spec,
                shared: *stats,
                isolated: *baselines[baseline],
            });
        }
    }
    Ok(MultiTenantSweepResult {
        burst_transactions: config.burst_transactions,
        rows,
        points,
    })
}

/// The workload mix used when a caller wants "the" canonical N-tenant
/// contended run outside the sweep (benches, examples): the full-scale mix.
#[must_use]
pub fn canonical_mix(tenant_count: usize) -> Vec<TenantSpec> {
    (0..tenant_count)
        .map(|i| TenantSpec::new(WorkloadId::ALL[i % WorkloadId::ALL.len()], 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: ExperimentScale = ExperimentScale::Smoke;

    #[test]
    fn sweep_shapes_follow_the_scale() {
        assert_eq!(tenant_counts(SMOKE), vec![1, 2]);
        assert_eq!(
            tenant_counts(ExperimentScale::Full),
            (1..=8).collect::<Vec<_>>()
        );
        let mix = tenant_mix(ExperimentScale::Full, 8);
        assert_eq!(mix.len(), 8);
        assert_eq!(mix[0].workload, WorkloadId::Cnn1);
        assert_eq!(mix[6].workload, WorkloadId::Cnn1, "mix cycles after 6");
        assert_eq!(canonical_mix(7)[6].workload, WorkloadId::Cnn1);
    }

    #[test]
    fn smoke_sweep_measures_contention() {
        let runner = ExperimentRunner::serial();
        let result = tenant_sweep_on(&runner, SMOKE).unwrap();
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.rows.len(), 1 + 2);
        // A lone tenant suffers no slowdown.
        let solo = &result.rows[0];
        assert_eq!(solo.tenant_count, 1);
        assert!(
            (solo.slowdown() - 1.0).abs() < 1e-9,
            "solo slowdown {}",
            solo.slowdown()
        );
        // Two tenants sharing one front end are both slowed down.
        for row in result.rows_of(2) {
            assert!(
                row.slowdown() > 1.0,
                "{} slowdown {}",
                row.tenant.label(),
                row.slowdown()
            );
        }
        assert!(result.mean_slowdown(2) > 1.0);
        // The mixes share their tenants (CNN-1 appears at every count): the
        // sweep asks for each distinct tenant's baseline once, in one batch,
        // and each simulates once.
        let counts = tenant_counts(SMOKE);
        let tenants = counts[counts.len() - 1].min(SMOKE.workloads().len());
        assert_eq!(runner.cache().simulations() as usize, tenants);
        assert_eq!(runner.cache().hits(), 0);
        assert_eq!(runner.cache().len(), tenants);
        // The baselines are simulated inside the batch's jobs.
        let profile = runner.profile();
        assert_eq!(
            profile.phases()["multi_tenant/isolated"].jobs as usize,
            tenants
        );
        assert_eq!(
            profile.nested_phases()["multi_tenant/isolated-baseline"].jobs as usize,
            tenants
        );
        assert!(!profile
            .phases()
            .contains_key("multi_tenant/isolated-baseline"));
        // Tables render with the expected shapes.
        assert_eq!(result.to_table().rows().len(), 3);
        let counters = result.counters_table();
        assert_eq!(counters.rows().len(), 2);
        assert!(counters.to_markdown().contains("asid:1"));
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let serial = tenant_sweep_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        let parallel = tenant_sweep_on(&ExperimentRunner::new(4), SMOKE).unwrap();
        assert_eq!(serial, parallel);
    }
}
