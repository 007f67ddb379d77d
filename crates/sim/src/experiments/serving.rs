//! The open-loop serving experiment family: offered load × policy sweeps
//! with per-tenant SLO artifacts.
//!
//! Where [`crate::experiments::multi_tenant`] asks *how much slower does a
//! closed batch of tenants finish*, this family asks the datacenter question:
//! under open-loop traffic at a given offered load, **which requests meet
//! their latency SLO, and what does the front end do when they can't?** Each
//! sweep point runs tens of tenants with heterogeneous model mixes, arrival
//! shapes (Poisson / bursty / diurnal), and weights through bounded admission
//! queues and one shared NeuMMU translation engine, under one scheduling
//! policy. The artifacts are the serving classics:
//!
//! * exact (nearest-rank, never interpolated) per-tenant sojourn percentiles
//!   p50 / p99 / p99.9,
//! * goodput-under-overload curves — completed requests per Mcycle as offered
//!   load crosses saturation, per policy,
//! * queue-depth timelines per sweep point.
//!
//! Everything is deterministic: seeds derive from a fixed base via
//! [`derive_seed`], so the family's artifacts are byte-identical across
//! thread counts and store-resumed runs.

use serde::Serialize;

use neummu_mmu::MmuConfig;

use crate::error::SimError;
use crate::experiments::ExperimentScale;
use crate::report::{norm, pct, ResultTable};
use crate::runner::ExperimentRunner;
use crate::serving::{
    derive_seed, ArrivalConfig, ArrivalShape, QueueDepthSample, ServingConfig, ServingPolicy,
    ServingSimulator, ServingTenantSpec,
};

/// Base seed of the family's arrival streams (each tenant's lane seed derives
/// from it via [`derive_seed`]).
pub const ARRIVAL_SEED: u64 = 0x00AD_BEEF_5E21_1E5C;

/// The policies the family sweeps, in artifact order.
#[must_use]
pub fn policies(scale: ExperimentScale) -> Vec<ServingPolicy> {
    let occupancy_cap_pct = match scale {
        // At full scale 32 tenants share the IOTLB, so a fair share is ~3%;
        // cap hogs at 8%. The smoke run has 4 tenants (fair share 25%).
        ExperimentScale::Full => 8,
        ExperimentScale::Smoke => 30,
    };
    vec![
        ServingPolicy::RoundRobin,
        ServingPolicy::WeightedFair,
        ServingPolicy::BurstQuantum,
        ServingPolicy::TlbAware { occupancy_cap_pct },
    ]
}

/// The offered-load factors swept at each scale, as fractions of the front
/// end's nominal one-transaction-per-cycle service capacity (so `2.0` is a
/// 2× overload — the goodput curve's interesting side).
#[must_use]
pub fn load_factors(scale: ExperimentScale) -> Vec<f64> {
    match scale {
        ExperimentScale::Full => vec![0.5, 1.0, 2.0],
        ExperimentScale::Smoke => vec![0.6, 1.8],
    }
}

/// Tenants per sweep point at each scale.
#[must_use]
pub fn tenant_count(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Full => 32,
        ExperimentScale::Smoke => 4,
    }
}

/// Arrival horizon (cycles of open-loop traffic) at each scale.
#[must_use]
pub fn horizon_cycles(scale: ExperimentScale) -> u64 {
    match scale {
        ExperimentScale::Full => 2_000_000,
        ExperimentScale::Smoke => 24_000,
    }
}

/// The serving configuration of one sweep point (shared by every policy and
/// load: only [`ServingConfig::policy`] varies across points).
#[must_use]
pub fn point_config(scale: ExperimentScale, policy: ServingPolicy) -> ServingConfig {
    let base = ServingConfig::with_mmu(MmuConfig::neummu()).with_policy(policy);
    match scale {
        ExperimentScale::Full => base,
        ExperimentScale::Smoke => base
            .with_burst(16)
            .with_txns_per_request(32)
            .with_queue_depth(8)
            .with_sample_interval(4096),
    }
}

/// The deterministic heterogeneous tenant population of one sweep point:
/// workloads cycle the scale's suite, arrival shapes cycle
/// Poisson → bursty → diurnal, weights cycle 1..=4, and every tenant gets a
/// decorrelated seed lane. `load_factor` is split evenly: each tenant offers
/// `load · capacity / (tenant_count · txns_per_request)` requests per cycle.
#[must_use]
pub fn tenant_population(
    scale: ExperimentScale,
    load_factor: f64,
    txns_per_request: u64,
) -> Vec<ServingTenantSpec> {
    let workloads = scale.workloads();
    let count = tenant_count(scale);
    let horizon = horizon_cycles(scale);
    let rate_per_mcycle = load_factor * 1e6 / (count as f64 * txns_per_request as f64);
    (0..count)
        .map(|index| {
            let shape = match index % 3 {
                0 => ArrivalShape::Poisson,
                1 => ArrivalShape::Bursty {
                    mean_burst_arrivals: 8.0,
                    duty_fraction: 0.25,
                },
                _ => ArrivalShape::Diurnal {
                    period_cycles: horizon / 4,
                    trough_fraction: 0.3,
                },
            };
            ServingTenantSpec {
                workload: workloads[index % workloads.len()],
                batch: 1,
                weight: 1 + (index as u64) % 4,
                arrivals: ArrivalConfig {
                    shape,
                    rate_per_mcycle,
                    horizon_cycles: horizon,
                    seed: derive_seed(ARRIVAL_SEED, index as u64),
                },
            }
        })
        .collect()
}

/// One tenant of one sweep point: queue accounting and exact SLO percentiles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServingSloRow {
    /// Scheduling policy of the point.
    pub policy: ServingPolicy,
    /// Offered-load factor of the point.
    pub load_factor: f64,
    /// Tenant index within the point (its ASID allocation order).
    pub tenant_index: usize,
    /// `workload/batch` label.
    pub tenant_label: String,
    /// Arrival-shape label (`poisson` / `bursty` / `diurnal`).
    pub shape: &'static str,
    /// WFQ weight.
    pub weight: u64,
    /// Requests the arrival process offered.
    pub offered: u64,
    /// Requests whose service completed.
    pub completed: u64,
    /// Requests shed by the bounded queue.
    pub dropped: u64,
    /// Deepest the tenant's bounded queue ever got.
    pub peak_depth: u64,
    /// Exact nearest-rank sojourn percentiles in cycles (`None` when the
    /// tenant completed nothing).
    pub sojourn_p50: Option<u64>,
    /// Exact nearest-rank p99 sojourn.
    pub sojourn_p99: Option<u64>,
    /// Exact nearest-rank p99.9 sojourn.
    pub sojourn_p999: Option<u64>,
    /// Worst observed sojourn.
    pub sojourn_max: u64,
    /// Exact nearest-rank p99 of per-request translation-stall cycles.
    pub stall_p99: Option<u64>,
    /// DMA transactions the tenant's completed service issued.
    pub translation_requests: u64,
    /// IOTLB hit rate of the tenant's translations.
    pub tlb_hit_rate: f64,
}

/// One sweep point's aggregate: the goodput-curve sample.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServingPointSummary {
    /// Scheduling policy of the point.
    pub policy: ServingPolicy,
    /// Offered-load factor of the point.
    pub load_factor: f64,
    /// Requests offered across all tenants.
    pub offered: u64,
    /// Requests completed across all tenants.
    pub completed: u64,
    /// Requests shed across all tenants.
    pub dropped: u64,
    /// Cycle at which the last completed request's data arrived.
    pub makespan_cycles: u64,
    /// Goodput: completed requests per Mcycle of makespan.
    pub goodput_per_mcycle: f64,
    /// Queue-depth timeline of the point.
    pub timeline: Vec<QueueDepthSample>,
}

/// The complete load × policy sweep result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServingSweepResult {
    /// Tenants per point.
    pub tenant_count: usize,
    /// DMA transactions per request.
    pub txns_per_request: u64,
    /// Arrival horizon per point.
    pub horizon_cycles: u64,
    /// One row per `(policy, load, tenant)`.
    pub rows: Vec<ServingSloRow>,
    /// One summary per `(policy, load)`.
    pub points: Vec<ServingPointSummary>,
}

impl ServingSweepResult {
    /// The rows of one sweep point.
    pub fn rows_of(
        &self,
        policy: ServingPolicy,
        load_factor: f64,
    ) -> impl Iterator<Item = &ServingSloRow> {
        self.rows
            .iter()
            .filter(move |row| row.policy == policy && row.load_factor == load_factor)
    }

    /// Renders the per-tenant SLO table of the highest-load point of each
    /// policy (the tail percentiles under the worst pressure).
    #[must_use]
    pub fn slo_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            format!(
                "Serving SLO percentiles at peak load ({} tenants, exact nearest-rank)",
                self.tenant_count
            ),
            &[
                "Policy",
                "Load",
                "Tenant",
                "Shape",
                "Weight",
                "Offered",
                "Completed",
                "Dropped",
                "p50",
                "p99",
                "p99.9",
                "Max",
            ],
        );
        let Some(peak) = self
            .points
            .iter()
            .map(|p| p.load_factor)
            .fold(None, |max: Option<f64>, load| {
                Some(max.map_or(load, |m| m.max(load)))
            })
        else {
            return table;
        };
        let fmt = |p: Option<u64>| p.map_or_else(|| "-".to_string(), |v| v.to_string());
        for row in self.rows.iter().filter(|row| row.load_factor == peak) {
            table.push_row(&[
                row.policy.label().to_string(),
                norm(row.load_factor),
                row.tenant_label.clone(),
                row.shape.to_string(),
                row.weight.to_string(),
                row.offered.to_string(),
                row.completed.to_string(),
                row.dropped.to_string(),
                fmt(row.sojourn_p50),
                fmt(row.sojourn_p99),
                fmt(row.sojourn_p999),
                row.sojourn_max.to_string(),
            ]);
        }
        table
    }

    /// Renders the goodput-under-overload curve: one row per sweep point.
    #[must_use]
    pub fn goodput_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Serving goodput under offered load (completed requests per Mcycle)",
            &[
                "Policy",
                "Load",
                "Offered",
                "Completed",
                "Dropped",
                "Drop rate",
                "Goodput/Mcycle",
                "Makespan",
            ],
        );
        for point in &self.points {
            let drop_rate = if point.offered == 0 {
                0.0
            } else {
                point.dropped as f64 / point.offered as f64
            };
            table.push_row(&[
                point.policy.label().to_string(),
                norm(point.load_factor),
                point.offered.to_string(),
                point.completed.to_string(),
                point.dropped.to_string(),
                pct(drop_rate),
                norm(point.goodput_per_mcycle),
                point.makespan_cycles.to_string(),
            ]);
        }
        table
    }

    /// Renders per-tenant translation counters of the highest-load
    /// round-robin point (raw events behind the SLO numbers).
    #[must_use]
    pub fn counters_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Serving per-tenant translation counters (round-robin, peak load)",
            &[
                "Tenant",
                "Shape",
                "Requests",
                "TLB hit rate",
                "Stall p99",
                "Peak queue depth",
            ],
        );
        let Some(peak) = self
            .points
            .iter()
            .filter(|p| p.policy == ServingPolicy::RoundRobin)
            .map(|p| p.load_factor)
            .fold(None, |max: Option<f64>, load| {
                Some(max.map_or(load, |m| m.max(load)))
            })
        else {
            return table;
        };
        let fmt = |p: Option<u64>| p.map_or_else(|| "-".to_string(), |v| v.to_string());
        for row in self.rows_of(ServingPolicy::RoundRobin, peak) {
            table.push_row(&[
                row.tenant_label.clone(),
                row.shape.to_string(),
                row.translation_requests.to_string(),
                pct(row.tlb_hit_rate),
                fmt(row.stall_p99),
                row.peak_depth.to_string(),
            ]);
        }
        table
    }
}

/// Runs the load × policy sweep.
///
/// One parallel job per `(policy, load)` point. Job order is policy-major,
/// load-minor; results are reassembled in job-index order so the artifact is
/// independent of thread count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn serving_sweep_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<ServingSweepResult, SimError> {
    let policies = policies(scale);
    let loads = load_factors(scale);
    let txns_per_request = point_config(scale, ServingPolicy::RoundRobin).txns_per_request;
    let grid: Vec<(ServingPolicy, f64)> = policies
        .iter()
        .flat_map(|&policy| loads.iter().map(move |&load| (policy, load)))
        .collect();
    let results = runner.run_jobs("serving/point", grid.len(), |i| {
        let (policy, load) = grid[i];
        let config = point_config(scale, policy);
        let population = tenant_population(scale, load, config.txns_per_request);
        ServingSimulator::new(config).run(&population)
    })?;

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (&(policy, load_factor), result) in grid.iter().zip(&results) {
        points.push(ServingPointSummary {
            policy,
            load_factor,
            offered: result.offered_requests(),
            completed: result.completed_requests(),
            dropped: result.stats.iter().map(|s| s.queue.dropped).sum(),
            makespan_cycles: result.makespan_cycles,
            goodput_per_mcycle: result.goodput_per_mcycle(),
            timeline: result.timeline.clone(),
        });
        for (tenant_index, (spec, stats)) in result.tenants.iter().zip(&result.stats).enumerate() {
            rows.push(ServingSloRow {
                policy,
                load_factor,
                tenant_index,
                tenant_label: spec.label(),
                shape: spec.arrivals.shape.label(),
                weight: spec.weight,
                offered: stats.queue.offered,
                completed: stats.queue.completed,
                dropped: stats.queue.dropped,
                peak_depth: stats.queue.peak_depth,
                sojourn_p50: stats.sojourn.p50(),
                sojourn_p99: stats.sojourn.p99(),
                sojourn_p999: stats.sojourn.p999(),
                sojourn_max: stats.sojourn.max(),
                stall_p99: stats.stall.p99(),
                translation_requests: stats.translation.requests,
                tlb_hit_rate: stats.translation.tlb_hit_rate(),
            });
        }
    }
    Ok(ServingSweepResult {
        tenant_count: tenant_count(scale),
        txns_per_request,
        horizon_cycles: horizon_cycles(scale),
        rows,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: ExperimentScale = ExperimentScale::Smoke;

    #[test]
    fn sweep_shapes_follow_the_scale() {
        assert_eq!(policies(SMOKE).len(), 4);
        assert_eq!(load_factors(SMOKE), vec![0.6, 1.8]);
        assert_eq!(tenant_count(ExperimentScale::Full), 32);
        assert_eq!(load_factors(ExperimentScale::Full), vec![0.5, 1.0, 2.0]);
        let population = tenant_population(SMOKE, 1.0, 32);
        assert_eq!(population.len(), 4);
        // Heterogeneity: all three arrival shapes appear, weights cycle.
        let shapes: Vec<&str> = population
            .iter()
            .map(|t| t.arrivals.shape.label())
            .collect();
        assert_eq!(shapes, ["poisson", "bursty", "diurnal", "poisson"]);
        assert_eq!(population[0].weight, 1);
        assert_eq!(population[3].weight, 4);
        // Seeds are decorrelated lanes of the family seed.
        assert_ne!(population[0].arrivals.seed, population[1].arrivals.seed);
    }

    #[test]
    fn smoke_sweep_produces_slo_artifacts() {
        let result = serving_sweep_on(&ExperimentRunner::serial(), SMOKE).unwrap();
        assert_eq!(result.points.len(), 4 * 2);
        assert_eq!(result.rows.len(), 4 * 2 * 4);
        for point in &result.points {
            assert!(
                point.offered > 0,
                "{} offered nothing",
                point.policy.label()
            );
            assert!(
                point.completed > 0,
                "{} completed nothing",
                point.policy.label()
            );
            assert!(!point.timeline.is_empty());
            // Conservation at drain: every offered request either completed
            // or was shed by the bounded queue.
            assert_eq!(point.offered, point.completed + point.dropped);
        }
        // Overload sheds load: the 1.8× points drop requests, the 0.6×
        // points drop (almost) none and complete more than they drop.
        let under: Vec<&ServingPointSummary> = result
            .points
            .iter()
            .filter(|p| p.load_factor < 1.0)
            .collect();
        let over: Vec<&ServingPointSummary> = result
            .points
            .iter()
            .filter(|p| p.load_factor > 1.0)
            .collect();
        let under_drop: u64 = under.iter().map(|p| p.dropped).sum();
        let over_drop: u64 = over.iter().map(|p| p.dropped).sum();
        assert!(
            over_drop > under_drop,
            "overload must shed more ({over_drop} vs {under_drop})"
        );
        // SLO percentiles are populated and ordered for every tenant that
        // completed requests.
        for row in &result.rows {
            if row.completed > 0 {
                let (p50, p99, p999) = (
                    row.sojourn_p50.unwrap(),
                    row.sojourn_p99.unwrap(),
                    row.sojourn_p999.unwrap(),
                );
                assert!(p50 <= p99 && p99 <= p999 && p999 <= row.sojourn_max);
            }
        }
        // Tables render with the expected shapes.
        assert_eq!(result.slo_table().rows().len(), 4 * 4);
        assert_eq!(result.goodput_table().rows().len(), 8);
        assert_eq!(result.counters_table().rows().len(), 4);
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let serial = serving_sweep_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        let parallel = serving_sweep_on(&ExperimentRunner::new(4), SMOKE).unwrap();
        assert_eq!(serial, parallel);
    }
}
