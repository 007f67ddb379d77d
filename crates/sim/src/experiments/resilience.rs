//! The resilience experiment family: fault-rate × recovery-mechanism sweeps.
//!
//! Where [`crate::experiments::serving`] asks how a *healthy* front end
//! behaves under load, this family asks the availability question: when the
//! translation device itself misbehaves — walks time out, host fault
//! responses get dropped, PTE reads come back corrupted, walker lanes wedge —
//! **how much goodput does each recovery mechanism buy back, and what does it
//! cost when nothing is wrong?** Every sweep point runs the same open-loop
//! tenant population at a fixed 1.2× overload through one shared NeuMMU
//! engine with a seeded [`DeviceFaultConfig`], varying only the injected
//! fault rate and which mechanisms are armed:
//!
//! * `all-off` — no recovery at all: faulted walks ride to the livelock
//!   detector's bound and report translation faults (the honesty baseline —
//!   it may spend most of its makespan livelock-detecting),
//! * one point per single mechanism — bounded retry, walker-pool watchdog,
//!   walker quarantine, fault-response retransmit, per-tenant circuit
//!   breaker — isolating each mechanism's contribution,
//! * `all-on` — the full recovery stack.
//!
//! The artifacts are availability/goodput curves per mechanism, exact
//! (nearest-rank, never interpolated) recovery-latency percentiles rebuilt
//! from the engine's [`FaultCounters`], and a faults-disabled overhead table
//! comparing every mechanism's zero-rate point against the `all-off`
//! zero-rate baseline. Everything is deterministic: fault plans and arrival
//! streams derive from fixed base seeds via [`derive_seed`], so the family's
//! artifacts are byte-identical across thread counts and store-resumed runs.

use std::collections::BTreeMap;

use serde::Serialize;

use neummu_mmu::{
    DeviceFaultConfig, FaultCounters, FaultKind, FaultRate, MmuConfig, ResilienceConfig,
};

use crate::error::SimError;
use crate::experiments::ExperimentScale;
use crate::report::{norm, pct, ResultTable};
use crate::runner::ExperimentRunner;
use crate::serving::{
    derive_seed, ArrivalConfig, ArrivalShape, CircuitBreakerConfig, LatencyHistogram,
    ServingConfig, ServingSimulator, ServingTenantSpec,
};

/// Base seed of the family's arrival streams (each tenant's lane seed derives
/// from it via [`derive_seed`]; deliberately distinct from the serving
/// family's seed so the two populations are decorrelated).
pub const ARRIVAL_SEED: u64 = 0x0FA1_7ED0_0D15_EA5E;

/// Base seed of the family's fault plans (each sweep point's plan seed
/// derives from it via [`derive_seed`] over the point's grid index).
pub const FAULT_SEED: u64 = 0x0BAD_DE1C_E000_5EED;

/// One armed recovery-mechanism set of the sweep, in artifact order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Mechanism {
    /// No recovery: every injected fault rides to the livelock bound.
    AllOff,
    /// Bounded retry with exponential backoff only.
    RetryOnly,
    /// Walker-pool watchdog only.
    WatchdogOnly,
    /// Walker quarantine only (the livelock detector still identifies the
    /// wedged lane and parks it, but without the watchdog the stuck walk
    /// itself is reported hung).
    QuarantineOnly,
    /// Fault-response retransmit only.
    RetransmitOnly,
    /// Per-tenant circuit breaker only (serving-plane degradation; the
    /// engine itself recovers nothing).
    BreakerOnly,
    /// The full recovery stack: retry + watchdog + quarantine + retransmit
    /// + circuit breaker.
    AllOn,
}

impl Mechanism {
    /// Every mechanism set, in artifact order.
    pub const ALL: [Mechanism; 7] = [
        Mechanism::AllOff,
        Mechanism::RetryOnly,
        Mechanism::WatchdogOnly,
        Mechanism::QuarantineOnly,
        Mechanism::RetransmitOnly,
        Mechanism::BreakerOnly,
        Mechanism::AllOn,
    ];

    /// Stable artifact label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::AllOff => "all-off",
            Mechanism::RetryOnly => "retry",
            Mechanism::WatchdogOnly => "watchdog",
            Mechanism::QuarantineOnly => "quarantine",
            Mechanism::RetransmitOnly => "retransmit",
            Mechanism::BreakerOnly => "breaker",
            Mechanism::AllOn => "all-on",
        }
    }

    /// The engine-side resilience configuration this set arms.
    #[must_use]
    pub fn resilience(self) -> ResilienceConfig {
        match self {
            Mechanism::AllOff | Mechanism::BreakerOnly => ResilienceConfig::all_off(),
            Mechanism::RetryOnly => ResilienceConfig::all_off().with_retry(true),
            Mechanism::WatchdogOnly => ResilienceConfig::all_off().with_watchdog(true),
            Mechanism::QuarantineOnly => ResilienceConfig::all_off().with_quarantine(true),
            Mechanism::RetransmitOnly => ResilienceConfig::all_off().with_retransmit(true),
            Mechanism::AllOn => ResilienceConfig::all_on(),
        }
    }

    /// Whether this set arms the serving-plane circuit breaker.
    #[must_use]
    pub fn uses_breaker(self) -> bool {
        matches!(self, Mechanism::BreakerOnly | Mechanism::AllOn)
    }
}

/// The mechanism sets swept at each scale, in artifact order.
#[must_use]
pub fn mechanisms(scale: ExperimentScale) -> Vec<Mechanism> {
    match scale {
        ExperimentScale::Full => Mechanism::ALL.to_vec(),
        ExperimentScale::Smoke => vec![Mechanism::AllOff, Mechanism::RetryOnly, Mechanism::AllOn],
    }
}

/// The per-walk fault rates swept at each scale (`0.0` is the
/// faults-disabled overhead point).
#[must_use]
pub fn fault_rates(scale: ExperimentScale) -> Vec<f64> {
    match scale {
        ExperimentScale::Full => vec![0.0, 0.002, 0.02],
        ExperimentScale::Smoke => vec![0.0, 0.02],
    }
}

/// Tenants per sweep point at each scale.
#[must_use]
pub fn tenant_count(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Full => 8,
        ExperimentScale::Smoke => 3,
    }
}

/// Arrival horizon (cycles of open-loop traffic) at each scale.
#[must_use]
pub fn horizon_cycles(scale: ExperimentScale) -> u64 {
    match scale {
        ExperimentScale::Full => 1_000_000,
        ExperimentScale::Smoke => 20_000,
    }
}

/// Offered-load factor of every sweep point: a mild 1.2× overload, so shed
/// capacity (not idle slack) absorbs recovery latency and the availability
/// curves have something to lose.
#[must_use]
pub fn load_factor(_scale: ExperimentScale) -> f64 {
    1.2
}

/// The circuit-breaker configuration of the breaker-armed mechanism sets.
#[must_use]
pub fn breaker(scale: ExperimentScale) -> CircuitBreakerConfig {
    match scale {
        ExperimentScale::Full => CircuitBreakerConfig {
            sojourn_slo_p99_cycles: 50_000,
            window_requests: 64,
            cooldown_cycles: 50_000,
        },
        ExperimentScale::Smoke => CircuitBreakerConfig {
            sojourn_slo_p99_cycles: 5_000,
            window_requests: 8,
            cooldown_cycles: 4_000,
        },
    }
}

/// The seeded device-fault plan of one sweep point. All four fault kinds run
/// at `rate`; the walker-stuck lane additionally injects in bursts of two,
/// exercising the per-kind burst knob.
#[must_use]
pub fn device_faults(seed: u64, rate: f64) -> DeviceFaultConfig {
    DeviceFaultConfig::uniform(seed, rate)
        .with_kind(FaultKind::WalkerStuck, FaultRate::bursty(rate, 2))
}

/// The serving configuration of one sweep point.
#[must_use]
pub fn point_config(
    scale: ExperimentScale,
    mechanism: Mechanism,
    faults: DeviceFaultConfig,
) -> ServingConfig {
    let mut config =
        ServingConfig::with_mmu(MmuConfig::neummu()).with_faults(faults, mechanism.resilience());
    if mechanism.uses_breaker() {
        config = config.with_breaker(breaker(scale));
    }
    match scale {
        ExperimentScale::Full => config,
        ExperimentScale::Smoke => config
            .with_burst(16)
            .with_txns_per_request(32)
            .with_queue_depth(8)
            .with_sample_interval(4096),
    }
}

/// The deterministic tenant population shared by every sweep point (arrival
/// streams are identical across points, so curves differ only by fault rate
/// and mechanism set): workloads cycle the scale's suite, arrival shapes
/// cycle Poisson → bursty → diurnal, weights cycle 1..=4.
#[must_use]
pub fn tenant_population(scale: ExperimentScale, txns_per_request: u64) -> Vec<ServingTenantSpec> {
    let workloads = scale.workloads();
    let count = tenant_count(scale);
    let horizon = horizon_cycles(scale);
    let rate_per_mcycle = load_factor(scale) * 1e6 / (count as f64 * txns_per_request as f64);
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

/// One sweep point: availability, goodput and exact fault accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResiliencePointRow {
    /// Armed mechanism set of the point.
    pub mechanism: Mechanism,
    /// Per-walk fault rate of the point.
    pub fault_rate: f64,
    /// Requests offered to the admission queues (post-breaker).
    pub offered: u64,
    /// Requests whose service completed.
    pub completed: u64,
    /// Requests shed by the bounded queues.
    pub dropped: u64,
    /// Arrivals shed by open circuit breakers (never offered).
    pub shed: u64,
    /// Completed fraction of all generated arrivals
    /// (`completed / (offered + shed)`).
    pub availability: f64,
    /// Completed requests per Mcycle of makespan.
    pub goodput_per_mcycle: f64,
    /// Cycle at which the last completed request's data arrived.
    pub makespan_cycles: u64,
    /// Faults the plan injected.
    pub injected: u64,
    /// Injected faults a mechanism detected (recovered or cleanly failed).
    pub detected: u64,
    /// Detected faults whose walk still completed with a valid translation.
    pub recovered: u64,
    /// Injected faults that rode to the livelock detector's bound.
    pub hung: u64,
    /// Exact nearest-rank p50 of recovery latency (extra cycles beyond the
    /// fault-free walk), over recovered faults; `None` when none recovered.
    pub recovery_p50: Option<u64>,
    /// Exact nearest-rank p99 of recovery latency.
    pub recovery_p99: Option<u64>,
    /// Worst observed recovery latency.
    pub recovery_max: u64,
    /// Exact recovery-latency histogram (`extra cycles → count`), the raw
    /// data behind the percentiles.
    pub recovery_latency: BTreeMap<u64, u64>,
    /// Times any tenant's circuit breaker opened.
    pub breaker_trips: u64,
}

/// Per-fault-kind accounting of one sweep point (emitted for points that
/// injected at least one fault).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceKindRow {
    /// Armed mechanism set of the point.
    pub mechanism: Mechanism,
    /// Per-walk fault rate of the point.
    pub fault_rate: f64,
    /// Fault-kind label (`timeout` / `dropped` / `transient` / `stuck`).
    pub kind: &'static str,
    /// Faults of this kind the plan injected.
    pub injected: u64,
    /// Injected faults of this kind a mechanism detected.
    pub detected: u64,
    /// Detected faults of this kind whose walk still completed.
    pub recovered: u64,
    /// Faults of this kind that rode to the livelock bound.
    pub hung: u64,
}

/// The complete fault-rate × mechanism sweep result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceSweepResult {
    /// Tenants per point.
    pub tenant_count: usize,
    /// Arrival horizon per point.
    pub horizon_cycles: u64,
    /// Offered-load factor of every point.
    pub load_factor: f64,
    /// One row per `(mechanism, rate)` point, mechanism-major.
    pub points: Vec<ResiliencePointRow>,
    /// Per-kind rows of every point that injected faults.
    pub kinds: Vec<ResilienceKindRow>,
}

impl ResilienceSweepResult {
    /// The zero-rate row of one mechanism set, if swept.
    fn zero_rate_point(&self, mechanism: Mechanism) -> Option<&ResiliencePointRow> {
        self.points
            .iter()
            .find(|p| p.mechanism == mechanism && p.fault_rate == 0.0)
    }

    /// Renders the availability/goodput curve: one row per sweep point.
    #[must_use]
    pub fn availability_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            format!(
                "Resilience availability under injected device faults ({} tenants, {:.1}x load)",
                self.tenant_count, self.load_factor
            ),
            &[
                "Mechanism",
                "Rate",
                "Offered",
                "Completed",
                "Dropped",
                "Shed",
                "Availability",
                "Goodput/Mcycle",
                "Makespan",
                "Breaker trips",
            ],
        );
        for point in &self.points {
            table.push_row(&[
                point.mechanism.label().to_string(),
                norm(point.fault_rate),
                point.offered.to_string(),
                point.completed.to_string(),
                point.dropped.to_string(),
                point.shed.to_string(),
                pct(point.availability),
                norm(point.goodput_per_mcycle),
                point.makespan_cycles.to_string(),
                point.breaker_trips.to_string(),
            ]);
        }
        table
    }

    /// Renders the exact recovery accounting of every fault-injecting point:
    /// injected/detected/recovered/hung totals and nearest-rank
    /// recovery-latency percentiles.
    #[must_use]
    pub fn recovery_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Resilience recovery latency (exact nearest-rank, extra cycles beyond the fault-free walk)",
            &[
                "Mechanism",
                "Rate",
                "Injected",
                "Detected",
                "Recovered",
                "Hung",
                "p50",
                "p99",
                "Max",
            ],
        );
        let fmt = |p: Option<u64>| p.map_or_else(|| "-".to_string(), |v| v.to_string());
        for point in self.points.iter().filter(|p| p.injected > 0) {
            table.push_row(&[
                point.mechanism.label().to_string(),
                norm(point.fault_rate),
                point.injected.to_string(),
                point.detected.to_string(),
                point.recovered.to_string(),
                point.hung.to_string(),
                fmt(point.recovery_p50),
                fmt(point.recovery_p99),
                point.recovery_max.to_string(),
            ]);
        }
        table
    }

    /// Renders the faults-disabled overhead of every mechanism set: its
    /// zero-rate point against the `all-off` zero-rate baseline. With every
    /// rate at zero the fault plan is disarmed and the engine's fault gate is
    /// one dead branch, so any engine-side delta here is a regression; only
    /// the breaker-armed sets may legitimately differ (they shed on SLO, not
    /// on faults).
    #[must_use]
    pub fn overhead_table(&self) -> ResultTable {
        let mut table = ResultTable::new(
            "Resilience mechanism overhead with faults disabled (vs all-off baseline)",
            &[
                "Mechanism",
                "Completed",
                "Makespan",
                "Makespan delta",
                "Goodput/Mcycle",
                "Goodput delta",
            ],
        );
        let Some(baseline) = self.zero_rate_point(Mechanism::AllOff) else {
            return table;
        };
        for mechanism in Mechanism::ALL {
            let Some(point) = self.zero_rate_point(mechanism) else {
                continue;
            };
            let makespan_delta = if baseline.makespan_cycles == 0 {
                0.0
            } else {
                point.makespan_cycles as f64 / baseline.makespan_cycles as f64 - 1.0
            };
            let goodput_delta = if baseline.goodput_per_mcycle == 0.0 {
                0.0
            } else {
                point.goodput_per_mcycle / baseline.goodput_per_mcycle - 1.0
            };
            table.push_row(&[
                mechanism.label().to_string(),
                point.completed.to_string(),
                point.makespan_cycles.to_string(),
                pct(makespan_delta),
                norm(point.goodput_per_mcycle),
                pct(goodput_delta),
            ]);
        }
        table
    }
}

/// Runs the fault-rate × mechanism sweep.
///
/// One parallel job per `(mechanism, rate)` point. Job order is
/// mechanism-major, rate-minor; results are reassembled in job-index order
/// so the artifact is independent of thread count.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn resilience_sweep_on(
    runner: &ExperimentRunner,
    scale: ExperimentScale,
) -> Result<ResilienceSweepResult, SimError> {
    let mechanisms = mechanisms(scale);
    let rates = fault_rates(scale);
    let grid: Vec<(Mechanism, f64)> = mechanisms
        .iter()
        .flat_map(|&mechanism| rates.iter().map(move |&rate| (mechanism, rate)))
        .collect();
    let results = runner.run_jobs("resilience/point", grid.len(), |i| {
        let (mechanism, rate) = grid[i];
        let faults = device_faults(derive_seed(FAULT_SEED, i as u64), rate);
        let config = point_config(scale, mechanism, faults);
        let population = tenant_population(scale, config.txns_per_request);
        ServingSimulator::new(config).run(&population)
    })?;

    let mut points = Vec::new();
    let mut kinds = Vec::new();
    for (&(mechanism, fault_rate), result) in grid.iter().zip(&results) {
        let counters = result
            .fault_counters
            .as_ref()
            .cloned()
            .unwrap_or_else(FaultCounters::default);
        // Rebuild the exact recovery histogram from the engine's
        // pre-counted `(extra cycles → count)` map; nearest-rank
        // percentiles then come from the same machinery as the SLO tables.
        let mut recovery = LatencyHistogram::new();
        for (&latency, &count) in &counters.recovery_latency {
            recovery.record_n(latency, count);
        }
        let offered = result.offered_requests();
        let shed = result.shed_requests();
        let completed = result.completed_requests();
        let generated = offered + shed;
        points.push(ResiliencePointRow {
            mechanism,
            fault_rate,
            offered,
            completed,
            dropped: result.stats.iter().map(|s| s.queue.dropped).sum(),
            shed,
            availability: if generated == 0 {
                0.0
            } else {
                completed as f64 / generated as f64
            },
            goodput_per_mcycle: result.goodput_per_mcycle(),
            makespan_cycles: result.makespan_cycles,
            injected: counters.total_injected(),
            detected: counters.total_detected(),
            recovered: counters.total_recovered(),
            hung: counters.total_hung(),
            recovery_p50: recovery.p50(),
            recovery_p99: recovery.p99(),
            recovery_max: recovery.max(),
            recovery_latency: counters.recovery_latency.clone(),
            breaker_trips: result.breaker_trips(),
        });
        if counters.total_injected() > 0 {
            for kind in FaultKind::ALL {
                kinds.push(ResilienceKindRow {
                    mechanism,
                    fault_rate,
                    kind: kind.label(),
                    injected: counters.injected[kind.index()],
                    detected: counters.detected[kind.index()],
                    recovered: counters.recovered[kind.index()],
                    hung: counters.hung[kind.index()],
                });
            }
        }
    }
    Ok(ResilienceSweepResult {
        tenant_count: tenant_count(scale),
        horizon_cycles: horizon_cycles(scale),
        load_factor: load_factor(scale),
        points,
        kinds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: ExperimentScale = ExperimentScale::Smoke;

    #[test]
    fn sweep_shapes_follow_the_scale() {
        assert_eq!(mechanisms(SMOKE).len(), 3);
        assert_eq!(fault_rates(SMOKE), vec![0.0, 0.02]);
        assert_eq!(mechanisms(ExperimentScale::Full).len(), 7);
        assert_eq!(fault_rates(ExperimentScale::Full), vec![0.0, 0.002, 0.02]);
        assert_eq!(tenant_count(ExperimentScale::Full), 8);
        let population = tenant_population(SMOKE, 32);
        assert_eq!(population.len(), 3);
        // All three arrival shapes appear; seeds are decorrelated lanes.
        let shapes: Vec<&str> = population
            .iter()
            .map(|t| t.arrivals.shape.label())
            .collect();
        assert_eq!(shapes, ["poisson", "bursty", "diurnal"]);
        assert_ne!(population[0].arrivals.seed, population[1].arrivals.seed);
        // The resilience population is decorrelated from the serving family.
        assert_ne!(
            population[0].arrivals.seed,
            crate::experiments::serving::tenant_population(SMOKE, 1.2, 32)[0]
                .arrivals
                .seed
        );
        // Mechanism sets arm what their names say.
        assert!(!Mechanism::AllOff.resilience().retry);
        assert!(Mechanism::RetryOnly.resilience().retry);
        assert!(!Mechanism::RetryOnly.resilience().watchdog);
        assert!(Mechanism::AllOn.resilience().quarantine);
        assert!(Mechanism::BreakerOnly.uses_breaker());
        assert!(!Mechanism::RetryOnly.uses_breaker());
    }

    #[test]
    fn smoke_sweep_produces_resilience_artifacts() {
        let result = resilience_sweep_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        assert_eq!(result.points.len(), 3 * 2);
        for point in &result.points {
            // Conservation at drain: every offered request either completed
            // or was shed by the bounded queue.
            assert_eq!(
                point.offered,
                point.completed + point.dropped,
                "{} rate {} leaked requests",
                point.mechanism.label(),
                point.fault_rate
            );
            // Fault accounting: every injected fault is either detected
            // (recovered or cleanly failed) or hung at the livelock bound.
            assert_eq!(point.injected, point.detected + point.hung);
            assert!(point.recovered <= point.detected);
            if point.fault_rate == 0.0 {
                assert_eq!(point.injected, 0, "zero-rate point injected faults");
            } else {
                assert!(point.injected > 0, "fault point injected nothing");
            }
        }
        // The all-off baseline livelock-detects under faults; the full
        // recovery stack never hangs a walk.
        let faulted = |mechanism: Mechanism| {
            result
                .points
                .iter()
                .find(|p| p.mechanism == mechanism && p.fault_rate > 0.0)
                .unwrap()
        };
        assert!(faulted(Mechanism::AllOff).hung > 0);
        assert_eq!(faulted(Mechanism::AllOff).recovered, 0);
        assert_eq!(faulted(Mechanism::AllOn).hung, 0);
        assert!(faulted(Mechanism::AllOn).recovered > 0);
        assert!(faulted(Mechanism::AllOn).recovery_p50.is_some());
        // Recovery buys availability back.
        assert!(
            faulted(Mechanism::AllOn).availability > faulted(Mechanism::AllOff).availability,
            "recovery stack must out-complete the all-off baseline"
        );
        // Per-kind rows cover every kind of every fault-injecting point, and
        // their totals match the point rows.
        for point in result.points.iter().filter(|p| p.injected > 0) {
            let of_point: Vec<&ResilienceKindRow> = result
                .kinds
                .iter()
                .filter(|k| k.mechanism == point.mechanism && k.fault_rate == point.fault_rate)
                .collect();
            assert_eq!(of_point.len(), 4);
            assert_eq!(
                of_point.iter().map(|k| k.injected).sum::<u64>(),
                point.injected
            );
            assert_eq!(of_point.iter().map(|k| k.hung).sum::<u64>(), point.hung);
        }
        // Tables render with the expected shapes.
        assert_eq!(result.availability_table().rows().len(), 6);
        assert_eq!(result.recovery_table().rows().len(), 3);
        assert_eq!(result.overhead_table().rows().len(), 3);
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let serial = resilience_sweep_on(&ExperimentRunner::new(1), SMOKE).unwrap();
        let parallel = resilience_sweep_on(&ExperimentRunner::new(4), SMOKE).unwrap();
        assert_eq!(serial, parallel);
    }
}
