//! Seeded, cycle-deterministic device-fault model for the NeuMMU translation
//! stack.
//!
//! The paper's evaluation assumes a *perfect* device: every page walk
//! completes, every fault response arrives, every walker stays healthy
//! forever. This crate supplies the turbulence. A [`DeviceFaultPlan`] is pure
//! data plus a splitmix64 counter — no wall clock, no environment, no
//! `RandomState` — so the same seed produces the same fault schedule on every
//! run, every thread count, every platform. That is what lets the
//! `resilience` experiment family demand byte-identical artifacts across
//! `--threads 1` and `--threads 4`.
//!
//! Four fault kinds are modeled (see [`FaultKind`]):
//!
//! * **Walk timeouts** — a page walk stops making progress and the timeout
//!   detector fires after a configured number of cycles.
//! * **Dropped responses** — the walk completes but its completion response
//!   to the host fault-handling path is lost in transit.
//! * **Transient translation errors** — the walker reads a wrong-but-detected
//!   PTE (caught by an integrity check, so always *detected*, never silent).
//! * **Stuck walkers** — a walker lane hard-fails mid-walk and holds its walk
//!   until a watchdog (if enabled) requeues it.
//!
//! Each kind has an independent Bernoulli rate and a burst knob: when a draw
//! strikes with `burst = n`, the next `n - 1` draws of the same kind strike
//! unconditionally, modeling correlated fault storms rather than memoryless
//! noise.
//!
//! # Analytic resolution
//!
//! The translation engine resolves every injected fault *at walk-admission
//! time*: [`DeviceFaultPlan::draw_walk`] combines the struck fault kind with
//! the enabled [`ResilienceConfig`] mechanisms and returns an
//! [`InjectedFault`] carrying the walk's final total latency, whether it
//! ultimately failed, whether it hung until the livelock bound, whether a
//! mechanism recovered it, and whether the walker must be quarantined. The
//! engine then admits a single walk with that perturbed latency. Because the
//! perturbed completion cycle is fixed before any request (or PRMB merge)
//! attaches to the walk, conservation — no request lost, no request
//! duplicated — holds structurally under every fault mix: a fault can only
//! ever *delay* or *fail* a walk, never detach its riders.
//!
//! Accounting is exact: [`FaultCounters`] tracks injected / detected /
//! recovered / hung per kind, plus a recovery-latency histogram (extra cycles
//! beyond the fault-free walk latency) keyed by exact cycle counts.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;

/// Number of distinct fault kinds; the length of [`FaultKind::ALL`].
pub const FAULT_KINDS: usize = 4;

/// A kind of injectable device fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultKind {
    /// A page walk stops making progress; the timeout detector (if the retry
    /// mechanism is enabled) notices after `timeout_cycles`.
    WalkTimeout,
    /// The walk completes but its page-fault-handling response to the host is
    /// dropped in transit; only a retransmit bounds the stall.
    DroppedResponse,
    /// A wrong-but-detected PTE read: an integrity check catches the bad
    /// entry, so this kind is always detected even with every mechanism off.
    TransientError,
    /// A walker lane hard-fails and holds its walk; only the watchdog can
    /// requeue it, and quarantine (if enabled) parks the lane afterwards.
    WalkerStuck,
}

impl FaultKind {
    /// Every fault kind, in stable index order.
    pub const ALL: [FaultKind; FAULT_KINDS] = [
        FaultKind::WalkTimeout,
        FaultKind::DroppedResponse,
        FaultKind::TransientError,
        FaultKind::WalkerStuck,
    ];

    /// Stable index of this kind into per-kind counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultKind::WalkTimeout => 0,
            FaultKind::DroppedResponse => 1,
            FaultKind::TransientError => 2,
            FaultKind::WalkerStuck => 3,
        }
    }

    /// Short stable label, used in trace event kinds (`fault/<label>/...`)
    /// and report tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::WalkTimeout => "timeout",
            FaultKind::DroppedResponse => "dropped",
            FaultKind::TransientError => "transient",
            FaultKind::WalkerStuck => "stuck",
        }
    }
}

/// Per-kind injection knobs: a Bernoulli rate and a burst length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultRate {
    /// Probability in `[0.0, 1.0]` that a walk admission draws this fault.
    pub rate: f64,
    /// Burst length: when a draw strikes, the next `burst - 1` draws of the
    /// same kind strike unconditionally. `1` means memoryless injection.
    pub burst: u32,
}

impl FaultRate {
    /// A disarmed rate: never strikes.
    pub const ZERO: FaultRate = FaultRate {
        rate: 0.0,
        burst: 1,
    };

    /// Memoryless injection at `rate`.
    pub fn of(rate: f64) -> FaultRate {
        FaultRate { rate, burst: 1 }
    }

    /// Bursty injection: `rate` to open a burst of `burst` strikes.
    pub fn bursty(rate: f64, burst: u32) -> FaultRate {
        FaultRate { rate, burst }
    }
}

impl Default for FaultRate {
    fn default() -> Self {
        FaultRate::ZERO
    }
}

/// Validation failure for a fault or resilience configuration.
///
/// Mirrors the shape of `SimError::InvalidConfig`: a single human-readable
/// reason naming the offending knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Why the configuration was rejected.
    pub reason: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault config: {}", self.reason)
    }
}

impl std::error::Error for FaultError {}

fn invalid<T>(reason: String) -> Result<T, FaultError> {
    Err(FaultError { reason })
}

/// Seeded device-fault injection rates, one [`FaultRate`] per kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceFaultConfig {
    /// Seed for the per-kind splitmix64 draw streams.
    pub seed: u64,
    /// Rate/burst for [`FaultKind::WalkTimeout`].
    pub walk_timeout: FaultRate,
    /// Rate/burst for [`FaultKind::DroppedResponse`].
    pub dropped_response: FaultRate,
    /// Rate/burst for [`FaultKind::TransientError`].
    pub transient_error: FaultRate,
    /// Rate/burst for [`FaultKind::WalkerStuck`].
    pub walker_stuck: FaultRate,
}

impl DeviceFaultConfig {
    /// A disarmed config: all rates zero. A plan built from this never
    /// injects and a simulation running it is bit-identical to one with no
    /// plan attached at all.
    pub fn none(seed: u64) -> DeviceFaultConfig {
        DeviceFaultConfig {
            seed,
            walk_timeout: FaultRate::ZERO,
            dropped_response: FaultRate::ZERO,
            transient_error: FaultRate::ZERO,
            walker_stuck: FaultRate::ZERO,
        }
    }

    /// Memoryless injection of every kind at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> DeviceFaultConfig {
        DeviceFaultConfig {
            seed,
            walk_timeout: FaultRate::of(rate),
            dropped_response: FaultRate::of(rate),
            transient_error: FaultRate::of(rate),
            walker_stuck: FaultRate::of(rate),
        }
    }

    /// Builder: replace the rate for one kind.
    pub fn with_kind(mut self, kind: FaultKind, rate: FaultRate) -> DeviceFaultConfig {
        match kind {
            FaultKind::WalkTimeout => self.walk_timeout = rate,
            FaultKind::DroppedResponse => self.dropped_response = rate,
            FaultKind::TransientError => self.transient_error = rate,
            FaultKind::WalkerStuck => self.walker_stuck = rate,
        }
        self
    }

    /// The rate configured for `kind`.
    pub fn rate_for(&self, kind: FaultKind) -> FaultRate {
        match kind {
            FaultKind::WalkTimeout => self.walk_timeout,
            FaultKind::DroppedResponse => self.dropped_response,
            FaultKind::TransientError => self.transient_error,
            FaultKind::WalkerStuck => self.walker_stuck,
        }
    }

    /// True when every rate is exactly zero (the plan is disarmed).
    pub fn is_zero(&self) -> bool {
        FaultKind::ALL.iter().all(|&k| self.rate_for(k).rate == 0.0)
    }

    /// Reject NaN, negative and above-unity rates, and zero burst lengths.
    pub fn validate(&self) -> Result<(), FaultError> {
        for kind in FaultKind::ALL {
            let FaultRate { rate, burst } = self.rate_for(kind);
            if !rate.is_finite() {
                return invalid(format!(
                    "{} fault rate must be finite, got {rate}",
                    kind.label()
                ));
            }
            if !(0.0..=1.0).contains(&rate) {
                return invalid(format!(
                    "{} fault rate must be in [0, 1], got {rate}",
                    kind.label()
                ));
            }
            if burst == 0 {
                return invalid(format!(
                    "{} fault burst must be at least 1, got 0",
                    kind.label()
                ));
            }
        }
        Ok(())
    }
}

/// Which recovery mechanisms are armed and their cycle budgets.
///
/// Every cycle knob must be positive — a zero-cycle timeout or backoff would
/// model an impossible instantaneous detector — and the livelock bound must
/// exceed both detection delays, because an *undetected* fault is by
/// definition the one the enabled mechanisms never noticed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ResilienceConfig {
    /// Bounded retry with exponential backoff for timed-out walks and
    /// transient PTE errors.
    pub retry: bool,
    /// Maximum retry (and retransmit) attempts after the initial try.
    pub max_retries: u32,
    /// Backoff before retry attempt `n` is `backoff_base_cycles << n`.
    pub backoff_base_cycles: u64,
    /// Cycles before a non-progressing walk is declared timed out.
    pub timeout_cycles: u64,
    /// Walker-pool watchdog: detects stuck walks and requeues their
    /// PRMB-merged requests onto a healthy re-walk.
    pub watchdog: bool,
    /// Cycles of no progress before the watchdog requeues a stuck walk.
    pub watchdog_cycles: u64,
    /// Park a hard-failed walker after its walk retires; the pool shrinks
    /// and the PTS routes around it until the cool-down expires.
    pub quarantine: bool,
    /// Cycles a quarantined walker stays parked before re-admission.
    pub quarantine_cooldown_cycles: u64,
    /// Retransmit the completion response when the host's copy was dropped.
    pub retransmit: bool,
    /// Cycles per retransmit attempt of a dropped response.
    pub retransmit_cycles: u64,
    /// With the relevant mechanism disabled, an unrecoverable fault stalls
    /// for this many cycles before the simulation's livelock detector gives
    /// up on the walk and reports it hung. Must exceed both detection
    /// delays.
    pub livelock_bound_cycles: u64,
}

impl ResilienceConfig {
    fn base() -> ResilienceConfig {
        ResilienceConfig {
            retry: false,
            max_retries: 3,
            backoff_base_cycles: 100,
            timeout_cycles: 400,
            watchdog: false,
            watchdog_cycles: 800,
            quarantine: false,
            quarantine_cooldown_cycles: 10_000,
            retransmit: false,
            retransmit_cycles: 300,
            livelock_bound_cycles: 100_000,
        }
    }

    /// Every mechanism disabled: the baseline that may livelock-detect.
    pub fn all_off() -> ResilienceConfig {
        ResilienceConfig::base()
    }

    /// Every mechanism enabled with the default cycle budgets.
    pub fn all_on() -> ResilienceConfig {
        ResilienceConfig {
            retry: true,
            watchdog: true,
            quarantine: true,
            retransmit: true,
            ..ResilienceConfig::base()
        }
    }

    /// Builder: toggle bounded retry.
    pub fn with_retry(mut self, on: bool) -> ResilienceConfig {
        self.retry = on;
        self
    }

    /// Builder: toggle the walker-pool watchdog.
    pub fn with_watchdog(mut self, on: bool) -> ResilienceConfig {
        self.watchdog = on;
        self
    }

    /// Builder: toggle walker quarantine.
    pub fn with_quarantine(mut self, on: bool) -> ResilienceConfig {
        self.quarantine = on;
        self
    }

    /// Builder: toggle response retransmit.
    pub fn with_retransmit(mut self, on: bool) -> ResilienceConfig {
        self.retransmit = on;
        self
    }

    /// Reject zero-cycle budgets, out-of-range retry counts, and a livelock
    /// bound that would fire before the detectors it backstops.
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.max_retries == 0 || self.max_retries > 16 {
            return invalid(format!(
                "max_retries must be in 1..=16, got {}",
                self.max_retries
            ));
        }
        let cycles = [
            ("backoff_base_cycles", self.backoff_base_cycles),
            ("timeout_cycles", self.timeout_cycles),
            ("watchdog_cycles", self.watchdog_cycles),
            (
                "quarantine_cooldown_cycles",
                self.quarantine_cooldown_cycles,
            ),
            ("retransmit_cycles", self.retransmit_cycles),
            ("livelock_bound_cycles", self.livelock_bound_cycles),
        ];
        for (name, value) in cycles {
            if value == 0 {
                return invalid(format!("{name} must be positive, got 0"));
            }
        }
        if self.livelock_bound_cycles <= self.timeout_cycles {
            return invalid(format!(
                "livelock_bound_cycles ({}) must exceed timeout_cycles ({})",
                self.livelock_bound_cycles, self.timeout_cycles
            ));
        }
        if self.livelock_bound_cycles <= self.watchdog_cycles {
            return invalid(format!(
                "livelock_bound_cycles ({}) must exceed watchdog_cycles ({})",
                self.livelock_bound_cycles, self.watchdog_cycles
            ));
        }
        Ok(())
    }
}

/// The resolved outcome of one injected fault, computed at walk admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct InjectedFault {
    /// Which kind struck.
    pub kind: FaultKind,
    /// Total walk latency in cycles, replacing the fault-free latency. For a
    /// recovered fault this folds in detection delay, backoff and re-walk
    /// time; for a hung fault it is the livelock bound.
    pub total_latency: u64,
    /// The walk ultimately produced no usable translation (implied by
    /// `hung`).
    pub failed: bool,
    /// No enabled mechanism ever noticed the fault; the walk stalled until
    /// the livelock bound expired.
    pub hung: bool,
    /// An enabled mechanism detected the fault and the walk still produced a
    /// usable translation.
    pub recovered: bool,
    /// The serving walker must be parked for the quarantine cool-down once
    /// this walk retires.
    pub quarantine: bool,
}

/// Exact per-kind fault accounting.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct FaultCounters {
    /// Faults injected, indexed by [`FaultKind::index`].
    pub injected: [u64; FAULT_KINDS],
    /// Faults noticed by an enabled mechanism or an intrinsic check.
    pub detected: [u64; FAULT_KINDS],
    /// Detected faults from which the walk still produced a translation.
    pub recovered: [u64; FAULT_KINDS],
    /// Faults no mechanism noticed: the walk stalled to the livelock bound.
    pub hung: [u64; FAULT_KINDS],
    /// Recovery latency (extra cycles beyond the fault-free walk latency)
    /// → occurrence count, exact to the cycle.
    pub recovery_latency: BTreeMap<u64, u64>,
}

impl FaultCounters {
    /// Total faults injected across every kind.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Total faults detected across every kind.
    pub fn total_detected(&self) -> u64 {
        self.detected.iter().sum()
    }

    /// Total faults recovered across every kind.
    pub fn total_recovered(&self) -> u64 {
        self.recovered.iter().sum()
    }

    /// Total faults that hung to the livelock bound across every kind.
    pub fn total_hung(&self) -> u64 {
        self.hung.iter().sum()
    }

    fn record(&mut self, fault: &InjectedFault, walk_latency: u64) {
        let k = fault.kind.index();
        self.injected[k] += 1;
        if fault.hung {
            self.hung[k] += 1;
        } else {
            self.detected[k] += 1;
        }
        if fault.recovered {
            self.recovered[k] += 1;
            let extra = fault.total_latency.saturating_sub(walk_latency);
            *self.recovery_latency.entry(extra).or_insert(0) += 1;
        }
    }
}

/// One per-kind draw stream: a splitmix64 counter, a strike threshold and
/// burst state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct Lane {
    state: u64,
    threshold: u64,
    armed: bool,
    burst: u32,
    burst_left: u32,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Lane {
    fn new(seed: u64, index: usize, rate: FaultRate) -> Lane {
        // Two mixing steps decorrelate the per-kind streams from the shared
        // seed (same idiom as the arrival generators' derive_seed).
        let mut state = seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        splitmix64(&mut state);
        Lane {
            state,
            threshold: (rate.rate * u64::MAX as f64) as u64,
            armed: rate.rate > 0.0,
            burst: rate.burst,
            burst_left: 0,
        }
    }

    #[inline]
    fn draw(&mut self) -> bool {
        if self.burst_left > 0 {
            self.burst_left -= 1;
            return true;
        }
        if !self.armed {
            return false;
        }
        let strike = splitmix64(&mut self.state) <= self.threshold;
        if strike {
            self.burst_left = self.burst - 1;
        }
        strike
    }
}

/// A deterministic schedule of device faults plus its exact accounting.
///
/// Plans are pure data: draws consume splitmix64 counters seeded from
/// [`DeviceFaultConfig::seed`], so two plans built from the same config
/// produce identical fault schedules regardless of host, thread count or
/// wall-clock time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceFaultPlan {
    config: DeviceFaultConfig,
    lanes: [Lane; FAULT_KINDS],
    counters: FaultCounters,
    armed: bool,
}

impl DeviceFaultPlan {
    /// Build a plan, rejecting invalid rates (see
    /// [`DeviceFaultConfig::validate`]).
    pub fn new(config: DeviceFaultConfig) -> Result<DeviceFaultPlan, FaultError> {
        config.validate()?;
        let lanes = [
            Lane::new(config.seed, 0, config.walk_timeout),
            Lane::new(config.seed, 1, config.dropped_response),
            Lane::new(config.seed, 2, config.transient_error),
            Lane::new(config.seed, 3, config.walker_stuck),
        ];
        let armed = !config.is_zero();
        Ok(DeviceFaultPlan {
            config,
            lanes,
            counters: FaultCounters::default(),
            armed,
        })
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &DeviceFaultConfig {
        &self.config
    }

    /// Exact injected/detected/recovered/hung accounting so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// True when every rate is zero: [`DeviceFaultPlan::draw_walk`] can never
    /// return a fault.
    #[inline]
    pub fn is_disarmed(&self) -> bool {
        !self.armed
    }

    /// Draw the fault outcome for one walk admission.
    ///
    /// All four kind lanes advance in a fixed priority order (stuck →
    /// timeout → transient → dropped) so the streams stay aligned regardless
    /// of which kind strikes; the first strike wins. `walk_latency` is the
    /// walk's fault-free latency in cycles — the returned
    /// [`InjectedFault::total_latency`] replaces it.
    pub fn draw_walk(
        &mut self,
        resilience: &ResilienceConfig,
        walk_latency: u64,
    ) -> Option<InjectedFault> {
        if !self.armed {
            return None;
        }
        let stuck = self.lanes[FaultKind::WalkerStuck.index()].draw();
        let timeout = self.lanes[FaultKind::WalkTimeout.index()].draw();
        let transient = self.lanes[FaultKind::TransientError.index()].draw();
        let dropped = self.lanes[FaultKind::DroppedResponse.index()].draw();
        let kind = if stuck {
            FaultKind::WalkerStuck
        } else if timeout {
            FaultKind::WalkTimeout
        } else if transient {
            FaultKind::TransientError
        } else if dropped {
            FaultKind::DroppedResponse
        } else {
            return None;
        };
        let fault = self.resolve(kind, resilience, walk_latency);
        self.counters.record(&fault, walk_latency);
        Some(fault)
    }

    /// Combine a struck kind with the enabled mechanisms into the walk's
    /// final outcome. Retries/retransmits redraw the same kind's lane, so
    /// bursts make recovery attempts fail too.
    fn resolve(
        &mut self,
        kind: FaultKind,
        r: &ResilienceConfig,
        walk_latency: u64,
    ) -> InjectedFault {
        let hung = |total| InjectedFault {
            kind,
            total_latency: total,
            failed: true,
            hung: true,
            recovered: false,
            quarantine: kind == FaultKind::WalkerStuck && r.quarantine,
        };
        let outcome = |total: u64, recovered: bool| InjectedFault {
            kind,
            total_latency: total,
            failed: !recovered,
            hung: false,
            recovered,
            quarantine: kind == FaultKind::WalkerStuck && r.quarantine,
        };
        match kind {
            FaultKind::WalkerStuck => {
                if r.watchdog {
                    // Watchdog notices the stalled walk after watchdog_cycles
                    // and requeues its merged requests onto a clean re-walk.
                    outcome(r.watchdog_cycles.saturating_add(walk_latency), true)
                } else {
                    hung(r.livelock_bound_cycles)
                }
            }
            FaultKind::WalkTimeout => {
                if !r.retry {
                    return hung(r.livelock_bound_cycles);
                }
                // First attempt burns the full detection window, then each
                // retry backs off exponentially and redraws the lane.
                let mut total = r.timeout_cycles;
                let lane = FaultKind::WalkTimeout.index();
                for attempt in 0..r.max_retries {
                    let backoff = r
                        .backoff_base_cycles
                        .checked_shl(attempt)
                        .unwrap_or(u64::MAX);
                    total = total.saturating_add(backoff);
                    if self.lanes[lane].draw() {
                        total = total.saturating_add(r.timeout_cycles);
                    } else {
                        return outcome(total.saturating_add(walk_latency), true);
                    }
                }
                outcome(total, false)
            }
            FaultKind::TransientError => {
                // The bad read is always caught by the integrity check, so
                // even with retry off this is detected (reported as a
                // translation fault), never hung.
                let mut total = walk_latency;
                if !r.retry {
                    return outcome(total, false);
                }
                let lane = FaultKind::TransientError.index();
                for attempt in 0..r.max_retries {
                    let backoff = r
                        .backoff_base_cycles
                        .checked_shl(attempt)
                        .unwrap_or(u64::MAX);
                    total = total.saturating_add(backoff).saturating_add(walk_latency);
                    if !self.lanes[lane].draw() {
                        return outcome(total, true);
                    }
                }
                outcome(total, false)
            }
            FaultKind::DroppedResponse => {
                if !r.retransmit {
                    return hung(r.livelock_bound_cycles);
                }
                // The walk itself completed; each retransmit attempt redraws
                // whether the response is dropped again.
                let mut total = walk_latency;
                let lane = FaultKind::DroppedResponse.index();
                for _ in 0..r.max_retries {
                    total = total.saturating_add(r.retransmit_cycles);
                    if !self.lanes[lane].draw() {
                        return outcome(total, true);
                    }
                }
                outcome(total, false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(
        plan: &mut DeviceFaultPlan,
        r: &ResilienceConfig,
        draws: usize,
    ) -> Vec<Option<InjectedFault>> {
        (0..draws).map(|_| plan.draw_walk(r, 400)).collect()
    }

    #[test]
    fn zero_rate_plan_never_injects() {
        let mut plan = DeviceFaultPlan::new(DeviceFaultConfig::none(7)).unwrap();
        assert!(plan.is_disarmed());
        let r = ResilienceConfig::all_on();
        assert!(drain(&mut plan, &r, 10_000).iter().all(|f| f.is_none()));
        assert_eq!(plan.counters(), &FaultCounters::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let config = DeviceFaultConfig::uniform(0xDEAD_BEEF, 0.05);
        let r = ResilienceConfig::all_on();
        let mut a = DeviceFaultPlan::new(config).unwrap();
        let mut b = DeviceFaultPlan::new(config).unwrap();
        assert_eq!(drain(&mut a, &r, 5_000), drain(&mut b, &r, 5_000));
        assert_eq!(a.counters(), b.counters());
        assert!(
            a.counters().total_injected() > 0,
            "5% over 5k draws must strike"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let r = ResilienceConfig::all_on();
        let mut a = DeviceFaultPlan::new(DeviceFaultConfig::uniform(1, 0.05)).unwrap();
        let mut b = DeviceFaultPlan::new(DeviceFaultConfig::uniform(2, 0.05)).unwrap();
        assert_ne!(drain(&mut a, &r, 5_000), drain(&mut b, &r, 5_000));
    }

    #[test]
    fn rate_one_always_strikes() {
        let config =
            DeviceFaultConfig::none(3).with_kind(FaultKind::TransientError, FaultRate::of(1.0));
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let r = ResilienceConfig::all_off();
        for fault in drain(&mut plan, &r, 100) {
            let fault = fault.expect("rate 1.0 must strike every draw");
            assert_eq!(fault.kind, FaultKind::TransientError);
        }
        assert_eq!(
            plan.counters().injected[FaultKind::TransientError.index()],
            100
        );
    }

    #[test]
    fn burst_extends_a_strike() {
        // Rate 1.0 with burst 4 on one kind: after any strike the next three
        // draws of that kind strike from burst state, leaving the rng
        // untouched — verified by comparing against a burst-1 twin that
        // consumes one rng value per draw.
        let bursty = DeviceFaultConfig::none(11)
            .with_kind(FaultKind::DroppedResponse, FaultRate::bursty(0.2, 4));
        let mut plan = DeviceFaultPlan::new(bursty).unwrap();
        let r = ResilienceConfig::all_off();
        let outcomes: Vec<bool> = (0..2_000)
            .map(|_| plan.draw_walk(&r, 400).is_some())
            .collect();
        // Every strike opens a burst: the two draws after a fresh strike must
        // also strike.
        let mut i = 0;
        while i < outcomes.len() {
            if outcomes[i] {
                for j in 1..4 {
                    if i + j < outcomes.len() {
                        assert!(outcomes[i + j], "draw {} inside burst must strike", i + j);
                    }
                }
                i += 4;
            } else {
                i += 1;
            }
        }
        let hit = outcomes.iter().filter(|&&s| s).count();
        assert!(hit > 0, "20% over 2k draws must strike");
    }

    #[test]
    fn counters_conserve_injected() {
        let config = DeviceFaultConfig::uniform(42, 0.2);
        let r = ResilienceConfig::all_on().with_retransmit(false);
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        drain(&mut plan, &r, 10_000);
        let c = plan.counters();
        assert!(c.total_injected() > 0);
        assert_eq!(c.total_injected(), c.total_detected() + c.total_hung());
        assert!(c.total_recovered() <= c.total_detected());
        let histogram_total: u64 = c.recovery_latency.values().sum();
        assert_eq!(histogram_total, c.total_recovered());
    }

    #[test]
    fn watchdog_recovers_stuck_walks() {
        let config =
            DeviceFaultConfig::none(5).with_kind(FaultKind::WalkerStuck, FaultRate::of(1.0));
        let r = ResilienceConfig::all_on();
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let fault = plan.draw_walk(&r, 400).unwrap();
        assert_eq!(fault.kind, FaultKind::WalkerStuck);
        assert!(fault.recovered && !fault.failed && !fault.hung);
        assert!(fault.quarantine, "quarantine enabled must park the walker");
        assert_eq!(fault.total_latency, r.watchdog_cycles + 400);
        assert_eq!(
            plan.counters().recovery_latency.get(&r.watchdog_cycles),
            Some(&1)
        );
    }

    #[test]
    fn no_watchdog_means_hung_at_livelock_bound() {
        let config =
            DeviceFaultConfig::none(5).with_kind(FaultKind::WalkerStuck, FaultRate::of(1.0));
        let r = ResilienceConfig::all_off();
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let fault = plan.draw_walk(&r, 400).unwrap();
        assert!(fault.hung && fault.failed && !fault.recovered);
        assert!(!fault.quarantine);
        assert_eq!(fault.total_latency, r.livelock_bound_cycles);
        assert_eq!(plan.counters().total_hung(), 1);
        assert_eq!(plan.counters().total_detected(), 0);
    }

    #[test]
    fn timeout_retry_exhaustion_is_detected_failure() {
        // Timeout at rate 1.0: every retry times out again, so retry
        // exhausts and the fault is a detected (not hung) failure with the
        // exact backoff chain latency.
        let config =
            DeviceFaultConfig::none(9).with_kind(FaultKind::WalkTimeout, FaultRate::of(1.0));
        let r = ResilienceConfig::all_on();
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let fault = plan.draw_walk(&r, 400).unwrap();
        assert!(fault.failed && !fault.hung && !fault.recovered);
        let backoffs: u64 = (0..r.max_retries).map(|a| r.backoff_base_cycles << a).sum();
        let expected = r.timeout_cycles * u64::from(r.max_retries + 1) + backoffs;
        assert_eq!(fault.total_latency, expected);
    }

    #[test]
    fn transient_without_retry_fails_fast_but_detected() {
        let config =
            DeviceFaultConfig::none(13).with_kind(FaultKind::TransientError, FaultRate::of(1.0));
        let r = ResilienceConfig::all_off();
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let fault = plan.draw_walk(&r, 400).unwrap();
        assert!(
            fault.failed && !fault.hung,
            "integrity check always detects"
        );
        assert_eq!(fault.total_latency, 400);
        assert_eq!(plan.counters().total_detected(), 1);
    }

    #[test]
    fn dropped_response_without_retransmit_hangs() {
        let config =
            DeviceFaultConfig::none(17).with_kind(FaultKind::DroppedResponse, FaultRate::of(1.0));
        let r = ResilienceConfig::all_off();
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let fault = plan.draw_walk(&r, 400).unwrap();
        assert!(fault.hung);
        assert_eq!(fault.total_latency, r.livelock_bound_cycles);
    }

    #[test]
    fn retransmit_exhaustion_under_persistent_drops() {
        // Rate 1.0: the admission draw strikes and every retransmit redraw
        // strikes again, so retransmit exhausts into a detected failure with
        // the exact chain latency (walk + max_retries retransmits).
        let config =
            DeviceFaultConfig::none(21).with_kind(FaultKind::DroppedResponse, FaultRate::of(1.0));
        let r = ResilienceConfig::all_on();
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let fault = plan.draw_walk(&r, 400).unwrap();
        assert!(fault.failed && !fault.hung && !fault.recovered);
        assert_eq!(
            fault.total_latency,
            400 + r.retransmit_cycles * u64::from(r.max_retries)
        );
    }

    #[test]
    fn retransmit_first_attempt_recovery_latency() {
        // Strike once via burst=1 rate=1.0 on the first draw, then rebuild
        // the lane as disarmed for redraws is impossible within one plan; so
        // verify the recovered path arithmetic with a 50% rate and scan for
        // a one-retransmit recovery.
        let config =
            DeviceFaultConfig::none(33).with_kind(FaultKind::DroppedResponse, FaultRate::of(0.5));
        let r = ResilienceConfig::all_on();
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let mut saw_first_attempt_recovery = false;
        for _ in 0..10_000 {
            if let Some(fault) = plan.draw_walk(&r, 400) {
                if fault.recovered && fault.total_latency == 400 + r.retransmit_cycles {
                    saw_first_attempt_recovery = true;
                    break;
                }
            }
        }
        assert!(saw_first_attempt_recovery);
    }

    #[test]
    fn priority_order_is_stuck_first() {
        let config = DeviceFaultConfig::uniform(99, 1.0);
        let r = ResilienceConfig::all_on();
        let mut plan = DeviceFaultPlan::new(config).unwrap();
        let fault = plan.draw_walk(&r, 400).unwrap();
        assert_eq!(fault.kind, FaultKind::WalkerStuck);
    }

    // --- validation rejections -------------------------------------------

    fn rejects(config: DeviceFaultConfig, needle: &str) {
        let err = config.validate().expect_err("config must be rejected");
        assert!(
            err.reason.contains(needle),
            "reason {:?} must mention {:?}",
            err.reason,
            needle
        );
        assert!(DeviceFaultPlan::new(config).is_err());
    }

    fn rejects_resilience(config: ResilienceConfig, needle: &str) {
        let err = config.validate().expect_err("config must be rejected");
        assert!(
            err.reason.contains(needle),
            "reason {:?} must mention {:?}",
            err.reason,
            needle
        );
    }

    #[test]
    fn rejects_nan_rate() {
        rejects(
            DeviceFaultConfig::none(1).with_kind(FaultKind::WalkTimeout, FaultRate::of(f64::NAN)),
            "finite",
        );
    }

    #[test]
    fn rejects_infinite_rate() {
        rejects(
            DeviceFaultConfig::none(1)
                .with_kind(FaultKind::WalkerStuck, FaultRate::of(f64::INFINITY)),
            "finite",
        );
    }

    #[test]
    fn rejects_negative_rate() {
        rejects(
            DeviceFaultConfig::none(1).with_kind(FaultKind::DroppedResponse, FaultRate::of(-0.1)),
            "[0, 1]",
        );
    }

    #[test]
    fn rejects_rate_above_one() {
        rejects(
            DeviceFaultConfig::none(1).with_kind(FaultKind::TransientError, FaultRate::of(1.5)),
            "[0, 1]",
        );
    }

    #[test]
    fn rejects_zero_burst() {
        rejects(
            DeviceFaultConfig::none(1).with_kind(FaultKind::WalkTimeout, FaultRate::bursty(0.1, 0)),
            "burst",
        );
    }

    #[test]
    fn rejects_zero_max_retries() {
        let mut r = ResilienceConfig::all_on();
        r.max_retries = 0;
        rejects_resilience(r, "max_retries");
    }

    #[test]
    fn rejects_excessive_max_retries() {
        let mut r = ResilienceConfig::all_on();
        r.max_retries = 17;
        rejects_resilience(r, "max_retries");
    }

    #[test]
    fn rejects_zero_cycle_budgets() {
        for field in [
            "backoff_base_cycles",
            "timeout_cycles",
            "watchdog_cycles",
            "quarantine_cooldown_cycles",
            "retransmit_cycles",
            "livelock_bound_cycles",
        ] {
            let mut r = ResilienceConfig::all_on();
            match field {
                "backoff_base_cycles" => r.backoff_base_cycles = 0,
                "timeout_cycles" => r.timeout_cycles = 0,
                "watchdog_cycles" => r.watchdog_cycles = 0,
                "quarantine_cooldown_cycles" => r.quarantine_cooldown_cycles = 0,
                "retransmit_cycles" => r.retransmit_cycles = 0,
                _ => r.livelock_bound_cycles = 0,
            }
            rejects_resilience(r, field);
        }
    }

    #[test]
    fn rejects_livelock_bound_below_detectors() {
        let mut r = ResilienceConfig::all_on();
        r.livelock_bound_cycles = r.timeout_cycles;
        rejects_resilience(r, "timeout_cycles");
        let mut r = ResilienceConfig::all_on();
        r.livelock_bound_cycles = r.watchdog_cycles;
        rejects_resilience(r, "watchdog_cycles");
    }

    #[test]
    fn valid_configs_pass() {
        DeviceFaultConfig::uniform(1, 0.5).validate().unwrap();
        DeviceFaultConfig::none(1).validate().unwrap();
        ResilienceConfig::all_on().validate().unwrap();
        ResilienceConfig::all_off().validate().unwrap();
    }
}
