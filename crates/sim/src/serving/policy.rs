//! Pluggable tenant-scheduling policies for the shared translation front end.
//!
//! Every policy answers one question per scheduler turn: *which runnable
//! tenant gets the next service quantum?* The answer is a pure function of
//! the policy's own bookkeeping plus the per-tenant observables the caller
//! passes in (queue depths, IOTLB occupancies) — no clocks, no hashing, no
//! allocation ([`PolicyState::pick`] and [`PolicyState::charge`] are
//! registered hot paths under the H001 lint), so serial and parallel sweeps
//! make bit-identical decisions.
//!
//! | Policy | Picks | Fairness lever |
//! |---|---|---|
//! | [`ServingPolicy::RoundRobin`] | next runnable tenant in cyclic ASID order | equal turns |
//! | [`ServingPolicy::WeightedFair`] | smallest virtual service `served/weight` | equal *weighted* service |
//! | [`ServingPolicy::BurstQuantum`] | deepest backlog, re-evaluated every quantum | drains bursts first |
//! | [`ServingPolicy::TlbAware`] | round-robin, skipping IOTLB hogs | bounds capacity share |
//!
//! Round-robin's cursor scan visits runnable tenants in cyclic ascending
//! order, starting after the previous pick; a tenant that finishes drops out
//! of the scan without moving the cursor.

use serde::Serialize;

/// A tenant-scheduling policy of the serving front end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ServingPolicy {
    /// Equal turns in cyclic ASID order (the classic time-share baseline and
    /// the multitenant sweep's policy).
    RoundRobin,
    /// Weighted fair queueing: each tenant accrues virtual service
    /// `transactions / weight`; the runnable tenant with the least virtual
    /// service goes next (ties break to the lowest ASID). Under saturation,
    /// service shares converge to the weight vector.
    WeightedFair,
    /// Burst-quantum preemption: every quantum is granted to the runnable
    /// tenant with the deepest request backlog (ties to the lowest ASID), so
    /// an arriving burst preempts the rotation at the next quantum boundary
    /// and is drained before shallow queues get more turns.
    BurstQuantum,
    /// TLB-occupancy-aware throttling: round-robin, but a tenant holding more
    /// than `occupancy_cap_pct` percent of the shared IOTLB is skipped while
    /// any tenant under the cap is runnable (hogs throttle, they never
    /// starve: if everyone is over the cap, plain round-robin resumes).
    TlbAware {
        /// Maximum IOTLB capacity share (in percent, 1–100) a tenant may hold
        /// before being throttled.
        occupancy_cap_pct: u8,
    },
}

impl ServingPolicy {
    /// Short label for artifact rows and file names.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ServingPolicy::RoundRobin => "rr",
            ServingPolicy::WeightedFair => "wfq",
            ServingPolicy::BurstQuantum => "bq",
            ServingPolicy::TlbAware { .. } => "tlb",
        }
    }

    /// Human-readable name for table titles.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ServingPolicy::RoundRobin => "round-robin",
            ServingPolicy::WeightedFair => "weighted-fair",
            ServingPolicy::BurstQuantum => "burst-quantum",
            ServingPolicy::TlbAware { .. } => "tlb-aware",
        }
    }

    /// True if [`PolicyState::pick`] reads the `occupancies` observable (lets
    /// callers skip gathering it otherwise).
    #[must_use]
    pub fn needs_occupancy(&self) -> bool {
        matches!(self, ServingPolicy::TlbAware { .. })
    }
}

/// The mutable bookkeeping of one policy across one scheduler run.
#[derive(Debug, Clone)]
pub struct PolicyState {
    policy: ServingPolicy,
    /// Next tenant the round-robin cursor will consider.
    cursor: usize,
    /// Per-tenant weights (WFQ); all ones for unweighted policies.
    weights: Vec<u64>,
    /// Per-tenant accumulated virtual service (WFQ): `served txns / weight`.
    virtual_service: Vec<f64>,
    /// Global virtual time: the largest virtual service any picked tenant had
    /// when picked. Newly backlogged tenants start here, not at zero, so an
    /// idle period cannot bank unbounded credit.
    virtual_time: f64,
}

impl PolicyState {
    /// Creates the bookkeeping for `tenant_count` tenants. `weights` applies
    /// to [`ServingPolicy::WeightedFair`] (missing entries default to 1; zero
    /// weights are lifted to 1).
    #[must_use]
    pub fn new(policy: ServingPolicy, tenant_count: usize, weights: &[u64]) -> Self {
        PolicyState {
            policy,
            cursor: 0,
            weights: (0..tenant_count)
                .map(|t| weights.get(t).copied().unwrap_or(1).max(1))
                .collect(),
            virtual_service: vec![0.0; tenant_count],
            virtual_time: 0.0,
        }
    }

    /// The policy this state drives.
    #[must_use]
    pub fn policy(&self) -> ServingPolicy {
        self.policy
    }

    /// Picks the tenant to serve next, or `None` if no tenant is runnable.
    ///
    /// `runnable[t]` marks tenants with work available right now; `depths[t]`
    /// is the tenant's waiting request count (read by burst-quantum);
    /// `occupancies[t]` is the tenant's resident IOTLB entry count and
    /// `tlb_capacity` the shared capacity (read by TLB-aware throttling).
    /// All slices are tenant-indexed and must cover every tenant.
    pub fn pick(
        &mut self,
        runnable: &[bool],
        depths: &[u64],
        occupancies: &[u64],
        tlb_capacity: u64,
    ) -> Option<usize> {
        match self.policy {
            ServingPolicy::RoundRobin => self.pick_cyclic(runnable, |_| true),
            ServingPolicy::WeightedFair => {
                let mut best: Option<usize> = None;
                for (t, &up) in runnable.iter().enumerate() {
                    if !up {
                        continue;
                    }
                    // Strict `<` keeps ties on the lowest tenant index.
                    if best.is_none_or(|b| self.virtual_service[t] < self.virtual_service[b]) {
                        best = Some(t);
                    }
                }
                if let Some(t) = best {
                    self.virtual_time = self.virtual_time.max(self.virtual_service[t]);
                }
                best
            }
            ServingPolicy::BurstQuantum => {
                let mut best: Option<usize> = None;
                for (t, &up) in runnable.iter().enumerate() {
                    if !up {
                        continue;
                    }
                    if best.is_none_or(|b| depths[t] > depths[b]) {
                        best = Some(t);
                    }
                }
                best
            }
            ServingPolicy::TlbAware { occupancy_cap_pct } => {
                let cap = tlb_capacity * u64::from(occupancy_cap_pct) / 100;
                // Prefer tenants under the occupancy cap; fall back to plain
                // round-robin when every runnable tenant is a hog.
                self.pick_cyclic(runnable, |t| occupancies[t] <= cap)
                    .or_else(|| self.pick_cyclic(runnable, |_| true))
            }
        }
    }

    /// Cyclic cursor scan: the first tenant at or after the cursor that is
    /// runnable and passes `eligible`; the cursor advances past the pick.
    /// Tenants are visited in ascending index order, wrapping, starting from
    /// the slot after the previous pick.
    fn pick_cyclic(
        &mut self,
        runnable: &[bool],
        eligible: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let n = runnable.len();
        for step in 0..n {
            let t = (self.cursor + step) % n;
            if runnable[t] && eligible(t) {
                self.cursor = (t + 1) % n;
                return Some(t);
            }
        }
        None
    }

    /// Charges `transactions` of service to tenant `t` (called after every
    /// quantum with what the tenant actually consumed).
    pub fn charge(&mut self, t: usize, transactions: u64) {
        self.virtual_service[t] += transactions as f64 / self.weights[t] as f64;
    }

    /// Notes that an idle tenant became backlogged: its virtual service
    /// catches up to the global virtual time, so the idle period earns no
    /// retroactive credit (standard start-time fair queueing).
    pub fn note_backlogged(&mut self, t: usize) {
        if self.virtual_service[t] < self.virtual_time {
            self.virtual_service[t] = self.virtual_time;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_DEPTHS: [u64; 4] = [0; 4];
    const NO_OCC: [u64; 4] = [0; 4];

    #[test]
    fn round_robin_cycles_in_ascending_order_and_skips_finished_tenants() {
        let mut state = PolicyState::new(ServingPolicy::RoundRobin, 4, &[]);
        let mut runnable = [true; 4];
        let mut order = Vec::new();
        for _ in 0..6 {
            order.push(state.pick(&runnable, &NO_DEPTHS, &NO_OCC, 0).unwrap());
        }
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1]);
        runnable[2] = false;
        let mut order = Vec::new();
        for _ in 0..3 {
            order.push(state.pick(&runnable, &NO_DEPTHS, &NO_OCC, 0).unwrap());
        }
        assert_eq!(order, vec![3, 0, 1], "cursor continues after tenant 1");
        assert_eq!(state.pick(&[false; 4], &NO_DEPTHS, &NO_OCC, 0), None);
    }

    #[test]
    fn weighted_fair_shares_track_weights() {
        // Weights 1:3 under permanent saturation: after many unit charges,
        // tenant 1 should have collected ~3x tenant 0's service.
        let mut state = PolicyState::new(ServingPolicy::WeightedFair, 2, &[1, 3]);
        let runnable = [true, true];
        let mut served = [0u64; 2];
        for _ in 0..4000 {
            let t = state.pick(&runnable, &[0; 2], &[0; 2], 0).unwrap();
            served[t] += 1;
            state.charge(t, 1);
        }
        let share = served[1] as f64 / (served[0] + served[1]) as f64;
        assert!(
            (share - 0.75).abs() < 0.01,
            "weight-3 tenant got {share} of service"
        );
    }

    #[test]
    fn weighted_fair_idle_tenants_earn_no_credit() {
        let mut state = PolicyState::new(ServingPolicy::WeightedFair, 2, &[1, 1]);
        // Tenant 0 runs alone for a while.
        for _ in 0..100 {
            let t = state.pick(&[true, false], &[0; 2], &[0; 2], 0).unwrap();
            assert_eq!(t, 0);
            state.charge(t, 1);
        }
        // Tenant 1 wakes up: with catch-up it must not monopolize the front
        // end for 100 turns.
        state.note_backlogged(1);
        let mut consecutive_ones = 0;
        let runnable = [true, true];
        loop {
            let t = state.pick(&runnable, &[0; 2], &[0; 2], 0).unwrap();
            state.charge(t, 1);
            if t == 1 {
                consecutive_ones += 1;
            } else {
                break;
            }
        }
        assert!(
            consecutive_ones <= 2,
            "woken tenant monopolized {consecutive_ones} turns"
        );
    }

    #[test]
    fn burst_quantum_preempts_for_the_deepest_backlog() {
        let mut state = PolicyState::new(ServingPolicy::BurstQuantum, 3, &[]);
        let runnable = [true; 3];
        assert_eq!(state.pick(&runnable, &[1, 5, 3], &[0; 3], 0), Some(1));
        // A burst landing on tenant 2 preempts at the next quantum.
        assert_eq!(state.pick(&runnable, &[1, 4, 9], &[0; 3], 0), Some(2));
        // Ties break to the lowest index.
        assert_eq!(state.pick(&runnable, &[7, 7, 7], &[0; 3], 0), Some(0));
    }

    #[test]
    fn tlb_aware_throttles_hogs_but_never_starves_them() {
        let policy = ServingPolicy::TlbAware {
            occupancy_cap_pct: 25,
        };
        assert!(policy.needs_occupancy());
        let mut state = PolicyState::new(policy, 3, &[]);
        let runnable = [true; 3];
        // Capacity 100, cap 25: tenant 0 holds 60 entries and is skipped.
        let occ = [60, 10, 10];
        let mut order = Vec::new();
        for _ in 0..4 {
            order.push(state.pick(&runnable, &[0; 3], &occ, 100).unwrap());
        }
        assert_eq!(order, vec![1, 2, 1, 2], "the hog is throttled");
        // All over the cap: plain round-robin resumes (no starvation).
        let occ = [60, 40, 50];
        let mut order = Vec::new();
        for _ in 0..3 {
            order.push(state.pick(&runnable, &[0; 3], &occ, 100).unwrap());
        }
        assert_eq!(order.len(), 3);
        assert!(order.contains(&0), "hogs still run when everyone is a hog");
    }
}
