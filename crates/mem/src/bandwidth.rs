//! A serializing bandwidth server.
//!
//! Every shared resource with a byte/cycle throughput limit (the HBM channels,
//! the PCIe link, the NPU↔NPU link) is modelled as a [`BandwidthServer`]:
//! transfers are serviced in arrival order, each occupying the server for
//! `bytes / bandwidth` cycles, and the server remembers when it becomes free.

use serde::Serialize;

/// Occupancy interval returned by [`BandwidthServer::schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Occupancy {
    /// Cycle at which the transfer starts occupying the server.
    pub start: u64,
    /// Cycle at which the server becomes free again.
    pub end: u64,
}

impl Occupancy {
    /// Duration of the occupancy in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// A first-come-first-served bandwidth-limited resource.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BandwidthServer {
    bytes_per_cycle: f64,
    busy_until: u64,
    total_bytes: u64,
    busy_cycles: u64,
}

impl BandwidthServer {
    /// Creates a server with the given sustained throughput.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive and finite.
    #[must_use]
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle > 0.0 && bytes_per_cycle.is_finite(),
            "bandwidth must be positive and finite, got {bytes_per_cycle}"
        );
        BandwidthServer {
            bytes_per_cycle,
            busy_until: 0,
            total_bytes: 0,
            busy_cycles: 0,
        }
    }

    /// Sustained throughput in bytes per cycle.
    #[must_use]
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Number of cycles needed to stream `bytes` through the server,
    /// ignoring queueing (at least one cycle for a non-empty transfer).
    #[must_use]
    pub fn serialization_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        ((bytes as f64 / self.bytes_per_cycle).ceil() as u64).max(1)
    }

    /// Schedules a transfer of `bytes` that becomes ready at `ready_cycle`,
    /// returning the interval during which it occupies the server.
    pub fn schedule(&mut self, ready_cycle: u64, bytes: u64) -> Occupancy {
        let start = ready_cycle.max(self.busy_until);
        let duration = self.serialization_cycles(bytes);
        let end = start + duration;
        self.busy_until = end;
        self.total_bytes += bytes;
        self.busy_cycles += duration;
        Occupancy { start, end }
    }

    /// Schedules a run of back-to-back transfers in one occupancy
    /// computation, returning the interval the whole run occupies.
    ///
    /// Transfer `j` of the run becomes ready at `first_ready +
    /// j * ready_stride` and moves `bytes(j)` bytes, where `bytes` describes
    /// the DMA run shape: a possibly short first transfer, full-grain
    /// interior transfers, and a possibly short last transfer. The result —
    /// occupancy interval, `busy_until`, byte and busy-cycle totals — is
    /// bit-identical to scheduling the transfers one
    /// [`BandwidthServer::schedule`] call at a time, because with
    /// `ready_stride <= 1` and every transfer at least one cycle long the
    /// run is fully serialized after its first transfer: transfer `j+1` is
    /// ready no more than one cycle after transfer `j` was, while the server
    /// stays busy for at least one more cycle.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `count` is zero, `ready_stride > 1`, or
    /// any transfer of the run is empty.
    pub fn schedule_run(
        &mut self,
        first_ready: u64,
        ready_stride: u64,
        count: u64,
        first_bytes: u64,
        interior_bytes: u64,
        last_bytes: u64,
    ) -> Occupancy {
        debug_assert!(count >= 1, "a transfer run has at least one transfer");
        debug_assert!(
            ready_stride <= 1,
            "readiness may advance at most one cycle per transfer"
        );
        debug_assert!(first_bytes > 0, "transfers are never empty");
        debug_assert!(count < 2 || last_bytes > 0, "transfers are never empty");
        debug_assert!(count < 3 || interior_bytes > 0, "transfers are never empty");
        if count == 1 {
            return self.schedule(first_ready, first_bytes);
        }
        let interior_count = count - 2;
        let bytes = first_bytes + interior_count * interior_bytes + last_bytes;
        let duration = self.serialization_cycles(first_bytes)
            + interior_count * self.serialization_cycles(interior_bytes)
            + self.serialization_cycles(last_bytes);
        let start = first_ready.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.total_bytes += bytes;
        self.busy_cycles += duration;
        Occupancy { start, end }
    }

    /// Cycle at which the server becomes free (no pending transfer after it).
    #[must_use]
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Total bytes transferred so far.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total cycles the server has been occupied.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Utilization relative to `elapsed_cycles` (clamped to 1.0).
    #[must_use]
    pub fn utilization(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        (self.busy_cycles as f64 / elapsed_cycles as f64).min(1.0)
    }

    /// Resets occupancy and statistics.
    pub fn reset(&mut self) {
        self.busy_until = 0;
        self.total_bytes = 0;
        self.busy_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_respects_bandwidth() {
        let server = BandwidthServer::new(600.0);
        assert_eq!(server.serialization_cycles(0), 0);
        assert_eq!(server.serialization_cycles(1), 1);
        assert_eq!(server.serialization_cycles(600), 1);
        assert_eq!(server.serialization_cycles(601), 2);
        assert_eq!(server.serialization_cycles(6000), 10);
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let mut server = BandwidthServer::new(100.0);
        let a = server.schedule(0, 1000); // 10 cycles
        let b = server.schedule(0, 1000); // queued behind a
        assert_eq!(a.start, 0);
        assert_eq!(a.end, 10);
        assert_eq!(b.start, 10);
        assert_eq!(b.end, 20);
        assert_eq!(server.busy_until(), 20);
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut server = BandwidthServer::new(100.0);
        server.schedule(0, 100);
        let late = server.schedule(50, 100);
        assert_eq!(late.start, 50);
        assert_eq!(late.end, 51);
        assert_eq!(server.busy_cycles(), 2);
        assert!(server.utilization(51) < 0.1);
    }

    /// The byte length of transfer `j` in a `(first, interior.., last)` run.
    fn run_bytes(j: u64, count: u64, first: u64, interior: u64, last: u64) -> u64 {
        if j == 0 {
            first
        } else if j == count - 1 {
            last
        } else {
            interior
        }
    }

    #[test]
    fn run_scheduling_matches_individual_transfers_bit_for_bit() {
        for (bw, first_ready, stride, count, first, interior, last) in [
            (600.0, 0u64, 1u64, 8u64, 512u64, 512u64, 512u64),
            (600.0, 1000, 0, 8, 412, 512, 100),
            (100.0, 0, 1, 2, 1, 1000, 1),
            (0.5, 7, 0, 5, 3, 4, 2),
            (600.0, 0, 1, 1, 512, 512, 512),
        ] {
            let mut individual = BandwidthServer::new(bw);
            let mut batched = BandwidthServer::new(bw);
            // Pre-contend both servers so the run queues behind earlier work.
            individual.schedule(0, 2000);
            batched.schedule(0, 2000);
            let mut last_occ = None;
            for j in 0..count {
                let bytes = run_bytes(j, count, first, interior, last);
                last_occ = Some(individual.schedule(first_ready + j * stride, bytes));
            }
            let run_occ = batched.schedule_run(first_ready, stride, count, first, interior, last);
            assert_eq!(run_occ.end, last_occ.unwrap().end, "bw {bw} count {count}");
            assert_eq!(individual.busy_until(), batched.busy_until());
            assert_eq!(individual.total_bytes(), batched.total_bytes());
            assert_eq!(individual.busy_cycles(), batched.busy_cycles());
        }
    }

    #[test]
    fn run_scheduling_respects_an_idle_gap_before_the_run() {
        let mut server = BandwidthServer::new(100.0);
        server.schedule(0, 100); // busy until 1
        let occ = server.schedule_run(50, 1, 3, 100, 100, 100);
        assert_eq!(occ.start, 50);
        assert_eq!(occ.end, 53);
        assert_eq!(server.busy_cycles(), 4);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut server = BandwidthServer::new(10.0);
        server.schedule(0, 100);
        server.schedule(0, 50);
        assert_eq!(server.total_bytes(), 150);
        assert_eq!(server.busy_cycles(), 15);
        server.reset();
        assert_eq!(server.total_bytes(), 0);
        assert_eq!(server.busy_until(), 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = BandwidthServer::new(0.0);
    }
}
