//! NPU-local memory (HBM) timing model.
//!
//! Following the paper's methodology (Section II-C), the local memory system is
//! modelled with a fixed access latency and a fixed sustained bandwidth rather
//! than a cycle-level DRAM simulator. Table I gives 600 GB/s over 8 channels
//! with a 100-cycle access latency at a 1 GHz core clock, i.e. 600 bytes/cycle
//! aggregate.

use serde::Serialize;

use crate::bandwidth::BandwidthServer;

/// Configuration of the local memory system (Table I, "Memory system").
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DramConfig {
    /// Number of memory channels.
    pub num_channels: u32,
    /// Aggregate sustained bandwidth in bytes per core cycle.
    pub bandwidth_bytes_per_cycle: f64,
    /// Access latency in core cycles.
    pub access_latency_cycles: u64,
}

impl DramConfig {
    /// The Table I configuration: 8 channels, 600 GB/s at 1 GHz, 100 cycles.
    #[must_use]
    pub const fn table1() -> Self {
        DramConfig {
            num_channels: 8,
            bandwidth_bytes_per_cycle: 600.0,
            access_latency_cycles: 100,
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// Stateful local-memory model: a latency adder in front of a shared
/// bandwidth server.
#[derive(Debug, Clone, Serialize)]
pub struct DramModel {
    config: DramConfig,
    server: BandwidthServer,
}

impl DramModel {
    /// Creates a model from a configuration.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        DramModel {
            config,
            server: BandwidthServer::new(config.bandwidth_bytes_per_cycle),
        }
    }

    /// The Table I (TPU-like) memory system.
    #[must_use]
    pub fn tpu_like() -> Self {
        Self::new(DramConfig::table1())
    }

    /// Configuration used by this model.
    #[must_use]
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Latency+serialization cycles of an isolated transfer of `bytes`
    /// (no contention).
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.config.access_latency_cycles + self.server.serialization_cycles(bytes)
    }

    /// Schedules a transfer that becomes ready at `ready_cycle`; returns the
    /// cycle at which the data has fully arrived.
    pub fn schedule_transfer(&mut self, ready_cycle: u64, bytes: u64) -> u64 {
        let occupancy = self.server.schedule(ready_cycle, bytes);
        occupancy.end + self.config.access_latency_cycles
    }

    /// Schedules a run of back-to-back transfers (the data movement of one
    /// run-coalesced DMA burst) in a single occupancy computation; returns
    /// the cycle at which the *last* transfer's data has arrived, which is
    /// also the run's maximum since arrivals are non-decreasing.
    ///
    /// Transfer `j` becomes ready at `first_ready + j * ready_stride`
    /// (stride 1 for replayed TLB hits, 0 for merged requests that all
    /// complete with their shared walk); byte sizes follow the DMA run shape
    /// `first_bytes, interior_bytes.., last_bytes`. Every per-transaction
    /// arrival cycle — and all bandwidth accounting — is bit-identical to
    /// `count` individual [`DramModel::schedule_transfer`] calls (see
    /// [`crate::bandwidth::BandwidthServer::schedule_run`] for why the run
    /// serializes exactly).
    pub fn schedule_run(
        &mut self,
        first_ready: u64,
        ready_stride: u64,
        count: u64,
        first_bytes: u64,
        interior_bytes: u64,
        last_bytes: u64,
    ) -> u64 {
        let occupancy = self.server.schedule_run(
            first_ready,
            ready_stride,
            count,
            first_bytes,
            interior_bytes,
            last_bytes,
        );
        occupancy.end + self.config.access_latency_cycles
    }

    /// Cycle at which the memory system's bandwidth becomes free.
    #[must_use]
    pub fn busy_until(&self) -> u64 {
        self.server.busy_until()
    }

    /// Total bytes transferred.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.server.total_bytes()
    }

    /// Bandwidth utilization over `elapsed_cycles`.
    #[must_use]
    pub fn utilization(&self, elapsed_cycles: u64) -> f64 {
        self.server.utilization(elapsed_cycles)
    }

    /// Resets the bandwidth state.
    pub fn reset(&mut self) {
        self.server.reset();
    }

    /// Minimum cycles needed to stream `bytes` at full bandwidth, ignoring the
    /// fixed access latency. Useful for roofline checks.
    #[must_use]
    pub fn streaming_cycles(&self, bytes: u64) -> u64 {
        self.server.serialization_cycles(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters() {
        let cfg = DramConfig::table1();
        assert_eq!(cfg.num_channels, 8);
        assert_eq!(cfg.access_latency_cycles, 100);
        assert!((cfg.bandwidth_bytes_per_cycle - 600.0).abs() < f64::EPSILON);
    }

    #[test]
    fn transfer_cycles_includes_latency_and_serialization() {
        let dram = DramModel::tpu_like();
        // 6 KB at 600 B/cycle = 10 cycles + 100 latency.
        assert_eq!(dram.transfer_cycles(6000), 110);
        assert_eq!(dram.transfer_cycles(0), 100);
    }

    #[test]
    fn scheduled_transfers_contend_for_bandwidth() {
        let mut dram = DramModel::tpu_like();
        let first = dram.schedule_transfer(0, 60_000); // 100 cycles of bandwidth
        let second = dram.schedule_transfer(0, 60_000);
        assert_eq!(first, 200);
        assert_eq!(second, 300);
        assert_eq!(dram.total_bytes(), 120_000);
    }

    #[test]
    fn a_5mb_tile_takes_on_the_order_of_10k_cycles() {
        // Sanity-check the magnitude the paper relies on: a 5 MB tile at
        // 600 B/cycle needs ~8.7K cycles of pure bandwidth.
        let dram = DramModel::tpu_like();
        let cycles = dram.streaming_cycles(5 * 1024 * 1024);
        assert!(cycles > 8_000 && cycles < 10_000, "got {cycles}");
    }

    #[test]
    fn run_transfers_match_individual_transfers() {
        let mut individual = DramModel::tpu_like();
        let mut batched = DramModel::tpu_like();
        // A merged-run shape (stride 0) followed by a hit-run shape (stride 1).
        let mut last = 0;
        for j in 0..8u64 {
            last = individual.schedule_transfer(400, if j == 0 { 412 } else { 512 });
        }
        for j in 0..4u64 {
            last = individual.schedule_transfer(500 + j, 512);
        }
        let run1 = batched.schedule_run(400, 0, 8, 412, 512, 512);
        let run2 = batched.schedule_run(500, 1, 4, 512, 512, 512);
        assert_eq!(run2, last);
        assert!(run1 < run2);
        assert_eq!(individual.busy_until(), batched.busy_until());
        assert_eq!(individual.total_bytes(), batched.total_bytes());
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut dram = DramModel::tpu_like();
        dram.schedule_transfer(0, 1 << 20);
        dram.reset();
        assert_eq!(dram.busy_until(), 0);
        assert_eq!(dram.total_bytes(), 0);
    }
}
