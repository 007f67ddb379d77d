//! Property-based tests for the memory and interconnect timing models.

use proptest::prelude::*;

use neummu_mem::bandwidth::BandwidthServer;
use neummu_mem::dram::DramModel;
use neummu_mem::interconnect::{CopyEngine, InterconnectConfig, TransferKind};

proptest! {
    /// Bandwidth-server conservation: transfers never overlap, are serviced in
    /// order, and total busy time equals the sum of per-transfer durations.
    #[test]
    fn bandwidth_server_serializes(transfers in prop::collection::vec((0u64..100_000, 1u64..1_000_000), 1..100),
                                   bandwidth in 1.0f64..1000.0) {
        let mut server = BandwidthServer::new(bandwidth);
        let mut sorted = transfers.clone();
        sorted.sort_by_key(|(ready, _)| *ready);
        let mut last_end = 0u64;
        let mut busy = 0u64;
        for (ready, bytes) in sorted {
            let occ = server.schedule(ready, bytes);
            prop_assert!(occ.start >= ready);
            prop_assert!(occ.start >= last_end);
            prop_assert_eq!(occ.duration(), server.serialization_cycles(bytes));
            busy += occ.duration();
            last_end = occ.end;
        }
        prop_assert_eq!(server.busy_cycles(), busy);
        prop_assert_eq!(server.busy_until(), last_end);
    }

    /// Serialization time scales (weakly) monotonically with transfer size and
    /// inversely with bandwidth.
    #[test]
    fn serialization_monotonicity(bytes in 1u64..(1u64 << 30), extra in 1u64..(1u64 << 20)) {
        let slow = BandwidthServer::new(16.0);
        let fast = BandwidthServer::new(600.0);
        prop_assert!(slow.serialization_cycles(bytes) >= fast.serialization_cycles(bytes));
        prop_assert!(fast.serialization_cycles(bytes + extra) >= fast.serialization_cycles(bytes));
    }

    /// DRAM transfers always take at least the access latency and at least the
    /// pure-bandwidth streaming time.
    #[test]
    fn dram_transfer_lower_bounds(bytes in 0u64..(64u64 << 20)) {
        let mut dram = DramModel::tpu_like();
        let config = dram.config();
        let cycles = dram.schedule_transfer(0, bytes);
        prop_assert!(cycles >= config.access_latency_cycles);
        prop_assert!(cycles >= BandwidthServer::new(config.bandwidth_bytes_per_cycle).serialization_cycles(bytes));
    }

    /// The CPU-relayed copy path is never faster than a direct NUMA access of
    /// the same size over the same interconnect, and the fast NPU link is
    /// never slower than PCIe for the same access.
    #[test]
    fn staged_copies_never_beat_direct_numa(bytes in 1u64..(16u64 << 20)) {
        let cfg = InterconnectConfig::table1();
        let staged = CopyEngine::new(cfg).host_relayed_copy(0, bytes);
        let numa_pcie = CopyEngine::new(cfg).numa_access(0, bytes, TransferKind::Pcie);
        let numa_fast = CopyEngine::new(cfg).numa_access(0, bytes, TransferKind::NpuLink);
        prop_assert!(staged >= numa_pcie);
        prop_assert!(numa_pcie >= numa_fast);
    }

    /// Page-migration cost grows monotonically with the page size.
    #[test]
    fn migration_cost_monotone_in_page_size(small in 1u64..(64u64 << 10)) {
        let cfg = InterconnectConfig::table1();
        let small_cost = CopyEngine::new(cfg).page_migration(0, small, TransferKind::NpuLink);
        let large_cost = CopyEngine::new(cfg).page_migration(0, small * 8, TransferKind::NpuLink);
        prop_assert!(large_cost >= small_cost);
    }

}
