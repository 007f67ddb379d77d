//! System-interconnect models: PCIe, NPU↔NPU links, NUMA accesses and
//! CPU-relayed staged copies.
//!
//! Section V of the paper compares three ways of gathering remote embedding
//! vectors in a multi-NPU system:
//!
//! 1. **MMU-less baseline** — the CPU runtime copies the vectors from the
//!    source NPU into a host pinned buffer and then into the destination NPU,
//!    both hops over PCIe, plus runtime staging overhead.
//! 2. **NUMA(slow)** — the destination NPU loads the vectors directly from the
//!    remote NPU's memory over the legacy PCIe interconnect (150-cycle NUMA hop
//!    plus serialization at PCIe bandwidth).
//! 3. **NUMA(fast)** — the same, but over a high-bandwidth NVLINK-class
//!    NPU↔NPU interconnect.
//!
//! Figure 16 additionally models demand paging: on a page fault the missing
//! 4 KB or 2 MB page is migrated over the interconnect into local memory.

use serde::Serialize;

use crate::bandwidth::BandwidthServer;

/// A point-to-point interconnect link with fixed latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Link {
    /// Sustained bandwidth in bytes per core cycle.
    pub bandwidth_bytes_per_cycle: f64,
    /// One-way latency in cycles (per transfer, not per byte).
    pub latency_cycles: u64,
}

impl Link {
    /// Cycles for an isolated transfer of `bytes` over this link.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.latency_cycles + ((bytes as f64 / self.bandwidth_bytes_per_cycle).ceil() as u64).max(1)
    }
}

/// Interconnect configuration (Table I, "System Interconnect").
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InterconnectConfig {
    /// CPU↔NPU PCIe link (16 GB/s at a 1 GHz core clock → 16 bytes/cycle).
    pub pcie: Link,
    /// NPU↔NPU high-bandwidth link (160 GB/s → 160 bytes/cycle).
    pub npu_link: Link,
    /// Additional latency of a remote (NUMA) access across the system
    /// interconnect, on top of serialization (150 cycles).
    pub numa_hop_latency_cycles: u64,
    /// Host runtime/driver overhead charged per CPU-relayed copy operation.
    ///
    /// The MMU-less baseline needs the CPU to orchestrate every gather; this
    /// constant models the kernel-launch / driver round-trip per staged copy.
    pub host_staging_overhead_cycles: u64,
    /// Overhead of taking and servicing one page fault (far-fault handling,
    /// page-table update, TLB shootdown) in cycles, excluding the data
    /// transfer itself.
    pub page_fault_overhead_cycles: u64,
}

impl InterconnectConfig {
    /// The Table I configuration.
    #[must_use]
    pub const fn table1() -> Self {
        InterconnectConfig {
            pcie: Link {
                bandwidth_bytes_per_cycle: 16.0,
                latency_cycles: 500,
            },
            npu_link: Link {
                bandwidth_bytes_per_cycle: 160.0,
                latency_cycles: 150,
            },
            numa_hop_latency_cycles: 150,
            host_staging_overhead_cycles: 2_000,
            page_fault_overhead_cycles: 600,
        }
    }
}

impl Default for InterconnectConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// Which interconnect a remote transfer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TransferKind {
    /// Over the legacy PCIe system interconnect ("NUMA(slow)" in Figure 15).
    Pcie,
    /// Over the high-bandwidth NPU↔NPU link ("NUMA(fast)" in Figure 15).
    NpuLink,
}

/// Stateful model of the system interconnect shared by all devices.
#[derive(Debug, Clone, Serialize)]
pub struct CopyEngine {
    config: InterconnectConfig,
    pcie_server: BandwidthServer,
    npu_link_server: BandwidthServer,
    /// Count of CPU-relayed staged copies performed.
    staged_copies: u64,
    /// Count of fine-grained NUMA accesses performed.
    numa_accesses: u64,
    /// Count of page migrations performed.
    page_migrations: u64,
}

impl CopyEngine {
    /// Creates a copy engine from an interconnect configuration.
    #[must_use]
    pub fn new(config: InterconnectConfig) -> Self {
        CopyEngine {
            config,
            pcie_server: BandwidthServer::new(config.pcie.bandwidth_bytes_per_cycle),
            npu_link_server: BandwidthServer::new(config.npu_link.bandwidth_bytes_per_cycle),
            staged_copies: 0,
            numa_accesses: 0,
            page_migrations: 0,
        }
    }

    /// Configuration in use.
    #[must_use]
    pub fn config(&self) -> InterconnectConfig {
        self.config
    }

    fn server_mut(&mut self, kind: TransferKind) -> &mut BandwidthServer {
        match kind {
            TransferKind::Pcie => &mut self.pcie_server,
            TransferKind::NpuLink => &mut self.npu_link_server,
        }
    }

    fn link(&self, kind: TransferKind) -> Link {
        match kind {
            TransferKind::Pcie => self.config.pcie,
            TransferKind::NpuLink => self.config.npu_link,
        }
    }

    /// Models the MMU-less baseline: the CPU runtime copies `bytes` from the
    /// source NPU to host pinned memory and then to the destination NPU, both
    /// hops over PCIe, with per-copy staging overhead.
    ///
    /// Returns the cycle at which the data is available at the destination.
    pub fn host_relayed_copy(&mut self, ready_cycle: u64, bytes: u64) -> u64 {
        self.staged_copies += 1;
        let cfg = self.config;
        // Hop 1: source NPU -> host pinned buffer.
        let staged_ready = ready_cycle + cfg.host_staging_overhead_cycles;
        let first = self.pcie_server.schedule(staged_ready, bytes);
        let at_host = first.end + cfg.pcie.latency_cycles;
        // Hop 2: host pinned buffer -> destination NPU (second staging step).
        let second_ready = at_host + cfg.host_staging_overhead_cycles;
        let second = self.pcie_server.schedule(second_ready, bytes);
        second.end + cfg.pcie.latency_cycles
    }

    /// Models one fine-grained NUMA access of `bytes` from a remote memory over
    /// the given interconnect. Returns the completion cycle.
    pub fn numa_access(&mut self, ready_cycle: u64, bytes: u64, kind: TransferKind) -> u64 {
        self.numa_accesses += 1;
        let hop = self.config.numa_hop_latency_cycles;
        let link = self.link(kind);
        let occ = self.server_mut(kind).schedule(ready_cycle, bytes);
        occ.end + hop + link.latency_cycles
    }

    /// Models the migration of one page of `page_bytes` into local memory on a
    /// page fault (demand paging). Returns the completion cycle.
    pub fn page_migration(&mut self, ready_cycle: u64, page_bytes: u64, kind: TransferKind) -> u64 {
        self.page_migrations += 1;
        let fault_done = ready_cycle + self.config.page_fault_overhead_cycles;
        let link = self.link(kind);
        let occ = self.server_mut(kind).schedule(fault_done, page_bytes);
        occ.end + self.config.numa_hop_latency_cycles + link.latency_cycles
    }

    /// Number of CPU-relayed staged copies performed.
    #[must_use]
    pub fn staged_copies(&self) -> u64 {
        self.staged_copies
    }

    /// Number of fine-grained NUMA accesses performed.
    #[must_use]
    pub fn numa_accesses(&self) -> u64 {
        self.numa_accesses
    }

    /// Number of page migrations performed.
    #[must_use]
    pub fn page_migrations(&self) -> u64 {
        self.page_migrations
    }

    /// Total bytes moved over PCIe.
    #[must_use]
    pub fn pcie_bytes(&self) -> u64 {
        self.pcie_server.total_bytes()
    }

    /// Total bytes moved over the NPU↔NPU link.
    #[must_use]
    pub fn npu_link_bytes(&self) -> u64 {
        self.npu_link_server.total_bytes()
    }

    /// Resets occupancy and statistics.
    pub fn reset(&mut self) {
        self.pcie_server.reset();
        self.npu_link_server.reset();
        self.staged_copies = 0;
        self.numa_accesses = 0;
        self.page_migrations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_link_speeds() {
        let cfg = InterconnectConfig::table1();
        assert!((cfg.pcie.bandwidth_bytes_per_cycle - 16.0).abs() < f64::EPSILON);
        assert!((cfg.npu_link.bandwidth_bytes_per_cycle - 160.0).abs() < f64::EPSILON);
        assert_eq!(cfg.numa_hop_latency_cycles, 150);
    }

    #[test]
    fn isolated_link_transfer() {
        let link = Link {
            bandwidth_bytes_per_cycle: 16.0,
            latency_cycles: 500,
        };
        assert_eq!(link.transfer_cycles(0), 0);
        assert_eq!(link.transfer_cycles(16), 501);
        assert_eq!(link.transfer_cycles(1600), 600);
    }

    #[test]
    fn host_relayed_copy_is_slower_than_direct_numa() {
        // The core claim of Section V: the CPU-relayed path pays two PCIe hops
        // plus staging overhead, while NUMA pays one hop.
        let bytes = 256; // one embedding vector (64 × f32)
        let mut engine = CopyEngine::new(InterconnectConfig::table1());
        let staged = engine.host_relayed_copy(0, bytes);
        let mut engine2 = CopyEngine::new(InterconnectConfig::table1());
        let numa_slow = engine2.numa_access(0, bytes, TransferKind::Pcie);
        let mut engine3 = CopyEngine::new(InterconnectConfig::table1());
        let numa_fast = engine3.numa_access(0, bytes, TransferKind::NpuLink);
        assert!(
            staged > numa_slow,
            "staged {staged} vs numa_slow {numa_slow}"
        );
        assert!(
            numa_slow > numa_fast,
            "numa_slow {numa_slow} vs numa_fast {numa_fast}"
        );
    }

    #[test]
    fn npu_link_is_faster_for_bulk_transfers() {
        let mut engine = CopyEngine::new(InterconnectConfig::table1());
        let over_pcie = engine.numa_access(0, 1 << 20, TransferKind::Pcie);
        engine.reset();
        let over_nvlink = engine.numa_access(0, 1 << 20, TransferKind::NpuLink);
        assert!(over_pcie > 5 * over_nvlink);
    }

    #[test]
    fn page_migration_scales_with_page_size() {
        let mut engine = CopyEngine::new(InterconnectConfig::table1());
        let small = engine.page_migration(0, 4096, TransferKind::NpuLink);
        engine.reset();
        let large = engine.page_migration(0, 2 << 20, TransferKind::NpuLink);
        assert!(
            large > 100 * small / 10,
            "2MB migration should dwarf 4KB: {large} vs {small}"
        );
        assert_eq!(engine.page_migrations(), 1);
    }

    #[test]
    fn shared_link_serializes_concurrent_transfers() {
        let mut engine = CopyEngine::new(InterconnectConfig::table1());
        let a = engine.numa_access(0, 16_000, TransferKind::Pcie); // 1000 cycles of bw
        let b = engine.numa_access(0, 16_000, TransferKind::Pcie);
        assert!(b >= a + 1000 - 1);
        assert_eq!(engine.numa_accesses(), 2);
        assert_eq!(engine.pcie_bytes(), 32_000);
        assert_eq!(engine.npu_link_bytes(), 0);
    }

    #[test]
    fn counters_and_reset() {
        let mut engine = CopyEngine::new(InterconnectConfig::table1());
        engine.host_relayed_copy(0, 100);
        engine.numa_access(0, 100, TransferKind::NpuLink);
        engine.page_migration(0, 4096, TransferKind::Pcie);
        assert_eq!(engine.staged_copies(), 1);
        assert_eq!(engine.numa_accesses(), 1);
        assert_eq!(engine.page_migrations(), 1);
        engine.reset();
        assert_eq!(engine.staged_copies(), 0);
        assert_eq!(engine.pcie_bytes(), 0);
    }
}
