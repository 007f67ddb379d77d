//! Memory and interconnect timing models for the NeuMMU reproduction.
//!
//! The paper models the NPU memory system with fixed latency and bandwidth
//! (Table I) instead of a cycle-level DRAM simulator, and the multi-device
//! system interconnect (PCIe, NPU↔NPU links) with bandwidth/latency pairs plus
//! a NUMA hop latency. This crate provides those models:
//!
//! * [`bandwidth`] — a serializing bandwidth server used by every shared link,
//! * [`dram`] — the NPU-local HBM model (600 GB/s, 100-cycle latency),
//! * [`interconnect`] — PCIe / NPU↔NPU links, CPU-relayed staged copies,
//!   fine-grained NUMA accesses and demand-paging transfers.
//!
//! # Example
//!
//! ```
//! use neummu_mem::dram::DramModel;
//! use neummu_mem::interconnect::InterconnectConfig;
//!
//! let mut dram = DramModel::tpu_like();
//! // Fetching a 4 KB page from idle local HBM: latency + serialization.
//! let cycles = dram.schedule_transfer(0, 4096);
//! assert!(cycles > 100);
//!
//! let ic = InterconnectConfig::table1();
//! assert!(ic.npu_link.bandwidth_bytes_per_cycle > ic.pcie.bandwidth_bytes_per_cycle);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bandwidth;
pub mod dram;
pub mod interconnect;

pub use bandwidth::BandwidthServer;
pub use dram::{DramConfig, DramModel};
pub use interconnect::{CopyEngine, InterconnectConfig, Link, TransferKind};
