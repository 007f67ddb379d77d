//! NPU architecture model for the NeuMMU reproduction.
//!
//! This crate models the baseline NPU of the paper (Section II-C): a Google
//! TPU-style 128×128 weight-stationary systolic array fed from software-managed
//! scratchpads, with a DMA engine that moves multi-MB tiles of input
//! activations (IA) and weights (W) between main memory and the scratchpad.
//!
//! The modules mirror the paper's decomposition:
//!
//! * [`config`] — Table I processor parameters,
//! * [`tensor`] — tensor shapes, data types and byte footprints,
//! * [`layer`] — dense layer descriptors and their GEMM lowering,
//! * [`tiling`] — the SPM-constrained tiler that produces the per-tile work
//!   list (the source of the paper's compute/memory phase structure, Figure 3),
//! * [`dma`] — decomposition of a tile fetch into linearized memory
//!   transactions, each of which requires one address translation (the source
//!   of the paper's translation bursts, Figures 6 and 7),
//! * [`systolic`] — compute-phase latency for the systolic array and for the
//!   spatial-array alternative of Section VI-B.
//!
//! # Example
//!
//! ```
//! use neummu_npu::prelude::*;
//!
//! let npu = NpuConfig::tpu_like();
//! let layer = Layer::conv2d("conv1", 1, 3, 224, 224, 64, 7, 7, 2, 3);
//! let plan = TilingPlan::for_layer(&layer, &npu).unwrap();
//! assert!(plan.tile_count() >= 1);
//! let dma = DmaEngine::new(npu.dma);
//! let first_tile = &plan.tiles()[0];
//! if let Some(fetch) = &first_tile.ia_fetch {
//!     let txns = dma.transactions(fetch);
//!     assert!(!txns.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod dma;
pub mod error;
pub mod layer;
pub mod systolic;
pub mod tensor;
pub mod tiling;

pub use config::{DmaConfig, NpuConfig};
pub use dma::{DmaEngine, MemTransaction, PageRun, PageRunIter, TransactionIter};
pub use error::NpuError;
pub use layer::{GemmDims, Layer, LayerOp};
pub use systolic::ComputeModel;
pub use tensor::{DataType, TensorKind, TensorShape};
pub use tiling::{TileFetch, TileWork, TilingPlan};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::config::{DmaConfig, NpuConfig};
    pub use crate::dma::{DmaEngine, MemTransaction, PageRun, PageRunIter, TransactionIter};
    pub use crate::error::NpuError;
    pub use crate::layer::{GemmDims, Layer, LayerOp};
    pub use crate::systolic::ComputeModel;
    pub use crate::tensor::{DataType, TensorKind, TensorShape};
    pub use crate::tiling::{TileFetch, TileWork, TilingPlan};
}
