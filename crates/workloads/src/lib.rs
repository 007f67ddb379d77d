//! Workload definitions for the NeuMMU reproduction.
//!
//! The paper evaluates two families of workloads (Section II-C):
//!
//! * **Dense DNNs** — three CNNs (AlexNet, GoogLeNet, ResNet-50, denoted
//!   CNN-1/2/3) and three DeepBench-style RNNs (one GEMV-based vanilla RNN and
//!   two LSTMs, denoted RNN-1/2/3), each at batch sizes 1, 4 and 8.
//! * **Sparse, embedding-dominated recommenders** — the neural collaborative
//!   filtering model (NCF) and Facebook's DLRM, used for the Section V NUMA /
//!   demand-paging case study at batch sizes 1, 8 and 64.
//!
//! Layer tables are constructed from the published architecture dimensions;
//! only shapes matter for address-translation behaviour, never weight values.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cnn;
pub mod embedding;
pub mod rnn;
pub mod suite;

pub use embedding::{
    EmbeddingModel, EmbeddingTableSpec, IndexDistribution, LookupStream, LookupTrace,
};
pub use suite::{sparse_suite, DenseWorkload, WorkloadId, DENSE_BATCH_SIZES};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::cnn;
    pub use crate::embedding::{
        EmbeddingModel, EmbeddingTableSpec, IndexDistribution, LookupStream, LookupTrace,
    };
    pub use crate::rnn;
    pub use crate::suite::{sparse_suite, DenseWorkload, WorkloadId, DENSE_BATCH_SIZES};
}
