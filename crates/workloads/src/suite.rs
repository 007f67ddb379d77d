//! The benchmark suites used throughout the evaluation.
//!
//! * The **dense suite** is CNN-1/2/3 and RNN-1/2/3 at batch sizes 1, 4 and 8
//!   (denoted `b01`/`b04`/`b08` in the paper's figures).
//! * The **sparse suite** is NCF and DLRM at batch sizes 1, 8 and 64.
//! * Each dense workload also exposes a "common layer" used for the
//!   large-batch sensitivity study of Section VI-C, where simulating the full
//!   network would be intractable.

use serde::Serialize;

use neummu_npu::layer::Layer;

use crate::cnn;
use crate::embedding::EmbeddingModel;
use crate::rnn;

/// Batch sizes of the dense-DNN evaluation (`b01`, `b04`, `b08`).
pub const DENSE_BATCH_SIZES: [u64; 3] = [1, 4, 8];

/// Identifies one workload of the dense suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum WorkloadId {
    /// AlexNet.
    Cnn1,
    /// GoogLeNet.
    Cnn2,
    /// ResNet-50.
    Cnn3,
    /// DeepBench vanilla (GEMV) RNN.
    Rnn1,
    /// DeepBench LSTM, hidden size 1760.
    Rnn2,
    /// DeepBench LSTM, hidden size 2048.
    Rnn3,
}

impl WorkloadId {
    /// All dense workloads in the paper's figure order.
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::Cnn1,
        WorkloadId::Cnn2,
        WorkloadId::Cnn3,
        WorkloadId::Rnn1,
        WorkloadId::Rnn2,
        WorkloadId::Rnn3,
    ];

    /// The label used in the paper's figures (e.g. `CNN-1`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadId::Cnn1 => "CNN-1",
            WorkloadId::Cnn2 => "CNN-2",
            WorkloadId::Cnn3 => "CNN-3",
            WorkloadId::Rnn1 => "RNN-1",
            WorkloadId::Rnn2 => "RNN-2",
            WorkloadId::Rnn3 => "RNN-3",
        }
    }

    /// True for the recurrent workloads.
    #[must_use]
    pub fn is_rnn(self) -> bool {
        matches!(self, WorkloadId::Rnn1 | WorkloadId::Rnn2 | WorkloadId::Rnn3)
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One dense workload: a named DNN whose layer list depends on the batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DenseWorkload {
    /// Workload identity.
    pub id: WorkloadId,
}

impl DenseWorkload {
    /// Creates the workload wrapper for an id.
    #[must_use]
    pub fn new(id: WorkloadId) -> Self {
        DenseWorkload { id }
    }

    /// Human-readable network name.
    #[must_use]
    pub fn network_name(&self) -> &'static str {
        match self.id {
            WorkloadId::Cnn1 => "AlexNet",
            WorkloadId::Cnn2 => "GoogLeNet",
            WorkloadId::Cnn3 => "ResNet-50",
            WorkloadId::Rnn1 => "DeepBench GEMV RNN (h=2560)",
            WorkloadId::Rnn2 => "DeepBench LSTM (h=1760)",
            WorkloadId::Rnn3 => "DeepBench LSTM (h=2048)",
        }
    }

    /// The workload's layers at the given batch size.
    #[must_use]
    pub fn layers(&self, batch: u64) -> Vec<Layer> {
        match self.id {
            WorkloadId::Cnn1 => cnn::alexnet(batch),
            WorkloadId::Cnn2 => cnn::googlenet(batch),
            WorkloadId::Cnn3 => cnn::resnet50(batch),
            WorkloadId::Rnn1 => rnn::rnn1(batch),
            WorkloadId::Rnn2 => rnn::rnn2(batch),
            WorkloadId::Rnn3 => rnn::rnn3(batch),
        }
    }

    /// The representative "common layer" of the network, used for the
    /// large-batch sensitivity study of Section VI-C.
    #[must_use]
    pub fn common_layer(&self, batch: u64) -> Layer {
        match self.id {
            // The most frequently occurring convolution shape of each CNN.
            WorkloadId::Cnn1 => Layer::conv2d("common", batch, 256, 13, 13, 256, 3, 3, 1, 1),
            WorkloadId::Cnn2 => Layer::conv2d("common", batch, 512, 14, 14, 256, 3, 3, 1, 1),
            WorkloadId::Cnn3 => Layer::conv2d("common", batch, 256, 28, 28, 256, 3, 3, 1, 1),
            // RNNs are dominated by their (single) recurrent cell; one step.
            WorkloadId::Rnn1 => Layer::rnn_cell("common", batch, 2560, 2560, 1),
            WorkloadId::Rnn2 => Layer::lstm_cell("common", batch, 1760, 1760, 1),
            WorkloadId::Rnn3 => Layer::lstm_cell("common", batch, 2048, 2048, 1),
        }
    }
}

/// The full dense suite (CNN-1..3, RNN-1..3).
#[must_use]
pub fn dense_suite() -> Vec<DenseWorkload> {
    WorkloadId::ALL
        .iter()
        .copied()
        .map(DenseWorkload::new)
        .collect()
}

/// The sparse (embedding) suite: NCF and DLRM.
#[must_use]
pub fn sparse_suite() -> Vec<EmbeddingModel> {
    vec![EmbeddingModel::ncf(), EmbeddingModel::dlrm()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_six_dense_workloads() {
        let suite = dense_suite();
        assert_eq!(suite.len(), 6);
        let labels: Vec<_> = suite.iter().map(|w| w.id.label()).collect();
        assert_eq!(
            labels,
            ["CNN-1", "CNN-2", "CNN-3", "RNN-1", "RNN-2", "RNN-3"]
        );
    }

    #[test]
    fn every_workload_produces_valid_layers_at_every_batch() {
        for workload in dense_suite() {
            for &batch in &DENSE_BATCH_SIZES {
                let layers = workload.layers(batch);
                assert!(!layers.is_empty());
                for layer in &layers {
                    assert!(
                        layer.validate().is_ok(),
                        "{}: {}",
                        workload.network_name(),
                        layer.name()
                    );
                }
            }
        }
    }

    #[test]
    fn common_layers_are_valid_at_large_batches() {
        for workload in dense_suite() {
            for batch in [32, 64, 128] {
                assert!(workload.common_layer(batch).validate().is_ok());
            }
        }
    }

    #[test]
    fn rnn_classification() {
        assert!(WorkloadId::Rnn1.is_rnn());
        assert!(!WorkloadId::Cnn3.is_rnn());
    }

    #[test]
    fn display_matches_figure_labels() {
        assert_eq!(WorkloadId::Cnn1.to_string(), "CNN-1");
        assert_eq!(format!("{}", WorkloadId::Rnn3), "RNN-3");
    }

    #[test]
    fn sparse_suite_has_ncf_and_dlrm() {
        let sparse = sparse_suite();
        assert_eq!(sparse.len(), 2);
        assert_eq!(sparse[0].name(), "NCF");
        assert_eq!(sparse[1].name(), "DLRM");
    }
}
