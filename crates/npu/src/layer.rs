//! Dense layer descriptors and their GEMM lowering.
//!
//! The baseline NPU executes convolutions and matrix multiplications on its
//! systolic array; every dense layer is lowered to a GEMM
//! `C[M×N] = A[M×K] · B[K×N]` where `A` holds (im2col-expanded) activations
//! and `B` holds the weights. The lowering determines compute cycles and the
//! byte footprints of the IA/W/OA tensors, which in turn determine tile sizes
//! and DMA translation traffic.

use serde::Serialize;

use crate::error::NpuError;
use crate::tensor::{DataType, TensorShape};

/// GEMM dimensions after lowering a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct GemmDims {
    /// Number of output rows (batch × output spatial positions).
    pub m: u64,
    /// Reduction (inner-product) dimension.
    pub k: u64,
    /// Number of output columns (output channels / features).
    pub n: u64,
}

impl GemmDims {
    /// Total multiply-accumulate operations of the GEMM.
    #[must_use]
    pub fn macs(&self) -> u64 {
        self.m * self.k * self.n
    }
}

/// The operator computed by a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum LayerOp {
    /// 2-D convolution over NCHW activations with KCRS weights.
    Conv2d {
        /// Batch size.
        batch: u64,
        /// Input channels.
        in_channels: u64,
        /// Input height.
        height: u64,
        /// Input width.
        width: u64,
        /// Output channels (number of filters).
        out_channels: u64,
        /// Filter height.
        kernel_h: u64,
        /// Filter width.
        kernel_w: u64,
        /// Stride (same in both dimensions).
        stride: u64,
        /// Padding (same on all sides).
        padding: u64,
    },
    /// Fully-connected layer: batch of GEMV operations.
    FullyConnected {
        /// Batch size.
        batch: u64,
        /// Input features.
        in_features: u64,
        /// Output features.
        out_features: u64,
    },
    /// Plain recurrent cell (DeepBench "vanilla RNN"): one GEMV over the
    /// concatenated input+hidden vector per time step.
    RnnCell {
        /// Batch size.
        batch: u64,
        /// Hidden state width.
        hidden: u64,
        /// Input width.
        input: u64,
        /// Number of time steps executed with these weights.
        time_steps: u64,
    },
    /// LSTM cell: four gate GEMMs over the concatenated input+hidden vector
    /// per time step.
    LstmCell {
        /// Batch size.
        batch: u64,
        /// Hidden state width.
        hidden: u64,
        /// Input width.
        input: u64,
        /// Number of time steps executed with these weights.
        time_steps: u64,
    },
}

/// A named dense layer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Layer {
    name: String,
    op: LayerOp,
    dtype: DataType,
}

impl Layer {
    /// Creates a layer with an explicit data type.
    #[must_use]
    pub fn new(name: impl Into<String>, op: LayerOp, dtype: DataType) -> Self {
        Layer {
            name: name.into(),
            op,
            dtype,
        }
    }

    /// Convenience constructor for a convolution layer (bf16 precision).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn conv2d(
        name: impl Into<String>,
        batch: u64,
        in_channels: u64,
        height: u64,
        width: u64,
        out_channels: u64,
        kernel_h: u64,
        kernel_w: u64,
        stride: u64,
        padding: u64,
    ) -> Self {
        Layer::new(
            name,
            LayerOp::Conv2d {
                batch,
                in_channels,
                height,
                width,
                out_channels,
                kernel_h,
                kernel_w,
                stride,
                padding,
            },
            DataType::Bf16,
        )
    }

    /// Convenience constructor for a fully-connected layer (bf16 precision).
    #[must_use]
    pub fn fully_connected(
        name: impl Into<String>,
        batch: u64,
        in_features: u64,
        out_features: u64,
    ) -> Self {
        Layer::new(
            name,
            LayerOp::FullyConnected {
                batch,
                in_features,
                out_features,
            },
            DataType::Bf16,
        )
    }

    /// Convenience constructor for a vanilla RNN cell (bf16 precision, as in
    /// DeepBench training/inference kernels).
    #[must_use]
    pub fn rnn_cell(
        name: impl Into<String>,
        batch: u64,
        hidden: u64,
        input: u64,
        time_steps: u64,
    ) -> Self {
        Layer::new(
            name,
            LayerOp::RnnCell {
                batch,
                hidden,
                input,
                time_steps,
            },
            DataType::Bf16,
        )
    }

    /// Convenience constructor for an LSTM cell (bf16 precision).
    #[must_use]
    pub fn lstm_cell(
        name: impl Into<String>,
        batch: u64,
        hidden: u64,
        input: u64,
        time_steps: u64,
    ) -> Self {
        Layer::new(
            name,
            LayerOp::LstmCell {
                batch,
                hidden,
                input,
                time_steps,
            },
            DataType::Bf16,
        )
    }

    /// Layer name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator.
    #[must_use]
    pub fn op(&self) -> LayerOp {
        self.op
    }

    /// Element precision.
    #[must_use]
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Batch size of the layer.
    #[must_use]
    pub fn batch(&self) -> u64 {
        match self.op {
            LayerOp::Conv2d { batch, .. }
            | LayerOp::FullyConnected { batch, .. }
            | LayerOp::RnnCell { batch, .. }
            | LayerOp::LstmCell { batch, .. } => batch,
        }
    }

    /// Output spatial size of a convolution (height, width).
    fn conv_output_hw(&self) -> Option<(u64, u64)> {
        if let LayerOp::Conv2d {
            height,
            width,
            kernel_h,
            kernel_w,
            stride,
            padding,
            ..
        } = self.op
        {
            if stride == 0 {
                return Some((0, 0));
            }
            let padded_h = height + 2 * padding;
            let padded_w = width + 2 * padding;
            if kernel_h > padded_h || kernel_w > padded_w {
                return Some((0, 0));
            }
            let oh = (padded_h - kernel_h) / stride + 1;
            let ow = (padded_w - kernel_w) / stride + 1;
            Some((oh, ow))
        } else {
            None
        }
    }

    /// GEMM dimensions of one execution step of the layer.
    ///
    /// Recurrent cells execute one such GEMM per time step with the *same*
    /// weights (see [`Layer::repeats`]); convolutions and fully-connected
    /// layers execute exactly one.
    #[must_use]
    pub fn gemm(&self) -> GemmDims {
        match self.op {
            LayerOp::Conv2d {
                batch,
                in_channels,
                out_channels,
                kernel_h,
                kernel_w,
                ..
            } => {
                let (oh, ow) = self.conv_output_hw().expect("conv layer has output dims");
                GemmDims {
                    m: batch * oh * ow,
                    k: in_channels * kernel_h * kernel_w,
                    n: out_channels,
                }
            }
            LayerOp::FullyConnected {
                batch,
                in_features,
                out_features,
            } => GemmDims {
                m: batch,
                k: in_features,
                n: out_features,
            },
            LayerOp::RnnCell {
                batch,
                hidden,
                input,
                ..
            } => GemmDims {
                m: batch,
                k: hidden + input,
                n: hidden,
            },
            LayerOp::LstmCell {
                batch,
                hidden,
                input,
                ..
            } => GemmDims {
                m: batch,
                k: hidden + input,
                n: 4 * hidden,
            },
        }
    }

    /// How many times the per-step GEMM of [`Layer::gemm`] is executed.
    ///
    /// Recurrent cells run once per time step, re-streaming their weights from
    /// main memory each step whenever the weight matrix exceeds the scratchpad
    /// (which is what makes small-batch RNN inference memory-bound).
    #[must_use]
    pub fn repeats(&self) -> u64 {
        match self.op {
            LayerOp::RnnCell { time_steps, .. } | LayerOp::LstmCell { time_steps, .. } => {
                time_steps.max(1)
            }
            _ => 1,
        }
    }

    /// Shape of the input-activation tensor resident in main memory.
    ///
    /// For matrix-multiplication lowering the activation operand is stored in
    /// its im2col-lowered layout (`M × K`), which is what the DMA streams into
    /// the scratchpad tile by tile.
    #[must_use]
    pub fn ia_shape(&self) -> TensorShape {
        let gemm = self.gemm();
        TensorShape::new(&[gemm.m, gemm.k], self.dtype)
    }

    /// Shape of the weight tensor resident in main memory.
    #[must_use]
    pub fn w_shape(&self) -> TensorShape {
        let gemm = self.gemm();
        TensorShape::new(&[gemm.k, gemm.n], self.dtype)
    }

    /// Shape of the output-activation tensor written back to main memory.
    #[cfg(test)]
    #[must_use]
    pub fn oa_shape(&self) -> TensorShape {
        match self.op {
            LayerOp::Conv2d {
                batch,
                out_channels,
                ..
            } => {
                let (oh, ow) = self.conv_output_hw().expect("conv layer has output dims");
                TensorShape::new(&[batch, out_channels, oh, ow], self.dtype)
            }
            _ => {
                let gemm = self.gemm();
                TensorShape::new(&[gemm.m, gemm.n], self.dtype)
            }
        }
    }

    /// Validates the layer dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::InvalidLayer`] if any dimension is zero or a
    /// convolution kernel does not fit in its padded input.
    pub fn validate(&self) -> Result<(), NpuError> {
        let fail = |reason: &str| {
            Err(NpuError::InvalidLayer {
                layer: self.name.clone(),
                reason: reason.into(),
            })
        };
        let gemm = self.gemm();
        if gemm.m == 0 || gemm.k == 0 || gemm.n == 0 {
            return fail("lowered GEMM has a zero dimension");
        }
        if let LayerOp::Conv2d {
            height,
            width,
            kernel_h,
            kernel_w,
            stride,
            padding,
            ..
        } = self.op
        {
            if stride == 0 {
                return fail("stride must be positive");
            }
            if kernel_h > height + 2 * padding || kernel_w > width + 2 * padding {
                return fail("kernel larger than padded input");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_conv1_lowering() {
        // AlexNet conv1: 3x224x224 input, 64 filters of 11x11, stride 4, pad 2.
        let layer = Layer::conv2d("conv1", 1, 3, 224, 224, 64, 11, 11, 4, 2);
        let gemm = layer.gemm();
        assert_eq!(gemm.m, 55 * 55);
        assert_eq!(gemm.k, 3 * 11 * 11);
        assert_eq!(gemm.n, 64);
        // IA is stored in its im2col-lowered (M x K) layout at bf16.
        assert_eq!(layer.ia_shape().bytes(), 55 * 55 * 363 * 2);
        assert_eq!(layer.w_shape().bytes(), 3 * 11 * 11 * 64 * 2);
        assert_eq!(layer.oa_shape().bytes(), 64 * 55 * 55 * 2);
        assert!(layer.validate().is_ok());
    }

    #[test]
    fn fully_connected_lowering() {
        let layer = Layer::fully_connected("fc6", 4, 9216, 4096);
        let gemm = layer.gemm();
        assert_eq!(
            gemm,
            GemmDims {
                m: 4,
                k: 9216,
                n: 4096
            }
        );
        assert_eq!(gemm.macs(), 4 * 9216 * 4096);
        assert_eq!(layer.w_shape().bytes(), 9216 * 4096 * 2);
    }

    #[test]
    fn lstm_cell_has_four_gates() {
        let lstm = Layer::lstm_cell("lstm", 2, 1760, 1760, 50);
        let gemm = lstm.gemm();
        assert_eq!(gemm.n, 4 * 1760);
        assert_eq!(gemm.k, 2 * 1760);
        assert_eq!(gemm.m, 2);
        assert_eq!(lstm.repeats(), 50);
        // Weights are (input+hidden) x 4*hidden at bf16.
        assert_eq!(lstm.w_shape().bytes(), 2 * 1760 * 4 * 1760 * 2);
    }

    #[test]
    fn rnn_cell_lowering() {
        let rnn = Layer::rnn_cell("rnn", 1, 2560, 2560, 100);
        let gemm = rnn.gemm();
        assert_eq!(gemm.n, 2560);
        assert_eq!(gemm.k, 5120);
        assert_eq!(gemm.m, 1);
        assert_eq!(rnn.repeats(), 100);
        assert_eq!(Layer::fully_connected("fc", 4, 8, 8).repeats(), 1);
    }

    #[test]
    fn with_batch_rescales_only_batch() {
        let layer = Layer::conv2d("c", 1, 64, 56, 56, 64, 3, 3, 1, 1);
        let b8 = Layer::conv2d("c", 8, 64, 56, 56, 64, 3, 3, 1, 1);
        assert_eq!(b8.batch(), 8);
        assert_eq!(b8.gemm().m, 8 * layer.gemm().m);
        assert_eq!(b8.gemm().k, layer.gemm().k);
        assert_eq!(b8.w_shape(), layer.w_shape());
        assert_eq!(b8.ia_shape().bytes(), 8 * layer.ia_shape().bytes());
    }

    #[test]
    fn invalid_layers_detected() {
        let bad_kernel = Layer::conv2d("bad", 1, 3, 8, 8, 16, 11, 11, 1, 0);
        assert!(bad_kernel.validate().is_err());
        let zero_stride = Layer::conv2d("bad2", 1, 3, 32, 32, 16, 3, 3, 0, 1);
        // Zero stride panics on division; construct via validate path instead.
        assert!(
            std::panic::catch_unwind(|| zero_stride.validate()).is_err()
                || zero_stride.validate().is_err()
        );
    }

    #[test]
    fn oa_shape_of_conv_matches_output_dims() {
        let layer = Layer::conv2d("c", 2, 64, 56, 56, 256, 1, 1, 1, 0);
        assert_eq!(layer.oa_shape().dims(), &[2, 256, 56, 56]);
    }
}
