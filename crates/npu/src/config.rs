//! NPU hardware configuration (Table I, "Processor architecture").

use serde::Serialize;

use crate::error::NpuError;
use crate::systolic::ComputeModel;
use crate::tensor::DataType;

/// Configuration of the DMA engine that moves tiles between main memory and
/// the scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DmaConfig {
    /// Maximum size of one linearized memory transaction issued by the DMA.
    ///
    /// A multi-MB tile is decomposed into transactions of at most this size;
    /// each transaction requires one virtual-to-physical translation
    /// (Section III-C). State-of-the-art DMA engines issue KB-scale bursts.
    pub max_transaction_bytes: u64,
    /// Number of translation requests the DMA can issue per cycle.
    ///
    /// The paper's traffic characterization assumes one per cycle (the y-axis
    /// ceiling of Figure 7).
    pub translations_per_cycle: u32,
}

impl DmaConfig {
    /// Default DMA engine: 512-byte transactions, one translation per cycle.
    #[must_use]
    pub const fn default_config() -> Self {
        DmaConfig {
            max_transaction_bytes: 512,
            translations_per_cycle: 1,
        }
    }
}

impl Default for DmaConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// NPU processor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NpuConfig {
    /// Compute-array organization and timing model.
    pub compute: ComputeModel,
    /// Operating frequency of the processing elements in GHz.
    pub frequency_ghz: f64,
    /// Scratchpad capacity reserved for activations (IA/OA), in bytes.
    pub act_spm_bytes: u64,
    /// Scratchpad capacity reserved for weights, in bytes.
    pub weight_spm_bytes: u64,
    /// Whether the scratchpads are double-buffered (tile(n) compute overlapped
    /// with tile(n+1) fetch, Figure 3). When true, a tile may use at most half
    /// of each scratchpad partition.
    pub double_buffered: bool,
    /// Numeric precision of activations and weights.
    pub dtype: DataType,
    /// DMA engine configuration.
    pub dma: DmaConfig,
}

impl NpuConfig {
    /// The baseline Table I configuration: 128×128 systolic array at 1 GHz,
    /// 15 MB activation / 10 MB weight scratchpads, double buffering, 8-bit
    /// datatypes (as in the original TPU).
    #[must_use]
    pub fn tpu_like() -> Self {
        NpuConfig {
            compute: ComputeModel::systolic(128, 128),
            frequency_ghz: 1.0,
            act_spm_bytes: 15 * 1024 * 1024,
            weight_spm_bytes: 10 * 1024 * 1024,
            double_buffered: true,
            dtype: DataType::Int8,
            dma: DmaConfig::default_config(),
        }
    }

    /// A spatial-array NPU in the style of DaDianNao/Eyeriss (Section VI-B):
    /// a 16×16 grid of PEs, each with a 16-wide vector MAC unit, and the same
    /// SPM-centric memory hierarchy as the baseline.
    #[must_use]
    pub fn spatial_array() -> Self {
        NpuConfig {
            compute: ComputeModel::spatial(16 * 16, 16),
            ..Self::tpu_like()
        }
    }

    /// Scratchpad bytes available to a *single* tile of activations
    /// (half the partition when double buffering is enabled).
    #[must_use]
    pub fn act_tile_budget(&self) -> u64 {
        if self.double_buffered {
            self.act_spm_bytes / 2
        } else {
            self.act_spm_bytes
        }
    }

    /// Scratchpad bytes available to a single tile of weights.
    #[must_use]
    pub fn weight_tile_budget(&self) -> u64 {
        if self.double_buffered {
            self.weight_spm_bytes / 2
        } else {
            self.weight_spm_bytes
        }
    }

    /// Peak multiply-accumulate operations per cycle.
    #[must_use]
    pub fn peak_macs_per_cycle(&self) -> u64 {
        self.compute.macs_per_cycle()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NpuError::InvalidConfig`] if any capacity or dimension is zero.
    pub fn validate(&self) -> Result<(), NpuError> {
        if self.act_spm_bytes == 0 || self.weight_spm_bytes == 0 {
            return Err(NpuError::InvalidConfig {
                reason: "scratchpad capacity is zero".into(),
            });
        }
        if self.peak_macs_per_cycle() == 0 {
            return Err(NpuError::InvalidConfig {
                reason: "compute array has zero lanes".into(),
            });
        }
        if self.frequency_ghz <= 0.0 {
            return Err(NpuError::InvalidConfig {
                reason: "frequency must be positive".into(),
            });
        }
        if self.dma.max_transaction_bytes == 0 || self.dma.translations_per_cycle == 0 {
            return Err(NpuError::InvalidConfig {
                reason: "DMA transaction size and translation rate must be positive".into(),
            });
        }
        Ok(())
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::tpu_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let cfg = NpuConfig::tpu_like();
        assert_eq!(cfg.act_spm_bytes, 15 * 1024 * 1024);
        assert_eq!(cfg.weight_spm_bytes, 10 * 1024 * 1024);
        assert_eq!(cfg.peak_macs_per_cycle(), 128 * 128);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn double_buffering_halves_tile_budget() {
        let cfg = NpuConfig::tpu_like();
        assert_eq!(cfg.weight_tile_budget(), 5 * 1024 * 1024);
        assert_eq!(cfg.act_tile_budget(), 15 * 1024 * 1024 / 2);
        let single = NpuConfig {
            double_buffered: false,
            ..cfg
        };
        assert_eq!(single.weight_tile_budget(), 10 * 1024 * 1024);
    }

    #[test]
    fn spatial_array_has_fewer_macs() {
        let spatial = NpuConfig::spatial_array();
        assert!(spatial.peak_macs_per_cycle() < NpuConfig::tpu_like().peak_macs_per_cycle());
        assert!(spatial.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = NpuConfig::tpu_like();
        cfg.act_spm_bytes = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = NpuConfig::tpu_like();
        cfg.frequency_ghz = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = NpuConfig::tpu_like();
        cfg.dma.max_transaction_bytes = 0;
        assert!(cfg.validate().is_err());
    }
}
