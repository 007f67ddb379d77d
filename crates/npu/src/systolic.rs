//! Compute-phase latency models.
//!
//! The baseline NPU uses a weight-stationary 128×128 systolic array (as in the
//! TPU); Section VI-B additionally considers a spatial-array NPU in the style
//! of DaDianNao/Eyeriss. Both are modelled analytically: given the GEMM tile
//! dimensions resident in the scratchpad, the model returns the number of
//! cycles the compute phase occupies. Only relative magnitudes matter for the
//! paper's results (everything is normalized to the oracle MMU on the same
//! compute model).

use serde::Serialize;

/// Compute-array organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ComputeModel {
    /// Weight-stationary systolic array of `rows × cols` MAC units.
    SystolicArray {
        /// Number of rows (reduction dimension lanes).
        rows: u32,
        /// Number of columns (output-channel lanes).
        cols: u32,
    },
    /// Spatial array of `pes` processing elements, each with a `vector_width`
    /// wide MAC unit (DaDianNao / Eyeriss style, Section VI-B).
    SpatialArray {
        /// Number of processing elements.
        pes: u32,
        /// Vector (dot-product) width of each PE.
        vector_width: u32,
    },
}

impl ComputeModel {
    /// Creates a systolic-array model.
    #[must_use]
    pub const fn systolic(rows: u32, cols: u32) -> Self {
        ComputeModel::SystolicArray { rows, cols }
    }

    /// Creates a spatial-array model.
    #[must_use]
    pub const fn spatial(pes: u32, vector_width: u32) -> Self {
        ComputeModel::SpatialArray { pes, vector_width }
    }

    /// Peak multiply-accumulate operations per cycle.
    #[must_use]
    pub const fn macs_per_cycle(&self) -> u64 {
        match self {
            ComputeModel::SystolicArray { rows, cols } => (*rows as u64) * (*cols as u64),
            ComputeModel::SpatialArray { pes, vector_width } => {
                (*pes as u64) * (*vector_width as u64)
            }
        }
    }

    /// Cycles to compute a GEMM tile of `m × k × n` once its operands are in
    /// the scratchpad.
    ///
    /// * Systolic array: the `k × n` weight tile is processed in
    ///   `⌈k/rows⌉·⌈n/cols⌉` stationary passes; each pass streams the `m`
    ///   activation rows through the array with a pipeline fill/drain of
    ///   `rows + cols` cycles and pays a `rows`-cycle weight-load (the TPU
    ///   overlaps weight loading with the previous pass, so only the exposed
    ///   portion is charged).
    /// * Spatial array: MAC-count divided by peak throughput with a fixed
    ///   per-tile overhead for operand distribution over the network-on-chip.
    #[must_use]
    pub fn tile_compute_cycles(&self, m: u64, k: u64, n: u64) -> u64 {
        if m == 0 || k == 0 || n == 0 {
            return 0;
        }
        match self {
            ComputeModel::SystolicArray { rows, cols } => {
                let rows = u64::from(*rows);
                let cols = u64::from(*cols);
                let passes = k.div_ceil(rows) * n.div_ceil(cols);
                let per_pass = m + rows + cols;
                let exposed_weight_load = rows.min(64);
                passes * (per_pass + exposed_weight_load)
            }
            ComputeModel::SpatialArray { .. } => {
                let macs = m * k * n;
                let throughput = self.macs_per_cycle();
                let distribution_overhead = 256;
                macs.div_ceil(throughput) + distribution_overhead
            }
        }
    }

    /// Effective utilization of the array for a tile (0.0 – 1.0).
    #[must_use]
    pub fn utilization(&self, m: u64, k: u64, n: u64) -> f64 {
        let cycles = self.tile_compute_cycles(m, k, n);
        if cycles == 0 {
            return 0.0;
        }
        let ideal = (m * k * n) as f64 / self.macs_per_cycle() as f64;
        (ideal / cycles as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_throughput() {
        assert_eq!(ComputeModel::systolic(128, 128).macs_per_cycle(), 16384);
        assert_eq!(ComputeModel::spatial(256, 16).macs_per_cycle(), 4096);
    }

    #[test]
    fn full_tiles_achieve_high_utilization() {
        let model = ComputeModel::systolic(128, 128);
        // A large tile that exactly fills the array in both dimensions.
        let util = model.utilization(4096, 1024, 1024);
        assert!(util > 0.9, "utilization {util}");
    }

    #[test]
    fn small_tiles_waste_the_array() {
        let model = ComputeModel::systolic(128, 128);
        let util = model.utilization(16, 32, 32);
        assert!(util < 0.1, "utilization {util}");
    }

    #[test]
    fn compute_cycles_scale_with_work() {
        let model = ComputeModel::systolic(128, 128);
        let small = model.tile_compute_cycles(1024, 128, 128);
        let big = model.tile_compute_cycles(1024, 512, 512);
        assert!(big > 10 * small);
        assert_eq!(model.tile_compute_cycles(0, 128, 128), 0);
    }

    #[test]
    fn spatial_array_is_slower_at_same_tile() {
        let systolic = ComputeModel::systolic(128, 128);
        let spatial = ComputeModel::spatial(256, 16);
        let tile = (4096u64, 512u64, 512u64);
        assert!(
            spatial.tile_compute_cycles(tile.0, tile.1, tile.2)
                > systolic.tile_compute_cycles(tile.0, tile.1, tile.2)
        );
    }

    #[test]
    fn gemv_like_tiles_are_latency_bound() {
        let model = ComputeModel::systolic(128, 128);
        // m=1 (GEMV): the pipeline fill dominates; utilization is tiny.
        let cycles = model.tile_compute_cycles(1, 2048, 2048);
        assert!(cycles >= 16 * 16 * (1 + 256));
        assert!(model.utilization(1, 2048, 2048) < 0.05);
    }
}
