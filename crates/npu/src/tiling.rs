//! SPM-constrained tiling of a layer into compute/memory-phase work items.
//!
//! The DMA unit blocks the input activations (IA) and weights (W) into tiles
//! that fit in (half of) the double-buffered scratchpad and sequences them
//! across iterations (Figure 3 of the paper). The tiler produces, for each
//! tile, the byte windows of the IA/W segments that must be fetched and the
//! GEMM sub-problem that the compute phase executes.
//!
//! The dataflow is weight stationary: the loop order is
//! `for n-block { for k-block { load W(k,n); for m-block { load IA(m,k); compute } } }`,
//! so a weight block is fetched once and reused across all `m` blocks, while
//! the (im2col-lowered) activation matrix is re-streamed once per `n` block.
//! Tile fetch requests for IA and W are issued one at a time and are not
//! interleaved, matching the observation behind the paper's TPreg design
//! (Section IV-C, insight 2).

use serde::Serialize;

use crate::config::NpuConfig;
use crate::error::NpuError;
use crate::layer::{GemmDims, Layer};
use crate::tensor::TensorKind;

/// A request to fetch one contiguous byte window of an operand tensor into the
/// scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TileFetch {
    /// Which operand tensor the window belongs to.
    pub kind: TensorKind,
    /// Byte offset of the window within the operand's segment.
    pub offset: u64,
    /// Length of the window in bytes.
    pub bytes: u64,
}

impl TileFetch {
    /// One-past-the-end offset of the window.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.offset + self.bytes
    }
}

/// One tile iteration: the fetches of its memory phase and the GEMM
/// sub-problem of its compute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TileWork {
    /// Sequential tile index within the layer.
    pub index: u64,
    /// Input-activation fetch (every tile streams a fresh IA window).
    pub ia_fetch: Option<TileFetch>,
    /// Weight fetch (only when the tile starts a new weight block).
    pub w_fetch: Option<TileFetch>,
    /// Output-activation bytes produced by this tile (written back after the
    /// compute phase of the final reduction block).
    pub oa_writeback_bytes: u64,
    /// GEMM sub-problem executed by the compute phase.
    pub compute: GemmDims,
}

/// The complete tiling of one layer execution step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TilingPlan {
    layer_name: String,
    gemm: GemmDims,
    elem_bytes: u64,
    m_tile: u64,
    k_tile: u64,
    n_tile: u64,
    ia_bytes: u64,
    w_bytes: u64,
    oa_bytes: u64,
    repeats: u64,
    tiles: Vec<TileWork>,
}

impl TilingPlan {
    /// Builds the tiling plan of `layer` on `npu`.
    ///
    /// # Errors
    ///
    /// * Propagates layer/configuration validation errors.
    /// * Returns [`NpuError::TileTooLarge`] if even a minimum tile cannot fit
    ///   the scratchpad (cannot happen with Table I capacities).
    pub fn for_layer(layer: &Layer, npu: &NpuConfig) -> Result<TilingPlan, NpuError> {
        layer.validate()?;
        npu.validate()?;

        let gemm = layer.gemm();
        let elem = layer.dtype().bytes();
        let ia_bytes = layer.ia_shape().bytes();
        let w_bytes = layer.w_shape().bytes();
        let oa_bytes = gemm.m * gemm.n * elem;

        let w_budget = npu.weight_tile_budget();
        let ia_budget = npu.act_tile_budget();

        // Choose the weight-block shape so a stationary block fills as much of
        // the weight-scratchpad partition as possible: take the full reduction
        // dimension when it fits (bounded so at least one column group of the
        // array is covered), then as many output columns as the budget allows.
        let k_cap = (w_budget / (elem * 128)).max(1);
        let k_tile = gemm.k.min(k_cap);
        let n_cap = (w_budget / (elem * k_tile)).max(1);
        let n_tile = gemm.n.min(n_cap);
        let w_block_bytes = k_tile * n_tile * elem;
        if w_block_bytes > npu.weight_tile_budget() && k_tile == 1 {
            return Err(NpuError::TileTooLarge {
                layer: layer.name().to_string(),
                required_bytes: w_block_bytes,
                available_bytes: npu.weight_tile_budget(),
            });
        }

        // Choose the activation-block height so the im2col window fits the
        // activation-scratchpad partition.
        let m_for_budget = (ia_budget / (elem * k_tile)).max(1);
        let m_tile = gemm.m.min(m_for_budget);

        let n_m = gemm.m.div_ceil(m_tile);
        let n_k = gemm.k.div_ceil(k_tile);
        let n_n = gemm.n.div_ceil(n_tile);

        // Byte windows: the IA matrix is swept once per n-block across the
        // (m, k) tile grid; the W matrix is swept exactly once across the
        // (k, n) grid. Windows advance monotonically, giving the streaming
        // virtual-address pattern of Figure 14.
        let ia_window = ia_bytes.div_ceil(n_m * n_k);
        let w_window = w_bytes.div_ceil(n_k * n_n);
        let oa_window = oa_bytes.div_ceil(n_m * n_n);

        let mut tiles = Vec::with_capacity((n_m * n_k * n_n) as usize);
        let mut index = 0u64;
        for ni in 0..n_n {
            for ki in 0..n_k {
                for mi in 0..n_m {
                    let ia_slot = ki * n_m + mi;
                    let ia_offset = (ia_slot * ia_window).min(ia_bytes.saturating_sub(1));
                    let ia_len = ia_window.min(ia_bytes - ia_offset);
                    let ia_fetch = Some(TileFetch {
                        kind: TensorKind::InputActivation,
                        offset: ia_offset,
                        bytes: ia_len.max(1),
                    });

                    let w_fetch = if mi == 0 {
                        let w_slot = ni * n_k + ki;
                        let w_offset = (w_slot * w_window).min(w_bytes.saturating_sub(1));
                        let w_len = w_window.min(w_bytes - w_offset);
                        Some(TileFetch {
                            kind: TensorKind::Weight,
                            offset: w_offset,
                            bytes: w_len.max(1),
                        })
                    } else {
                        None
                    };

                    let m_cur = if mi == n_m - 1 {
                        gemm.m - mi * m_tile
                    } else {
                        m_tile
                    };
                    let k_cur = if ki == n_k - 1 {
                        gemm.k - ki * k_tile
                    } else {
                        k_tile
                    };
                    let n_cur = if ni == n_n - 1 {
                        gemm.n - ni * n_tile
                    } else {
                        n_tile
                    };
                    let oa_writeback_bytes = if ki == n_k - 1 { oa_window } else { 0 };

                    tiles.push(TileWork {
                        index,
                        ia_fetch,
                        w_fetch,
                        oa_writeback_bytes,
                        compute: GemmDims {
                            m: m_cur,
                            k: k_cur,
                            n: n_cur,
                        },
                    });
                    index += 1;
                }
            }
        }

        Ok(TilingPlan {
            layer_name: layer.name().to_string(),
            gemm,
            elem_bytes: elem,
            m_tile,
            k_tile,
            n_tile,
            ia_bytes,
            w_bytes,
            oa_bytes,
            repeats: layer.repeats(),
            tiles,
        })
    }

    /// Name of the tiled layer.
    #[must_use]
    pub fn layer_name(&self) -> &str {
        &self.layer_name
    }

    /// GEMM dimensions of one execution step.
    #[must_use]
    pub fn gemm(&self) -> GemmDims {
        self.gemm
    }

    /// Chosen tile dimensions `(m, k, n)`.
    #[must_use]
    pub fn tile_dims(&self) -> (u64, u64, u64) {
        (self.m_tile, self.k_tile, self.n_tile)
    }

    /// The per-tile work list, in execution order.
    #[must_use]
    pub fn tiles(&self) -> &[TileWork] {
        &self.tiles
    }

    /// Number of tiles per execution step.
    #[must_use]
    pub fn tile_count(&self) -> u64 {
        self.tiles.len() as u64
    }

    /// How many times the whole tile sequence is executed (time steps of a
    /// recurrent layer).
    #[must_use]
    pub fn repeats(&self) -> u64 {
        self.repeats
    }

    /// Size of the IA operand segment in bytes.
    #[must_use]
    pub fn ia_segment_bytes(&self) -> u64 {
        self.ia_bytes
    }

    /// Size of the W operand segment in bytes.
    #[must_use]
    pub fn w_segment_bytes(&self) -> u64 {
        self.w_bytes
    }

    /// Size of the OA operand segment in bytes.
    #[must_use]
    pub fn oa_segment_bytes(&self) -> u64 {
        self.oa_bytes
    }

    /// Largest single tile fetch in bytes.
    #[must_use]
    pub fn max_tile_fetch_bytes(&self) -> u64 {
        self.tiles
            .iter()
            .flat_map(|t| {
                [
                    t.ia_fetch.map_or(0, |f| f.bytes),
                    t.w_fetch.map_or(0, |f| f.bytes),
                ]
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    fn npu() -> NpuConfig {
        NpuConfig::tpu_like()
    }

    #[test]
    fn weight_blocks_fit_the_scratchpad() {
        let layer = Layer::fully_connected("fc6", 8, 9216, 4096);
        let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
        for tile in plan.tiles() {
            if let Some(w) = tile.w_fetch {
                assert!(
                    w.bytes <= npu().weight_tile_budget(),
                    "w fetch {} too big",
                    w.bytes
                );
            }
            if let Some(ia) = tile.ia_fetch {
                assert!(ia.bytes <= npu().act_tile_budget());
            }
        }
    }

    #[test]
    fn weight_traffic_covers_the_weight_matrix_once() {
        let layer = Layer::fully_connected("fc", 4, 4096, 4096);
        let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
        let w_total: u64 = plan
            .tiles()
            .iter()
            .filter_map(|t| t.w_fetch)
            .map(|f| f.bytes)
            .sum();
        let expected = layer.w_shape().bytes();
        // Rounding of windows may add at most one window of slack.
        assert!(w_total >= expected, "w_total {w_total} < {expected}");
        assert!(w_total <= expected + plan.tile_count() * 8);
    }

    #[test]
    fn ia_traffic_scales_with_n_blocks() {
        // n = 4096 -> 8 n-blocks of 512; the IA matrix is re-streamed per block.
        let layer = Layer::fully_connected("fc", 8, 9216, 4096);
        let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
        let ia_total: u64 = plan
            .tiles()
            .iter()
            .filter_map(|t| t.ia_fetch)
            .map(|f| f.bytes)
            .sum();
        let per_sweep = layer.ia_shape().bytes();
        let n_blocks = 4096u64.div_ceil(512);
        assert!(ia_total >= per_sweep * n_blocks.saturating_sub(1));
    }

    #[test]
    fn large_conv_layer_produces_multiple_tiles() {
        let layer = Layer::conv2d("res2a", 8, 64, 56, 56, 64, 3, 3, 1, 1);
        let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
        assert!(plan.tile_count() > 1);
        // Every tile fetches activations.
        assert!(plan.tiles().iter().all(|t| t.ia_fetch.is_some()));
        // The first tile of each weight block also fetches weights.
        assert!(plan.tiles()[0].w_fetch.is_some());
    }

    #[test]
    fn fetch_windows_stay_within_segments() {
        for layer in [
            Layer::conv2d("conv1", 1, 3, 224, 224, 64, 11, 11, 4, 2),
            Layer::fully_connected("fc", 1, 25088, 4096),
            Layer::lstm_cell("lstm", 1, 2048, 2048, 1),
        ] {
            let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
            for tile in plan.tiles() {
                if let Some(ia) = tile.ia_fetch {
                    assert!(ia.end() <= plan.ia_segment_bytes() + 8);
                }
                if let Some(w) = tile.w_fetch {
                    assert!(w.end() <= plan.w_segment_bytes() + 8);
                }
            }
        }
    }

    #[test]
    fn lstm_plan_records_repeats() {
        let layer = Layer::lstm_cell("lstm", 4, 1760, 1760, 50);
        let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
        assert_eq!(plan.repeats(), 50);
        // LSTM weights (~49 MB at bf16) need around 10 weight blocks.
        let w_fetches = plan.tiles().iter().filter(|t| t.w_fetch.is_some()).count();
        assert!(
            w_fetches >= 8,
            "expected >=8 weight blocks, got {w_fetches}"
        );
    }

    #[test]
    fn oa_writeback_assigned_to_final_reduction_block() {
        let layer = Layer::fully_connected("fc", 64, 8192, 512);
        let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
        let oa_total: u64 = plan.tiles().iter().map(|t| t.oa_writeback_bytes).sum();
        assert!(oa_total >= plan.oa_segment_bytes());
        // Tiles that are not the last k-block write nothing.
        let (_, k_tile, _) = plan.tile_dims();
        if plan.gemm().k > k_tile {
            assert!(plan.tiles().iter().any(|t| t.oa_writeback_bytes == 0));
        }
    }

    #[test]
    fn small_layer_is_a_single_tile() {
        let layer = Layer::conv2d("tiny", 1, 3, 8, 8, 8, 3, 3, 1, 1);
        let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
        assert_eq!(plan.tile_count(), 1);
        let tile = plan.tiles()[0];
        assert_eq!(tile.compute, plan.gemm());
    }

    #[test]
    fn max_tile_fetch_is_close_to_the_budget_for_big_layers() {
        // A big LSTM should produce ~5 MB weight tiles, the quantity behind
        // the paper's "1.2K distinct pages per tile" observation.
        let layer = Layer::lstm_cell("lstm", 1, 2048, 2048, 1);
        let plan = TilingPlan::for_layer(&layer, &npu()).unwrap();
        let max_fetch = plan.max_tile_fetch_bytes();
        assert!(max_fetch > 3 << 20, "max fetch {max_fetch}");
        assert!(max_fetch <= npu().weight_tile_budget().max(npu().act_tile_budget()));
    }
}
