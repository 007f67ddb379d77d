//! Property-based tests for the NPU tiling and DMA models.

use proptest::prelude::*;

use neummu_npu::prelude::*;

/// Strategy producing valid convolution layer dimensions.
fn conv_dims() -> impl Strategy<Value = (u64, u64, u64, u64, u64, u64)> {
    // (batch, in_channels, spatial, out_channels, kernel, stride)
    (
        1u64..=8,
        1u64..=256,
        7u64..=64,
        1u64..=256,
        1u64..=5,
        1u64..=2,
    )
}

/// Strategy producing valid fully-connected layer dimensions.
fn fc_dims() -> impl Strategy<Value = (u64, u64, u64)> {
    (1u64..=64, 1u64..=16384, 1u64..=8192)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every tile of every plan respects the double-buffered scratchpad
    /// budgets, and its compute sub-problem never exceeds the layer's GEMM.
    #[test]
    fn tiles_respect_scratchpad_budgets((b, c, hw, k, r, s) in conv_dims()) {
        let kernel = r.min(hw);
        let layer = Layer::conv2d("prop_conv", b, c, hw, hw, k, kernel, kernel, s, kernel / 2);
        prop_assume!(layer.validate().is_ok());
        let npu = NpuConfig::tpu_like();
        let plan = TilingPlan::for_layer(&layer, &npu).unwrap();
        let gemm = plan.gemm();
        for tile in plan.tiles() {
            if let Some(w) = tile.w_fetch {
                prop_assert!(w.bytes <= npu.weight_tile_budget());
                prop_assert!(w.end() <= plan.w_segment_bytes() + 8);
            }
            if let Some(ia) = tile.ia_fetch {
                prop_assert!(ia.bytes <= npu.act_tile_budget());
                prop_assert!(ia.end() <= plan.ia_segment_bytes() + 8);
            }
            prop_assert!(tile.compute.m <= gemm.m);
            prop_assert!(tile.compute.k <= gemm.k);
            prop_assert!(tile.compute.n <= gemm.n);
        }
    }

    /// The per-tile compute sub-problems exactly cover the layer's GEMM: the
    /// sum of `m*k*n` over all tiles equals the layer's total MAC count.
    #[test]
    fn tile_compute_work_partitions_the_gemm((batch, k_dim, n_dim) in fc_dims()) {
        let layer = Layer::fully_connected("prop_fc", batch, k_dim, n_dim);
        let plan = TilingPlan::for_layer(&layer, &NpuConfig::tpu_like()).unwrap();
        let total: u64 = plan.tiles().iter().map(|t| t.compute.macs()).sum();
        prop_assert_eq!(total, layer.gemm().macs());
    }

    /// Weight traffic equals the weight-matrix footprint (to within one
    /// window of rounding slack), independent of the layer shape.
    #[test]
    fn weight_traffic_covers_weights_once((batch, k_dim, n_dim) in fc_dims()) {
        let layer = Layer::fully_connected("prop_fc", batch, k_dim, n_dim);
        let plan = TilingPlan::for_layer(&layer, &NpuConfig::tpu_like()).unwrap();
        let w_total: u64 = plan.tiles().iter().filter_map(|t| t.w_fetch).map(|f| f.bytes).sum();
        let w_bytes = layer.w_shape().bytes();
        prop_assert!(w_total >= w_bytes);
        prop_assert!(w_total <= w_bytes + plan.tile_count() * 8);
    }

    /// DMA decomposition is lossless: the transactions of a fetch cover
    /// exactly its byte range, contiguously and in order.
    #[test]
    fn dma_transactions_cover_the_fetch(offset in 0u64..(1u64 << 30), bytes in 1u64..(8u64 << 20), txn_pow in 6u32..13) {
        let dma = DmaEngine::new(DmaConfig { max_transaction_bytes: 1 << txn_pow, translations_per_cycle: 1 });
        let fetch = TileFetch { kind: TensorKind::Weight, offset, bytes };
        let txns = dma.transactions(&fetch);
        prop_assert_eq!(txns.len() as u64, dma.transaction_count(&fetch));
        prop_assert_eq!(txns.first().unwrap().offset, offset);
        prop_assert_eq!(txns.last().unwrap().end(), offset + bytes);
        let mut cursor = offset;
        for txn in &txns {
            prop_assert_eq!(txn.offset, cursor);
            prop_assert!(txn.bytes >= 1 && txn.bytes <= 1 << txn_pow);
            cursor = txn.end();
        }
    }

    /// Page divergence bounds: a fetch of `n` bytes touches at least
    /// `ceil(n/4K)` and at most `ceil(n/4K)+1` distinct 4 KB pages, and never
    /// more transactions than bytes.
    #[test]
    fn translation_demand_bounds(offset in 0u64..(1u64 << 30), bytes in 1u64..(8u64 << 20)) {
        let dma = DmaEngine::new(DmaConfig::default_config());
        let fetch = TileFetch { kind: TensorKind::InputActivation, offset, bytes };
        let demand = dma.translation_demand(&fetch);
        let min_pages = bytes.div_ceil(4096);
        prop_assert!(demand.distinct_pages_4k >= min_pages);
        prop_assert!(demand.distinct_pages_4k <= min_pages + 1);
        prop_assert!(demand.distinct_pages_2m <= demand.distinct_pages_4k);
        prop_assert!(demand.transactions >= demand.distinct_pages_4k.saturating_sub(1));
        prop_assert!(demand.transactions <= bytes);
    }

    /// Compute-cycle model sanity: cycles are positive for non-empty tiles,
    /// monotone in each dimension, and utilization never exceeds 1.
    #[test]
    fn compute_model_monotonicity(m in 1u64..4096, k in 1u64..4096, n in 1u64..4096) {
        for model in [ComputeModel::systolic(128, 128), ComputeModel::spatial(256, 16)] {
            let base = model.tile_compute_cycles(m, k, n);
            prop_assert!(base > 0);
            prop_assert!(model.tile_compute_cycles(m + 64, k, n) >= base);
            prop_assert!(model.tile_compute_cycles(m, k + 64, n) >= base);
            prop_assert!(model.tile_compute_cycles(m, k, n + 64) >= base);
            let util = model.utilization(m, k, n);
            prop_assert!((0.0..=1.0).contains(&util));
        }
    }

    /// Scaling a layer's batch scales its GEMM `m` dimension linearly and
    /// leaves the weight footprint untouched.
    #[test]
    fn with_batch_scales_activations_only((b, c, hw, k, r, s) in conv_dims(), factor in 2u64..=4) {
        let kernel = r.min(hw);
        let layer = Layer::conv2d("prop_conv", b, c, hw, hw, k, kernel, kernel, s, kernel / 2);
        prop_assume!(layer.validate().is_ok());
        let scaled = Layer::conv2d("prop_conv", b * factor, c, hw, hw, k, kernel, kernel, s, kernel / 2);
        prop_assert_eq!(scaled.gemm().m, layer.gemm().m * factor);
        prop_assert_eq!(scaled.gemm().k, layer.gemm().k);
        prop_assert_eq!(scaled.gemm().n, layer.gemm().n);
        prop_assert_eq!(scaled.w_shape(), layer.w_shape());
    }
}
