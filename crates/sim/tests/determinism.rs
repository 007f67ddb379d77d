//! Determinism guarantees of the parallel experiment runner.
//!
//! The contract: for any thread count, every experiment produces results that
//! are bit-identical to the serial reference schedule, and the memoized points
//! are exactly the results a direct (uncached) simulation would produce.
//! These tests back the `--threads N` byte-identical-artifacts acceptance
//! criterion at the typed-result level; the CI workflow adds the file-level
//! `diff -r` on top.

use neummu_mmu::MmuConfig;
use neummu_npu::NpuConfig;
use neummu_sim::dense::{DenseSimConfig, DenseSimulator};
use neummu_sim::experiments::{characterization, mmu_cache_study, performance, ExperimentScale};
use neummu_sim::runner::ExperimentRunner;
use neummu_vmem::PageSize;
use neummu_workloads::DenseWorkload;

const SMOKE: ExperimentScale = ExperimentScale::Smoke;

#[test]
fn normalized_sweep_is_identical_across_thread_counts() {
    let serial = ExperimentRunner::new(1);
    let parallel = ExperimentRunner::new(4);
    let a = performance::fig10_prmb_sweep_on(&serial, SMOKE).unwrap();
    let b = performance::fig10_prmb_sweep_on(&parallel, SMOKE).unwrap();
    // PartialEq on the result compares every f64 exactly — bit-identical
    // points, labels and ordering, not just "close enough".
    assert_eq!(a, b);
    assert_eq!(a.points, b.points);
}

#[test]
fn aggregated_experiments_are_identical_across_thread_counts() {
    let serial = ExperimentRunner::new(1);
    let parallel = ExperimentRunner::new(4);
    assert_eq!(
        performance::fig12b_energy_perf_on(&serial, SMOKE).unwrap(),
        performance::fig12b_energy_perf_on(&parallel, SMOKE).unwrap(),
    );
    assert_eq!(
        performance::summary_neummu_on(&serial, SMOKE).unwrap(),
        performance::summary_neummu_on(&parallel, SMOKE).unwrap(),
    );
    assert_eq!(
        characterization::fig06_page_divergence_on(&serial, SMOKE).unwrap(),
        characterization::fig06_page_divergence_on(&parallel, SMOKE).unwrap(),
    );
    assert_eq!(
        mmu_cache_study::run_on(&serial, SMOKE).unwrap(),
        mmu_cache_study::run_on(&parallel, SMOKE).unwrap(),
    );
}

#[test]
fn serving_sweep_is_identical_across_thread_counts() {
    // The open-loop serving family joins the byte-identical-artifacts
    // contract: its per-tenant SLO rows, goodput points and queue-depth
    // timelines are a pure function of the configuration, not the schedule.
    use neummu_sim::experiments::serving;
    let serial = serving::serving_sweep_on(&ExperimentRunner::new(1), SMOKE).unwrap();
    let parallel = serving::serving_sweep_on(&ExperimentRunner::new(4), SMOKE).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&parallel).unwrap(),
        "serving_sweep.json must not depend on the thread count"
    );
    assert_eq!(serial.slo_table().to_csv(), parallel.slo_table().to_csv());
    assert_eq!(
        serial.goodput_table().to_markdown(),
        parallel.goodput_table().to_markdown()
    );
}

#[test]
fn memoized_oracle_equals_direct_oracle_simulation() {
    let runner = ExperimentRunner::new(4);
    let npu = NpuConfig::tpu_like();
    // Warm the cache through a sweep, then compare every memoized point —
    // the oracle, the baseline IOMMU, and the same IOMMU relabelled `Custom`
    // by `with_ptws(8)`, which the cache serves from the IOMMU's key —
    // against a from-scratch simulation of the same point.
    performance::fig08_baseline_iommu_on(&runner, SMOKE).unwrap();
    let warmed = runner.cache().simulations();
    for (workload_id, batch) in SMOKE.grid() {
        for mmu in [
            MmuConfig::oracle().with_page_size(PageSize::Size4K),
            MmuConfig::baseline_iommu(),
            MmuConfig::baseline_iommu().with_ptws(8),
        ] {
            let memoized = runner.dense_point(workload_id, batch, mmu, npu).unwrap();
            let config = DenseSimConfig {
                npu,
                ..DenseSimConfig::with_mmu(mmu)
            };
            let direct = DenseSimulator::new(config)
                .simulate_workload(&DenseWorkload::new(workload_id).layers(batch))
                .unwrap();
            assert_eq!(*memoized, direct, "{workload_id} b{batch} {mmu:?}");
        }
    }
    assert_eq!(
        runner.cache().simulations(),
        warmed,
        "every point was served from Figure 8's keys"
    );
}

#[test]
fn oracle_simulates_once_per_key_within_a_sweep() {
    // Six PRMB configurations over the smoke grid: each (workload, batch,
    // page size) baseline must simulate exactly once, the other five
    // columns hit the cache, and each column's candidate simulates once.
    let runner = ExperimentRunner::new(4);
    performance::fig10_prmb_sweep_on(&runner, SMOKE).unwrap();
    let grid = SMOKE.grid().len();
    let configs = 6;
    assert_eq!(runner.cache().simulations() as usize, grid * (1 + configs));
    assert_eq!(runner.cache().len(), grid * (1 + configs));
    assert_eq!(
        runner.cache().hits() as usize,
        grid * (configs - 1),
        "every duplicate baseline request must be served from the cache"
    );
}

#[test]
fn oracle_cache_is_shared_across_experiment_families() {
    // Figure 8 and Figure 6 normalize/measure against the same 4K oracle
    // baselines; on one runner the second family must not re-simulate them.
    let runner = ExperimentRunner::new(2);
    let grid = SMOKE.grid().len() as u64;
    performance::fig08_baseline_iommu_on(&runner, SMOKE).unwrap();
    assert_eq!(runner.cache().simulations(), 2 * grid);
    assert_eq!(runner.cache().hits(), 0);
    characterization::fig06_page_divergence_on(&runner, SMOKE).unwrap();
    assert_eq!(runner.cache().simulations(), 2 * grid);
    assert_eq!(runner.cache().hits(), grid);
}

#[test]
fn dma_transaction_iterator_matches_the_materialized_vec_path() {
    // PR 3 switched the simulators from `DmaEngine::transactions` (one Vec
    // per tile fetch) to the streaming `transaction_iter`. The two must issue
    // the identical transaction sequence for every fetch shape the tiling
    // planner can produce — including the real fetches of a paper workload.
    use neummu_npu::{DmaEngine, Layer, TilingPlan};

    let npu = NpuConfig::tpu_like();
    let dma = DmaEngine::new(npu.dma);

    // Synthetic edge shapes: empty, sub-transaction, unaligned head/tail.
    for (offset, bytes) in [(0u64, 0u64), (0, 1), (7, 510), (511, 2), (4096, 5 << 20)] {
        let fetch = neummu_npu::TileFetch {
            kind: neummu_npu::TensorKind::Weight,
            offset,
            bytes,
        };
        let streamed: Vec<_> = dma.transaction_iter(&fetch).collect();
        assert_eq!(
            streamed,
            dma.transactions(&fetch),
            "offset {offset} bytes {bytes}"
        );
    }

    // Every fetch of a real layer's tiling plan.
    let layer = Layer::lstm_cell("lstm", 1, 512, 512, 1);
    let plan = TilingPlan::for_layer(&layer, &npu).unwrap();
    let mut fetches = 0;
    for tile in plan.tiles() {
        for fetch in [tile.ia_fetch.as_ref(), tile.w_fetch.as_ref()]
            .into_iter()
            .flatten()
        {
            let streamed: Vec<_> = dma.transaction_iter(fetch).collect();
            assert_eq!(streamed, dma.transactions(fetch));
            assert_eq!(
                dma.transaction_iter(fetch).len() as u64,
                dma.transaction_count(fetch)
            );
            fetches += 1;
        }
    }
    assert!(fetches > 0, "the plan must exercise real fetches");
}

#[test]
fn embedding_lookup_stream_matches_the_materialized_trace() {
    // The gather simulator streams `(table, row)` pairs straight from the
    // seeded generator; the sequence must equal the flattened trace the old
    // materializing path consumed.
    use neummu_workloads::EmbeddingModel;
    for model in [EmbeddingModel::ncf(), EmbeddingModel::dlrm()] {
        let trace = model.generate_lookups(4, 0x4e65_754d_4d55);
        let flattened: Vec<(usize, u64)> = trace
            .indices
            .iter()
            .enumerate()
            .flat_map(|(t, rows)| rows.iter().map(move |&r| (t, r)))
            .collect();
        let streamed: Vec<(usize, u64)> = model.lookup_stream(4, 0x4e65_754d_4d55).collect();
        assert_eq!(streamed, flattened, "{}", model.name());
    }
}

#[test]
fn legacy_serial_entry_points_agree_with_runner_entry_points() {
    // A fresh serial runner is the reference schedule; an explicit runner of
    // any width must produce the same bits.
    let runner = ExperimentRunner::new(3);
    assert_eq!(
        performance::fig13_tpreg_hit_rate_on(&ExperimentRunner::new(1), SMOKE).unwrap(),
        performance::fig13_tpreg_hit_rate_on(&runner, SMOKE).unwrap(),
    );
    assert_eq!(
        performance::sensitivity_on(&ExperimentRunner::new(1), SMOKE).unwrap(),
        performance::sensitivity_on(&runner, SMOKE).unwrap(),
    );
}
