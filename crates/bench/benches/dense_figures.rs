//! Criterion benches for the dense-DNN figures (Figures 6–14 and the
//! Section VI studies).
//!
//! Each bench runs the corresponding experiment kernel at the reduced (smoke)
//! scale so that `cargo bench` completes in a reasonable time while still
//! exercising the exact code paths that regenerate the paper's figures; the
//! full-scale regeneration lives in the `neummu-experiments` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use neummu_mmu::MmuConfig;
use neummu_sim::dense::{DenseSimConfig, DenseSimulator};
use neummu_sim::experiments::{characterization, mmu_cache_study, performance, ExperimentScale};
use neummu_sim::ExperimentRunner;
use neummu_workloads::{DenseWorkload, WorkloadId};

const SCALE: ExperimentScale = ExperimentScale::Smoke;

/// A fresh serial runner for each iteration, so every sample times a cold
/// family rather than hits in a point cache an earlier iteration warmed.
fn cold() -> ExperimentRunner {
    ExperimentRunner::new(1)
}

fn bench_characterization(c: &mut Criterion) {
    let mut group = c.benchmark_group("characterization");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("fig06_page_divergence", |b| {
        b.iter(|| characterization::fig06_page_divergence_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("fig07_translation_bursts_cnn1", |b| {
        b.iter(|| {
            characterization::fig07_translation_bursts_on(&cold(), black_box(WorkloadId::Cnn1), 1)
                .unwrap()
        })
    });
    group.bench_function("fig14_va_trace_cnn1", |b| {
        b.iter(|| {
            characterization::fig14_va_trace_on(&cold(), black_box(WorkloadId::Cnn1), 1).unwrap()
        })
    });
    group.finish();
}

fn bench_performance_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("performance_figures");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("fig08_baseline_iommu", |b| {
        b.iter(|| performance::fig08_baseline_iommu_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("fig10_prmb_sweep", |b| {
        b.iter(|| performance::fig10_prmb_sweep_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("fig11_ptw_sweep", |b| {
        b.iter(|| performance::fig11_ptw_sweep_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("fig12a_ptw_no_prmb", |b| {
        b.iter(|| performance::fig12a_ptw_no_prmb_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("fig12b_energy_perf", |b| {
        b.iter(|| performance::fig12b_energy_perf_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("fig13_tpreg_hit_rate", |b| {
        b.iter(|| performance::fig13_tpreg_hit_rate_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("mmu_cache_uptc_vs_tpc", |b| {
        b.iter(|| mmu_cache_study::run_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.finish();
}

fn bench_section6_studies(c: &mut Criterion) {
    let mut group = c.benchmark_group("section6_studies");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("summary_neummu", |b| {
        b.iter(|| performance::summary_neummu_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("largepage_dense", |b| {
        b.iter(|| performance::largepage_dense_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("spatial_npu", |b| {
        b.iter(|| performance::spatial_npu_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("sensitivity", |b| {
        b.iter(|| performance::sensitivity_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.finish();
}

fn bench_single_workload_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_simulator");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let alexnet = DenseWorkload::new(WorkloadId::Cnn1).layers(1);
    let lstm = DenseWorkload::new(WorkloadId::Rnn2).layers(1);
    for (name, mmu) in [
        ("oracle", MmuConfig::oracle()),
        ("iommu", MmuConfig::baseline_iommu()),
        ("neummu", MmuConfig::neummu()),
    ] {
        group.bench_function(format!("alexnet_b1_{name}"), |b| {
            let sim = DenseSimulator::new(DenseSimConfig::with_mmu(mmu));
            b.iter(|| sim.simulate_workload(black_box(&alexnet)).unwrap())
        });
        group.bench_function(format!("lstm_b1_{name}"), |b| {
            let sim = DenseSimulator::new(DenseSimConfig::with_mmu(mmu));
            b.iter(|| sim.simulate_workload(black_box(&lstm)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_characterization,
    bench_performance_figures,
    bench_section6_studies,
    bench_single_workload_simulation
);
criterion_main!(benches);
