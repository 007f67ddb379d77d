//! Criterion benches for the embedding-layer case study (Figures 15 and 16)
//! and the Table I configuration dump.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use neummu_mem::interconnect::TransferKind;
use neummu_mmu::MmuConfig;
use neummu_sim::embedding::{EmbeddingSimConfig, EmbeddingSimulator, GatherStrategy};
use neummu_sim::experiments::{recommender, table1, ExperimentScale};
use neummu_sim::ExperimentRunner;
use neummu_workloads::EmbeddingModel;

const SCALE: ExperimentScale = ExperimentScale::Smoke;

/// A fresh serial runner for each iteration, so every sample times a cold
/// family rather than hits in a point cache an earlier iteration warmed.
fn cold() -> ExperimentRunner {
    ExperimentRunner::new(1)
}

fn bench_recommender_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("recommender_figures");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("table1_configuration", |b| {
        b.iter(|| black_box(table1::run()))
    });
    group.bench_function("fig15_numa_breakdown", |b| {
        b.iter(|| recommender::fig15_numa_breakdown_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.bench_function("fig16_demand_paging", |b| {
        b.iter(|| recommender::fig16_demand_paging_on(&cold(), black_box(SCALE)).unwrap())
    });
    group.finish();
}

fn bench_gather_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_strategies");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let model = EmbeddingModel::dlrm();
    let sim = EmbeddingSimulator::new(EmbeddingSimConfig::with_mmu(MmuConfig::neummu()));
    for (name, strategy) in [
        ("host_relayed_copy", GatherStrategy::HostRelayedCopy),
        (
            "numa_slow",
            GatherStrategy::NumaDirect {
                link: TransferKind::Pcie,
            },
        ),
        (
            "numa_fast",
            GatherStrategy::NumaDirect {
                link: TransferKind::NpuLink,
            },
        ),
        (
            "demand_paging",
            GatherStrategy::DemandPaging {
                link: TransferKind::NpuLink,
            },
        ),
    ] {
        group.bench_function(format!("dlrm_b8_{name}"), |b| {
            b.iter(|| sim.simulate(black_box(&model), 8, strategy).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_recommender_figures, bench_gather_strategies);
criterion_main!(benches);
