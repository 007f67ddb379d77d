//! `recsys_paging`: the embedding simulator's demand-paging gather over the
//! NPU↔NPU link for NCF and DLRM, with NeuMMU at 4 KB and 2 MB pages and the
//! oracle at each page size, plus one point past local-memory capacity.

use neummu_mem::interconnect::TransferKind;
use neummu_mmu::{MmuConfig, TranslationStats};
use neummu_sim::{
    DenseSimConfig, EmbeddingSimConfig, EmbeddingSimulator, GatherStrategy, SimError,
};
use neummu_vmem::{
    AddressSpace, MemNode, NodeSpec, PageSize, PhysicalMemory, SegmentOptions, VmemError,
};
use neummu_workloads::EmbeddingModel;

use crate::check::{geomean, Expect, Tally};
use crate::replay::{self, Ledger};
use crate::Rng;

const LINK: TransferKind = TransferKind::NpuLink;
const STRATEGY: GatherStrategy = GatherStrategy::DemandPaging { link: LINK };

/// One design point and the oracle it is normalized against.
struct Pair {
    model: EmbeddingModel,
    batch: u64,
    page_size: PageSize,
}

/// The demand-paging grid. 4 KB points run at batches of tens of
/// thousands; 2 MB points move 512× more bytes per fault and free 512
/// frames per migration, so they run at batches that keep each call near
/// 0.3 s: `wall_s` takes every call at its fastest, and short calls sampled
/// often see the quiet moments of a noisy host.
fn pairs() -> Vec<Pair> {
    vec![
        Pair {
            model: EmbeddingModel::ncf(),
            batch: 32_768,
            page_size: PageSize::Size4K,
        },
        Pair {
            model: EmbeddingModel::dlrm(),
            batch: 16_384,
            page_size: PageSize::Size4K,
        },
        Pair {
            model: EmbeddingModel::ncf(),
            batch: 8_192,
            page_size: PageSize::Size2M,
        },
        Pair {
            model: EmbeddingModel::dlrm(),
            batch: 2_048,
            page_size: PageSize::Size2M,
        },
    ]
}

/// The known defect: demand paging never evicts, so NCF at 2 MB pages and
/// batch ≥ 49152 migrates more than NPU 0's 32 GiB and the simulator returns
/// `Vmem(OutOfMemory)`. The point stays in the grid and counts against
/// `ops_ok_frac`; if eviction is ever added it simply starts passing.
fn known_defect() -> Pair {
    Pair {
        model: EmbeddingModel::ncf(),
        batch: 49_152,
        page_size: PageSize::Size2M,
    }
}

fn page_label(page_size: PageSize) -> &'static str {
    match page_size {
        PageSize::Size4K => "4k",
        PageSize::Size2M => "2m",
    }
}

/// One simulate call of a pass.
pub struct Point {
    key: String,
    model: EmbeddingModel,
    batch: u64,
    config: EmbeddingSimConfig,
    design: bool,
    known_defect: bool,
}

/// Builds the points, each with its lookup seed drawn from the benchmark
/// seed, and performs the simulator's set-up work once per point: the
/// minibatch's lookups generated, the embedding tables laid out as lazy
/// segments on their owning NPUs, and the MLP layers tiled and mapped as the
/// MLP phase maps them.
pub fn setup(seed: u64, ledger: &mut Ledger) -> Result<Vec<Point>, SimError> {
    let mut rng = Rng::new(seed);
    let mut points = Vec::new();
    let mut push =
        |pair: &Pair, mmu: MmuConfig, design: bool, known_defect: bool, lookup_seed: u64| {
            let mut config = EmbeddingSimConfig::with_mmu(mmu.with_page_size(pair.page_size));
            config.seed = lookup_seed;
            let name = if design { "neummu" } else { "oracle" };
            points.push(Point {
                key: format!(
                    "{}/b{}/{name}-{}",
                    pair.model.name(),
                    pair.batch,
                    page_label(pair.page_size)
                ),
                model: pair.model.clone(),
                batch: pair.batch,
                config,
                design,
                known_defect,
            });
        };
    for pair in pairs() {
        let lookup_seed = rng.next_u64();
        push(&pair, MmuConfig::neummu(), true, false, lookup_seed);
        push(&pair, MmuConfig::oracle(), false, false, lookup_seed);
    }
    push(
        &known_defect(),
        MmuConfig::neummu(),
        true,
        true,
        rng.next_u64(),
    );

    for point in &points {
        let cfg = &point.config;
        let share = point.batch.div_ceil(u64::from(cfg.num_npus));
        std::hint::black_box(point.model.generate_lookups(share, cfg.seed));
        let mut memory = PhysicalMemory::with_npus(cfg.num_npus, cfg.npu_memory_bytes);
        let mut space = AddressSpace::new("embedding-system");
        for (i, table) in point.model.tables().iter().enumerate() {
            let owner = MemNode::Npu((i % cfg.num_npus as usize) as u16);
            let opts = SegmentOptions::new(owner, cfg.mmu.page_size).lazy();
            space.alloc_segment(table.name.clone(), table.table_bytes(), opts, &mut memory)?;
        }
        let mlp = mlp_config(cfg);
        let seg_opts = SegmentOptions::new(mlp.node, mlp.mmu.page_size);
        let mut memory = PhysicalMemory::new(&[NodeSpec::new(mlp.node, mlp.memory_capacity_bytes)]);
        let mut space = AddressSpace::new("dense-npu");
        for (index, layer) in point.model.mlp_layers(share).iter().enumerate() {
            replay::map_layer(
                &mut space,
                &mut memory,
                index,
                layer,
                &mlp.npu,
                seg_opts,
                ledger,
            )?;
        }
    }
    Ok(points)
}

/// The dense configuration the embedding simulator runs its MLP phase with
/// under demand paging (which needs the MMU).
fn mlp_config(cfg: &EmbeddingSimConfig) -> DenseSimConfig {
    DenseSimConfig {
        node: MemNode::Npu(0),
        memory_capacity_bytes: cfg.npu_memory_bytes,
        ..DenseSimConfig::with_mmu(cfg.mmu)
    }
}

fn is_out_of_memory(e: &SimError) -> bool {
    matches!(e, SimError::Vmem(VmemError::OutOfMemory { .. }))
}

/// Embedding-layer outcomes of one pass.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub lookups: u64,
    pub remote: u64,
    pub gather_cycles: u64,
    pub total_cycles: u64,
    pub pages_migrated: u64,
    pub interconnect_bytes: u64,
    pub failed_points: u64,
}

/// Simulates every point once.
pub fn pass(points: &[Point], expect: &Expect, counters: &mut Counters) -> Tally {
    let mut tally = Tally::default();
    let mut ratios = Vec::new();
    let mut design_cycles = None;
    for point in points {
        let sim = EmbeddingSimulator::new(point.config);
        match tally.timed(|| sim.simulate(&point.model, point.batch, STRATEGY)) {
            Ok(r) => {
                let page_bytes = point.config.mmu.page_size.bytes();
                let identities = [
                    (
                        "requests==lookups",
                        r.translation_requests == r.vectors_gathered,
                    ),
                    ("migrated<=remote", r.pages_migrated <= r.remote_vectors),
                    (
                        "interconnect_bytes==migrated*page_bytes",
                        r.interconnect_bytes == r.pages_migrated * page_bytes,
                    ),
                ];
                tally.requests += r.translation_requests;
                counters.lookups += r.vectors_gathered;
                counters.remote += r.remote_vectors;
                counters.gather_cycles += r.embedding_gather_cycles;
                counters.total_cycles += r.total_cycles();
                counters.pages_migrated += r.pages_migrated;
                counters.interconnect_bytes += r.interconnect_bytes;
                if point.design {
                    tally.model_cycles += r.total_cycles();
                    design_cycles = Some(r.total_cycles());
                } else if let Some(design) = design_cycles.take() {
                    ratios.push(r.total_cycles() as f64 / design as f64);
                }
                tally.op(
                    expect,
                    &point.key,
                    &[
                        ("cycles", r.total_cycles()),
                        ("gemm_cycles", r.gemm_cycles),
                        ("gather_cycles", r.embedding_gather_cycles),
                        ("pages_migrated", r.pages_migrated),
                    ],
                    &identities,
                );
            }
            Err(e) if point.known_defect && is_out_of_memory(&e) => {
                counters.failed_points += 1;
                tally.known_defect();
            }
            Err(e) => {
                counters.failed_points += 1;
                tally.error(&point.key, &e);
            }
        }
    }
    tally.norm_perf = if ratios.is_empty() {
        0.0
    } else {
        geomean(&ratios)
    };
    tally
}

/// Replays every point's MLP phase and gather with per-layer span clocks.
/// Returns the number of replays that disagreed with the simulator's
/// outputs in `outputs` (an errored point must error in the replay too),
/// and the design points' translation counters.
pub fn replay_all(
    points: &[Point],
    outputs: &std::collections::BTreeMap<String, u64>,
    ledger: &mut Ledger,
) -> (u64, TranslationStats) {
    let mut mismatches = 0;
    let mut stats = TranslationStats::default();
    for point in points {
        let cfg = &point.config;
        let share = point.batch.div_ceil(u64::from(cfg.num_npus));
        let gemm = replay::dense(&mlp_config(cfg), &point.model.mlp_layers(share), ledger);
        let gather = replay::demand_paging_gather(cfg, &point.model, point.batch, LINK, ledger);
        let expected = |name: &str| outputs.get(&format!("{}/{name}", point.key)).copied();
        match (gemm, gather) {
            (Ok(gemm), Ok(gather)) => {
                if Some(gemm) != expected("gemm_cycles")
                    || Some(gather.cycles) != expected("gather_cycles")
                    || Some(gather.pages_migrated) != expected("pages_migrated")
                {
                    mismatches += 1;
                }
                if point.design {
                    stats.merge(&gather.stats);
                }
            }
            (_, Err(e)) if point.known_defect && is_out_of_memory(&e) => {}
            _ => mismatches += 1,
        }
    }
    (mismatches, stats)
}

/// The MLP layers of every point, for the page-table probe sweep.
pub fn mlp_layers(points: &[Point]) -> Vec<neummu_npu::Layer> {
    points
        .iter()
        .flat_map(|p| {
            p.model
                .mlp_layers(p.batch.div_ceil(u64::from(p.config.num_npus)))
        })
        .collect()
}
