//! `dense_walk_storm`: the full dense grid (6 networks × batch 1/4/8) with
//! merging disabled, so nearly every translation request becomes a walk.

use neummu_mmu::MmuConfig;
use neummu_npu::Layer;
use neummu_sim::{DenseSimConfig, DenseSimulator, SimError};
use neummu_vmem::{AddressSpace, NodeSpec, PhysicalMemory, SegmentOptions};
use neummu_workloads::{DenseWorkload, WorkloadId, DENSE_BATCH_SIZES};

use crate::check::{geomean, Expect, Tally};
use crate::replay::{self, Ledger};

/// The design points of the Figure 12a regime: the baseline IOMMU (no PRMB
/// merging, no TPreg) with its 8 walkers and with the sweep's largest pool.
const WALKER_COUNTS: [usize; 2] = [8, 1024];

/// One grid cell: a network at a batch size.
pub struct Cell {
    workload: WorkloadId,
    batch: u64,
    layers: Vec<Layer>,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}/b{}", self.workload.label(), self.batch)
    }
}

/// The configurations simulated per cell: the design points, then the
/// oracle every design point is normalized against.
fn configs() -> Vec<(String, MmuConfig)> {
    let mut configs: Vec<(String, MmuConfig)> = WALKER_COUNTS
        .iter()
        .map(|&n| (format!("ptw{n}"), MmuConfig::baseline_iommu().with_ptws(n)))
        .collect();
    configs.push(("oracle".to_string(), MmuConfig::oracle()));
    configs
}

/// Builds the grid's layer lists and, as the simulator's own set-up does,
/// tiles every layer and maps every operand segment with eager 4 KB pages
/// (one fresh address space per cell). The dense simulator takes no random
/// input, so nothing here depends on the seed.
pub fn setup(ledger: &mut Ledger) -> Result<Vec<Cell>, SimError> {
    let cells: Vec<Cell> = WorkloadId::ALL
        .iter()
        .flat_map(|&workload| {
            DENSE_BATCH_SIZES.iter().map(move |&batch| Cell {
                workload,
                batch,
                layers: DenseWorkload::new(workload).layers(batch),
            })
        })
        .collect();
    let config = DenseSimConfig::with_mmu(MmuConfig::baseline_iommu());
    let seg_opts = SegmentOptions::new(config.node, config.mmu.page_size);
    for cell in &cells {
        let mut memory =
            PhysicalMemory::new(&[NodeSpec::new(config.node, config.memory_capacity_bytes)]);
        let mut space = AddressSpace::new("dense-npu");
        for (index, layer) in cell.layers.iter().enumerate() {
            replay::map_layer(
                &mut space,
                &mut memory,
                index,
                layer,
                &config.npu,
                seg_opts,
                ledger,
            )?;
        }
    }
    Ok(cells)
}

/// Per-pass translation counters of the design points (the mmu layer's
/// counts on this workload).
pub type Counters = neummu_mmu::TranslationStats;

/// Simulates every cell at every configuration once.
pub fn pass(cells: &[Cell], expect: &Expect, counters: &mut Counters) -> Tally {
    let mut tally = Tally::default();
    let mut ratios = Vec::new();
    let configs = configs();
    for cell in cells {
        let mut cycles = Vec::with_capacity(configs.len());
        for (label, mmu) in &configs {
            let key = format!("{}/{label}", cell.key());
            let sim = DenseSimulator::new(DenseSimConfig::with_mmu(*mmu));
            match tally.timed(|| sim.simulate_workload(&cell.layers)) {
                Ok(r) => {
                    let s = &r.translation;
                    let layer_requests: u64 = r.layers.iter().map(|l| l.translation_requests).sum();
                    let mut identities = vec![(
                        "requests==sum(layer requests)",
                        s.requests == layer_requests,
                    )];
                    if *label != "oracle" {
                        identities.push((
                            "requests==tlb_hits+merged+walks",
                            s.requests == s.tlb_hits + s.merged + s.walks,
                        ));
                        tally.model_cycles += r.total_cycles;
                        counters.merge(s);
                    }
                    tally.requests += s.requests;
                    tally.op(expect, &key, &[("cycles", r.total_cycles)], &identities);
                    cycles.push(r.total_cycles);
                }
                Err(e) => tally.error(&key, &e),
            }
        }
        if let Some((&oracle, designs)) = cycles.split_last() {
            if designs.len() + 1 == configs.len() {
                ratios.extend(designs.iter().map(|&d| oracle as f64 / d as f64));
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

/// Replays every cell at every configuration with per-layer span clocks
/// and returns how many replays disagreed with the simulator's cycles
/// (taken from `outputs`, the keyed outputs of an untraced pass).
pub fn replay_all(
    cells: &[Cell],
    outputs: &std::collections::BTreeMap<String, u64>,
    ledger: &mut Ledger,
) -> u64 {
    let mut mismatches = 0;
    for cell in cells {
        for (label, mmu) in configs() {
            let key = format!("{}/{label}/cycles", cell.key());
            let replayed = replay::dense(&DenseSimConfig::with_mmu(mmu), &cell.layers, ledger);
            if replayed.ok() != outputs.get(&key).copied() {
                mismatches += 1;
            }
        }
    }
    mismatches
}

/// The layers of one batch-8 cell (the last by label), for the page-table
/// probe sweep.
pub fn batch8_layers(cells: &[Cell]) -> &[Layer] {
    cells
        .iter()
        .max_by_key(|c| (c.batch, c.workload.label()))
        .map(|c| c.layers.as_slice())
        .expect("the grid is not empty")
}
