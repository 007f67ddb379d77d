//! Microbenchmarks of the core MMU structures.
//!
//! These measure the raw simulation throughput of the individual components
//! (TLB, walker pool, MMU caches, page table, full translation engine) so that
//! regressions in the hot translation path are visible independently of the
//! figure-level experiments.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use neummu_mmu::{
    AddressTranslator, DeviceFaultConfig, MmuConfig, ResilienceConfig, Tlb, TranslationEngine,
    TranslationPathCache, UnifiedPageTableCache, WalkCache, WalkerPool,
};
use neummu_vmem::{
    AddressSpace, Asid, MemNode, PageSize, PageTable, PathTag, PhysFrameNum, PhysicalMemory,
    SegmentOptions, VirtAddr, WalkStep,
};

/// Builds a page table with `pages` consecutive 4 KB mappings.
fn streaming_table(pages: u64) -> PageTable {
    let mut pt = PageTable::new();
    for i in 0..pages {
        pt.map(
            VirtAddr::new(0x10_0000_0000 + i * 4096),
            PageSize::Size4K,
            PhysFrameNum::new(0x40_0000 + i),
            MemNode::Npu(0),
        )
        .unwrap();
    }
    pt
}

fn bench_tlb(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let accesses = 10_000u64;
    group.throughput(Throughput::Elements(accesses));
    group.bench_function("lookup_hit_stream", |b| {
        let mut tlb = Tlb::new(2048, 8);
        for page in 0..2048u64 {
            tlb.insert(page);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for i in 0..accesses {
                if tlb.lookup_tagged(Asid::GLOBAL, black_box(i % 2048)) {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.bench_function("streaming_miss_fill", |b| {
        b.iter(|| {
            let mut tlb = Tlb::new(2048, 8);
            for page in 0..accesses {
                tlb.lookup_tagged(Asid::GLOBAL, black_box(page));
                tlb.insert(black_box(page));
            }
            tlb.occupancy()
        })
    });
    group.finish();
}

fn bench_page_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_table");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let pt = streaming_table(4096);
    let walks = 4096u64;
    group.throughput(Throughput::Elements(walks));
    // The descent the MMU-cache models drive: `probe_with` copying every
    // visited step into a stack array. The gap to `probe_4k_mapped` is the
    // cost of the visitor.
    group.bench_function("probe_with_4k_steps", |b| {
        b.iter(|| {
            let mut accesses = 0usize;
            for i in 0..walks {
                let mut steps = [WalkStep::default(); 4];
                let mut len = 0;
                let va = black_box(VirtAddr::new(0x10_0000_0000 + i * 4096));
                pt.probe_with(va, |step| {
                    steps[len] = *step;
                    len += 1;
                });
                accesses += black_box(&steps[..len]).len();
            }
            accesses
        })
    });
    // The allocation-free hot path the engines actually use: `probe_with`
    // with a visitor that does nothing.
    group.bench_function("probe_4k_mapped", |b| {
        b.iter(|| {
            let mut accesses = 0u32;
            for i in 0..walks {
                let probe = pt.probe(black_box(VirtAddr::new(0x10_0000_0000 + i * 4096)));
                accesses += probe.memory_accesses();
            }
            accesses
        })
    });
    group.finish();
}

/// Page-table probes at the access shapes of the benchmark workloads, where
/// the nodes no longer sit in the L1 cache as `probe_4k_mapped`'s do.
fn bench_page_table_shapes(c: &mut Criterion) {
    const BASE: u64 = 0x10_0000_0000;
    let mut group = c.benchmark_group("page_table");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    // Serving's shape: 32 tenants' tables, eagerly mapped, probed 8
    // consecutive pages per table in round-robin.
    let (tables, pages, burst) = (32u64, 8192u64, 8u64);
    let tenants: Vec<PageTable> = (0..tables)
        .map(|t| {
            let mut pt = PageTable::new();
            let mut pfn = t * pages;
            pt.map_pages(
                VirtAddr::new(BASE),
                PageSize::Size4K,
                pages,
                MemNode::Npu(0),
                || {
                    pfn += 1;
                    Ok(PhysFrameNum::new(pfn))
                },
            )
            .unwrap();
            pt
        })
        .collect();
    group.throughput(Throughput::Elements(tables * pages));
    group.bench_function("probe_4k_32_tables", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for first in (0..pages).step_by(burst as usize) {
                for pt in &tenants {
                    for page in first..first + burst {
                        let probe = pt.probe(black_box(VirtAddr::new(BASE + page * 4096)));
                        hits += u64::from(probe.is_hit());
                    }
                }
            }
            hits
        })
    });

    // Single pages mapped in shuffled order with about one hole in four, so
    // a lookup's direct slot rarely holds its index and the node falls back
    // to searching. Probed in the same shuffled order, hits and holes alike.
    let pages = 8192u64;
    // An odd stride is a permutation of 0..pages.
    let shuffled: Vec<u64> = (0..pages).map(|i| (i * 5167) % pages).collect();
    let mut sparse = PageTable::new();
    for &page in &shuffled {
        if (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62) != 0 {
            sparse
                .map(
                    VirtAddr::new(BASE + page * 4096),
                    PageSize::Size4K,
                    PhysFrameNum::new(page),
                    MemNode::Npu(0),
                )
                .unwrap();
        }
    }
    group.throughput(Throughput::Elements(pages));
    group.bench_function("probe_4k_sparse", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &page in &shuffled {
                let probe = sparse.probe(black_box(VirtAddr::new(BASE + page * 4096)));
                hits += u64::from(probe.is_hit());
            }
            hits
        })
    });
    group.finish();
}

/// The demand-paging path of the embedding case study: page migration and
/// fault-then-migrate, the only vmem work that runs while a simulation is
/// timed.
fn bench_vmem_paging(c: &mut Criterion) {
    let mut group = c.benchmark_group("vmem");
    // Each call migrates 64 huge pages NPU1 -> NPU0 and back. Contiguous
    // allocation is bump-only, so every migration consumes fresh capacity:
    // 64 GiB per node covers the warm-up call plus the timed calls.
    let pages = 64u64;
    let mut memory = PhysicalMemory::with_npus(2, 64 << 30);
    let mut space = AddressSpace::new("bench");
    let huge = space
        .alloc_segment(
            "huge",
            pages << 21,
            SegmentOptions::new(MemNode::Npu(1), PageSize::Size2M),
            &mut memory,
        )
        .unwrap();
    group.throughput(Throughput::Elements(2 * pages));
    group.bench_function("migrate_page_2m", |b| {
        b.iter(|| {
            for dst in [MemNode::Npu(0), MemNode::Npu(1)] {
                for page in 0..pages {
                    let va = huge.start().add(page << 21);
                    space.migrate_page(black_box(va), dst, &mut memory).unwrap();
                }
            }
            space.stats().migrations
        })
    });
    // A fresh lazy 4 KB segment per call: every page faults in on the host,
    // then migrates to the NPU.
    let pages = 4096u64;
    group.throughput(Throughput::Elements(pages));
    group.bench_function("fault_migrate_4k", |b| {
        b.iter(|| {
            let mut memory = PhysicalMemory::with_npus(1, 1 << 30);
            let mut space = AddressSpace::new("bench");
            let lazy = space
                .alloc_segment(
                    "lazy",
                    pages << 12,
                    SegmentOptions::new(MemNode::Host, PageSize::Size4K).lazy(),
                    &mut memory,
                )
                .unwrap();
            for page in 0..pages {
                let va = lazy.start().add(page << 12);
                space.ensure_mapped(black_box(va), &mut memory).unwrap();
                space
                    .migrate_page(va, MemNode::Npu(0), &mut memory)
                    .unwrap();
            }
            space.stats().migrations
        })
    });
    // The embedding gather's shape: the same 4096 fault-then-migrates on
    // random rows of an 8 GiB lazy table, so nearly every fault opens a leaf
    // table of its own instead of appending to a warm one. An odd multiplier
    // permutes the table's 2^21 pages, so the rows are distinct.
    let table_pages = (8u64 << 30) >> 12;
    let rows: Vec<u64> = (0..pages)
        .map(|i| i.wrapping_mul(0x9E37_79B9) % table_pages)
        .collect();
    group.bench_function("fault_migrate_4k_random", |b| {
        b.iter(|| {
            let mut memory = PhysicalMemory::with_npus(1, 1 << 30);
            let mut space = AddressSpace::new("bench");
            let lazy = space
                .alloc_segment(
                    "lazy",
                    table_pages << 12,
                    SegmentOptions::new(MemNode::Host, PageSize::Size4K).lazy(),
                    &mut memory,
                )
                .unwrap();
            for &row in &rows {
                let va = lazy.start().add(row << 12);
                space.ensure_mapped(black_box(va), &mut memory).unwrap();
                space
                    .migrate_page(va, MemNode::Npu(0), &mut memory)
                    .unwrap();
            }
            space.stats().migrations
        })
    });
    group.finish();
}

/// Eager segment set-up: the page-table build every dense, multi-tenant and
/// serving simulation starts with. Each call maps one segment into a fresh
/// address space, so every interior and leaf table is built from scratch.
fn bench_vmem_eager_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("vmem");
    for (name, page_size, pages) in [
        ("alloc_segment_eager_4k", PageSize::Size4K, 16_384u64),
        ("alloc_segment_eager_2m", PageSize::Size2M, 1_024),
    ] {
        group.throughput(Throughput::Elements(pages));
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut memory = PhysicalMemory::with_npus(1, 4 << 30);
                let mut space = AddressSpace::new("bench");
                space
                    .alloc_segment(
                        "eager",
                        black_box(pages * page_size.bytes()),
                        SegmentOptions::new(MemNode::Npu(0), page_size),
                        &mut memory,
                    )
                    .unwrap();
                space.page_table().stats().tables
            })
        });
    }
    group.finish();
}

fn bench_oracle_translator(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let pages = 512u64;
    let pt = streaming_table(pages);
    // A DMA-style 512-byte transaction stream: 8 requests per 4 KB page, so
    // the oracle's last-page mapped-range memo answers 7 of every 8.
    let requests: Vec<VirtAddr> = (0..pages * 8)
        .map(|i| VirtAddr::new(0x10_0000_0000 + i * 512))
        .collect();
    group.throughput(Throughput::Elements(requests.len() as u64));
    group.bench_function("memoized_burst_stream", |b| {
        b.iter(|| {
            let mut oracle = neummu_mmu::OracleTranslator::new(PageSize::Size4K);
            let mut cycle = 0u64;
            for va in &requests {
                let outcome = oracle.translate(&pt, black_box(*va), cycle);
                cycle = outcome.accept_cycle + 1;
            }
            oracle.stats().requests
        })
    });
    group.finish();
}

fn bench_walker_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("walker_pool");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let walks = 10_000u64;
    group.throughput(Throughput::Elements(walks));
    group.bench_function("start_and_retire_128_walkers", |b| {
        b.iter(|| {
            let mut pool = WalkerPool::new(128, 32, 100, true);
            let mut cycle = 0u64;
            for i in 0..walks {
                let va = VirtAddr::new(i * 4096);
                match pool.start_walk_tagged(Asid::GLOBAL, cycle, i, PathTag::of(va), 4, true) {
                    neummu_mmu::walker::WalkAdmission::Rejected { retry_at } => {
                        pool.drain_completed(retry_at, |_| {});
                        cycle = retry_at;
                    }
                    _ => cycle += 1,
                }
            }
            pool.drain_completed(u64::MAX, |_| {})
        })
    });
    group.finish();
}

fn bench_walk_storm(c: &mut Criterion) {
    let mut group = c.benchmark_group("walker_pool");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let pages = 8192u64;
    let per_page = 8u64;
    let pt = streaming_table(pages);
    // The Figure 12a regime the dense walk storm spends its time in: merging
    // disabled, no TPreg, every request of a 512-byte DMA stream walking on
    // its own. Driven through `translate_run`, so the replayed walks take
    // the walker pool's retire/admit window; ns/req = 1e9 / elem/s.
    group.throughput(Throughput::Elements(pages * per_page));
    for walkers in [8usize, 1024] {
        let config = MmuConfig::baseline_iommu().with_ptws(walkers);
        group.bench_function(format!("walk_storm_{walkers}_walkers"), |b| {
            b.iter(|| {
                let mut engine = TranslationEngine::new(config);
                let mut cycle = 0u64;
                for page in 0..pages {
                    let va = VirtAddr::new(0x10_0000_0000 + page * 4096);
                    let mut remaining = per_page;
                    while remaining > 0 {
                        let out = engine.translate_run(&pt, black_box(va), remaining, cycle);
                        cycle = out.last_accept() + 1;
                        remaining -= out.consumed;
                    }
                }
                engine.stats().walks
            })
        });
    }
    group.finish();
}

fn bench_swap_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("walker_pool");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let windows = 8192u64;
    let per_window = 8u64;
    // The walker pool's walk window alone, no engine around it: 64 walks of
    // eight pages in flight, each page's eight walks due on consecutive
    // cycles, and every call swaps one page's window for walks of a new
    // page. Saturated: 64 walkers, each admission keeps the walker its
    // retirement freed. Unsaturated: 128 walkers, each admission takes the
    // idle FIFO's front. ns per swapped walk = 1e9 / elem/s.
    group.throughput(Throughput::Elements(windows * per_window));
    for (shape, walkers) in [("saturated", 64usize), ("unsaturated", 128)] {
        group.bench_function(format!("swap_window_{shape}"), |b| {
            let mut pool = WalkerPool::new(walkers, 0, 100, false);
            let tag = PathTag::of(VirtAddr::new(0));
            for cycle in 0..64 {
                pool.start_walk_tagged(Asid::GLOBAL, cycle, cycle / per_window, tag, 4, true);
            }
            let mut page = 64 / per_window;
            b.iter(|| {
                for _ in 0..windows {
                    let cycle = pool.next_completion().expect("walks are in flight");
                    let window = pool
                        .swap_walk_window(Asid::GLOBAL, cycle, per_window, page, 4, true)
                        .expect("each page's walks form one window");
                    debug_assert_eq!(window.walks, per_window);
                    page += 1;
                }
                black_box(pool.next_completion())
            })
        });
    }
    group.finish();
}

fn bench_mmu_caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("mmu_caches");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let pt = streaming_table(2048);
    let walks: Vec<(VirtAddr, Vec<WalkStep>)> = (0..2048u64)
        .map(|i| {
            let va = VirtAddr::new(0x10_0000_0000 + i * 4096);
            let mut steps = Vec::new();
            pt.probe_with(va, |step| steps.push(*step));
            (va, steps)
        })
        .collect();
    group.throughput(Throughput::Elements(walks.len() as u64));
    group.bench_function("uptc_16_entries", |b| {
        b.iter(|| {
            let mut cache = UnifiedPageTableCache::new(16);
            let mut skipped = 0u64;
            for (va, steps) in &walks {
                skipped += u64::from(
                    cache
                        .access(black_box(*va), black_box(steps))
                        .skipped_levels,
                );
            }
            skipped
        })
    });
    group.bench_function("tpc_single_entry", |b| {
        b.iter(|| {
            let mut cache = TranslationPathCache::new(1);
            let mut skipped = 0u64;
            for (va, steps) in &walks {
                skipped += u64::from(
                    cache
                        .access(black_box(*va), black_box(steps))
                        .skipped_levels,
                );
            }
            skipped
        })
    });
    group.finish();
}

fn bench_translation_engine_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("translation_engine");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let pages = 2048u64;
    let pt = streaming_table(pages);
    // An 8-transactions-per-page burst, as a 512-byte DMA stream would produce.
    let requests: Vec<VirtAddr> = (0..pages * 8)
        .map(|i| VirtAddr::new(0x10_0000_0000 + i * 512))
        .collect();
    group.throughput(Throughput::Elements(requests.len() as u64));
    for (name, config) in [
        ("baseline_iommu", MmuConfig::baseline_iommu()),
        ("neummu", MmuConfig::neummu()),
        (
            "neummu_1024ptw_no_prmb",
            MmuConfig::baseline_iommu().with_ptws(1024),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut engine = TranslationEngine::new(config);
                let mut cycle = 0u64;
                for va in &requests {
                    let outcome = engine.translate(&pt, black_box(*va), cycle);
                    cycle = outcome.accept_cycle + 1;
                }
                engine.stats().walks
            })
        });
    }
    group.finish();
}

fn bench_run_coalesced_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("translation_engine");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let pages = 2048u64;
    let pt = streaming_table(pages);
    // The same 8-transactions-per-page DMA stream as the per-request
    // `neummu` bench above, consumed through the run-coalesced path: one
    // `translate_run` resolves a page's walk and replays the burst's seven
    // merges arithmetically. The gap between this ns/req figure and
    // `translation_engine/neummu` is the per-request overhead PR 5 removed.
    group.throughput(Throughput::Elements(pages * 8));
    group.bench_function("run_coalesced_burst", |b| {
        b.iter(|| {
            let mut engine = TranslationEngine::new(MmuConfig::neummu());
            let mut cycle = 0u64;
            for page in 0..pages {
                let va = VirtAddr::new(0x10_0000_0000 + page * 4096);
                let mut remaining = 8u64;
                while remaining > 0 {
                    let out = engine.translate_run(&pt, black_box(va), remaining, cycle);
                    cycle = out.last_accept() + 1;
                    remaining -= out.consumed;
                }
            }
            engine.stats().walks
        })
    });
    group.finish();
}

fn bench_multi_tenant_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("translation_engine");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    // Four tenants, each with a private page table over the same VA range,
    // interleaved through ONE shared NeuMMU engine in 64-request bursts —
    // the tagged hot path the multi-tenant scheduler drives. ns/req here is
    // the `multi_tenant` datapoint `scripts/record_bench.sh` records.
    const TENANTS: usize = 4;
    const BURST: usize = 64;
    let pages = 2048u64;
    let tables: Vec<PageTable> = (0..TENANTS).map(|_| streaming_table(pages)).collect();
    let requests: Vec<VirtAddr> = (0..pages * 8)
        .map(|i| VirtAddr::new(0x10_0000_0000 + i * 512))
        .collect();
    group.throughput(Throughput::Elements((requests.len() * TENANTS) as u64));
    group.bench_function("multi_tenant_4asid_burst64", |b| {
        b.iter(|| {
            let mut engine = TranslationEngine::new(MmuConfig::neummu());
            let mut cycle = 0u64;
            let mut cursors = [0usize; TENANTS];
            let mut live = TENANTS;
            while live > 0 {
                live = 0;
                for (tenant, cursor) in cursors.iter_mut().enumerate() {
                    if *cursor >= requests.len() {
                        continue;
                    }
                    live += 1;
                    let asid = neummu_vmem::Asid::new(tenant as u16);
                    let end = (*cursor + BURST).min(requests.len());
                    for va in &requests[*cursor..end] {
                        let outcome =
                            engine.translate_tagged(&tables[tenant], asid, black_box(*va), cycle);
                        cycle = outcome.accept_cycle + 1;
                    }
                    *cursor = end;
                }
            }
            engine.stats().walks
        })
    });
    group.finish();
}

fn bench_fault_storm_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("resilience");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let pages = 2048u64;
    let pt = streaming_table(pages);
    // The `translation_engine/neummu` burst again, but through an engine
    // whose fault plan injects on 10% of walks with the full recovery stack
    // armed (retry + watchdog + quarantine + retransmit). The ns/req figure
    // is the cost of translating *through* a fault storm — the
    // `resilience_recovery_ns` datapoint `scripts/record_bench.sh` records.
    // The `disarmed_plan` companion runs a zero-rate plan over the same
    // stream: its gap to `translation_engine/neummu` is the whole price of
    // the fault gate when faults are configured but never fire.
    let requests: Vec<VirtAddr> = (0..pages * 8)
        .map(|i| VirtAddr::new(0x10_0000_0000 + i * 512))
        .collect();
    group.throughput(Throughput::Elements(requests.len() as u64));
    for (name, rate) in [("fault_storm_recovery", 0.1), ("disarmed_plan", 0.0)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut engine = TranslationEngine::with_faults(
                    MmuConfig::neummu(),
                    DeviceFaultConfig::uniform(0x5EED, rate),
                    ResilienceConfig::all_on(),
                )
                .unwrap();
                let mut cycle = 0u64;
                for va in &requests {
                    let outcome = engine.translate(&pt, black_box(*va), cycle);
                    cycle = outcome.accept_cycle + 1;
                }
                engine.stats().walks
            })
        });
    }
    group.finish();
}

fn bench_serving_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    // The whole open-loop serving leg end to end at smoke shape: seeded
    // arrival generation for 4 heterogeneous tenants, bounded admission
    // queues, round-robin quanta on one shared engine, exact SLO
    // histograms. Elements = completed requests, so the reported rate is
    // simulated serving throughput (requests simulated per second) — the
    // `serving_request_ns` datapoint `scripts/record_bench.sh` records.
    use neummu_sim::experiments::serving::{point_config, tenant_population};
    use neummu_sim::experiments::ExperimentScale;
    use neummu_sim::serving::{ServingPolicy, ServingSimulator};
    let config = point_config(ExperimentScale::Smoke, ServingPolicy::RoundRobin);
    let tenants = tenant_population(ExperimentScale::Smoke, 1.2, config.txns_per_request);
    let completed = ServingSimulator::new(config.clone())
        .run(&tenants)
        .unwrap()
        .completed_requests();
    assert!(completed > 0);
    group.throughput(Throughput::Elements(completed));
    group.bench_function("open_loop_smoke_rr", |b| {
        b.iter(|| {
            ServingSimulator::new(config.clone())
                .run(black_box(&tenants))
                .unwrap()
                .completed_requests()
        })
    });

    // perfbench's `serving_multitenant` shape at a 200k-cycle horizon: 32
    // tenants cycling the six dense networks at batch 1, arrival shapes
    // cycling Poisson → bursty → diurnal, weights 1..=4, offered at the front
    // end's capacity, run once under each of the four policies. Elements =
    // completed requests across the four runs, so ns/element is the turn
    // loop's cost per served request (set-up included).
    use neummu_sim::serving::{derive_seed, ArrivalConfig, ArrivalShape, ServingTenantSpec};
    use neummu_workloads::WorkloadId;
    const TENANTS: u64 = 32;
    const HORIZON: u64 = 200_000;
    let base = neummu_sim::ServingConfig::with_mmu(MmuConfig::neummu());
    let rate_per_mcycle = 1e6 / (TENANTS * base.txns_per_request) as f64;
    let tenants: Vec<ServingTenantSpec> = (0..TENANTS)
        .map(|index| ServingTenantSpec {
            workload: WorkloadId::ALL[index as usize % WorkloadId::ALL.len()],
            batch: 1,
            weight: 1 + index % 4,
            arrivals: ArrivalConfig {
                shape: match index % 3 {
                    0 => ArrivalShape::Poisson,
                    1 => ArrivalShape::Bursty {
                        mean_burst_arrivals: 8.0,
                        duty_fraction: 0.25,
                    },
                    _ => ArrivalShape::Diurnal {
                        period_cycles: HORIZON / 4,
                        trough_fraction: 0.3,
                    },
                },
                rate_per_mcycle,
                horizon_cycles: HORIZON,
                seed: derive_seed(1, index),
            },
        })
        .collect();
    let simulators: Vec<ServingSimulator> = [
        ServingPolicy::RoundRobin,
        ServingPolicy::WeightedFair,
        ServingPolicy::BurstQuantum,
        ServingPolicy::TlbAware {
            occupancy_cap_pct: 8,
        },
    ]
    .into_iter()
    .map(|policy| ServingSimulator::new(base.clone().with_policy(policy)))
    .collect();
    let run_all = |tenants: &[ServingTenantSpec]| -> u64 {
        simulators
            .iter()
            .map(|simulator| simulator.run(tenants).unwrap().completed_requests())
            .sum()
    };
    let completed = run_all(&tenants);
    assert!(completed > 0);
    group.throughput(Throughput::Elements(completed));
    group.bench_function("open_loop_32_tenants", |b| {
        b.iter(|| run_all(black_box(&tenants)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tlb,
    bench_page_table,
    bench_page_table_shapes,
    bench_vmem_paging,
    bench_vmem_eager_build,
    bench_oracle_translator,
    bench_walker_pool,
    bench_walk_storm,
    bench_swap_window,
    bench_mmu_caches,
    bench_translation_engine_burst,
    bench_run_coalesced_burst,
    bench_multi_tenant_translation,
    bench_fault_storm_recovery,
    bench_serving_throughput
);
criterion_main!(benches);
