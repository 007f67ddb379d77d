//! Regenerates every table and figure of the NeuMMU evaluation.
//!
//! Usage:
//!
//! ```text
//! neummu-experiments [--quick] [--out <dir>] [--only <exp>[,<exp>...]]
//!                    [--threads <n>] [--profile-trace <file>] [--store <dir>]
//! ```
//!
//! * `--quick` runs the reduced (smoke) suite instead of the full benchmark
//!   suite; useful for a fast end-to-end check.
//! * `--out` selects the artifact directory (default `results/`).
//! * `--only` restricts the run to a comma-separated list of experiment ids
//!   (`table1`, `fig06`, `fig07`, `fig08`, `fig10`, `fig11`, `fig12a`,
//!   `fig12b`, `fig13`, `fig14`, `mmu_cache`, `summary`, `largepage`,
//!   `spatial`, `sensitivity`, `fig15`, `fig16`, `multitenant`, `serving`,
//!   `resilience`). An unknown id is an error: the run exits nonzero before
//!   simulating anything, with one line listing the valid ids.
//! * `--threads` sets the worker-thread count of the experiment runner
//!   (default: the machine's available parallelism; `1` forces the serial
//!   reference schedule). Artifacts are byte-identical for every thread
//!   count — parallelism only changes wall-clock time.
//! * `--profile-trace` writes a cycle-resolved binary event trace of the run
//!   to the given file (decode it with `neummu_profile`). Off by default:
//!   with no sink installed every emission site is a dead branch and the run
//!   is byte-for-byte the untraced run. Trace *content* (the decoded event
//!   multiset, minus the runner's nondeterministic `wall/` kinds) is the
//!   same for every thread count.
//! * `--store` attaches a persistent slot store (see `neummu_store`):
//!   memoized points are restored from / committed to it, and each
//!   finished experiment family's artifacts are journaled so an interrupted
//!   run, rerun with the same flags, resumes where it was killed instead of
//!   recomputing — with a byte-identical artifact tree. A damaged store is
//!   recovered by recomputation, never trusted.
//!
//! Every experiment writes a Markdown table, a CSV file and a JSON dump into
//! the artifact directory and prints the Markdown to stdout. After the run a
//! self-profiling report shows where simulation time went, along with the
//! point cache's statistics (each distinct simulated point, oracle or
//! candidate, simulates exactly once and is shared across experiments, so
//! without `--store` its simulation count equals its key count).

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use neummu_bench::{commit_family, family_key, restore_family, ExperimentArtifacts};
use neummu_sim::experiments::{
    characterization, mmu_cache_study, multi_tenant, performance, recommender, resilience, serving,
    table1, ExperimentScale,
};
use neummu_sim::ExperimentRunner;
use neummu_store::Store;
use neummu_workloads::WorkloadId;

/// Every experiment family id, in run order: the ids `--only` accepts and
/// the only ids the `wants` gates may ask about.
const FAMILIES: &[&str] = &[
    "table1",
    "fig06",
    "fig07",
    "fig08",
    "fig10",
    "fig11",
    "fig12a",
    "fig12b",
    "fig13",
    "fig14",
    "mmu_cache",
    "summary",
    "largepage",
    "spatial",
    "sensitivity",
    "fig15",
    "fig16",
    "multitenant",
    "serving",
    "resilience",
];

struct Options {
    scale: ExperimentScale,
    out_dir: String,
    only: Option<BTreeSet<String>>,
    threads: usize,
    profile_trace: Option<String>,
    store: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut scale = ExperimentScale::Full;
    let mut out_dir = "results".to_string();
    let mut only = None;
    let mut threads = 0usize; // 0 = available parallelism
    let mut profile_trace = None;
    let mut store = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = ExperimentScale::Smoke,
            "--out" => {
                out_dir = args.next().ok_or("--out requires a directory argument")?;
            }
            "--only" => {
                let list = args
                    .next()
                    .ok_or("--only requires a comma-separated list")?;
                let ids: BTreeSet<String> = list.split(',').map(|s| s.trim().to_string()).collect();
                if let Some(bad) = ids.iter().find(|id| !FAMILIES.contains(&id.as_str())) {
                    return Err(format!(
                        "unknown experiment id `{bad}` in --only; valid ids: {}",
                        FAMILIES.join(", ")
                    ));
                }
                only = Some(ids);
            }
            "--threads" => {
                let value = args.next().ok_or("--threads requires a count argument")?;
                threads = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid thread count `{value}`"))?;
                if threads == 0 {
                    return Err("--threads requires a count of at least 1".to_string());
                }
            }
            "--profile-trace" => {
                profile_trace = Some(
                    args.next()
                        .ok_or("--profile-trace requires a file argument")?,
                );
            }
            "--store" => {
                store = Some(args.next().ok_or("--store requires a directory argument")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: neummu-experiments [--quick] [--out <dir>] [--only <exp>[,<exp>...]] [--threads <n>] [--profile-trace <file>] [--store <dir>]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        scale,
        out_dir,
        only,
        threads,
        profile_trace,
        store,
    })
}

fn wants(options: &Options, id: &str) -> bool {
    debug_assert!(FAMILIES.contains(&id), "`{id}` is missing from FAMILIES");
    options.only.as_ref().is_none_or(|set| set.contains(id))
}

/// Runs one experiment family restore-or-run-and-commit. With no store this
/// is just `run`. With a store, a valid journal slot for `(scale, id)`
/// restores the family's artifacts byte-for-byte and skips the simulation;
/// otherwise the family runs and its artifacts are journaled afterwards —
/// the slot commit is the family's durability point, so a crash anywhere
/// before it simply reruns the (deterministic, idempotent) family.
fn family(
    store: Option<&Store>,
    scale_label: &str,
    id: &str,
    artifacts: &mut ExperimentArtifacts,
    run: impl FnOnce(&mut ExperimentArtifacts) -> Result<(), Box<dyn std::error::Error>>,
) -> Result<(), Box<dyn std::error::Error>> {
    let Some(store) = store else {
        return run(artifacts);
    };
    let key = family_key(scale_label, id);
    if restore_family(store, &key, artifacts)? {
        println!("[store] `{id}` restored from journal; simulation skipped\n");
        return Ok(());
    }
    let first = artifacts.written().len();
    run(artifacts)?;
    commit_family(store, &key, artifacts, first);
    Ok(())
}

fn run_all(options: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let mut artifacts = ExperimentArtifacts::new(&options.out_dir)?;
    let scale = options.scale;
    let store = match &options.store {
        Some(dir) => Some(Arc::new(Store::open(dir)?)),
        None => None,
    };
    let mut runner = ExperimentRunner::new(options.threads);
    if let Some(store) = &store {
        runner = runner.with_store(Arc::clone(store));
    }
    let store = store.as_deref();
    let started = Instant::now();

    let emit = |name: &str,
                table: neummu_sim::ResultTable,
                artifacts: &mut ExperimentArtifacts|
     -> Result<(), Box<dyn std::error::Error>> {
        println!("{}", table.to_markdown());
        artifacts.table(name, &table)?;
        Ok(())
    };

    if wants(options, "table1") {
        family(
            store,
            scale.label(),
            "table1",
            &mut artifacts,
            |artifacts| emit("table1_configuration", table1::run_on(&runner), artifacts),
        )?;
    }

    if wants(options, "fig06") {
        family(store, scale.label(), "fig06", &mut artifacts, |artifacts| {
            let result = characterization::fig06_page_divergence_on(&runner, scale)?;
            artifacts.json("fig06_page_divergence", &result)?;
            emit("fig06_page_divergence", result.to_table(), artifacts)
        })?;
    }

    if wants(options, "fig07") {
        family(store, scale.label(), "fig07", &mut artifacts, |artifacts| {
            for (workload, name) in [
                (WorkloadId::Cnn1, "fig07a_cnn1"),
                (WorkloadId::Rnn1, "fig07b_rnn1"),
            ] {
                let result = characterization::fig07_translation_bursts_on(&runner, workload, 1)?;
                artifacts.json(name, &result)?;
                println!(
                    "Figure 7 ({}): peak {} translations per {}-cycle window, bursty fraction {:.2}\n",
                    workload.label(),
                    result.peak(),
                    result.window_cycles,
                    result.bursty_fraction()
                );
                artifacts.table(name, &result.to_table())?;
            }
            Ok(())
        })?;
    }

    if wants(options, "fig08") {
        family(store, scale.label(), "fig08", &mut artifacts, |artifacts| {
            let result = performance::fig08_baseline_iommu_on(&runner, scale)?;
            artifacts.json("fig08_baseline_iommu", &result)?;
            emit(
                "fig08_baseline_iommu",
                result.to_table("Figure 8: baseline IOMMU normalized performance (4KB pages)"),
                artifacts,
            )
        })?;
    }

    if wants(options, "fig10") {
        family(store, scale.label(), "fig10", &mut artifacts, |artifacts| {
            let result = performance::fig10_prmb_sweep_on(&runner, scale)?;
            artifacts.json("fig10_prmb_sweep", &result)?;
            emit(
                "fig10_prmb_sweep",
                result.to_table("Figure 10: sensitivity to PRMB mergeable slots (8 PTWs)"),
                artifacts,
            )
        })?;
    }

    if wants(options, "fig11") {
        family(store, scale.label(), "fig11", &mut artifacts, |artifacts| {
            let result = performance::fig11_ptw_sweep_on(&runner, scale)?;
            artifacts.json("fig11_ptw_sweep", &result)?;
            emit(
                "fig11_ptw_sweep",
                result.to_table("Figure 11: sensitivity to the number of PTWs with PRMB(32)"),
                artifacts,
            )
        })?;
    }

    if wants(options, "fig12a") {
        family(
            store,
            scale.label(),
            "fig12a",
            &mut artifacts,
            |artifacts| {
                let result = performance::fig12a_ptw_no_prmb_on(&runner, scale)?;
                artifacts.json("fig12a_ptw_no_prmb", &result)?;
                emit(
                    "fig12a_ptw_no_prmb",
                    result
                        .to_table("Figure 12a: sensitivity to the number of PTWs without the PRMB"),
                    artifacts,
                )
            },
        )?;
    }

    if wants(options, "fig12b") {
        family(
            store,
            scale.label(),
            "fig12b",
            &mut artifacts,
            |artifacts| {
                let result = performance::fig12b_energy_perf_on(&runner, scale)?;
                artifacts.json("fig12b_energy_perf", &result)?;
                emit("fig12b_energy_perf", result.to_table(), artifacts)
            },
        )?;
    }

    if wants(options, "fig13") {
        family(store, scale.label(), "fig13", &mut artifacts, |artifacts| {
            let result = performance::fig13_tpreg_hit_rate_on(&runner, scale)?;
            artifacts.json("fig13_tpreg_hit_rate", &result)?;
            emit("fig13_tpreg_hit_rate", result.to_table(), artifacts)
        })?;
    }

    if wants(options, "fig14") {
        family(store, scale.label(), "fig14", &mut artifacts, |artifacts| {
            let result = characterization::fig14_va_trace_on(&runner, WorkloadId::Cnn1, 1)?;
            artifacts.json("fig14_va_trace", &result)?;
            emit("fig14_va_trace", result.to_table(), artifacts)
        })?;
    }

    if wants(options, "mmu_cache") {
        family(
            store,
            scale.label(),
            "mmu_cache",
            &mut artifacts,
            |artifacts| {
                let result = mmu_cache_study::run_on(&runner, scale)?;
                artifacts.json("mmu_cache_uptc_vs_tpc", &result)?;
                println!(
                    "TPC eliminates {:.1}% of the page-table reads left by the UPTC\n",
                    result.tpc_walk_reduction_vs_uptc() * 100.0
                );
                emit("mmu_cache_uptc_vs_tpc", result.to_table(), artifacts)
            },
        )?;
    }

    if wants(options, "summary") {
        family(
            store,
            scale.label(),
            "summary",
            &mut artifacts,
            |artifacts| {
                let result = performance::summary_neummu_on(&runner, scale)?;
                artifacts.json("summary_neummu", &result)?;
                emit("summary_neummu", result.to_table(), artifacts)
            },
        )?;
    }

    if wants(options, "largepage") {
        family(
            store,
            scale.label(),
            "largepage",
            &mut artifacts,
            |artifacts| {
                let result = performance::largepage_dense_on(&runner, scale)?;
                artifacts.json("largepage_dense", &result)?;
                emit(
                    "largepage_dense",
                    result.to_table("Section VI-A: dense workloads with 2MB large pages"),
                    artifacts,
                )
            },
        )?;
    }

    if wants(options, "spatial") {
        family(
            store,
            scale.label(),
            "spatial",
            &mut artifacts,
            |artifacts| {
                let result = performance::spatial_npu_on(&runner, scale)?;
                artifacts.json("spatial_npu", &result)?;
                emit(
                    "spatial_npu",
                    result.to_table("Section VI-B: spatial-array NPU"),
                    artifacts,
                )
            },
        )?;
    }

    if wants(options, "sensitivity") {
        family(
            store,
            scale.label(),
            "sensitivity",
            &mut artifacts,
            |artifacts| {
                let result = performance::sensitivity_on(&runner, scale)?;
                artifacts.json("sensitivity", &result)?;
                emit("sensitivity", result.to_table(), artifacts)
            },
        )?;
    }

    if wants(options, "fig15") {
        family(store, scale.label(), "fig15", &mut artifacts, |artifacts| {
            let result = recommender::fig15_numa_breakdown_on(&runner, scale)?;
            artifacts.json("fig15_numa_breakdown", &result)?;
            println!(
                "Figure 15: average latency reduction vs the MMU-less baseline: NUMA(slow) {:.0}%, NUMA(fast) {:.0}%\n",
                result.average_latency_reduction("NUMA(slow)") * 100.0,
                result.average_latency_reduction("NUMA(fast)") * 100.0
            );
            emit("fig15_numa_breakdown", result.to_table(), artifacts)
        })?;
    }

    if wants(options, "fig16") {
        family(store, scale.label(), "fig16", &mut artifacts, |artifacts| {
            let result = recommender::fig16_demand_paging_on(&runner, scale)?;
            artifacts.json("fig16_demand_paging", &result)?;
            emit("fig16_demand_paging", result.to_table(), artifacts)
        })?;
    }

    if wants(options, "multitenant") {
        family(
            store,
            scale.label(),
            "multitenant",
            &mut artifacts,
            |artifacts| {
                let result = multi_tenant::tenant_sweep_on(&runner, scale)?;
                artifacts.json("multitenant_sweep", &result)?;
                emit("multitenant_sweep", result.to_table(), artifacts)?;
                // The per-tenant counter table: the raw cross-tenant contention
                // events (CounterPoint-style validation of the slowdown story).
                emit(
                    "multitenant_tenant_counters",
                    result.counters_table(),
                    artifacts,
                )
            },
        )?;
    }

    if wants(options, "serving") {
        family(
            store,
            scale.label(),
            "serving",
            &mut artifacts,
            |artifacts| {
                let result = serving::serving_sweep_on(&runner, scale)?;
                artifacts.json("serving_sweep", &result)?;
                emit("serving_slo", result.slo_table(), artifacts)?;
                emit("serving_goodput", result.goodput_table(), artifacts)?;
                emit(
                    "serving_tenant_counters",
                    result.counters_table(),
                    artifacts,
                )
            },
        )?;
    }

    if wants(options, "resilience") {
        family(
            store,
            scale.label(),
            "resilience",
            &mut artifacts,
            |artifacts| {
                let result = resilience::resilience_sweep_on(&runner, scale)?;
                artifacts.json("resilience_sweep", &result)?;
                emit(
                    "resilience_availability",
                    result.availability_table(),
                    artifacts,
                )?;
                emit("resilience_recovery", result.recovery_table(), artifacts)?;
                emit("resilience_overhead", result.overhead_table(), artifacts)
            },
        )?;
    }

    // The self-profile is wall-clock data and therefore nondeterministic; it
    // goes to stdout only, never into the artifact directory, so artifact
    // trees stay byte-identical across thread counts.
    println!("{}", runner.profile().to_table().to_markdown());
    // Store traffic, surfaced both as `count/store_*` trace events and on
    // stdout. Each memoized key consults the store exactly once per process,
    // so these are deterministic for a given store state and flag set.
    if let Some(store) = store {
        let counters = store.counters();
        for (name, value) in [
            ("store_hits", counters.hits),
            ("store_misses", counters.misses),
            ("store_recovered", counters.recovered),
            ("store_commits", counters.commits),
        ] {
            runner.profile().add_counter(name, value);
        }
        println!(
            "store: {} slot hits, {} misses, {} recovered (damaged slots recomputed), {} commits",
            counters.hits, counters.misses, counters.recovered, counters.commits
        );
    }
    let cache = runner.cache();
    println!(
        "point cache: {} simulations, {} reuses across {} keys",
        cache.simulations(),
        cache.hits(),
        cache.len()
    );
    println!(
        "wrote {} artifacts to `{}` in {:.1}s ({} scale, {} threads, {:.1}s simulation busy-time)",
        artifacts.written().len(),
        options.out_dir,
        started.elapsed().as_secs_f64(),
        scale.label(),
        runner.threads(),
        runner.profile().total_busy().as_secs_f64()
    );
    Ok(())
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    // Install the process-wide trace sink before any engine or profile is
    // constructed, so every emission site sees it from the start.
    if let Some(path) = &options.profile_trace {
        let sink = match neummu_trace::TraceSink::to_file(path) {
            Ok(sink) => sink,
            Err(error) => {
                eprintln!("error: cannot create trace file `{path}`: {error}");
                return ExitCode::FAILURE;
            }
        };
        if neummu_trace::install(sink).is_none() {
            eprintln!("error: a trace sink is already installed in this process");
            return ExitCode::FAILURE;
        }
    }
    let outcome = run_all(&options);
    if let (Some(path), Some(sink)) = (&options.profile_trace, neummu_trace::global()) {
        match sink.finish() {
            Ok(events) => println!("wrote {events} trace events to `{path}`"),
            Err(error) => {
                eprintln!("error: failed to finalize trace `{path}`: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
