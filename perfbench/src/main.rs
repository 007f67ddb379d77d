//! End-to-end and per-layer benchmark of the NeuMMU simulators.
//!
//! ```text
//! neummu_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! neummu_perfbench --workload <name> --record-golden
//! ```
//!
//! Each run drives one workload through the simulators' public entry points
//! from a single thread. It times the workload's set-up several times and
//! reports the median, then repeats the workload's simulate calls until
//! `--seconds` have passed and reports the median pass. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` is a separate run that prints the
//! per-layer metrics. The last line of standard output is one JSON object.
//! Workloads are described in `README.md` next to this package.

mod check;
mod dense;
mod host;
mod recsys;
mod replay;
mod serving;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use check::{Expect, Tally};
use host::{median, secs_since};
use replay::{Ledger, Replayed, Span};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Passes per run at the least, however long they take.
const MIN_PASSES: usize = 3;
/// Replays per traced run; each layer's fastest replay is reported.
const REPLAYS: usize = 3;

const WORKLOADS: [&str; 3] = ["dense_walk_storm", "serving_multitenant", "recsys_paging"];

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`. The simulators see only what it generates.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: check::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-golden" {
            args.record_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured across its set-ups and passes.
struct Measured<I> {
    inputs: I,
    setup_s: Vec<f64>,
    /// The last set-up's per-layer clocks.
    setup_ledger: Ledger,
    pass_s: Vec<f64>,
    pass_cpu_s: Vec<f64>,
    /// Per pass: wall time not spent running on a CPU.
    pass_wait_s: Vec<f64>,
    /// Per simulate call (in call order): its fastest time in any pass.
    op_min_s: Vec<f64>,
    /// Every pass's tally folded together; outputs are the first pass's.
    total: Tally,
    /// The first pass's tally.
    first: Tally,
}

/// Sets the workload up `SETUP_REPS` times, then runs passes for
/// `seconds` (at least `MIN_PASSES`). Any pass whose outputs differ from
/// the first pass's counts as failed: the simulators are deterministic.
fn measure<I, C: Default>(
    seed: u64,
    seconds: f64,
    setup: impl Fn(u64, &mut Ledger) -> Result<I, neummu_sim::SimError>,
    pass: impl Fn(&I, &Expect, &mut C) -> Tally,
    expect: &Expect,
    counters: &mut C,
) -> Result<Measured<I>, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let mut ledger = Ledger::default();
        drop(last.take());
        let start = Instant::now();
        let inputs = setup(seed, &mut ledger).map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(secs_since(start));
        last = Some((inputs, ledger));
    }
    let (inputs, setup_ledger) = last.expect("at least one set-up");
    let mut measured = Measured {
        inputs,
        setup_s,
        setup_ledger,
        pass_s: Vec::new(),
        pass_cpu_s: Vec::new(),
        pass_wait_s: Vec::new(),
        op_min_s: Vec::new(),
        total: Tally::default(),
        first: Tally::default(),
    };
    run_passes(&mut measured, seconds, &pass, expect, counters);
    Ok(measured)
}

/// Runs passes for `seconds` (at least `MIN_PASSES`), appending to
/// `measured`; `counters` receive the last pass's layer counts.
fn run_passes<I, C: Default>(
    measured: &mut Measured<I>,
    seconds: f64,
    pass: &impl Fn(&I, &Expect, &mut C) -> Tally,
    expect: &Expect,
    counters: &mut C,
) -> usize {
    let phase = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || secs_since(phase) < seconds {
        *counters = C::default();
        let cpu = host::cpu_time();
        let start = Instant::now();
        let mut tally = pass(&measured.inputs, expect, counters);
        let wall = secs_since(start);
        measured.pass_s.push(wall);
        if let (Some(before), Some(after)) = (cpu, host::cpu_time()) {
            let cpu = (after - before).as_secs_f64();
            measured.pass_cpu_s.push(cpu);
            measured.pass_wait_s.push(wall - cpu);
        }
        if measured.op_min_s.is_empty() {
            measured.op_min_s = tally.op_s.clone();
        } else {
            for (min, &t) in measured.op_min_s.iter_mut().zip(&tally.op_s) {
                *min = min.min(t);
            }
        }
        if measured.total.attempted == 0 {
            measured.first = tally.clone();
        } else if tally.outputs != measured.first.outputs {
            tally.failed += tally.ok;
            tally.ok = 0;
            tally
                .problems
                .push("outputs differ from the first pass".to_string());
        }
        let total = &mut measured.total;
        total.attempted += tally.attempted;
        total.ok += tally.ok;
        total.known_defects += tally.known_defects;
        total.failed += tally.failed;
        total.problems.extend(tally.problems);
        passes += 1;
    }
    let fresh = &measured.pass_s[measured.pass_s.len() - passes..];
    let (lo, hi) = fresh
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &p| (lo.min(p), hi.max(p)));
    eprintln!(
        "{passes} passes: min {lo:.4} s, median {:.4} s, max {hi:.4} s, sum of per-call minima {:.4} s",
        median(fresh),
        measured.op_min_s.iter().sum::<f64>()
    );
    passes
}

/// Prints every metric as a line, then the result object as the last line.
fn report(measured_ok: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut json = String::new();
    for m in metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
        if !json.is_empty() {
            json.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            json,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {measured_ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
}

impl<I> Measured<I> {
    /// One pass's host seconds at the quietest moments of the run: the sum,
    /// over the pass's simulate calls, of each call's fastest time. The VM's
    /// CPU speed drifts by tens of percent over seconds as neighbours come
    /// and go; noise only ever adds time, so per-call minima over many
    /// passes track the program's own cost far more steadily than the
    /// median pass (which `host.pass_median_s` reports beside it).
    fn wall_s(&self) -> f64 {
        self.op_min_s.iter().sum()
    }
}

fn end_to_end<I>(m: &Measured<I>) -> Vec<Metric> {
    let wall_s = m.wall_s();
    let ok_frac = if m.total.attempted == 0 {
        0.0
    } else {
        m.total.ok as f64 / m.total.attempted as f64
    };
    vec![
        metric("wall_s", wall_s, "s"),
        metric(
            "sim_requests_per_s",
            m.first.requests as f64 / wall_s,
            "1/s",
        ),
        metric("setup_s", median(&m.setup_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB"),
        metric("ops_ok_frac", ok_frac, "ratio"),
        metric("model_cycles", m.first.model_cycles as f64, "cycles"),
        metric("model_norm_perf", m.first.norm_perf, "ratio"),
    ]
}

/// Every per-layer metric a traced run prints, in order, with its unit. A
/// layer a workload bypasses reports 0 (see `README.md`).
const PER_LAYER: [(&str, &str); 44] = [
    ("vmem.map_pages", "count"),
    ("vmem.map_ns_per_page", "ns"),
    ("vmem.probe_ns", "ns"),
    ("vmem.pages_migrated", "count"),
    ("vmem.paging_ns_per_call", "ns"),
    ("mmu.requests", "count"),
    ("mmu.tlb_hit_frac", "ratio"),
    ("mmu.merge_frac", "ratio"),
    ("mmu.walks", "count"),
    ("mmu.walk_mem_accesses", "count"),
    ("mmu.stall_cycles", "cycles"),
    ("mmu.structural_stalls", "count"),
    ("mmu.translate_run_ns_per_req", "ns"),
    ("npu.tiling_ns", "ns"),
    ("npu.page_runs_ns", "ns"),
    ("mem.schedule_run_ns", "ns"),
    ("mem.interconnect_bytes", "bytes"),
    ("serving.arrivals_ns", "ns"),
    ("serving.turn_self_ns", "ns"),
    ("serving.dropped_frac", "ratio"),
    ("serving.p99_sojourn_cycles", "cycles"),
    ("serving.p99_stall_cycles", "cycles"),
    ("serving.goodput_per_mcycle", "1/Mcycle"),
    ("embedding.lookups", "count"),
    ("embedding.remote_frac", "ratio"),
    ("embedding.gather_frac", "ratio"),
    ("embedding.failed_points", "count"),
    ("trace.events", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.emit_ns", "ns"),
    ("host.pass_median_s", "s"),
    ("host.cpu_s", "s"),
    ("host.sched_wait_s", "s"),
    ("ledger.span_ns", "ns"),
    ("ledger.vmem_s", "s"),
    ("ledger.mmu_s", "s"),
    ("ledger.npu_s", "s"),
    ("ledger.mem_s", "s"),
    ("ledger.inputs_s", "s"),
    ("ledger.layers_s", "s"),
    ("ledger.wall_s", "s"),
    ("ledger.residual_s", "s"),
    ("ledger.residual_frac", "ratio"),
    ("replay.mismatches", "count"),
];

/// Per-layer values by name; anything never set prints as 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn mmu(&mut self, s: &neummu_mmu::TranslationStats) {
        self.set("mmu.requests", s.requests as f64);
        self.set("mmu.tlb_hit_frac", frac(s.tlb_hits, s.requests));
        self.set("mmu.merge_frac", frac(s.merged, s.requests));
        self.set("mmu.walks", s.walks as f64);
        self.set("mmu.walk_mem_accesses", s.walk_memory_accesses as f64);
        self.set("mmu.stall_cycles", s.stall_cycles as f64);
        self.set("mmu.structural_stalls", s.structural_stalls as f64);
    }

    /// Sets the ledger: each layer's self seconds in one pass, their sum and
    /// the residual against the untraced pass's wall time.
    fn ledger(&mut self, wall_s: f64, vmem: f64, mmu: f64, npu: f64, mem: f64, inputs: f64) {
        let sum = vmem + mmu + npu + mem + inputs;
        self.set("ledger.vmem_s", vmem);
        self.set("ledger.mmu_s", mmu);
        self.set("ledger.npu_s", npu);
        self.set("ledger.mem_s", mem);
        self.set("ledger.inputs_s", inputs);
        self.set("ledger.layers_s", sum);
        self.set("ledger.wall_s", wall_s);
        self.set("ledger.residual_s", wall_s - sum);
        self.set("ledger.residual_frac", (wall_s - sum) / wall_s);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced passes: an in-memory `neummu_trace` sink is installed (it
/// cannot be removed again, so these come after every untraced pass).
struct TracePhase {
    wall_s: f64,
    events_per_pass: f64,
    serving_turns_per_pass: f64,
}

fn trace_phase<I, C: Default>(
    measured: &mut Measured<I>,
    seconds: f64,
    pass: &impl Fn(&I, &Expect, &mut C) -> Tally,
    expect: &Expect,
) -> TracePhase {
    let sink = neummu_trace::install(neummu_trace::TraceSink::in_memory())
        .expect("the benchmark installs the trace sink once");
    let before = measured.pass_s.len();
    let untraced_min_s = std::mem::take(&mut measured.op_min_s);
    let passes = run_passes(measured, seconds, pass, expect, &mut C::default()) as f64;
    let wall_s = measured.wall_s();
    measured.op_min_s = untraced_min_s;
    let turns = sink
        .aggregates()
        .iter()
        .find(|(label, _)| label == "serving/turn")
        .map_or(0, |(_, agg)| agg.events);
    let phase = TracePhase {
        wall_s,
        events_per_pass: sink.events_recorded() as f64 / passes,
        serving_turns_per_pass: turns as f64 / passes,
    };
    measured.pass_s.truncate(before);
    measured.pass_cpu_s.truncate(before);
    measured.pass_wait_s.truncate(before);
    phase
}

/// Host cost of one `TraceSink::emit` into a private in-memory sink: the
/// per-event price behind `trace.overhead_frac`, measured without the
/// run-to-run drift an A/B comparison of whole passes carries.
fn trace_emit_ns() -> f64 {
    const EVENTS: u64 = 1 << 20;
    let sink = neummu_trace::TraceSink::in_memory();
    let kind = sink.kind("perfbench/emit");
    let start = Instant::now();
    for i in 0..EVENTS {
        sink.emit(neummu_trace::Event {
            kind,
            asid: 0,
            start: i,
            end: i + 1,
            payload: i,
        });
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        sink.events_recorded(),
        EVENTS,
        "every emitted event is folded"
    );
    ns / EVENTS as f64
}

/// Metrics every workload's traced run reports the same way.
fn common_layers<I>(
    layers: &mut Layers,
    m: &Measured<I>,
    traced: &TracePhase,
    replayed: &Replayed,
) {
    let wall = m.wall_s();
    let median_or_0 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let setup = &m.setup_ledger;
    layers.set("vmem.map_pages", setup.map_pages as f64);
    // Set-up calls take microseconds each; their span cost is negligible.
    layers.set(
        "vmem.map_ns_per_page",
        setup.clock(Span::Map).ns_per(setup.map_pages, 0.0),
    );
    let tiling = setup.clock(Span::Tiling);
    layers.set("npu.tiling_ns", tiling.ns_per(tiling.calls, 0.0));
    let per_call = |layer| replayed.ns_per(layer, replayed.ledger.clock(layer).calls);
    layers.set("npu.page_runs_ns", per_call(Span::PageRuns));
    layers.set("mem.schedule_run_ns", per_call(Span::Mem));
    layers.set(
        "mmu.translate_run_ns_per_req",
        replayed.ns_per(Span::Translate, replayed.ledger.requests),
    );
    layers.set("ledger.span_ns", replayed.span_s * 1e9);
    layers.set("trace.events", traced.events_per_pass);
    layers.set("trace.overhead_frac", traced.wall_s / wall - 1.0);
    layers.set("trace.emit_ns", trace_emit_ns());
    layers.set("host.pass_median_s", median(&m.pass_s));
    layers.set("host.cpu_s", median_or_0(&m.pass_cpu_s));
    layers.set("host.sched_wait_s", median_or_0(&m.pass_wait_s));
}

fn run(args: &Args) -> Result<(), String> {
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (metrics, total, mismatches) = match args.workload.as_str() {
        "dense_walk_storm" => {
            let expect = expect_for(args, "dense_walk_storm", true);
            let mut counters = dense::Counters::default();
            let mut m = measure(
                args.seed,
                seconds,
                |_, ledger| dense::setup(ledger),
                dense_pass,
                &expect,
                &mut counters,
            )?;
            if args.record_golden {
                return record(&args.workload, &m.first);
            }
            if !args.trace {
                (end_to_end(&m), m.total, 0)
            } else {
                let (replayed, mismatches) = replay::fastest_of(REPLAYS, |ledger| {
                    dense::replay_all(&m.inputs, &m.first.outputs, ledger)
                });
                let (probes, probe_ns) = replay::probe_sweep(dense::batch8_layers(&m.inputs));
                let traced = trace_phase(&mut m, seconds, &dense_pass, &expect);
                let mut layers = Layers::default();
                common_layers(&mut layers, &m, &traced, &replayed);
                layers.mmu(&counters);
                layers.set("vmem.probe_ns", probe_ns / probes as f64);
                layers.ledger(
                    m.wall_s(),
                    replayed.self_s(Span::Map),
                    replayed.self_s(Span::Translate),
                    replayed.self_s(Span::Tiling) + replayed.self_s(Span::PageRuns),
                    replayed.self_s(Span::Mem),
                    0.0,
                );
                layers.set("replay.mismatches", mismatches as f64);
                (layers.into_metrics(), m.total, mismatches)
            }
        }
        "serving_multitenant" => {
            let expect = expect_for(args, "serving_multitenant", false);
            let mut counters = serving::Counters::default();
            let mut m = measure(
                args.seed,
                seconds,
                serving::setup,
                serving::pass,
                &expect,
                &mut counters,
            )?;
            if args.record_golden {
                return record(&args.workload, &m.first);
            }
            if !args.trace {
                (end_to_end(&m), m.total, 0)
            } else {
                let (replayed, mismatches) = replay::fastest_of(REPLAYS, serving::replay_tenants);
                let (probes, probe_ns) = replay::probe_sweep(&serving::tenant_layers());
                let traced = trace_phase(&mut m, seconds, &serving::pass, &expect);
                let mut layers = Layers::default();
                common_layers(&mut layers, &m, &traced, &replayed);
                let c = &counters;
                layers.mmu(&neummu_mmu::TranslationStats {
                    requests: c.requests,
                    tlb_hits: c.tlb_hits,
                    merged: c.merged,
                    walks: c.walks,
                    walk_memory_accesses: c.walk_levels_read,
                    stall_cycles: c.stall_cycles,
                    ..Default::default()
                });
                layers.set("vmem.probe_ns", probe_ns / probes as f64);
                layers.set(
                    "serving.arrivals_ns",
                    m.setup_ledger.clock(Span::Arrivals).self_s(0.0) * 1e9,
                );
                layers.set("serving.dropped_frac", frac(c.dropped, c.offered));
                layers.set(
                    "serving.p99_sojourn_cycles",
                    c.sojourn.p99().unwrap_or(0) as f64,
                );
                layers.set(
                    "serving.p99_stall_cycles",
                    c.stall.p99().unwrap_or(0) as f64,
                );
                layers.set(
                    "serving.goodput_per_mcycle",
                    c.completed as f64 * 1e6 / c.makespan_cycles as f64,
                );
                // Each point re-does the set-up work inside `ServingSimulator::run`:
                // the tenants' mapping once per point, the arrivals once per
                // policy. Translation, DMA and DRAM calls are costed at the
                // solo replay's per-request rates.
                let points = serving::POINTS as f64;
                let per_req = |layer| replayed.self_s(layer) / replayed.ledger.requests as f64;
                let requests = c.requests as f64;
                let setup = &m.setup_ledger;
                let wall = m.wall_s();
                let inputs =
                    setup.clock(Span::Arrivals).self_s(0.0) * points / serving::LOADS.len() as f64;
                let (vmem, mmu, npu, mem) = (
                    setup.clock(Span::Map).self_s(0.0) * points,
                    per_req(Span::Translate) * requests,
                    setup.clock(Span::Tiling).self_s(0.0) * points
                        + per_req(Span::PageRuns) * requests,
                    per_req(Span::Mem) * requests,
                );
                layers.ledger(wall, vmem, mmu, npu, mem, inputs);
                let residual = wall - (vmem + mmu + npu + mem + inputs);
                layers.set(
                    "serving.turn_self_ns",
                    residual * 1e9 / traced.serving_turns_per_pass.max(1.0),
                );
                layers.set("replay.mismatches", mismatches as f64);
                (layers.into_metrics(), m.total, mismatches)
            }
        }
        _ => {
            let expect = expect_for(args, "recsys_paging", false);
            let mut counters = recsys::Counters::default();
            let mut m = measure(
                args.seed,
                seconds,
                recsys::setup,
                recsys_pass,
                &expect,
                &mut counters,
            )?;
            if args.record_golden {
                return record(&args.workload, &m.first);
            }
            if !args.trace {
                (end_to_end(&m), m.total, 0)
            } else {
                let (replayed, (mismatches, stats)) = replay::fastest_of(REPLAYS, |ledger| {
                    recsys::replay_all(&m.inputs, &m.first.outputs, ledger)
                });
                let (probes, probe_ns) = replay::probe_sweep(&recsys::mlp_layers(&m.inputs));
                let traced = trace_phase(&mut m, seconds, &recsys_pass, &expect);
                let mut layers = Layers::default();
                common_layers(&mut layers, &m, &traced, &replayed);
                let c = &counters;
                layers.mmu(&stats);
                layers.set("vmem.probe_ns", probe_ns / probes as f64);
                layers.set("vmem.pages_migrated", c.pages_migrated as f64);
                layers.set(
                    "vmem.paging_ns_per_call",
                    replayed.ns_per(
                        Span::VmemPaging,
                        replayed.ledger.clock(Span::VmemPaging).calls,
                    ),
                );
                layers.set("mem.interconnect_bytes", c.interconnect_bytes as f64);
                layers.set("embedding.lookups", c.lookups as f64);
                layers.set("embedding.remote_frac", frac(c.remote, c.lookups));
                layers.set(
                    "embedding.gather_frac",
                    frac(c.gather_cycles, c.total_cycles),
                );
                layers.set("embedding.failed_points", c.failed_points as f64);
                layers.ledger(
                    m.wall_s(),
                    replayed.self_s(Span::Map) + replayed.self_s(Span::VmemPaging),
                    replayed.self_s(Span::Translate),
                    replayed.self_s(Span::Tiling) + replayed.self_s(Span::PageRuns),
                    replayed.self_s(Span::Mem),
                    replayed.self_s(Span::Lookups),
                );
                layers.set("replay.mismatches", mismatches as f64);
                (layers.into_metrics(), m.total, mismatches)
            }
        }
    };
    for problem in &total.problems {
        eprintln!("check failed: {problem}");
    }
    if total.known_defects > 0 {
        println!(
            "known defect: {} of {} simulate calls returned Vmem(OutOfMemory) (demand paging has no eviction)",
            total.known_defects, total.attempted
        );
    }
    let correct = total.failed == 0 && mismatches == 0;
    report(correct, total.attempted, total.failed, &metrics);
    Ok(())
}

// `measure` is generic over the owned input type, so the slice-taking
// passes get `Vec` adapters.
#[allow(clippy::ptr_arg)]
fn dense_pass(cells: &Vec<dense::Cell>, expect: &Expect, counters: &mut dense::Counters) -> Tally {
    dense::pass(cells, expect, counters)
}

#[allow(clippy::ptr_arg)]
fn recsys_pass(
    points: &Vec<recsys::Point>,
    expect: &Expect,
    counters: &mut recsys::Counters,
) -> Tally {
    recsys::pass(points, expect, counters)
}

fn expect_for(args: &Args, workload: &str, seed_independent: bool) -> Expect {
    if args.record_golden {
        Expect::Record
    } else {
        Expect::for_run(workload, args.seed, seed_independent)
    }
}

/// Prints the first pass's outputs as golden lines.
fn record(workload: &str, first: &Tally) -> Result<(), String> {
    if first.failed > 0 {
        return Err(format!(
            "refusing to record failing outputs: {:?}",
            first.problems
        ));
    }
    for (key, value) in &first.outputs {
        println!("{workload} {key} {value}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("neummu_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("neummu_perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
