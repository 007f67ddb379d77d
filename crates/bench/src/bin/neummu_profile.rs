//! Decodes a binary event trace written by `neummu-experiments
//! --profile-trace` and renders where the run spent its time — the
//! `analyzeme` half of the tracing subsystem.
//!
//! Usage:
//!
//! ```text
//! neummu-profile <trace-file> [--top <n>] [--dump]
//! ```
//!
//! Prints four Markdown tables:
//!
//! 1. **Wall-clock phases** — the runner's `wall/job/<phase>` spans: jobs,
//!    total/mean/p99/max per-job wall time, plus `wall/nested/<phase>` spans
//!    (time spent inside a job) marked `(nested)`. Matches the self-profile
//!    table the run printed, plus percentiles the aggregate table cannot
//!    show.
//! 2. **Hottest event kinds** — simulated-cycle kinds sorted by total span,
//!    clipped to `--top <n>` (default 20). Engine kinds are binned, so
//!    `Weight` (the payload sum) is the number of underlying requests.
//! 3. **Per-tenant activity** — cycle-span events grouped by ASID; in
//!    multi-tenant runs this splits engine time by tenant.
//! 4. **Device faults** — rendered only when the trace contains `fault/*`
//!    events (a fault-injected run): per `fault/<kind>/<outcome>` event
//!    counts, total/mean extra cycles (the payload is each fault's recovery
//!    latency beyond the fault-free walk) and the faulted walks' span tail.
//!    Fault-free traces never intern the `fault/*` labels, so this section
//!    is absent and their reports are byte-identical to pre-fault builds.
//! 5. **Counters** — `count/<name>` payload totals.
//!
//! `--dump` instead prints the trace's canonical content lines (sorted,
//! `wall/` kinds excluded) — the exact byte stream CI diffs across thread
//! counts to check trace determinism.

use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;

use neummu_sim::ResultTable;
use neummu_trace::{kind_breakdown, tenant_breakdown, EventClass, Trace};

struct Options {
    trace_path: String,
    top: usize,
    dump: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut trace_path = None;
    let mut top = 20usize;
    let mut dump = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let value = args.next().ok_or("--top requires a count argument")?;
                top = value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --top count `{value}`"))?;
            }
            "--dump" => dump = true,
            "--help" | "-h" => {
                println!("usage: neummu-profile <trace-file> [--top <n>] [--dump]");
                std::process::exit(0);
            }
            other if trace_path.is_none() && !other.starts_with('-') => {
                trace_path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        trace_path: trace_path.ok_or("a trace file argument is required")?,
        top,
        dump,
    })
}

fn ms(nanos: u64) -> String {
    format!("{:.2}", nanos as f64 / 1e6)
}

fn report(options: &Options, out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    // A truncated or corrupt trace (a killed `--profile-trace` run, a partial
    // copy) must die with one clear line naming the file, never a panic or a
    // silent partial report.
    let trace = Trace::load(&options.trace_path)
        .map_err(|error| format!("cannot read trace `{}`: {error}", options.trace_path))?;

    if options.dump {
        // Canonical content: what must match across thread counts.
        write!(out, "{}", trace.canonical_lines())?;
        return Ok(out.flush()?);
    }

    writeln!(
        out,
        "trace `{}`: {} events across {} kinds\n",
        options.trace_path,
        trace.events().len(),
        trace.labels().len()
    )?;
    let kinds = kind_breakdown(&trace);

    let mut phases = ResultTable::new(
        "Wall-clock phases (runner jobs)",
        &[
            "Phase",
            "Jobs",
            "Total (ms)",
            "Mean (ms)",
            "P99 (ms)",
            "Max (ms)",
        ],
    );
    for stat in kinds.iter().filter(|s| s.class == EventClass::Wall) {
        let phase = match stat.label.strip_prefix("wall/nested/") {
            Some(nested) => format!("{nested} (nested)"),
            None => stat
                .label
                .strip_prefix("wall/job/")
                .unwrap_or(&stat.label)
                .to_string(),
        };
        phases.push_row(&[
            phase,
            stat.events.to_string(),
            ms(stat.span_total),
            ms(stat.span_mean()),
            ms(stat.span_p99),
            ms(stat.span_max),
        ]);
    }
    writeln!(out, "{}", phases.to_markdown())?;

    let mut hottest = ResultTable::new(
        "Hottest event kinds (simulated cycles)",
        &[
            "Kind",
            "Events",
            "Weight",
            "Total cycles",
            "Mean",
            "P99",
            "Max",
        ],
    );
    let cycle_kinds: Vec<_> = kinds
        .iter()
        .filter(|s| s.class == EventClass::Cycle)
        .collect();
    let shown = cycle_kinds.len().min(options.top);
    for stat in &cycle_kinds[..shown] {
        hottest.push_row(&[
            stat.label.clone(),
            stat.events.to_string(),
            stat.payload_total.to_string(),
            stat.span_total.to_string(),
            stat.span_mean().to_string(),
            stat.span_p99.to_string(),
            stat.span_max.to_string(),
        ]);
    }
    writeln!(out, "{}", hottest.to_markdown())?;
    if shown < cycle_kinds.len() {
        writeln!(
            out,
            "({} more cycle kinds below the --top {} cut)\n",
            cycle_kinds.len() - shown,
            options.top
        )?;
    }

    let mut tenants = ResultTable::new(
        "Per-tenant activity (cycle-span events by ASID)",
        &["ASID", "Events", "Weight", "Total cycles"],
    );
    for tenant in tenant_breakdown(&trace) {
        tenants.push_row(&[
            tenant.asid.to_string(),
            tenant.events.to_string(),
            tenant.payload_total.to_string(),
            tenant.span_total.to_string(),
        ]);
    }
    writeln!(out, "{}", tenants.to_markdown())?;

    let fault_kinds: Vec<_> = kinds
        .iter()
        .filter(|s| s.label.starts_with("fault/"))
        .collect();
    if !fault_kinds.is_empty() {
        let mut faults = ResultTable::new(
            "Device faults (injected walks by kind/outcome)",
            &[
                "Kind",
                "Events",
                "Extra cycles",
                "Mean extra",
                "Walk span P99",
                "Walk span max",
            ],
        );
        for stat in &fault_kinds {
            let mean_extra = if stat.events == 0 {
                0.0
            } else {
                stat.payload_total as f64 / stat.events as f64
            };
            faults.push_row(&[
                stat.label.clone(),
                stat.events.to_string(),
                stat.payload_total.to_string(),
                format!("{mean_extra:.1}"),
                stat.span_p99.to_string(),
                stat.span_max.to_string(),
            ]);
        }
        writeln!(out, "{}", faults.to_markdown())?;
    }

    let mut counters = ResultTable::new("Counters", &["Counter", "Value"]);
    for stat in kinds.iter().filter(|s| s.class == EventClass::Counter) {
        let name = stat.label.strip_prefix("count/").unwrap_or(&stat.label);
        counters.push_row(&[name.to_string(), stat.payload_total.to_string()]);
    }
    writeln!(out, "{}", counters.to_markdown())?;
    Ok(out.flush()?)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: neummu-profile <trace-file> [--top <n>] [--dump]");
            return ExitCode::FAILURE;
        }
    };
    let mut out = BufWriter::new(std::io::stdout().lock());
    match report(&options, &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`neummu_profile trace | head`): it has all
        // it asked for, so stop quietly instead of reporting an error.
        Err(error)
            if error
                .downcast_ref::<std::io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
