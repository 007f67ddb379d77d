//! Self-profiling of experiment runs, in the spirit of rustc's `measureme`:
//! every job records its wall-clock duration under a phase label, and the
//! aggregate report shows where simulation time actually goes.
//!
//! Since PR 7 the profile is a *view over the event-trace sink*
//! (`neummu_trace`) rather than a parallel `Mutex<BTreeMap>` accumulator:
//! each job becomes one `wall/job/<phase>` event, each piece of work timed
//! inside a job (a memoized point it simulated) one `wall/nested/<phase>`
//! event, and each named counter one `count/<name>` event, emitted to the
//! process-wide sink when `--profile-trace` installed one (so the analyzer
//! sees the same jobs the stdout tables summarize) and to a private
//! in-memory sink otherwise. The aggregate tables are reconstructed from the
//! sink's per-kind aggregates.
//!
//! Wall-clock durations are measured by the *callers* in the runner (the
//! D002 allowlist); this module itself reads no clock. Job events are placed
//! on a virtual busy-time line — a monotone counter advanced by each job's
//! duration — so their spans are exactly the measured durations without
//! another clock read. Nested events do not advance the line: their time is
//! already part of their job's, so busy time counts every nanosecond once.
//! Wall-clock numbers are inherently nondeterministic, so `wall/…` and
//! `count/…` kinds are reported to stdout only, never written into the
//! artifact directory, and excluded from a trace's canonical
//! (determinism-checked) content.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use neummu_trace::{Event, TraceSink};

use crate::report::ResultTable;

/// Aggregated wall-clock statistics of one profiled phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of jobs recorded under the phase.
    pub jobs: u64,
    /// Total wall-clock time spent across all jobs of the phase.
    pub total: Duration,
    /// Shortest single job.
    pub min: Duration,
    /// Longest single job.
    pub max: Duration,
}

impl PhaseStats {
    /// Mean wall-clock time per job.
    ///
    /// Computed over `u128` nanoseconds: `Duration`'s own division takes a
    /// `u32` divisor, and truncating the job count to `u32::MAX` — the old
    /// implementation — silently inflates the mean once a phase exceeds
    /// 2^32 jobs, exactly the regime per-event tracing enters at full scale.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.jobs == 0 {
            return Duration::ZERO;
        }
        let nanos = self.total.as_nanos() / u128::from(self.jobs);
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

/// Where a profile's events go: the process-wide sink when tracing is on,
/// a private in-memory sink otherwise.
#[derive(Debug)]
enum ProfileSink {
    Global(&'static TraceSink),
    Private(TraceSink),
}

impl ProfileSink {
    fn sink(&self) -> &TraceSink {
        match self {
            ProfileSink::Global(sink) => sink,
            ProfileSink::Private(sink) => sink,
        }
    }
}

/// Thread-safe accumulator of per-phase wall-clock statistics, plus named
/// event counters (store traffic and anything else worth one number per
/// run) — all stored as events in a trace sink (see the module docs).
#[derive(Debug)]
pub struct SelfProfile {
    sink: ProfileSink,
    /// Virtual busy-time line in nanoseconds: advanced by each job's
    /// duration, so job events get exact-length spans without this module
    /// reading a clock.
    busy_ns: AtomicU64,
}

impl Default for SelfProfile {
    fn default() -> Self {
        Self::new()
    }
}

/// Label prefix of per-job phase events.
const JOB_PREFIX: &str = "wall/job/";
/// Label prefix of phase events timed inside a job.
const NESTED_PREFIX: &str = "wall/nested/";
/// Label prefix of named counter events.
const COUNT_PREFIX: &str = "count/";

impl SelfProfile {
    /// Creates an empty profile, bound to the installed process-wide trace
    /// sink if there is one (events then also land in the trace file) and to
    /// a private in-memory sink otherwise.
    #[must_use]
    pub fn new() -> Self {
        let sink = match neummu_trace::global() {
            Some(global) => ProfileSink::Global(global),
            None => ProfileSink::Private(TraceSink::in_memory()),
        };
        SelfProfile {
            sink,
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Records one job of `elapsed` wall-clock time under `phase`.
    pub fn record(&self, phase: &str, elapsed: Duration) {
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let start = self.busy_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        self.emit_span(JOB_PREFIX, phase, start, elapsed_ns);
    }

    /// Records `elapsed` wall-clock time under `phase`, spent inside a job
    /// that records its own (containing) time: listed, but not busy time.
    pub fn record_nested(&self, phase: &str, elapsed: Duration) {
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let start = self.busy_ns.load(Ordering::Relaxed);
        self.emit_span(NESTED_PREFIX, phase, start, elapsed_ns);
    }

    fn emit_span(&self, prefix: &str, phase: &str, start: u64, elapsed_ns: u64) {
        let sink = self.sink.sink();
        let kind = sink.kind(&format!("{prefix}{phase}"));
        sink.emit(Event {
            kind,
            asid: 0,
            start,
            end: start.saturating_add(elapsed_ns),
            payload: 1,
        });
    }

    /// Snapshot of every job phase, sorted by label, reconstructed from the
    /// sink's per-kind aggregates.
    #[must_use]
    pub fn phases(&self) -> BTreeMap<String, PhaseStats> {
        self.phases_under(JOB_PREFIX)
    }

    /// Snapshot of every nested phase (time recorded inside jobs), sorted by
    /// label.
    #[must_use]
    pub fn nested_phases(&self) -> BTreeMap<String, PhaseStats> {
        self.phases_under(NESTED_PREFIX)
    }

    fn phases_under(&self, prefix: &str) -> BTreeMap<String, PhaseStats> {
        self.sink
            .sink()
            .aggregates()
            .into_iter()
            .filter_map(|(label, agg)| {
                let phase = label.strip_prefix(prefix)?;
                Some((
                    phase.to_string(),
                    PhaseStats {
                        jobs: agg.events,
                        total: Duration::from_nanos(agg.span_total),
                        min: Duration::from_nanos(agg.span_min),
                        max: Duration::from_nanos(agg.span_max),
                    },
                ))
            })
            .collect()
    }

    /// Adds `value` to the named event counter.
    pub fn add_counter(&self, name: &str, value: u64) {
        let sink = self.sink.sink();
        let kind = sink.kind(&format!("{COUNT_PREFIX}{name}"));
        sink.emit(Event {
            kind,
            asid: 0,
            start: 0,
            end: 0,
            payload: value,
        });
    }

    /// Snapshot of every event counter, sorted by name.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.sink
            .sink()
            .aggregates()
            .into_iter()
            .filter_map(|(label, agg)| {
                let name = label.strip_prefix(COUNT_PREFIX)?;
                Some((name.to_string(), agg.payload_total))
            })
            .collect()
    }

    /// Renders the event counters as a table (empty if none were recorded).
    #[must_use]
    pub fn counters_table(&self) -> ResultTable {
        let mut table = ResultTable::new("Event counters", &["Counter", "Value"]);
        for (name, value) in self.counters() {
            table.push_row(&[name, value.to_string()]);
        }
        table
    }

    /// Total busy time across all job phases (CPU-seconds of simulation work;
    /// with N threads this exceeds elapsed wall-clock time by up to N×).
    /// Nested phases are inside jobs, so they are not added again.
    #[must_use]
    pub fn total_busy(&self) -> Duration {
        self.phases().values().map(|p| p.total).sum()
    }

    /// Renders the profile as a table, phases sorted by total time spent,
    /// descending — the "where does simulation time go" report. The shares
    /// of job phases sum to 100%; a nested phase is marked `(nested)` and its
    /// share, in parentheses, is part of its jobs' shares.
    #[must_use]
    pub fn to_table(&self) -> ResultTable {
        let busy = self.total_busy().as_secs_f64().max(1e-12);
        let mut rows: Vec<(String, PhaseStats, bool)> = self
            .phases()
            .into_iter()
            .map(|(label, stats)| (label, stats, false))
            .chain(
                self.nested_phases()
                    .into_iter()
                    .map(|(label, stats)| (format!("{label} (nested)"), stats, true)),
            )
            .collect();
        rows.sort_by(|a, b| b.1.total.cmp(&a.1.total).then_with(|| a.0.cmp(&b.0)));
        let mut table = ResultTable::new(
            "Self-profile: where simulation time goes",
            &[
                "Phase",
                "Jobs",
                "Total (ms)",
                "Mean (ms)",
                "Max (ms)",
                "Share",
            ],
        );
        for (label, stats, nested) in rows {
            let share = format!("{:.1}%", stats.total.as_secs_f64() / busy * 100.0);
            table.push_row(&[
                label,
                stats.jobs.to_string(),
                format!("{:.1}", stats.total.as_secs_f64() * 1e3),
                format!("{:.2}", stats.mean().as_secs_f64() * 1e3),
                format!("{:.1}", stats.max.as_secs_f64() * 1e3),
                if nested { format!("({share})") } else { share },
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_aggregate_per_phase() {
        let profile = SelfProfile::new();
        profile.record("sweep", Duration::from_millis(4));
        profile.record("sweep", Duration::from_millis(2));
        profile.record("table1", Duration::from_millis(1));
        let phases = profile.phases();
        assert_eq!(phases.len(), 2);
        let sweep = &phases["sweep"];
        assert_eq!(sweep.jobs, 2);
        assert_eq!(sweep.total, Duration::from_millis(6));
        assert_eq!(sweep.min, Duration::from_millis(2));
        assert_eq!(sweep.max, Duration::from_millis(4));
        assert_eq!(sweep.mean(), Duration::from_millis(3));
        assert_eq!(profile.total_busy(), Duration::from_millis(7));
    }

    #[test]
    fn table_sorts_by_total_time_descending() {
        let profile = SelfProfile::new();
        profile.record("small", Duration::from_millis(1));
        profile.record("big", Duration::from_millis(10));
        let table = profile.to_table();
        assert_eq!(table.rows().len(), 2);
        assert_eq!(table.rows()[0][0], "big");
        assert!(table.rows()[0][5].ends_with('%'));
    }

    #[test]
    fn nested_time_is_listed_but_counted_once() {
        // A point simulated inside a job: the job's 5 ms already contain the
        // point's 3 ms, so busy time is the job's time alone.
        let profile = SelfProfile::new();
        profile.record_nested("point/dense", Duration::from_millis(3));
        profile.record("performance/fig12b", Duration::from_millis(5));
        assert_eq!(profile.total_busy(), Duration::from_millis(5));
        assert_eq!(
            profile.nested_phases()["point/dense"].total,
            Duration::from_millis(3)
        );
        assert!(!profile.phases().contains_key("point/dense"));
        let table = profile.to_table();
        assert_eq!(table.rows().len(), 2);
        assert_eq!(table.rows()[0][0], "performance/fig12b");
        assert_eq!(table.rows()[0][5], "100.0%");
        assert_eq!(table.rows()[1][0], "point/dense (nested)");
        assert_eq!(table.rows()[1][5], "(60.0%)");
    }

    #[test]
    fn empty_profile_renders_an_empty_table() {
        let profile = SelfProfile::new();
        assert!(profile.to_table().rows().is_empty());
        assert!(profile.counters_table().rows().is_empty());
        assert_eq!(profile.total_busy(), Duration::ZERO);
    }

    #[test]
    fn counters_accumulate_by_name() {
        let profile = SelfProfile::new();
        profile.add_counter("hot/probes", 3);
        profile.add_counter("hot/probes", 4);
        profile.add_counter("cache/hits", 1);
        let counters = profile.counters();
        assert_eq!(counters["hot/probes"], 7);
        assert_eq!(counters["cache/hits"], 1);
        let table = profile.counters_table();
        assert_eq!(table.rows().len(), 2);
        assert_eq!(table.rows()[0], vec!["cache/hits", "1"]);
    }

    /// The PR 7 regression lock: a phase with more jobs than `u32::MAX` must
    /// report an exact mean. The old `total / u32::try_from(jobs)
    /// .unwrap_or(u32::MAX)` divided 8×10⁹ seconds by 2³²−1 ≈ 1.86 s here.
    #[test]
    fn mean_is_exact_past_u32_max_jobs() {
        let jobs = 8_000_000_000u64; // ~2 × u32::MAX
        let stats = PhaseStats {
            jobs,
            total: Duration::from_secs(jobs),
            min: Duration::from_secs(1),
            max: Duration::from_secs(1),
        };
        assert_eq!(stats.mean(), Duration::from_secs(1));
        // And the old failure mode stays dead for non-uniform totals too.
        let stats = PhaseStats {
            jobs: u64::from(u32::MAX) + 2,
            total: Duration::from_nanos(3 * (u64::from(u32::MAX) + 2)),
            min: Duration::from_nanos(3),
            max: Duration::from_nanos(3),
        };
        assert_eq!(stats.mean(), Duration::from_nanos(3));
    }

    #[test]
    fn mean_of_empty_phase_is_zero() {
        assert_eq!(PhaseStats::default().mean(), Duration::ZERO);
    }
}
