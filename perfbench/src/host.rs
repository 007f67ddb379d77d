//! Host-side measurements: span clocks, CPU time and peak memory.

use std::fs;
use std::time::{Duration, Instant};

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of a non-empty sample (the mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time this thread has spent running, from the scheduler's own
/// nanosecond accounting (`/proc/thread-self/schedstat`, first field).
/// The benchmark is single-threaded, so this is the process's user+sys time.
pub fn cpu_time() -> Option<Duration> {
    let stat = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(Duration::from_nanos(ns))
}

/// Accumulates the host time and call count of one layer's calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerClock {
    /// Summed duration of the timed calls.
    pub total: Duration,
    /// Timed calls.
    pub calls: u64,
}

impl LayerClock {
    /// Adds one call spanning `from..to`; returns `to` so timestamps chain.
    pub fn add(&mut self, from: Instant, to: Instant) -> Instant {
        self.total += to - from;
        self.calls += 1;
        to
    }

    /// Seconds spent in the layer, less `span_s` (the cost of timing one
    /// call) per call.
    pub fn self_s(&self, span_s: f64) -> f64 {
        (self.total.as_secs_f64() - self.calls as f64 * span_s).max(0.0)
    }

    /// Nanoseconds per `per` units (calls, requests, pages), less `span_s`
    /// per call.
    pub fn ns_per(&self, per: u64, span_s: f64) -> f64 {
        if per == 0 {
            return 0.0;
        }
        self.self_s(span_s) * 1e9 / per as f64
    }
}
