//! Breakdown statistics over a decoded [`Trace`]: the computations behind
//! the `neummu_profile` tables, kept here so tests and other tools can reuse
//! them without the binary.

use std::collections::BTreeMap;

use crate::read::Trace;

/// The three label namespaces (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// `wall/…`: wall-clock nanosecond spans from the experiment runner.
    Wall,
    /// `count/…`: counters; `payload` is the increment, the span is empty.
    Counter,
    /// Everything else: deterministic simulated-cycle spans.
    Cycle,
}

impl EventClass {
    /// Classifies a kind label by its prefix.
    #[must_use]
    pub fn of(label: &str) -> Self {
        if label.starts_with("wall/") {
            Self::Wall
        } else if label.starts_with("count/") {
            Self::Counter
        } else {
            Self::Cycle
        }
    }
}

/// Per-kind breakdown over every event of that kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindStats {
    /// The kind label.
    pub label: String,
    /// Namespace of the label.
    pub class: EventClass,
    /// Number of events.
    pub events: u64,
    /// Sum of payloads (for binned engine kinds: total requests covered).
    pub payload_total: u64,
    /// Sum of span lengths.
    pub span_total: u64,
    /// 99th-percentile span length.
    pub span_p99: u64,
    /// Longest span.
    pub span_max: u64,
}

impl KindStats {
    /// Mean span length (0 with no events).
    #[must_use]
    pub fn span_mean(&self) -> u64 {
        self.span_total.checked_div(self.events).unwrap_or(0)
    }
}

/// Per-tenant totals over the cycle-span events attributed to one ASID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Raw ASID (0 = global / single-tenant runs).
    pub asid: u16,
    /// Number of cycle-span events.
    pub events: u64,
    /// Sum of payloads.
    pub payload_total: u64,
    /// Sum of span lengths ("busy cycles" credited to the tenant).
    pub span_total: u64,
}

/// Value at quantile `p` (0.0–1.0) of an **ascending-sorted** slice, using
/// the nearest-rank method; 0 for an empty slice.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-kind statistics for every kind in the trace, sorted by total span
/// descending (ties broken by label) so "hottest first" is the natural
/// iteration order.
#[must_use]
pub fn kind_breakdown(trace: &Trace) -> Vec<KindStats> {
    let mut spans: BTreeMap<&str, (Vec<u64>, u64)> = BTreeMap::new();
    for event in trace.events() {
        let entry = spans.entry(trace.label(event.kind)).or_default();
        entry.0.push(event.span());
        entry.1 = entry.1.saturating_add(event.payload);
    }
    let mut stats: Vec<KindStats> = spans
        .into_iter()
        .map(|(label, (mut spans, payload_total))| {
            spans.sort_unstable();
            KindStats {
                label: label.to_string(),
                class: EventClass::of(label),
                events: spans.len() as u64,
                payload_total,
                span_total: spans.iter().sum(),
                span_p99: percentile(&spans, 0.99),
                span_max: spans.last().copied().unwrap_or(0),
            }
        })
        .collect();
    stats.sort_by(|a, b| b.span_total.cmp(&a.span_total).then(a.label.cmp(&b.label)));
    stats
}

/// Per-tenant totals over cycle-span events, in ascending ASID order.
#[must_use]
pub fn tenant_breakdown(trace: &Trace) -> Vec<TenantStats> {
    let mut tenants: BTreeMap<u16, TenantStats> = BTreeMap::new();
    for event in trace.events() {
        if EventClass::of(trace.label(event.kind)) != EventClass::Cycle {
            continue;
        }
        let entry = tenants.entry(event.asid).or_insert(TenantStats {
            asid: event.asid,
            events: 0,
            payload_total: 0,
            span_total: 0,
        });
        entry.events += 1;
        entry.payload_total = entry.payload_total.saturating_add(event.payload);
        entry.span_total = entry.span_total.saturating_add(event.span());
    }
    tenants.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, TraceSink};

    fn demo_trace() -> Trace {
        let dir = neummu_testdir::ScratchDir::new("trace-analyze");
        let path = dir.join("demo.trace");
        let sink = TraceSink::to_file(&path).unwrap();
        let walk = sink.kind("engine/page_walk");
        let hit = sink.kind("engine/tlb_hit");
        let wall = sink.kind("wall/job/fig06");
        for i in 0..100u64 {
            sink.emit(Event {
                kind: walk,
                asid: 1,
                start: i * 10,
                end: i * 10 + i,
                payload: 1,
            });
        }
        sink.emit(Event {
            kind: hit,
            asid: 2,
            start: 0,
            end: 4,
            payload: 256,
        });
        sink.emit(Event {
            kind: wall,
            asid: 0,
            start: 0,
            end: 1_000_000,
            payload: 1,
        });
        sink.finish().unwrap();
        Trace::load(&path).unwrap()
    }

    #[test]
    fn classifies_by_prefix() {
        assert_eq!(EventClass::of("wall/job/x"), EventClass::Wall);
        assert_eq!(EventClass::of("count/tlb_hits"), EventClass::Counter);
        assert_eq!(EventClass::of("engine/page_walk"), EventClass::Cycle);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let spans: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&spans, 0.99), 99);
        assert_eq!(percentile(&spans, 1.0), 100);
        assert_eq!(percentile(&spans, 0.5), 50);
        assert_eq!(percentile(&[], 0.99), 0);
    }

    #[test]
    fn kind_breakdown_sorts_hottest_first() {
        let stats = kind_breakdown(&demo_trace());
        // wall span (1e6) > walk spans (sum 0..100 = 4950) > hit span (4).
        assert_eq!(stats[0].label, "wall/job/fig06");
        assert_eq!(stats[1].label, "engine/page_walk");
        assert_eq!(stats[1].events, 100);
        assert_eq!(stats[1].span_total, 4950);
        assert_eq!(stats[1].span_p99, 98);
        assert_eq!(stats[1].span_max, 99);
        assert_eq!(stats[1].span_mean(), 49);
        assert_eq!(stats[2].label, "engine/tlb_hit");
        assert_eq!(stats[2].payload_total, 256);
    }

    #[test]
    fn tenant_breakdown_ignores_wall_kinds() {
        let tenants = tenant_breakdown(&demo_trace());
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].asid, 1);
        assert_eq!(tenants[0].span_total, 4950);
        assert_eq!(tenants[1].asid, 2);
        assert_eq!(tenants[1].payload_total, 256);
    }
}
