//! Property tests for the trace wire format, plus the multi-threaded
//! global-sink path (per-thread buffers draining on thread exit).

use std::collections::BTreeMap;

use neummu_testdir::ScratchDir;
use neummu_trace::{Event, KindId, Trace, TraceSink, EVENT_BYTES};
use proptest::prelude::*;

/// An arbitrary event over a small label universe (kind id fixed up after
/// interning).
fn arb_event() -> impl Strategy<Value = (usize, u16, u64, u64, u64)> {
    (
        0usize..8,
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random event streams encode → decode bit-exact: every field of every
    /// event survives the file round trip in order, and the interned string
    /// table reproduces the labels in first-registration order.
    #[test]
    fn file_roundtrip_is_bit_exact(raw in proptest::collection::vec(arb_event(), 0..200)) {
        let dir = ScratchDir::new("trace-prop");
        let path = dir.join("bitexact.trace");
        let sink = TraceSink::to_file(&path).unwrap();
        let labels: Vec<String> = (0..8).map(|i| format!("kind/{i}")).collect();
        let kinds: Vec<KindId> = labels.iter().map(|l| sink.kind(l)).collect();
        let mut expected = Vec::with_capacity(raw.len());
        for &(label_idx, asid, start, end, payload) in &raw {
            let event = Event { kind: kinds[label_idx], asid, start, end, payload };
            sink.emit(event);
            expected.push(event);
        }
        let written = sink.finish().unwrap();
        prop_assert_eq!(written, raw.len() as u64);

        let trace = Trace::load(&path).unwrap();
        prop_assert_eq!(trace.labels(), &labels[..]);
        prop_assert_eq!(trace.events(), &expected[..]);
    }

    /// Interning is stable: re-registering any permutation of the same
    /// labels, with repeats, always returns the id assigned on first
    /// registration.
    #[test]
    fn interning_is_stable(lookups in proptest::collection::vec(0usize..8, 1..64)) {
        let sink = TraceSink::in_memory();
        let first: Vec<KindId> = (0..8).map(|i| sink.kind(&format!("kind/{i}"))).collect();
        for &i in &lookups {
            prop_assert_eq!(sink.kind(&format!("kind/{i}")), first[i]);
        }
    }

    /// Encode/decode of a single record is the identity and keeps the record
    /// exactly EVENT_BYTES wide.
    #[test]
    fn record_codec_is_identity(kind in any::<u16>(), asid in any::<u16>(),
                                start in any::<u64>(), end in any::<u64>(),
                                payload in any::<u64>()) {
        let event = Event { kind: KindId::from_raw(kind), asid, start, end, payload };
        let bytes = event.encode();
        prop_assert_eq!(bytes.len(), EVENT_BYTES);
        prop_assert_eq!(Event::decode(&bytes), event);
    }
}

/// The installed global sink buffers per thread and loses nothing: events
/// emitted from worker threads drain on thread exit, the main thread's on
/// `finish()`, and the decoded multiset matches what was emitted.
///
/// This is the only test in the binary that installs a global sink (installs
/// are once-per-process).
#[test]
fn global_sink_collects_across_threads() {
    let dir = ScratchDir::new("trace-prop");
    let path = dir.join("global.trace");
    let sink = neummu_trace::install(TraceSink::to_file(&path).unwrap())
        .expect("first install in this process");
    assert!(neummu_trace::enabled());
    // A second install is rejected.
    assert!(neummu_trace::install(TraceSink::in_memory()).is_none());

    let kind = sink.kind("worker/span");
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            scope.spawn(move || {
                let sink = neummu_trace::global().unwrap();
                for i in 0..10_000u64 {
                    sink.emit(Event {
                        kind,
                        asid: t as u16,
                        start: i,
                        end: i + t,
                        payload: 1,
                    });
                }
            });
        }
    });
    // Main thread contributes too (stays in its thread-local buffer until
    // finish()).
    sink.emit(Event {
        kind,
        asid: 9,
        start: 0,
        end: 0,
        payload: 7,
    });
    let written = sink.finish().unwrap();
    assert_eq!(written, 4 * 10_000 + 1);

    let trace = Trace::load(&path).unwrap();
    let mut per_asid: BTreeMap<u16, u64> = BTreeMap::new();
    for event in trace.events() {
        *per_asid.entry(event.asid).or_insert(0) += 1;
    }
    assert_eq!(
        per_asid.into_iter().collect::<Vec<_>>(),
        vec![(0, 10_000), (1, 10_000), (2, 10_000), (3, 10_000), (9, 1)]
    );
}
