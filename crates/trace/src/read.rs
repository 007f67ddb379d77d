//! Trace decoding: the `analyzeme` half of the crate.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::event::{Event, KindId, EVENT_BYTES, TRACE_MAGIC, TRACE_VERSION};

/// Why a trace file failed to load.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be read.
    Io(io::Error),
    /// The bytes are not a (finished) version-1 trace.
    Format(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "trace I/O error: {err}"),
            Self::Format(msg) => write!(f, "malformed trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError::Format(msg.into()))
}

/// A fully decoded trace: kind labels plus every event, in file order.
#[derive(Debug, Clone)]
pub struct Trace {
    labels: Vec<String>,
    events: Vec<Event>,
}

impl Trace {
    /// Loads and validates a trace file written by
    /// [`TraceSink::to_file`](crate::TraceSink::to_file) and finalized by
    /// [`TraceSink::finish`](crate::TraceSink::finish).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be read, [`TraceError::Format`]
    /// on bad magic/version (including the zeroed header of an unfinished
    /// trace), truncated sections, out-of-range kind ids, or non-UTF-8
    /// labels.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_bytes(&fs::read(path)?)
    }

    /// Decodes a trace from its raw bytes. See [`Trace::load`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Format`] as for [`Trace::load`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < 36 {
            return format_err("shorter than the header");
        }
        if bytes[0..8] != TRACE_MAGIC {
            return format_err("bad magic (unfinished trace, or not a trace file)");
        }
        let u32_at =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        let u64_at = |i: usize| {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[i..i + 8]);
            u64::from_le_bytes(raw)
        };
        let version = u32_at(8);
        if version != TRACE_VERSION {
            return format_err(format!("unsupported version {version}"));
        }
        let event_size = u32_at(12) as usize;
        if event_size != EVENT_BYTES {
            return format_err(format!("unsupported event size {event_size}"));
        }
        let event_count = u64_at(16);
        let table_offset = u64_at(24);
        let string_count = u32_at(32) as usize;

        let events_start = crate::PAGE_BYTES as usize;
        let events_len = usize::try_from(event_count)
            .ok()
            .and_then(|n| n.checked_mul(EVENT_BYTES))
            .filter(|len| {
                events_start
                    .checked_add(*len)
                    .is_some_and(|end| end <= bytes.len())
            });
        let Some(events_len) = events_len else {
            return format_err("event section truncated");
        };
        let Ok(table_offset) = usize::try_from(table_offset) else {
            return format_err("string table offset out of range");
        };
        if table_offset < events_start + events_len || table_offset > bytes.len() {
            return format_err("string table offset out of range");
        }

        let mut labels = Vec::with_capacity(string_count);
        let mut cursor = table_offset;
        for _ in 0..string_count {
            if cursor + 4 > bytes.len() {
                return format_err("string table truncated");
            }
            let len = u32_at(cursor) as usize;
            cursor += 4;
            if cursor + len > bytes.len() {
                return format_err("string table truncated");
            }
            match std::str::from_utf8(&bytes[cursor..cursor + len]) {
                Ok(label) => labels.push(label.to_string()),
                Err(_) => return format_err("kind label is not UTF-8"),
            }
            cursor += len;
        }

        let mut events = Vec::with_capacity(events_len / EVENT_BYTES);
        for record in bytes[events_start..events_start + events_len].chunks_exact(EVENT_BYTES) {
            let mut raw = [0u8; EVENT_BYTES];
            raw.copy_from_slice(record);
            let event = Event::decode(&raw);
            if event.kind.index() >= labels.len() {
                return format_err(format!(
                    "event references unknown kind {}",
                    event.kind.raw()
                ));
            }
            events.push(event);
        }
        Ok(Self { labels, events })
    }

    /// Kind labels in id order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Label of one kind id (panics if out of range — `load` validated every
    /// event's kind, so ids taken from this trace's events are always valid).
    #[must_use]
    pub fn label(&self, kind: KindId) -> &str {
        &self.labels[kind.index()]
    }

    /// Every event, in file order (file order is *not* deterministic across
    /// thread counts; use [`Trace::canonical_lines`] for comparisons).
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The deterministic content of the trace: one `label\tasid\tstart\t`
    /// `end\tpayload` line per event, sorted, with wall-clock (`wall/…`)
    /// kinds excluded. Two runs of the same experiment at different thread
    /// counts must produce byte-identical canonical lines — thread
    /// interleaving may reorder the file and renumber kind ids, but the
    /// decoded multiset of deterministic events is invariant.
    #[must_use]
    pub fn canonical_lines(&self) -> String {
        let mut lines: Vec<String> = self
            .events
            .iter()
            .filter(|event| EventClass::of(self.label(event.kind)) != EventClass::Wall)
            .map(|event| {
                format!(
                    "{}\t{}\t{}\t{}\t{}",
                    self.label(event.kind),
                    event.asid,
                    event.start,
                    event.end,
                    event.payload
                )
            })
            .collect();
        lines.sort_unstable();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

use crate::analyze::EventClass;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;
    use neummu_testdir::ScratchDir;

    #[test]
    fn file_roundtrip_preserves_labels_and_events() {
        let dir = ScratchDir::new("trace-read");
        let path = dir.join("roundtrip.trace");
        let sink = TraceSink::to_file(&path).unwrap();
        let walk = sink.kind("engine/page_walk");
        let wall = sink.kind("wall/job/demo");
        sink.emit(Event {
            kind: walk,
            asid: 2,
            start: 100,
            end: 180,
            payload: 64,
        });
        sink.emit(Event {
            kind: wall,
            asid: 0,
            start: 0,
            end: 999,
            payload: 1,
        });
        assert_eq!(sink.finish().unwrap(), 2);

        let trace = Trace::load(&path).unwrap();
        assert_eq!(trace.labels(), ["engine/page_walk", "wall/job/demo"]);
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.events()[0].payload, 64);
        // Canonical content drops the wall-clock kind.
        assert_eq!(
            trace.canonical_lines(),
            "engine/page_walk\t2\t100\t180\t64\n"
        );
    }

    #[test]
    fn unfinished_trace_is_rejected() {
        let dir = ScratchDir::new("trace-read");
        let path = dir.join("unfinished.trace");
        let sink = TraceSink::to_file(&path).unwrap();
        sink.emit(Event {
            kind: sink.kind("k"),
            asid: 0,
            start: 0,
            end: 1,
            payload: 0,
        });
        // No finish(): the header page stays zeroed.
        drop(sink);
        assert!(matches!(Trace::load(&path), Err(TraceError::Format(_))));
    }

    #[test]
    fn truncated_event_section_is_rejected() {
        let dir = ScratchDir::new("trace-read");
        let path = dir.join("truncated.trace");
        let sink = TraceSink::to_file(&path).unwrap();
        let k = sink.kind("k");
        for i in 0..10 {
            sink.emit(Event {
                kind: k,
                asid: 0,
                start: i,
                end: i + 1,
                payload: 0,
            });
        }
        sink.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(crate::PAGE_BYTES as usize + 3 * EVENT_BYTES);
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Format(_))
        ));
    }
}
