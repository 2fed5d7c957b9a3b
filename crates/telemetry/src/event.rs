//! Trace event model: everything a [`crate::Sink`] can receive.

use serde::{Deserialize, Serialize};

/// Severity of a [`TraceEvent::Log`] message, ordered from most to least
/// severe. Structural events (spans, counters, observations) are treated as
/// [`Level::Debug`] by level-filtering sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Level {
    /// Unrecoverable or correctness-threatening conditions.
    Error,
    /// Suspicious but survivable conditions.
    Warn,
    /// High-level progress (task/round milestones).
    Info,
    /// Fine-grained structural events.
    Debug,
}

impl Level {
    /// Parses a level name as found in `REFIL_LOG` (case-insensitive).
    pub(crate) fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            "off" | "none" => None,
            _ => None,
        }
    }

    /// Fixed-width display name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }
}

/// One structured event emitted by [`crate::Telemetry`] and streamed to the
/// configured [`crate::Sink`].
///
/// Serialized one-per-line by [`crate::JsonlSink`] using the externally
/// tagged enum representation, e.g.
/// `{"SpanEnd":{"path":"run/task:0/round:1","duration_ns":1234}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A span opened. `path` is the `/`-joined chain of enclosing span
    /// names, ending with this span's own name.
    SpanStart {
        /// Full span path, e.g. `run/task:0/round:1/client:3`.
        path: String,
    },
    /// A span closed; `duration_ns` is the wall-clock time it was open.
    SpanEnd {
        /// Full span path, matching the corresponding `SpanStart`.
        path: String,
        /// Nanoseconds between open and close (non-negative by
        /// construction: measured with a monotonic clock).
        duration_ns: u64,
    },
    /// A monotonic counter moved forward.
    Counter {
        /// Counter name, e.g. `traffic.up_bytes`.
        name: String,
        /// Increment applied by this event.
        delta: u64,
        /// Running total after applying `delta`.
        total: u64,
    },
    /// A sampled value was recorded into a histogram.
    Observe {
        /// Histogram name, e.g. `client.samples_per_sec`.
        name: String,
        /// The sampled value.
        value: f64,
    },
    /// A human-readable message.
    Log {
        /// Message severity.
        level: Level,
        /// Message text.
        message: String,
    },
    /// One merged slice of a per-worker [`crate::Timeline`] lane: a named
    /// interval on a numbered track, with ticks measured from the collector's
    /// epoch. Emitted in batches when a pool's lanes are merged post-round —
    /// never from a hot path — and rendered by [`crate::ChromeTraceSink`] as
    /// one Perfetto track per worker.
    TimelineSpan {
        /// Track number: 0 is the driver thread, `1..=N` are worker slots.
        track: u32,
        /// Slice name, e.g. `client:3` or `eval:1`.
        name: String,
        /// Nanoseconds from the collector epoch to the slice start.
        start_ns: u64,
        /// Slice duration in nanoseconds.
        dur_ns: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_accepts_aliases_and_rejects_garbage() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" debug "), Some(Level::Debug));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn level_ordering_is_severity_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn trace_event_roundtrips_through_json() {
        let events = vec![
            TraceEvent::SpanStart {
                path: "run/task:0".into(),
            },
            TraceEvent::SpanEnd {
                path: "run/task:0".into(),
                duration_ns: 42,
            },
            TraceEvent::Counter {
                name: "traffic.up_bytes".into(),
                delta: 7,
                total: 21,
            },
            TraceEvent::Observe {
                name: "client.duration_s".into(),
                value: 0.125,
            },
            TraceEvent::Log {
                level: Level::Info,
                message: "hello".into(),
            },
            TraceEvent::TimelineSpan {
                track: 2,
                name: "client:5".into(),
                start_ns: 1_000,
                dur_ns: 2_500,
            },
        ];
        for event in events {
            let line = serde_json::to_string(&event).expect("serialize");
            let back: TraceEvent = serde_json::from_str(&line).expect("deserialize");
            assert_eq!(back, event);
        }
    }
}
