//! Pluggable trace sinks: where streamed [`TraceEvent`]s go.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::{Level, TraceEvent};

/// Receiver for streamed trace events.
///
/// Sinks observe the event stream; aggregation for
/// [`crate::TelemetrySummary`] happens in the collector regardless of which
/// sink is installed, so a sink only has to care about its own output format.
pub trait Sink: Send + Sync {
    /// Handles one event. Called in program order from the emitting thread.
    fn event(&self, event: &TraceEvent);

    /// Flushes buffered output, if any.
    fn flush(&self) {}

    /// Whether this sink does anything with events. The collector caches
    /// this once at construction and skips building [`TraceEvent`] values
    /// (and the `String` clones they carry) entirely when it returns false —
    /// the aggregate-only fast path of [`crate::Telemetry::collecting`].
    fn wants_events(&self) -> bool {
        true
    }
}

/// Discards every event. The default sink; the collector additionally
/// short-circuits before event construction when telemetry is disabled, so
/// the disabled path costs one branch.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NoopSink;

impl Sink for NoopSink {
    fn event(&self, _event: &TraceEvent) {}

    fn wants_events(&self) -> bool {
        false
    }
}

/// Human-readable sink writing to stderr, filtered by maximum level.
///
/// Log events print when their level is at or above the threshold; spans,
/// counters, and observations are [`Level::Debug`] and print only when the
/// threshold admits debug output.
#[derive(Debug)]
pub(crate) struct StderrSink {
    max_level: Option<Level>,
}

impl StderrSink {
    /// A sink whose threshold comes from the `REFIL_LOG` environment
    /// variable (`error`/`warn`/`info`/`debug`/`off`), defaulting to `info`
    /// when unset or unrecognised.
    pub(crate) fn from_env() -> Self {
        match std::env::var("REFIL_LOG") {
            Ok(raw) if raw.trim().eq_ignore_ascii_case("off") => Self { max_level: None },
            Ok(raw) => Self {
                max_level: Some(Level::parse(&raw).unwrap_or(Level::Info)),
            },
            Err(_) => Self {
                max_level: Some(Level::Info),
            },
        }
    }

    fn admits(&self, level: Level) -> bool {
        self.max_level.is_some_and(|max| level <= max)
    }
}

impl Sink for StderrSink {
    fn event(&self, event: &TraceEvent) {
        let line = match event {
            TraceEvent::Log { level, message } => {
                if !self.admits(*level) {
                    return;
                }
                format!("[{:5}] {message}", level.as_str())
            }
            _ if !self.admits(Level::Debug) => return,
            TraceEvent::SpanStart { path } => format!("[DEBUG] span open  {path}"),
            TraceEvent::SpanEnd { path, duration_ns } => {
                format!(
                    "[DEBUG] span close {path} ({})",
                    fmt_duration_ns(*duration_ns)
                )
            }
            TraceEvent::Counter { name, delta, total } => {
                format!("[DEBUG] counter {name} +{delta} -> {total}")
            }
            TraceEvent::Observe { name, value } => format!("[DEBUG] observe {name} = {value}"),
            TraceEvent::TimelineSpan {
                track,
                name,
                dur_ns,
                ..
            } => {
                format!("[DEBUG] lane {track} {name} ({})", fmt_duration_ns(*dur_ns))
            }
        };
        eprintln!("{line}");
    }
}

fn fmt_duration_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Streaming JSONL sink: one JSON-encoded [`TraceEvent`] per line.
///
/// Write errors after construction are swallowed (telemetry must never abort
/// a training run); construction itself reports file-creation failures.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn event(&self, event: &TraceEvent) {
        let Ok(line) = serde_json::to_string(event) else {
            return;
        };
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        let _ = writeln!(writer, "{line}");
    }

    fn flush(&self) {
        let mut writer = self.writer.lock().expect("trace writer poisoned");
        let _ = writer.flush();
    }
}

/// Fans one event stream out to several sinks, in order — e.g. a JSONL
/// trace and a Chrome trace from the same run.
pub struct TeeSink {
    sinks: Vec<Box<dyn Sink>>,
}

impl TeeSink {
    /// A sink forwarding every event (and flush) to each of `sinks`.
    pub fn new(sinks: Vec<Box<dyn Sink>>) -> Self {
        Self { sinks }
    }
}

impl Sink for TeeSink {
    fn event(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.event(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }

    fn wants_events(&self) -> bool {
        self.sinks.iter().any(|sink| sink.wants_events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stderr_sink_level_threshold() {
        let sink = StderrSink {
            max_level: Some(Level::Warn),
        };
        assert!(sink.admits(Level::Error));
        assert!(sink.admits(Level::Warn));
        assert!(!sink.admits(Level::Info));
        assert!(!sink.admits(Level::Debug));
    }

    #[test]
    fn duration_formatting_scales_units() {
        assert_eq!(fmt_duration_ns(999), "999 ns");
        assert_eq!(fmt_duration_ns(1_500), "1.5 µs");
        assert_eq!(fmt_duration_ns(2_500_000), "2.5 ms");
        assert_eq!(fmt_duration_ns(3_210_000_000), "3.21 s");
    }

    #[test]
    fn tee_wants_events_only_when_a_member_does() {
        assert!(!TeeSink::new(vec![Box::new(NoopSink), Box::new(NoopSink)]).wants_events());
        assert!(TeeSink::new(vec![
            Box::new(NoopSink),
            Box::new(StderrSink {
                max_level: Some(Level::Error),
            })
        ])
        .wants_events());
    }

    #[test]
    fn jsonl_sink_writes_one_event_per_line() {
        let dir = std::env::temp_dir().join("refil-telemetry-test");
        let path = dir.join(format!("sink-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).expect("create sink");
        sink.event(&TraceEvent::SpanStart { path: "run".into() });
        sink.event(&TraceEvent::Counter {
            name: "n".into(),
            delta: 1,
            total: 1,
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read trace");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: TraceEvent = serde_json::from_str(lines[0]).expect("parse line 0");
        assert_eq!(first, TraceEvent::SpanStart { path: "run".into() });
        std::fs::remove_file(&path).ok();
    }
}
