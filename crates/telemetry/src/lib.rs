//! Structured telemetry for the RefFiL training loop.
//!
//! A [`Telemetry`] handle is a cheaply clonable collector of hierarchical
//! timed [`Span`]s, monotonic counters, and value histograms. Every event is
//! aggregated in memory (surfaced as a [`TelemetrySummary`]) and streamed to
//! one pluggable [`Sink`]:
//!
//! - `NoopSink` — discard the stream (the default; disabled handles
//!   short-circuit before events are even constructed),
//! - `StderrSink` — human-readable lines, level-filtered via `REFIL_LOG`,
//! - [`JsonlSink`] — one JSON event per line, for offline analysis,
//! - [`ChromeTraceSink`] — Chrome trace-event JSON (open in Perfetto or
//!   `chrome://tracing`), one track per worker,
//! - [`PrometheusSink`] — a Prometheus-style text exposition snapshot,
//! - [`TeeSink`] — fan one stream out to several of the above.
//!
//! ```
//! use refil_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::collecting(); // aggregate only, no stream
//! {
//!     let _run = telemetry.span("run");
//!     let _task = telemetry.span("task:0");
//!     telemetry.counter("traffic.up_bytes", 64);
//!     telemetry.observe("client.duration_s", 0.25);
//! }
//! let summary = telemetry.summary();
//! assert_eq!(summary.counter("traffic.up_bytes"), 64);
//! assert_eq!(summary.spans["task:0"].count, 1);
//! ```
//!
//! # Profiling layer
//!
//! On top of the span/counter stream sits a round-structured profiling
//! layer: [`Timeline`] hands out per-worker [`Lane`]s whose preallocated
//! event buffers record `(label, start, end)` ticks with no locking and no
//! allocation on the hot path, merged post-round into per-worker
//! busy/idle/steal accounting ([`PoolStats`]) and streamed as
//! [`TraceEvent::TimelineSpan`]s. The federated runner folds those, wire
//! bytes, and arena stats into one [`RoundReport`] per round.
//!
//! Telemetry never touches the training RNG streams, so enabling any sink
//! leaves run results bit-identical to a disabled run. A disabled handle
//! costs one branch per call — no locks, no clock reads, no allocation.

mod chrome;
mod event;
mod prometheus;
mod report;
mod sink;
mod summary;
mod timeline;

pub use chrome::ChromeTraceSink;
pub use event::{Level, TraceEvent};
pub use prometheus::PrometheusSink;
pub use report::{ArenaStats, PhaseNanos, PoolStats, RoundReport, SessionStat, WorkerStats};
pub use sink::{JsonlSink, Sink, TeeSink};
pub use summary::{HistogramSummary, SpanSummary, TelemetrySummary};
pub use timeline::{Lane, Timeline};

pub(crate) use sink::{NoopSink, StderrSink};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Default)]
struct State {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
    spans: BTreeMap<String, SpanSummary>,
}

struct Inner {
    sink: Box<dyn Sink>,
    /// Cached [`Sink::wants_events`]: when false (the [`NoopSink`] of
    /// [`Telemetry::collecting`]), event structs — and the path/name `String`
    /// clones they carry — are never constructed.
    stream: bool,
    /// Origin for every monotonic tick this collector hands out
    /// ([`Telemetry::now_ns`], timeline lanes, Chrome trace timestamps).
    epoch: Instant,
    state: Mutex<State>,
}

/// The currently open span path, maintained incrementally: one reused
/// `String` holding the `/`-joined path plus a stack of offsets marking
/// where each segment starts. Pushing a span appends to the buffer and
/// popping truncates it, so the hot path never re-joins (reallocates) the
/// full dotted path per span — the fix for the PR 1 span-path churn.
#[derive(Default)]
struct PathStack {
    path: String,
    /// `marks[i]` = `path.len()` before segment `i` (and its separator) was
    /// appended; truncating to `marks[i]` removes segments `i..`.
    marks: Vec<usize>,
}

impl PathStack {
    fn from_path(parent: &str) -> Self {
        let mut stack = PathStack::default();
        for seg in parent.split('/').filter(|s| !s.is_empty()) {
            stack.push(seg);
        }
        stack
    }

    fn push(&mut self, name: &str) {
        self.marks.push(self.path.len());
        if !self.path.is_empty() {
            self.path.push('/');
        }
        self.path.push_str(name);
    }

    fn depth(&self) -> usize {
        self.marks.len()
    }

    /// Truncates to `depth` open segments (tolerating out-of-order guard
    /// drops), then returns the innermost segment's start offset — or `None`
    /// when the stack is already shallower (unbalanced close).
    fn seek(&mut self, depth: usize) -> Option<usize> {
        while self.marks.len() > depth {
            let mark = self.marks.pop().expect("len checked");
            self.path.truncate(mark);
        }
        self.marks.last().copied()
    }

    /// Removes the innermost segment.
    fn pop(&mut self) {
        if let Some(mark) = self.marks.pop() {
            self.path.truncate(mark);
        }
    }

    /// The innermost segment (without its separator) given its start mark.
    fn leaf(&self, mark: usize) -> &str {
        let start = if mark == 0 { 0 } else { mark + 1 };
        &self.path[start..]
    }
}

/// Names of currently open spans, innermost last. Kept apart from the shared
/// aggregation state so concurrent workers can each own an independent stack
/// (see [`Telemetry::scoped`]) while still feeding one collector.
type SpanStack = Arc<Mutex<PathStack>>;

/// Collector handle threaded through the training loop.
///
/// Clones share the same collector *and* the same span stack, so a handle can
/// be stored both by the federated runner and by a strategy without
/// coordination. [`Telemetry::scoped`] instead forks an independent span
/// stack (rooted at an explicit parent path) over the same collector — the
/// form a worker thread needs so its spans neither race nor interleave with
/// other workers'. The default handle is disabled: every method is a
/// single-branch no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    stack: SpanStack,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A disabled handle: records nothing, streams nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle streaming to `sink` (and always aggregating).
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        let stream = sink.wants_events();
        Self {
            inner: Some(Arc::new(Inner {
                sink,
                stream,
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
            stack: SpanStack::default(),
        }
    }

    /// An enabled handle that aggregates a [`TelemetrySummary`] but streams
    /// nowhere.
    pub fn collecting() -> Self {
        Self::with_sink(Box::new(NoopSink))
    }

    /// An enabled handle streaming human-readable lines to stderr, with the
    /// level threshold taken from `REFIL_LOG`.
    pub fn stderr() -> Self {
        Self::with_sink(Box::new(StderrSink::from_env()))
    }

    /// An enabled handle streaming JSONL trace events to a file at `path`.
    pub fn jsonl(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::with_sink(Box::new(JsonlSink::create(path)?)))
    }

    /// An enabled handle writing a Chrome trace-event JSON file to `path` on
    /// flush — load it in Perfetto or `chrome://tracing` to see one track
    /// per worker.
    pub fn chrome(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::with_sink(Box::new(ChromeTraceSink::create(path)?)))
    }

    /// Whether events are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Monotonic nanoseconds since this collector was created, or 0 on a
    /// disabled handle. All timeline ticks and Chrome trace timestamps share
    /// this origin.
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => u64::try_from(inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    }

    pub(crate) fn epoch(&self) -> Option<Instant> {
        self.inner.as_ref().map(|inner| inner.epoch)
    }

    /// Forks a handle over the same collector whose spans open under
    /// `parent_path` (a `/`-joined span path such as `run/task:0/round:3`)
    /// on an *independent* span stack.
    ///
    /// Plain clones share one stack, which is right for a single thread of
    /// control but races when workers open spans concurrently. A scoped
    /// handle gives each worker its own stack, reparented under the round
    /// that dispatched it, so per-worker span trees stay well-formed while
    /// counters, histograms, and span aggregates still land in the shared
    /// summary.
    pub fn scoped(&self, parent_path: &str) -> Telemetry {
        Telemetry {
            inner: self.inner.clone(),
            stack: Arc::new(Mutex::new(PathStack::from_path(parent_path))),
        }
    }

    /// The `/`-joined path of the currently open spans on this handle's
    /// stack (empty when no span is open). Feed this to [`Telemetry::scoped`]
    /// to reparent worker handles under the caller's current span.
    pub fn current_path(&self) -> String {
        self.stack
            .lock()
            .expect("telemetry stack poisoned")
            .path
            .clone()
    }

    /// A per-pool timeline over this collector: hand one [`Lane`] to each
    /// worker, merge them post-round. Disabled handles yield a disabled
    /// timeline whose lanes record nothing.
    pub fn timeline(&self) -> Timeline {
        Timeline::new(self)
    }

    /// Streams one merged timeline slice. Called by [`Timeline::merge`] and
    /// by the runner for driver-track phase envelopes — never from a hot
    /// path. Also folds the slice into the span aggregates under its `kind:`
    /// prefix (e.g. every `client:<id>` slice aggregates as `client`).
    pub fn timeline_span(&self, track: u32, name: &str, start_ns: u64, dur_ns: u64) {
        let Some(inner) = &self.inner else { return };
        {
            let mut state = inner.state.lock().expect("telemetry state poisoned");
            let kind = name.split(':').next().unwrap_or(name);
            let span = match state.spans.get_mut(kind) {
                Some(span) => span,
                None => state.spans.entry(kind.to_string()).or_default(),
            };
            span.count += 1;
            span.total_ns += dur_ns;
        }
        if inner.stream {
            inner.sink.event(&TraceEvent::TimelineSpan {
                track,
                name: name.to_string(),
                start_ns,
                dur_ns,
            });
        }
    }

    /// Opens a timed span nested under the currently open spans. Close is
    /// automatic when the returned guard drops.
    #[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
    pub fn span(&self, name: &str) -> Span {
        if self.inner.is_none() {
            return Span { open: None };
        }
        let depth = {
            let mut stack = self.stack.lock().expect("telemetry stack poisoned");
            stack.push(name);
            if self.stream() {
                let path = stack.path.clone();
                self.sink_event(&TraceEvent::SpanStart { path });
            }
            stack.depth()
        };
        Span {
            open: Some(OpenSpan {
                telemetry: self.clone(),
                depth,
                start: Instant::now(),
            }),
        }
    }

    fn stream(&self) -> bool {
        self.inner.as_ref().is_some_and(|inner| inner.stream)
    }

    fn sink_event(&self, event: &TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.sink.event(event);
        }
    }

    /// Advances a monotonic counter by `delta`.
    pub fn counter(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let total = {
            let mut state = inner.state.lock().expect("telemetry state poisoned");
            // `get_mut` first: the entry API would allocate the key `String`
            // on every call, not just the first one per name.
            let slot = match state.counters.get_mut(name) {
                Some(slot) => slot,
                None => state.counters.entry(name.to_string()).or_insert(0),
            };
            *slot += delta;
            *slot
        };
        if inner.stream {
            inner.sink.event(&TraceEvent::Counter {
                name: name.to_string(),
                delta,
                total,
            });
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        {
            let mut state = inner.state.lock().expect("telemetry state poisoned");
            let slot = match state.histograms.get_mut(name) {
                Some(slot) => slot,
                None => state.histograms.entry(name.to_string()).or_default(),
            };
            slot.record(value);
        }
        if inner.stream {
            inner.sink.event(&TraceEvent::Observe {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Emits a log message at `level`.
    pub(crate) fn log(&self, level: Level, message: impl AsRef<str>) {
        let Some(inner) = &self.inner else { return };
        if inner.stream {
            inner.sink.event(&TraceEvent::Log {
                level,
                message: message.as_ref().to_string(),
            });
        }
    }

    /// Emits an [`Level::Info`] log message.
    pub fn info(&self, message: impl AsRef<str>) {
        self.log(Level::Info, message);
    }

    /// Emits a [`Level::Warn`] log message.
    pub fn warn(&self, message: impl AsRef<str>) {
        self.log(Level::Warn, message);
    }

    /// Snapshot of everything aggregated so far.
    pub fn summary(&self) -> TelemetrySummary {
        let Some(inner) = &self.inner else {
            return TelemetrySummary::default();
        };
        let state = inner.state.lock().expect("telemetry state poisoned");
        TelemetrySummary {
            counters: state.counters.clone(),
            histograms: state.histograms.clone(),
            spans: state.spans.clone(),
        }
    }

    /// Flushes the sink's buffered output, if any.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }

    fn close_span(&self, depth: usize, start: Instant) {
        let Some(inner) = &self.inner else { return };
        let duration_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let path = {
            let mut stack = self.stack.lock().expect("telemetry stack poisoned");
            // Tolerate out-of-order guard drops: truncate to this span's depth.
            let Some(mark) = stack.seek(depth) else {
                return; // unbalanced close; nothing sensible to report
            };
            {
                let name = stack.leaf(mark);
                let mut state = inner.state.lock().expect("telemetry state poisoned");
                let span = match state.spans.get_mut(name) {
                    Some(span) => span,
                    None => state.spans.entry(name.to_string()).or_default(),
                };
                span.count += 1;
                span.total_ns += duration_ns;
            }
            let path = if inner.stream {
                Some(stack.path.clone())
            } else {
                None
            };
            stack.pop();
            path
        };
        if let Some(path) = path {
            inner.sink.event(&TraceEvent::SpanEnd { path, duration_ns });
        }
    }
}

/// Live part of a [`Span`] guard; absent entirely on disabled handles, so a
/// disabled span costs one branch and no allocation, clock read, or
/// refcount traffic.
struct OpenSpan {
    telemetry: Telemetry,
    depth: usize,
    start: Instant,
}

/// RAII guard for an open span; closes (and times) the span on drop.
pub struct Span {
    open: Option<OpenSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            open.telemetry.close_span(open.depth, open.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let _span = t.span("run");
        t.counter("c", 5);
        t.observe("h", 1.0);
        t.info("ignored");
        assert_eq!(t.now_ns(), 0);
        assert!(t.summary().is_empty());
    }

    #[test]
    fn counters_accumulate_monotonically() {
        let t = Telemetry::collecting();
        t.counter("bytes", 10);
        t.counter("bytes", 32);
        t.counter("other", 1);
        let s = t.summary();
        assert_eq!(s.counter("bytes"), 42);
        assert_eq!(s.counter("other"), 1);
    }

    #[test]
    fn span_nesting_builds_slash_paths() {
        struct Capture(Mutex<Vec<TraceEvent>>);
        impl Sink for Capture {
            fn event(&self, event: &TraceEvent) {
                self.0.lock().unwrap().push(event.clone());
            }
        }
        let sink = Arc::new(Capture(Mutex::new(Vec::new())));
        struct Fwd(Arc<Capture>);
        impl Sink for Fwd {
            fn event(&self, event: &TraceEvent) {
                self.0.event(event);
            }
        }
        let t = Telemetry::with_sink(Box::new(Fwd(sink.clone())));
        {
            let _run = t.span("run");
            {
                let _task = t.span("task:0");
                let _round = t.span("round:1");
            }
            let _task2 = t.span("task:1");
        }
        let events = sink.0.lock().unwrap().clone();
        let paths: Vec<String> = events
            .iter()
            .map(|e| match e {
                TraceEvent::SpanStart { path } => format!("+{path}"),
                TraceEvent::SpanEnd { path, .. } => format!("-{path}"),
                _ => unreachable!("only span events emitted"),
            })
            .collect();
        assert_eq!(
            paths,
            vec![
                "+run",
                "+run/task:0",
                "+run/task:0/round:1",
                "-run/task:0/round:1",
                "-run/task:0",
                "+run/task:1",
                "-run/task:1",
                "-run",
            ]
        );
    }

    #[test]
    fn span_durations_are_monotone_with_nesting() {
        let t = Telemetry::collecting();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let s = t.summary();
        assert_eq!(s.spans["outer"].count, 1);
        assert_eq!(s.spans["inner"].count, 1);
        // The outer span was open for at least as long as the inner one.
        assert!(s.spans["outer"].total_ns >= s.spans["inner"].total_ns);
        assert!(s.spans["inner"].total_ns > 0);
    }

    #[test]
    fn summary_snapshot_is_independent_of_later_events() {
        let t = Telemetry::collecting();
        t.counter("c", 1);
        let snap = t.summary();
        t.counter("c", 1);
        assert_eq!(snap.counter("c"), 1);
        assert_eq!(t.summary().counter("c"), 2);
    }

    #[test]
    fn clones_share_one_collector() {
        let a = Telemetry::collecting();
        let b = a.clone();
        a.counter("shared", 1);
        b.counter("shared", 2);
        assert_eq!(a.summary().counter("shared"), 3);
    }

    #[test]
    fn current_path_tracks_open_spans() {
        let t = Telemetry::collecting();
        assert_eq!(t.current_path(), "");
        let _run = t.span("run");
        let _round = t.span("round:2");
        assert_eq!(t.current_path(), "run/round:2");
    }

    #[test]
    fn path_stack_reuses_one_buffer() {
        let mut stack = PathStack::from_path("run/task:0");
        assert_eq!(stack.path, "run/task:0");
        assert_eq!(stack.depth(), 2);
        stack.push("round:1");
        assert_eq!(stack.path, "run/task:0/round:1");
        let cap = stack.path.capacity();
        // Pops truncate in place; re-pushing a same-length segment must not
        // grow the buffer.
        stack.pop();
        stack.push("round:2");
        assert_eq!(stack.path, "run/task:0/round:2");
        assert_eq!(stack.path.capacity(), cap, "path buffer must be reused");
        let mark = stack.seek(3).unwrap();
        assert_eq!(stack.leaf(mark), "round:2");
        let mark = stack.seek(1).unwrap();
        assert_eq!(stack.leaf(mark), "run");
        assert_eq!(stack.path, "run");
    }

    #[test]
    fn scoped_handle_reparents_spans_under_parent_path() {
        struct Capture(Mutex<Vec<TraceEvent>>);
        impl Sink for Capture {
            fn event(&self, event: &TraceEvent) {
                self.0.lock().unwrap().push(event.clone());
            }
        }
        let sink = Arc::new(Capture(Mutex::new(Vec::new())));
        struct Fwd(Arc<Capture>);
        impl Sink for Fwd {
            fn event(&self, event: &TraceEvent) {
                self.0.event(event);
            }
        }
        let t = Telemetry::with_sink(Box::new(Fwd(sink.clone())));
        {
            let _run = t.span("run");
            let _round = t.span("round:0");
            let worker = t.scoped(&t.current_path());
            let _client = worker.span("client:3");
        }
        let events = sink.0.lock().unwrap().clone();
        let client_paths: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SpanStart { path } if path.contains("client") => Some(path.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(client_paths, vec!["run/round:0/client:3"]);
        // The worker's span close must not have disturbed the parent stack.
        assert_eq!(t.summary().spans["client:3"].count, 1);
    }

    #[test]
    fn scoped_handles_aggregate_concurrently_without_interleaving() {
        let t = Telemetry::collecting();
        let _run = t.span("run");
        let parent = t.current_path();
        std::thread::scope(|s| {
            for w in 0..4 {
                let worker = t.scoped(&parent);
                s.spawn(move || {
                    for _ in 0..8 {
                        let _span = worker.span(&format!("client:{w}"));
                        worker.counter("sessions", 1);
                    }
                });
            }
        });
        let summary = t.summary();
        assert_eq!(summary.counter("sessions"), 32);
        for w in 0..4 {
            assert_eq!(summary.spans[&format!("client:{w}")].count, 8);
        }
    }

    #[test]
    fn timeline_span_aggregates_under_kind_prefix() {
        let t = Telemetry::collecting();
        t.timeline_span(1, "client:3", 100, 50);
        t.timeline_span(2, "client:7", 120, 30);
        t.timeline_span(0, "fedavg", 200, 10);
        let s = t.summary();
        assert_eq!(s.spans["client"].count, 2);
        assert_eq!(s.spans["client"].total_ns, 80);
        assert_eq!(s.spans["fedavg"].count, 1);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let t = Telemetry::collecting();
        let a = t.now_ns();
        let b = t.now_ns();
        assert!(b >= a);
    }
}
