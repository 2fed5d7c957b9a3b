//! In-memory aggregation of the event stream, surfaced on run results.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Aggregate of one histogram's observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Default for HistogramSummary {
    fn default() -> Self {
        Self {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl HistogramSummary {
    /// Folds one observation into the aggregate.
    pub(crate) fn record(&mut self, value: f64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
    }
}

/// Aggregate of all closings of spans sharing one name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanSummary {
    /// Number of times a span with this name closed.
    pub count: u64,
    /// Total nanoseconds spent across all closings.
    pub total_ns: u64,
}

/// Aggregated view of everything the collector saw, keyed by name.
///
/// Maps are `BTreeMap` so serialized summaries are deterministic. Span
/// durations aggregate under the span *name* (e.g. all `round` spans
/// together), not the full path — path-level detail lives in the trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Final totals of every monotonic counter.
    pub counters: BTreeMap<String, u64>,
    /// Aggregates of every histogram.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Count and total duration per span name.
    pub spans: BTreeMap<String, SpanSummary>,
}

impl TelemetrySummary {
    /// True when nothing was recorded (e.g. telemetry was disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// Final total of a counter, or 0 if it never moved.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters whose name starts with `prefix`, in name order — e.g.
    /// `counters_with_prefix("wire.")` yields the per-message-kind byte
    /// counters the federated runner records.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(name, _)| name.starts_with(prefix))
            .map(|(name, total)| (name.as_str(), *total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = HistogramSummary::default();
        for v in [2.0, -1.0, 5.0, 2.0] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.min, -1.0);
        assert_eq!(h.max, 5.0);
        assert_eq!(h.sum / h.count as f64, 2.0);
    }

    #[test]
    fn prefix_query_returns_exactly_the_matching_counters() {
        let mut summary = TelemetrySummary::default();
        summary
            .counters
            .insert("wire.model_broadcast_bytes".into(), 64);
        summary
            .counters
            .insert("wire.prompt_upload_bytes".into(), 32);
        summary.counters.insert("traffic.up_bytes".into(), 96);
        summary.counters.insert("wirex".into(), 1);
        let wire: Vec<(&str, u64)> = summary.counters_with_prefix("wire.").collect();
        assert_eq!(
            wire,
            vec![
                ("wire.model_broadcast_bytes", 64),
                ("wire.prompt_upload_bytes", 32),
            ]
        );
        assert_eq!(summary.counters_with_prefix("absent.").count(), 0);
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let mut summary = TelemetrySummary::default();
        summary.counters.insert("traffic.up_bytes".into(), 128);
        summary
            .histograms
            .entry("client.duration_s".into())
            .or_default()
            .record(0.5);
        summary.spans.insert(
            "round".into(),
            SpanSummary {
                count: 3,
                total_ns: 900,
            },
        );
        let json = serde_json::to_string(&summary).expect("serialize");
        let back: TelemetrySummary = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, summary);
        assert_eq!(back.counter("traffic.up_bytes"), 128);
        assert_eq!(back.counter("missing"), 0);
        assert!(!back.is_empty());
    }
}
