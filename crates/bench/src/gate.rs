//! The bench regression gate: diffs two `BENCH_*.json` reports and fails on
//! median regressions beyond a tolerance.
//!
//! Reports are treated generically: any object carrying a `name` (plus
//! optional `shape` / `threads` discriminators) contributes one metric per
//! `*_ns` field and one per ratio field (`speedup`, `*_speedup`,
//! `*_ratio`), so `BENCH_kernels.json` kernel rows and its `speedups` rows
//! (e.g. `nn/gelu_exact`), and the `BENCH_net.json` rows, all gate
//! without format-specific code. Time
//! metrics regress when the candidate gets *slower*; ratio metrics regress
//! when the candidate ratio *drops* — a shrinking speedup fails the gate
//! even if every raw median held steady. Comparability is enforced through
//! the [`BenchMeta`] header — same hostname and thread budget — unless the
//! caller forces the diff.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::meta::BenchMeta;

/// Why a gate run could not produce a verdict (exit code 2 in the bin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// A report failed to parse or failed schema validation.
    Invalid(String),
    /// Both reports are valid but were produced in incomparable
    /// environments (different host or thread budget).
    Incomparable(String),
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Invalid(msg) => write!(f, "invalid report: {msg}"),
            GateError::Incomparable(msg) => write!(f, "incomparable reports: {msg}"),
        }
    }
}

impl std::error::Error for GateError {}

/// What a gated metric measures, which fixes its direction of regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A `*_ns` median — bigger is worse.
    TimeNs,
    /// A `speedup` / `*_speedup` / `*_ratio` field — smaller is worse.
    Ratio,
}

/// One metric's before/after in a gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric key, e.g. `nn/gemm/tiled@128x128x128/median_ns` or
    /// `nn/gelu_exact/speedup`.
    pub name: String,
    /// Whether this is a time median or a ratio.
    pub kind: MetricKind,
    /// Baseline value (nanoseconds for [`MetricKind::TimeNs`], a unitless
    /// ratio for [`MetricKind::Ratio`]).
    pub baseline: f64,
    /// Candidate value, same units as `baseline`.
    pub candidate: f64,
    /// Signed relative worsening, positive = regression: relative slowdown
    /// for time metrics, relative ratio loss for ratio metrics.
    pub delta: f64,
    /// True when `delta` exceeds the tolerance.
    pub regressed: bool,
}

/// Outcome of diffing two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-metric deltas for every key present in both reports, name order.
    pub deltas: Vec<MetricDelta>,
    /// Metric keys present in only one of the reports (renames, new/removed
    /// benches) — reported, never fatal.
    pub unmatched: Vec<String>,
}

impl Comparison {
    /// All metrics whose slowdown exceeded the tolerance.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed)
    }
}

fn parse(label: &str, text: &str) -> Result<Value, GateError> {
    serde_json::parse_value(text).map_err(|e| GateError::Invalid(format!("{label}: {e}")))
}

fn meta_of(label: &str, doc: &Value) -> Result<BenchMeta, GateError> {
    let meta = doc
        .get("meta")
        .ok_or_else(|| GateError::Invalid(format!("{label}: missing `meta` header")))?;
    let field = |key: &str| -> Result<String, GateError> {
        meta.get(key)
            .and_then(Value::as_str)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .ok_or_else(|| GateError::Invalid(format!("{label}: meta.{key} missing or empty")))
    };
    let threads = meta
        .get("threads")
        .and_then(Value::as_u64)
        .filter(|&t| t > 0)
        .ok_or_else(|| GateError::Invalid(format!("{label}: meta.threads missing or zero")))?;
    Ok(BenchMeta {
        git_sha: field("git_sha")?,
        hostname: field("hostname")?,
        threads: threads as usize,
    })
}

/// Extracts every `<identity>/<field ending in _ns>` metric from a report.
///
/// Identity is the object's `name`, refined by a `shape` or `threads` field
/// when present, so kernel rows at different shapes and end-to-end rows at
/// different thread counts stay distinct.
pub fn extract_metrics(doc: &Value) -> BTreeMap<String, u64> {
    let mut metrics = BTreeMap::new();
    let mut ratios = BTreeMap::new();
    walk(doc, &mut metrics, &mut ratios);
    metrics
}

/// Extracts every `<identity>/<ratio field>` metric from a report, where a
/// ratio field is named `speedup` or ends in `_speedup` / `_ratio`. These
/// gate in the opposite direction from `*_ns` medians: a *drop* in the
/// candidate ratio is the regression.
pub fn extract_ratios(doc: &Value) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    let mut ratios = BTreeMap::new();
    walk(doc, &mut metrics, &mut ratios);
    ratios
}

fn is_ratio_key(key: &str) -> bool {
    key == "speedup" || key.ends_with("_speedup") || key.ends_with("_ratio")
}

fn walk(v: &Value, metrics: &mut BTreeMap<String, u64>, ratios: &mut BTreeMap<String, f64>) {
    match v {
        Value::Seq(items) => {
            for item in items {
                walk(item, metrics, ratios);
            }
        }
        Value::Map(entries) => {
            let name = v.get("name").and_then(Value::as_str);
            if let Some(name) = name {
                let mut identity = name.to_string();
                if let Some(shape) = v.get("shape").and_then(Value::as_str) {
                    identity.push('@');
                    identity.push_str(shape);
                }
                if let Some(threads) = v.get("threads").and_then(Value::as_u64) {
                    identity.push_str(&format!("@threads={threads}"));
                }
                for (key, val) in entries {
                    if key.ends_with("_ns") {
                        if let Some(ns) = val.as_u64() {
                            metrics.insert(format!("{identity}/{key}"), ns);
                        }
                    } else if is_ratio_key(key) {
                        if let Some(r) = val.as_f64() {
                            ratios.insert(format!("{identity}/{key}"), r);
                        }
                    }
                }
            }
            for (key, val) in entries {
                if key != "meta" {
                    walk(val, metrics, ratios);
                }
            }
        }
        _ => {}
    }
}

/// Validates one report for gating: parses, carries a complete [`BenchMeta`]
/// header, and yields at least one strictly positive `*_ns` metric. Ratio
/// metrics, when present, must be finite and strictly positive; they count
/// toward the returned metric total.
pub fn check_report(label: &str, text: &str) -> Result<usize, GateError> {
    let doc = parse(label, text)?;
    meta_of(label, &doc)?;
    let metrics = extract_metrics(&doc);
    if metrics.is_empty() {
        return Err(GateError::Invalid(format!(
            "{label}: no *_ns metrics found"
        )));
    }
    for (name, ns) in &metrics {
        if *ns == 0 {
            return Err(GateError::Invalid(format!(
                "{label}: metric {name} is zero"
            )));
        }
    }
    let ratios = extract_ratios(&doc);
    for (name, r) in &ratios {
        if !r.is_finite() || *r <= 0.0 {
            return Err(GateError::Invalid(format!(
                "{label}: ratio metric {name} is not a finite positive number"
            )));
        }
    }
    Ok(metrics.len() + ratios.len())
}

/// Diffs `candidate` against `baseline`. `tolerance` is the allowed relative
/// slowdown (0.10 = +10 %); `force` skips the same-environment check.
pub fn compare(
    baseline_text: &str,
    candidate_text: &str,
    tolerance: f64,
    force: bool,
) -> Result<Comparison, GateError> {
    let baseline = parse("baseline", baseline_text)?;
    let candidate = parse("candidate", candidate_text)?;
    let base_meta = meta_of("baseline", &baseline)?;
    let cand_meta = meta_of("candidate", &candidate)?;
    if !force && !base_meta.comparable_to(&cand_meta) {
        return Err(GateError::Incomparable(format!(
            "baseline from {}@{} threads vs candidate from {}@{} threads (use --force to \
             compare anyway)",
            base_meta.hostname, base_meta.threads, cand_meta.hostname, cand_meta.threads
        )));
    }
    let base = extract_metrics(&baseline);
    let cand = extract_metrics(&candidate);
    if base.is_empty() || cand.is_empty() {
        return Err(GateError::Invalid("a report contains no metrics".into()));
    }
    let mut deltas = Vec::new();
    let mut unmatched = Vec::new();
    for (name, &b) in &base {
        match cand.get(name) {
            Some(&c) => {
                let delta = if b == 0 {
                    0.0
                } else {
                    (c as f64 - b as f64) / b as f64
                };
                deltas.push(MetricDelta {
                    name: name.clone(),
                    kind: MetricKind::TimeNs,
                    baseline: b as f64,
                    candidate: c as f64,
                    delta,
                    regressed: delta > tolerance,
                });
            }
            None => unmatched.push(format!("-{name}")),
        }
    }
    for name in cand.keys() {
        if !base.contains_key(name) {
            unmatched.push(format!("+{name}"));
        }
    }
    let base_ratios = extract_ratios(&baseline);
    let cand_ratios = extract_ratios(&candidate);
    for (name, &b) in &base_ratios {
        match cand_ratios.get(name) {
            Some(&c) => {
                // Ratios regress downward: the delta is the relative loss of
                // speedup, so the same `delta > tolerance` test applies.
                let delta = if b == 0.0 { 0.0 } else { (b - c) / b };
                deltas.push(MetricDelta {
                    name: name.clone(),
                    kind: MetricKind::Ratio,
                    baseline: b,
                    candidate: c,
                    delta,
                    regressed: delta > tolerance,
                });
            }
            None => unmatched.push(format!("-{name}")),
        }
    }
    for name in cand_ratios.keys() {
        if !base_ratios.contains_key(name) {
            unmatched.push(format!("+{name}"));
        }
    }
    deltas.sort_by(|a, b| a.name.cmp(&b.name));
    unmatched.sort();
    Ok(Comparison { deltas, unmatched })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(host: &str, threads: usize, medians: &[(&str, u64)]) -> String {
        let records: Vec<String> = medians
            .iter()
            .map(|(name, ns)| format!("{{\"name\":\"{name}\",\"median_ns\":{ns}}}"))
            .collect();
        format!(
            "{{\"meta\":{{\"git_sha\":\"abc\",\"hostname\":\"{host}\",\"threads\":{threads}}},\
             \"records\":[{}]}}",
            records.join(",")
        )
    }

    #[test]
    fn identical_reports_pass_at_zero_tolerance() {
        let r = report("h", 4, &[("a", 100), ("b", 200)]);
        let cmp = compare(&r, &r, 0.0, false).expect("comparable");
        assert_eq!(cmp.deltas.len(), 2);
        assert_eq!(cmp.regressions().count(), 0);
        assert!(cmp.unmatched.is_empty());
    }

    #[test]
    fn twenty_percent_regression_trips_ten_percent_tolerance() {
        let base = report("h", 4, &[("a", 100), ("b", 200)]);
        let cand = report("h", 4, &[("a", 120), ("b", 205)]);
        let cmp = compare(&base, &cand, 0.10, false).expect("comparable");
        let regressed: Vec<&str> = cmp.regressions().map(|d| d.name.as_str()).collect();
        assert_eq!(regressed, vec!["a/median_ns"]);
        let a = &cmp.deltas[0];
        assert!((a.delta - 0.20).abs() < 1e-9);
    }

    #[test]
    fn improvements_never_regress() {
        let base = report("h", 4, &[("a", 100)]);
        let cand = report("h", 4, &[("a", 50)]);
        let cmp = compare(&base, &cand, 0.0, false).expect("comparable");
        assert_eq!(cmp.regressions().count(), 0);
        assert!(cmp.deltas[0].delta < 0.0);
    }

    #[test]
    fn host_mismatch_is_incomparable_unless_forced() {
        let base = report("h1", 4, &[("a", 100)]);
        let cand = report("h2", 4, &[("a", 100)]);
        assert!(matches!(
            compare(&base, &cand, 0.1, false),
            Err(GateError::Incomparable(_))
        ));
        assert!(compare(&base, &cand, 0.1, true).is_ok());
    }

    #[test]
    fn renamed_metrics_are_reported_not_fatal() {
        let base = report("h", 4, &[("old", 100), ("same", 50)]);
        let cand = report("h", 4, &[("new", 100), ("same", 50)]);
        let cmp = compare(&base, &cand, 0.1, false).expect("comparable");
        assert_eq!(cmp.deltas.len(), 1);
        // `unmatched` is reported in sorted order.
        assert_eq!(
            cmp.unmatched,
            vec!["+new/median_ns".to_string(), "-old/median_ns".to_string()]
        );
    }

    #[test]
    fn check_rejects_missing_meta_zero_metrics_and_garbage() {
        assert!(matches!(
            check_report("x", "not json"),
            Err(GateError::Invalid(_))
        ));
        assert!(matches!(
            check_report("x", "{\"records\":[{\"name\":\"a\",\"median_ns\":1}]}"),
            Err(GateError::Invalid(_))
        ));
        let zero = report("h", 4, &[("a", 0)]);
        assert!(matches!(
            check_report("x", &zero),
            Err(GateError::Invalid(_))
        ));
        let ok = report("h", 4, &[("a", 10)]);
        assert_eq!(check_report("x", &ok).expect("valid"), 1);
    }

    fn ratio_report(host: &str, pairs: &[(&str, u64, f64)]) -> String {
        let records: Vec<String> = pairs
            .iter()
            .map(|(name, ns, sp)| {
                format!("{{\"name\":\"{name}\",\"median_ns\":{ns},\"speedup\":{sp}}}")
            })
            .collect();
        format!(
            "{{\"meta\":{{\"git_sha\":\"abc\",\"hostname\":\"{host}\",\"threads\":1}},\
             \"records\":[{}]}}",
            records.join(",")
        )
    }

    #[test]
    fn ratio_drop_beyond_tolerance_regresses() {
        let base = ratio_report("h", &[("par_vs_ser", 100, 2.0)]);
        let cand = ratio_report("h", &[("par_vs_ser", 100, 1.6)]);
        let cmp = compare(&base, &cand, 0.10, false).expect("comparable");
        let regressed: Vec<&str> = cmp.regressions().map(|d| d.name.as_str()).collect();
        assert_eq!(regressed, vec!["par_vs_ser/speedup"]);
        let d = cmp
            .deltas
            .iter()
            .find(|d| d.kind == MetricKind::Ratio)
            .expect("ratio delta");
        assert!((d.delta - 0.20).abs() < 1e-9, "2.0 -> 1.6 is a 20% loss");
    }

    #[test]
    fn ratio_gain_never_regresses_even_at_zero_tolerance() {
        let base = ratio_report("h", &[("par_vs_ser", 100, 1.5)]);
        let cand = ratio_report("h", &[("par_vs_ser", 100, 2.5)]);
        let cmp = compare(&base, &cand, 0.0, false).expect("comparable");
        assert_eq!(cmp.regressions().count(), 0);
        assert_eq!(cmp.deltas.len(), 2, "one ns metric + one ratio metric");
    }

    #[test]
    fn check_counts_ratios_and_rejects_nonpositive_ones() {
        let ok = ratio_report("h", &[("a", 10, 1.5)]);
        assert_eq!(check_report("x", &ok).expect("valid"), 2);
        let bad = ratio_report("h", &[("a", 10, 0.0)]);
        assert!(matches!(
            check_report("x", &bad),
            Err(GateError::Invalid(_))
        ));
    }

    #[test]
    fn ratio_keys_match_speedup_and_suffixes_only() {
        assert!(is_ratio_key("speedup"));
        assert!(is_ratio_key("fill_speedup"));
        assert!(is_ratio_key("hit_ratio"));
        assert!(!is_ratio_key("speedup_note"));
        assert!(!is_ratio_key("median_ns"));
    }

    #[test]
    fn kernel_shapes_and_end_to_end_threads_stay_distinct() {
        let text = "{\"meta\":{\"git_sha\":\"a\",\"hostname\":\"h\",\"threads\":4},\
            \"kernels\":[\
              {\"name\":\"gemm/tiled\",\"shape\":\"64x64x64\",\"median_ns\":10},\
              {\"name\":\"gemm/tiled\",\"shape\":\"128x128x128\",\"median_ns\":80}],\
            \"end_to_end\":[\
              {\"name\":\"round\",\"threads\":1,\"naive_median_ns\":100,\"tiled_median_ns\":50},\
              {\"name\":\"round\",\"threads\":4,\"naive_median_ns\":60,\"tiled_median_ns\":30}]}";
        let doc = serde_json::parse_value(text).expect("json");
        let metrics = extract_metrics(&doc);
        assert_eq!(metrics["gemm/tiled@64x64x64/median_ns"], 10);
        assert_eq!(metrics["gemm/tiled@128x128x128/median_ns"], 80);
        assert_eq!(metrics["round@threads=1/naive_median_ns"], 100);
        assert_eq!(metrics["round@threads=4/tiled_median_ns"], 30);
        assert_eq!(metrics.len(), 6);
    }
}
