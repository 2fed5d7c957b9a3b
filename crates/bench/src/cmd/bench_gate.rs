//! `refil-bench bench_gate`: regression gate over `BENCH_*.json` reports.
//!
//! Two modes:
//!
//! ```text
//! refil-bench bench_gate --check FILE...         # schema-validate reports
//! refil-bench bench_gate BASELINE CANDIDATE [--tolerance PCT] [--force]
//! ```
//!
//! The diff mode compares every shared `*_ns` median plus every shared
//! ratio key (`speedup`, `*_speedup`, `*_ratio` — e.g.
//! `nn/gelu_exact`) and exits 1 if any candidate median is
//! more than `--tolerance` percent (default 10) slower than its baseline,
//! or any candidate ratio has *dropped* by more than the same tolerance.
//! Reports from different hosts or thread budgets are refused (exit 2)
//! unless `--force` is given. `--check` validates each file parses,
//! carries a complete `meta` header, and holds at least one positive
//! metric — the per-PR CI guard that committed BENCH files stay
//! machine-readable.

use std::process::ExitCode;

use refil_bench::gate::{check_report, compare, MetricKind};

use crate::Args;

/// Usage text of `refil-bench bench_gate`.
pub(crate) const USAGE: &str = "usage:
  refil-bench bench_gate --check FILE...
  refil-bench bench_gate BASELINE CANDIDATE [--tolerance PCT] [--force]";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run_check(files: &[String]) -> ExitCode {
    let mut ok = true;
    for path in files {
        match read(path).and_then(|text| check_report(path, &text).map_err(|e| e.to_string())) {
            Ok(n) => println!("{path}: ok ({n} metrics)"),
            Err(e) => {
                eprintln!("{path}: FAIL — {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn run_diff(baseline: &str, candidate: &str, tolerance_pct: f64, force: bool) -> ExitCode {
    let (base_text, cand_text) = match (read(baseline), read(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };
    let cmp = match compare(&base_text, &cand_text, tolerance_pct / 100.0, force) {
        Ok(cmp) => cmp,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<56} {:>12} {:>12} {:>8}",
        "metric", "baseline", "candidate", "delta"
    );
    for d in &cmp.deltas {
        // Time metrics print raw nanoseconds; ratios print as `1.234x`.
        // `delta` is always "positive = worse" regardless of kind.
        let (baseline, candidate) = match d.kind {
            MetricKind::TimeNs => (
                format!("{}", d.baseline as u64),
                format!("{}", d.candidate as u64),
            ),
            MetricKind::Ratio => (
                format!("{:.3}x", d.baseline),
                format!("{:.3}x", d.candidate),
            ),
        };
        println!(
            "{:<56} {:>12} {:>12} {:>+7.1}%{}",
            d.name,
            baseline,
            candidate,
            d.delta * 100.0,
            if d.regressed { "  << REGRESSION" } else { "" }
        );
    }
    for name in &cmp.unmatched {
        println!("{name} (only in one report)");
    }
    let regressions = cmp.regressions().count();
    if regressions > 0 {
        eprintln!(
            "bench_gate: {regressions} metric(s) regressed beyond {tolerance_pct:.1}% tolerance"
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench_gate: {} metric(s) within {tolerance_pct:.1}% tolerance",
            cmp.deltas.len()
        );
        ExitCode::SUCCESS
    }
}

/// Entry point of `refil-bench bench_gate`.
pub(crate) fn main(mut args: Args) -> ExitCode {
    let mut positional = Vec::new();
    let mut check = false;
    let mut tolerance_pct = 10.0_f64;
    let mut force = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--tolerance" => tolerance_pct = args.num(),
            "--force" => force = true,
            flag if flag.starts_with("--") => args.fail(format!("unknown flag {flag}")),
            _ => positional.push(arg),
        }
    }
    match (check, &positional[..]) {
        (true, [_, ..]) => run_check(&positional),
        (false, [baseline, candidate]) => run_diff(baseline, candidate, tolerance_pct, force),
        _ => args.usage(),
    }
}
