//! Shared experiment execution with on-disk caching.
//!
//! Tables 1/3 (and 2/4) are different views of the same runs, and Figure 4
//! reuses them as well, so completed runs are cached as JSON under
//! `results/` keyed by domain order and scale. The key does not cover the
//! code, so the cache is kept out of git: delete it after any change that
//! can move a result, or it reprints the old numbers.

use std::fs;

use serde::{Deserialize, Serialize};

use refil_eval::Scores;
use refil_fed::RunResult;

use crate::datasets::{DatasetChoice, Scale};
use crate::report::results_dir;
use crate::runner::{run_all_methods, ExperimentSpec, MethodResult};

/// Serializable snapshot of one method's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CachedMethod {
    /// Paper row label.
    pub name: String,
    /// Raw run output.
    pub result: RunResult,
    /// Summary scores.
    pub scores: Scores,
}

impl From<MethodResult> for CachedMethod {
    fn from(m: MethodResult) -> Self {
        Self {
            name: m.name,
            result: m.result,
            scores: m.scores,
        }
    }
}

/// All methods on all four datasets, one domain order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FullResults {
    /// `(dataset name, per-method results)` in the paper's dataset order.
    pub datasets: Vec<(String, Vec<CachedMethod>)>,
}

fn scale_tag() -> String {
    std::env::var("REFIL_SCALE").unwrap_or_else(|_| "bench".into())
}

fn cache_path(new_order: bool) -> std::path::PathBuf {
    let order = if new_order { "new" } else { "canonical" };
    results_dir().join(format!("cache_{order}_{}.json", scale_tag()))
}

/// Runs (or loads from cache) all eight methods on all four datasets.
///
/// Delete `results/cache_*.json` to force recomputation.
pub fn full_results(new_order: bool) -> FullResults {
    let path = cache_path(new_order);
    if let Ok(bytes) = fs::read(&path) {
        if let Ok(cached) = serde_json::from_slice::<FullResults>(&bytes) {
            eprintln!("[refil-bench] loaded cached runs from {}", path.display());
            return cached;
        }
    }
    let mut datasets = Vec::new();
    for ds in DatasetChoice::all() {
        let spec = ExperimentSpec {
            dataset: ds,
            scale: Scale::from_env(),
            new_order,
            seed: 42,
        };
        let results = run_all_methods(&spec);
        datasets.push((
            ds.name().to_string(),
            results.into_iter().map(CachedMethod::from).collect(),
        ));
    }
    let full = FullResults { datasets };
    match serde_json::to_vec(&full) {
        Ok(bytes) => {
            if let Err(e) = fs::write(&path, bytes) {
                eprintln!("[refil-bench] could not cache runs: {e}");
            }
        }
        Err(e) => eprintln!("[refil-bench] could not serialize runs: {e}"),
    }
    full
}

/// The summary table of the paper's Table 1 / Table 2: per dataset, each
/// method's Avg/Last with the Δ columns relative to RefFiL.
pub fn summary_table(full: &FullResults) -> refil_eval::Table {
    use refil_eval::{pct, signed, Table};
    let mut header = vec!["Methods".to_string()];
    for (name, _) in &full.datasets {
        header.push(format!("{name} Avg"));
        header.push("Δ".into());
        header.push(format!("{name} Last"));
        header.push("Δ".into());
    }
    let mut table = Table::new(header);
    let n_methods = full.datasets[0].1.len();
    for mi in 0..n_methods {
        let mut row = vec![full.datasets[0].1[mi].name.clone()];
        for (_, methods) in &full.datasets {
            let reffil = methods.last().expect("RefFiL row last");
            let m = &methods[mi];
            row.push(pct(m.scores.avg));
            row.push(if m.name == reffil.name {
                "-".into()
            } else {
                signed(refil_eval::delta(reffil.scores.avg, m.scores.avg))
            });
            row.push(pct(m.scores.last));
            row.push(if m.name == reffil.name {
                "-".into()
            } else {
                signed(refil_eval::delta(reffil.scores.last, m.scores.last))
            });
        }
        table.row(row);
    }
    table
}

/// The per-step tables of the paper's Table 3 / Table 4: one table per
/// dataset; the column labelled with domain `d` holds the step accuracy
/// after the task that introduced `d`.
pub fn per_step_tables(full: &FullResults) -> Vec<(String, refil_eval::Table)> {
    use refil_eval::{pct, step_accuracies, Table};
    full.datasets
        .iter()
        .map(|(name, methods)| {
            let domains = &methods[0].result.domain_names;
            let mut header = vec!["Methods".to_string()];
            header.extend(domains.iter().cloned());
            header.push("Avg".into());
            let mut table = Table::new(header);
            for m in methods {
                let steps = step_accuracies(&m.result.domain_acc);
                let mut row = vec![m.name.clone()];
                row.extend(steps.iter().map(|&s| pct(s)));
                row.push(pct(m.scores.avg));
                table.row(row);
            }
            (name.clone(), table)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use refil_fed::TrafficStats;

    fn fake_full() -> FullResults {
        let mk = |name: &str, acc: Vec<Vec<f32>>| CachedMethod {
            name: name.into(),
            scores: refil_eval::scores(&acc),
            result: RunResult {
                method: name.into(),
                dataset: "d".into(),
                domain_names: vec!["a".into(), "b".into()],
                domain_acc: acc,
                traffic: TrafficStats::default(),
                group_timeline: vec![],
                final_global: vec![],
                telemetry: refil_fed::TelemetrySummary::default(),
                rounds: vec![],
            },
        };
        FullResults {
            datasets: vec![(
                "D".into(),
                vec![
                    mk("Finetune", vec![vec![90.0], vec![40.0, 80.0]]),
                    mk("RefFiL", vec![vec![92.0], vec![70.0, 82.0]]),
                ],
            )],
        }
    }

    #[test]
    fn summary_table_has_delta_columns() {
        let t = summary_table(&fake_full());
        let md = t.to_markdown();
        assert!(md.contains("Finetune"));
        assert!(md.contains("RefFiL"));
        assert!(md.contains('+'), "missing positive delta: {md}");
    }

    #[test]
    fn per_step_tables_have_domain_columns() {
        let ts = per_step_tables(&fake_full());
        assert_eq!(ts.len(), 1);
        let md = ts[0].1.to_markdown();
        assert!(md.contains("| a"), "{md}");
        assert!(md.contains("90.00"));
    }
}
