//! Order statistics with the benchmark's percentile guard, and the metric
//! table both run modes print.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `values` by nearest rank, with the
/// number of samples it rests on; `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (p50 needs 20 samples, p90 needs 100).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a small set of per-repetition figures (mean of the middle two
/// for even counts). The guard does not apply: these are whole-run
/// figures, not tail estimates.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// One reported metric: its value, unit, and the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Table {
    pub rows: Vec<Metric>,
}

impl Table {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.rows.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Pushes a guarded percentile; when the guard withholds it, the value
    /// reads 0 and the printed sample count shows why.
    pub fn push_pct(&mut self, name: &'static str, values: &[f64], q: f64, unit: &'static str) {
        let value = percentile(values, q).unwrap_or(0.0);
        self.push(name, value, unit, values.len());
    }

    /// Human-readable lines: name, value, unit, and sample count.
    pub fn print(&self) {
        for m in &self.rows {
            println!(
                "{:<34} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// Whether every value is a finite number (JSON has no NaN or inf).
    pub fn all_finite(&self) -> bool {
        self.rows.iter().all(|m| m.value.is_finite())
    }

    /// The `metrics` object of the final JSON line. Names and units are
    /// static identifiers that need no escaping; `{}` prints an `f64` with
    /// every digit and never in exponent form.
    pub fn json(&self) -> String {
        let entries: Vec<String> = self
            .rows
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_guard_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
