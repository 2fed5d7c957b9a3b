//! Continual-learning transfer metrics and per-class diagnostics.
//!
//! Beyond the paper's Avg/Last, the standard continual-learning analysis
//! quantifies *backward transfer* (how much learning later tasks changed
//! earlier-task accuracy) and per-class confusion — both used by the
//! extension benches.

use serde::{Deserialize, Serialize};

/// Backward transfer (Lopez-Paz & Ranzato, 2017): mean over earlier domains
/// of `final accuracy - accuracy right after learning`. Negative values are
/// forgetting; positive values mean later tasks *helped* earlier ones.
///
/// # Panics
///
/// Panics if the matrix is empty or not lower-triangular.
pub fn backward_transfer(domain_acc: &[Vec<f32>]) -> f32 {
    assert!(!domain_acc.is_empty(), "empty accuracy matrix");
    let t_final = domain_acc.len() - 1;
    if t_final == 0 {
        return 0.0;
    }
    let final_row = &domain_acc[t_final];
    let mut sum = 0.0f32;
    for d in 0..t_final {
        assert!(domain_acc[d].len() == d + 1, "matrix not lower-triangular");
        sum += final_row[d] - domain_acc[d][d];
    }
    sum / t_final as f32
}

/// A `classes x classes` confusion matrix (rows = true class, columns =
/// predicted class).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u32>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Records one `(true, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub(crate) fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.classes, "true class {truth} out of range");
        assert!(
            predicted < self.classes,
            "predicted class {predicted} out of range"
        );
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// Records a batch of observations.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any index is out of range.
    pub fn record_batch(&mut self, truths: &[usize], predictions: &[usize]) {
        assert_eq!(truths.len(), predictions.len(), "length mismatch");
        for (&t, &p) in truths.iter().zip(predictions) {
            self.record(t, p);
        }
    }

    /// The raw count at `(truth, predicted)`.
    pub(crate) fn count(&self, truth: usize, predicted: usize) -> u32 {
        self.counts[truth * self.classes + predicted]
    }

    /// Total observations recorded.
    pub(crate) fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Overall accuracy in percent (0 for an empty matrix).
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u32 = (0..self.classes).map(|k| self.count(k, k)).sum();
        100.0 * correct as f32 / total as f32
    }

    /// The most confused off-diagonal pair `(truth, predicted, count)`, if
    /// any misclassification was recorded.
    pub fn worst_confusion(&self) -> Option<(usize, usize, u32)> {
        let mut best: Option<(usize, usize, u32)> = None;
        for t in 0..self.classes {
            for p in 0..self.classes {
                if t == p {
                    continue;
                }
                let c = self.count(t, p);
                if c > 0 && best.is_none_or(|(_, _, bc)| c > bc) {
                    best = Some((t, p, c));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_transfer_measures_change() {
        // Domain 0 learned at 90, ends at 60: BWT for it is -30.
        // Domain 1 learned at 80, ends at 85: +5. Mean = -12.5.
        let m = vec![vec![90.0], vec![70.0, 80.0], vec![60.0, 85.0, 95.0]];
        assert!((backward_transfer(&m) + 12.5).abs() < 1e-5);
    }

    #[test]
    fn backward_transfer_single_task_is_zero() {
        assert_eq!(backward_transfer(&[vec![75.0]]), 0.0);
    }

    #[test]
    fn confusion_accuracy_and_recall() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record_batch(&[0, 0, 1, 1, 2], &[0, 1, 1, 1, 0]);
        assert_eq!(cm.total(), 5);
        assert!((cm.accuracy() - 60.0).abs() < 1e-5);
        // Recall's numerators: 1 of 2, 2 of 2 and 0 of 1 per class.
        assert_eq!((cm.count(0, 0), cm.count(1, 1), cm.count(2, 2)), (1, 2, 0));
    }

    #[test]
    fn worst_confusion_finds_biggest_error() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record_batch(&[0, 0, 0, 1], &[2, 2, 1, 0]);
        assert_eq!(cm.worst_confusion(), Some((0, 2, 2)));
        let empty = ConfusionMatrix::new(2);
        assert_eq!(empty.worst_confusion(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_checks_bounds() {
        ConfusionMatrix::new(2).record(2, 0);
    }
}
