//! Core data containers for domain-incremental datasets.

use serde::{Deserialize, Serialize};

/// One labelled example: a dense feature vector plus its class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Input features.
    pub features: Vec<f32>,
    /// Class label in `0..classes`.
    pub label: usize,
}

/// All data belonging to one domain of a dataset, split into train and test.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainData {
    /// Human-readable domain name (e.g. `"MNIST"`, `"Sketch"`).
    pub name: String,
    /// Training split.
    pub train: Vec<Sample>,
    /// Held-out evaluation split.
    pub test: Vec<Sample>,
}

impl DomainData {
    /// Total number of samples across both splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Whether the domain holds no samples.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.test.is_empty()
    }
}

/// A full domain-incremental dataset: a shared label space observed under
/// several input domains.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FdilDataset {
    /// Dataset name (e.g. `"Digits-Five"`).
    pub name: String,
    /// Number of classes shared by every domain.
    pub classes: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Per-domain data, in the dataset's canonical task order.
    pub domains: Vec<DomainData>,
}

impl FdilDataset {
    /// Number of domains (= incremental tasks).
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Returns a copy with the domains reordered by `order` (indices into the
    /// current domain list). Used for the paper's "new domain order" runs
    /// (Tables 2 and 4).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_domains()`.
    pub fn reordered(&self, order: &[usize]) -> Self {
        assert_eq!(order.len(), self.domains.len(), "order length mismatch");
        let mut seen = vec![false; order.len()];
        for &i in order {
            assert!(
                i < order.len() && !seen[i],
                "order must be a permutation, got {order:?}"
            );
            seen[i] = true;
        }
        Self {
            name: self.name.clone(),
            classes: self.classes,
            feature_dim: self.feature_dim,
            domains: order.iter().map(|&i| self.domains[i].clone()).collect(),
        }
    }

    /// Total sample count across domains and splits.
    pub fn total_samples(&self) -> usize {
        self.domains.iter().map(DomainData::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FdilDataset {
        FdilDataset {
            name: "t".into(),
            classes: 2,
            feature_dim: 1,
            domains: vec![
                DomainData {
                    name: "a".into(),
                    train: vec![],
                    test: vec![],
                },
                DomainData {
                    name: "b".into(),
                    train: vec![],
                    test: vec![],
                },
                DomainData {
                    name: "c".into(),
                    train: vec![],
                    test: vec![],
                },
            ],
        }
    }

    #[test]
    fn reorder_permutes_domains() {
        let d = tiny().reordered(&[2, 0, 1]);
        let names: Vec<&str> = d.domains.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn reorder_rejects_duplicates() {
        tiny().reordered(&[0, 0, 1]);
    }
}
