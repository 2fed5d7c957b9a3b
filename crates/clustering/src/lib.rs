//! # refil-clustering
//!
//! Clustering substrate for RefFiL's global prompt clustering: the
//! parameter-free FINCH algorithm the paper adopts (Eq. 4–5), cosine
//! similarity primitives and a seeded k-means used as an ablation
//! comparator.
//!
//! # Examples
//!
//! ```
//! use refil_clustering::finch;
//!
//! let prompts = vec![
//!     vec![1.0, 0.0],
//!     vec![0.9, 0.1],
//!     vec![0.0, 1.0],
//!     vec![0.1, 0.9],
//! ];
//! let result = finch(&prompts);
//! assert_eq!(result.finest().num_clusters, 2);
//! ```

#![warn(missing_docs)]

mod finch;
mod kmeans;
mod similarity;

pub use finch::{cluster_means, finch, finch_traced, FinchResult, Partition};
pub use kmeans::{kmeans, KmeansResult};
pub use similarity::cosine_similarity;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
        prop::collection::vec(prop::collection::vec(-10.0f32..10.0, dim..=dim), 0..max_n)
    }

    proptest! {
        #[test]
        fn finch_partition_is_valid(points in arb_points(24, 4)) {
            let r = finch(&points);
            for p in &r.partitions {
                prop_assert_eq!(p.labels.len(), points.len());
                if points.is_empty() {
                    prop_assert_eq!(p.num_clusters, 0);
                    continue;
                }
                // Every label in range, every cluster non-empty.
                let mut seen = vec![false; p.num_clusters];
                for &l in &p.labels {
                    prop_assert!(l < p.num_clusters);
                    seen[l] = true;
                }
                prop_assert!(seen.iter().all(|&s| s));
            }
        }

        #[test]
        fn finch_hierarchy_is_monotone(points in arb_points(24, 3)) {
            let r = finch(&points);
            let counts: Vec<usize> = r.partitions.iter().map(|p| p.num_clusters).collect();
            for w in counts.windows(2) {
                prop_assert!(w[1] <= w[0], "counts {:?}", counts);
            }
        }

        #[test]
        fn finch_refinement_nests(points in arb_points(20, 3)) {
            // Finer partitions must refine coarser ones: two points together
            // at level L stay together at level L+1.
            let r = finch(&points);
            for w in r.partitions.windows(2) {
                let (fine, coarse) = (&w[0], &w[1]);
                for i in 0..points.len() {
                    for j in (i + 1)..points.len() {
                        if fine.labels[i] == fine.labels[j] {
                            prop_assert_eq!(coarse.labels[i], coarse.labels[j]);
                        }
                    }
                }
            }
        }

        #[test]
        fn kmeans_labels_in_range(points in arb_points(24, 3), k in 1usize..6) {
            let r = kmeans(&points, k, 7, 50);
            for &l in &r.labels {
                prop_assert!(l < r.centroids.len().max(1));
            }
        }

        #[test]
        fn cosine_symmetric_and_bounded(a in prop::collection::vec(-5.0f32..5.0, 4),
                                        b in prop::collection::vec(-5.0f32..5.0, 4)) {
            let s1 = cosine_similarity(&a, &b);
            let s2 = cosine_similarity(&b, &a);
            prop_assert!((s1 - s2).abs() < 1e-5);
            prop_assert!((-1.0001..=1.0001).contains(&s1));
        }
    }
}
