//! FINCH: parameter-free clustering by first-neighbour relations
//! (Sarfraz, Sharma & Stiefelhagen, CVPR 2019).
//!
//! RefFiL's server clusters uploaded prompt groups with FINCH (paper Eq. 4):
//! two prompts `m`, `j` are linked when `j = c_m` (j is m's first neighbour),
//! `m = c_j`, or `c_m = c_j` (they share a first neighbour). Connected
//! components of that adjacency form the first partition; the procedure then
//! recurses on cluster means to build a hierarchy, needing no cluster-count
//! parameter — which is what makes it suitable for the dynamic federated
//! setting.

use crate::similarity::first_neighbors;

/// One level of the FINCH hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Cluster label per input point.
    pub labels: Vec<usize>,
    /// Number of clusters at this level.
    pub num_clusters: usize,
}

/// Full FINCH output: successively coarser partitions (level 0 = finest).
#[derive(Debug, Clone)]
pub struct FinchResult {
    /// Partition hierarchy; `partitions[0]` is the first-neighbour partition.
    pub partitions: Vec<Partition>,
}

impl FinchResult {
    /// The finest partition (the one RefFiL's server uses, Eq. 5).
    pub fn finest(&self) -> &Partition {
        &self.partitions[0]
    }

    /// The partition whose cluster count is closest to `k` (FINCH's standard
    /// "required number of clusters" mode without any refinement step).
    pub fn closest_to(&self, k: usize) -> &Partition {
        self.partitions
            .iter()
            .min_by_key(|p| p.num_clusters.abs_diff(k))
            .expect("non-empty hierarchy")
    }
}

/// Runs FINCH on `points` (each a feature vector) under cosine similarity.
///
/// Returns a one-level trivial partition for fewer than two points.
///
/// # Panics
///
/// Panics if point dimensionalities differ.
pub fn finch(points: &[Vec<f32>]) -> FinchResult {
    finch_traced(points, &refil_telemetry::Telemetry::disabled())
}

/// [`finch`] wrapped in a `finch_cluster` telemetry span, recording the
/// input size and resulting hierarchy depth as histogram observations.
pub fn finch_traced(points: &[Vec<f32>], telemetry: &refil_telemetry::Telemetry) -> FinchResult {
    let _span = telemetry.span("finch_cluster");
    let result = finch_inner(points, first_neighbors);
    telemetry.observe("finch.points", points.len() as f64);
    telemetry.observe("finch.levels", result.partitions.len() as f64);
    telemetry.observe("finch.finest_clusters", result.finest().num_clusters as f64);
    result
}

/// Each point's first neighbour (index `i`'s entry for `points[i]`).
type Neighbors = fn(&[Vec<f32>]) -> Vec<usize>;

/// FINCH with first neighbours from `neighbors` ([`first_neighbors`]
/// outside the tests, which also run the per-point reference).
fn finch_inner(points: &[Vec<f32>], neighbors: Neighbors) -> FinchResult {
    let n = points.len();
    if n == 0 {
        return FinchResult {
            partitions: vec![Partition {
                labels: vec![],
                num_clusters: 0,
            }],
        };
    }
    if n == 1 {
        return FinchResult {
            partitions: vec![Partition {
                labels: vec![0],
                num_clusters: 1,
            }],
        };
    }
    let dim = points[0].len();
    for p in points {
        assert_eq!(p.len(), dim, "inconsistent point dimensionality");
    }

    let mut partitions = Vec::new();
    // `current` holds the representative vectors at this level; `mapping[i]`
    // maps original point i to its index among `current`.
    let mut current: Vec<Vec<f32>> = points.to_vec();
    let mut mapping: Vec<usize> = (0..n).collect();

    loop {
        let level = cluster_once(&current, neighbors);
        let labels: Vec<usize> = mapping.iter().map(|&m| level.labels[m]).collect();
        let num_clusters = level.num_clusters;
        partitions.push(Partition {
            labels: labels.clone(),
            num_clusters,
        });
        if num_clusters <= 1 || num_clusters == current.len() {
            break;
        }
        current = cluster_means(&current, &level.labels, num_clusters);
        mapping = labels;
        if current.len() < 2 {
            break;
        }
    }
    FinchResult { partitions }
}

/// One round of first-neighbour clustering: adjacency per Eq. 4, then
/// connected components.
fn cluster_once(points: &[Vec<f32>], neighbors: Neighbors) -> Partition {
    let n = points.len();
    if n == 1 {
        return Partition {
            labels: vec![0],
            num_clusters: 1,
        };
    }
    let neighbors = neighbors(points);

    // Union-find over the Eq. 4 links.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    };
    for (i, &nb) in neighbors.iter().enumerate() {
        // A point with no first neighbour (every similarity NaN) links to
        // nothing and stays its own cluster.
        if nb == usize::MAX {
            continue;
        }
        // j = c_i and i = c_j are both covered by linking i with c_i.
        union(&mut parent, i, nb);
        // c_i = c_j: linking every i to c_i already places all points sharing
        // a first neighbour in the same component (transitively via c_i).
    }

    // Compact component ids into 0..k in order of first appearance.
    let mut labels = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut remap: Vec<Option<usize>> = vec![None; n];
    for (i, label) in labels.iter_mut().enumerate() {
        let root = find(&mut parent, i);
        *label = *remap[root].get_or_insert_with(|| {
            let l = next;
            next += 1;
            l
        });
    }
    Partition {
        labels,
        num_clusters: next,
    }
}

/// Mean vector of each cluster.
///
/// # Panics
///
/// Panics if a label `>= num_clusters` appears.
pub fn cluster_means(points: &[Vec<f32>], labels: &[usize], num_clusters: usize) -> Vec<Vec<f32>> {
    assert_eq!(points.len(), labels.len(), "labels length mismatch");
    let dim = points.first().map_or(0, Vec::len);
    let mut sums = vec![vec![0.0f32; dim]; num_clusters];
    let mut counts = vec![0usize; num_clusters];
    for (p, &l) in points.iter().zip(labels) {
        assert!(l < num_clusters, "label {l} out of range");
        counts[l] += 1;
        for (s, &x) in sums[l].iter_mut().zip(p) {
            *s += x;
        }
    }
    for (s, &c) in sums.iter_mut().zip(&counts) {
        if c > 0 {
            for x in s.iter_mut() {
                *x /= c as f32;
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-point scan the one-pass [`first_neighbors`] replaced.
    fn first_neighbors_per_point(points: &[Vec<f32>]) -> Vec<usize> {
        (0..points.len())
            .map(|i| crate::similarity::first_neighbor(points, i))
            .collect()
    }

    /// Points of dimension `dim` cut from `values`, then for each
    /// `(at, kind)` an inserted exact duplicate (kind 0), all-zero point
    /// (kind 1: zero norm, so similarity 0 to everything) or scaled
    /// opposite (kind 2) of an existing point.
    fn awkward_points(dim: usize, values: &[f32], at: &[usize], kind: &[u8]) -> Vec<Vec<f32>> {
        let mut pts: Vec<Vec<f32>> = values.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        for (&at, &kind) in at.iter().zip(kind) {
            if pts.is_empty() {
                break;
            }
            let p = match kind {
                0 => pts[at % pts.len()].clone(),
                1 => vec![0.0; dim],
                _ => pts[at % pts.len()].iter().map(|x| -0.5 * x).collect(),
            };
            pts.insert(at % (pts.len() + 1), p);
        }
        pts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn one_pass_neighbours_match_the_per_point_scan(
            dim in 1usize..40,
            values in prop::collection::vec(-3.0f32..3.0, 0..1600usize),
            at in prop::collection::vec(0usize..64, 0..20usize),
            kind in prop::collection::vec(0u8..3, 0..20usize),
        ) {
            let points = awkward_points(dim, &values, &at, &kind);
            if points.len() >= 2 {
                prop_assert_eq!(first_neighbors(&points), first_neighbors_per_point(&points));
            }
            let fast = finch_inner(&points, first_neighbors);
            let reference = finch_inner(&points, first_neighbors_per_point);
            prop_assert_eq!(fast.partitions, reference.partitions);
        }
    }

    fn two_blobs() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 0.05],
            vec![0.95, 0.0],
            vec![1.05, -0.02],
            vec![-0.02, 1.0],
            vec![0.0, 0.97],
            vec![0.03, 1.04],
        ]
    }

    #[test]
    fn separates_two_blobs() {
        let r = finch(&two_blobs());
        let p = r.finest();
        assert_eq!(p.num_clusters, 2, "labels {:?}", p.labels);
        assert_eq!(p.labels[0], p.labels[1]);
        assert_eq!(p.labels[1], p.labels[2]);
        assert_eq!(p.labels[3], p.labels[4]);
        assert_eq!(p.labels[4], p.labels[5]);
        assert_ne!(p.labels[0], p.labels[3]);
    }

    #[test]
    fn hierarchy_coarsens() {
        let r = finch(&two_blobs());
        let counts: Vec<usize> = r.partitions.iter().map(|p| p.num_clusters).collect();
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "hierarchy not monotone: {counts:?}");
        }
        assert_eq!(r.partitions.last().map(|p| p.num_clusters), Some(1));
    }

    #[test]
    fn single_point_single_cluster() {
        let r = finch(&[vec![1.0, 2.0]]);
        assert_eq!(r.finest().num_clusters, 1);
        assert_eq!(r.finest().labels, vec![0]);
    }

    #[test]
    fn empty_input() {
        let r = finch(&[]);
        assert_eq!(r.finest().num_clusters, 0);
        assert!(r.finest().labels.is_empty());
    }

    #[test]
    fn identical_points_collapse() {
        let pts = vec![vec![0.5, 0.5]; 5];
        let r = finch(&pts);
        assert_eq!(r.finest().num_clusters, 1);
    }

    #[test]
    fn closest_to_picks_right_level() {
        let r = finch(&two_blobs());
        assert_eq!(r.closest_to(2).num_clusters, 2);
        assert_eq!(r.closest_to(1).num_clusters, 1);
    }

    #[test]
    fn nan_point_stays_its_own_cluster() {
        // Every similarity involving the NaN point is NaN, so it has no
        // first neighbour; it must not be linked (or index out of range).
        let pts = vec![vec![f32::NAN, 1.0], vec![0.5, 1.0], vec![1.0, 0.0]];
        let r = finch(&pts);
        let p = r.finest();
        assert_eq!(p.labels, vec![0, 1, 1]);
        assert_eq!(p.num_clusters, 2);
    }

    #[test]
    fn cluster_means_average() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 2.0], vec![10.0, 10.0]];
        let means = cluster_means(&pts, &[0, 0, 1], 2);
        assert_eq!(means[0], vec![1.0, 1.0]);
        assert_eq!(means[1], vec![10.0, 10.0]);
    }
}
