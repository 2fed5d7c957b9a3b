//! Vector similarity primitives.

/// Cosine similarity between two equal-length vectors.
///
/// Returns `0.0` when either vector has (near-)zero norm, so degenerate
/// prompts never dominate a nearest-neighbour search.
///
/// # Panics
///
/// Panics if lengths differ.
///
/// # Examples
///
/// ```
/// let s = refil_clustering::cosine_similarity(&[1.0, 0.0], &[0.5, 0.0]);
/// assert!((s - 1.0).abs() < 1e-6);
/// ```
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "cosine length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f32::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub(crate) fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Each point's first neighbour under [`cosine_similarity`], excluding the
/// point itself, with ties broken toward the smaller index. Entry `i` is
/// `usize::MAX` when no other point's similarity compares greater than
/// `-inf` (every one is NaN).
///
/// Every norm is computed once and every pair's similarity once, from a
/// column-major copy of the points: one point's dot products with
/// [`LANES`] later points advance together, each in its own ascending-`k`
/// chain. The pair's similarity is then offered to both of its rows. A
/// row receives its candidates in ascending index order (the smaller ones
/// while their rows are scanned, the larger ones during its own), so a
/// running strict-`>` maximum picks what an ascending scan would. The
/// values are those of `cosine_similarity(points[i], points[j])`: the dot
/// product and both squared norms keep their ascending-`k` sums, and
/// `sqrt(|a|²)·sqrt(|b|²)` is the same product in either order.
///
/// # Panics
///
/// Panics if point dimensionalities differ.
pub(crate) fn first_neighbors(points: &[Vec<f32>]) -> Vec<usize> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let dim = points[0].len();
    // Columns padded to whole lane blocks; padding lanes are never read back.
    let stride = n.div_ceil(LANES) * LANES;
    let mut cols = vec![0.0f32; dim * stride];
    for (j, p) in points.iter().enumerate() {
        assert_eq!(p.len(), dim, "cosine length mismatch: {} vs {dim}", p.len());
        for (col, &x) in cols.chunks_exact_mut(stride).zip(p) {
            col[j] = x;
        }
    }
    let norms: Vec<f32> = points
        .iter()
        .map(|p| p.iter().fold(0.0f32, |s, &x| s + x * x).sqrt())
        .collect();

    let mut best = vec![(f32::NEG_INFINITY, usize::MAX); n];
    let offer = |best: &mut (f32, usize), j: usize, s: f32| {
        if s > best.0 {
            *best = (s, j);
        }
    };
    for (i, a) in points.iter().enumerate() {
        for j0 in ((i + 1) / LANES * LANES..n).step_by(LANES) {
            let mut dots = [0.0f32; LANES];
            for (&x, col) in a.iter().zip(cols.chunks_exact(stride)) {
                for (d, &y) in dots.iter_mut().zip(&col[j0..j0 + LANES]) {
                    *d += x * y;
                }
            }
            for (j, &dot) in (j0..n).zip(&dots).skip((i + 1).saturating_sub(j0)) {
                let denom = norms[i] * norms[j];
                let s = if denom <= f32::EPSILON {
                    0.0
                } else {
                    dot / denom
                };
                offer(&mut best[i], j, s);
                offer(&mut best[j], i, s);
            }
        }
    }
    best.into_iter().map(|(_, j)| j).collect()
}

/// Later points whose dot products [`first_neighbors`] advances together.
const LANES: usize = 16;

/// Index of the nearest neighbour of `points[i]` under cosine similarity,
/// excluding `i` itself; ties break toward the smaller index. The
/// per-point scan [`first_neighbors`] replaced, kept as its reference: it
/// recomputes both norms for every pair and visits every pair twice.
///
/// # Panics
///
/// Panics if `points.len() < 2`.
#[cfg(test)]
pub(crate) fn first_neighbor(points: &[Vec<f32>], i: usize) -> usize {
    assert!(
        points.len() >= 2,
        "first neighbour needs at least two points"
    );
    let mut best = usize::MAX;
    let mut best_sim = f32::NEG_INFINITY;
    for (j, p) in points.iter().enumerate() {
        if j == i {
            continue;
        }
        let s = cosine_similarity(&points[i], p);
        if s > best_sim {
            best_sim = s;
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn first_neighbor_excludes_self() {
        let pts = vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.0, 1.0]];
        assert_eq!(first_neighbor(&pts, 0), 1);
        assert_eq!(first_neighbor(&pts, 1), 0);
        assert_eq!(first_neighbor(&pts, 2), 1);
    }

    #[test]
    fn squared_distance_matches_manual() {
        assert_eq!(squared_distance(&[0.0, 3.0], &[4.0, 0.0]), 25.0);
    }
}
