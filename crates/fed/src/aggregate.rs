//! FedAvg aggregation (McMahan et al., 2017).

/// One client's contribution to an aggregation round: a flat parameter vector
/// plus its weight (the paper weights by local dataset size, Algorithm 1
/// line 8).
#[derive(Debug, Clone)]
pub struct WeightedUpdate {
    /// Flattened model parameters.
    pub flat: Vec<f32>,
    /// Aggregation weight (e.g. `|D_m|`).
    pub weight: f32,
}

/// Weighted average of client parameter vectors:
/// `theta <- sum_m (w_m / sum w) * theta_m`.
///
/// # Panics
///
/// Panics if `updates` is empty, lengths differ, or the total weight is not
/// positive and finite.
pub fn fedavg(updates: &[WeightedUpdate]) -> Vec<f32> {
    assert!(!updates.is_empty(), "fedavg needs at least one update");
    let len = updates[0].flat.len();
    let total: f32 = updates.iter().map(|u| u.weight).sum();
    assert!(
        total.is_finite() && total > 0.0,
        "total aggregation weight must be positive, got {total}"
    );
    let mut out = vec![0.0f32; len];
    for u in updates {
        assert_eq!(u.flat.len(), len, "parameter length mismatch in fedavg");
        let w = u.weight / total;
        for (o, &x) in out.iter_mut().zip(&u.flat) {
            *o += w * x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_weighted_mean() {
        let updates = vec![
            WeightedUpdate {
                flat: vec![0.0, 0.0],
                weight: 1.0,
            },
            WeightedUpdate {
                flat: vec![3.0, 6.0],
                weight: 2.0,
            },
        ];
        assert_eq!(fedavg(&updates), vec![2.0, 4.0]);
    }

    #[test]
    fn fedavg_single_update_is_identity() {
        let u = vec![WeightedUpdate {
            flat: vec![1.5, -2.0],
            weight: 7.0,
        }];
        assert_eq!(fedavg(&u), vec![1.5, -2.0]);
    }

    #[test]
    fn fedavg_is_convex_combination() {
        let updates = vec![
            WeightedUpdate {
                flat: vec![1.0],
                weight: 3.0,
            },
            WeightedUpdate {
                flat: vec![5.0],
                weight: 1.0,
            },
        ];
        let out = fedavg(&updates);
        assert!(out[0] > 1.0 && out[0] < 5.0);
        assert!((out[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fedavg_rejects_zero_weight() {
        fedavg(&[WeightedUpdate {
            flat: vec![1.0],
            weight: 0.0,
        }]);
    }
}
