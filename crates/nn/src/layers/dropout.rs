//! Dropout regularization layer.

use rand::Rng;

use crate::graph::{Graph, Var};

/// Inverted dropout: active only when `training` is passed as `true`, so the
/// same layer serves train and eval passes.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Self { p }
    }

    /// Applies dropout when `training`, identity otherwise.
    pub fn forward<R: Rng>(&self, g: &Graph, x: Var, training: bool, rng: &mut R) -> Var {
        if training && self.p > 0.0 {
            g.dropout(x, self.p, rng)
        } else {
            x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eval_mode_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = Graph::new();
        let x = g.constant(Tensor::ones(&[16]));
        let d = Dropout::new(0.5);
        let y = d.forward(&g, x, false, &mut rng);
        assert_eq!(g.value(y).data(), Tensor::ones(&[16]).data());
    }

    #[test]
    fn train_mode_drops_some() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::new();
        let x = g.constant(Tensor::ones(&[64]));
        let d = Dropout::new(0.5);
        let y = g.value(d.forward(&g, x, true, &mut rng));
        assert!(y.data().contains(&0.0));
        assert!(y.data().iter().any(|&v| v > 1.0));
    }

    #[test]
    #[should_panic(expected = "must be in")]
    fn rejects_invalid_probability() {
        Dropout::new(1.0);
    }
}
