//! Feature-wise Linear Modulation (FiLM; Perez et al., 2018).
//!
//! The paper's "LT" layer: an affine transformation of instance-level prompts
//! whose scale `alpha_v` and shift `lambda_v` are predicted from a conditional
//! embedding `v` by a linear layer `phi` (Eq. 1).

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::params::Params;

use super::linear::Linear;

/// FiLM conditioner: `y = alpha_v * (x + lambda_v)` with
/// `[alpha_v, lambda_v] = phi(v)`.
///
/// `x` is `[batch, rows, channels]`; `v` is `[batch, cond_dim]`; the predicted
/// `alpha_v`/`lambda_v` are `[batch, channels]`, broadcast over rows.
#[derive(Debug, Clone)]
pub struct Film {
    phi: Linear,
    channels: usize,
}

impl Film {
    /// Registers a FiLM layer conditioning `channels`-wide features on a
    /// `cond_dim`-wide embedding.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        cond_dim: usize,
        channels: usize,
        rng: &mut R,
    ) -> Self {
        let phi = Linear::new(
            params,
            &format!("{name}.phi"),
            cond_dim,
            2 * channels,
            true,
            rng,
        );
        Self { phi, channels }
    }

    /// Applies `alpha_v * (x + lambda_v)`.
    ///
    /// `alpha_v` is offset by `+1` so an untrained layer starts near identity.
    pub fn forward(&self, g: &Graph, params: &Params, x: Var, v: Var) -> Var {
        let both = self.phi.forward(g, params, v); // [b, 2c]
        let alpha_raw = g.slice(both, 1, 0, self.channels);
        let alpha = g.add_scalar(alpha_raw, 1.0);
        let lambda = g.slice(both, 1, self.channels, self.channels);
        let shifted = g.add_rows_broadcast(x, lambda);
        g.mul_rows_broadcast(shifted, alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let film = Film::new(&mut params, "f", 4, 6, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 3, 6], 1.0, &mut rng));
        let v = g.constant(Tensor::randn(&[2, 4], 1.0, &mut rng));
        assert_eq!(g.shape(film.forward(&g, &params, x, v)), vec![2, 3, 6]);
    }

    #[test]
    fn near_identity_at_init() {
        // With zero-ish phi weights, alpha ~= 1 and lambda ~= 0.
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let film = Film::new(&mut params, "f", 2, 3, &mut rng);
        // Zero out phi entirely so the modulation is exactly identity.
        let wid = params.id("f.phi.weight").unwrap();
        params.value_mut(wid).fill(0.0);
        let g = Graph::new();
        let xt = Tensor::randn(&[1, 2, 3], 1.0, &mut rng);
        let x = g.constant(xt.clone());
        let v = g.constant(Tensor::ones(&[1, 2]));
        let y = g.value(film.forward(&g, &params, x, v));
        for (a, b) in y.data().iter().zip(xt.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn different_conditions_give_different_outputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let film = Film::new(&mut params, "f", 2, 3, &mut rng);
        let g = Graph::new();
        let xt = Tensor::ones(&[2, 2, 3]);
        let x = g.constant(xt);
        let v = g.constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]));
        let y = g.value(film.forward(&g, &params, x, v));
        let first = &y.data()[..6];
        let second = &y.data()[6..];
        assert_ne!(first, second, "conditioning had no effect");
    }
}
