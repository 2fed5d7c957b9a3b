//! Two-layer perceptron with GELU.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::params::Params;

use super::linear::Linear;

/// `Linear -> GELU -> Linear`, the MLP used inside attention blocks and the
/// CDAP generator.
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
}

impl Mlp {
    /// Registers an MLP `in_dim -> hidden -> out_dim`.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let fc1 = Linear::new(params, &format!("{name}.fc1"), in_dim, hidden, true, rng);
        let fc2 = Linear::new(params, &format!("{name}.fc2"), hidden, out_dim, true, rng);
        Self { fc1, fc2 }
    }

    /// Applies the MLP to the last axis of `x` (`[batch, in]` or
    /// `[batch, tokens, in]`).
    pub(crate) fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let h = self.fc1.forward(g, params, x);
        let h = g.gelu(h);
        self.fc2.forward(g, params, h)
    }

    /// Applies the MLP tokenwise to the last-axis-transposed view of
    /// `x [b, s, in]` — byte-identical to
    /// `forward(g, params, g.transpose_last(x))` without materializing
    /// the transposed tensor (see [`Transpose::Lhs`](crate::Transpose::Lhs)).
    pub fn forward_tokens_tn(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let h = self.fc1.forward_tokens_tn(g, params, x);
        let h = g.gelu(h);
        self.fc2.forward(g, params, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "m", 4, 8, 3, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::zeros(&[2, 4]));
        assert_eq!(g.shape(mlp.forward(&g, &params, x)), vec![2, 3]);
        let xt = g.constant(Tensor::zeros(&[2, 5, 4]));
        assert_eq!(g.shape(mlp.forward(&g, &params, xt)), vec![2, 5, 3]);
    }

    #[test]
    fn learns_xor() {
        // XOR is not linearly separable; an MLP must solve it.
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "m", 2, 16, 2, &mut rng);
        let mut opt = Sgd::new(0.5).with_momentum(0.9);
        let xs = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]);
        let ys = [0usize, 1, 1, 0];
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            params.zero_grad();
            let g = Graph::new();
            let x = g.constant(xs.clone());
            let logits = mlp.forward(&g, &params, x);
            let loss = g.cross_entropy(logits, &ys);
            last = g.value(loss).data()[0];
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        assert!(last < 0.1, "XOR loss {last}");
        let g = Graph::new();
        let x = g.constant(xs);
        let preds = g.value(mlp.forward(&g, &params, x)).argmax_last();
        assert_eq!(preds, ys.to_vec());
    }
}
