//! Fully-connected layer.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::init;
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Affine map `y = x W + b`.
///
/// Works on 2-D inputs (`[batch, in]`) via [`Linear::forward`] and on token
/// sequences (`[batch, tokens, in]`) via [`Linear::forward_tokens`].
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use refil_nn::{layers::Linear, Graph, Params, Tensor};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut params = Params::new();
/// let lin = Linear::new(&mut params, "lin", 4, 2, true, &mut rng);
/// let g = Graph::new();
/// let x = g.constant(Tensor::zeros(&[3, 4]));
/// let y = lin.forward(&g, &params, x);
/// assert_eq!(g.shape(y), vec![3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a trainable linear layer with Xavier-initialized weights.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut R,
    ) -> Self {
        Self::with_trainable(params, name, in_dim, out_dim, bias, true, rng)
    }

    /// Registers a linear layer, optionally frozen (`trainable = false`).
    pub fn with_trainable<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        trainable: bool,
        rng: &mut R,
    ) -> Self {
        let weight = params.insert(
            &format!("{name}.weight"),
            init::xavier_uniform(in_dim, out_dim, rng),
            trainable,
        );
        let bias = if bias {
            Some(params.insert(
                &format!("{name}.bias"),
                Tensor::zeros(&[out_dim]),
                trainable,
            ))
        } else {
            None
        };
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight parameter id.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }

    /// Applies the layer to a `[batch, in]` input.
    pub fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let w = g.param(params, self.weight);
        let mut y = g.matmul(x, w);
        if let Some(b) = self.bias {
            let bv = g.param(params, b);
            y = g.add_bias(y, bv);
        }
        y
    }

    /// Applies the layer independently to every token of a `[batch, tokens, in]` input.
    pub fn forward_tokens(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let w = g.param(params, self.weight);
        let mut y = g.matmul_tokens(x, w);
        if let Some(b) = self.bias {
            let bv = g.param(params, b);
            y = g.add_bias(y, bv);
        }
        y
    }

    /// Applies the layer to the last-axis-transposed view of `x [b, s, in]`
    /// read as `[b, in, s]` tokens — byte-identical to
    /// `forward_tokens(g, params, g.transpose_last(x))` but without ever
    /// materializing the transposed copy (see [`Graph::matmul_tn_tokens`]).
    pub fn forward_tokens_tn(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let w = g.param(params, self.weight);
        let mut y = g.matmul_tn_tokens(x, w);
        if let Some(b) = self.bias {
            let bv = g.param(params, b);
            y = g.add_bias(y, bv);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "l", 3, 5, true, &mut rng);
        let g = Graph::new();
        let x2 = g.constant(Tensor::zeros(&[2, 3]));
        assert_eq!(g.shape(lin.forward(&g, &params, x2)), vec![2, 5]);
        let x3 = g.constant(Tensor::zeros(&[2, 4, 3]));
        assert_eq!(g.shape(lin.forward_tokens(&g, &params, x3)), vec![2, 4, 5]);
    }

    #[test]
    fn bias_is_added() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "l", 2, 2, true, &mut rng);
        let bid = params.id("l.bias").unwrap();
        params
            .value_mut(bid)
            .data_mut()
            .copy_from_slice(&[1.0, -1.0]);
        let g = Graph::new();
        let x = g.constant(Tensor::zeros(&[1, 2]));
        let y = g.value(lin.forward(&g, &params, x));
        assert_eq!(y.data(), &[1.0, -1.0]);
    }

    #[test]
    fn learns_linear_regression() {
        // y = 2x; a single linear layer should fit it quickly.
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let lin = Linear::new(&mut params, "l", 1, 1, false, &mut rng);
        let mut opt = crate::optim::Sgd::new(0.1);
        for _ in 0..100 {
            params.zero_grad();
            let g = Graph::new();
            let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, -1.0], &[3, 1]));
            let y = lin.forward(&g, &params, x);
            let loss = g.mse_against(y, &Tensor::from_vec(vec![2.0, 4.0, -2.0], &[3, 1]));
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        let w = params.value(lin.weight_id()).data()[0];
        assert!((w - 2.0).abs() < 0.05, "learned {w}");
    }
}
