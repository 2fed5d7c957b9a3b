//! Layer normalization with learned gain/bias.

use crate::graph::{Graph, Var};
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// LayerNorm over the last axis (Ba et al., 2016), as used throughout the
/// RefFiL backbone and CDAP generator.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers a LayerNorm over vectors of width `dim`.
    pub fn new(params: &mut Params, name: &str, dim: usize) -> Self {
        Self::with_trainable(params, name, dim, true)
    }

    /// Registers a LayerNorm, optionally frozen.
    pub(crate) fn with_trainable(
        params: &mut Params,
        name: &str,
        dim: usize,
        trainable: bool,
    ) -> Self {
        let gain = params.insert(&format!("{name}.gain"), Tensor::ones(&[dim]), trainable);
        let bias = params.insert(&format!("{name}.bias"), Tensor::zeros(&[dim]), trainable);
        Self {
            gain,
            bias,
            eps: 1e-5,
        }
    }

    /// Applies normalization to a `[..., dim]` input.
    pub fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let gain = g.param(params, self.gain);
        let bias = g.param(params, self.bias);
        g.layer_norm(x, gain, bias, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_rows_are_standardized() {
        let mut params = Params::new();
        let ln = LayerNorm::new(&mut params, "ln", 4);
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(
            vec![10.0, 20.0, 30.0, 40.0, 1.0, 1.0, 2.0, 2.0],
            &[2, 4],
        ));
        let y = g.value(ln.forward(&g, &params, x));
        for row in y.data().chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
        }
    }

    #[test]
    fn works_on_token_sequences() {
        let mut params = Params::new();
        let ln = LayerNorm::new(&mut params, "ln", 3);
        let g = Graph::new();
        let x = g.constant(Tensor::ones(&[2, 4, 3]));
        assert_eq!(g.shape(ln.forward(&g, &params, x)), vec![2, 4, 3]);
    }
}
