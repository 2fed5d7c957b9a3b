//! Convolutional feature extractor — the direct CNN analogue of the paper's
//! ResNet10 backbone for 1-D feature inputs.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

use super::linear::Linear;

/// A two-stage 1-D CNN: `conv(1->c, k5, pad2) -> GELU -> pool(2) ->
/// conv(c->2c, k3, pad1) -> GELU -> pool(2) -> flatten -> linear`.
///
/// Interchangeable with [`super::ResidualExtractor`] through
/// [`crate::models::BackboneConfig::extractor`]; the `ablation_extractor`
/// bench compares the two.
#[derive(Debug, Clone)]
pub(crate) struct ConvExtractor {
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    head: Linear,
    in_dim: usize,
}

impl ConvExtractor {
    /// Registers the extractor: `in_dim`-long 1-channel signals to `out_dim`
    /// features through `channels` (then `2*channels`) conv channels.
    ///
    /// # Panics
    ///
    /// Panics if `in_dim < 4` (two pooling stages need headroom).
    pub(crate) fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        channels: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_dim >= 4,
            "conv extractor needs in_dim >= 4, got {in_dim}"
        );
        let k1 = 5.min(in_dim);
        let std1 = (2.0 / k1 as f32).sqrt();
        let w1 = params.insert(
            &format!("{name}.conv1.weight"),
            Tensor::randn(&[channels, 1, k1], std1, rng),
            true,
        );
        let b1 = params.insert(
            &format!("{name}.conv1.bias"),
            Tensor::zeros(&[channels]),
            true,
        );
        let l1 = in_dim / 2; // after pad-same conv + pool(2)
        let k2 = 3.min(l1);
        let std2 = (2.0 / (channels * k2) as f32).sqrt();
        let w2 = params.insert(
            &format!("{name}.conv2.weight"),
            Tensor::randn(&[2 * channels, channels, k2], std2, rng),
            true,
        );
        let b2 = params.insert(
            &format!("{name}.conv2.bias"),
            Tensor::zeros(&[2 * channels]),
            true,
        );
        let l2 = l1 / 2;
        let flat = 2 * channels * l2;
        let head = Linear::new(params, &format!("{name}.head"), flat, out_dim, true, rng);
        Self {
            w1,
            b1,
            w2,
            b2,
            head,
            in_dim,
        }
    }

    /// Extracts features from a `[batch, in_dim]` input.
    pub(crate) fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let shape = g.shape(x);
        assert_eq!(shape.len(), 2, "conv extractor expects [batch, in_dim]");
        let b = shape[0];
        assert_eq!(shape[1], self.in_dim, "input width mismatch");
        let sig = g.reshape(x, &[b, 1, self.in_dim]);

        let w1 = g.param(params, self.w1);
        let b1 = g.param(params, self.b1);
        let k1 = g.shape(w1)[2];
        let mut h = g.conv1d(sig, w1, b1, k1 / 2);
        // Pad-same with odd kernels preserves length; trim defensively for
        // even kernels.
        let l = g.shape(h)[2].min(self.in_dim);
        h = g.slice(h, 2, 0, l);
        h = g.gelu(h);
        h = g.avg_pool1d(h, 2);

        let w2 = g.param(params, self.w2);
        let b2 = g.param(params, self.b2);
        let k2 = g.shape(w2)[2];
        let l1 = g.shape(h)[2];
        let mut h2 = g.conv1d(h, w2, b2, k2 / 2);
        let l2 = g.shape(h2)[2].min(l1);
        h2 = g.slice(h2, 2, 0, l2);
        h2 = g.gelu(h2);
        h2 = g.avg_pool1d(h2, 2);

        let hs = g.shape(h2);
        let flat = g.reshape(h2, &[b, hs[1] * hs[2]]);
        self.head.forward(g, params, flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let ext = ConvExtractor::new(&mut params, "c", 16, 4, 12, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[3, 16], 1.0, &mut rng));
        assert_eq!(g.shape(ext.forward(&g, &params, x)), vec![3, 12]);
    }

    #[test]
    fn trains_a_separable_problem() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let ext = ConvExtractor::new(&mut params, "c", 8, 4, 8, &mut rng);
        let head = Linear::new(&mut params, "clf", 8, 2, true, &mut rng);
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        // Class 0: energy at the front; class 1: at the back.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..16 {
            let k = i % 2;
            for j in 0..8 {
                let on = if k == 0 { j < 4 } else { j >= 4 };
                xs.push(if on { 1.5 } else { -0.5 } + crate::tensor::gaussian(&mut rng) * 0.2);
            }
            ys.push(k);
        }
        let x = Tensor::from_vec(xs, &[16, 8]);
        let mut last = f32::INFINITY;
        for _ in 0..80 {
            params.zero_grad();
            let g = Graph::new();
            let xv = g.constant(x.clone());
            let f = ext.forward(&g, &params, xv);
            let logits = head.forward(&g, &params, f);
            let loss = g.cross_entropy(logits, &ys);
            last = g.value(loss).data()[0];
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        assert!(last < 0.2, "conv extractor failed to fit, loss {last}");
    }

    #[test]
    #[should_panic(expected = "in_dim >= 4")]
    fn rejects_tiny_inputs() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        ConvExtractor::new(&mut params, "c", 2, 4, 8, &mut rng);
    }
}
