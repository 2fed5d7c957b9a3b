//! Multi-head self-attention and the transformer block of Appendix A (Eq. 13).

use rand::Rng;

use crate::graph::{Graph, Transpose, Var};
use crate::params::Params;

use super::linear::Linear;
use super::mlp::Mlp;
use super::norm::LayerNorm;

/// Multi-head self-attention over `[batch, tokens, dim]` sequences.
#[derive(Debug, Clone)]
pub(crate) struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadAttention {
    /// Registers MHSA with `heads` heads over width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub(crate) fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut R,
    ) -> Self {
        assert_eq!(
            dim % heads,
            0,
            "dim {dim} must be divisible by heads {heads}"
        );
        let wq = Linear::new(params, &format!("{name}.wq"), dim, dim, true, rng);
        let wk = Linear::new(params, &format!("{name}.wk"), dim, dim, true, rng);
        let wv = Linear::new(params, &format!("{name}.wv"), dim, dim, true, rng);
        let wo = Linear::new(params, &format!("{name}.wo"), dim, dim, true, rng);
        Self {
            wq,
            wk,
            wv,
            wo,
            heads,
            dim,
        }
    }

    /// Splits `[b, t, dim]` into `[b*h, t, dh]` head-major layout.
    fn split_heads(&self, g: &Graph, x: Var, b: usize, t: usize) -> Var {
        let dh = self.dim / self.heads;
        g.permute_0213(x, [b, t, self.heads, dh], &[b * self.heads, t, dh])
    }

    /// Self-attention: `x [b, t, dim] -> [b, t, dim]`.
    pub(crate) fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let shape = g.shape(x);
        assert_eq!(shape.len(), 3, "attention expects 3-D input, got {shape:?}");
        let (b, t) = (shape[0], shape[1]);
        let dh = self.dim / self.heads;

        let q = self.wq.forward(g, params, x);
        let k = self.wk.forward(g, params, x);
        let v = self.wv.forward(g, params, x);

        let q = self.split_heads(g, q, b, t);
        let k = self.split_heads(g, k, b, t);
        let v = self.split_heads(g, v, b, t);

        let scores = g.matmul(q, k, Transpose::Rhs); // [b*h, t, t], reads k transposed in place
        let scores = g.scale(scores, 1.0 / (dh as f32).sqrt());
        let attn = g.softmax_last(scores);
        let ctx = g.matmul(attn, v, Transpose::None); // [b*h, t, dh]

        let merged = g.permute_0213(ctx, [b, self.heads, t, dh], &[b, t, self.dim]);
        self.wo.forward(g, params, merged)
    }
}

/// One attention block per Appendix A Eq. 13:
/// `I' = LN(MHSA(I, I, I))`, `I'' = MLP(I')`, `I_next = LN(I' + I'')`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    attn: MultiHeadAttention,
    ln_attn: LayerNorm,
    mlp: Mlp,
    ln_out: LayerNorm,
}

impl TransformerBlock {
    /// Registers a block of width `dim` with `heads` heads and an MLP hidden
    /// width of `4 * dim`.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut R,
    ) -> Self {
        let attn = MultiHeadAttention::new(params, &format!("{name}.attn"), dim, heads, rng);
        let ln_attn = LayerNorm::new(params, &format!("{name}.ln_attn"), dim);
        let mlp = Mlp::new(params, &format!("{name}.mlp"), dim, 4 * dim, dim, rng);
        let ln_out = LayerNorm::new(params, &format!("{name}.ln_out"), dim);
        Self {
            attn,
            ln_attn,
            mlp,
            ln_out,
        }
    }

    /// Applies the block to `x [b, t, dim]`.
    pub fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let attended = self.attn.forward(g, params, x);
        let i_prime = self.ln_attn.forward(g, params, attended);
        let i_second = self.mlp.forward(g, params, i_prime);
        let summed = g.add(i_prime, i_second);
        self.ln_out.forward(g, params, summed)
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
    fn attention_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let attn = MultiHeadAttention::new(&mut params, "a", 8, 2, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[3, 5, 8], 1.0, &mut rng));
        assert_eq!(g.shape(attn.forward(&g, &params, x)), vec![3, 5, 8]);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn heads_must_divide_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        MultiHeadAttention::new(&mut params, "a", 7, 2, &mut rng);
    }

    #[test]
    fn block_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let blk = TransformerBlock::new(&mut params, "b", 8, 2, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 4, 8], 1.0, &mut rng));
        assert_eq!(g.shape(blk.forward(&g, &params, x)), vec![2, 4, 8]);
    }

    #[test]
    fn block_gradients_flow_and_train() {
        // A block + token-mean classifier should learn a token-order-invariant
        // parity-of-sum toy task better than chance.
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let blk = TransformerBlock::new(&mut params, "b", 8, 2, &mut rng);
        let head = Linear::new(&mut params, "head", 8, 2, true, &mut rng);
        let mut opt = Sgd::new(0.05).with_momentum(0.9);

        // Two fixed token patterns per class.
        let mk = |c: f32| {
            let mut v = vec![0.0f32; 3 * 8];
            for x in v.iter_mut().step_by(2) {
                *x = c;
            }
            v
        };
        let xs = Tensor::from_vec([mk(1.0), mk(-1.0)].concat(), &[2, 3, 8]);
        let ys = [0usize, 1];
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            params.zero_grad();
            let g = Graph::new();
            let x = g.constant(xs.clone());
            let h = blk.forward(&g, &params, x);
            let pooled = g.mean_tokens(h);
            let logits = head.forward(&g, &params, pooled);
            let loss = g.cross_entropy(logits, &ys);
            last = g.value(loss).data()[0];
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        assert!(
            last < 0.3,
            "attention block failed to fit toy task, loss {last}"
        );
    }
}
