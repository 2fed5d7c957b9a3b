//! Residual feature extractor — the ResNet10 stand-in.
//!
//! The paper uses ResNet10 over images. This reproduction feeds synthetic
//! feature vectors instead (see `refil-data`), so the extractor is a stack of
//! pre-norm residual MLP blocks: the same inductive structure (skip
//! connections, depth) with the input modality swapped. Every method in the
//! evaluation shares this extractor, so relative comparisons are unaffected.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::params::Params;

use super::linear::Linear;
use super::norm::LayerNorm;

#[derive(Debug, Clone)]
struct ResBlock {
    ln: LayerNorm,
    fc1: Linear,
    fc2: Linear,
}

impl ResBlock {
    fn new<R: Rng>(params: &mut Params, name: &str, width: usize, rng: &mut R) -> Self {
        let ln = LayerNorm::new(params, &format!("{name}.ln"), width);
        let fc1 = Linear::new(params, &format!("{name}.fc1"), width, width, true, rng);
        let fc2 = Linear::new(params, &format!("{name}.fc2"), width, width, true, rng);
        Self { ln, fc1, fc2 }
    }

    fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let h = self.ln.forward(g, params, x);
        let h = self.fc1.forward(g, params, h);
        let h = g.gelu(h);
        let h = self.fc2.forward(g, params, h);
        g.add(x, h)
    }
}

/// Residual MLP feature extractor `h(x)`: `[batch, in_dim] -> [batch, out_dim]`.
#[derive(Debug, Clone)]
pub struct ResidualExtractor {
    stem: Linear,
    blocks: Vec<ResBlock>,
    head_ln: LayerNorm,
    proj: Linear,
    out_dim: usize,
}

impl ResidualExtractor {
    /// Registers an extractor with `depth` residual blocks of width `width`.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        in_dim: usize,
        width: usize,
        depth: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let stem = Linear::new(params, &format!("{name}.stem"), in_dim, width, true, rng);
        let blocks = (0..depth)
            .map(|i| ResBlock::new(params, &format!("{name}.block{i}"), width, rng))
            .collect();
        let head_ln = LayerNorm::new(params, &format!("{name}.head_ln"), width);
        let proj = Linear::new(params, &format!("{name}.proj"), width, out_dim, true, rng);
        Self {
            stem,
            blocks,
            head_ln,
            proj,
            out_dim,
        }
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Extracts features from a `[batch, in_dim]` input.
    pub fn forward(&self, g: &Graph, params: &Params, x: Var) -> Var {
        let mut h = self.stem.forward(g, params, x);
        h = g.gelu(h);
        for blk in &self.blocks {
            h = blk.forward(g, params, h);
        }
        h = self.head_ln.forward(g, params, h);
        self.proj.forward(g, params, h)
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
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let ext = ResidualExtractor::new(&mut params, "h", 6, 16, 2, 8, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[5, 6], 1.0, &mut rng));
        assert_eq!(g.shape(ext.forward(&g, &params, x)), vec![5, 8]);
    }

    #[test]
    fn depth_zero_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let ext = ResidualExtractor::new(&mut params, "h", 4, 8, 0, 4, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::zeros(&[1, 4]));
        assert_eq!(g.shape(ext.forward(&g, &params, x)), vec![1, 4]);
    }

    #[test]
    fn trains_a_separable_problem() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let ext = ResidualExtractor::new(&mut params, "h", 2, 16, 2, 8, &mut rng);
        let head = Linear::new(&mut params, "c", 8, 2, true, &mut rng);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let xs = Tensor::from_vec(vec![1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0], &[4, 2]);
        let ys = [0usize, 0, 1, 1];
        let mut last = f32::INFINITY;
        for _ in 0..80 {
            params.zero_grad();
            let g = Graph::new();
            let x = g.constant(xs.clone());
            let f = ext.forward(&g, &params, x);
            let logits = head.forward(&g, &params, f);
            let loss = g.cross_entropy(logits, &ys);
            last = g.value(loss).data()[0];
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        assert!(last < 0.1, "extractor failed to fit, loss {last}");
    }
}
