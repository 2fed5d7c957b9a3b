//! Frozen patch-embedding tokenizer (Appendix A, Eq. 12).
//!
//! The paper: "We designed a simple embedding model as the feature map
//! tokenizer, similar to ViT, with initialized-only and frozen parameters for
//! feature embedding." This layer splits the extractor's feature map into `n`
//! patches of width `d`, applies a frozen linear embedding per patch, and
//! prepends a trainable `[CLS]` token.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::init;
use crate::params::{ParamId, Params};

use super::linear::Linear;

/// Tokenizes a `[batch, n*d]` feature map into `[batch, n+1, d]` tokens
/// (`[CLS]` first).
#[derive(Debug, Clone)]
pub(crate) struct PatchTokenizer {
    embed: Linear,
    cls: ParamId,
    n_patches: usize,
    dim: usize,
}

impl PatchTokenizer {
    /// Registers a tokenizer producing `n_patches` patch tokens of width `dim`.
    ///
    /// The patch embedding is frozen (initialized-only); the `[CLS]` token is
    /// trainable, matching the paper.
    pub(crate) fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        n_patches: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let embed = Linear::with_trainable(
            params,
            &format!("{name}.embed"),
            dim,
            dim,
            true,
            false, // frozen
            rng,
        );
        let cls = params.insert(
            &format!("{name}.cls"),
            init::prompt_normal(&[1, 1, dim], rng),
            true,
        );
        Self {
            embed,
            cls,
            n_patches,
            dim,
        }
    }

    /// Expected flat feature width `n * d`.
    pub(crate) fn feature_dim(&self) -> usize {
        self.n_patches * self.dim
    }

    /// Tokenizes `features [batch, n*d]` into `[batch, n+1, d]` with `[CLS]`
    /// at position 0.
    pub(crate) fn forward(&self, g: &Graph, params: &Params, features: Var) -> Var {
        let shape = g.shape(features);
        assert_eq!(shape.len(), 2, "tokenizer expects 2-D features");
        let b = shape[0];
        assert_eq!(
            shape[1],
            self.feature_dim(),
            "feature width {} != n_patches*dim {}",
            shape[1],
            self.feature_dim()
        );
        let patches = g.reshape(features, &[b, self.n_patches, self.dim]);
        let embedded = self.embed.forward(g, params, patches);
        // Broadcast the CLS token across the batch.
        let cls = g.param(params, self.cls); // [1, 1, d]
        let cls_batch = if b == 1 {
            cls
        } else {
            let copies: Vec<Var> = (0..b).map(|_| cls).collect();
            g.concat(&copies, 0)
        };
        g.concat(&[cls_batch, embedded], 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn token_layout() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let tok = PatchTokenizer::new(&mut params, "t", 3, 4, &mut rng);
        let g = Graph::new();
        let f = g.constant(Tensor::randn(&[2, 12], 1.0, &mut rng));
        let tokens = tok.forward(&g, &params, f);
        assert_eq!(g.shape(tokens), vec![2, 4, 4]);
        // CLS rows identical across batch.
        let v = g.value(tokens);
        assert_eq!(&v.data()[0..4], &v.data()[16..20]);
    }

    #[test]
    fn embedding_is_frozen_cls_is_trainable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let _tok = PatchTokenizer::new(&mut params, "t", 2, 4, &mut rng);
        let trainable = |name: &str| {
            params
                .iter()
                .find(|(_, e)| e.name == name)
                .unwrap()
                .1
                .trainable
        };
        assert!(!trainable("t.embed.weight"));
        assert!(trainable("t.cls"));
    }
}
