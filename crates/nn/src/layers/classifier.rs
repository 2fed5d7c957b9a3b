//! Classification head (Appendix A, Eq. 14).

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::params::Params;

use super::linear::Linear;

/// A single feed-forward layer mapping the `[CLS]` representation to class
/// logits: `y = G([CLS]_B)`.
#[derive(Debug, Clone)]
pub(crate) struct Classifier {
    head: Linear,
}

impl Classifier {
    /// Registers a classifier from width `dim` to `classes` logits.
    pub(crate) fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        dim: usize,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        let head = Linear::new(params, &format!("{name}.head"), dim, classes, true, rng);
        Self { head }
    }

    /// Maps `[batch, dim]` class-token features to `[batch, classes]` logits.
    pub(crate) fn forward(&self, g: &Graph, params: &Params, cls: Var) -> Var {
        self.head.forward(g, params, cls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn logit_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let clf = Classifier::new(&mut params, "g", 8, 10, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::zeros(&[4, 8]));
        assert_eq!(g.shape(clf.forward(&g, &params, x)), vec![4, 10]);
    }
}
