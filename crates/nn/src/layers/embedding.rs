//! Index-to-vector embedding table.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::init;
use crate::params::{ParamId, Params};

/// A `[vocab, dim]` lookup table. RefFiL uses one as the task-specific key
/// embedding layer that conditions the CDAP generator on the local task ID.
#[derive(Debug, Clone)]
pub struct Embedding {
    weight: ParamId,
}

impl Embedding {
    /// Registers an embedding table initialized from `N(0, 0.02^2)`.
    pub fn new<R: Rng>(
        params: &mut Params,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let weight = params.insert(
            &format!("{name}.weight"),
            init::prompt_normal(&[vocab, dim], rng),
            true,
        );
        Self { weight }
    }

    /// Looks up `indices`, returning a `[indices.len(), dim]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if any index `>= vocab`.
    pub fn forward(&self, g: &Graph, params: &Params, indices: &[usize]) -> Var {
        let w = g.param(params, self.weight);
        g.embedding(w, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_shape_and_rows() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 5, 3, &mut rng);
        let g = Graph::new();
        let out = g.value(emb.forward(&g, &params, &[2, 2, 4]));
        assert_eq!(out.shape(), &[3, 3]);
        assert_eq!(&out.data()[0..3], &out.data()[3..6], "same index, same row");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_range_index_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let emb = Embedding::new(&mut params, "e", 2, 3, &mut rng);
        let g = Graph::new();
        emb.forward(&g, &params, &[2]);
    }
}
