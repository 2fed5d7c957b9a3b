//! Client-wise Domain Adaptive Prompt (CDAP) generator — paper Eq. 1.
//!
//! `P_m = LT(CCDA(MLP(LN(I)^T)); phi(v))^T`
//!
//! * `LN` — layer norm over the token width `d`;
//! * transpose — `[n+1, d] -> [d, n+1]` per instance;
//! * `MLP` — maps the token axis `n+1 -> p`, producing instance-level,
//!   fine-grained prompt activations `[d, p]`;
//! * `CCDA` — the Cross-Client Domain Adaptation layer, a shared linear
//!   (+GELU) whose weights are hardened by FedAvg aggregation across clients;
//! * `LT` — FiLM-style modulation `alpha_v * (x + lambda_v)` with
//!   `[alpha_v, lambda_v] = phi(v)` predicted from the task-specific key
//!   embedding `v` that links tasks to domain-specific data;
//! * final transpose — `[d, p] -> [p, d]`: `p` prompt tokens of width `d`.

use rand::Rng;
use serde::{Deserialize, Serialize};

use refil_nn::layers::{Embedding, Film, LayerNorm, Linear, Mlp};
use refil_nn::{Graph, Params, Var};

/// CDAP generator hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CdapConfig {
    /// Token width `d`.
    pub token_dim: usize,
    /// Input sequence length `n + 1` (patch tokens + `[CLS]`).
    pub seq_len: usize,
    /// Prompt length `p` (tokens generated per instance).
    pub prompt_len: usize,
    /// Hidden width of the token-axis MLP.
    pub hidden: usize,
    /// Width of the task key embedding `v`.
    pub key_dim: usize,
    /// Maximum number of tasks the key table can hold.
    pub max_tasks: usize,
}

impl Default for CdapConfig {
    fn default() -> Self {
        Self {
            token_dim: 32,
            seq_len: 5,
            prompt_len: 4,
            hidden: 16,
            key_dim: 8,
            max_tasks: 8,
        }
    }
}

/// The CDAP generator `G` (Eq. 1).
#[derive(Debug, Clone)]
pub struct CdapGenerator {
    ln: LayerNorm,
    mlp: Mlp,
    ccda: Linear,
    film: Film,
    task_keys: Embedding,
    cfg: CdapConfig,
}

impl CdapGenerator {
    /// Registers the generator's parameters under `name`.
    pub fn new<R: Rng>(params: &mut Params, name: &str, cfg: CdapConfig, rng: &mut R) -> Self {
        let ln = LayerNorm::new(params, &format!("{name}.ln"), cfg.token_dim);
        let mlp = Mlp::new(
            params,
            &format!("{name}.mlp"),
            cfg.seq_len,
            cfg.hidden,
            cfg.prompt_len,
            rng,
        );
        let ccda = Linear::new(
            params,
            &format!("{name}.ccda"),
            cfg.prompt_len,
            cfg.prompt_len,
            true,
            rng,
        );
        let film = Film::new(
            params,
            &format!("{name}.film"),
            cfg.key_dim,
            cfg.prompt_len,
            rng,
        );
        let task_keys = Embedding::new(
            params,
            &format!("{name}.task_keys"),
            cfg.max_tasks,
            cfg.key_dim,
            rng,
        );
        Self {
            ln,
            mlp,
            ccda,
            film,
            task_keys,
            cfg,
        }
    }

    /// Generator configuration.
    pub fn config(&self) -> &CdapConfig {
        &self.cfg
    }

    /// Generates instance-level prompts.
    ///
    /// `tokens` is the backbone's `I` of shape `[b, n+1, d]`; `task_id` is
    /// the client's local task ID (clamped to the key-table size). Returns a
    /// `[b, p, d]` prompt variable.
    ///
    /// # Panics
    ///
    /// Panics if the token shape does not match the configuration.
    pub fn generate(&self, g: &Graph, params: &Params, tokens: Var, task_id: usize) -> Var {
        let shape = g.shape(tokens);
        assert_eq!(shape.len(), 3, "CDAP expects [b, n+1, d] tokens");
        let (b, seq, d) = (shape[0], shape[1], shape[2]);
        assert_eq!(seq, self.cfg.seq_len, "sequence length mismatch");
        assert_eq!(d, self.cfg.token_dim, "token width mismatch");

        // LN(I), then MLP over the token axis on the transposed view:
        // [b, n+1, d] read as [b, d, n+1] -> [b, d, p]. The layout-aware
        // kernel skips materializing the [b, d, n+1] transpose entirely.
        let normed = self.ln.forward(g, params, tokens);
        let activ = self.mlp.forward_tokens_tn(g, params, normed);
        // Cross-Client Domain Adaptation layer (federated-averaged linear).
        let adapted = self.ccda.forward_tokens(g, params, activ);
        let adapted = g.gelu(adapted);
        // FiLM modulation conditioned on the task key embedding.
        let tid = task_id.min(self.cfg.max_tasks - 1);
        let v = self.task_keys.forward(g, params, &vec![tid; b]); // [b, key]
        let modulated = self.film.forward(g, params, adapted, v); // [b, d, p]
                                                                  // Transpose back: p prompt tokens of width d.
        g.transpose_last(modulated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use refil_nn::Tensor;

    fn cfg() -> CdapConfig {
        CdapConfig {
            token_dim: 8,
            seq_len: 3,
            prompt_len: 2,
            hidden: 8,
            key_dim: 4,
            max_tasks: 3,
        }
    }

    fn setup() -> (Params, CdapGenerator) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let gen = CdapGenerator::new(&mut params, "cdap", cfg(), &mut rng);
        (params, gen)
    }

    #[test]
    fn output_shape_is_prompt_tokens() {
        let (params, gen) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::new();
        let tokens = g.constant(Tensor::randn(&[4, 3, 8], 1.0, &mut rng));
        let prompts = gen.generate(&g, &params, tokens, 0);
        assert_eq!(g.shape(prompts), vec![4, 2, 8]);
    }

    #[test]
    fn prompts_are_instance_level() {
        // Different inputs must give different prompts.
        let (params, gen) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let g = Graph::new();
        let a = Tensor::randn(&[1, 3, 8], 1.0, &mut rng);
        let b = Tensor::randn(&[1, 3, 8], 1.0, &mut rng);
        let pa = g.value(gen.generate(&g, &params, g.constant(a), 0));
        let pb = g.value(gen.generate(&g, &params, g.constant(b), 0));
        assert_ne!(pa.data(), pb.data());
    }

    #[test]
    fn task_id_conditions_the_prompt() {
        let (params, gen) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let g = Graph::new();
        let x = Tensor::randn(&[1, 3, 8], 1.0, &mut rng);
        let p0 = g.value(gen.generate(&g, &params, g.constant(x.clone()), 0));
        let p1 = g.value(gen.generate(&g, &params, g.constant(x), 1));
        assert_ne!(p0.data(), p1.data(), "task key had no effect");
    }

    #[test]
    fn task_id_clamped_to_table() {
        let (params, gen) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let g = Graph::new();
        let x = Tensor::randn(&[1, 3, 8], 1.0, &mut rng);
        // max_tasks = 3, so task 99 clamps to 2 (no panic).
        let p99 = g.value(gen.generate(&g, &params, g.constant(x.clone()), 99));
        let p2 = g.value(gen.generate(&g, &params, g.constant(x), 2));
        assert_eq!(p99.data(), p2.data());
    }

    #[test]
    fn gradients_reach_all_generator_parts() {
        let (mut params, gen) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let g = Graph::new();
        let tokens = g.constant(Tensor::randn(&[2, 3, 8], 1.0, &mut rng));
        let prompts = gen.generate(&g, &params, tokens, 1);
        let sq = g.mul(prompts, prompts);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut params);
        for part in [
            "cdap.mlp.fc1.weight",
            "cdap.ccda.weight",
            "cdap.film.phi.weight",
            "cdap.task_keys.weight",
        ] {
            let id = params.id(part).expect(part);
            assert!(params.grad(id).norm() > 0.0, "no gradient reached {part}");
        }
    }
}
