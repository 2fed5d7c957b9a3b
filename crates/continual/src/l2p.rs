//! FedL2P: Learning-to-Prompt (Wang et al., CVPR 2022) adapted to FDIL.
//!
//! A pool of learnable prompts with learnable keys; each input selects its
//! top-N prompts by cosine similarity between an input query (pooled patch
//! features) and the keys, and a key-matching loss pulls selected keys toward
//! their queries. The paper evaluates two variants: the pool *deactivated*
//! ("FedL2P": one shared prompt, no selection) and *reactivated*
//! ("FedL2P†"). Both are available via [`FedL2p::new`]'s `pool` flag.

use rand::rngs::StdRng;
use rand::SeedableRng;

use refil_fed::{
    ClientUpdate, DomainEvaluator, EvalContext, FdilStrategy, RoundContext, SessionOutput,
    Telemetry, TrainSetting, WireMessage,
};
use refil_nn::models::PromptedBackbone;
use refil_nn::{init, Graph, InferenceSession, ParamId, Params, Tensor, Var};

use crate::common::{MethodConfig, ModelCore};

/// Federated Learning-to-Prompt (with or without the prompt pool).
#[derive(Debug, Clone)]
pub struct FedL2p {
    core: ModelCore,
    model: PromptedBackbone,
    pool: Option<PoolParams>,
    single_prompt: Option<ParamId>,
    key_loss_weight: f32,
}

#[derive(Debug, Clone, Copy)]
struct PoolParams {
    prompts: ParamId,
    keys: ParamId,
    pool_size: usize,
    top_n: usize,
}

impl FedL2p {
    /// Builds the strategy. `pool = true` gives the dagger (†) variant with
    /// the prompt pool reactivated.
    pub fn new(cfg: MethodConfig, pool: bool) -> Self {
        let mut core = ModelCore::new(cfg);
        // Prompt parameters are appended after the backbone so they federate
        // through the same flat vector.
        let mut rng = StdRng::seed_from_u64(cfg.init_seed ^ L2P_SEED);
        let d = cfg.backbone.token_dim;
        let (pool_params, single_prompt) = if pool {
            let prompts = core.params.insert(
                "l2p.pool",
                init::prompt_normal(&[cfg.pool_size * cfg.prompt_len, d], &mut rng),
                true,
            );
            let keys = core.params.insert(
                "l2p.keys",
                init::prompt_normal(&[cfg.pool_size, d], &mut rng),
                true,
            );
            (
                Some(PoolParams {
                    prompts,
                    keys,
                    pool_size: cfg.pool_size,
                    top_n: cfg.top_n.min(cfg.pool_size),
                }),
                None,
            )
        } else {
            let p = core.params.insert(
                "l2p.prompt",
                init::prompt_normal(&[cfg.prompt_len, d], &mut rng),
                true,
            );
            (None, Some(p))
        };
        let model = core.model.clone();
        Self {
            core,
            model,
            pool: pool_params,
            single_prompt,
            key_loss_weight: 0.5,
        }
    }

    /// Whether the prompt pool is active (the † variant).
    pub fn pool_enabled(&self) -> bool {
        self.pool.is_some()
    }

    /// Pooled patch-token query `q(x)` per sample (detached, `[b, d]` rows),
    /// mirroring L2P's frozen query function. Built on the caller's graph:
    /// the query subgraph feeds no loss, so backward never visits it and the
    /// detachment is preserved, while tape-free evaluation can recycle its
    /// buffers along with the rest of the forward plan.
    fn queries(&self, g: &Graph, params: &Params, features: &Tensor) -> Vec<Vec<f32>> {
        let tokens = self.model.tokenize(g, params, features);
        let n = self.model.config().n_patches;
        let patches = g.slice(tokens, 1, 1, n);
        let pooled = g.mean_tokens(patches); // [b, d]
        let d = self.model.config().token_dim;
        g.with_value(pooled, |t| {
            t.data().chunks(d).map(<[f32]>::to_vec).collect()
        })
    }

    /// Top-N pool indices per query row.
    fn select(&self, params: &Params, queries: &[Vec<f32>]) -> Vec<Vec<usize>> {
        let pool = self.pool.expect("select requires pool");
        let keys = params.value(pool.keys);
        let d = self.model.config().token_dim;
        queries
            .iter()
            .map(|q| {
                let mut sims: Vec<(usize, f32)> = (0..pool.pool_size)
                    .map(|m| {
                        let k = &keys.data()[m * d..(m + 1) * d];
                        (m, refil_clustering::cosine_similarity(q, k))
                    })
                    .collect();
                sims.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                sims.truncate(pool.top_n);
                sims.into_iter().map(|(m, _)| m).collect()
            })
            .collect()
    }

    /// Builds the `[b, L, d]` prompt variable for a batch (plus the key-loss
    /// ingredients when the pool is active).
    fn batch_prompts(
        &self,
        g: &Graph,
        params: &Params,
        features: &Tensor,
    ) -> (Var, Option<(Var, Tensor)>) {
        let b = features.shape()[0];
        let plen = self.core.cfg.prompt_len;
        let d = self.model.config().token_dim;
        match (&self.pool, self.single_prompt) {
            (Some(pool), _) => {
                let queries = self.queries(g, params, features);
                let selected = self.select(params, &queries);
                // Gather prompt rows per sample.
                let mut rows = Vec::with_capacity(b * pool.top_n * plen);
                let mut key_rows = Vec::with_capacity(b * pool.top_n);
                let mut query_rows = Vec::with_capacity(b * pool.top_n * d);
                for (q, sel) in queries.iter().zip(&selected) {
                    for &m in sel {
                        key_rows.push(m);
                        query_rows.extend_from_slice(q);
                        for l in 0..plen {
                            rows.push(m * plen + l);
                        }
                    }
                }
                let pool_var = g.param(params, pool.prompts);
                let gathered = g.embedding(pool_var, &rows); // [b*top_n*plen, d]
                let prompts = g.reshape(gathered, &[b, pool.top_n * plen, d]);
                let keys_var = g.param(params, pool.keys);
                let keys_sel = g.embedding(keys_var, &key_rows); // [b*top_n, d]
                let query_t = Tensor::from_vec(query_rows, &[b * pool.top_n, d]);
                (prompts, Some((keys_sel, query_t)))
            }
            (None, Some(p)) => {
                let pv = g.param(params, p);
                (self.model.broadcast_prompts(g, pv, b), None)
            }
            _ => unreachable!("either pool or single prompt is set"),
        }
    }
}

/// Seed salt for prompt-parameter initialization ("L2P" in ASCII).
const L2P_SEED: u64 = 0x4c_32_50;

struct FedL2pCtx<'a> {
    strat: &'a FedL2p,
    global: &'a [f32],
}

impl RoundContext for FedL2pCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
        let strat = self.strat;
        let mut core = strat.core.session(self.global);
        let key_w = strat.key_loss_weight;
        core.train_local(
            setting,
            |g, p, b| {
                let (prompts, key_info) = strat.batch_prompts(g, p, &b.features);
                let out = strat.model.forward(g, p, &b.features, Some(prompts));
                let ce = g.cross_entropy(out.logits, &b.labels);
                match key_info {
                    Some((keys_sel, query_t)) => {
                        // Pull selected keys toward their queries:
                        // loss += w * (1 - mean cosine similarity).
                        let qv = g.constant(query_t);
                        let kn = g.row_l2_normalize(keys_sel);
                        let qn = g.row_l2_normalize(qv);
                        let prod = g.mul(kn, qn);
                        let total = g.sum_all(prod);
                        let rows = g.shape(kn)[0] as f32;
                        let mean_sim = g.scale(total, 1.0 / rows);
                        let neg = g.scale(mean_sim, -key_w);
                        let shifted = g.add_scalar(neg, key_w);
                        g.add(ce, shifted)
                    }
                    None => ce,
                }
            },
            |_| {},
        );
        ClientUpdate {
            flat: core.flat(),
            weight: setting.samples.len() as f32,
        }
        .into()
    }
}

impl FdilStrategy for FedL2p {
    fn name(&self) -> String {
        if self.pool.is_some() {
            "FedL2P+pool".into()
        } else {
            "FedL2P".into()
        }
    }

    fn init_global(&mut self) -> Vec<f32> {
        self.core.flat()
    }

    fn round_ctx<'a>(
        &'a self,
        _task: usize,
        _round: usize,
        global: &'a [f32],
        _broadcast: Option<&'a WireMessage>,
    ) -> Box<dyn RoundContext + 'a> {
        Box::new(FedL2pCtx {
            strat: self,
            global,
        })
    }

    fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
        Box::new(L2pEvalContext {
            strat: self,
            params: self.core.eval_params(global),
        })
    }

    fn cls_embeddings(&mut self, global: &[f32], features: &Tensor) -> Vec<Vec<f32>> {
        self.core.load(global);
        let g = Graph::new();
        let (prompts, _) = self.batch_prompts(&g, &self.core.params, features);
        let out = self
            .model
            .forward(&g, &self.core.params, features, Some(prompts));
        let cls = g.value(out.cls);
        let d = cls.shape()[1];
        cls.data().chunks(d).map(<[f32]>::to_vec).collect()
    }
}

/// Shared read-only eval view: the strategy (for prompt-pool metadata and
/// selection) plus a parameter snapshot under the evaluated global vector.
struct L2pEvalContext<'a> {
    strat: &'a FedL2p,
    params: Params,
}

impl EvalContext for L2pEvalContext<'_> {
    fn evaluator(&self) -> Box<dyn DomainEvaluator + '_> {
        Box::new(L2pEvaluator {
            ctx: self,
            session: InferenceSession::new(),
        })
    }
}

struct L2pEvaluator<'a> {
    ctx: &'a L2pEvalContext<'a>,
    session: InferenceSession,
}

impl DomainEvaluator for L2pEvaluator<'_> {
    fn predict_domain(&mut self, features: &Tensor, _domain: usize) -> Vec<usize> {
        let (strat, params) = (self.ctx.strat, &self.ctx.params);
        self.session.forward(|g| {
            let (prompts, _) = strat.batch_prompts(g, params, features);
            let out = strat.model.forward(g, params, features, Some(prompts));
            g.argmax_last(out.logits)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_cfg, tiny_dataset, tiny_run_config};
    use refil_fed::FdilRunner;

    #[test]
    fn l2p_without_pool_runs() {
        let ds = tiny_dataset();
        let mut strat = FedL2p::new(tiny_cfg(), false);
        assert!(!strat.pool_enabled());
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert!(res.domain_acc[0][0] > 50.0, "{:?}", res.domain_acc);
    }

    #[test]
    fn l2p_with_pool_runs() {
        let ds = tiny_dataset();
        let mut strat = FedL2p::new(tiny_cfg(), true);
        assert!(strat.pool_enabled());
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert!(res.domain_acc[0][0] > 40.0, "{:?}", res.domain_acc);
    }

    #[test]
    fn selection_returns_topn_distinct() {
        let mut strat = FedL2p::new(tiny_cfg(), true);
        let flat = strat.init_global();
        strat.core.load(&flat);
        let x = Tensor::ones(&[3, 8]);
        let q = strat.queries(&Graph::new(), &strat.core.params, &x);
        let sel = strat.select(&strat.core.params, &q);
        assert_eq!(sel.len(), 3);
        for s in &sel {
            assert_eq!(s.len(), strat.pool.unwrap().top_n);
            let mut d = s.clone();
            d.dedup();
            assert_eq!(d.len(), s.len(), "duplicate prompt selected");
        }
    }

    #[test]
    fn prompt_params_are_in_flat_vector() {
        let mut plain = FedL2p::new(tiny_cfg(), false);
        let mut pooled = FedL2p::new(tiny_cfg(), true);
        // Pool variant has strictly more parameters.
        assert!(pooled.init_global().len() > plain.init_global().len());
    }
}
