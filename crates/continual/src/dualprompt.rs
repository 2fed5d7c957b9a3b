//! FedDualPrompt: DualPrompt (Wang et al., ECCV 2022) adapted to FDIL.
//!
//! Two prompt kinds: a General-Prompt (G-prompt) shared by every task, and
//! Expert-Prompts (E-prompts) carrying task-specific guidance, selected at
//! inference by matching an input query against learned task keys. As in the
//! paper's comparison, the pool-deactivated variant ("FedDualPrompt") keeps a
//! single shared E-prompt; the reactivated variant ("FedDualPrompt†")
//! maintains one E-prompt per task with key matching.

use rand::rngs::StdRng;
use rand::SeedableRng;

use refil_fed::{
    ClientUpdate, DomainEvaluator, EvalContext, FdilStrategy, RoundContext, SessionOutput,
    Telemetry, TrainSetting, WireMessage,
};
use refil_nn::models::PromptedBackbone;
use refil_nn::{init, Graph, InferenceSession, ParamId, Params, Tensor, Var};

use crate::common::{MethodConfig, ModelCore};

/// Seed salt for prompt-parameter initialization ("DP" in ASCII).
const DUAL_SEED: u64 = 0x44_50;

/// Federated DualPrompt (with or without per-task expert prompts).
#[derive(Debug, Clone)]
pub struct FedDualPrompt {
    core: ModelCore,
    model: PromptedBackbone,
    g_prompt: ParamId,
    experts: Option<ExpertParams>,
    shared_e_prompt: Option<ParamId>,
    current_task: usize,
    key_loss_weight: f32,
}

#[derive(Debug, Clone, Copy)]
struct ExpertParams {
    prompts: ParamId,
    keys: ParamId,
    max_tasks: usize,
}

impl FedDualPrompt {
    /// Builds the strategy. `pool = true` gives the dagger (†) variant with
    /// per-task expert prompts and key matching.
    pub fn new(cfg: MethodConfig, pool: bool) -> Self {
        let mut core = ModelCore::new(cfg);
        let mut rng = StdRng::seed_from_u64(cfg.init_seed ^ DUAL_SEED);
        let d = cfg.backbone.token_dim;
        let g_prompt = core.params.insert(
            "dual.gprompt",
            init::prompt_normal(&[cfg.prompt_len, d], &mut rng),
            true,
        );
        let (experts, shared) = if pool {
            let prompts = core.params.insert(
                "dual.eprompts",
                init::prompt_normal(&[cfg.max_tasks * cfg.prompt_len, d], &mut rng),
                true,
            );
            let keys = core.params.insert(
                "dual.ekeys",
                init::prompt_normal(&[cfg.max_tasks, d], &mut rng),
                true,
            );
            (
                Some(ExpertParams {
                    prompts,
                    keys,
                    max_tasks: cfg.max_tasks,
                }),
                None,
            )
        } else {
            let p = core.params.insert(
                "dual.eprompt",
                init::prompt_normal(&[cfg.prompt_len, d], &mut rng),
                true,
            );
            (None, Some(p))
        };
        let model = core.model.clone();
        Self {
            core,
            model,
            g_prompt,
            experts,
            shared_e_prompt: shared,
            current_task: 0,
            key_loss_weight: 0.5,
        }
    }

    /// Whether per-task expert prompts are active (the † variant).
    pub fn pool_enabled(&self) -> bool {
        self.experts.is_some()
    }

    /// Pooled patch-token query per sample (detached, `[b, d]` rows). Built
    /// on the caller's graph: the query subgraph feeds no loss, so backward
    /// never visits it and the detachment is preserved, while tape-free
    /// evaluation can recycle its buffers with the rest of the forward plan.
    fn queries(&self, g: &Graph, params: &Params, features: &Tensor) -> Vec<Vec<f32>> {
        let tokens = self.model.tokenize(g, params, features);
        let n = self.model.config().n_patches;
        let patches = g.slice(tokens, 1, 1, n);
        let pooled = g.mean_tokens(patches);
        let d = self.model.config().token_dim;
        g.with_value(pooled, |t| {
            t.data().chunks(d).map(<[f32]>::to_vec).collect()
        })
    }

    /// Expert index per sample at inference: best task key by cosine.
    fn select_experts(&self, params: &Params, queries: &[Vec<f32>]) -> Vec<usize> {
        let experts = self.experts.expect("selection requires experts");
        let keys = params.value(experts.keys);
        let d = self.model.config().token_dim;
        queries
            .iter()
            .map(|q| {
                (0..experts.max_tasks)
                    .max_by(|&a, &b| {
                        let ka = &keys.data()[a * d..(a + 1) * d];
                        let kb = &keys.data()[b * d..(b + 1) * d];
                        refil_clustering::cosine_similarity(q, ka)
                            .total_cmp(&refil_clustering::cosine_similarity(q, kb))
                    })
                    .unwrap_or(0)
            })
            .collect()
    }

    /// `[b, g_len + e_len, d]` prompt variable. During training the current
    /// task's expert is used; at inference experts are key-selected.
    fn batch_prompts(
        &self,
        g: &Graph,
        params: &Params,
        features: &Tensor,
        train_task: Option<usize>,
    ) -> (Var, Option<(Var, Tensor)>) {
        let b = features.shape()[0];
        let plen = self.core.cfg.prompt_len;
        let d = self.model.config().token_dim;
        let gp = g.param(params, self.g_prompt);
        let gp_b = self.model.broadcast_prompts(g, gp, b);
        match (&self.experts, self.shared_e_prompt) {
            (Some(experts), _) => {
                let (expert_of, key_info) = match train_task {
                    Some(t) => {
                        let t = t.min(experts.max_tasks - 1);
                        // Key loss: pull this task's key toward the queries.
                        let queries = self.queries(g, params, features);
                        let mut qdata = Vec::with_capacity(b * d);
                        for q in &queries {
                            qdata.extend_from_slice(q);
                        }
                        let keys_var = g.param(params, experts.keys);
                        let key_rows = vec![t; b];
                        let keys_sel = g.embedding(keys_var, &key_rows);
                        (
                            vec![t; b],
                            Some((keys_sel, Tensor::from_vec(qdata, &[b, d]))),
                        )
                    }
                    None => {
                        let queries = self.queries(g, params, features);
                        (self.select_experts(params, &queries), None)
                    }
                };
                let mut rows = Vec::with_capacity(b * plen);
                for &e in &expert_of {
                    for l in 0..plen {
                        rows.push(e * plen + l);
                    }
                }
                let pool_var = g.param(params, experts.prompts);
                let gathered = g.embedding(pool_var, &rows);
                let eprompts = g.reshape(gathered, &[b, plen, d]);
                (g.concat(&[gp_b, eprompts], 1), key_info)
            }
            (None, Some(ep)) => {
                let epv = g.param(params, ep);
                let ep_b = self.model.broadcast_prompts(g, epv, b);
                (g.concat(&[gp_b, ep_b], 1), None)
            }
            _ => unreachable!("either experts or shared E-prompt is set"),
        }
    }
}

struct FedDualPromptCtx<'a> {
    strat: &'a FedDualPrompt,
    global: &'a [f32],
}

impl RoundContext for FedDualPromptCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
        let strat = self.strat;
        let mut core = strat.core.session(self.global);
        let task = setting.task;
        let key_w = strat.key_loss_weight;
        core.train_local(
            setting,
            |g, p, b| {
                let (prompts, key_info) = strat.batch_prompts(g, p, &b.features, Some(task));
                let out = strat.model.forward(g, p, &b.features, Some(prompts));
                let ce = g.cross_entropy(out.logits, &b.labels);
                match key_info {
                    Some((keys_sel, query_t)) => {
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

impl FdilStrategy for FedDualPrompt {
    fn name(&self) -> String {
        if self.experts.is_some() {
            "FedDualPrompt+pool".into()
        } else {
            "FedDualPrompt".into()
        }
    }

    fn init_global(&mut self) -> Vec<f32> {
        self.core.flat()
    }

    fn on_task_start(&mut self, task: usize, _global: &[f32]) {
        self.current_task = task;
    }

    fn round_ctx<'a>(
        &'a self,
        _task: usize,
        _round: usize,
        global: &'a [f32],
        _broadcast: Option<&'a WireMessage>,
    ) -> Box<dyn RoundContext + 'a> {
        Box::new(FedDualPromptCtx {
            strat: self,
            global,
        })
    }

    fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
        Box::new(DualPromptEvalContext {
            strat: self,
            params: self.core.eval_params(global),
        })
    }

    fn cls_embeddings(&mut self, global: &[f32], features: &Tensor) -> Vec<Vec<f32>> {
        self.core.load(global);
        let g = Graph::new();
        let (prompts, _) = self.batch_prompts(&g, &self.core.params, features, None);
        let out = self
            .model
            .forward(&g, &self.core.params, features, Some(prompts));
        let cls = g.value(out.cls);
        let d = cls.shape()[1];
        cls.data().chunks(d).map(<[f32]>::to_vec).collect()
    }
}

/// Shared read-only eval view: the strategy (for expert selection) plus a
/// parameter snapshot under the evaluated global vector.
struct DualPromptEvalContext<'a> {
    strat: &'a FedDualPrompt,
    params: Params,
}

impl EvalContext for DualPromptEvalContext<'_> {
    fn evaluator(&self) -> Box<dyn DomainEvaluator + '_> {
        Box::new(DualPromptEvaluator {
            ctx: self,
            session: InferenceSession::new(),
        })
    }
}

struct DualPromptEvaluator<'a> {
    ctx: &'a DualPromptEvalContext<'a>,
    session: InferenceSession,
}

impl DomainEvaluator for DualPromptEvaluator<'_> {
    fn predict_domain(&mut self, features: &Tensor, _domain: usize) -> Vec<usize> {
        let (strat, params) = (self.ctx.strat, &self.ctx.params);
        self.session.forward(|g| {
            let (prompts, _) = strat.batch_prompts(g, params, features, None);
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
    fn dualprompt_without_pool_runs() {
        let ds = tiny_dataset();
        let mut strat = FedDualPrompt::new(tiny_cfg(), false);
        assert!(!strat.pool_enabled());
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert!(res.domain_acc[0][0] > 50.0, "{:?}", res.domain_acc);
    }

    #[test]
    fn dualprompt_with_pool_runs() {
        let ds = tiny_dataset();
        let mut strat = FedDualPrompt::new(tiny_cfg(), true);
        assert!(strat.pool_enabled());
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert!(res.domain_acc[0][0] > 40.0, "{:?}", res.domain_acc);
    }

    #[test]
    fn expert_selection_in_range() {
        let mut strat = FedDualPrompt::new(tiny_cfg(), true);
        let flat = strat.init_global();
        strat.core.load(&flat);
        let x = Tensor::ones(&[4, 8]);
        let q = strat.queries(&Graph::new(), &strat.core.params, &x);
        let sel = strat.select_experts(&strat.core.params, &q);
        assert_eq!(sel.len(), 4);
        for &s in &sel {
            assert!(s < strat.core.cfg.max_tasks);
        }
    }

    #[test]
    fn g_and_e_prompts_both_present() {
        let strat = FedDualPrompt::new(tiny_cfg(), false);
        assert!(strat.core.params.id("dual.gprompt").is_some());
        assert!(strat.core.params.id("dual.eprompt").is_some());
        let pooled = FedDualPrompt::new(tiny_cfg(), true);
        assert!(pooled.core.params.id("dual.eprompts").is_some());
        assert!(pooled.core.params.id("dual.ekeys").is_some());
    }
}
