//! Shared machinery for the baseline FDIL strategies.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use refil_data::{minibatches, Batch};
use refil_fed::{DomainEvaluator, EvalContext, TrainSetting};
use refil_nn::models::{BackboneConfig, PromptedBackbone};
use refil_nn::{clip_grad_norm, Graph, InferenceSession, Params, Sgd, Tensor, Var};

/// Builds prompt tokens for a forward pass (e.g. pool lookup + concat).
pub(crate) type PromptBuilder<'a> = &'a dyn Fn(&Graph, &Params) -> Var;

/// Hyperparameters shared by every method in the evaluation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MethodConfig {
    /// Backbone architecture (identical across methods, as in the paper).
    pub backbone: BackboneConfig,
    /// SGD learning rate (paper: 0.03–0.06 depending on dataset).
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Gradient-clipping threshold.
    pub clip: f32,
    /// Learning-rate multiplier for the feature extractor. Prompt-based
    /// continual learning assumes a relatively stable backbone; every method
    /// shares this setting, so comparisons stay fair.
    pub extractor_lr_scale: f32,
    /// Prompt-based methods (L2P, DualPrompt, RefFiL) adapt through prompts
    /// over a stable representation: after the first task the shared
    /// extractor/attention weights train at `stable_backbone_scale` while
    /// prompts and the classifier keep the full rate. This mirrors the
    /// frozen-pretrained-backbone assumption of the original L2P/DualPrompt
    /// and is switched on only for prompt-based strategies.
    pub stable_after_first_task: bool,
    /// Backbone learning-rate multiplier applied from task 2 on when
    /// [`MethodConfig::stable_after_first_task`] is set.
    pub stable_backbone_scale: f32,
    /// Prompt length (tokens per prompt) for prompt-based methods.
    pub prompt_len: usize,
    /// Prompt-pool size for FedL2P† / FedDualPrompt†.
    pub pool_size: usize,
    /// Prompts selected per query for pool variants.
    pub top_n: usize,
    /// EWC constraint factor lambda (paper: 300).
    pub ewc_lambda: f32,
    /// Distillation temperature for FedLwF (paper: 2).
    pub kd_temperature: f32,
    /// Weight of the distillation term for FedLwF.
    pub kd_weight: f32,
    /// Upper bound on the number of tasks (sizes task-conditioned tables).
    pub max_tasks: usize,
    /// Model-initialization seed (shared so every method starts identically).
    pub init_seed: u64,
}

impl Default for MethodConfig {
    fn default() -> Self {
        Self {
            backbone: BackboneConfig::default(),
            lr: 0.03,
            momentum: 0.9,
            clip: 5.0,
            extractor_lr_scale: 0.15,
            stable_after_first_task: false,
            stable_backbone_scale: 0.2,
            prompt_len: 4,
            pool_size: 8,
            top_n: 2,
            ewc_lambda: 300.0,
            kd_temperature: 2.0,
            kd_weight: 1.0,
            max_tasks: 8,
            init_seed: 7,
        }
    }
}

/// Backbone + parameter store + SGD settings, shared by all strategies.
#[derive(Debug, Clone)]
pub struct ModelCore {
    /// The shared backbone.
    pub model: PromptedBackbone,
    /// Parameter store (backbone first; strategies append their own).
    pub params: Params,
    /// Method hyperparameters.
    pub cfg: MethodConfig,
}

impl ModelCore {
    /// Builds the backbone deterministically from `cfg.init_seed`.
    pub fn new(cfg: MethodConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.init_seed);
        let mut params = Params::new();
        let model = PromptedBackbone::new(&mut params, "backbone", cfg.backbone, &mut rng);
        Self { model, params, cfg }
    }

    /// Loads a flat global parameter vector.
    pub fn load(&mut self, flat: &[f32]) {
        self.params.load_flat(flat);
    }

    /// Exports the flat parameter vector.
    pub fn flat(&self) -> Vec<f32> {
        self.params.to_flat()
    }

    /// A per-session working copy with `flat` loaded: the starting point for
    /// one client's local training. Sessions clone rather than mutate the
    /// shared core so they can run concurrently within a round.
    pub fn session(&self, flat: &[f32]) -> ModelCore {
        let mut core = self.clone();
        core.load(flat);
        core
    }

    /// Runs the standard local-SGD loop. `batch_loss` builds the total loss
    /// for one minibatch; `post_backward` (if any) injects manual gradient
    /// terms (e.g. the EWC penalty) after autodiff but before the step.
    pub fn train_local<F, P>(
        &mut self,
        setting: &TrainSetting<'_>,
        mut batch_loss: F,
        mut post_backward: P,
    ) where
        F: FnMut(&Graph, &Params, &Batch) -> Var,
        P: FnMut(&mut Params),
    {
        let mut rng = StdRng::seed_from_u64(setting.seed);
        let stabilize = self.cfg.stable_after_first_task && setting.task > 0;
        let scales: Vec<f32> = self
            .params
            .iter()
            .map(|(_, e)| {
                let shared_backbone = e.name.starts_with("backbone.extractor")
                    || e.name.starts_with("backbone.block")
                    || e.name.starts_with("backbone.cls");
                if stabilize && shared_backbone {
                    self.cfg.stable_backbone_scale
                } else if e.name.starts_with("backbone.extractor") {
                    self.cfg.extractor_lr_scale
                } else {
                    1.0
                }
            })
            .collect();
        let mut opt = Sgd::new(self.cfg.lr)
            .with_momentum(self.cfg.momentum)
            .with_param_lr_scales(scales);
        for _epoch in 0..setting.local_epochs {
            for batch in minibatches(setting.samples, setting.batch_size, &mut rng) {
                self.params.zero_grad();
                let g = Graph::new();
                let loss = batch_loss(&g, &self.params, &batch);
                g.backward(loss, &mut self.params);
                post_backward(&mut self.params);
                clip_grad_norm(&mut self.params, self.cfg.clip);
                opt.step(&mut self.params);
            }
        }
    }

    /// A read-only parameter snapshot with `flat` loaded — the weights an
    /// evaluation context shares across worker threads.
    pub fn eval_params(&self, flat: &[f32]) -> Params {
        let mut params = self.params.clone();
        params.load_flat(flat);
        params
    }

    /// Final `[CLS]` representations under `flat` with the given prompts.
    pub(crate) fn cls_with_prompts(
        &mut self,
        flat: &[f32],
        features: &Tensor,
        prompts: Option<PromptBuilder<'_>>,
    ) -> Vec<Vec<f32>> {
        self.load(flat);
        let g = Graph::new();
        let pv = prompts.map(|f| f(&g, &self.params));
        let out = self.model.forward(&g, &self.params, features, pv);
        let cls = g.value(out.cls);
        let d = cls.shape()[1];
        cls.data().chunks(d).map(<[f32]>::to_vec).collect()
    }
}

/// Prompt-free evaluation context shared by the plain baselines (Finetune,
/// FedProx, FedLwF, FedEWC, the rehearsal oracle): the backbone plus a
/// parameter snapshot under the evaluated global vector. Each worker predicts
/// through its own [`PlainEvalContext::evaluator`], whose reusable tape-free
/// inference session recycles forward buffers across batches.
pub(crate) struct PlainEvalContext {
    model: PromptedBackbone,
    params: Params,
}

impl PlainEvalContext {
    /// Snapshots `core`'s backbone with `global` loaded.
    pub(crate) fn new(core: &ModelCore, global: &[f32]) -> Self {
        Self {
            model: core.model.clone(),
            params: core.eval_params(global),
        }
    }
}

impl EvalContext for PlainEvalContext {
    fn evaluator(&self) -> Box<dyn DomainEvaluator + '_> {
        Box::new(PlainEvaluator {
            ctx: self,
            session: InferenceSession::new(),
        })
    }
}

struct PlainEvaluator<'a> {
    ctx: &'a PlainEvalContext,
    session: InferenceSession,
}

impl DomainEvaluator for PlainEvaluator<'_> {
    fn predict_domain(&mut self, features: &Tensor, _domain: usize) -> Vec<usize> {
        self.ctx
            .model
            .predict_in(&mut self.session, &self.ctx.params, features)
    }
}

/// Adds the gradient of `0.5 * lambda * sum_i fisher_i * (theta_i - anchor_i)^2`
/// directly to the parameter gradients (flat layout must match
/// [`Params::to_flat`]).
///
/// # Panics
///
/// Panics if lengths mismatch.
pub(crate) fn add_quadratic_penalty_grads(
    params: &mut Params,
    anchor: &[f32],
    fisher: &[f32],
    lambda: f32,
) {
    let theta = params.to_flat();
    assert_eq!(theta.len(), anchor.len(), "anchor length mismatch");
    assert_eq!(theta.len(), fisher.len(), "fisher length mismatch");
    let mut off = 0usize;
    let ids: Vec<_> = params.iter().map(|(id, e)| (id, e.value.numel())).collect();
    for (id, n) in ids {
        let grad = params.grad_mut(id);
        for (j, gslot) in grad.data_mut().iter_mut().enumerate() {
            let i = off + j;
            *gslot += lambda * fisher[i] * (theta[i] - anchor[i]);
        }
        off += n;
    }
}

/// Estimates the diagonal Fisher information of the cross-entropy loss at the
/// current parameters on `samples` (squared gradients averaged over
/// minibatches). Returns a flat vector aligned with [`Params::to_flat`].
pub(crate) fn estimate_fisher(
    core: &mut ModelCore,
    samples: &[refil_data::Sample],
    max_samples: usize,
    seed: u64,
) -> Vec<f32> {
    let mut fisher = vec![0.0f32; core.params.num_scalars()];
    if samples.is_empty() {
        return fisher;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let take: Vec<refil_data::Sample> = samples.iter().take(max_samples.max(1)).cloned().collect();
    let mut batches = 0usize;
    for batch in minibatches(&take, 32, &mut rng) {
        core.params.zero_grad();
        let g = Graph::new();
        let out = core.model.forward(&g, &core.params, &batch.features, None);
        let loss = g.cross_entropy(out.logits, &batch.labels);
        g.backward(loss, &mut core.params);
        let mut off = 0usize;
        for (_, entry) in core.params.iter() {
            for (j, &gv) in entry.grad.data().iter().enumerate() {
                fisher[off + j] += gv * gv;
            }
            off += entry.grad.numel();
        }
        batches += 1;
    }
    if batches > 0 {
        let inv = 1.0 / batches as f32;
        for f in &mut fisher {
            *f *= inv;
        }
    }
    core.params.zero_grad();
    fisher
}

#[cfg(test)]
mod tests {
    use super::*;
    use refil_data::Sample;
    use refil_fed::ClientGroup;
    use refil_nn::models::BackboneConfig;

    pub(crate) fn tiny_method_config() -> MethodConfig {
        MethodConfig {
            backbone: BackboneConfig {
                in_dim: 8,
                extractor_width: 16,
                extractor_depth: 1,
                n_patches: 2,
                token_dim: 8,
                heads: 2,
                blocks: 1,
                classes: 3,
                extractor: refil_nn::models::ExtractorKind::ResidualMlp,
            },
            lr: 0.05,
            max_tasks: 3,
            ..MethodConfig::default()
        }
    }

    fn toy_samples(n: usize, seed: u64) -> Vec<Sample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let k = i % 3;
                let features = (0..8)
                    .map(|j| {
                        let c = if j % 3 == k { 2.0 } else { -1.0 };
                        c + refil_nn::gaussian(&mut rng) * 0.3
                    })
                    .collect();
                Sample { features, label: k }
            })
            .collect()
    }

    #[test]
    fn train_local_reduces_loss() {
        let mut core = ModelCore::new(tiny_method_config());
        let samples = toy_samples(48, 1);
        let eval_loss = |core: &mut ModelCore| {
            let g = Graph::new();
            let batch = refil_data::collate(&samples.iter().collect::<Vec<_>>());
            let out = core.model.forward(&g, &core.params, &batch.features, None);
            let l = g.cross_entropy(out.logits, &batch.labels);
            g.value(l).data()[0]
        };
        let before = eval_loss(&mut core);
        let setting = TrainSetting {
            client_id: 0,
            task: 0,
            round: 0,
            group: ClientGroup::New,
            samples: &samples,
            local_epochs: 3,
            batch_size: 16,
            seed: 5,
        };
        let model = core.model.clone();
        core.train_local(
            &setting,
            |g, p, b| {
                let out = model.forward(g, p, &b.features, None);
                g.cross_entropy(out.logits, &b.labels)
            },
            |_| {},
        );
        let after = eval_loss(&mut core);
        assert!(after < before, "loss did not drop: {before} -> {after}");
    }

    #[test]
    fn quadratic_penalty_grad_matches_formula() {
        let mut core = ModelCore::new(tiny_method_config());
        let n = core.params.num_scalars();
        let anchor = vec![0.0f32; n];
        let fisher = vec![2.0f32; n];
        core.params.zero_grad();
        add_quadratic_penalty_grads(&mut core.params, &anchor, &fisher, 3.0);
        // grad_i should be 3 * 2 * theta_i.
        let theta = core.params.to_flat();
        let mut off = 0;
        for (_, e) in core.params.iter() {
            for (j, &g) in e.grad.data().iter().enumerate() {
                let expect = 6.0 * theta[off + j];
                assert!((g - expect).abs() < 1e-5, "grad {g} expect {expect}");
            }
            off += e.grad.numel();
        }
    }

    #[test]
    fn fisher_is_nonnegative_and_nonzero() {
        let mut core = ModelCore::new(tiny_method_config());
        let samples = toy_samples(32, 2);
        let fisher = estimate_fisher(&mut core, &samples, 32, 0);
        assert!(fisher.iter().all(|&f| f >= 0.0));
        assert!(fisher.iter().any(|&f| f > 0.0), "fisher all zero");
    }

    #[test]
    fn fisher_empty_data_is_zero() {
        let mut core = ModelCore::new(tiny_method_config());
        let fisher = estimate_fisher(&mut core, &[], 32, 0);
        assert!(fisher.iter().all(|&f| f == 0.0));
    }
}
