//! The RefFiL strategy: Algorithm 1 end to end.
//!
//! Client side (lines 14–29): tokenize, generate instance-level prompts with
//! the CDAP generator, compute `L_CE` (local prompts), `L_GPL` (generalized
//! global prompt), and `L_DPCL` (contrastive, temperature-decayed), train
//! with SGD, then upload the class-wise Local Prompt Groups together with the
//! updated model. Server side (lines 1–13): FedAvg the models, cluster the
//! uploaded prompts domain-wise with FINCH, and broadcast the clustered
//! global prompts for the next round.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use refil_continual::{MethodConfig, ModelCore};
use refil_fed::{
    ClientGroup, ClientUpdate, DomainEvaluator, EvalContext, FdilStrategy, GlobalPromptBroadcast,
    PromptUpload, RoundContext, SessionOutput, Telemetry, TrainSetting, WireMessage,
};
use refil_nn::models::PromptedBackbone;
use refil_nn::{init, Graph, InferenceSession, ParamId, Params, Tensor, Var};

use crate::cdap::{CdapConfig, CdapGenerator};
use crate::dpcl::dpcl_loss;
use crate::prompts::{ClusterMode, GlobalPromptStore, LocalPromptGroup};
use crate::temperature::TemperatureSchedule;

/// Component toggles for the Table 5 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefFiLFlags {
    /// Use the CDAP generator (otherwise a single learnable prompt).
    pub use_cdap: bool,
    /// Use the Global Prompt Learning loss (Eq. 9).
    pub use_gpl: bool,
    /// Use the Domain-specific Prompt Contrastive loss (Eq. 6).
    pub use_dpcl: bool,
}

impl Default for RefFiLFlags {
    /// The full method: all three components on.
    fn default() -> Self {
        Self {
            use_cdap: true,
            use_gpl: true,
            use_dpcl: true,
        }
    }
}

impl RefFiLFlags {
    /// Whether the global prompt store is needed at all.
    pub fn needs_store(&self) -> bool {
        self.use_gpl || self.use_dpcl
    }
}

/// RefFiL hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RefFiLConfig {
    /// The shared method configuration (backbone, lr, prompt length, ...).
    pub method: MethodConfig,
    /// DPCL temperature decay (Eq. 7; paper defaults).
    pub temperature: TemperatureSchedule,
    /// Component toggles (all on for the full method).
    pub flags: RefFiLFlags,
    /// Hidden width of the CDAP token-axis MLP.
    pub cdap_hidden: usize,
    /// Width of the CDAP task key embedding.
    pub key_dim: usize,
    /// Per-class cap on server-side prompt representatives.
    pub store_cap: usize,
    /// Max samples per class used when computing the uploaded LPG.
    pub lpg_max_samples: usize,
    /// Server-side prompt condensation algorithm (FINCH in the paper;
    /// k-means / plain averaging for the `ablation_clustering` bench).
    pub cluster_mode: ClusterMode,
    /// When set, clients upload their LPG once per ~50 local samples instead
    /// of exactly once — the data-size-weighted sharing the paper's balanced
    /// averaging (Eq. 2) deliberately avoids (`ablation_prompt_weighting`).
    pub weighted_prompt_sharing: bool,
    /// When set, evaluation ignores the task-ID hint and infers the task per
    /// sample by maximum prediction confidence across all task keys —
    /// removing the task-ID dependence the paper's Limitations section
    /// acknowledges (at `max_tasks`-times inference cost).
    pub task_free_inference: bool,
    /// When set, clients exchange only the prompt machinery (the CDAP
    /// generator / fixed prompt, the task keys, and the tokenizer) in their
    /// round updates once the task-0 warm-up has trained the shared
    /// backbone; from task 1 on the extractor, attention blocks, and
    /// classifier are FLEX-style frozen at the last globally aggregated
    /// weights, locally and over the wire. This is the communication-light
    /// deployment the paper motivates: prompts are the learned state that
    /// travels, and the steady-state uplink shrinks to the prompt
    /// machinery's footprint. At bench scale it trades accuracy for bytes —
    /// the from-scratch backbone here keeps benefiting from aggregation,
    /// unlike the paper's pretrained frozen ViT (see README, "Communication:
    /// accuracy vs bytes").
    #[serde(default)]
    pub prompt_only: bool,
}

impl RefFiLConfig {
    /// Full RefFiL with the paper's hyperparameters on top of `method`.
    pub fn new(method: MethodConfig) -> Self {
        Self {
            method,
            temperature: TemperatureSchedule::default(),
            flags: RefFiLFlags::default(),
            cdap_hidden: 16,
            key_dim: 8,
            store_cap: 16,
            lpg_max_samples: 32,
            cluster_mode: ClusterMode::Finch,
            weighted_prompt_sharing: false,
            task_free_inference: false,
            prompt_only: false,
        }
    }

    /// Overrides the ablation flags.
    pub fn with_flags(mut self, flags: RefFiLFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Overrides the server-side clustering algorithm.
    pub fn with_cluster_mode(mut self, mode: ClusterMode) -> Self {
        self.cluster_mode = mode;
        self
    }

    /// Switches to data-size-weighted prompt sharing (ablation).
    pub fn with_weighted_prompt_sharing(mut self, on: bool) -> Self {
        self.weighted_prompt_sharing = on;
        self
    }

    /// Switches evaluation to confidence-based task inference.
    pub fn with_task_free_inference(mut self, on: bool) -> Self {
        self.task_free_inference = on;
        self
    }

    /// Switches to prompt-only parameter exchange after the task-0 warm-up
    /// (the shared backbone freezes at the last aggregated weights; only
    /// the prompt machinery travels uplink).
    pub fn with_prompt_only(mut self, on: bool) -> Self {
        self.prompt_only = on;
        self
    }
}

/// The RefFiL federated domain-incremental learning strategy.
#[derive(Debug, Clone)]
pub struct RefFiL {
    core: ModelCore,
    model: PromptedBackbone,
    cdap: Option<CdapGenerator>,
    fixed_prompt: Option<ParamId>,
    store: GlobalPromptStore,
    pending_uploads: Vec<LocalPromptGroup>,
    cfg: RefFiLConfig,
    current_task: usize,
    telemetry: Telemetry,
}

impl RefFiL {
    /// Builds RefFiL (or an ablated variant, per `cfg.flags`).
    pub fn new(mut cfg: RefFiLConfig) -> Self {
        if cfg.prompt_only {
            // Prompt-only exchange only works if local training matches what
            // actually travels: after the task-0 warm-up the shared backbone
            // is hard-frozen (not just slowed), so prompts adapt against the
            // exact weights every other client and the server hold. Without
            // this, clients co-adapt prompts to local backbone drift that the
            // masked exchange then throws away.
            cfg.method.stable_after_first_task = true;
            cfg.method.stable_backbone_scale = 0.0;
        }
        let mut core = ModelCore::new(cfg.method);
        let bb = cfg.method.backbone;
        let mut rng = StdRng::seed_from_u64(cfg.method.init_seed ^ 0x5265_6646_694c); // "RefFiL"
        let (cdap, fixed_prompt) = if cfg.flags.use_cdap {
            let gen = CdapGenerator::new(
                &mut core.params,
                "cdap",
                CdapConfig {
                    token_dim: bb.token_dim,
                    seq_len: bb.n_patches + 1,
                    prompt_len: cfg.method.prompt_len,
                    hidden: cfg.cdap_hidden,
                    key_dim: cfg.key_dim,
                    max_tasks: cfg.method.max_tasks,
                },
                &mut rng,
            );
            (Some(gen), None)
        } else {
            let p = core.params.insert(
                "refil.fixed_prompt",
                init::prompt_normal(&[cfg.method.prompt_len, bb.token_dim], &mut rng),
                true,
            );
            (None, Some(p))
        };
        let model = core.model.clone();
        let dim = cfg.method.prompt_len * bb.token_dim;
        let store = GlobalPromptStore::new(bb.classes, dim)
            .with_cap(cfg.store_cap)
            .with_mode(cfg.cluster_mode);
        Self {
            core,
            model,
            cdap,
            fixed_prompt,
            store,
            pending_uploads: Vec::new(),
            cfg,
            current_task: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// The active ablation flags.
    pub fn flags(&self) -> RefFiLFlags {
        self.cfg.flags
    }

    /// Read-only view of the server-side global prompt store.
    pub fn prompt_store(&self) -> &GlobalPromptStore {
        &self.store
    }

    /// Generates the `[b, p, d]` local prompt variable for `tokens`.
    fn local_prompts(
        model: &PromptedBackbone,
        cdap: &Option<CdapGenerator>,
        fixed: Option<ParamId>,
        g: &Graph,
        params: &Params,
        tokens: Var,
        task_id: usize,
    ) -> Var {
        match cdap {
            Some(gen) => gen.generate(g, params, tokens, task_id),
            None => {
                let b = g.shape(tokens)[0];
                let pv = g.param(params, fixed.expect("fixed prompt registered"));
                model.broadcast_prompts(g, pv, b)
            }
        }
    }

    /// Computes the client's Local Prompt Group (Eq. 2): per-class balanced
    /// means of generated prompts over (a subsample of) the local data,
    /// under the given (locally trained) parameters.
    ///
    /// The class subsamples are stacked class-major and generated in one
    /// tape-free forward; forwards are row-independent, so each class's
    /// mean over its contiguous rows is bit-identical to generating that
    /// class on its own.
    fn compute_lpg(&self, params: &Params, setting: &TrainSetting<'_>) -> LocalPromptGroup {
        let mut by_class: Vec<Vec<&refil_data::Sample>> =
            vec![Vec::new(); self.model.config().classes];
        for s in setting.samples {
            if by_class[s.label].len() < self.cfg.lpg_max_samples {
                by_class[s.label].push(s);
            }
        }
        let dim_in = self.model.config().in_dim;
        let pd = self.cfg.method.prompt_len * self.model.config().token_dim;
        let rows: usize = by_class.iter().map(Vec::len).sum();
        let mut prompts = Vec::new();
        if rows > 0 {
            let mut data = Vec::with_capacity(rows * dim_in);
            for s in by_class.iter().flatten() {
                data.extend_from_slice(&s.features);
            }
            let x = Tensor::from_vec(data, &[rows, dim_in]);
            InferenceSession::new().forward(|g| {
                let (_, tokens) = self.model.tokenize(g, params, &x);
                let pv = Self::local_prompts(
                    &self.model,
                    &self.cdap,
                    self.fixed_prompt,
                    g,
                    params,
                    tokens,
                    setting.task,
                );
                g.with_value(pv, |vals| {
                    // [rows, p, d], class-major.
                    let mut class_rows = vals.data().chunks(pd);
                    for (k, samples) in by_class.iter().enumerate() {
                        if !samples.is_empty() {
                            let rows = class_rows.by_ref().take(samples.len());
                            prompts.push((k, class_mean(rows, pd, samples.len())));
                        }
                    }
                });
            });
        }
        LocalPromptGroup {
            client_id: setting.client_id,
            prompts,
        }
    }

    /// Task-ID-free prediction: run the model under every task key and keep,
    /// per sample, the prediction whose softmax confidence is highest.
    ///
    /// This removes the framework's dependence on knowing the test domain
    /// (the paper's acknowledged limitation), trading `max_tasks` forward
    /// passes per batch for task-agnostic deployment.
    pub fn predict_task_free(&self, global: &[f32], features: &Tensor) -> Vec<usize> {
        let ctx = self.eval_context(global, true);
        let mut evaluator = ctx.evaluator();
        evaluator.predict_domain(features, 0)
    }

    fn predict_with_task(&self, global: &[f32], features: &Tensor, task_id: usize) -> Vec<usize> {
        let ctx = self.eval_context(global, false);
        let mut evaluator = ctx.evaluator();
        evaluator.predict_domain(features, task_id)
    }

    /// Builds the shared read-only evaluation view under `global`.
    fn eval_context(&self, global: &[f32], task_free: bool) -> RefFiLEvalCtx<'_> {
        RefFiLEvalCtx {
            strat: self,
            params: self.core.eval_params(global),
            tasks: self.cfg.method.max_tasks.min(self.current_task + 1).max(1),
            task_free,
        }
    }
}

/// Mean of `n` prompt rows of width `pd`, summed in row order and then
/// scaled by `1/n`.
fn class_mean<'v>(rows: impl Iterator<Item = &'v [f32]>, pd: usize, n: usize) -> Vec<f32> {
    let mut mean = vec![0.0f32; pd];
    for row in rows {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    let inv = 1.0 / n as f32;
    for m in &mut mean {
        *m *= inv;
    }
    mean
}

/// Shared read-only eval view: the prompt machinery borrowed from the
/// strategy plus a parameter snapshot under the evaluated global vector.
struct RefFiLEvalCtx<'a> {
    strat: &'a RefFiL,
    params: Params,
    /// Task keys to sweep when inferring the task per sample by confidence.
    tasks: usize,
    /// Ignore the domain hint and sweep all task keys (Limitations extension).
    task_free: bool,
}

impl EvalContext for RefFiLEvalCtx<'_> {
    fn evaluator(&self) -> Box<dyn DomainEvaluator + '_> {
        Box::new(RefFiLEvaluator {
            ctx: self,
            session: InferenceSession::new(),
        })
    }
}

struct RefFiLEvaluator<'a> {
    ctx: &'a RefFiLEvalCtx<'a>,
    session: InferenceSession,
}

impl RefFiLEvaluator<'_> {
    /// One prompted forward under task key `task_id`; `read` consumes the
    /// logits while the graph (and its recyclable buffers) is still alive.
    fn forward_with_task<R>(
        &mut self,
        features: &Tensor,
        task_id: usize,
        read: impl FnOnce(&Graph, Var) -> R,
    ) -> R {
        let ctx = self.ctx;
        let (strat, params) = (ctx.strat, &ctx.params);
        self.session.forward(|g| {
            let (feat, tokens) = strat.model.tokenize(g, params, features);
            let prompts = RefFiL::local_prompts(
                &strat.model,
                &strat.cdap,
                strat.fixed_prompt,
                g,
                params,
                tokens,
                task_id,
            );
            let out = strat
                .model
                .forward_from_tokens(g, params, feat, tokens, Some(prompts));
            read(g, out.logits)
        })
    }
}

impl DomainEvaluator for RefFiLEvaluator<'_> {
    fn predict_domain(&mut self, features: &Tensor, domain: usize) -> Vec<usize> {
        if !self.ctx.task_free {
            // The CDAP generator is conditioned on the local task ID (the
            // paper's acknowledged dependence); evaluation on domain d uses
            // key d.
            return self.forward_with_task(features, domain, |g, logits| g.argmax_last(logits));
        }
        // Extension: ignore the hint, run the model under every task key and
        // keep, per sample, the prediction whose softmax confidence is
        // highest.
        let b = features.shape()[0];
        let k = self.ctx.strat.model.config().classes;
        let mut best_conf = vec![f32::NEG_INFINITY; b];
        let mut best_pred = vec![0usize; b];
        for task_id in 0..self.ctx.tasks {
            self.forward_with_task(features, task_id, |g, logits| {
                let probs = g.softmax_last(logits);
                g.with_value(probs, |t| {
                    for (i, row) in t.data().chunks(k).enumerate() {
                        let (pred, &conf) = row
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .expect("non-empty logits");
                        if conf > best_conf[i] {
                            best_conf[i] = conf;
                            best_pred[i] = pred;
                        }
                    }
                });
            });
        }
        best_pred
    }
}

/// Read-only per-round session context: the candidate prompts and
/// generalized prompt parsed from the decoded [`GlobalPromptBroadcast`]
/// frame at round start, so every client session — possibly on different
/// worker threads — trains against identical, wire-faithful inputs.
struct RefFiLRoundCtx<'a> {
    strat: &'a RefFiL,
    global: &'a [f32],
    task: usize,
    cands: Vec<Vec<f32>>,
    cand_classes: Vec<usize>,
    generalized: Option<Tensor>,
}

impl RoundContext for RefFiLRoundCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, telemetry: &Telemetry) -> SessionOutput {
        let strat = self.strat;
        let mut core = strat.core.session(self.global);
        let flags = strat.cfg.flags;
        let model = &strat.model;
        let cdap = &strat.cdap;
        let fixed = strat.fixed_prompt;
        let task = self.task;
        let p_len = strat.cfg.method.prompt_len;
        let d = model.config().token_dim;
        let cands = &self.cands;
        let cand_classes = &self.cand_classes;
        let generalized = &self.generalized;
        let tau = strat.cfg.temperature.at_task(task + 1);
        let n_pos = if setting.group == ClientGroup::Between {
            2
        } else {
            1
        };
        if flags.use_dpcl {
            telemetry.observe("dpcl.temperature", f64::from(tau));
            telemetry.observe("dpcl.candidates", cands.len() as f64);
        }

        let train_span = telemetry.span("local_train");
        core.train_local(
            setting,
            |g, p, b| {
                let bsz = b.len();
                let (feat, tokens) = model.tokenize(g, p, &b.features);
                let prompts = RefFiL::local_prompts(model, cdap, fixed, g, p, tokens, task);
                // L_CE: classification with locally generated prompts (Eq. 10).
                let out_l = model.forward_from_tokens(g, p, feat, tokens, Some(prompts));
                let mut loss = g.cross_entropy(out_l.logits, &b.labels);
                // L_GPL: same input under the generalized global prompt (Eq. 9).
                if let Some(gp) = generalized {
                    let gpv = g.constant(gp.clone());
                    let gp_b = model.broadcast_prompts(g, gpv, bsz);
                    let out_g = model.forward_from_tokens(g, p, feat, tokens, Some(gp_b));
                    let gpl = g.cross_entropy(out_g.logits, &b.labels);
                    loss = g.add(loss, gpl);
                }
                // L_DPCL: contrastive prompt separation (Eq. 6).
                if !cands.is_empty() {
                    let u = g.reshape(prompts, &[bsz, p_len * d]);
                    if let Some(dl) = dpcl_loss(g, u, cands, cand_classes, &b.labels, n_pos, tau) {
                        loss = g.add(loss, dl);
                    }
                }
                loss
            },
            |_| {},
        );
        drop(train_span);

        // Upload: updated model + class-wise LPGs (Algorithm 1 line 29). The
        // LPG travels as a PromptUpload frame applied in client-id order;
        // the runner accounts its encoded size under
        // `wire.prompt_upload_bytes`.
        let mut merge: Option<WireMessage> = None;
        if flags.needs_store() {
            let lpg = {
                let _span = telemetry.span("compute_lpg");
                strat.compute_lpg(&core.params, setting)
            };
            let uploads: Vec<LocalPromptGroup> = if strat.cfg.weighted_prompt_sharing {
                // Ablation: resource-rich clients push proportionally more
                // copies, skewing the global prompt pool toward big clients.
                let copies = (setting.samples.len() / 50).max(1);
                vec![lpg; copies]
            } else {
                vec![lpg]
            };
            merge = Some(WireMessage::PromptUpload(PromptUpload {
                client_id: setting.client_id as u64,
                groups: uploads.iter().map(LocalPromptGroup::to_wire).collect(),
            }));
        }
        SessionOutput {
            update: ClientUpdate {
                flat: core.flat(),
                weight: setting.samples.len() as f32,
            },
            merge,
        }
    }
}

impl FdilStrategy for RefFiL {
    fn name(&self) -> String {
        let f = self.cfg.flags;
        if f == RefFiLFlags::default() {
            "RefFiL".into()
        } else {
            format!(
                "RefFiL[{}{}{}]",
                if f.use_cdap { "C" } else { "-" },
                if f.use_gpl { "G" } else { "-" },
                if f.use_dpcl { "D" } else { "-" }
            )
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    fn init_global(&mut self) -> Vec<f32> {
        self.core.flat()
    }

    fn on_task_start(&mut self, task: usize, _global: &[f32]) {
        self.current_task = task;
    }

    fn exchange_mask(&self, task: u64) -> Option<Vec<u32>> {
        if !self.cfg.prompt_only || task == 0 {
            // Task 0 is the collaborative warm-up: the shared backbone is
            // still being learned from scratch, so the full model is
            // exchanged. From task 1 on the backbone runs in its stabilized
            // regime (`stable_after_first_task`) and stays at the last
            // globally-aggregated weights; only the prompt-side slice moves.
            return None;
        }
        // Flat-layout indices of everything that is *not* the shared
        // backbone, using the same prefixes the training loop treats as
        // shared (`backbone.extractor*`, `backbone.block*`, `backbone.cls*`,
        // see `ModelCore::train_local`): the CDAP generator or fixed prompt
        // plus the tokenizer. The driver sends only these coordinates; the
        // server keeps its broadcast values for the rest, which exactly
        // matches local training because `new` hard-froze those weights
        // after the warm-up task.
        let mut mask = Vec::new();
        let mut off = 0u32;
        for (_, e) in self.core.params.iter() {
            let n = e.value.numel() as u32;
            let shared_backbone = e.name.starts_with("backbone.extractor")
                || e.name.starts_with("backbone.block")
                || e.name.starts_with("backbone.cls");
            if !shared_backbone {
                mask.extend(off..off + n);
            }
            off += n;
        }
        Some(mask)
    }

    fn round_broadcast(&self, task: usize, round: usize) -> Option<WireMessage> {
        if !self.cfg.flags.needs_store() {
            return None;
        }
        // Server broadcast contents, snapshotted once per round: the store
        // only mutates in `merge_client`/`on_round_end`, so every session
        // this round decodes the same candidates and generalized prompt.
        let (cands, cand_classes) = if self.cfg.flags.use_dpcl {
            self.store.candidates()
        } else {
            (Vec::new(), Vec::new())
        };
        let candidates = cand_classes
            .into_iter()
            .zip(cands)
            .map(|(k, v)| (k as u32, v))
            .collect();
        let generalized = if self.cfg.flags.use_gpl {
            self.store.generalized_prompt()
        } else {
            None
        };
        Some(WireMessage::GlobalPromptBroadcast(GlobalPromptBroadcast {
            task: task as u32,
            round: round as u32,
            candidates,
            generalized,
        }))
    }

    fn round_ctx<'a>(
        &'a self,
        task: usize,
        _round: usize,
        global: &'a [f32],
        broadcast: Option<&'a WireMessage>,
    ) -> Box<dyn RoundContext + 'a> {
        let p_len = self.cfg.method.prompt_len;
        let d = self.model.config().token_dim;
        // Sessions train on exactly what came over the wire: the decoded
        // GlobalPromptBroadcast, never private server state.
        let (cands, cand_classes, generalized) = match broadcast {
            Some(WireMessage::GlobalPromptBroadcast(b)) => {
                let mut cands = Vec::with_capacity(b.candidates.len());
                let mut classes = Vec::with_capacity(b.candidates.len());
                for (k, v) in &b.candidates {
                    classes.push(*k as usize);
                    cands.push(v.clone());
                }
                let generalized = b
                    .generalized
                    .as_ref()
                    .map(|v| Tensor::from_vec(v.clone(), &[p_len, d]));
                (cands, classes, generalized)
            }
            _ => (Vec::new(), Vec::new(), None),
        };
        Box::new(RefFiLRoundCtx {
            strat: self,
            global,
            task,
            cands,
            cand_classes,
            generalized,
        })
    }

    fn merge_client(
        &mut self,
        _task: usize,
        _round: usize,
        _client_id: usize,
        message: WireMessage,
    ) {
        if let WireMessage::PromptUpload(upload) = message {
            // The entries come from a peer: a class past the head or a
            // prompt of the wrong length would panic `ingest` at round end,
            // and a non-finite value would reach FINCH. Such an upload is
            // dropped whole. Replicas merge the same `RoundSync` frames
            // through this hook, so they drop the same uploads.
            let classes = self.model.config().classes;
            let dim = self.store.dim();
            let admissible = upload.groups.iter().flat_map(|g| &g.prompts).all(|(k, v)| {
                (*k as usize) < classes && v.len() == dim && v.iter().all(|x| x.is_finite())
            });
            if admissible {
                self.pending_uploads
                    .extend(upload.groups.into_iter().map(LocalPromptGroup::from_wire));
            }
        }
    }

    fn on_round_end(&mut self, _task: usize, _round: usize, _global: &[f32]) {
        if !self.pending_uploads.is_empty() {
            let uploads = std::mem::take(&mut self.pending_uploads);
            let telemetry = self.telemetry.clone();
            self.store.ingest_traced(&uploads, &telemetry);
        }
    }

    fn predict(&mut self, global: &[f32], features: &Tensor) -> Vec<usize> {
        self.predict_with_task(global, features, self.current_task)
    }

    fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
        Box::new(self.eval_context(global, self.cfg.task_free_inference))
    }

    fn cls_embeddings(&mut self, global: &[f32], features: &Tensor) -> Vec<Vec<f32>> {
        self.core.load(global);
        let g = Graph::new();
        let (feat, tokens) = self.model.tokenize(&g, &self.core.params, features);
        let prompts = Self::local_prompts(
            &self.model,
            &self.cdap,
            self.fixed_prompt,
            &g,
            &self.core.params,
            tokens,
            self.current_task,
        );
        let out =
            self.model
                .forward_from_tokens(&g, &self.core.params, feat, tokens, Some(prompts));
        let cls = g.value(out.cls);
        let d = cls.shape()[1];
        cls.data().chunks(d).map(<[f32]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refil_data::{DatasetSpec, DomainSpec};
    use refil_fed::{FdilRunner, IncrementConfig, RunConfig};
    use refil_nn::models::BackboneConfig;

    fn tiny_cfg() -> RefFiLConfig {
        RefFiLConfig::new(MethodConfig {
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
            prompt_len: 2,
            max_tasks: 2,
            ..MethodConfig::default()
        })
    }

    fn tiny_dataset() -> refil_data::FdilDataset {
        DatasetSpec {
            name: "tiny".into(),
            classes: 3,
            feature_dim: 8,
            proto_scale: 2.5,
            within_std: 0.4,
            test_fraction: 0.3,
            signature_dim: 2,
            signature_scale: 0.6,
            domains: vec![
                DomainSpec::new("d0", 150, 0.15, 0.05),
                DomainSpec::new("d1", 150, 0.3, 0.4).with_collision(1.0),
            ],
        }
        .generate(11)
    }

    fn tiny_run_config() -> RunConfig {
        RunConfig {
            increment: IncrementConfig {
                initial_clients: 4,
                select_per_round: 3,
                increment_per_task: 1,
                transition_fraction: 0.8,
                rounds_per_task: 3,
            },
            local_epochs: 1,
            batch_size: 16,
            quantity_sigma: 0.5,
            eval_batch: 128,
            dropout_prob: 0.0,
            seed: 13,
            threads: 0,
            net: Default::default(),
            wire: Default::default(),
        }
    }

    #[test]
    fn reffil_runs_full_protocol_and_learns() {
        let ds = tiny_dataset();
        let mut strat = RefFiL::new(tiny_cfg());
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert_eq!(res.domain_acc.len(), 2);
        assert!(res.domain_acc[0][0] > 50.0, "{:?}", res.domain_acc);
        // The global prompt store must have been populated.
        assert!(!strat.prompt_store().is_empty());
        // Prompt traffic must be accounted for.
        assert!(res.traffic.up_bytes > res.traffic.down_bytes / 2);
    }

    #[test]
    fn prompt_only_mask_covers_exactly_the_non_extractor_params() {
        let full = RefFiL::new(tiny_cfg());
        assert_eq!(full.exchange_mask(1), None, "default exchanges everything");

        let strat = RefFiL::new(tiny_cfg().with_prompt_only(true));
        assert_eq!(
            strat.exchange_mask(0),
            None,
            "task 0 is the full-exchange backbone warm-up"
        );
        let mask = strat.exchange_mask(1).expect("prompt-only mode masks");
        let total = strat.core.params.num_scalars();
        assert!(!mask.is_empty());
        assert!(mask.len() < total, "mask must be a strict subset");
        assert!(
            mask.windows(2).all(|w| w[0] < w[1]),
            "mask indices strictly ascending"
        );
        // Recompute coverage from the named layout: a coordinate is in the
        // mask iff its parameter is not shared-backbone.
        let mut expected = Vec::new();
        let mut off = 0u32;
        for (_, e) in strat.core.params.iter() {
            let n = e.value.numel() as u32;
            let shared = e.name.starts_with("backbone.extractor")
                || e.name.starts_with("backbone.block")
                || e.name.starts_with("backbone.cls");
            if !shared {
                expected.extend(off..off + n);
            }
            off += n;
        }
        assert_eq!(off as usize, total);
        assert_eq!(mask, expected);
    }

    #[test]
    fn prompt_only_run_learns_and_shrinks_uplink() {
        let ds = tiny_dataset();
        let mut strat = RefFiL::new(tiny_cfg().with_prompt_only(true));
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert_eq!(res.domain_acc.len(), 2);
        assert!(res.domain_acc[0][0] > 50.0, "{:?}", res.domain_acc);
        // Task 0 is the full-exchange warm-up, so its raw and encoded
        // columns match; from task 1 on the masked exchange must actually
        // shrink the uplink.
        let warm: Vec<_> = res.rounds.iter().filter(|r| r.task == 0).collect();
        assert!(!warm.is_empty());
        for r in &warm {
            assert_eq!(
                r.uplink_raw_bytes, r.uplink_encoded_bytes,
                "warm-up is dense"
            );
        }
        let raw: u64 = res
            .rounds
            .iter()
            .filter(|r| r.task >= 1)
            .map(|r| r.uplink_raw_bytes)
            .sum();
        let encoded: u64 = res
            .rounds
            .iter()
            .filter(|r| r.task >= 1)
            .map(|r| r.uplink_encoded_bytes)
            .sum();
        assert!(raw > 0 && encoded > 0);
        assert!(
            encoded * 2 < raw,
            "prompt-only uplink should be well under half the dense cost \
             (raw {raw}, encoded {encoded})"
        );
    }

    #[test]
    fn ablated_variants_run() {
        let ds = tiny_dataset();
        for flags in [
            RefFiLFlags {
                use_cdap: true,
                use_gpl: false,
                use_dpcl: false,
            },
            RefFiLFlags {
                use_cdap: false,
                use_gpl: true,
                use_dpcl: false,
            },
            RefFiLFlags {
                use_cdap: false,
                use_gpl: true,
                use_dpcl: true,
            },
            RefFiLFlags {
                use_cdap: true,
                use_gpl: true,
                use_dpcl: false,
            },
        ] {
            let mut strat = RefFiL::new(tiny_cfg().with_flags(flags));
            let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
            assert_eq!(res.domain_acc.len(), 2, "flags {flags:?}");
        }
    }

    #[test]
    fn hostile_prompt_uploads_are_dropped_whole() {
        let mut strat = RefFiL::new(tiny_cfg());
        let dim = strat.prompt_store().dim();
        let upload = |prompts: Vec<(u32, Vec<f32>)>| {
            WireMessage::PromptUpload(refil_fed::PromptUpload {
                client_id: 1,
                groups: vec![refil_fed::PromptGroup {
                    client_id: 1,
                    prompts,
                }],
            })
        };
        let good = (0u32, vec![0.5f32; dim]);
        let mut nan = vec![0.5f32; dim];
        nan[dim - 1] = f32::NAN;
        for bad in [
            (3u32, vec![0.5f32; dim]),
            (u32::MAX, vec![0.5; dim]),
            (1, vec![0.5; dim - 1]),
            (1, vec![0.5; dim + 1]),
            (1, nan),
            (2, vec![f32::NEG_INFINITY; dim]),
        ] {
            let what = format!("class {} len {}", bad.0, bad.1.len());
            strat.merge_client(0, 0, 1, upload(vec![good.clone(), bad]));
            strat.on_round_end(0, 0, &[]);
            assert!(strat.prompt_store().is_empty(), "{what} was ingested");
        }
        strat.merge_client(0, 0, 1, upload(vec![good]));
        strat.on_round_end(0, 0, &[]);
        assert_eq!(strat.prompt_store().total_reps(), 1);
    }

    #[test]
    fn name_encodes_flags() {
        assert_eq!(RefFiL::new(tiny_cfg()).name(), "RefFiL");
        let ablated = RefFiL::new(tiny_cfg().with_flags(RefFiLFlags {
            use_cdap: true,
            use_gpl: false,
            use_dpcl: false,
        }));
        assert_eq!(ablated.name(), "RefFiL[C--]");
    }

    #[test]
    fn cdap_off_uses_fixed_prompt() {
        let strat = RefFiL::new(tiny_cfg().with_flags(RefFiLFlags {
            use_cdap: false,
            use_gpl: true,
            use_dpcl: true,
        }));
        assert!(strat.cdap.is_none());
        assert!(strat.fixed_prompt.is_some());
        assert!(strat.core.params.id("refil.fixed_prompt").is_some());
    }

    #[test]
    fn lpg_covers_local_classes() {
        let ds = tiny_dataset();
        let mut strat = RefFiL::new(tiny_cfg());
        let flat = strat.init_global();
        strat.core.load(&flat);
        let samples = &ds.domains[0].train[..30];
        let setting = TrainSetting {
            client_id: 5,
            task: 0,
            round: 0,
            group: ClientGroup::New,
            samples,
            local_epochs: 1,
            batch_size: 16,
            seed: 1,
        };
        let lpg = strat.compute_lpg(&strat.core.params, &setting);
        assert_eq!(lpg.client_id, 5);
        let mut classes: Vec<usize> = lpg.prompts.iter().map(|(k, _)| *k).collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(classes.len(), lpg.prompts.len(), "duplicate class in LPG");
        let d = strat.cfg.method.prompt_len * strat.model.config().token_dim;
        for (_, v) in &lpg.prompts {
            assert_eq!(v.len(), d);
        }
    }

    /// The per-class taped LPG that `compute_lpg` replaced: one training
    /// graph per non-empty class, kept as its bit-exactness reference.
    fn compute_lpg_per_class(
        strat: &RefFiL,
        params: &Params,
        setting: &TrainSetting<'_>,
    ) -> LocalPromptGroup {
        let classes = strat.model.config().classes;
        let dim_in = strat.model.config().in_dim;
        let p = strat.cfg.method.prompt_len;
        let d = strat.model.config().token_dim;
        let mut by_class: Vec<Vec<&refil_data::Sample>> = vec![Vec::new(); classes];
        for s in setting.samples {
            if by_class[s.label].len() < strat.cfg.lpg_max_samples {
                by_class[s.label].push(s);
            }
        }
        let mut prompts = Vec::new();
        for (k, samples) in by_class.iter().enumerate() {
            if samples.is_empty() {
                continue;
            }
            let mut data = Vec::with_capacity(samples.len() * dim_in);
            for s in samples {
                data.extend_from_slice(&s.features);
            }
            let x = Tensor::from_vec(data, &[samples.len(), dim_in]);
            let g = Graph::new();
            let (_, tokens) = strat.model.tokenize(&g, params, &x);
            let pv = RefFiL::local_prompts(
                &strat.model,
                &strat.cdap,
                strat.fixed_prompt,
                &g,
                params,
                tokens,
                setting.task,
            );
            let vals = g.value(pv);
            let mut mean = vec![0.0f32; p * d];
            for row in vals.data().chunks(p * d) {
                for (m, &x) in mean.iter_mut().zip(row) {
                    *m += x;
                }
            }
            let inv = 1.0 / samples.len() as f32;
            for m in &mut mean {
                *m *= inv;
            }
            prompts.push((k, mean));
        }
        LocalPromptGroup {
            client_id: setting.client_id,
            prompts,
        }
    }

    #[test]
    fn stacked_lpg_matches_per_class_taped_reference_bitwise() {
        let ds = tiny_dataset();
        // Class 0 past the per-class cap, class 1 a single sample, class 2
        // absent.
        let train = &ds.domains[1].train;
        let mut samples: Vec<refil_data::Sample> =
            train.iter().filter(|s| s.label == 0).cloned().collect();
        let one = train.iter().find(|s| s.label == 1).expect("class 1 sample");
        samples.insert(samples.len() / 2, one.clone());
        for flags in [
            RefFiLFlags::default(),
            RefFiLFlags {
                use_cdap: false,
                use_gpl: true,
                use_dpcl: true,
            },
        ] {
            let mut strat = RefFiL::new(tiny_cfg().with_flags(flags));
            assert!(samples.len() > strat.cfg.lpg_max_samples + 1);
            let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
            strat.core.load(&res.final_global);
            for task in 0..2 {
                let setting = TrainSetting {
                    client_id: 2,
                    task,
                    round: 0,
                    group: ClientGroup::New,
                    samples: &samples,
                    local_epochs: 1,
                    batch_size: 16,
                    seed: 1,
                };
                let got = strat.compute_lpg(&strat.core.params, &setting);
                let want = compute_lpg_per_class(&strat, &strat.core.params, &setting);
                let classes: Vec<usize> = got.prompts.iter().map(|(k, _)| *k).collect();
                assert_eq!(classes, [0, 1], "flags {flags:?} task {task}");
                assert_eq!(got.prompts.len(), want.prompts.len());
                for ((k, g), (wk, w)) in got.prompts.iter().zip(&want.prompts) {
                    assert_eq!(k, wk);
                    let gb: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
                    let wb: Vec<u32> = w.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(gb, wb, "flags {flags:?} task {task} class {k}");
                }
            }
        }
    }

    #[test]
    fn task_free_inference_predicts_valid_classes() {
        let ds = tiny_dataset();
        let mut strat = RefFiL::new(tiny_cfg().with_task_free_inference(true));
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert_eq!(res.domain_acc.len(), 2);
        let mut data = Vec::new();
        for s in &ds.domains[0].test[..6] {
            data.extend_from_slice(&s.features);
        }
        let x = Tensor::from_vec(data, &[6, 8]);
        let preds = strat.predict_task_free(&res.final_global, &x);
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|&p| p < 3));
    }

    #[test]
    fn domain_conditioned_prediction_differs() {
        let ds = tiny_dataset();
        let mut strat = RefFiL::new(tiny_cfg());
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        let _ = res;
        // After training, predictions conditioned on different task keys can
        // differ (the task key modulates the generated prompts).
        let flat = strat.core.flat();
        let mut data = Vec::new();
        for s in &ds.domains[1].test[..8] {
            data.extend_from_slice(&s.features);
        }
        let x = Tensor::from_vec(data, &[8, 8]);
        let p0 = strat.predict_domain(&flat, &x, 0);
        let p1 = strat.predict_domain(&flat, &x, 1);
        assert_eq!(p0.len(), 8);
        assert_eq!(p1.len(), 8);
    }
}
