//! FedEWC: Elastic Weight Consolidation (Kirkpatrick et al., 2017) adapted to
//! FDIL.
//!
//! At each task boundary, clients estimate the diagonal Fisher information of
//! the global model on their local data; the server averages these into a
//! global importance vector. Subsequent local training adds the quadratic
//! penalty `lambda/2 * sum_i F_i (theta_i - theta*_i)^2` anchoring important
//! weights to the previous task's solution.

use refil_data::Sample;
use refil_fed::{
    ClientUpdate, EvalContext, FdilStrategy, RoundContext, SessionOutput, Telemetry, TrainSetting,
    WireMessage,
};
use refil_nn::models::PromptedBackbone;
use refil_nn::Tensor;

use crate::common::{
    add_quadratic_penalty_grads, estimate_fisher, MethodConfig, ModelCore, PlainEvalContext,
};

/// Federated Elastic Weight Consolidation.
#[derive(Debug, Clone)]
pub struct FedEwc {
    core: ModelCore,
    model: PromptedBackbone,
    /// Accumulated Fisher information (flat layout).
    fisher: Option<Vec<f32>>,
    /// Anchor parameters theta* (previous task's global model).
    anchor: Option<Vec<f32>>,
    /// Samples per client used for the Fisher estimate.
    fisher_samples: usize,
}

impl FedEwc {
    /// Builds the strategy.
    pub fn new(cfg: MethodConfig) -> Self {
        let core = ModelCore::new(cfg);
        let model = core.model.clone();
        Self {
            core,
            model,
            fisher: None,
            anchor: None,
            fisher_samples: 64,
        }
    }
}

struct FedEwcCtx<'a> {
    strat: &'a FedEwc,
    global: &'a [f32],
}

impl RoundContext for FedEwcCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
        let mut core = self.strat.core.session(self.global);
        let model = &self.strat.model;
        let fisher = self.strat.fisher.as_deref();
        let anchor = self.strat.anchor.as_deref();
        let lambda = self.strat.core.cfg.ewc_lambda;
        core.train_local(
            setting,
            |g, p, b| {
                let out = model.forward(g, p, &b.features, None);
                g.cross_entropy(out.logits, &b.labels)
            },
            |params| {
                if let (Some(f), Some(a)) = (fisher, anchor) {
                    add_quadratic_penalty_grads(params, a, f, lambda);
                }
            },
        );
        ClientUpdate {
            flat: core.flat(),
            weight: setting.samples.len() as f32,
        }
        .into()
    }
}

impl FdilStrategy for FedEwc {
    fn name(&self) -> String {
        "FedEWC".into()
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
        Box::new(FedEwcCtx {
            strat: self,
            global,
        })
    }

    fn on_task_end(&mut self, _task: usize, global: &[f32], client_data: &[(usize, Vec<Sample>)]) {
        // Server-side Fisher aggregation: mean over clients of their local
        // Fisher estimates of the *global* model.
        self.core.load(global);
        let mut acc = vec![0.0f32; self.core.params.num_scalars()];
        let mut contributors = 0usize;
        for (cid, samples) in client_data {
            if samples.is_empty() {
                continue;
            }
            let f = estimate_fisher(&mut self.core, samples, self.fisher_samples, *cid as u64);
            for (a, fv) in acc.iter_mut().zip(&f) {
                *a += fv;
            }
            contributors += 1;
        }
        if contributors == 0 {
            return;
        }
        let inv = 1.0 / contributors as f32;
        for a in &mut acc {
            *a *= inv;
        }
        // Online-EWC style accumulation over tasks.
        match &mut self.fisher {
            Some(f) => {
                for (fi, ai) in f.iter_mut().zip(&acc) {
                    *fi = 0.5 * *fi + ai;
                }
            }
            None => self.fisher = Some(acc),
        }
        self.anchor = Some(global.to_vec());
        // Fisher estimation left gradients behind; clear them.
        self.core.params.zero_grad();
    }

    fn eval_ctx<'a>(&'a self, global: &'a [f32]) -> Box<dyn EvalContext + 'a> {
        Box::new(PlainEvalContext::new(&self.core, global))
    }

    fn cls_embeddings(&mut self, global: &[f32], features: &Tensor) -> Vec<Vec<f32>> {
        self.core.cls_with_prompts(global, features, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_cfg, tiny_dataset, tiny_run_config};
    use refil_fed::FdilRunner;

    #[test]
    fn ewc_runs_and_learns() {
        let ds = tiny_dataset();
        let mut strat = FedEwc::new(tiny_cfg());
        strat.fisher_samples = 16;
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert!(res.domain_acc[0][0] > 50.0, "{:?}", res.domain_acc);
        assert!(strat.fisher.is_some(), "fisher never estimated");
        assert!(strat.anchor.is_some());
    }

    #[test]
    fn penalty_anchors_parameters() {
        // With a huge lambda, parameters should barely move from the anchor.
        let mut cfg = tiny_cfg();
        cfg.ewc_lambda = 1e6;
        let ds = tiny_dataset();
        let mut strat = FedEwc::new(cfg);
        strat.fisher_samples = 16;
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        // Sanity: the run completes and fisher is in place.
        assert_eq!(res.domain_acc.len(), ds.num_domains());
    }
}
