//! FedProx (Li et al., MLSys 2020): federated optimization for heterogeneous
//! networks.
//!
//! Not one of the paper's compared methods, but the canonical remedy for the
//! client drift its non-iid quantity-shift setting induces: local training
//! adds the proximal term `mu/2 * ||theta - theta_global||^2`, pulling each
//! client's update toward the broadcast model. Provided as an additional
//! library strategy and an upper/lower-bounds comparison point.

use refil_fed::{
    ClientUpdate, EvalContext, FdilStrategy, RoundContext, SessionOutput, Telemetry, TrainSetting,
    WireMessage,
};
use refil_nn::models::PromptedBackbone;
use refil_nn::Tensor;

use crate::common::{add_quadratic_penalty_grads, MethodConfig, ModelCore, PlainEvalContext};

/// Federated finetuning with a proximal term.
#[derive(Debug, Clone)]
pub struct FedProx {
    core: ModelCore,
    model: PromptedBackbone,
    mu: f32,
}

impl FedProx {
    /// Builds the strategy with proximal coefficient `mu` (typical: 0.01–1).
    pub fn new(cfg: MethodConfig, mu: f32) -> Self {
        assert!(mu >= 0.0, "mu must be non-negative");
        let core = ModelCore::new(cfg);
        let model = core.model.clone();
        Self { core, model, mu }
    }
}

struct FedProxCtx<'a> {
    strat: &'a FedProx,
    global: &'a [f32],
}

impl RoundContext for FedProxCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
        let mut core = self.strat.core.session(self.global);
        let model = &self.strat.model;
        let anchor = self.global;
        let ones = vec![1.0f32; self.global.len()];
        let mu = self.strat.mu;
        core.train_local(
            setting,
            |g, p, b| {
                let out = model.forward(g, p, &b.features, None);
                g.cross_entropy(out.logits, &b.labels)
            },
            |params| {
                // d/dtheta [mu/2 * ||theta - theta_g||^2] = mu (theta - theta_g):
                // the EWC penalty machinery with unit Fisher.
                if mu > 0.0 {
                    add_quadratic_penalty_grads(params, anchor, &ones, mu);
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

impl FdilStrategy for FedProx {
    fn name(&self) -> String {
        "FedProx".into()
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
        Box::new(FedProxCtx {
            strat: self,
            global,
        })
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
    fn fedprox_runs_and_learns() {
        let ds = tiny_dataset();
        let mut strat = FedProx::new(tiny_cfg(), 0.1);
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert!(res.domain_acc[0][0] > 50.0, "{:?}", res.domain_acc);
    }

    #[test]
    fn large_mu_pins_clients_to_global() {
        let ds = tiny_dataset();
        let mut strat = FedProx::new(tiny_cfg(), 1e5);
        let global = strat.init_global();
        let setting = refil_fed::TrainSetting {
            client_id: 0,
            task: 0,
            round: 0,
            group: refil_fed::ClientGroup::New,
            samples: &ds.domains[0].train[..32],
            local_epochs: 1,
            batch_size: 16,
            seed: 1,
        };
        let update = strat.train_once(&setting, &global);
        let drift: f32 = update
            .flat
            .iter()
            .zip(&global)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(drift < 0.05, "huge mu should pin the update, drift {drift}");
    }

    #[test]
    fn zero_mu_equals_plain_finetuning_direction() {
        let ds = tiny_dataset();
        let mut prox = FedProx::new(tiny_cfg(), 0.0);
        let mut plain = crate::Finetune::new(tiny_cfg());
        let g1 = prox.init_global();
        let g2 = plain.init_global();
        assert_eq!(g1, g2, "identical init required");
        let setting = refil_fed::TrainSetting {
            client_id: 0,
            task: 0,
            round: 0,
            group: refil_fed::ClientGroup::New,
            samples: &ds.domains[0].train[..32],
            local_epochs: 1,
            batch_size: 16,
            seed: 1,
        };
        let u1 = prox.train_once(&setting, &g1);
        let u2 = plain.train_once(&setting, &g2);
        for (a, b) in u1.flat.iter().zip(&u2.flat) {
            assert!((a - b).abs() < 1e-5, "mu=0 must match finetune");
        }
    }
}
