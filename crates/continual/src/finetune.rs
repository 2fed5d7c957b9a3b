//! Finetune: the lower-bound baseline that simply keeps training the global
//! model on whatever data arrives, with no forgetting mitigation.

use refil_fed::{
    ClientUpdate, EvalContext, FdilStrategy, RoundContext, SessionOutput, Telemetry, TrainSetting,
    WireMessage,
};
use refil_nn::models::PromptedBackbone;
use refil_nn::Tensor;

use crate::common::{MethodConfig, ModelCore, PlainEvalContext};

/// Straightforward federated finetuning (paper Table 1's "Finetune").
#[derive(Debug, Clone)]
pub struct Finetune {
    core: ModelCore,
    model: PromptedBackbone,
}

impl Finetune {
    /// Builds the strategy.
    pub fn new(cfg: MethodConfig) -> Self {
        let core = ModelCore::new(cfg);
        let model = core.model.clone();
        Self { core, model }
    }
}

struct FinetuneCtx<'a> {
    strat: &'a Finetune,
    global: &'a [f32],
}

impl RoundContext for FinetuneCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
        let mut core = self.strat.core.session(self.global);
        let model = &self.strat.model;
        core.train_local(
            setting,
            |g, p, b| {
                let out = model.forward(g, p, &b.features, None);
                g.cross_entropy(out.logits, &b.labels)
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

impl FdilStrategy for Finetune {
    fn name(&self) -> String {
        "Finetune".into()
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
        Box::new(FinetuneCtx {
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
    fn finetune_learns_first_domain() {
        let ds = tiny_dataset();
        let mut strat = Finetune::new(tiny_cfg());
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert!(
            res.domain_acc[0][0] > 50.0,
            "finetune failed to learn domain 0: {:?}",
            res.domain_acc
        );
    }

    #[test]
    fn finetune_forgets_under_cliff_transition() {
        // Two-phase sequential training (no old clients, no U_b mixing — the
        // Fig. 1a cliff setting) must show forgetting on domain 0.
        use refil_fed::{ClientGroup, TrainSetting};

        let ds = tiny_dataset();
        let mut strat = Finetune::new(tiny_cfg());
        let mut global = strat.init_global();
        let phase = |strat: &mut Finetune, global: &[f32], samples: &_| {
            let setting = TrainSetting {
                client_id: 0,
                task: 0,
                round: 0,
                group: ClientGroup::New,
                samples,
                local_epochs: 8,
                batch_size: 16,
                seed: 1,
            };
            strat.train_once(&setting, global).flat
        };
        global = phase(&mut strat, &global, &ds.domains[0].train);
        let eval = |strat: &mut Finetune, global: &[f32]| {
            refil_fed::evaluate_domain(strat, global, &ds, 0, 128)
        };
        let before = eval(&mut strat, &global);
        global = phase(&mut strat, &global, &ds.domains[1].train);
        let after = eval(&mut strat, &global);
        assert!(before > 60.0, "never learned domain 0: {before}");
        assert!(
            after < before - 5.0,
            "expected forgetting on domain 0: {before} -> {after}"
        );
    }
}
