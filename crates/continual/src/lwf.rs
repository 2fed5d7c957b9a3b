//! FedLwF: Learning-without-Forgetting (Li & Hoiem, 2017) adapted to FDIL.
//!
//! At each task boundary the global model is frozen as the teacher; local
//! training adds a knowledge-distillation term that keeps the student's
//! (temperature-softened) predictions on current data close to the
//! teacher's, regularizing against forgetting without storing old data.

use refil_fed::{
    ClientUpdate, EvalContext, FdilStrategy, RoundContext, SessionOutput, Telemetry, TrainSetting,
    WireMessage,
};
use refil_nn::losses::distillation_loss;
use refil_nn::models::PromptedBackbone;
use refil_nn::{Graph, Params, Tensor};

use crate::common::{MethodConfig, ModelCore, PlainEvalContext};

/// Federated Learning-without-Forgetting.
#[derive(Debug, Clone)]
pub struct FedLwf {
    core: ModelCore,
    model: PromptedBackbone,
    /// Frozen teacher parameters (global model at the previous task's end).
    teacher: Option<Params>,
}

impl FedLwf {
    /// Builds the strategy.
    pub fn new(cfg: MethodConfig) -> Self {
        let core = ModelCore::new(cfg);
        let model = core.model.clone();
        Self {
            core,
            model,
            teacher: None,
        }
    }

    #[cfg(test)]
    fn teacher_logits(&self, features: &Tensor) -> Option<Tensor> {
        let teacher = self.teacher.as_ref()?;
        let g = Graph::new();
        let out = self.model.forward(&g, teacher, features, None);
        Some(g.value(out.logits))
    }
}

struct FedLwfCtx<'a> {
    strat: &'a FedLwf,
    global: &'a [f32],
}

impl RoundContext for FedLwfCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
        let mut core = self.strat.core.session(self.global);
        // Teacher logits depend on the minibatch, so the teacher parameters
        // ride along into the loss closure (shared read-only borrow).
        let model = &self.strat.model;
        let teacher = self.strat.teacher.as_ref();
        let temperature = self.strat.core.cfg.kd_temperature;
        let kd_weight = self.strat.core.cfg.kd_weight;
        core.train_local(
            setting,
            |g, p, b| {
                let out = model.forward(g, p, &b.features, None);
                let ce = g.cross_entropy(out.logits, &b.labels);
                match teacher {
                    Some(tp) => {
                        let tg = Graph::new();
                        let tout = model.forward(&tg, tp, &b.features, None);
                        let tlogits = tg.value(tout.logits);
                        let kd = distillation_loss(g, out.logits, &tlogits, temperature);
                        let kd_scaled = g.scale(kd, kd_weight);
                        g.add(ce, kd_scaled)
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

impl FdilStrategy for FedLwf {
    fn name(&self) -> String {
        "FedLwF".into()
    }

    fn init_global(&mut self) -> Vec<f32> {
        self.core.flat()
    }

    fn on_task_start(&mut self, task: usize, global: &[f32]) {
        if task > 0 {
            // Freeze the previous task's final global model as the teacher.
            let mut teacher = self.core.params.clone();
            teacher.load_flat(global);
            self.teacher = Some(teacher);
        }
    }

    fn round_ctx<'a>(
        &'a self,
        _task: usize,
        _round: usize,
        global: &'a [f32],
        _broadcast: Option<&'a WireMessage>,
    ) -> Box<dyn RoundContext + 'a> {
        Box::new(FedLwfCtx {
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
    fn lwf_runs_full_protocol() {
        let ds = tiny_dataset();
        let mut strat = FedLwf::new(tiny_cfg());
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert_eq!(res.domain_acc.len(), ds.num_domains());
        assert!(res.domain_acc[0][0] > 50.0, "{:?}", res.domain_acc);
    }

    #[test]
    fn teacher_is_set_after_first_task() {
        let mut strat = FedLwf::new(tiny_cfg());
        let flat = strat.init_global();
        assert!(strat.teacher.is_none());
        strat.on_task_start(0, &flat);
        assert!(strat.teacher.is_none(), "no teacher on task 0");
        strat.on_task_start(1, &flat);
        assert!(strat.teacher.is_some());
    }

    #[test]
    fn teacher_logits_match_frozen_model() {
        let mut strat = FedLwf::new(tiny_cfg());
        let flat = strat.init_global();
        strat.on_task_start(1, &flat);
        let x = Tensor::ones(&[2, 8]);
        let tl = strat.teacher_logits(&x).expect("teacher set");
        // Teacher == current global here, so logits must agree.
        strat.core.load(&flat);
        let g = Graph::new();
        let out = strat.model.forward(&g, &strat.core.params, &x, None);
        let sl = g.value(out.logits);
        for (a, b) in tl.data().iter().zip(sl.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
