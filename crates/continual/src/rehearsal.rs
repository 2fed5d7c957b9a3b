//! Rehearsal oracle: the upper-bound reference the rehearsal-free methods
//! are measured against.
//!
//! Each client keeps an episodic memory of old-task samples (class-balanced
//! reservoir, capped per class) and replays it alongside new data — exactly
//! what the paper's setting *forbids* (privacy, device memory). Including it
//! as an oracle quantifies how much of the rehearsal gap RefFiL closes
//! without storing any data.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use refil_data::Sample;
use refil_fed::{
    ClientUpdate, EvalContext, FdilStrategy, RehearsalMemory, RoundContext, SessionOutput,
    Telemetry, TrainSetting, WireMessage, WireSample,
};
use refil_nn::models::PromptedBackbone;
use refil_nn::Tensor;

use crate::common::{MethodConfig, ModelCore, PlainEvalContext};

/// Finetuning plus per-client episodic replay (the rehearsal upper bound).
#[derive(Debug, Clone)]
pub struct RehearsalOracle {
    core: ModelCore,
    model: PromptedBackbone,
    /// Per-client episodic memory.
    memory: HashMap<usize, Vec<Sample>>,
    /// Cap on stored samples per class per client.
    per_class_cap: usize,
}

impl RehearsalOracle {
    /// Builds the oracle with `per_class_cap` stored samples per class.
    pub fn new(cfg: MethodConfig, per_class_cap: usize) -> Self {
        let core = ModelCore::new(cfg);
        let model = core.model.clone();
        Self {
            core,
            model,
            memory: HashMap::new(),
            per_class_cap: per_class_cap.max(1),
        }
    }

    /// Class-balanced reservoir update of one client's memory.
    fn remember(&mut self, client: usize, samples: &[Sample], seed: u64) {
        let classes = self.model.config().classes;
        let mem = self.memory.entry(client).or_default();
        let mut rng = StdRng::seed_from_u64(seed);
        for s in samples {
            let class_count = mem.iter().filter(|m| m.label == s.label).count();
            if class_count < self.per_class_cap {
                mem.push(s.clone());
            } else if rng.gen::<f32>() < 0.1 {
                // Reservoir-style replacement keeps the memory fresh.
                if let Some(slot) = mem
                    .iter_mut()
                    .filter(|m| m.label == s.label)
                    .choose_one(&mut rng)
                {
                    *slot = s.clone();
                }
            }
        }
        let _ = classes;
    }
}

/// Picks a uniformly random element of an iterator (small helper; avoids
/// collecting when only one slot is replaced).
trait ChooseOne<'a, T: 'a> {
    fn choose_one<R: Rng>(self, rng: &mut R) -> Option<&'a mut T>;
}

impl<'a, T: 'a, I: Iterator<Item = &'a mut T>> ChooseOne<'a, T> for I {
    fn choose_one<R: Rng>(self, rng: &mut R) -> Option<&'a mut T> {
        let mut chosen = None;
        for (seen, item) in self.enumerate() {
            if rng.gen_range(0..=seen) == 0 {
                chosen = Some(item);
            }
        }
        chosen
    }
}

struct RehearsalCtx<'a> {
    strat: &'a RehearsalOracle,
    global: &'a [f32],
}

impl RoundContext for RehearsalCtx<'_> {
    fn train_client(&self, setting: &TrainSetting<'_>, _telemetry: &Telemetry) -> SessionOutput {
        let mut core = self.strat.core.session(self.global);
        // Replay buffer + current data form the effective training set.
        let mut effective: Vec<Sample> = self
            .strat
            .memory
            .get(&setting.client_id)
            .cloned()
            .unwrap_or_default();
        effective.extend_from_slice(setting.samples);
        let model = &self.strat.model;
        let replayed = TrainSetting {
            samples: &effective,
            ..*setting
        };
        core.train_local(
            &replayed,
            |g, p, b| {
                let out = model.forward(g, p, &b.features, None);
                g.cross_entropy(out.logits, &b.labels)
            },
            |_| {},
        );
        SessionOutput {
            update: ClientUpdate {
                flat: core.flat(),
                weight: effective.len() as f32,
            },
            // The samples a session commits to episodic memory travel as a
            // RehearsalMemory frame — the privacy violation made explicit on
            // the wire.
            merge: Some(WireMessage::RehearsalMemory(RehearsalMemory {
                client_id: setting.client_id as u64,
                seed: setting.seed ^ 0xeb,
                samples: setting
                    .samples
                    .iter()
                    .map(|s| WireSample {
                        label: s.label as u32,
                        features: s.features.clone(),
                    })
                    .collect(),
            })),
        }
    }
}

impl FdilStrategy for RehearsalOracle {
    fn name(&self) -> String {
        "Rehearsal (oracle)".into()
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
        Box::new(RehearsalCtx {
            strat: self,
            global,
        })
    }

    fn merge_client(
        &mut self,
        _task: usize,
        _round: usize,
        client_id: usize,
        message: WireMessage,
    ) {
        // Memorize the new data for future tasks (this is the privacy
        // violation rehearsal-free methods avoid). Applied post-round in
        // client-id order; memories are per-client, so the end state matches
        // the sequential driver's.
        if let WireMessage::RehearsalMemory(mem) = message {
            let samples: Vec<Sample> = mem
                .samples
                .into_iter()
                .map(|s| Sample {
                    features: s.features,
                    label: s.label as usize,
                })
                .collect();
            self.remember(client_id, &samples, mem.seed);
        }
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
    fn oracle_runs_and_accumulates_memory() {
        let ds = tiny_dataset();
        let mut strat = RehearsalOracle::new(tiny_cfg(), 8);
        let res = FdilRunner::new(tiny_run_config()).run(&ds, &mut strat);
        assert_eq!(res.domain_acc.len(), ds.num_domains());
        let held: usize = strat.memory.values().map(Vec::len).sum();
        assert!(held > 0, "memory never filled");
    }

    #[test]
    fn memory_respects_per_class_cap() {
        let ds = tiny_dataset();
        let mut strat = RehearsalOracle::new(tiny_cfg(), 3);
        strat.remember(0, &ds.domains[0].train, 1);
        let mem = &strat.memory[&0];
        for k in 0..3 {
            let count = mem.iter().filter(|s| s.label == k).count();
            assert!(count <= 3, "class {k} has {count} > cap");
        }
    }

    #[test]
    fn oracle_retains_better_than_finetune() {
        // On the colliding 2-domain toy set the oracle's replay must keep
        // domain-0 accuracy at least as high as plain finetuning.
        let ds = tiny_dataset();
        let cfg = tiny_run_config();
        let mut oracle = RehearsalOracle::new(tiny_cfg(), 16);
        let ro = FdilRunner::new(cfg).run(&ds, &mut oracle);
        let mut plain = crate::Finetune::new(tiny_cfg());
        let rp = FdilRunner::new(cfg).run(&ds, &mut plain);
        let o0 = ro.final_domain_accuracies()[0];
        let p0 = rp.final_domain_accuracies()[0];
        assert!(
            o0 >= p0 - 5.0,
            "oracle ({o0}) should not retain much worse than finetune ({p0})"
        );
    }
}
