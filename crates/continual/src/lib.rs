//! # refil-continual
//!
//! The rehearsal-free baselines the paper benchmarks RefFiL against, each
//! adapted to the federated domain-incremental setting exactly as in §4.1:
//!
//! * [`Finetune`] — plain federated finetuning (forgetting lower bound);
//! * [`FedLwf`] — Learning-without-Forgetting via knowledge distillation
//!   from the previous task's global model (temperature 2);
//! * [`FedEwc`] — Elastic Weight Consolidation with a federated diagonal
//!   Fisher estimate (lambda 300);
//! * [`FedL2p`] — Learning-to-Prompt, with the prompt pool deactivated
//!   ("FedL2P") or reactivated ("FedL2P†");
//! * [`FedDualPrompt`] — DualPrompt's G-prompt/E-prompt scheme, again with
//!   the pool deactivated or reactivated.
//!
//! Two additional reference strategies beyond the paper's comparison:
//! [`FedProx`] (proximal regularization against client drift) and
//! [`RehearsalOracle`] (episodic replay — the upper bound rehearsal-free
//! methods approximate without storing data).
//!
//! Every strategy shares one [`refil_nn::models::PromptedBackbone`] and one
//! [`MethodConfig`], so the comparison isolates the continual-learning rule.

#![warn(missing_docs)]

mod common;
mod dualprompt;
mod ewc;
mod fedprox;
mod finetune;
mod l2p;
mod lwf;
mod rehearsal;
#[cfg(test)]
pub(crate) mod testutil;

pub use common::{MethodConfig, ModelCore};
pub use dualprompt::FedDualPrompt;
pub use ewc::FedEwc;
pub use fedprox::FedProx;
pub use finetune::Finetune;
pub use l2p::FedL2p;
pub use lwf::FedLwf;
pub use rehearsal::RehearsalOracle;
