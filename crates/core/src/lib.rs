//! # refil-core
//!
//! RefFiL — *Rehearsal-free Federated Domain-incremental Learning* — the
//! paper's primary contribution, built on the `refil-nn` substrate and the
//! `refil-fed` protocol driver:
//!
//! * [`CdapGenerator`] — the Client-wise Domain Adaptive Prompt generator
//!   (Eq. 1: LN → MLP → CCDA → FiLM conditioned on a task-key embedding);
//! * [`GlobalPromptStore`] / [`LocalPromptGroup`] — balanced prompt sharing
//!   (Eq. 2–3) and server-side FINCH clustering (Eq. 4–5, 8);
//! * [`dpcl_loss`] — domain-specific prompt contrastive learning (Eq. 6)
//!   with [`TemperatureSchedule`] decay (Eq. 7);
//! * [`RefFiL`] — the complete Algorithm 1 strategy
//!   (`L = L_CE + L_GPL + L_DPCL`, Eq. 11), with [`RefFiLFlags`] exposing the
//!   Table 5 ablation switches.
//!
//! # Examples
//!
//! ```no_run
//! use refil_core::{RefFiL, RefFiLConfig};
//! use refil_continual::MethodConfig;
//! use refil_data::{digits_five, PresetConfig};
//! use refil_fed::{FdilRunner, RunConfig};
//!
//! let dataset = digits_five(PresetConfig::small()).generate(42);
//! let mut strategy = RefFiL::new(RefFiLConfig::new(MethodConfig::default()));
//! let result = FdilRunner::new(RunConfig::default()).run(&dataset, &mut strategy);
//! let last = result.step_accuracies()[dataset.num_domains() - 1];
//! println!("Avg {:.2}% Last {:.2}%", result.avg_accuracy(), last);
//! ```

#![warn(missing_docs)]

mod cdap;
mod dpcl;
mod prompts;
mod strategy;
mod temperature;

pub use cdap::{CdapConfig, CdapGenerator};
pub use dpcl::dpcl_loss;
pub use prompts::{ClusterMode, GlobalPromptStore, LocalPromptGroup, PromptError};
pub use strategy::{RefFiL, RefFiLConfig, RefFiLFlags};
pub use temperature::TemperatureSchedule;
