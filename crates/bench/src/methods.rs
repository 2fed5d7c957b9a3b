//! The eight methods of the paper's comparison, built behind one interface.

use refil_continual::{FedDualPrompt, FedEwc, FedL2p, FedLwf, Finetune, MethodConfig};
use refil_core::{RefFiL, RefFiLConfig, RefFiLFlags};
use refil_fed::FdilStrategy;
use refil_nn::models::{BackboneConfig, ExtractorKind};

use crate::datasets::DatasetChoice;

/// Every method row in the paper's Tables 1–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodChoice {
    /// Plain federated finetuning.
    Finetune,
    /// Learning without Forgetting.
    FedLwf,
    /// Elastic Weight Consolidation.
    FedEwc,
    /// Learning-to-Prompt (pool deactivated).
    FedL2p,
    /// Learning-to-Prompt with pool (the † row).
    FedL2pPool,
    /// DualPrompt (pool deactivated).
    FedDualPrompt,
    /// DualPrompt with per-task experts (the † row).
    FedDualPromptPool,
    /// The paper's contribution.
    RefFiL,
    /// RefFiL with prompt-only parameter exchange: the shared backbone
    /// stays at the server's broadcast values and only the prompt
    /// machinery travels uplink (the communication-light deployment; not a
    /// paper table row, so excluded from `MethodChoice::all`).
    RefFiLPromptOnly,
}

impl MethodChoice {
    /// All eight methods in the paper's row order.
    pub(crate) fn all() -> [MethodChoice; 8] {
        [
            Self::Finetune,
            Self::FedLwf,
            Self::FedEwc,
            Self::FedL2p,
            Self::FedL2pPool,
            Self::FedDualPrompt,
            Self::FedDualPromptPool,
            Self::RefFiL,
        ]
    }

    /// The canonical CLI spelling, accepted by [`method_by_name`]. Used in
    /// network run-specs, where the label must survive a round-trip.
    pub(crate) fn cli_name(self) -> &'static str {
        match self {
            Self::Finetune => "finetune",
            Self::FedLwf => "lwf",
            Self::FedEwc => "ewc",
            Self::FedL2p => "l2p",
            Self::FedL2pPool => "l2p+pool",
            Self::FedDualPrompt => "dualprompt",
            Self::FedDualPromptPool => "dualprompt+pool",
            Self::RefFiL => "reffil",
            Self::RefFiLPromptOnly => "reffil+prompt",
        }
    }

    /// The row label used in the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            Self::Finetune => "Finetune",
            Self::FedLwf => "FedLwF",
            Self::FedEwc => "FedEWC",
            Self::FedL2p => "FedL2P",
            Self::FedL2pPool => "FedL2P\u{2020}",
            Self::FedDualPrompt => "FedDualPrompt",
            Self::FedDualPromptPool => "FedDualPrompt\u{2020}",
            Self::RefFiL => "RefFiL",
            Self::RefFiLPromptOnly => "RefFiL (prompt-only)",
        }
    }
}

/// The shared method configuration for a dataset: identical backbone for all
/// methods, the paper's per-dataset learning rate, and a task-table bound.
pub fn method_config(dataset: DatasetChoice, num_tasks: usize, seed: u64) -> MethodConfig {
    let spec_classes = match dataset {
        DatasetChoice::Pacs => 7,
        DatasetChoice::FedDomainNet => 48,
        _ => 10,
    };
    let in_dim = if dataset == DatasetChoice::FedDomainNet {
        48
    } else {
        32
    };
    MethodConfig {
        backbone: BackboneConfig {
            in_dim,
            extractor_width: 64,
            extractor_depth: 2,
            n_patches: 4,
            token_dim: 32,
            heads: 4,
            blocks: 1,
            classes: spec_classes,
            extractor: ExtractorKind::ResidualMlp,
        },
        lr: dataset.lr(),
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
        max_tasks: num_tasks.max(1),
        init_seed: seed,
    }
}

/// Builds a strategy instance for `choice`.
///
/// Prompt-based methods get the stable-backbone regime (the analogue of
/// L2P/DualPrompt's frozen pretrained backbone): shared weights slow down
/// after the first task, adaptation flows through prompts.
pub fn build_method(choice: MethodChoice, cfg: MethodConfig) -> Box<dyn FdilStrategy> {
    let prompt_cfg = MethodConfig {
        stable_after_first_task: true,
        ..cfg
    };
    match choice {
        MethodChoice::Finetune => Box::new(Finetune::new(cfg)),
        MethodChoice::FedLwf => Box::new(FedLwf::new(cfg)),
        MethodChoice::FedEwc => Box::new(FedEwc::new(cfg)),
        MethodChoice::FedL2p => Box::new(FedL2p::new(prompt_cfg, false)),
        MethodChoice::FedL2pPool => Box::new(FedL2p::new(prompt_cfg, true)),
        MethodChoice::FedDualPrompt => Box::new(FedDualPrompt::new(prompt_cfg, false)),
        MethodChoice::FedDualPromptPool => Box::new(FedDualPrompt::new(prompt_cfg, true)),
        MethodChoice::RefFiL => Box::new(RefFiL::new(RefFiLConfig::new(prompt_cfg))),
        MethodChoice::RefFiLPromptOnly => Box::new(RefFiL::new(
            RefFiLConfig::new(prompt_cfg).with_prompt_only(true),
        )),
    }
}

/// Builds an ablated RefFiL variant (Table 5 rows).
pub fn build_reffil_variant(cfg: MethodConfig, flags: RefFiLFlags) -> Box<dyn FdilStrategy> {
    let prompt_cfg = MethodConfig {
        stable_after_first_task: true,
        ..cfg
    };
    Box::new(RefFiL::new(RefFiLConfig::new(prompt_cfg).with_flags(flags)))
}

/// Looks up a method by (case-insensitive) name; `+pool` or a trailing `!`
/// selects the dagger variants.
pub fn method_by_name(name: &str) -> Option<MethodChoice> {
    match name.to_ascii_lowercase().replace('-', "").as_str() {
        "finetune" => Some(MethodChoice::Finetune),
        "fedlwf" | "lwf" => Some(MethodChoice::FedLwf),
        "fedewc" | "ewc" => Some(MethodChoice::FedEwc),
        "fedl2p" | "l2p" => Some(MethodChoice::FedL2p),
        "fedl2p+pool" | "l2p+pool" | "fedl2p!" => Some(MethodChoice::FedL2pPool),
        "feddualprompt" | "dualprompt" => Some(MethodChoice::FedDualPrompt),
        "feddualprompt+pool" | "dualprompt+pool" | "feddualprompt!" => {
            Some(MethodChoice::FedDualPromptPool)
        }
        "reffil" => Some(MethodChoice::RefFiL),
        "reffil+prompt" | "reffil+promptonly" | "reffilprompt" => {
            Some(MethodChoice::RefFiLPromptOnly)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_methods_with_dagger_rows() {
        let names: Vec<&str> = MethodChoice::all().iter().map(|m| m.paper_name()).collect();
        assert_eq!(names.len(), 8);
        assert!(names.contains(&"FedL2P\u{2020}"));
        assert!(names.contains(&"RefFiL"));
    }

    #[test]
    fn every_method_constructs() {
        let cfg = method_config(DatasetChoice::Pacs, 4, 1);
        for m in MethodChoice::all() {
            let mut s = build_method(m, cfg);
            assert!(!s.init_global().is_empty(), "{:?} produced empty params", m);
        }
    }

    #[test]
    fn method_lookup_by_name() {
        assert_eq!(method_by_name("RefFiL"), Some(MethodChoice::RefFiL));
        assert_eq!(method_by_name("l2p+pool"), Some(MethodChoice::FedL2pPool));
        assert_eq!(method_by_name("ewc"), Some(MethodChoice::FedEwc));
        assert_eq!(
            method_by_name("reffil+prompt"),
            Some(MethodChoice::RefFiLPromptOnly)
        );
        assert_eq!(
            method_by_name(MethodChoice::RefFiLPromptOnly.cli_name()),
            Some(MethodChoice::RefFiLPromptOnly)
        );
        assert_eq!(method_by_name("unknown"), None);
    }

    #[test]
    fn config_tracks_dataset() {
        let c = method_config(DatasetChoice::FedDomainNet, 6, 0);
        assert_eq!(c.backbone.classes, 48);
        assert_eq!(c.backbone.in_dim, 48);
        assert_eq!(c.lr, 0.04);
        assert_eq!(c.max_tasks, 6);
    }
}
