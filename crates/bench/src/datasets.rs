//! Dataset selection and protocol scaling for the experiment harness.

use refil_data::{
    digits_five, fed_domain_net, office_caltech10, pacs, DatasetSpec, FdilDataset, PresetConfig,
    DIGITS_FIVE_NEW_ORDER, FED_DOMAIN_NET_NEW_ORDER, OFFICE_CALTECH10_NEW_ORDER, PACS_NEW_ORDER,
};
use refil_fed::{IncrementConfig, RunConfig};

/// The paper's four evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetChoice {
    /// Digits-Five (10 classes, 5 domains).
    DigitsFive,
    /// OfficeCaltech10 (10 classes, 4 domains).
    OfficeCaltech10,
    /// PACS (7 classes, 4 domains).
    Pacs,
    /// FedDomainNet (48 classes, 6 domains; Table 6 statistics).
    FedDomainNet,
}

impl DatasetChoice {
    /// All four datasets in the paper's table order.
    pub(crate) fn all() -> [DatasetChoice; 4] {
        [
            Self::DigitsFive,
            Self::OfficeCaltech10,
            Self::Pacs,
            Self::FedDomainNet,
        ]
    }

    /// Dataset display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::DigitsFive => "Digits-Five",
            Self::OfficeCaltech10 => "OfficeCaltech10",
            Self::Pacs => "PACS",
            Self::FedDomainNet => "FedDomainNet",
        }
    }

    /// The synthetic spec at the given data scale.
    ///
    /// FedDomainNet spreads its samples over 48 classes x 6 domains, so it
    /// runs at 10x the base data scale to keep per-class counts learnable.
    pub(crate) fn spec(self, scale: &Scale) -> DatasetSpec {
        let mult = if self == Self::FedDomainNet {
            10.0
        } else {
            1.0
        };
        let cfg = PresetConfig {
            scale: scale.data_scale * mult,
            feature_dim: 32,
        };
        match self {
            Self::DigitsFive => digits_five(cfg),
            Self::OfficeCaltech10 => office_caltech10(cfg),
            Self::Pacs => pacs(cfg),
            Self::FedDomainNet => fed_domain_net(cfg),
        }
    }

    /// Generates the dataset, optionally in the Table 4 "new domain order".
    pub fn generate(self, scale: &Scale, seed: u64, new_order: bool) -> FdilDataset {
        let ds = self.spec(scale).generate(seed);
        if new_order {
            ds.reordered(&self.new_order())
        } else {
            ds
        }
    }

    /// The Table 4 domain permutation.
    pub(crate) fn new_order(self) -> Vec<usize> {
        match self {
            Self::DigitsFive => DIGITS_FIVE_NEW_ORDER.to_vec(),
            Self::OfficeCaltech10 => OFFICE_CALTECH10_NEW_ORDER.to_vec(),
            Self::Pacs => PACS_NEW_ORDER.to_vec(),
            Self::FedDomainNet => FED_DOMAIN_NET_NEW_ORDER.to_vec(),
        }
    }

    /// Per-dataset learning rate (§4.1: 0.03 default, 0.06 OfficeCaltech10,
    /// 0.04 FedDomainNet).
    pub(crate) fn lr(self) -> f32 {
        match self {
            Self::OfficeCaltech10 => 0.06,
            Self::FedDomainNet => 0.04,
            _ => 0.03,
        }
    }

    /// The paper's client protocol: 20 start / select 10 / +2 per task, except
    /// OfficeCaltech10 (10 / 5 / +1), scaled by `scale.client_scale`.
    pub(crate) fn increment_config(self, scale: &Scale) -> IncrementConfig {
        let (initial, select, inc) = match self {
            Self::OfficeCaltech10 => (10, 5, 1),
            _ => (20, 10, 2),
        };
        let s = scale.client_scale;
        IncrementConfig {
            initial_clients: ((initial as f32 * s).round() as usize).max(3),
            select_per_round: ((select as f32 * s).round() as usize).max(2),
            increment_per_task: ((inc as f32 * s).round() as usize).max(1),
            transition_fraction: 0.8,
            rounds_per_task: scale.rounds,
        }
    }

    /// Full run configuration for this dataset at `scale`.
    pub fn run_config(self, scale: &Scale, seed: u64) -> RunConfig {
        RunConfig {
            increment: self.increment_config(scale),
            local_epochs: scale.epochs,
            batch_size: 32,
            quantity_sigma: 0.6,
            eval_batch: 256,
            dropout_prob: 0.0,
            seed,
            threads: 0,
            net: refil_fed::NetConfig::default(),
            wire: refil_fed::WireConfig::default(),
        }
    }
}

/// Looks up a dataset by (case-insensitive) name.
pub fn dataset_by_name(name: &str) -> Option<DatasetChoice> {
    match name.to_ascii_lowercase().as_str() {
        "digits-five" | "digitsfive" | "digits" => Some(DatasetChoice::DigitsFive),
        "officecaltech10" | "office" => Some(DatasetChoice::OfficeCaltech10),
        "pacs" => Some(DatasetChoice::Pacs),
        "feddomainnet" | "domainnet" => Some(DatasetChoice::FedDomainNet),
        _ => None,
    }
}

/// Protocol scaling knobs: the paper's values divided down to CPU scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on the paper's dataset sizes.
    pub data_scale: f32,
    /// Multiplier on the paper's client counts.
    pub client_scale: f32,
    /// Communication rounds per task (paper: 30).
    pub rounds: usize,
    /// Local epochs per round (paper: 20).
    pub epochs: usize,
}

impl Scale {
    /// The scale the table benches run at (minutes on one CPU core).
    pub fn bench() -> Self {
        Self {
            data_scale: 0.015,
            client_scale: 0.4,
            rounds: 5,
            epochs: 2,
        }
    }

    /// A tiny scale for smoke tests (seconds).
    pub fn smoke() -> Self {
        Self {
            data_scale: 0.008,
            client_scale: 0.3,
            rounds: 3,
            epochs: 1,
        }
    }

    /// The paper's full protocol (for reference / GPU-class machines).
    pub(crate) fn paper() -> Self {
        Self {
            data_scale: 1.0,
            client_scale: 1.0,
            rounds: 30,
            epochs: 20,
        }
    }

    /// Reads `REFIL_SCALE` from the environment (`smoke`, `bench`, `paper`),
    /// defaulting to [`Scale::bench`].
    pub fn from_env() -> Self {
        match std::env::var("REFIL_SCALE").as_deref() {
            Ok("smoke") => Self::smoke(),
            Ok("paper") => Self::paper(),
            _ => Self::bench(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        assert_eq!(dataset_by_name("pacs"), Some(DatasetChoice::Pacs));
        assert_eq!(
            dataset_by_name("Digits-Five"),
            Some(DatasetChoice::DigitsFive)
        );
        assert_eq!(dataset_by_name("nope"), None);
    }

    #[test]
    fn office_uses_smaller_protocol() {
        let s = Scale::paper();
        let office = DatasetChoice::OfficeCaltech10.increment_config(&s);
        let digits = DatasetChoice::DigitsFive.increment_config(&s);
        assert_eq!(office.initial_clients, 10);
        assert_eq!(digits.initial_clients, 20);
        assert_eq!(office.increment_per_task, 1);
        assert_eq!(digits.increment_per_task, 2);
    }

    #[test]
    fn new_order_generation_permutes() {
        let scale = Scale::smoke();
        let base = DatasetChoice::Pacs.generate(&scale, 1, false);
        let reord = DatasetChoice::Pacs.generate(&scale, 1, true);
        assert_eq!(base.domains[1].name, reord.domains[0].name); // Cartoon first
        assert_eq!(base.domains[0].name, reord.domains[1].name); // Photo second
    }

    #[test]
    fn learning_rates_match_paper() {
        assert_eq!(DatasetChoice::DigitsFive.lr(), 0.03);
        assert_eq!(DatasetChoice::OfficeCaltech10.lr(), 0.06);
        assert_eq!(DatasetChoice::FedDomainNet.lr(), 0.04);
        assert_eq!(DatasetChoice::Pacs.lr(), 0.03);
    }
}
