//! The three workloads. Each fixes its protocol (client schedule, data
//! partition, selection — everything `RunConfig::seed` drives), so every
//! seed asks the system for the same amount of work; `--seed` generates
//! the dataset's values and the model's initial weights.

use refil_bench::methods::method_config;
use refil_bench::{build_method, DatasetChoice, MethodChoice, Scale};
use refil_continual::{Finetune, MethodConfig};
use refil_data::{DatasetSpec, DomainSpec, FdilDataset};
use refil_fed::{FdilStrategy, IncrementConfig, NetConfig, RunConfig, WireConfig, WireQuant};
use refil_nn::models::{BackboneConfig, ExtractorKind};

/// Seed of every workload's protocol schedule (selection, partition,
/// session seeds); fixed so that run length does not depend on `--seed`.
const PROTOCOL_SEED: u64 = 0x00c0_ffee;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process RefFiL on Digits-Five over the encoded loopback, one
    /// worker thread: compute-bound local training, prompt machinery,
    /// FINCH, and the prompt-exchange messages.
    TrainDigitsReffil,
    /// Served over TCP to two pumped peers with a tiny Finetune model and
    /// even data shares: per-frame and reactor overhead dominate.
    ServeRoundsTiny,
    /// Served over TCP with a wide Finetune backbone, little local data and
    /// a `delta+int8+topk0.5` uplink: bound by bytes and compression.
    ServeLossyWide,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TrainDigitsReffil,
        Workload::ServeRoundsTiny,
        Workload::ServeLossyWide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDigitsReffil => "train_digits_reffil",
            Workload::ServeRoundsTiny => "serve_rounds_tiny",
            Workload::ServeLossyWide => "serve_lossy_wide",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs `FdilRunner::serve` against pumped peers.
    pub fn served(self) -> bool {
        self != Workload::TrainDigitsReffil
    }

    /// Peers the load generator connects (served workloads).
    pub fn peers(self) -> usize {
        2
    }

    /// Lowest acceptable `acc_avg` (%): well below every seed's figure,
    /// well above chance (10 % for ten classes, 33 % for three).
    pub fn acc_floor(self) -> f32 {
        match self {
            Workload::TrainDigitsReffil => 40.0,
            Workload::ServeRoundsTiny => 45.0,
            Workload::ServeLossyWide => 30.0,
        }
    }

    fn digits_scale() -> Scale {
        Scale {
            data_scale: 0.008,
            client_scale: 0.4,
            rounds: 5,
            epochs: 1,
        }
    }

    pub fn dataset(self, seed: u64) -> FdilDataset {
        match self {
            Workload::TrainDigitsReffil => {
                DatasetChoice::DigitsFive.generate(&Self::digits_scale(), seed, false)
            }
            Workload::ServeRoundsTiny => DatasetSpec {
                name: "tiny".into(),
                classes: 3,
                feature_dim: 6,
                proto_scale: 2.5,
                within_std: 0.4,
                test_fraction: 0.6,
                signature_dim: 2,
                signature_scale: 0.6,
                domains: vec![
                    DomainSpec::new("d0", 240, 0.15, 0.05),
                    DomainSpec::new("d1", 240, 0.3, 0.4),
                ],
            }
            .generate(seed),
            Workload::ServeLossyWide => DatasetSpec {
                name: "wide".into(),
                classes: 10,
                feature_dim: 32,
                proto_scale: 2.5,
                within_std: 0.35,
                test_fraction: 0.6,
                signature_dim: 6,
                signature_scale: 0.3,
                domains: vec![
                    DomainSpec::new("d0", 150, 0.15, 0.05),
                    DomainSpec::new("d1", 150, 0.4, 0.3),
                ],
            }
            .generate(seed),
        }
    }

    pub fn strategy(self, seed: u64) -> Box<dyn FdilStrategy> {
        match self {
            Workload::TrainDigitsReffil => build_method(
                MethodChoice::RefFiL,
                method_config(DatasetChoice::DigitsFive, 5, seed),
            ),
            Workload::ServeRoundsTiny => Box::new(Finetune::new(MethodConfig {
                backbone: BackboneConfig {
                    in_dim: 6,
                    extractor_width: 8,
                    extractor_depth: 1,
                    n_patches: 2,
                    token_dim: 8,
                    heads: 2,
                    blocks: 1,
                    classes: 3,
                    extractor: ExtractorKind::ResidualMlp,
                },
                lr: 0.05,
                prompt_len: 2,
                max_tasks: 2,
                init_seed: seed,
                ..MethodConfig::default()
            })),
            Workload::ServeLossyWide => Box::new(Finetune::new(MethodConfig {
                backbone: BackboneConfig {
                    in_dim: 32,
                    extractor_width: 128,
                    extractor_depth: 2,
                    n_patches: 4,
                    token_dim: 32,
                    heads: 4,
                    blocks: 2,
                    classes: 10,
                    extractor: ExtractorKind::ResidualMlp,
                },
                lr: 0.03,
                prompt_len: 2,
                max_tasks: 2,
                init_seed: seed,
                ..MethodConfig::default()
            })),
        }
    }

    pub fn run_config(self) -> RunConfig {
        let served_net = NetConfig {
            min_peers: self.peers(),
            ..NetConfig::default()
        };
        let cfg = match self {
            Workload::TrainDigitsReffil => {
                DatasetChoice::DigitsFive.run_config(&Self::digits_scale(), PROTOCOL_SEED)
            }
            Workload::ServeRoundsTiny => RunConfig {
                increment: IncrementConfig {
                    initial_clients: 8,
                    select_per_round: 8,
                    increment_per_task: 1,
                    transition_fraction: 0.8,
                    rounds_per_task: 100,
                },
                local_epochs: 1,
                batch_size: 16,
                quantity_sigma: 0.0,
                eval_batch: 128,
                net: served_net,
                ..RunConfig::default()
            },
            Workload::ServeLossyWide => RunConfig {
                increment: IncrementConfig {
                    initial_clients: 4,
                    select_per_round: 4,
                    increment_per_task: 1,
                    transition_fraction: 0.8,
                    rounds_per_task: 10,
                },
                local_epochs: 1,
                batch_size: 16,
                quantity_sigma: 0.0,
                eval_batch: 128,
                net: served_net,
                wire: WireConfig {
                    delta: true,
                    quant: WireQuant::Int8,
                    topk_fraction: 0.5,
                },
                ..RunConfig::default()
            },
        };
        RunConfig {
            seed: PROTOCOL_SEED,
            threads: 1,
            ..cfg
        }
    }
}
