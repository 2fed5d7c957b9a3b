//! Shared fixtures for strategy tests (crate-internal).

use refil_data::{DatasetSpec, DomainSpec, FdilDataset};
use refil_fed::{IncrementConfig, RunConfig};
use refil_nn::models::BackboneConfig;

use crate::common::MethodConfig;

/// A very small backbone + method configuration for fast tests.
pub(crate) fn tiny_cfg() -> MethodConfig {
    MethodConfig {
        backbone: BackboneConfig {
            in_dim: 8,
            extractor_width: 16,
            extractor_depth: 1,
            n_patches: 2,
            token_dim: 8,
            heads: 2,
            blocks: 1,
            classes: 3,
            extractor: refil_nn::models::ExtractorKind::ResidualMlp,
        },
        lr: 0.05,
        prompt_len: 2,
        pool_size: 4,
        top_n: 2,
        max_tasks: 2,
        ..MethodConfig::default()
    }
}

/// A 2-domain, 3-class dataset with a strong shift.
pub(crate) fn tiny_dataset() -> FdilDataset {
    DatasetSpec {
        name: "tiny".into(),
        classes: 3,
        feature_dim: 8,
        proto_scale: 2.5,
        within_std: 0.4,
        test_fraction: 0.3,
        signature_dim: 2,
        signature_scale: 0.6,
        domains: vec![
            DomainSpec::new("d0", 150, 0.15, 0.05),
            DomainSpec::new("d1", 150, 0.3, 0.4).with_collision(1.0),
        ],
    }
    .generate(11)
}

/// A minimal federated protocol: 4 clients, 3 rounds per task.
pub(crate) fn tiny_run_config() -> RunConfig {
    RunConfig {
        increment: IncrementConfig {
            initial_clients: 4,
            select_per_round: 3,
            increment_per_task: 1,
            transition_fraction: 0.8,
            rounds_per_task: 3,
        },
        local_epochs: 1,
        batch_size: 16,
        quantity_sigma: 0.5,
        eval_batch: 128,
        dropout_prob: 0.0,
        seed: 13,
        threads: 0,
        net: Default::default(),
        wire: Default::default(),
    }
}
