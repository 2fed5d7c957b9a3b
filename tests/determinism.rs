//! Cross-thread determinism of the federated runner.
//!
//! The `FdilRunner` contract is that worker-thread count is an execution
//! detail: all per-round randomness is pre-drawn on the driver thread and
//! session outputs are merged in client-id order, so a parallel run must be
//! *byte-identical* to a sequential one — same final global model, same
//! accuracy matrix, same traffic accounting. These tests pin that contract
//! for the full RefFiL method and a baseline, across seeds and under
//! client dropout.

use refil::continual::{Finetune, MethodConfig};
use refil::core::{RefFiL, RefFiLConfig};
use refil::data::{DatasetSpec, DomainSpec, FdilDataset};
use refil::fed::{
    FdilRunner, FdilStrategy, IncrementConfig, RunConfig, RunResult, WireConfig, WireQuant,
};
use refil::nn::models::{BackboneConfig, ExtractorKind};

fn dataset() -> FdilDataset {
    DatasetSpec {
        name: "det".into(),
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

fn method() -> MethodConfig {
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
            extractor: ExtractorKind::ResidualMlp,
        },
        lr: 0.05,
        prompt_len: 2,
        max_tasks: 2,
        ..MethodConfig::default()
    }
}

fn run_cfg(seed: u64, dropout: f32) -> RunConfig {
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
        dropout_prob: dropout,
        seed,
        threads: 0,
        net: Default::default(),
        wire: Default::default(),
    }
}

fn run_at(
    threads: usize,
    cfg: RunConfig,
    ds: &FdilDataset,
    strat: &mut dyn FdilStrategy,
) -> RunResult {
    FdilRunner::new(cfg).threads(threads).run(ds, strat)
}

fn assert_byte_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.final_global, b.final_global, "final_global diverged");
    assert_eq!(a.domain_acc, b.domain_acc, "domain_acc diverged");
    assert_eq!(a.traffic, b.traffic, "traffic stats diverged");
}

#[test]
fn reffil_parallel_matches_sequential_across_seeds() {
    let ds = dataset();
    for seed in [13u64, 29] {
        let cfg = run_cfg(seed, 0.0);
        let mut s1 = RefFiL::new(RefFiLConfig::new(method()));
        let r1 = run_at(1, cfg, &ds, &mut s1);
        let mut s4 = RefFiL::new(RefFiLConfig::new(method()));
        let r4 = run_at(4, cfg, &ds, &mut s4);
        assert_byte_identical(&r1, &r4);
        // The post-round merge path (prompt uploads) must also converge to
        // the same server state.
        assert_eq!(
            s1.prompt_store().total_reps(),
            s4.prompt_store().total_reps(),
            "prompt store diverged at seed {seed}"
        );
    }
}

#[test]
fn finetune_parallel_matches_sequential_across_seeds() {
    let ds = dataset();
    for seed in [13u64, 29] {
        let cfg = run_cfg(seed, 0.0);
        let mut s1 = Finetune::new(method());
        let r1 = run_at(1, cfg, &ds, &mut s1);
        let mut s4 = Finetune::new(method());
        let r4 = run_at(4, cfg, &ds, &mut s4);
        assert_byte_identical(&r1, &r4);
    }
}

#[test]
fn lossless_wire_spec_matches_default_config() {
    // `WireConfig { delta: false, quant: None, topk_fraction: 1.0 }` is the
    // identity spec: the compression layer must never engage, so the run is
    // byte-identical to a default-config run, for the full RefFiL protocol
    // (which adds GlobalPromptBroadcast / PromptUpload frames).
    let ds = dataset();
    for seed in [13u64, 29] {
        let default_cfg = run_cfg(seed, 0.0);
        let mut cfg = default_cfg;
        cfg.wire = WireConfig {
            delta: false,
            quant: WireQuant::None,
            topk_fraction: 1.0,
        };
        let mut s_spec = RefFiL::new(RefFiLConfig::new(method()));
        let r_spec = FdilRunner::new(cfg).run(&ds, &mut s_spec);
        let mut s_default = RefFiL::new(RefFiLConfig::new(method()));
        let r_default = FdilRunner::new(default_cfg).run(&ds, &mut s_default);
        assert_byte_identical(&r_spec, &r_default);
        assert_eq!(
            s_spec.prompt_store().total_reps(),
            s_default.prompt_store().total_reps(),
            "prompt store diverged at seed {seed}"
        );
        // The identity spec must not have routed updates through the
        // compressed frame kind: raw == encoded on every round.
        for r in &r_spec.rounds {
            assert_eq!(r.uplink_raw_bytes, r.uplink_encoded_bytes);
            assert!(!r.wire_bytes.contains_key("compressed_model_update"));
        }
    }
}

#[test]
fn compressed_runs_are_thread_count_invariant() {
    // Lossy compression (delta + int8 + top-k) is still deterministic: all
    // randomness is pre-drawn and quantization/tie-breaking are fixed-order,
    // so worker count stays an execution detail with the codec active.
    let ds = dataset();
    let mut cfg = run_cfg(13, 0.0);
    cfg.wire = WireConfig {
        delta: true,
        quant: WireQuant::Int8,
        topk_fraction: 0.5,
    };
    let mut s1 = RefFiL::new(RefFiLConfig::new(method()));
    let r1 = run_at(1, cfg, &ds, &mut s1);
    let mut s4 = RefFiL::new(RefFiLConfig::new(method()));
    let r4 = run_at(4, cfg, &ds, &mut s4);
    assert_byte_identical(&r1, &r4);
    // And the codec genuinely engaged: encoded uplink well under dense.
    let raw: u64 = r1.rounds.iter().map(|r| r.uplink_raw_bytes).sum();
    let encoded: u64 = r1.rounds.iter().map(|r| r.uplink_encoded_bytes).sum();
    assert!(raw > 0 && encoded > 0);
    assert!(
        encoded * 2 < raw,
        "compression should have engaged (raw {raw}, encoded {encoded})"
    );
}

#[test]
fn parallel_matches_sequential_under_dropout() {
    // Dropout draws are part of the pre-drawn randomness; simulated client
    // failures must hit the same clients at any thread count.
    let ds = dataset();
    let cfg = run_cfg(13, 0.4);
    let mut s1 = Finetune::new(method());
    let r1 = run_at(1, cfg, &ds, &mut s1);
    let mut s4 = Finetune::new(method());
    let r4 = run_at(4, cfg, &ds, &mut s4);
    assert_byte_identical(&r1, &r4);
}
