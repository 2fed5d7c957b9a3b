//! Cross-thread determinism of the federated runner.
//!
//! The `FdilRunner` contract is that worker-thread count is an execution
//! detail: all per-round randomness is pre-drawn on the driver thread and
//! session outputs are merged in client-id order, so a parallel run must be
//! bit-identical to a sequential one. These are the Finetune and RefFiL
//! cells of the contract matrix (`tests/contracts.rs`): each run reduces to
//! its digest and must equal its class's golden in `common::GOLDEN`.

mod common;

use common::{
    assert_codec_engaged, cell, check_class, in_process, lossy_wire, run_cfg, thread_class,
};
use refil::fed::{WireConfig, WireQuant};

#[test]
fn reffil_parallel_matches_sequential_across_seeds() {
    // The digest includes the prompt store's size, so the post-round merge
    // path (prompt uploads) must converge to the same server state too.
    for seed in [13u64, 29] {
        thread_class("reffil", seed);
    }
}

#[test]
fn finetune_parallel_matches_sequential_across_seeds() {
    for seed in [13u64, 29] {
        thread_class("finetune", seed);
    }
}

#[test]
fn lossless_wire_spec_matches_default_config() {
    // `WireConfig { delta: false, quant: None, topk_fraction: 1.0 }` is the
    // identity spec: the compression layer must never engage, so the run
    // holds the default-config class's golden, for the full RefFiL protocol
    // (which adds GlobalPromptBroadcast / PromptUpload frames).
    for seed in [13u64, 29] {
        let mut cfg = run_cfg(seed);
        cfg.wire = WireConfig {
            delta: false,
            quant: WireQuant::None,
            topk_fraction: 1.0,
        };
        let (res, strat) = in_process("reffil", cfg, 1, false);
        // Raw == encoded on every round: no update went through the
        // compressed frame kind.
        for r in &res.rounds {
            assert_eq!(r.uplink_raw_bytes, r.uplink_encoded_bytes);
            assert!(!r.wire_bytes.contains_key("compressed_model_update"));
        }
        check_class(
            &format!("reffil/{seed}"),
            &[cell("t1+identity-wire", &res, &strat)],
        );
    }
}

#[test]
fn compressed_runs_are_thread_count_invariant() {
    // Lossy compression (delta + int8 + top-k) is still deterministic: all
    // randomness is pre-drawn and quantization and tie-breaking are
    // fixed-order, so worker count stays an execution detail with the codec
    // active.
    let mut cfg = run_cfg(13);
    cfg.wire = lossy_wire();
    let (t1, s1) = in_process("reffil", cfg, 1, false);
    let (t4, s4) = in_process("reffil", cfg, 4, false);
    assert_codec_engaged("t1", &t1);
    check_class(
        "reffil+delta+int8+topk0.5/13",
        &[cell("t1", &t1, &s1), cell("t4", &t4, &s4)],
    );
}
