//! The accuracy-for-bytes floor of the compressed uplink on the pinned
//! OfficeCaltech10 experiment at bench scale (seed 42, one worker thread).
//!
//! Each aggressive spec must cut encoded uplink bytes at least 5× and land
//! Avg and Last within one point of the uncompressed run of the same
//! method: the codec must not change what the model learns. Every run's
//! per-kind wire bytes must also add up exactly to its total traffic,
//! compressed or not. (The prompt-only *mode* itself trades accuracy for
//! bytes at this scale, where the from-scratch backbone still gains from
//! aggregation, so it is compared with itself, not with dense RefFiL.)

use refil_bench::{
    run_experiment_with_wire, DatasetChoice, ExperimentSpec, MethodChoice, MethodResult, Scale,
};
use refil_fed::{WireConfig, WireQuant};
use refil_telemetry::Telemetry;

fn run(method: MethodChoice, wire: WireConfig) -> MethodResult {
    let spec = ExperimentSpec {
        dataset: DatasetChoice::OfficeCaltech10,
        scale: Scale::bench(),
        new_order: false,
        seed: 42,
    };
    run_experiment_with_wire(&spec, method, &Telemetry::disabled(), Some(1), Some(wire))
}

/// Encoded and dense-frame uplink bytes over the run, after checking that
/// the per-kind wire ledger partitions the traffic total.
fn uplink_bytes(run: &MethodResult) -> (u64, u64) {
    let r = &run.result;
    let per_kind: u64 = r.rounds.iter().map(|round| round.total_wire_bytes()).sum();
    let traffic = r.traffic.up_bytes + r.traffic.down_bytes;
    assert_eq!(per_kind, traffic, "per-kind wire bytes != traffic total");
    let encoded = r
        .rounds
        .iter()
        .map(|round| round.uplink_encoded_bytes)
        .sum();
    let raw = r.rounds.iter().map(|round| round.uplink_raw_bytes).sum();
    (encoded, raw)
}

fn assert_floor(method: MethodChoice, lossy: WireConfig) {
    let dense = run(method, WireConfig::default());
    let compressed = run(method, lossy);
    uplink_bytes(&dense);
    let (encoded, raw) = uplink_bytes(&compressed);
    let reduction = raw as f64 / encoded as f64;
    assert!(
        reduction >= 5.0,
        "uplink reduction {reduction:.2}x below the 5x floor"
    );
    for (what, got, want) in [
        ("Avg", compressed.scores.avg, dense.scores.avg),
        ("Last", compressed.scores.last, dense.scores.last),
    ] {
        assert!(
            (got - want).abs() <= 1.0,
            "{what} {got:.2}% strays more than 1 point from the uncompressed {want:.2}%"
        );
    }
}

#[test]
fn delta_int8_topk_half_cuts_uplink_5x_within_a_point() {
    assert_floor(
        MethodChoice::RefFiL,
        WireConfig {
            delta: true,
            quant: WireQuant::Int8,
            topk_fraction: 0.5,
        },
    );
}

#[test]
fn prompt_only_delta_int8_cuts_uplink_5x_within_a_point() {
    assert_floor(
        MethodChoice::RefFiLPromptOnly,
        WireConfig {
            delta: true,
            quant: WireQuant::Int8,
            ..WireConfig::default()
        },
    );
}
