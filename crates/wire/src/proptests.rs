//! Property-based guarantees of the codec: exhaustive round trips across
//! random shapes for every message kind, exact `encoded_len` accounting,
//! and single-byte corruption always surfacing as a typed [`WireError`] —
//! never a panic, never a silently wrong decode.
//!
//! The vendored proptest harness offers numeric-range strategies and
//! `prop::collection::vec` only, so messages are assembled in the test body
//! from generated primitive pools: a kind selector picks the variant and
//! raw `u32` bit patterns become `f32`s via `from_bits`, which keeps NaNs,
//! infinities, and subnormals in play.

#![cfg(test)]

use proptest::prelude::*;

use crate::compress::oracle::{self, topk_positions_by_sort};
use crate::compress::{
    f16_from_f32, f16_to_f32, int8_dequantize_one, int8_quantize, topk_positions, CompressionSpec,
    QuantMode,
};
use crate::frame::{HEADER_LEN, MAGIC};
use crate::message::{
    ClientModelUpdate, CompressedModelUpdate, GlobalPromptBroadcast, Hello, ModelBroadcast,
    PromptGroup, PromptUpload, RehearsalMemory, Resume, RoundStart, RoundSync, RunEnd,
    SessionAssignment, SessionResult, TaskBegin, TaskEnd, Welcome, WireMessage, WireSample,
};
use crate::WireError;

/// Bit patterns → f32s; the codec must be bit-exact for every pattern.
fn f32s(bits: &[u32]) -> Vec<f32> {
    bits.iter().copied().map(f32::from_bits).collect()
}

/// Class-indexed prompt list from a pool of bit vectors: entry `i` gets a
/// class id derived from `salt` and its pool vector as the prompt.
fn class_prompts(salt: u32, pool: &[Vec<u32>]) -> Vec<(u32, Vec<f32>)> {
    pool.iter()
        .enumerate()
        .map(|(i, bits)| (salt.wrapping_add(i as u32 * 3), f32s(bits)))
        .collect()
}

/// Deterministically assembles one message of the selected kind from the
/// generated primitive pools. Every kind is reachable; empty pools produce
/// the degenerate shapes (empty models, empty prompt sets) on purpose.
fn build_message(
    kind: usize,
    id: u64,
    aux: u64,
    wbits: u32,
    model_bits: &[u32],
    nested: &[Vec<u32>],
    flag: usize,
) -> WireMessage {
    match kind {
        0 => WireMessage::ModelBroadcast(ModelBroadcast {
            task: id as u32,
            round: aux as u32,
            model: f32s(model_bits),
        }),
        1 => WireMessage::ClientModelUpdate(ClientModelUpdate {
            client_id: id,
            weight: f32::from_bits(wbits),
            model: f32s(model_bits),
        }),
        2 => WireMessage::PromptUpload(PromptUpload {
            client_id: id,
            groups: nested
                .iter()
                .enumerate()
                .map(|(i, bits)| PromptGroup {
                    client_id: id.wrapping_add(i as u64),
                    // Alternate empty and non-empty prompt sets so both
                    // shapes round-trip inside one upload.
                    prompts: if i % 2 == flag {
                        Vec::new()
                    } else {
                        class_prompts(wbits, std::slice::from_ref(bits))
                    },
                })
                .collect(),
        }),
        3 => WireMessage::GlobalPromptBroadcast(GlobalPromptBroadcast {
            task: id as u32,
            round: aux as u32,
            candidates: class_prompts(wbits, nested),
            generalized: if flag == 1 {
                Some(f32s(model_bits))
            } else {
                None
            },
        }),
        4 => WireMessage::RehearsalMemory(RehearsalMemory {
            client_id: id,
            seed: aux,
            samples: nested
                .iter()
                .enumerate()
                .map(|(i, bits)| WireSample {
                    label: wbits.wrapping_add(i as u32),
                    features: f32s(bits),
                })
                .collect(),
        }),
        5 => WireMessage::Hello(Hello {
            nonce: id,
            // Both handshake shapes: a fresh join and a resuming rejoin.
            resume: if flag == 1 {
                Some(Resume {
                    token: aux,
                    cursor: aux.rotate_left(17),
                })
            } else {
                None
            },
        }),
        6 => WireMessage::Welcome(Welcome {
            peer_id: id,
            resume_token: aux,
            // Arbitrary ASCII spec derived from the bit pool.
            spec: model_bits
                .iter()
                .map(|b| char::from((b % 26) as u8 + b'a'))
                .collect(),
            compression: if flag == 1 {
                Some(CompressionSpec {
                    delta: aux.is_multiple_of(2),
                    quant: match wbits % 3 {
                        0 => QuantMode::None,
                        1 => QuantMode::F16,
                        _ => QuantMode::Int8,
                    },
                    topk_fraction: [0.25f32, 0.5, 0.75, 1.0][(aux % 4) as usize],
                })
            } else {
                None
            },
        }),
        7 => WireMessage::RoundStart(RoundStart {
            task: id as u32,
            round: aux as u32,
            model: raw_bytes(model_bits),
            extra: if flag == 1 {
                Some(raw_bytes(&[wbits]))
            } else {
                None
            },
            sessions: nested
                .iter()
                .enumerate()
                .map(|(i, bits)| SessionAssignment {
                    client_id: id.wrapping_add(i as u64),
                    group: (bits.len() % 3) as u8,
                    seed: aux.wrapping_mul(i as u64 + 1),
                })
                .collect(),
        }),
        8 => WireMessage::SessionResult(SessionResult {
            task: id as u32,
            round: aux as u32,
            client_id: id,
            wall_ns: aux,
            update: raw_bytes(model_bits),
            merge: if flag == 1 {
                Some(raw_bytes(&[wbits, wbits]))
            } else {
                None
            },
        }),
        9 => WireMessage::RoundSync(RoundSync {
            task: id as u32,
            round: aux as u32,
            global: f32s(model_bits),
            merges: nested
                .iter()
                .enumerate()
                .map(|(i, bits)| (id.wrapping_add(i as u64), raw_bytes(bits)))
                .collect(),
        }),
        10 => WireMessage::TaskBegin(TaskBegin {
            task: id as u32,
            global: f32s(model_bits),
        }),
        11 => WireMessage::TaskEnd(TaskEnd {
            task: id as u32,
            global: f32s(model_bits),
        }),
        12 => {
            // Built through the real encoder so the index/values invariants
            // hold; NaNs, infinities, and subnormals stay in the pool.
            let flat = f32s(model_bits);
            let base = vec![0.0f32; flat.len()];
            let spec = CompressionSpec {
                delta: flag == 1,
                quant: match aux % 3 {
                    0 => QuantMode::None,
                    1 => QuantMode::F16,
                    _ => QuantMode::Int8,
                },
                topk_fraction: [0.25f32, 0.5, 0.75, 1.0][(wbits % 4) as usize],
            };
            WireMessage::CompressedModelUpdate(CompressedModelUpdate::compress(
                &spec,
                None,
                id,
                f32::from_bits(wbits),
                &flat,
                &base,
                id as u32,
                aux as u32,
            ))
        }
        _ => WireMessage::RunEnd(RunEnd {
            reason: (wbits % 3) as u8,
        }),
    }
}

/// An opaque byte string (stand-in for a nested frame) from a bit pool.
fn raw_bytes(bits: &[u32]) -> Vec<u8> {
    bits.iter().flat_map(|b| b.to_le_bytes()).collect()
}

/// Bit-exact equality: `PartialEq` on f32 treats NaN != NaN, so compare
/// through the encoded bytes instead.
fn assert_same(a: &WireMessage, b: &WireMessage) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.kind(), b.kind());
    prop_assert_eq!(a.encode(), b.encode());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_kind_round_trips_across_random_shapes(
        kind in 0usize..14,
        id in 0u64..=u64::MAX,
        aux in 0u64..=u64::MAX,
        wbits in 0u32..=u32::MAX,
        model_bits in prop::collection::vec(0u32..=u32::MAX, 0..24),
        nested in prop::collection::vec(prop::collection::vec(0u32..=u32::MAX, 0..16), 0..5),
        flag in 0usize..2,
    ) {
        let msg = build_message(kind, id, aux, wbits, &model_bits, &nested, flag);
        let frame = msg.encode();
        prop_assert_eq!(frame.len(), msg.encoded_len(), "encoded_len disagrees with encode()");
        let back = WireMessage::decode(&frame).expect("round trip decode");
        assert_same(&back, &msg)?;
    }

    #[test]
    fn one_element_model_round_trips(xbits in 0u32..=u32::MAX, kind in 0usize..3) {
        // The degenerate shapes the codec contract calls out explicitly:
        // empty prompt sets and 1-element models.
        let x = f32::from_bits(xbits);
        let msg = match kind {
            0 => WireMessage::ModelBroadcast(ModelBroadcast { task: 0, round: 0, model: vec![x] }),
            1 => WireMessage::ClientModelUpdate(ClientModelUpdate {
                client_id: 0,
                weight: 1.0,
                model: vec![x],
            }),
            _ => WireMessage::PromptUpload(PromptUpload { client_id: 0, groups: Vec::new() }),
        };
        let back = WireMessage::decode(&msg.encode()).expect("decode");
        assert_same(&back, &msg)?;
    }

    #[test]
    fn corrupting_any_single_byte_yields_a_wire_error(
        kind in 0usize..14,
        id in 0u64..=u64::MAX,
        aux in 0u64..=u64::MAX,
        wbits in 0u32..=u32::MAX,
        model_bits in prop::collection::vec(0u32..=u32::MAX, 0..24),
        nested in prop::collection::vec(prop::collection::vec(0u32..=u32::MAX, 0..16), 0..5),
        flag in 0usize..2,
        pos_seed in 0usize..=usize::MAX,
        flip in 1u8..=255,
    ) {
        let msg = build_message(kind, id, aux, wbits, &model_bits, &nested, flag);
        let clean = msg.encode();
        let pos = pos_seed % clean.len();
        let mut corrupt = clean.clone();
        corrupt[pos] ^= flip;
        match WireMessage::decode(&corrupt) {
            Err(_) => {} // typed error: exactly what the contract demands
            Ok(back) => {
                // A successful decode of a corrupted frame would only be
                // acceptable if it reproduced the original bytes — which a
                // one-byte flip cannot, so this is a contract violation.
                prop_assert_eq!(back.encode(), clean, "corrupt frame decoded silently");
                prop_assert!(false, "corrupt frame decoded at byte {}", pos);
            }
        }
    }

    #[test]
    fn control_frames_with_real_nested_payloads_round_trip(
        inner_kind in 0usize..6,
        outer_sel in 0usize..3,
        id in 0u64..=u64::MAX,
        aux in 0u64..=u64::MAX,
        wbits in 0u32..=u32::MAX,
        model_bits in prop::collection::vec(0u32..=u32::MAX, 0..16),
        nested in prop::collection::vec(prop::collection::vec(0u32..=u32::MAX, 0..8), 0..3),
        flag in 0usize..2,
    ) {
        // The control protocol's defining structure: payload exchanges ride
        // inside RoundStart/SessionResult/RoundSync as *sealed frames*.
        // The outer codec must hand those bytes back verbatim, and the
        // inner codec must accept them — for every payload kind, not just
        // the raw byte blobs the generic round-trip sweep uses.
        // Selector 5 maps to the compressed payload kind (build_message 12);
        // 0–4 are the classic payload kinds.
        let inner_kind = if inner_kind == 5 { 12 } else { inner_kind };
        let inner = build_message(inner_kind, id, aux, wbits, &model_bits, &nested, flag);
        let inner_frame = inner.encode();
        let outer = match outer_sel {
            0 => WireMessage::RoundStart(RoundStart {
                task: id as u32,
                round: aux as u32,
                model: inner_frame.clone(),
                extra: if flag == 1 { Some(inner_frame.clone()) } else { None },
                sessions: Vec::new(),
            }),
            1 => WireMessage::SessionResult(SessionResult {
                task: id as u32,
                round: aux as u32,
                client_id: id,
                wall_ns: aux,
                update: inner_frame.clone(),
                merge: if flag == 1 { Some(inner_frame.clone()) } else { None },
            }),
            _ => WireMessage::RoundSync(RoundSync {
                task: id as u32,
                round: aux as u32,
                global: f32s(&model_bits),
                merges: vec![(id, inner_frame.clone())],
            }),
        };
        let encoded = outer.encode();
        prop_assert_eq!(encoded.len(), outer.encoded_len());
        let back = WireMessage::decode(&encoded).expect("outer decode");
        let nested_back = match &back {
            WireMessage::RoundStart(m) => m.model.clone(),
            WireMessage::SessionResult(m) => m.update.clone(),
            WireMessage::RoundSync(m) => m.merges[0].1.clone(),
            _ => unreachable!("outer selector"),
        };
        prop_assert_eq!(&nested_back, &inner_frame, "nested frame bytes altered");
        assert_same(&WireMessage::decode(&nested_back).expect("nested decode"), &inner)?;
    }

    #[test]
    fn arbitrary_garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        // Any outcome is fine except a panic; random bytes essentially
        // never form a valid CRC-sealed frame.
        let _ = WireMessage::decode(&bytes);
    }

    #[test]
    fn truncating_a_frame_is_always_detected(
        kind in 0usize..14,
        id in 0u64..=u64::MAX,
        aux in 0u64..=u64::MAX,
        wbits in 0u32..=u32::MAX,
        model_bits in prop::collection::vec(0u32..=u32::MAX, 0..24),
        nested in prop::collection::vec(prop::collection::vec(0u32..=u32::MAX, 0..16), 0..5),
        flag in 0usize..2,
        cut_seed in 0usize..=usize::MAX,
    ) {
        let msg = build_message(kind, id, aux, wbits, &model_bits, &nested, flag);
        let frame = msg.encode();
        let keep = cut_seed % frame.len(); // strictly shorter than the frame
        let err = WireMessage::decode(&frame[..keep]).unwrap_err();
        prop_assert!(
            matches!(err, WireError::Truncated { .. } | WireError::LengthMismatch { .. }),
            "unexpected error for truncation to {}: {}", keep, err
        );
    }

    #[test]
    fn header_magic_and_length_match_constants(
        kind in 0usize..14,
        id in 0u64..=u64::MAX,
        aux in 0u64..=u64::MAX,
        wbits in 0u32..=u32::MAX,
        model_bits in prop::collection::vec(0u32..=u32::MAX, 0..24),
        nested in prop::collection::vec(prop::collection::vec(0u32..=u32::MAX, 0..16), 0..5),
        flag in 0usize..2,
    ) {
        let msg = build_message(kind, id, aux, wbits, &model_bits, &nested, flag);
        let frame = msg.encode();
        prop_assert!(frame.len() >= HEADER_LEN);
        prop_assert!(frame[..4] == MAGIC, "bad magic prefix");
    }

    #[test]
    fn f16_reconstruction_error_contract_holds(xbits in 0u32..=u32::MAX) {
        // The documented bound from `compress`:
        //   |x − dec(enc(x))| ≤ max(|x|·2⁻¹¹, 2⁻²⁵)  for finite |x| ≤ 65504,
        // saturation to ±65504 beyond that, NaN stays NaN.
        let x = f32::from_bits(xbits);
        let back = f16_to_f32(f16_from_f32(x));
        if x.is_nan() {
            prop_assert!(back.is_nan());
        } else if x.abs() > 65504.0 {
            prop_assert_eq!(back, 65504.0f32.copysign(x), "saturation for {}", x);
        } else {
            let err = (f64::from(x) - f64::from(back)).abs();
            let bound = (f64::from(x.abs()) * 2f64.powi(-11)).max(2f64.powi(-25));
            prop_assert!(err <= bound, "x={:e} back={:e} err={:e} bound={:e}", x, back, err, bound);
        }
    }

    #[test]
    fn f16_codec_is_deterministic_and_idempotent(xbits in 0u32..=u32::MAX) {
        let x = f32::from_bits(xbits);
        let h = f16_from_f32(x);
        prop_assert_eq!(h, f16_from_f32(x), "same input, same bits");
        // Decoded values are fixed points: re-encoding loses nothing more.
        prop_assert_eq!(f16_from_f32(f16_to_f32(h)), h, "grid fixed point");
    }

    #[test]
    fn int8_reconstruction_error_contract_holds(
        ints in prop::collection::vec(-1_000_000i32..=1_000_000, 1..64),
        scale_exp in -8i32..=8,
    ) {
        // Finite tensors across 17 orders of magnitude of spread; the
        // documented bound is |x − dec| ≤ scale/2 + (|x| + scale)·2⁻²⁰.
        let mag = 10f64.powi(scale_exp) as f32;
        let values: Vec<f32> = ints.iter().map(|&i| i as f32 * 1e-4 * mag).collect();
        let (zp, scale, codes) = int8_quantize(&values);
        prop_assert_eq!(codes.len(), values.len());
        for (&x, &c) in values.iter().zip(&codes) {
            let back = int8_dequantize_one(zp, scale, c);
            let err = (f64::from(x) - f64::from(back)).abs();
            let bound = f64::from(scale) / 2.0
                + (f64::from(x.abs()) + f64::from(scale)) * 2f64.powi(-20);
            prop_assert!(err <= bound, "x={:e} back={:e} err={:e} bound={:e}", x, back, err, bound);
        }
    }

    #[test]
    fn int8_quantization_is_deterministic(
        ints in prop::collection::vec(-1_000_000i32..=1_000_000, 1..32),
    ) {
        let values: Vec<f32> = ints.iter().map(|&i| i as f32 * 1e-4).collect();
        prop_assert_eq!(int8_quantize(&values), int8_quantize(&values));
    }

    #[test]
    fn identity_spec_compression_is_bit_exact(
        model_bits in prop::collection::vec(0u32..=u32::MAX, 0..32),
        base_bits in prop::collection::vec(0u32..=u32::MAX, 0..32),
        id in 0u64..=u64::MAX,
    ) {
        // The lossless contract behind the determinism-suite guarantee:
        // {delta: false, quant: none, topk: 1.0} must reconstruct every bit
        // pattern exactly, including NaNs and infinities, after a real
        // encode → decode round trip.
        let flat = f32s(&model_bits);
        let mut base = f32s(&base_bits);
        base.resize(flat.len(), 0.0);
        let msg = CompressedModelUpdate::compress(
            &CompressionSpec::identity(), None, id, 1.0, &flat, &base, 0, 0,
        );
        let decoded = WireMessage::decode(&WireMessage::CompressedModelUpdate(msg).encode())
            .expect("round trip");
        let WireMessage::CompressedModelUpdate(decoded) = decoded else {
            return Err(TestCaseError::fail("wrong kind back"));
        };
        let back = decoded.reconstruct(&base).expect("reconstruct");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back), bits(&flat));
    }

    #[test]
    fn delta_topk_reconstruction_touches_only_selected_coords(
        ints in prop::collection::vec(-1_000_000i32..=1_000_000, 1..48),
        base_ints in prop::collection::vec(-1_000_000i32..=1_000_000, 1..48),
        frac_sel in 0usize..3,
    ) {
        let flat: Vec<f32> = ints.iter().map(|&i| i as f32 * 1e-4).collect();
        let mut base: Vec<f32> = base_ints.iter().map(|&i| i as f32 * 1e-4).collect();
        base.resize(flat.len(), 0.0);
        let spec = CompressionSpec {
            delta: true,
            quant: QuantMode::None,
            topk_fraction: [0.25f32, 0.5, 0.75][frac_sel],
        };
        let msg = CompressedModelUpdate::compress(&spec, None, 1, 1.0, &flat, &base, 0, 0);
        let selected = msg.index.positions(flat.len());
        let back = msg.reconstruct(&base).expect("reconstruct");
        for (i, (&b, &f)) in base.iter().zip(&flat).enumerate() {
            if selected.binary_search(&i).is_ok() {
                // Unquantized delta: base + (flat − base), one rounding step.
                prop_assert_eq!(back[i], b + (f - b), "selected coord {}", i);
            } else {
                prop_assert_eq!(back[i].to_bits(), b.to_bits(), "dropped coord {}", i);
            }
        }
    }

    #[test]
    fn topk_selection_matches_full_sort_reference(
        picks in prop::collection::vec(0u32..=u32::MAX, 0..48),
        n_sel in 0usize..4,
        k_sel in 0usize..6,
    ) {
        // The selection-based top-k must keep exactly the positions the
        // old full sort kept, so compressed frames stay byte-identical.
        // Most values come from a small palette (heavy magnitude ties,
        // ±0.0, ±Inf, NaN of both signs); the rest are raw bit patterns.
        let n = [0, 1, picks.len(), 4099][n_sel];
        let values: Vec<f32> = (0..n)
            .map(|i| {
                let p = if picks.is_empty() {
                    i as u32
                } else {
                    let lap = (i / picks.len()) as u32;
                    picks[i % picks.len()].wrapping_add(lap.wrapping_mul(0x9e37_79b9))
                };
                match p % 12 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => f32::NAN,
                    5 => -f32::NAN,
                    6 => 0.5,
                    7 => -0.5,
                    8 => 1.0,
                    _ => f32::from_bits(p),
                }
            })
            .collect();
        let k = [0, 1, n.saturating_sub(1), n, n + 3, n / 2][k_sel];
        let fast = topk_positions(&values, k);
        prop_assert_eq!(&fast, &topk_positions_by_sort(&values, k), "n={} k={}", n, k);
        prop_assert_eq!(fast.len(), k.min(n));
    }
}

/// A value from the tie-heavy palette: magnitude ties, ±0, ±Inf, NaN of
/// both signs, a few grid-friendly reals, and raw bit patterns.
fn palette(p: u32) -> f32 {
    match p % 16 {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::NAN,
        5 => -f32::NAN,
        6 => 0.5,
        7 => -0.5,
        8 => 1.0,
        9 => -1.5,
        10 | 11 => ((p >> 4) % 64) as f32 * 0.125 - 4.0,
        _ => f32::from_bits(p),
    }
}

/// Cycles `picks` to length `n`, salting each lap so long vectors are not
/// periodic.
fn spread(picks: &[u32], n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let lap = (i / picks.len()) as u32;
            palette(picks[i % picks.len()].wrapping_add(lap.wrapping_mul(0x9e37_79b9)))
        })
        .collect()
}

/// Equal bits, except that NaNs need only sit at the same coordinates: x86
/// `addss` propagates whichever NaN operand codegen puts first.
fn same_up_to_nan_payload(a: &[f32], b: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.is_nan() || y.is_nan() {
            prop_assert!(x.is_nan() && y.is_nan(), "NaN at {} on one side only", i);
        } else {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "coordinate {}", i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compress_frame_matches_the_unfused_reference_byte_for_byte(
        picks in prop::collection::vec(0u32..=u32::MAX, 1..48),
        base_picks in prop::collection::vec(0u32..=u32::MAX, 1..48),
        n_sel in 0usize..5,
        frac_sel in 0usize..5,
        quant_sel in 0usize..3,
        delta_sel in 0usize..2,
        mask_sel in 0usize..3,
    ) {
        // Both sides of the bitmap/list switch: at topk 0.01 a 4099-long
        // vector keeps 41 (list) and a 7-long one keeps 1 (bitmap).
        let n = [1, 7, picks.len(), 300, 4099][n_sel];
        let flat = spread(&picks, n);
        let base = spread(&base_picks, n);
        // No mask, every third coordinate, or a sparse salted subset.
        let mask: Option<Vec<u32>> = match mask_sel {
            0 => None,
            1 => Some((0..n as u32).step_by(3).collect()),
            _ => Some(
                (0..n as u32)
                    .filter(|&i| picks[i as usize % picks.len()].wrapping_add(i) % 5 < 2)
                    .collect(),
            ),
        };
        let spec = CompressionSpec {
            delta: delta_sel == 1,
            quant: [QuantMode::None, QuantMode::F16, QuantMode::Int8][quant_sel],
            topk_fraction: [1.0f32, 0.9, 0.5, 0.25, 0.01][frac_sel],
        };
        let fused = CompressedModelUpdate::compress(&spec, mask.as_deref(), 0, 1.0, &flat, &base, 0, 0);
        let reference = oracle::compress(&spec, mask.as_deref(), &flat, &base);
        prop_assert_eq!(
            WireMessage::CompressedModelUpdate(fused.clone()).encode(),
            WireMessage::CompressedModelUpdate(reference.clone()).encode(),
            "n={} spec={} mask={}", n, spec, mask_sel
        );
        let back = fused.reconstruct(&base).expect("consistent update");
        same_up_to_nan_payload(&back, &oracle::reconstruct(&reference, &base))?;
    }
}

#[cfg(unix)]
mod socket {
    //! Corruption crossing a *real* socket: the transport restores message
    //! boundaries faithfully, and the codec's CRC — not the transport —
    //! rejects the damage with a typed error instead of a crash or a
    //! silently wrong decode. Small case count: each case pays for a
    //! socketpair.

    use super::*;
    use crate::link::Link;
    use crate::net::NetLink;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn corrupt_frame_over_unix_socket_is_detected(
            kind in 0usize..14,
            id in 0u64..=u64::MAX,
            aux in 0u64..=u64::MAX,
            wbits in 0u32..=u32::MAX,
            model_bits in prop::collection::vec(0u32..=u32::MAX, 0..16),
            nested in prop::collection::vec(prop::collection::vec(0u32..=u32::MAX, 0..8), 0..3),
            flag in 0usize..2,
            pos_seed in 0usize..=usize::MAX,
            flip in 1u8..=255,
        ) {
            let (a, b) = UnixStream::pair().expect("socketpair");
            let tx = NetLink::from_unix(a, 1).expect("tx link");
            let rx = NetLink::from_unix(b, 2).expect("rx link");
            let msg = build_message(kind, id, aux, wbits, &model_bits, &nested, flag);
            let clean = msg.encode();
            let mut corrupt = clean.clone();
            let pos = pos_seed % corrupt.len();
            corrupt[pos] ^= flip;
            tx.send(&corrupt).expect("send over socket");
            let deadline = Instant::now() + Duration::from_secs(5);
            let received = rx.recv_deadline(deadline).expect("frame arrives intact");
            prop_assert_eq!(&received, &corrupt, "transport altered the bytes");
            match WireMessage::decode(&received) {
                Err(_) => {}
                Ok(back) => {
                    prop_assert_eq!(back.encode(), clean, "corrupt frame decoded silently");
                    prop_assert!(false, "corrupt frame decoded at byte {}", pos);
                }
            }
        }
    }
}
