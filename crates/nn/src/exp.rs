//! Single-precision `exp` with the host libm's bits, computed in-tree.
//!
//! [`exp_in_place`] is the kernel behind every exponential in this crate:
//! the softmax family and the losses. It reproduces glibc 2.36's `expf`
//! (`sysdeps/ieee754/flt-32/e_expf.c`): with `N = 32`, `x·N/ln 2 = k + r`
//! is rounded to an integer `k` by adding `SHIFT = 1.5·2⁵²` in `f64`,
//! `2^(k/N)` is built from the 32-entry table of `2^(i/N)` with `k / N`
//! added to its exponent, and `2^(r/N)` is a three-term polynomial in
//! `f64`; the product is rounded once to `f32`.
//!
//! # Which operations are fused
//!
//! On x86_64 glibc picks the routine per CPU (an ifunc): where the CPU has
//! AVX2 and FMA it runs `__expf_fma`, the same C source built with `-mfma
//! -mavx2`, where the compiler contracts `k = InvLn2N·x + SHIFT`,
//! `r = InvLn2N·x − k` and the three polynomial steps into fused
//! multiply-adds; elsewhere it runs the source as written. [`exp_in_place`]
//! follows the same rule: where [`fused`] holds it runs an AVX2 kernel that
//! fuses exactly those five operations (eight lanes, the table read by
//! `vpgatherqq`, the special inputs selected by compares); elsewhere it runs
//! the unfused scalar port. Fusing the kernel where glibc does not would
//! change the bits (on `0x4202_422f` and `0xc27c_65d9` among others), so
//! the rule is part of the contract, not a tuning choice.
//!
//! Outputs therefore depend on the CPU's features, as the libm call's did,
//! but no longer on the host's libm: on a host whose `expf` is not glibc's
//! (musl, or another architecture's glibc build), [`exp_in_place`] keeps
//! these bits and `f32::exp` may differ from them.
//!
//! The tests pin the kernel to the scalar port ([`lane`]) on every cut and
//! special value, and the port to the host's `f32::exp`. The ignored
//! `exp_matches_libm_on_every_f32` test (run it in release) checks the
//! kernel against the host's `f32::exp` on all 2³² inputs.

/// Table bits: `N = 2⁵` entries.
const TABLE_BITS: u32 = 5;
/// `TAB[i] = bits(2^(i/N)) − (i << (52 − TABLE_BITS))`, so that
/// `TAB[k % N] + (k << (52 − TABLE_BITS))` is the bit pattern of
/// `2^(k/N)` for every `k` reached (glibc's `__exp2f_data.tab`).
const TAB: [u64; 1 << TABLE_BITS] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `N / ln 2` (0x1.71547652b82fep+0 · 32).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// 1.5·2⁵²: adding it rounds an `f64` of magnitude below 2⁵¹ to an
/// integer, ties to even, which then sits in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `2^(r/N) ≈ C0·r³ + C1·r² + C2·r + 1` for `|r| ≤ 1/2`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);

/// Top 12 bits of `88.0f32`: at or above it (in magnitude) the special
/// cases are checked.
const ABSTOP_88: u32 = 0x42b;
/// Above this (≈ ln 2¹²⁸) the result overflows to `+∞`.
const OFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below this (≈ ln 2⁻¹⁵⁰) the result underflows to `+0`.
const UFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// Below this (≈ ln 2⁻¹⁴⁹) and not below [`UFLOW`], glibc returns the
/// smallest subnormal (its `__math_may_uflowf`, `0x1.4p-75f` squared).
const MAY_UFLOW: f32 = f32::from_bits(0xc2ce_8ecf);
/// `2⁻¹⁴⁹`, the smallest positive subnormal.
const DENORM_MIN: f32 = f32::from_bits(1);

/// Whether [`exp_in_place`] runs glibc's fused routine: the CPU has AVX2
/// and FMA (glibc's ifunc rule for `__expf_fma`). std caches the probe.
fn fused() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return true;
    }
    false
}

/// Replaces every element of `xs` with its `exp`, bit-identical to
/// glibc's `expf` on this CPU.
pub(crate) fn exp_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if fused() {
        // SAFETY: `fused()` returned true, so the CPU has AVX2 and FMA.
        unsafe { avx2::exp_in_place(xs) };
        return;
    }
    for v in xs {
        *v = lane::<false>(*v);
    }
}

/// glibc `__expf` of one element, operation for operation; with `FUSED`
/// the five contractions of `__expf_fma` (see the module docs).
#[inline]
fn lane<const FUSED: bool>(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= ABSTOP_88 {
        // |x| ≥ 88, or x is NaN.
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        if x > OFLOW {
            return f32::INFINITY;
        }
        if x < UFLOW {
            return 0.0;
        }
        if x < MAY_UFLOW {
            return DENORM_MIN;
        }
    }
    let xd = f64::from(x);
    let fma = |a: f64, b: f64, c: f64| if FUSED { a.mul_add(b, c) } else { a * b + c };
    // x·N/ln 2 = k + r with r in [−1/2, 1/2] and integer k.
    let kd = fma(INV_LN2_N, xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = if FUSED {
        INV_LN2_N.mul_add(xd, -kd)
    } else {
        INV_LN2_N * xd - kd
    };
    // exp(x) = 2^(k/N) · 2^(r/N) ≈ s · (C0·r³ + C1·r² + C2·r + 1).
    let t = TAB[(ki % (1 << TABLE_BITS)) as usize].wrapping_add(ki << (52 - TABLE_BITS));
    let s = f64::from_bits(t);
    let z = fma(C0, r, C1);
    let r2 = r * r;
    let y = fma(C2, r, 1.0);
    let y = fma(z, r2, y);
    (y * s) as f32
}

/// The fused routine, eight lanes at a time.
#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod avx2 {
    use super::{C0, C1, C2, DENORM_MIN, INV_LN2_N, MAY_UFLOW, OFLOW, SHIFT, TAB, UFLOW};
    use std::arch::x86_64::{
        __m256, __m256d, _mm256_add_epi64, _mm256_add_ps, _mm256_and_si256, _mm256_blendv_ps,
        _mm256_castpd_si256, _mm256_castps256_ps128, _mm256_castsi256_pd, _mm256_cmp_ps,
        _mm256_cvtpd_ps, _mm256_cvtps_pd, _mm256_extractf128_ps, _mm256_fmadd_pd, _mm256_fmsub_pd,
        _mm256_i64gather_epi64, _mm256_loadu_ps, _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set1_pd,
        _mm256_set1_ps, _mm256_set_m128, _mm256_setzero_ps, _mm256_slli_epi64, _mm256_storeu_ps,
        _mm256_sub_pd, _CMP_GT_OQ, _CMP_LT_OQ, _CMP_UNORD_Q,
    };

    /// [`super::exp_in_place`] on an AVX2+FMA CPU.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_in_place(xs: &mut [f32]) {
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            // SAFETY: `c` holds exactly eight `f32`s; AVX2 per the contract.
            unsafe { _mm256_storeu_ps(c.as_mut_ptr(), exp8(_mm256_loadu_ps(c.as_ptr()))) };
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            // The last 1..=7 elements go through an 8-lane buffer; the
            // unused lanes compute exp(0) and are dropped.
            let mut buf = [0.0f32; 8];
            buf[..tail.len()].copy_from_slice(tail);
            // SAFETY: `buf` holds exactly eight `f32`s; AVX2 per the contract.
            unsafe { _mm256_storeu_ps(buf.as_mut_ptr(), exp8(_mm256_loadu_ps(buf.as_ptr()))) };
            tail.copy_from_slice(&buf[..tail.len()]);
        }
    }

    /// `expf` of eight lanes: four `f64` lanes per half through [`exp4`],
    /// then the special inputs selected in the order the scalar port tests
    /// them (the last selection wins).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp8(x: __m256) -> __m256 {
        let lo = exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let hi = exp4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        let y = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
        // Ordered compares are false on NaN lanes; −∞ is below both
        // underflow cuts and +∞ above the overflow cut.
        let below = |c: f32| _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(c));
        let y = _mm256_blendv_ps(y, _mm256_set1_ps(DENORM_MIN), below(MAY_UFLOW));
        let y = _mm256_blendv_ps(y, _mm256_setzero_ps(), below(UFLOW));
        let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(OFLOW));
        let y = _mm256_blendv_ps(y, _mm256_set1_ps(f32::INFINITY), over);
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }

    /// The main path of the fused routine on four `f64` lanes, before the
    /// final rounding to `f32`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp4(xd: __m256d) -> __m256d {
        let inv = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let kd = _mm256_fmadd_pd(inv, xd, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(TAB.len() as i64 - 1));
        // SAFETY: every index is masked to `0..TAB.len()`, so each of the
        // four 8-byte reads lies inside `TAB`; AVX2 per the caller.
        let t = unsafe { _mm256_i64gather_epi64::<8>(TAB.as_ptr().cast(), idx) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(C0), r, _mm256_set1_pd(C1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(C2), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_mul_pd(y, s)
    }

    const _: () = assert!(super::TABLE_BITS == 5, "the gather shifts by 52 − 5");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The port the kernel must equal on this CPU.
    fn port(x: f32) -> f32 {
        if fused() {
            lane::<true>(x)
        } else {
            lane::<false>(x)
        }
    }

    /// Bit equality that treats every NaN as equal to every other NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Asserts, for each input, that the kernel equals the port and the
    /// port equals the host's `f32::exp`.
    fn check(xs: &[f32]) {
        let mut lanes = xs.to_vec();
        exp_in_place(&mut lanes);
        for (&x, &got) in xs.iter().zip(&lanes) {
            let port = port(x);
            let host = x.exp();
            assert!(
                same(port, host),
                "port {x:e} ({:#010x}): {:#010x} != libm {:#010x}",
                x.to_bits(),
                port.to_bits(),
                host.to_bits()
            );
            assert!(
                same(got, port),
                "kernel {x:e} ({:#010x}): {:#010x} != port {:#010x}",
                x.to_bits(),
                got.to_bits(),
                port.to_bits()
            );
        }
    }

    /// `bits` and its 8 neighbours either side, at both signs.
    fn around(bits: u32) -> impl Iterator<Item = f32> {
        (bits - 8..=bits + 8).flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
    }

    #[test]
    fn stride_through_every_bit_pattern() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        check(&xs);
    }

    #[test]
    fn both_sides_of_every_cut() {
        let mut xs = Vec::new();
        // |x| ≥ 88, overflow, underflow and the smallest-subnormal band.
        for bits in [
            0x42b0_0000,
            OFLOW.to_bits(),
            UFLOW.to_bits() & 0x7fff_ffff,
            MAY_UFLOW.to_bits() & 0x7fff_ffff,
        ] {
            xs.extend(around(bits));
        }
        check(&xs);
    }

    #[test]
    fn subnormal_outputs_match_libm() {
        // From just above ln 2⁻¹²⁶ (the largest subnormal output) down past
        // the underflow cut, every 37th pattern.
        let xs: Vec<f32> = (0xc2ae_ac00..=0xc2d0_0000u32)
            .step_by(37)
            .map(f32::from_bits)
            .collect();
        assert!(xs.iter().any(|x| x.exp() != 0.0 && !x.exp().is_normal()));
        check(&xs);
    }

    #[test]
    fn zeros_infinities_and_nans() {
        let mut xs = Vec::new();
        for bits in [
            0,
            1,
            0x007f_ffff,
            0x7f7f_ffff,
            0x7f80_0000,
            0x7f80_0001,
            0x7fc0_0000,
            0x7fff_ffff,
        ] {
            xs.push(f32::from_bits(bits));
            xs.push(f32::from_bits(bits | 0x8000_0000));
        }
        check(&xs);
        let mut ys = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        exp_in_place(&mut ys);
        assert_eq!(
            ys.map(f32::to_bits),
            [1.0f32, 1.0, f32::INFINITY, 0.0].map(f32::to_bits)
        );
    }

    #[test]
    fn fusing_decides_these_inputs() {
        // The two inputs on which glibc's two routines differ: the kernel
        // must follow the one this CPU's libm runs.
        let xs = [f32::from_bits(0x4202_422f), f32::from_bits(0xc27c_65d9)];
        for x in xs {
            assert_ne!(
                lane::<true>(x).to_bits(),
                lane::<false>(x).to_bits(),
                "{x:e}"
            );
        }
        check(&xs);
    }

    #[test]
    fn every_slice_length_matches_the_port() {
        // Mixed magnitudes, both signs and some past the cuts.
        let pool: Vec<f32> = (0..33)
            .map(|i| (i as f32 - 16.0) * 0.77 * if i % 3 == 0 { 9.0 } else { 1.0 })
            .collect();
        for n in 0..=33 {
            check(&pool[..n]);
        }
    }

    #[test]
    fn a_non_finite_value_at_any_lane_matches_the_port() {
        // 16 lanes: the widest native f32 vector (AVX-512), so a special
        // value lands in every lane position of either vector width.
        let base: Vec<f32> = (0..16).map(|i| (i as f32 - 7.5) * 1.9).collect();
        for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for pos in 0..base.len() {
                let mut xs = base.clone();
                xs[pos] = special;
                // A finite vector either side, so the special one sits
                // between finite neighbours.
                let mut all = base.clone();
                all.extend(&xs);
                all.extend(&base);
                check(&all);
            }
        }
    }

    /// All 2³² inputs through the kernel against the host libm. Run it in
    /// release: `cargo test --release -p refil-nn --lib -- --ignored
    /// exp_matches_libm_on_every_f32`. This is the test that reports a host
    /// whose libm is not glibc's `expf` (or runs the other routine); the
    /// probes above pin kernel = port on every cut.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn exp_matches_libm_on_every_f32() {
        const BLOCK: u64 = 1 << 12;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let blocks = (1u64 << 32) / BLOCK;
        // Per worker: the mismatch count and the first few inputs.
        let results: Vec<(u64, Vec<u32>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    s.spawn(move || {
                        let (mut count, mut first) = (0u64, Vec::new());
                        let mut buf = vec![0.0f32; BLOCK as usize];
                        for block in (w..blocks).step_by(threads as usize) {
                            let start = block * BLOCK;
                            for (i, v) in buf.iter_mut().enumerate() {
                                *v = f32::from_bits((start + i as u64) as u32);
                            }
                            exp_in_place(&mut buf);
                            for (i, &got) in buf.iter().enumerate() {
                                let bits = (start + i as u64) as u32;
                                if !same(got, f32::from_bits(bits).exp()) {
                                    count += 1;
                                    if first.len() < 8 {
                                        first.push(bits);
                                    }
                                }
                            }
                        }
                        (count, first)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let count: u64 = results.iter().map(|r| r.0).sum();
        let first: Vec<u32> = results.into_iter().flat_map(|r| r.1).collect();
        assert_eq!(
            count, 0,
            "exp kernel differs from libm on {count} inputs, e.g. {first:#010x?}"
        );
    }
}
