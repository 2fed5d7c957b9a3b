//! Single-precision `tanh` with the host libm's bits, computed in-tree.
//!
//! [`tanh_in_place`] is the kernel the graph ops use. It reproduces fdlibm's
//! `__tanhf` and `__expm1f` (`s_tanhf.c`, `s_expm1f.c`) as glibc 2.36 ships
//! them: the five-term `Q1..Q5` expm1 polynomial, built without fused
//! multiply-adds. Rust never contracts `a * b + c`, so the same sequence of
//! IEEE-754 operations returns the same bits as the C routines.
//!
//! The C routines branch per element on the argument's magnitude, which
//! keeps a loop over them from vectorizing. The kernel instead evaluates
//! every reachable `expm1f` reduction and reconstruction branch for each
//! element and selects the one the C code would take, so the loop body is
//! straight-line code the compiler vectorizes at the target's native width.
//! Each selected branch performs exactly the operations the C code performs.
//!
//! The tests hold a branchy, operation-for-operation port (`tanhf`) as the
//! reference: the kernel must equal it, and it must equal the host's
//! `f32::tanh`, on every branch threshold and special value. The ignored
//! `tanh_matches_libm_on_every_f32` test (run it in release) checks the
//! kernel against the host's `f32::tanh` on all 2³² inputs.

/// fdlibm's `tiny`: `1 - TINY` rounds to 1 while raising inexact in C.
const TINY: f32 = 1.0e-30;
/// High part of ln 2; `k·LN2_HI` is exact for the `k` reached here.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// Low part of ln 2.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// 1 / ln 2.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// Scaled coefficients of the expm1 rational approximation.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// 1.5·2²³: adding an integer-valued `f32` of magnitude below 2²² leaves
/// that integer in the low mantissa bits, offset by `MAGIC`'s own bits.
const MAGIC: f32 = 12_582_912.0;

/// Adds `k` to the binary exponent of `y` (fdlibm's `SET_FLOAT_WORD(y,
/// i + (k << 23))`), as a wrapping `i32` add on the bit pattern.
#[inline(always)]
fn add_exp(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// fdlibm `__tanhf` of one element, with every branch evaluated and
/// selected rather than taken. Inlined into the loop of [`tanh_in_place`].
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    // Elements at or past |x| = 22, ±Inf and NaN select their result below;
    // clamping their argument keeps every unselected branch's k small.
    let ax = f32::from_bits(ix.min(0x41b0_0000));
    let big = ix >= 0x3f80_0000;
    let a = if big { 2.0 * ax } else { -2.0 * ax };

    // expm1f(a). Reduction: the k = ±1 window and the general rounding share
    // one form, since 1·LN2_HI = LN2_HI and a − (−LN2_HI) = a + LN2_HI.
    let a_neg = a.to_bits() & 0x8000_0000 != 0;
    let ha = a.to_bits() & 0x7fff_ffff;
    let kf = if ha < 0x3f85_1592 {
        if a_neg {
            -1.0
        } else {
            1.0
        }
    } else {
        (INVLN2 * a + if a_neg { -0.5 } else { 0.5 }).trunc()
    };
    let reduced = ha > 0x3eb1_7218;
    let k = if reduced {
        ((kf + MAGIC).to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32)
    } else {
        0
    };
    let hi = a - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = if reduced { hi - lo } else { a };
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y_k0 = r - (r * e - hxs);
    let e = r * (e - c) - c;
    let e = e - hxs;
    let y_km1 = 0.5 * (r - e) - 0.5;
    let y_k1 = if r < -0.25 {
        -2.0 * (e - (r + 0.5))
    } else {
        1.0 + 2.0 * (r - e)
    };
    let y_far = add_exp(1.0 - (e - r), k) - 1.0;
    // 2^-k, and 1 - 2^-k: exact for 1 ≤ k ≤ 24, so the port's bit-built
    // `0x3f800000 - (0x1000000 >> k)` equals the subtraction.
    let p = f32::from_bits(((0x7f - k) << 23) as u32);
    let y_mid = add_exp((1.0 - p) - (e - r), k);
    let y_high = add_exp(r - (e + p) + 1.0, k);
    let mut em1 = if k < 23 { y_mid } else { y_high };
    if k <= -2 || k > 56 {
        em1 = y_far;
    }
    if k == 1 {
        em1 = y_k1;
    }
    if k == -1 {
        em1 = y_km1;
    }
    if k == 0 {
        em1 = y_k0;
    }
    if ha < 0x3300_0000 {
        em1 = a;
    }

    // tanhf from expm1f: 1 − 2/(t+2) for |x| ≥ 1, −t/(t+2) below.
    let num = if big { 2.0 } else { -em1 };
    let q = num / (em1 + 2.0);
    let mut z = if big { 1.0 - q } else { q };
    if ix >= 0x41b0_0000 {
        z = 1.0 - TINY;
    }
    if x.to_bits() & 0x8000_0000 != 0 {
        z = -z;
    }
    if ix < 0x2400_0000 {
        z = x * (1.0 + x);
    }
    // ±Inf took the saturated ±1 above, as fdlibm's `1/x ± 1` does.
    if ix > 0x7f80_0000 {
        z = x + x;
    }
    z
}

/// Replaces every element of `xs` with its `tanh`, bit-identical to
/// fdlibm's `tanhf`.
pub(crate) fn tanh_in_place(xs: &mut [f32]) {
    for v in xs {
        *v = tanh_lane(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fdlibm's `huge`, used by `expm1f`'s overflow and tiny-argument paths.
    const HUGE: f32 = 1.0e30;
    /// `expm1f` overflows above this (0x42b17180).
    const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);

    /// `e^x − 1`: fdlibm `__expm1f`, operation for operation.
    fn expm1f(x: f32) -> f32 {
        let bits = x.to_bits();
        let negative = bits & 0x8000_0000 != 0;
        let hx = bits & 0x7fff_ffff;

        // Huge and non-finite arguments.
        if hx >= 0x4195_b844 {
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if negative { -1.0 } else { x };
                }
                if x > O_THRESHOLD {
                    return HUGE * HUGE;
                }
            }
            if negative {
                return TINY - 1.0;
            }
        }

        // Argument reduction: x = k·ln2 + r, |r| ≤ 0.5·ln2, with the rounding
        // error of r carried in c.
        let (r, c, k) = if hx > 0x3eb1_7218 {
            let (hi, lo, k) = if hx < 0x3f85_1592 {
                if negative {
                    (x + LN2_HI, -LN2_LO, -1)
                } else {
                    (x - LN2_HI, LN2_LO, 1)
                }
            } else {
                let k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
                let t = k as f32;
                (x - t * LN2_HI, t * LN2_LO, k)
            };
            let r = hi - lo;
            (r, (hi - r) - lo, k)
        } else if hx < 0x3300_0000 {
            let t = HUGE + x;
            return x - (t - (HUGE + x));
        } else {
            (x, 0.0, 0)
        };

        let hfx = 0.5 * r;
        let hxs = r * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let e = hxs * ((r1 - t) / (6.0 - r * t));
        if k == 0 {
            return r - (r * e - hxs);
        }
        let e = r * (e - c) - c;
        let e = e - hxs;
        if k == -1 {
            return 0.5 * (r - e) - 0.5;
        }
        if k == 1 {
            return if r < -0.25 {
                -2.0 * (e - (r + 0.5))
            } else {
                1.0 + 2.0 * (r - e)
            };
        }
        if k <= -2 || k > 56 {
            return add_exp(1.0 - (e - r), k) - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // 1 - 2^-k
            add_exp(t - (e - r), k)
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
            add_exp(r - (e + t) + 1.0, k)
        }
    }

    /// Hyperbolic tangent: fdlibm `__tanhf`, operation for operation.
    fn tanhf(x: f32) -> f32 {
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            // tanh(±inf) = ±1, tanh(NaN) = NaN.
            return if jx >= 0 {
                1.0 / x + 1.0
            } else {
                1.0 / x - 1.0
            };
        }
        let z = if ix < 0x41b0_0000 {
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                // |x| < 2^-55.
                return x * (1.0 + x);
            }
            if ix >= 0x3f80_0000 {
                let t = expm1f(2.0 * x.abs());
                1.0 - 2.0 / (t + 2.0)
            } else {
                let t = expm1f(-2.0 * x.abs());
                -t / (t + 2.0)
            }
        } else {
            // |x| ≥ 22: ±1.
            1.0 - TINY
        };
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    /// Bit equality that treats every NaN as equal to every other NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Asserts, for each input, that the kernel equals the port and
    /// the port equals the host's `f32::tanh`.
    fn check(xs: &[f32]) {
        let mut lanes = xs.to_vec();
        tanh_in_place(&mut lanes);
        for (&x, &got) in xs.iter().zip(&lanes) {
            let port = tanhf(x);
            let host = x.tanh();
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

    /// Smallest `x` in `[1, 22)` whose `expm1f(2x)` reduction picks `k`.
    fn first_with_k(k: i32) -> u32 {
        let k_of = |b: u32| (INVLN2 * (2.0 * f32::from_bits(b)) + 0.5) as i32;
        let (mut lo, mut hi) = (0x3f80_0000u32, 0x41b0_0000u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if k_of(mid) >= k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        assert_eq!(k_of(lo), k);
        lo
    }

    #[test]
    fn stride_through_every_bit_pattern() {
        let xs: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
        check(&xs);
    }

    #[test]
    fn both_sides_of_every_branch_threshold() {
        let mut xs = Vec::new();
        // tanhf's own cuts on |x|: 2^-55, 1 and 22.
        for bits in [0x2400_0000, 0x3f80_0000, 0x41b0_0000] {
            xs.extend(around(bits));
        }
        // expm1f's cuts on its argument a = -2|x| (|x| < 1) or 2|x|:
        // 0.5·ln2, 1.5·ln2, 2^-25 and 27·ln2. Halving a lowers the exponent
        // field by one.
        for a_bits in [0x3eb1_7218u32, 0x3f85_1592, 0x3300_0000, 0x4195_b844] {
            xs.extend(around(a_bits - 0x0080_0000));
        }
        // The k = 22/23 and 56/57 crossovers of the reconstruction.
        for k in [23, 57] {
            xs.extend(around(first_with_k(k)));
        }
        check(&xs);
    }

    #[test]
    fn zeros_subnormals_infinities_and_nans() {
        let mut xs = Vec::new();
        for bits in [
            0,
            1,
            2,
            0x0040_0000,
            0x007f_ffff,
            0x0080_0000,
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
    }

    #[test]
    fn every_slice_length_matches_the_port() {
        // Mixed magnitudes so each chunk exercises several branches.
        let pool: Vec<f32> = (0..33)
            .map(|i| (i as f32 - 16.0) * 0.77 * if i % 3 == 0 { 10.0 } else { 1.0 })
            .collect();
        for n in 0..=33 {
            check(&pool[..n]);
        }
    }

    #[test]
    fn a_non_finite_value_at_any_lane_matches_the_port() {
        // 16 lanes: the widest native f32 vector (AVX-512), so a special
        // value lands in every lane position of a vector iteration.
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

    /// All 2³² inputs through the kernel against the host libm. Run it
    /// in release: `cargo test --release -p refil-nn --lib -- --ignored
    /// tanh_matches_libm_on_every_f32`. This is the test that reports a host
    /// whose libm is not fdlibm's `tanhf` (for example a correctly rounded
    /// one); the probes above pin kernel = port on every branch.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn tanh_matches_libm_on_every_f32() {
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
                            tanh_in_place(&mut buf);
                            for (i, &got) in buf.iter().enumerate() {
                                let bits = (start + i as u64) as u32;
                                if !same(got, f32::from_bits(bits).tanh()) {
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
            "tanh kernel differs from libm on {count} inputs, e.g. {first:#010x?}"
        );
    }
}
