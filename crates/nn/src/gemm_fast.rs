//! FP-contracted SIMD GEMM microkernels — the `KernelPolicy::Fast` path.
//!
//! The default kernels in [`crate::gemm`] deliberately forgo hardware FMA:
//! their contract is bit-identity with the naive ascending-`k` chain, and
//! `a.mul_add(b, c)` rounds once where `a * b + c` rounds twice, so a
//! contracted kernel cannot reproduce the oracle bit-for-bit. They do share
//! this module's SIMD structure (explicit `__m256` tiles, two accumulators
//! per row) and differ only in the unfused step, so on AVX2 hosts FMA is
//! all that is left of this tier's GEMM speedup: 1.1–1.2× on the square
//! and token kernel benches, and a slowdown on the narrow classifier head
//! (`nn/gemm_fast/*` in `BENCH_kernels.json`).
//!
//! This module is the opt-in escape: explicit `std::arch` microkernels
//! using fused multiply-add over 8-lane (`__m256`, AVX2+FMA) or 4-lane
//! (`float32x4_t`, NEON) accumulator tiles. On targets without those
//! features the entry points fall back to the bit-exact kernels, so `Fast`
//! is always *at least* as accurate as advisory.
//!
//! # Numerical contract (documented, tested)
//!
//! [`gemm_fast`] and [`gemm_tn_fast`] keep one accumulator chain per
//! output element in ascending `k` order — the oracle's association —
//! but fuse each multiply-add; [`gemm_nt_fast`] reduces each dot product
//! over fixed SIMD lanes before a fixed-order horizontal sum, whose
//! running-sum error is no worse than the sequential chain's. Fast and
//! bit-exact results therefore both lie within the classic `k`-term
//! accumulation bound of the exact real product, giving
//!
//! ```text
//! |fast(i,j) − bitexact(i,j)| ≤ 2k · ε · (|seed(i,j)| + Σ_p |a[i,p] · b[p,j]|)
//! ```
//!
//! with `ε = 2⁻²³` (`f32::EPSILON`) and `seed` the accumulate-on-top
//! initial value of `out` — roughly "within `2k` ULP at the accumulated
//! magnitude". The proptests in `crates/nn/tests/fast_kernels.rs` enforce
//! exactly this bound for all three layouts and the conv lowering.
//! Crucially the fast path is still **deterministic**: a fixed shape
//! always takes the same instruction sequence, so results are run-to-run
//! and thread-count stable — only the bit-pattern relative to the no-FMA
//! oracle differs.

#[cfg(target_arch = "x86_64")]
use std::arch::is_x86_feature_detected;

/// Whether this machine has a real fast path (`AVX2+FMA` on x86_64, NEON on
/// aarch64). When false, the `*_fast` entry points delegate to the
/// bit-exact kernels and `KernelPolicy::Fast` changes nothing.
pub fn fast_kernels_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(target_arch = "aarch64")]
    {
        true // NEON is baseline on aarch64.
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// `out += a · b` (row-major `a [m,k]`, `b [k,n]`) through the contracted
/// microkernel, falling back to the bit-exact [`crate::gemm::gemm`] when no
/// SIMD path exists.
pub fn gemm_fast(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if fast_kernels_available() {
        // SAFETY: feature presence just checked.
        unsafe { x86::gemm_avx2_fma(a, b, out, m, k, n) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { neon::gemm_neon(a, b, out, m, k, n) };
        return;
    }
    #[allow(unreachable_code)]
    crate::gemm::gemm(a, b, out, m, k, n)
}

/// `out += a · btᵀ` (`bt` stored `[n,k]`) through the contracted
/// microkernel — both operand rows are contiguous along `k`, so this is a
/// lane-parallel dot product per output element.
pub fn gemm_nt_fast(a: &[f32], bt: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if fast_kernels_available() {
        // SAFETY: feature presence just checked.
        unsafe { x86::gemm_nt_avx2_fma(a, bt, out, m, k, n) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { neon::gemm_nt_neon(a, bt, out, m, k, n) };
        return;
    }
    #[allow(unreachable_code)]
    crate::gemm::gemm_nt(a, bt, out, m, k, n)
}

/// `out += atᵀ · b` (`at` stored `[k,m]`) through the contracted
/// microkernel — same broadcast-row structure as [`gemm_fast`] with the
/// broadcast drawn from `at[p]`.
pub fn gemm_tn_fast(at: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(at.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if fast_kernels_available() {
        // SAFETY: feature presence just checked.
        unsafe { x86::gemm_tn_avx2_fma(at, b, out, m, k, n) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { neon::gemm_tn_neon(at, b, out, m, k, n) };
        return;
    }
    #[allow(unreachable_code)]
    crate::gemm::gemm_tn(at, b, out, m, k, n)
}

// ---------------------------------------------------------------------------
// Fast tanh-GELU
// ---------------------------------------------------------------------------

/// `sqrt(2/π)` — shared with the bit-exact `Graph::gelu` so the two
/// policies approximate the *same* function.
pub(crate) const GELU_C: f32 = 0.797_884_6;
/// Cubic coefficient of the tanh-GELU argument (shared likewise).
pub(crate) const GELU_K: f32 = 0.044_715;
/// `tanh` saturates to ±1 (in f32) well before this; the rational
/// approximation below is a minimax fit on `[-TANH_CLAMP, TANH_CLAMP]` and
/// arguments are clamped into that interval first.
const TANH_CLAMP: f32 = 7.905_311_5;

// Degree-13/6 rational minimax fit of `tanh` on `[-TANH_CLAMP, TANH_CLAMP]`
// (the classic Cephes-lineage fit used by Eigen's `ptanh`). Odd numerator
// `x · P(x²)`, even denominator `Q(x²)`.
#[allow(clippy::excessive_precision)]
mod tanh_poly {
    pub const A1: f32 = 4.89352455891786e-3;
    pub const A3: f32 = 6.37261928875436e-4;
    pub const A5: f32 = 1.48572235717979e-5;
    pub const A7: f32 = 5.12229709037114e-8;
    pub const A9: f32 = -8.60467152213735e-11;
    pub const A11: f32 = 2.00018790482477e-13;
    pub const A13: f32 = -2.76076847742355e-16;
    pub const B0: f32 = 4.89352518554385e-3;
    pub const B2: f32 = 2.26843463243900e-3;
    pub const B4: f32 = 1.18534705686654e-4;
    pub const B6: f32 = 1.19825839466702e-6;
}

/// Rational `tanh` with fused Horner steps. Mirrors the AVX2 lane code
/// operation-for-operation so a value produces the same bits whether it
/// lands in a SIMD lane or the scalar tail.
#[inline]
fn tanh_rational(x: f32) -> f32 {
    use tanh_poly::*;
    let z = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let z2 = z * z;
    let p = A13;
    let p = p.mul_add(z2, A11);
    let p = p.mul_add(z2, A9);
    let p = p.mul_add(z2, A7);
    let p = p.mul_add(z2, A5);
    let p = p.mul_add(z2, A3);
    let p = p.mul_add(z2, A1);
    let p = p * z;
    let q = B6;
    let q = q.mul_add(z2, B4);
    let q = q.mul_add(z2, B2);
    let q = q.mul_add(z2, B0);
    p / q
}

/// Scalar fast GELU: `0.5·x·(1 + tanh_rational(C·(x + 0.044715·x³)))` with
/// the same contraction pattern as the vector path.
#[inline]
pub fn gelu_fma(x: f32) -> f32 {
    let x2 = x * x;
    let inner = GELU_C * (GELU_K * x2).mul_add(x, x);
    (0.5 * x) * (1.0 + tanh_rational(inner))
}

/// Fast tanh-GELU over a slice, appended to `out`.
///
/// Replaces the bit-exact `tanh` of `Graph::gelu`'s forward (the in-tree
/// fdlibm `tanhf` port, which carries the host libm's bits) with the
/// rational fit above, vectorized 8-wide under AVX2+FMA. Error contract
/// (checked by a dense grid test and proptest in
/// `crates/nn/tests/fast_kernels.rs`), with `gelu_exact` the bit-exact
/// tier's value:
///
/// ```text
/// |gelu_fast(x) − gelu_exact(x)| ≤ 1e-6 · (1 + |x|)    for finite x
/// ```
///
/// and the result is deterministic: equal inputs produce equal bits
/// regardless of slice position (lane vs. tail), because the scalar tail
/// uses the identical fused operation sequence.
pub fn gelu_fast(src: &[f32], out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if fast_kernels_available() {
        // SAFETY: feature presence just checked.
        unsafe { x86::gelu_avx2_fma(src, out) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { neon::gelu_neon(src, out) };
        return;
    }
    // Any FMA-native baseline without a vector path: `mul_add` lowers to a
    // fused instruction, so the scalar loop is already fast.
    #[allow(unreachable_code)]
    out.extend(src.iter().map(|&x| gelu_fma(x)));
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };

    /// Rows per microkernel call: 4 rows × 2 vectors = 8 `ymm` accumulators,
    /// leaving half the register file for broadcasts and loads (an 8×2 tile
    /// would spill).
    const MRF: usize = 4;
    /// Accumulator lanes per row: two 8-lane vectors.
    const NRF: usize = 16;

    /// Contracted `out += a · b`. Inside a `target_feature(fma)` function
    /// scalar `f32::mul_add` also lowers to a fused instruction, so the
    /// edge loops are contracted too — one code path per shape, which is
    /// what makes the kernel deterministic.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_avx2_fma(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut j = 0;
        while j + NRF <= n {
            let mut i = 0;
            while i + MRF <= m {
                let mut acc = [[_mm256_set1_ps(0.0); 2]; MRF];
                for (r, accr) in acc.iter_mut().enumerate() {
                    let o = out.as_ptr().add((i + r) * n + j);
                    accr[0] = _mm256_loadu_ps(o);
                    accr[1] = _mm256_loadu_ps(o.add(8));
                }
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*a.get_unchecked((i + r) * k + p));
                        accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                        accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let o = out.as_mut_ptr().add((i + r) * n + j);
                    _mm256_storeu_ps(o, accr[0]);
                    _mm256_storeu_ps(o.add(8), accr[1]);
                }
                i += MRF;
            }
            // Row remainder: one row at a time, same two-vector width.
            while i < m {
                let o = out.as_mut_ptr().add(i * n + j);
                let mut acc0 = _mm256_loadu_ps(o);
                let mut acc1 = _mm256_loadu_ps(o.add(8));
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let av = _mm256_set1_ps(*a.get_unchecked(i * k + p));
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), acc1);
                }
                _mm256_storeu_ps(o, acc0);
                _mm256_storeu_ps(o.add(8), acc1);
                i += 1;
            }
            j += NRF;
        }
        // Column tail, single-vector stage (8 ≤ remaining cols < 16): the
        // same broadcast structure with one accumulator per row, so narrow
        // matrices (e.g. a 10-class classifier head) still run vectorized.
        if j + 8 <= n {
            let mut i = 0;
            while i + MRF <= m {
                let mut acc = [_mm256_set1_ps(0.0); MRF];
                for (r, accr) in acc.iter_mut().enumerate() {
                    *accr = _mm256_loadu_ps(out.as_ptr().add((i + r) * n + j));
                }
                for p in 0..k {
                    let b0 = _mm256_loadu_ps(b.as_ptr().add(p * n + j));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*a.get_unchecked((i + r) * k + p));
                        *accr = _mm256_fmadd_ps(av, b0, *accr);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    _mm256_storeu_ps(out.as_mut_ptr().add((i + r) * n + j), *accr);
                }
                i += MRF;
            }
            while i < m {
                let o = out.as_mut_ptr().add(i * n + j);
                let mut acc0 = _mm256_loadu_ps(o);
                for p in 0..k {
                    let av = _mm256_set1_ps(*a.get_unchecked(i * k + p));
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b.as_ptr().add(p * n + j)), acc0);
                }
                _mm256_storeu_ps(o, acc0);
                i += 1;
            }
            j += 8;
        }
        // Column tail (< 8 lanes): scalar fused chains per element.
        if j < n {
            for i in 0..m {
                for jj in j..n {
                    let mut acc = *out.get_unchecked(i * n + jj);
                    for p in 0..k {
                        acc = a
                            .get_unchecked(i * k + p)
                            .mul_add(*b.get_unchecked(p * n + jj), acc);
                    }
                    *out.get_unchecked_mut(i * n + jj) = acc;
                }
            }
        }
    }

    /// Contracted `out += a · btᵀ`: per output element a lane-parallel dot
    /// product over `k` with a fixed-order horizontal reduction (pairwise
    /// vector add, then left-to-right lane sum) — deterministic for a
    /// given `k`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_nt_avx2_fma(
        a: &[f32],
        bt: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            let arow = a.as_ptr().add(i * k);
            for j in 0..n {
                let brow = bt.as_ptr().add(j * k);
                let mut acc0 = _mm256_set1_ps(0.0);
                let mut acc1 = _mm256_set1_ps(0.0);
                let mut p = 0;
                while p + 16 <= k {
                    acc0 = _mm256_fmadd_ps(
                        _mm256_loadu_ps(arow.add(p)),
                        _mm256_loadu_ps(brow.add(p)),
                        acc0,
                    );
                    acc1 = _mm256_fmadd_ps(
                        _mm256_loadu_ps(arow.add(p + 8)),
                        _mm256_loadu_ps(brow.add(p + 8)),
                        acc1,
                    );
                    p += 16;
                }
                let mut dot = hsum(acc0) + hsum(acc1);
                while p < k {
                    dot = arow.add(p).read().mul_add(brow.add(p).read(), dot);
                    p += 1;
                }
                *out.get_unchecked_mut(i * n + j) += dot;
            }
        }
    }

    /// Contracted `out += atᵀ · b`: broadcast `at[p, i..]`, ride `b[p]`
    /// rows — the [`gemm_avx2_fma`] structure with the transposed-left
    /// indexing.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_tn_avx2_fma(
        at: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut j = 0;
        while j + NRF <= n {
            let mut i = 0;
            while i + MRF <= m {
                let mut acc = [[_mm256_set1_ps(0.0); 2]; MRF];
                for (r, accr) in acc.iter_mut().enumerate() {
                    let o = out.as_ptr().add((i + r) * n + j);
                    accr[0] = _mm256_loadu_ps(o);
                    accr[1] = _mm256_loadu_ps(o.add(8));
                }
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*at.get_unchecked(p * m + i + r));
                        accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                        accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let o = out.as_mut_ptr().add((i + r) * n + j);
                    _mm256_storeu_ps(o, accr[0]);
                    _mm256_storeu_ps(o.add(8), accr[1]);
                }
                i += MRF;
            }
            while i < m {
                let o = out.as_mut_ptr().add(i * n + j);
                let mut acc0 = _mm256_loadu_ps(o);
                let mut acc1 = _mm256_loadu_ps(o.add(8));
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let av = _mm256_set1_ps(*at.get_unchecked(p * m + i));
                    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
                    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), acc1);
                }
                _mm256_storeu_ps(o, acc0);
                _mm256_storeu_ps(o.add(8), acc1);
                i += 1;
            }
            j += NRF;
        }
        if j < n {
            for i in 0..m {
                for jj in j..n {
                    let mut acc = *out.get_unchecked(i * n + jj);
                    for p in 0..k {
                        acc = at
                            .get_unchecked(p * m + i)
                            .mul_add(*b.get_unchecked(p * n + jj), acc);
                    }
                    *out.get_unchecked_mut(i * n + jj) = acc;
                }
            }
        }
    }

    /// 8-wide tanh-GELU. Operation-for-operation mirror of the scalar
    /// [`super::gelu_fma`]: same contractions (`_mm256_fmadd_ps` vs.
    /// `mul_add`), same clamp order (`min(hi, max(lo, x))`), same
    /// correctly-rounded divide — so lane and tail results agree bitwise
    /// for finite inputs.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gelu_avx2_fma(src: &[f32], out: &mut Vec<f32>) {
        use super::tanh_poly::*;
        use std::arch::x86_64::{
            _mm256_add_ps, _mm256_div_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
        };
        let n = src.len();
        out.reserve(n);
        let c = _mm256_set1_ps(super::GELU_C);
        let k = _mm256_set1_ps(super::GELU_K);
        let lo = _mm256_set1_ps(-super::TANH_CLAMP);
        let hi = _mm256_set1_ps(super::TANH_CLAMP);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let mut buf = [0.0f32; 8];
        let mut i = 0;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(src.as_ptr().add(i));
            let x2 = _mm256_mul_ps(x, x);
            let inner = _mm256_mul_ps(c, _mm256_fmadd_ps(_mm256_mul_ps(k, x2), x, x));
            let z = _mm256_min_ps(hi, _mm256_max_ps(lo, inner));
            let z2 = _mm256_mul_ps(z, z);
            let p = _mm256_set1_ps(A13);
            let p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(A11));
            let p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(A9));
            let p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(A7));
            let p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(A5));
            let p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(A3));
            let p = _mm256_fmadd_ps(p, z2, _mm256_set1_ps(A1));
            let p = _mm256_mul_ps(p, z);
            let q = _mm256_set1_ps(B6);
            let q = _mm256_fmadd_ps(q, z2, _mm256_set1_ps(B4));
            let q = _mm256_fmadd_ps(q, z2, _mm256_set1_ps(B2));
            let q = _mm256_fmadd_ps(q, z2, _mm256_set1_ps(B0));
            let t = _mm256_div_ps(p, q);
            let y = _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, t));
            _mm256_storeu_ps(buf.as_mut_ptr(), y);
            out.extend_from_slice(&buf);
            i += 8;
        }
        for &x in &src[i..] {
            out.push(super::gelu_fma(x));
        }
    }

    /// Fixed-order horizontal sum of an 8-lane vector: lanes left to right.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(v: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), v);
        let mut s = 0.0f32;
        for lane in lanes {
            s += lane;
        }
        s
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::{
        vaddq_f32, vaddvq_f32, vdivq_f32, vdupq_n_f32, vfmaq_f32, vld1q_f32, vmaxq_f32, vminq_f32,
        vmulq_f32, vst1q_f32,
    };

    /// 4-wide tanh-GELU. Operation-for-operation mirror of the scalar
    /// [`super::gelu_fma`] (and of the AVX2 lane code): same contractions
    /// (`vfmaq_f32` vs. `mul_add`), same clamp order
    /// (`min(hi, max(lo, x))`), same correctly-rounded divide — so lane and
    /// tail results agree bitwise for finite inputs and the error contract
    /// `|gelu_fast(x) − gelu_exact(x)| ≤ 1e-6 · (1 + |x|)` carries over.
    pub(super) unsafe fn gelu_neon(src: &[f32], out: &mut Vec<f32>) {
        use super::tanh_poly::*;
        let n = src.len();
        out.reserve(n);
        let c = vdupq_n_f32(super::GELU_C);
        let k = vdupq_n_f32(super::GELU_K);
        let lo = vdupq_n_f32(-super::TANH_CLAMP);
        let hi = vdupq_n_f32(super::TANH_CLAMP);
        let half = vdupq_n_f32(0.5);
        let one = vdupq_n_f32(1.0);
        let mut buf = [0.0f32; 4];
        let mut i = 0;
        while i + 4 <= n {
            let x = vld1q_f32(src.as_ptr().add(i));
            let x2 = vmulq_f32(x, x);
            // vfmaq_f32(a, b, c) = a + b·c, so the addend comes first.
            let inner = vmulq_f32(c, vfmaq_f32(x, vmulq_f32(k, x2), x));
            let z = vminq_f32(hi, vmaxq_f32(lo, inner));
            let z2 = vmulq_f32(z, z);
            let p = vdupq_n_f32(A13);
            let p = vfmaq_f32(vdupq_n_f32(A11), p, z2);
            let p = vfmaq_f32(vdupq_n_f32(A9), p, z2);
            let p = vfmaq_f32(vdupq_n_f32(A7), p, z2);
            let p = vfmaq_f32(vdupq_n_f32(A5), p, z2);
            let p = vfmaq_f32(vdupq_n_f32(A3), p, z2);
            let p = vfmaq_f32(vdupq_n_f32(A1), p, z2);
            let p = vmulq_f32(p, z);
            let q = vdupq_n_f32(B6);
            let q = vfmaq_f32(vdupq_n_f32(B4), q, z2);
            let q = vfmaq_f32(vdupq_n_f32(B2), q, z2);
            let q = vfmaq_f32(vdupq_n_f32(B0), q, z2);
            let t = vdivq_f32(p, q);
            let y = vmulq_f32(vmulq_f32(half, x), vaddq_f32(one, t));
            vst1q_f32(buf.as_mut_ptr(), y);
            out.extend_from_slice(&buf);
            i += 4;
        }
        for &x in &src[i..] {
            out.push(super::gelu_fma(x));
        }
    }

    /// Contracted `out += a · b`: one row at a time over two 4-lane
    /// accumulators, scalar fused tail past the 8-lane columns.
    pub(super) unsafe fn gemm_neon(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            let mut j = 0;
            while j + 8 <= n {
                let o = out.as_mut_ptr().add(i * n + j);
                let mut acc0 = vld1q_f32(o);
                let mut acc1 = vld1q_f32(o.add(4));
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let av = vdupq_n_f32(*a.get_unchecked(i * k + p));
                    acc0 = vfmaq_f32(acc0, av, vld1q_f32(bp));
                    acc1 = vfmaq_f32(acc1, av, vld1q_f32(bp.add(4)));
                }
                vst1q_f32(o, acc0);
                vst1q_f32(o.add(4), acc1);
                j += 8;
            }
            while j < n {
                let mut acc = *out.get_unchecked(i * n + j);
                for p in 0..k {
                    acc = a
                        .get_unchecked(i * k + p)
                        .mul_add(*b.get_unchecked(p * n + j), acc);
                }
                *out.get_unchecked_mut(i * n + j) = acc;
                j += 1;
            }
        }
    }

    /// Contracted `out += a · btᵀ`: lane-parallel dot per element with a
    /// fixed-order reduction.
    pub(super) unsafe fn gemm_nt_neon(
        a: &[f32],
        bt: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            let arow = a.as_ptr().add(i * k);
            for j in 0..n {
                let brow = bt.as_ptr().add(j * k);
                let mut acc = vdupq_n_f32(0.0);
                let mut p = 0;
                while p + 4 <= k {
                    acc = vfmaq_f32(acc, vld1q_f32(arow.add(p)), vld1q_f32(brow.add(p)));
                    p += 4;
                }
                let mut dot = vaddvq_f32(acc);
                while p < k {
                    dot = arow.add(p).read().mul_add(brow.add(p).read(), dot);
                    p += 1;
                }
                *out.get_unchecked_mut(i * n + j) += dot;
            }
        }
    }

    /// Contracted `out += atᵀ · b`: [`gemm_neon`] with the broadcast drawn
    /// from the transposed-left layout.
    pub(super) unsafe fn gemm_tn_neon(
        at: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            let mut j = 0;
            while j + 8 <= n {
                let o = out.as_mut_ptr().add(i * n + j);
                let mut acc0 = vld1q_f32(o);
                let mut acc1 = vld1q_f32(o.add(4));
                for p in 0..k {
                    let bp = b.as_ptr().add(p * n + j);
                    let av = vdupq_n_f32(*at.get_unchecked(p * m + i));
                    acc0 = vfmaq_f32(acc0, av, vld1q_f32(bp));
                    acc1 = vfmaq_f32(acc1, av, vld1q_f32(bp.add(4)));
                }
                vst1q_f32(o, acc0);
                vst1q_f32(o.add(4), acc1);
                j += 8;
            }
            while j < n {
                let mut acc = *out.get_unchecked(i * n + j);
                for p in 0..k {
                    acc = at
                        .get_unchecked(p * m + i)
                        .mul_add(*b.get_unchecked(p * n + j), acc);
                }
                *out.get_unchecked_mut(i * n + j) = acc;
                j += 1;
            }
        }
    }
}
