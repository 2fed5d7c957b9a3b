//! Register-tiled GEMM kernels — the one hot loop every RefFiL model
//! bottoms out in.
//!
//! Three layout variants cover every product the autodiff tape needs
//! without ever materializing a transposed copy:
//!
//! * [`gemm`] — `out += A · B` with both operands row-major;
//! * [`gemm_nt`] — `out += A · Bᵀ` where `B` is stored `[n, k]` and read
//!   transposed in place (the `dA` half of a matmul backward);
//! * [`gemm_tn`] — `out += Aᵀ · B` where `A` is stored `[k, m]` and read
//!   transposed in place (the `dB` half of a matmul backward).
//!
//! # Determinism invariant
//!
//! Every output element is produced by one running `f32` accumulator that
//! is seeded with the element's initial value and advanced in strictly
//! ascending `k` order — exactly the chain the naive three-loop kernel
//! builds. Tiling only changes *which* elements are in flight at once,
//! never the order of additions within an element, so results are
//! byte-identical to [`gemm_ref`] at any tile size (pinned by proptests).
//! The speedup comes from keeping an `MR x NR` block of accumulators in
//! registers across the whole `k` loop (the naive kernel reloads and
//! re-stores the output row once per `k` step) and from branch-free inner
//! loops the compiler can vectorize across the `n` dimension.
//!
//! # Kernel policy
//!
//! The bit-exact contract above forbids FP contraction (a fused
//! multiply-add rounds once where the oracle rounds twice), which leaves
//! real throughput on the table on FMA hardware. [`KernelPolicy`] is the
//! opt-in: the default [`KernelPolicy::BitExact`] keeps these kernels as
//! the oracle; [`KernelPolicy::Fast`] (or `REFIL_FAST_KERNELS=1`) routes
//! all three layouts through the explicit SIMD/FMA microkernels in
//! [`crate::gemm_fast`], which stay deterministic (run-to-run and
//! thread-count stable) but match the oracle only within the documented
//! error bound.

/// Which GEMM implementations the process uses. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPolicy {
    /// The register-tiled no-contraction kernels below: byte-identical to
    /// the naive ascending-`k` oracle. The default.
    BitExact,
    /// The explicit FMA/SIMD microkernels in [`crate::gemm_fast`]:
    /// deterministic, but fused — within `2k·ε` of the oracle rather than
    /// equal to it. Falls back to `BitExact` kernels on machines without a
    /// SIMD fast path.
    Fast,
}

/// Process-global kernel policy. `0` = not yet resolved (first read
/// consults `REFIL_FAST_KERNELS`), `1` = bit-exact, `2` = fast.
static POLICY: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// The active [`KernelPolicy`]: whatever [`set_kernel_policy`] installed,
/// otherwise `Fast` when the process started with `REFIL_FAST_KERNELS=1`,
/// otherwise `BitExact`.
pub fn kernel_policy() -> KernelPolicy {
    match POLICY.load(std::sync::atomic::Ordering::Relaxed) {
        1 => KernelPolicy::BitExact,
        2 => KernelPolicy::Fast,
        _ => {
            let policy = match std::env::var("REFIL_FAST_KERNELS") {
                Ok(v) if v == "1" => KernelPolicy::Fast,
                _ => KernelPolicy::BitExact,
            };
            set_kernel_policy(policy);
            policy
        }
    }
}

/// Installs `policy` process-wide (benches A/B-ing the kernels, tests
/// pinning the fast path). Affects every subsequent GEMM on every thread;
/// callers that flip it temporarily must serialize with other kernel users
/// and restore the previous policy.
pub fn set_kernel_policy(policy: KernelPolicy) {
    let raw = match policy {
        KernelPolicy::BitExact => 1,
        KernelPolicy::Fast => 2,
    };
    POLICY.store(raw, std::sync::atomic::Ordering::Relaxed);
}

/// True when the active policy is `Fast` *and* this machine has a real
/// SIMD fast path to route to.
#[inline]
pub(crate) fn fast_enabled() -> bool {
    kernel_policy() == KernelPolicy::Fast && crate::gemm_fast::fast_kernels_available()
}

/// Rows of the register tile: output rows in flight per micro-kernel call.
pub const MR: usize = 8;

/// Columns of the register tile: accumulator lanes per output row.
pub const NR: usize = 16;

/// `out += a · b` for row-major `a [m,k]`, `b [k,n]`, `out [m,n]`.
///
/// Accumulates on top of the existing contents of `out` (pass zeros for a
/// plain product, or a bias-initialized buffer for a fused bias-first
/// accumulation as in the im2col conv lowering).
///
/// # Panics
///
/// Debug-asserts that the slice lengths match the dimensions.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if fast_enabled() {
        return crate::gemm_fast::gemm_fast(a, b, out, m, k, n);
    }
    let mut i = 0;
    while i < m {
        let ib = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let jb = NR.min(n - j);
            if ib == MR && jb == NR {
                // Full tile: fixed-bound loops keep the accumulators in
                // registers and let the jj loop vectorize.
                let mut acc = [[0.0f32; NR]; MR];
                for (ii, accr) in acc.iter_mut().enumerate() {
                    let orow = &out[(i + ii) * n + j..(i + ii) * n + j + NR];
                    accr.copy_from_slice(orow);
                }
                for p in 0..k {
                    let brow = &b[p * n + j..p * n + j + NR];
                    for (ii, accr) in acc.iter_mut().enumerate() {
                        let av = a[(i + ii) * k + p];
                        for (jj, acc_el) in accr.iter_mut().enumerate() {
                            *acc_el += av * brow[jj];
                        }
                    }
                }
                for (ii, accr) in acc.iter().enumerate() {
                    out[(i + ii) * n + j..(i + ii) * n + j + NR].copy_from_slice(accr);
                }
            } else {
                gemm_edge(a, b, out, i, ib, j, jb, k, n);
            }
            j += NR;
        }
        i += MR;
    }
}

/// Remainder tile of [`gemm`]: same accumulation chains as the full tile.
///
/// The `b` row fragment is copied into a zero-padded `[NR]` buffer so the
/// inner loop keeps its fixed vector width; padding lanes accumulate
/// `av * 0.0` into accumulators that are never stored back, so the `jb`
/// live lanes advance exactly the same chains as the full-tile path.
#[allow(clippy::too_many_arguments)]
fn gemm_edge(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    ib: usize,
    j: usize,
    jb: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for ii in 0..ib {
        for jj in 0..jb {
            acc[ii][jj] = out[(i + ii) * n + j + jj];
        }
    }
    let mut bbuf = [0.0f32; NR];
    for p in 0..k {
        bbuf[..jb].copy_from_slice(&b[p * n + j..p * n + j + jb]);
        for (ii, accr) in acc.iter_mut().enumerate().take(ib) {
            let av = a[(i + ii) * k + p];
            for (jj, acc_el) in accr.iter_mut().enumerate() {
                *acc_el += av * bbuf[jj];
            }
        }
    }
    for ii in 0..ib {
        for jj in 0..jb {
            out[(i + ii) * n + j + jj] = acc[ii][jj];
        }
    }
}

/// `out += a · btᵀ` for row-major `a [m,k]`, `bt [n,k]`, `out [m,n]`.
///
/// `bt` holds the *transpose* of the logical right operand, so
/// `out[i][j] += Σ_p a[i][p] · bt[j][p]` — the backward-pass product
/// `dA = g · Bᵀ` without materializing `Bᵀ`. Per-element accumulation is
/// strictly ascending in `p`, byte-identical to transposing `bt` and
/// calling [`gemm_ref`].
pub fn gemm_nt(a: &[f32], bt: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(bt.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if fast_enabled() {
        return crate::gemm_fast::gemm_nt_fast(a, bt, out, m, k, n);
    }
    // Reading `bt` in place means stride-`k` gathers in the inner loop,
    // which defeats vectorization. Instead each `NR`-column strip of `bt`
    // is transposed once into a contiguous `[k][NR]` pack (zero-padded past
    // `jb`) and reused across every row tile — after which the micro-kernel
    // is identical to [`gemm`]'s. Packing copies values without touching
    // them, so per-element chains are unchanged.
    NT_PACK.with(|cell| {
        let mut pack = cell.borrow_mut();
        pack.resize(k * NR, 0.0);
        let mut j = 0;
        while j < n {
            let jb = NR.min(n - j);
            for jj in 0..jb {
                let src = &bt[(j + jj) * k..(j + jj) * k + k];
                for (p, &v) in src.iter().enumerate() {
                    pack[p * NR + jj] = v;
                }
            }
            if jb < NR {
                for p in 0..k {
                    pack[p * NR + jb..(p + 1) * NR].fill(0.0);
                }
            }
            let mut i = 0;
            while i < m {
                let ib = MR.min(m - i);
                let mut acc = [[0.0f32; NR]; MR];
                for ii in 0..ib {
                    for jj in 0..jb {
                        acc[ii][jj] = out[(i + ii) * n + j + jj];
                    }
                }
                for p in 0..k {
                    let brow = &pack[p * NR..p * NR + NR];
                    for (ii, accr) in acc.iter_mut().enumerate().take(ib) {
                        let av = a[(i + ii) * k + p];
                        for (jj, acc_el) in accr.iter_mut().enumerate() {
                            *acc_el += av * brow[jj];
                        }
                    }
                }
                for ii in 0..ib {
                    for jj in 0..jb {
                        out[(i + ii) * n + j + jj] = acc[ii][jj];
                    }
                }
                i += MR;
            }
            j += NR;
        }
    });
}

thread_local! {
    /// Reusable `[k][NR]` transpose pack for [`gemm_nt`] — grown on demand,
    /// never shared across threads.
    static NT_PACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `out += atᵀ · b` for row-major `at [k,m]`, `b [k,n]`, `out [m,n]`.
///
/// `at` holds the *transpose* of the logical left operand, so
/// `out[i][j] += Σ_p at[p][i] · b[p][j]` — the backward-pass product
/// `dB = Aᵀ · g` without materializing `Aᵀ`. For each `p`, both `at[p]`
/// and `b[p]` are contiguous rows, so the inner loop vectorizes across
/// `n` exactly like [`gemm`].
pub fn gemm_tn(at: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(at.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if fast_enabled() {
        return crate::gemm_fast::gemm_tn_fast(at, b, out, m, k, n);
    }
    let mut i = 0;
    while i < m {
        let ib = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let jb = NR.min(n - j);
            let mut acc = [[0.0f32; NR]; MR];
            for ii in 0..ib {
                for jj in 0..jb {
                    acc[ii][jj] = out[(i + ii) * n + j + jj];
                }
            }
            if jb == NR {
                for p in 0..k {
                    let arow = &at[p * m + i..p * m + i + ib];
                    let brow = &b[p * n + j..p * n + j + NR];
                    for (ii, &av) in arow.iter().enumerate() {
                        for (jj, acc_el) in acc[ii].iter_mut().enumerate() {
                            *acc_el += av * brow[jj];
                        }
                    }
                }
            } else {
                // Column edge: zero-pad the `b` row fragment to the full
                // tile width so the inner loop stays fixed-width vector
                // code; padding lanes feed accumulators that are never
                // stored back.
                let mut bbuf = [0.0f32; NR];
                for p in 0..k {
                    bbuf[..jb].copy_from_slice(&b[p * n + j..p * n + j + jb]);
                    let arow = &at[p * m + i..p * m + i + ib];
                    for (ii, &av) in arow.iter().enumerate() {
                        for (jj, acc_el) in acc[ii].iter_mut().enumerate() {
                            *acc_el += av * bbuf[jj];
                        }
                    }
                }
            }
            for ii in 0..ib {
                for jj in 0..jb {
                    out[(i + ii) * n + j + jj] = acc[ii][jj];
                }
            }
            j += NR;
        }
        i += MR;
    }
}

/// Naive ikj reference kernel: `out += a · b`, branch-free.
///
/// One running accumulator per output element, ascending `k` — the
/// canonical chain the tiled kernels must reproduce bit-for-bit. Kept as
/// the equivalence oracle for the proptests and micro benches.
pub fn gemm_ref(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn randv(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    #[test]
    fn tiled_matches_reference_bitwise_across_shapes() {
        let mut rng = StdRng::seed_from_u64(99);
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 3, 9),
            (7, 1, 17),
            (12, 6, 1),
            (13, 5, 23),
            (32, 32, 32),
        ] {
            let a = randv(&mut rng, m * k);
            let b = randv(&mut rng, k * n);
            let seed = randv(&mut rng, m * n);
            let mut tiled = seed.clone();
            let mut naive = seed.clone();
            gemm(&a, &b, &mut tiled, m, k, n);
            gemm_ref(&a, &b, &mut naive, m, k, n);
            for (x, y) in tiled.iter().zip(&naive) {
                assert_eq!(x.to_bits(), y.to_bits(), "gemm diverged at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn nt_and_tn_match_materialized_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, k, n) = (6, 5, 11);
        let a = randv(&mut rng, m * k);
        let b = randv(&mut rng, k * n);

        // Reference: plain product.
        let mut want = vec![0.0f32; m * n];
        gemm_ref(&a, &b, &mut want, m, k, n);

        // gemm_nt with bt = Bᵀ materialized by hand.
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_nt(&a, &bt, &mut got, m, k, n);
        for (x, y) in got.iter().zip(&want) {
            assert_eq!(x.to_bits(), y.to_bits(), "gemm_nt diverged");
        }

        // gemm_tn with at = Aᵀ materialized by hand.
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut got = vec![0.0f32; m * n];
        gemm_tn(&at, &b, &mut got, m, k, n);
        for (x, y) in got.iter().zip(&want) {
            assert_eq!(x.to_bits(), y.to_bits(), "gemm_tn diverged");
        }
    }

    #[test]
    fn accumulates_on_top_of_existing_output() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let mut out = vec![10.0f32];
        gemm(&a, &b, &mut out, 1, 2, 1);
        assert_eq!(out, vec![10.0 + 3.0 + 8.0]);
    }
}
