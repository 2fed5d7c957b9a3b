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
//! All three run one driver that reads the left operand through a
//! `(row stride, k stride)` pair and walks `NR`-column strips of `MR`-row
//! tiles. On x86_64 CPUs that report AVX2 at run time the tile is an
//! explicit `__m256` microkernel: two 8-lane accumulators per row, masked
//! loads and stores at the column edge. Elsewhere a safe `[f32; NR]` tile
//! runs the same chains.
//!
//! # Determinism invariant
//!
//! Every output element is produced by one running `f32` accumulator that
//! is seeded with the element's initial value and advanced in strictly
//! ascending `k` order — exactly the chain the naive three-loop kernel
//! builds. Each step is a rounded multiply followed by a rounded add
//! (`vmulps` then `vaddps`, never a fused multiply-add), the same two
//! IEEE-754 binary32 operations as the scalar loop. Tiles and vector lanes
//! only change *which* elements are in flight at once, never the order of
//! operations within an element, so results are byte-identical to
//! [`gemm_ref`] on either tile (pinned by proptests and an edge sweep).
//! The speed comes from the SIMD structure: a tile's accumulators stay in
//! registers across the whole `k` loop, and each `B` row fragment is
//! loaded once per step and reused by every row of the tile.
//!
//! # Kernel policy
//!
//! These kernels are the only GEMM path; there is no approximate tier to
//! opt into. The contract above forbids FP contraction (a fused
//! multiply-add rounds once where the oracle rounds twice), and the SIMD
//! structure already gives the speed a fused tier would offer.

/// The kernel tier in use. There is only the bit-exact tier: this enum and
/// [`set_kernel_policy`] exist only because the `perfbench` package still
/// names them. Delete both once it stops doing so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPolicy {
    /// The register-tiled no-contraction kernels below: byte-identical to
    /// the naive ascending-`k` oracle.
    BitExact,
}

/// No-op: [`KernelPolicy::BitExact`] is the only tier. Kept only because
/// the `perfbench` package calls it.
pub fn set_kernel_policy(_: KernelPolicy) {}

/// Rows of the full register tile: output rows in flight per microkernel
/// call. The last `m % MR` rows run the same microkernel at that height.
pub const MR: usize = 4;

/// Columns of a strip: two 8-lane accumulators per output row.
pub const NR: usize = 16;

/// `out += a · b` for row-major `a [m,k]`, `b [k,n]`, `out [m,n]`.
///
/// Accumulates on top of the existing contents of `out` (pass zeros for a
/// plain product, or a bias-initialized buffer for a fused bias-first
/// accumulation as in the im2col conv lowering).
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    drive(Tile::detect(), a, (k, 1), Rhs::RowMajor(b), out, m, k, n);
}

/// `out += a · btᵀ` for row-major `a [m,k]`, `bt [n,k]`, `out [m,n]`.
///
/// `bt` holds the *transpose* of the logical right operand, so
/// `out[i][j] += Σ_p a[i][p] · bt[j][p]` — the backward-pass product
/// `dA = g · Bᵀ` without materializing `Bᵀ`. Per-element accumulation is
/// strictly ascending in `p`, byte-identical to transposing `bt` and
/// calling [`gemm_ref`].
pub fn gemm_nt(a: &[f32], bt: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    drive(Tile::detect(), a, (k, 1), Rhs::Transposed(bt), out, m, k, n);
}

/// `out += atᵀ · b` for row-major `at [k,m]`, `b [k,n]`, `out [m,n]`.
///
/// `at` holds the *transpose* of the logical left operand, so
/// `out[i][j] += Σ_p at[p][i] · b[p][j]` — the backward-pass product
/// `dB = Aᵀ · g` without materializing `Aᵀ`. The left operand is read in
/// place with row stride 1 and `k` stride `m`.
pub fn gemm_tn(at: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    drive(Tile::detect(), at, (1, m), Rhs::RowMajor(b), out, m, k, n);
}

/// Right operand of [`drive`].
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// `b [k,n]`, row-major: a strip is read in place with row stride `n`.
    RowMajor(&'a [f32]),
    /// `bt [n,k]`, the transpose of the logical operand. Reading it in
    /// place would mean stride-`k` gathers, so each strip is first copied
    /// into the `[k][NR]` [`NT_PACK`] (row stride `NR`) and reused by every
    /// row tile. Copying does not touch the values, so chains are unchanged.
    Transposed(&'a [f32]),
}

thread_local! {
    /// Reusable `[k][NR]` strip pack for [`Rhs::Transposed`] — grown on
    /// demand, never shared across threads.
    static NT_PACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Which microkernel runs the tiles. Chosen by the machine, never by a
/// caller: both produce the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tile {
    /// Explicit `__m256` multiply-then-add ([`avx2::tile`]).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Safe `[f32; NR]` accumulator rows ([`portable::tile`]).
    Portable,
}

impl Tile {
    /// AVX2 when the CPU reports it at run time (whatever `target-cpu` the
    /// binary was built for; std caches the probe), otherwise the portable
    /// tile.
    fn detect() -> Tile {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tile::Avx2;
        }
        Tile::Portable
    }
}

/// The one GEMM driver behind [`gemm`], [`gemm_nt`] and [`gemm_tn`]:
/// `out[i][j] += Σ_p A[i][p] · B[p][j]` with `A[i][p]` read at
/// `a[i·a_rs + p·a_ks]`. It walks `NR`-column strips and, inside each,
/// `MR`-row tiles followed by one tile of the `m % MR` remaining rows.
///
/// Each output element is one chain: its initial `out` value, advanced by
/// `+ A[i][p] · B[p][j]` (one rounded multiply, then one rounded add) for
/// `p = 0, 1, …, k−1` — the [`gemm_ref`] order. Tiles and vector lanes
/// only choose which chains advance together.
///
/// # Panics
///
/// Panics unless `a.len() == m·k`, the right operand holds `k·n` values and
/// `out.len() == m·n`. These checks run in release builds too: the AVX2
/// microkernel indexes without bounds checks and relies on them.
#[allow(clippy::too_many_arguments)]
fn drive(
    tile: Tile,
    a: &[f32],
    a_st: (usize, usize),
    rhs: Rhs<'_>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let (Rhs::RowMajor(b) | Rhs::Transposed(b)) = rhs;
    assert!(
        a.len() == m * k && b.len() == k * n && out.len() == m * n,
        "gemm: operand lengths {}/{}/{} do not fit {m}x{k}x{n}",
        a.len(),
        b.len(),
        out.len()
    );
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    // Both left layouts, `(k, 1)` and `(1, m)`, end at `A[m−1][k−1]`, the
    // last element of `a`; every tile's bounds below rest on this.
    assert_eq!((m - 1) * a_st.0 + (k - 1) * a_st.1, m * k - 1);
    match rhs {
        Rhs::RowMajor(b) => {
            for j in (0..n).step_by(NR) {
                let jb = NR.min(n - j);
                strip(tile, a, a_st, &b[j..], n, &mut out[j..], n, m, k, jb);
            }
        }
        Rhs::Transposed(bt) => NT_PACK.with(|cell| {
            let mut pack = cell.borrow_mut();
            pack.resize(k * NR, 0.0);
            for j in (0..n).step_by(NR) {
                let jb = NR.min(n - j);
                // Lanes `jb..NR` keep stale values: no tile reads them.
                for jj in 0..jb {
                    for (p, &v) in bt[(j + jj) * k..(j + jj + 1) * k].iter().enumerate() {
                        pack[p * NR + jj] = v;
                    }
                }
                strip(tile, a, a_st, &pack, NR, &mut out[j..], n, m, k, jb);
            }
        }),
    }
}

/// Every row tile of one strip: columns `0..jb` of `b` and `out`, which
/// start at the strip's first column.
#[allow(clippy::too_many_arguments)]
fn strip(
    tile: Tile,
    a: &[f32],
    a_st: (usize, usize),
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    m: usize,
    k: usize,
    jb: usize,
) {
    let mut i = 0;
    while i + MR <= m {
        rows::<MR>(tile, a, a_st, i, b, ldb, out, ldo, k, jb);
        i += MR;
    }
    match m - i {
        0 => {}
        1 => rows::<1>(tile, a, a_st, i, b, ldb, out, ldo, k, jb),
        2 => rows::<2>(tile, a, a_st, i, b, ldb, out, ldo, k, jb),
        3 => rows::<3>(tile, a, a_st, i, b, ldb, out, ldo, k, jb),
        _ => unreachable!("MR is 4"),
    }
}

const _: () = assert!(MR == 4, "strip's remainder arms cover heights 1..MR");

/// One `R`-row tile starting at row `i`, on the chosen microkernel.
///
/// The debug assertions restate, per tile, the bounds the AVX2 microkernel
/// reads and writes without checks; [`drive`]'s length checks imply them.
#[allow(clippy::too_many_arguments)]
fn rows<const R: usize>(
    tile: Tile,
    a: &[f32],
    (a_rs, a_ks): (usize, usize),
    i: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldo: usize,
    k: usize,
    jb: usize,
) {
    let a = &a[i * a_rs..];
    let out = &mut out[i * ldo..];
    debug_assert!(k > 0 && (1..=NR).contains(&jb));
    debug_assert!((R - 1) * a_rs + (k - 1) * a_ks < a.len());
    debug_assert!(ldb * (k - 1) + jb <= b.len());
    debug_assert!(ldo * (R - 1) + jb <= out.len());
    match tile {
        #[cfg(target_arch = "x86_64")]
        Tile::Avx2 => {
            // SAFETY: a `Tile::Avx2` exists only where
            // `is_x86_feature_detected!("avx2")` returned true. The
            // microkernel touches `a` up to `(R−1)·a_rs + (k−1)·a_ks`, `b`
            // up to the last live lane `ldb·(k−1) + jb` of its last row and
            // `out` up to `ldo·(R−1) + jb`; lanes `jb..NR` of the 16-lane
            // window are masked off and never accessed. All three bounds
            // are asserted just above and follow from `drive`'s length
            // checks, because the tile lies inside the `m×k×n` product.
            unsafe {
                if jb == NR {
                    avx2::tile::<R, false>(a, a_rs, a_ks, b, ldb, out, ldo, k, jb)
                } else {
                    avx2::tile::<R, true>(a, a_rs, a_ks, b, ldb, out, ldo, k, jb)
                }
            }
        }
        Tile::Portable => portable::tile::<R>(a, a_rs, a_ks, b, ldb, out, ldo, k, jb),
    }
}

/// Explicit AVX2 microkernel: two `__m256` accumulators per row, advanced
/// by `vmulps` then `vaddps` — the same two correctly rounded binary32
/// operations as the scalar chain, never a fused multiply-add. Column
/// edges load and store through `vmaskmovps`.
#[cfg(target_arch = "x86_64")]
#[deny(unsafe_op_in_unsafe_fn)]
mod avx2 {
    use std::arch::x86_64::{
        __m256, __m256i, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_loadu_ps, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// `out[r·ldo + c] += Σ_p a[r·a_rs + p·a_ks] · b[p·ldb + c]` for
    /// `r < R`, `c < jb`, each chain advanced in ascending `p`.
    ///
    /// With `MASKED`, lanes `jb..16` load as zero and are never stored;
    /// without it `jb` must be 16.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `k ≥ 1`; `1 ≤ jb ≤ 16` (exactly 16 unless
    /// `MASKED`); `(R−1)·a_rs + (k−1)·a_ks < a.len()`;
    /// `ldb·(k−1) + jb ≤ b.len()`; `ldo·(R−1) + jb ≤ out.len()`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile<const R: usize, const MASKED: bool>(
        a: &[f32],
        a_rs: usize,
        a_ks: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldo: usize,
        k: usize,
        jb: usize,
    ) {
        // Lane `c` of the low half is live iff `c < jb`, of the high half
        // iff `8 + c < jb`.
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let lo = _mm256_cmpgt_epi32(_mm256_set1_epi32(jb as i32), lane);
        let hi = _mm256_cmpgt_epi32(_mm256_set1_epi32(jb as i32 - 8), lane);
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for (r, accr) in acc.iter_mut().enumerate() {
            let o = out.as_ptr().wrapping_add(r * ldo);
            // SAFETY: AVX2 and the live lanes `r·ldo + c`, `c < jb`, stay
            // below `ldo·(R−1) + jb ≤ out.len()` (caller's contract).
            *accr = unsafe { [load::<MASKED>(o, lo), load::<MASKED>(o.wrapping_add(8), hi)] };
        }
        for p in 0..k {
            let bp = b.as_ptr().wrapping_add(p * ldb);
            // SAFETY: AVX2 and the live lanes `p·ldb + c`, `c < jb`, stay
            // below `ldb·(k−1) + jb ≤ b.len()` (caller's contract).
            let (b0, b1) = unsafe {
                (
                    load::<MASKED>(bp, lo),
                    load::<MASKED>(bp.wrapping_add(8), hi),
                )
            };
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY: `r·a_rs + p·a_ks ≤ (R−1)·a_rs + (k−1)·a_ks <
                // a.len()` (caller's contract).
                let av = _mm256_set1_ps(unsafe { *a.get_unchecked(r * a_rs + p * a_ks) });
                accr[0] = _mm256_add_ps(accr[0], _mm256_mul_ps(av, b0));
                accr[1] = _mm256_add_ps(accr[1], _mm256_mul_ps(av, b1));
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let o = out.as_mut_ptr().wrapping_add(r * ldo);
            // SAFETY: as for the seeding loads above; only live lanes are
            // written.
            unsafe {
                store::<MASKED>(o, lo, accr[0]);
                store::<MASKED>(o.wrapping_add(8), hi, accr[1]);
            }
        }
    }

    /// Eight lanes from `p`: all of them, or with `MASKED` only the lanes
    /// set in `mask`; the others read as `0.0` without touching memory.
    ///
    /// # Safety
    ///
    /// AVX2, and every lane that is read lies inside one allocation.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load<const MASKED: bool>(p: *const f32, mask: __m256i) -> __m256 {
        // SAFETY: forwarded from this function's contract.
        unsafe {
            if MASKED {
                _mm256_maskload_ps(p, mask)
            } else {
                _mm256_loadu_ps(p)
            }
        }
    }

    /// Stores the eight lanes of `v` at `p`, or with `MASKED` only the lanes
    /// set in `mask`.
    ///
    /// # Safety
    ///
    /// AVX2, and every lane that is written lies inside one allocation the
    /// caller may mutate.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store<const MASKED: bool>(p: *mut f32, mask: __m256i, v: __m256) {
        // SAFETY: forwarded from this function's contract.
        unsafe {
            if MASKED {
                _mm256_maskstore_ps(p, mask, v)
            } else {
                _mm256_storeu_ps(p, v)
            }
        }
    }
}

/// Safe fallback microkernel for hosts without AVX2: `[f32; NR]`
/// accumulator rows advancing the same chains as [`avx2::tile`]. Lanes
/// `jb..NR` accumulate products of zero and are never stored.
mod portable {
    use super::NR;

    /// `out[r·ldo + c] += Σ_p a[r·a_rs + p·a_ks] · b[p·ldb + c]` for
    /// `r < R`, `c < jb`, each chain advanced in ascending `p`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn tile<const R: usize>(
        a: &[f32],
        a_rs: usize,
        a_ks: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldo: usize,
        k: usize,
        jb: usize,
    ) {
        let mut acc = [[0.0f32; NR]; R];
        for (r, accr) in acc.iter_mut().enumerate() {
            accr[..jb].copy_from_slice(&out[r * ldo..r * ldo + jb]);
        }
        let mut brow = [0.0f32; NR];
        for p in 0..k {
            brow[..jb].copy_from_slice(&b[p * ldb..p * ldb + jb]);
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = a[r * a_rs + p * a_ks];
                for (x, &bv) in accr.iter_mut().zip(&brow) {
                    *x += av * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            out[r * ldo..r * ldo + jb].copy_from_slice(&accr[..jb]);
        }
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

    /// Every tile this host can run: the portable one always, AVX2 where
    /// the CPU has it, so the fallback is tested on AVX2 hosts too.
    fn tiles() -> Vec<Tile> {
        let mut tiles = vec![Tile::Portable, Tile::detect()];
        tiles.dedup();
        tiles
    }

    /// `len + 3` values: operands are sliced from offset 1 or 3, so they
    /// do not start on a vector boundary.
    fn padded(rng: &mut StdRng, len: usize) -> Vec<f32> {
        randv(rng, len + 3)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Same bits as `want`, except that NaNs only need to be NaNs in the
    /// same positions (their payload may come from either operand).
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        for (idx, (x, y)) in got.iter().zip(want).enumerate() {
            if y.is_nan() {
                assert!(x.is_nan(), "{what}: element {idx} is {x}, want NaN");
            } else {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: element {idx} is {x}, want {y}"
                );
            }
        }
    }

    #[test]
    fn every_tile_matches_reference_bitwise_on_every_edge() {
        let mut rng = StdRng::seed_from_u64(18);
        for tile in tiles() {
            for m in 0..=20 {
                for n in 0..=40 {
                    for k in [0, 1, 3, 8, 33] {
                        for poison in [false, true] {
                            let mut abuf = padded(&mut rng, m * k);
                            let mut bbuf = padded(&mut rng, k * n);
                            let obuf = padded(&mut rng, m * n);
                            let (a, b) = (&mut abuf[1..1 + m * k], &mut bbuf[3..3 + k * n]);
                            if poison && m * k > 0 && k * n > 0 {
                                a[m * k / 2] = f32::NAN;
                                b[k * n - 1] = f32::INFINITY;
                                b[0] = f32::NEG_INFINITY;
                            }
                            let (a, b) = (&*a, &*b);
                            let mut want = obuf[1..1 + m * n].to_vec();
                            gemm_ref(a, b, &mut want, m, k, n);
                            let mut bt = vec![0.0f32; n * k + 1];
                            let at = &mut vec![0.0f32; k * m + 1][1..];
                            for p in 0..k {
                                for j in 0..n {
                                    bt[1 + j * k + p] = b[p * n + j];
                                }
                                for i in 0..m {
                                    at[p * m + i] = a[i * k + p];
                                }
                            }
                            for (name, lhs, a_st, rhs) in [
                                ("gemm", a, (k, 1), Rhs::RowMajor(b)),
                                ("gemm_nt", a, (k, 1), Rhs::Transposed(&bt[1..])),
                                ("gemm_tn", &*at, (1, m), Rhs::RowMajor(b)),
                            ] {
                                let what = format!("{name} {tile:?} {m}x{k}x{n} poison={poison}");
                                let mut got = obuf.clone();
                                drive(tile, lhs, a_st, rhs, &mut got[1..1 + m * n], m, k, n);
                                assert_same(&got[1..1 + m * n], &want, &what);
                                // Masked lanes never write past the slice.
                                assert_eq!(got[0].to_bits(), obuf[0].to_bits(), "{what}");
                                assert_eq!(
                                    bits(&got[1 + m * n..]),
                                    bits(&obuf[1 + m * n..]),
                                    "{what}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn mismatched_lengths_panic_in_every_build() {
        let mut out = vec![0.0f32; 4];
        gemm(&[1.0; 3], &[1.0; 4], &mut out, 2, 2, 2);
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
