//! Property-based tests of the autograd engine: algebraic identities that
//! must hold for arbitrary inputs (linearity of gradients, softmax
//! invariances, transpose involution, reduction consistency), plus bit-exact
//! equivalence of the tiled GEMM kernels and the im2col conv lowering
//! against naive reference loops.

#![cfg(test)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gemm::{gemm, gemm_nt, gemm_ref, gemm_tn};
use crate::graph::Graph;
use crate::params::Params;
use crate::tensor::Tensor;

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, len..=len)
}

fn seeded(seed: u64, len: usize) -> Vec<f32> {
    let mut r = StdRng::seed_from_u64(seed);
    (0..len).map(|_| r.gen_range(-1.0f32..1.0)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The pre-kernel-layer conv1d forward, kept as the oracle: 5-deep nested
/// loop, bias-seeded accumulator, padded taps skipped.
#[allow(clippy::too_many_arguments)]
fn naive_conv1d(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    b: usize,
    c_in: usize,
    l: usize,
    c_out: usize,
    k: usize,
    pad: usize,
) -> Vec<f32> {
    let l_out = l + 2 * pad - k + 1;
    let mut out = vec![0.0f32; b * c_out * l_out];
    for bi in 0..b {
        for co in 0..c_out {
            for lo in 0..l_out {
                let mut acc = bias[co];
                for ci in 0..c_in {
                    for kk in 0..k {
                        let xi = lo + kk;
                        if xi < pad || xi - pad >= l {
                            continue;
                        }
                        acc += x[(bi * c_in + ci) * l + (xi - pad)] * w[(co * c_in + ci) * k + kk];
                    }
                }
                out[(bi * c_out + co) * l_out + lo] = acc;
            }
        }
    }
    out
}

/// The pre-kernel-layer conv1d backward, as nested loops over an arbitrary
/// upstream gradient `gv`.
#[allow(clippy::too_many_arguments)]
fn naive_conv1d_backward(
    gv: &[f32],
    x: &[f32],
    w: &[f32],
    b: usize,
    c_in: usize,
    l: usize,
    c_out: usize,
    k: usize,
    pad: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let l_out = l + 2 * pad - k + 1;
    let mut dx = vec![0.0f32; b * c_in * l];
    let mut dw = vec![0.0f32; c_out * c_in * k];
    let mut db = vec![0.0f32; c_out];
    for bi in 0..b {
        for (co, db_co) in db.iter_mut().enumerate() {
            for lo in 0..l_out {
                let gi = gv[(bi * c_out + co) * l_out + lo];
                *db_co += gi;
                for ci in 0..c_in {
                    for kk in 0..k {
                        let xi = lo + kk;
                        if xi < pad || xi - pad >= l {
                            continue;
                        }
                        let x_idx = (bi * c_in + ci) * l + (xi - pad);
                        let w_idx = (co * c_in + ci) * k + kk;
                        dx[x_idx] += gi * w[w_idx];
                        dw[w_idx] += gi * x[x_idx];
                    }
                }
            }
        }
    }
    (dx, dw, db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_gradient_is_one(data in arb_vec(6)) {
        let mut params = Params::new();
        let x = params.insert("x", Tensor::from_vec(data, &[6]), true);
        let g = Graph::new();
        let xv = g.param(&params, x);
        let y = g.add(xv, xv);
        let s = g.sum_all(y);
        g.backward(s, &mut params);
        for &gr in params.grad(x).data() {
            prop_assert!((gr - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn scale_gradient_is_linear(data in arb_vec(4), c in -2.0f32..2.0) {
        let mut params = Params::new();
        let x = params.insert("x", Tensor::from_vec(data, &[4]), true);
        let g = Graph::new();
        let xv = g.param(&params, x);
        let y = g.scale(xv, c);
        let s = g.sum_all(y);
        g.backward(s, &mut params);
        for &gr in params.grad(x).data() {
            prop_assert!((gr - c).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(data in arb_vec(5), shift in -5.0f32..5.0) {
        let g = Graph::new();
        let a = g.constant(Tensor::from_vec(data.clone(), &[1, 5]));
        let b = g.constant(Tensor::from_vec(
            data.iter().map(|x| x + shift).collect(),
            &[1, 5],
        ));
        let sa = g.value(g.softmax_last(a));
        let sb = g.value(g.softmax_last(b));
        for (x, y) in sa.data().iter().zip(sb.data()) {
            prop_assert!((x - y).abs() < 1e-4, "softmax not shift invariant");
        }
    }

    #[test]
    fn softmax_outputs_are_a_distribution(data in arb_vec(8)) {
        let g = Graph::new();
        let a = g.constant(Tensor::from_vec(data, &[2, 4]));
        let s = g.value(g.softmax_last(a));
        for row in s.data().chunks(4) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for &p in row {
                prop_assert!((0.0..=1.0001).contains(&p));
            }
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax(data in arb_vec(6)) {
        let g = Graph::new();
        let a = g.constant(Tensor::from_vec(data.clone(), &[2, 3]));
        let b = g.constant(Tensor::from_vec(data, &[2, 3]));
        let ls = g.value(g.log_softmax_last(a));
        let sm = g.value(g.softmax_last(b));
        for (l, s) in ls.data().iter().zip(sm.data()) {
            prop_assert!((l - s.ln()).abs() < 1e-3, "{l} vs ln {s}");
        }
    }

    #[test]
    fn transpose_is_involutive(data in arb_vec(12)) {
        let t = Tensor::from_vec(data, &[3, 4]);
        prop_assert_eq!(t.transpose_last().transpose_last(), t);
    }

    #[test]
    fn matmul_distributes_over_addition(a in arb_vec(4), b in arb_vec(4), c in arb_vec(4)) {
        // (A + B) C == AC + BC
        let ta = Tensor::from_vec(a, &[2, 2]);
        let tb = Tensor::from_vec(b, &[2, 2]);
        let tc = Tensor::from_vec(c, &[2, 2]);
        let lhs = ta.zip(&tb, |x, y| x + y).matmul(&tc);
        let rhs_a = ta.matmul(&tc);
        let rhs_b = tb.matmul(&tc);
        for ((l, x), y) in lhs.data().iter().zip(rhs_a.data()).zip(rhs_b.data()) {
            prop_assert!((l - (x + y)).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_nonnegative_and_grads_sum_to_zero(
        data in arb_vec(9),
        t0 in 0usize..3,
        t1 in 0usize..3,
        t2 in 0usize..3,
    ) {
        let mut params = Params::new();
        let x = params.insert("x", Tensor::from_vec(data, &[3, 3]), true);
        let g = Graph::new();
        let xv = g.param(&params, x);
        let loss = g.cross_entropy(xv, &[t0, t1, t2]);
        prop_assert!(g.value(loss).data()[0] >= 0.0);
        g.backward(loss, &mut params);
        // Per-row logit gradients sum to zero (softmax minus one-hot).
        for row in params.grad(x).data().chunks(3) {
            let sum: f32 = row.iter().sum();
            prop_assert!(sum.abs() < 1e-5, "row grad sum {sum}");
        }
    }

    #[test]
    fn layer_norm_output_is_standardized(data in arb_vec(16)) {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(data, &[2, 8]));
        let gain = g.constant(Tensor::ones(&[8]));
        let bias = g.constant(Tensor::zeros(&[8]));
        let y = g.value(g.layer_norm(x, gain, bias, 1e-5));
        for row in y.data().chunks(8) {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
        }
    }

    #[test]
    fn row_normalize_gives_unit_rows(data in arb_vec(8)) {
        // Skip rows that are identically ~zero (normalization is clamped).
        prop_assume!(data.iter().any(|x| x.abs() > 0.1));
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(data.clone(), &[1, 8]));
        let y = g.value(g.row_l2_normalize(x));
        let norm: f32 = y.data().iter().map(|v| v * v).sum::<f32>().sqrt();
        prop_assert!((norm - 1.0).abs() < 1e-3, "norm {norm}");
    }

    #[test]
    fn concat_then_slice_recovers_input(a in arb_vec(6), b in arb_vec(9)) {
        let g = Graph::new();
        let ta = Tensor::from_vec(a, &[3, 2]);
        let tb = Tensor::from_vec(b, &[3, 3]);
        let va = g.constant(ta.clone());
        let vb = g.constant(tb.clone());
        let c = g.concat(&[va, vb], 1);
        let back_a = g.value(g.slice(c, 1, 0, 2));
        let back_b = g.value(g.slice(c, 1, 2, 3));
        prop_assert_eq!(back_a, ta);
        prop_assert_eq!(back_b, tb);
    }
}

// Kernel-layer equivalence: the tiled GEMM variants and the im2col conv
// lowering must be *bit-exact* against the naive reference loops, at every
// shape — including k=1, n=1, and sizes that are not tile multiples. The
// ranges below straddle the 4-row tiles (every 1–3-row remainder height)
// and the 16-column strips (full and masked-edge), so every tile shape of
// the driver is exercised.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiled_gemm_bit_exact_vs_reference(
        m in 1usize..=13,
        k in 1usize..=11,
        n in 1usize..=19,
        seed in 0u64..u64::MAX,
    ) {
        let a = seeded(seed, m * k);
        let b = seeded(seed ^ 1, k * n);
        // Seed the output with random values: the kernels accumulate on top
        // of existing contents, so that path must be exact too.
        let init = seeded(seed ^ 2, m * n);
        let mut got = init.clone();
        let mut want = init;
        gemm(&a, &b, &mut got, m, k, n);
        gemm_ref(&a, &b, &mut want, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn gemm_nt_bit_exact_vs_materialized_transpose(
        m in 1usize..=13,
        k in 1usize..=11,
        n in 1usize..=19,
        seed in 0u64..u64::MAX,
    ) {
        let a = seeded(seed, m * k);
        let bt = seeded(seed ^ 1, n * k); // [n, k], read as Bᵀ
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let init = seeded(seed ^ 2, m * n);
        let mut got = init.clone();
        let mut want = init;
        gemm_nt(&a, &bt, &mut got, m, k, n);
        gemm_ref(&a, &b, &mut want, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn gemm_tn_bit_exact_vs_materialized_transpose(
        m in 1usize..=13,
        k in 1usize..=11,
        n in 1usize..=19,
        seed in 0u64..u64::MAX,
    ) {
        let at = seeded(seed, k * m); // [k, m], read as Aᵀ
        let b = seeded(seed ^ 1, k * n);
        let mut a = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                a[i * k + p] = at[p * m + i];
            }
        }
        let init = seeded(seed ^ 2, m * n);
        let mut got = init.clone();
        let mut want = init;
        gemm_tn(&at, &b, &mut got, m, k, n);
        gemm_ref(&a, &b, &mut want, m, k, n);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn im2col_conv1d_bit_exact_vs_naive_loop(
        b in 1usize..=3,
        c_in in 1usize..=3,
        c_out in 1usize..=3,
        l in 1usize..=8,
        k in 1usize..=4,
        pad in 0usize..=2,
        seed in 0u64..u64::MAX,
    ) {
        prop_assume!(l + 2 * pad >= k);
        let x = seeded(seed, b * c_in * l);
        let w = seeded(seed ^ 1, c_out * c_in * k);
        let bias = seeded(seed ^ 2, c_out);
        let g = Graph::new();
        let xv = g.constant(Tensor::from_vec(x.clone(), &[b, c_in, l]));
        let wv = g.constant(Tensor::from_vec(w.clone(), &[c_out, c_in, k]));
        let bv = g.constant(Tensor::from_vec(bias.clone(), &[c_out]));
        let y = g.value(g.conv1d(xv, wv, bv, pad));
        let want = naive_conv1d(&x, &w, &bias, b, c_in, l, c_out, k, pad);
        prop_assert_eq!(bits(y.data()), bits(&want));
    }

    #[test]
    fn conv1d_backward_matches_naive_loops(
        b in 1usize..=2,
        c_in in 1usize..=3,
        c_out in 1usize..=3,
        l in 2usize..=6,
        k in 1usize..=3,
        pad in 0usize..=1,
        seed in 0u64..u64::MAX,
    ) {
        prop_assume!(l + 2 * pad >= k);
        let l_out = l + 2 * pad - k + 1;
        let x = seeded(seed, b * c_in * l);
        let w = seeded(seed ^ 1, c_out * c_in * k);
        let bias = seeded(seed ^ 2, c_out);
        // Arbitrary upstream gradient, injected by weighting the conv output
        // with a constant mask before summing.
        let mask = seeded(seed ^ 3, b * c_out * l_out);

        let mut params = Params::new();
        let xid = params.insert("x", Tensor::from_vec(x.clone(), &[b, c_in, l]), true);
        let wid = params.insert("w", Tensor::from_vec(w.clone(), &[c_out, c_in, k]), true);
        let bid = params.insert("b", Tensor::from_vec(bias, &[c_out]), true);
        let g = Graph::new();
        let xv = g.param(&params, xid);
        let wv = g.param(&params, wid);
        let bv = g.param(&params, bid);
        let y = g.conv1d(xv, wv, bv, pad);
        let mv = g.constant(Tensor::from_vec(mask.clone(), &[b, c_out, l_out]));
        let s = g.sum_all(g.mul(y, mv));
        g.backward(s, &mut params);

        let (dx, dw, db) = naive_conv1d_backward(&mask, &x, &w, b, c_in, l, c_out, k, pad);
        // dw and db keep the naive loop's exact accumulation order.
        prop_assert_eq!(bits(params.grad(wid).data()), bits(&dw));
        prop_assert_eq!(bits(params.grad(bid).data()), bits(&db));
        // dx is regrouped by the col2im scatter (sum order differs), so it is
        // compared within floating-point tolerance.
        for (got, want) in params.grad(xid).data().iter().zip(&dx) {
            prop_assert!((got - want).abs() <= 1e-4 * (1.0 + want.abs()), "{got} vs {want}");
        }
    }
}
