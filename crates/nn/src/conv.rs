//! 1-D convolution and pooling ops.
//!
//! The paper's backbone is a CNN feature extractor; this reproduction's
//! inputs are 1-D feature vectors, so the faithful CNN analogue is a 1-D
//! convolutional stack (see [`crate::layers::ConvExtractor`]). Ops live here
//! as [`Graph`] extensions with hand-derived backward passes, verified
//! against finite differences in the tests.
//!
//! Both the forward and backward passes lower to im2col + GEMM: the input
//! `[b, c_in, l]` is unrolled into a column matrix `[b, c_in·k, l_out]` so
//! convolution becomes a per-batch `w [c_out, c_in·k] × cols` product on the
//! tiled kernels in [`crate::gemm`]. The column buffer is recycled through a
//! thread-local pool keyed by `(b, c_in, l, k, pad)` so steady-state training
//! steps do not allocate it again. The im2col unroll index `p = ci·k + kk`
//! walks `(ci, kk)` in exactly the order the old nested loop did, so the
//! forward accumulation per output element is the same floating-point chain.

use crate::gemm::{gemm, gemm_nt, gemm_tn};
use crate::graph::{Graph, Var};
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::collections::HashMap;

/// Shape key for the im2col buffer pool: `(b, c_in, l, k, pad)`.
type ColsKey = (usize, usize, usize, usize, usize);

thread_local! {
    /// Per-thread pool of im2col column buffers, keyed by conv shape. A
    /// training step takes a buffer, fills it, and returns it before the op
    /// completes, so the pool holds at most a couple of buffers per shape.
    static COLS_POOL: RefCell<HashMap<ColsKey, Vec<Vec<f32>>>> = RefCell::new(HashMap::new());
}

fn take_cols(key: ColsKey, len: usize) -> Vec<f32> {
    let pooled = COLS_POOL.with(|p| p.borrow_mut().entry(key).or_default().pop());
    match pooled {
        Some(mut v) => {
            debug_assert_eq!(v.len(), len);
            v.resize(len, 0.0);
            v
        }
        None => vec![0.0f32; len],
    }
}

fn recycle_cols(key: ColsKey, v: Vec<f32>) {
    COLS_POOL.with(|p| p.borrow_mut().entry(key).or_default().push(v));
}

/// Unrolls `x [b, c_in, l]` into `cols [b, c_in·k, l_out]` with zero padding;
/// every cell is written, so a recycled buffer needs no prior clearing.
#[allow(clippy::too_many_arguments)]
fn im2col(xv: &[f32], cols: &mut [f32], b: usize, c_in: usize, l: usize, k: usize, pad: usize) {
    let l_out = l + 2 * pad - k + 1;
    for bi in 0..b {
        for ci in 0..c_in {
            let xrow = &xv[(bi * c_in + ci) * l..(bi * c_in + ci + 1) * l];
            for kk in 0..k {
                let row = &mut cols[((bi * c_in + ci) * k + kk) * l_out..][..l_out];
                for (lo, cell) in row.iter_mut().enumerate() {
                    let xi = lo + kk;
                    *cell = if xi < pad || xi - pad >= l {
                        0.0
                    } else {
                        xrow[xi - pad]
                    };
                }
            }
        }
    }
}

/// Scatter-adds `dcols [b, c_in·k, l_out]` back onto `dx [b, c_in, l]`
/// (the adjoint of [`im2col`]); padded positions are dropped.
#[allow(clippy::too_many_arguments)]
fn col2im_add(
    dcols: &[f32],
    dx: &mut [f32],
    b: usize,
    c_in: usize,
    l: usize,
    k: usize,
    pad: usize,
) {
    let l_out = l + 2 * pad - k + 1;
    for bi in 0..b {
        for ci in 0..c_in {
            let dxrow = &mut dx[(bi * c_in + ci) * l..(bi * c_in + ci + 1) * l];
            for kk in 0..k {
                let row = &dcols[((bi * c_in + ci) * k + kk) * l_out..][..l_out];
                for (lo, &cell) in row.iter().enumerate() {
                    let xi = lo + kk;
                    if xi >= pad && xi - pad < l {
                        dxrow[xi - pad] += cell;
                    }
                }
            }
        }
    }
}

impl Graph {
    /// 1-D convolution: `x [b, c_in, l] * w [c_out, c_in, k] + bias [c_out]`
    /// with stride 1 and symmetric zero padding `pad`, giving
    /// `[b, c_out, l + 2*pad - k + 1]`.
    ///
    /// Lowered to im2col + per-batch GEMM; the output is seeded with the bias
    /// before the product so each element is the chain
    /// `bias + Σ_p x·w` in ascending `p = ci·k + kk` order.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches or if the output length would be zero.
    pub fn conv1d(&self, x: Var, w: Var, bias: Var, pad: usize) -> Var {
        let (xs, ws, bs) = (self.shape(x), self.shape(w), self.shape(bias));
        assert_eq!(xs.len(), 3, "conv1d input must be [b, c_in, l]");
        assert_eq!(ws.len(), 3, "conv1d weight must be [c_out, c_in, k]");
        let (b, c_in, l) = (xs[0], xs[1], xs[2]);
        let (c_out, c_in2, k) = (ws[0], ws[1], ws[2]);
        assert_eq!(c_in, c_in2, "channel mismatch");
        assert_eq!(bs, vec![c_out], "bias must be [c_out]");
        assert!(l + 2 * pad >= k, "kernel larger than padded input");
        let l_out = l + 2 * pad - k + 1;

        let value = self.with_value(x, |xv| {
            self.with_value(w, |wv| {
                self.with_value(bias, |bv| {
                    let key = (b, c_in, l, k, pad);
                    let ckl = c_in * k * l_out;
                    let mut cols = take_cols(key, b * ckl);
                    im2col(xv.data(), &mut cols, b, c_in, l, k, pad);
                    let mut out = self.out_zeroed(b * c_out * l_out);
                    for bi in 0..b {
                        let out_bi = &mut out[bi * c_out * l_out..(bi + 1) * c_out * l_out];
                        for co in 0..c_out {
                            out_bi[co * l_out..(co + 1) * l_out].fill(bv.data()[co]);
                        }
                        gemm(
                            wv.data(),
                            &cols[bi * ckl..(bi + 1) * ckl],
                            out_bi,
                            c_out,
                            c_in * k,
                            l_out,
                        );
                    }
                    recycle_cols(key, cols);
                    Tensor::from_vec(out, &[b, c_out, l_out])
                })
            })
        });

        self.push_conv_node(value, x, w, bias, pad, (b, c_in, l, c_out, k, l_out))
    }

    #[allow(clippy::too_many_arguments)]
    fn push_conv_node(
        &self,
        value: Tensor,
        x: Var,
        w: Var,
        bias: Var,
        pad: usize,
        dims: (usize, usize, usize, usize, usize, usize),
    ) -> Var {
        let (b, c_in, l, c_out, k, l_out) = dims;
        self.push_node(
            value,
            vec![x, w, bias],
            self.bw(|| {
                Box::new(move |g, p, _, scr| {
                    let (xv, wv) = (p[0], p[1]);
                    let key = (b, c_in, l, k, pad);
                    let ckl = c_in * k * l_out;
                    // Rebuild the column matrix from the parent value instead of
                    // capturing the forward buffer, so the pool stays small.
                    let mut cols = take_cols(key, b * ckl);
                    im2col(xv.data(), &mut cols, b, c_in, l, k, pad);
                    let mut dcols = take_cols(key, b * ckl);
                    let mut dw = scr.take_zeroed(c_out * c_in * k);
                    let mut db = scr.take_zeroed(c_out);
                    for bi in 0..b {
                        for (co, db_co) in db.iter_mut().enumerate() {
                            for lo in 0..l_out {
                                *db_co += g.data()[(bi * c_out + co) * l_out + lo];
                            }
                        }
                    }
                    for bi in 0..b {
                        let gs = &g.data()[bi * c_out * l_out..(bi + 1) * c_out * l_out];
                        // dw += g_bi · cols_biᵀ: per weight the terms arrive in the
                        // same (bi, lo) order as the old nested loop.
                        gemm_nt(
                            gs,
                            &cols[bi * ckl..(bi + 1) * ckl],
                            &mut dw,
                            c_out,
                            l_out,
                            c_in * k,
                        );
                        // dcols_bi = wᵀ · g_bi, scattered back onto dx below.
                        let dcols_bi = &mut dcols[bi * ckl..(bi + 1) * ckl];
                        dcols_bi.fill(0.0);
                        gemm_tn(wv.data(), gs, dcols_bi, c_in * k, c_out, l_out);
                    }
                    let mut dx = scr.take_zeroed(b * c_in * l);
                    col2im_add(&dcols, &mut dx, b, c_in, l, k, pad);
                    recycle_cols(key, cols);
                    recycle_cols(key, dcols);
                    vec![
                        Tensor::from_vec(dx, &[b, c_in, l]),
                        Tensor::from_vec(dw, &[c_out, c_in, k]),
                        Tensor::from_vec(db, &[c_out]),
                    ]
                })
            }),
        )
    }

    /// Average pooling over the length axis: `x [b, c, l] -> [b, c, l/window]`
    /// (trailing remainder dropped).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or larger than the input length.
    pub(crate) fn avg_pool1d(&self, x: Var, window: usize) -> Var {
        let xs = self.shape(x);
        assert_eq!(xs.len(), 3, "avg_pool1d input must be [b, c, l]");
        let (b, c, l) = (xs[0], xs[1], xs[2]);
        assert!(
            window > 0 && window <= l,
            "bad pooling window {window} for length {l}"
        );
        let l_out = l / window;
        let value = self.with_value(x, |xv| {
            let inv = 1.0 / window as f32;
            let mut out = self.out_zeroed(b * c * l_out);
            for bc in 0..b * c {
                for j in 0..l_out {
                    let mut acc = 0.0;
                    for t in 0..window {
                        acc += xv.data()[bc * l + j * window + t];
                    }
                    out[bc * l_out + j] = acc * inv;
                }
            }
            Tensor::from_vec(out, &[b, c, l_out])
        });
        self.push_node(
            value,
            vec![x],
            self.bw(|| {
                Box::new(move |g, _, _, scr| {
                    let inv = 1.0 / window as f32;
                    let mut dx = scr.take_zeroed(b * c * l);
                    for bc in 0..b * c {
                        for j in 0..l_out {
                            let gi = g.data()[bc * l_out + j] * inv;
                            for t in 0..window {
                                dx[bc * l + j * window + t] = gi;
                            }
                        }
                    }
                    vec![Tensor::from_vec(dx, &[b, c, l])]
                })
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grad_check(
        params: &mut Params,
        ids: &[crate::params::ParamId],
        f: &dyn Fn(&Graph, &Params) -> Var,
        tol: f32,
    ) {
        params.zero_grad();
        let g = Graph::new();
        let loss = f(&g, params);
        g.backward(loss, params);
        let analytic: Vec<Tensor> = ids.iter().map(|&id| params.grad(id).clone()).collect();
        let eps = 1e-2f32;
        for (pi, &id) in ids.iter().enumerate() {
            for j in 0..params.value(id).numel() {
                let orig = params.value(id).data()[j];
                params.value_mut(id).data_mut()[j] = orig + eps;
                let lp = {
                    let gp = Graph::new();
                    gp.value(f(&gp, params)).data()[0]
                };
                params.value_mut(id).data_mut()[j] = orig - eps;
                let lm = {
                    let gm = Graph::new();
                    gm.value(f(&gm, params)).data()[0]
                };
                params.value_mut(id).data_mut()[j] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let got = analytic[pi].data()[j];
                assert!(
                    (numeric - got).abs() < tol * (1.0 + numeric.abs()),
                    "param {pi} elem {j}: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn conv1d_matches_hand_computation() {
        let g = Graph::new();
        // x: one batch, one channel, [1, 2, 3]; w: identity-ish kernel [1].
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 1, 3]));
        let w = g.constant(Tensor::from_vec(vec![1.0, 0.0], &[1, 1, 2]));
        let b = g.constant(Tensor::zeros(&[1]));
        let y = g.value(g.conv1d(x, w, b, 0));
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.data(), &[1.0, 2.0]);
    }

    #[test]
    fn conv1d_same_padding_preserves_length() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 3, 8], 1.0, &mut rng));
        let w = g.constant(Tensor::randn(&[4, 3, 3], 0.5, &mut rng));
        let b = g.constant(Tensor::zeros(&[4]));
        let y = g.conv1d(x, w, b, 1);
        assert_eq!(g.shape(y), vec![2, 4, 8]);
    }

    #[test]
    fn conv1d_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 2, 5], 0.5, &mut rng), true);
        let w = params.insert("w", Tensor::randn(&[3, 2, 3], 0.5, &mut rng), true);
        let b = params.insert("b", Tensor::randn(&[3], 0.5, &mut rng), true);
        grad_check(
            &mut params,
            &[x, w, b],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let wv = g.param(p, p.id("w").unwrap());
                let bv = g.param(p, p.id("b").unwrap());
                let y = g.conv1d(xv, wv, bv, 1);
                let t = g.tanh(y);
                g.sum_all(t)
            },
            3e-2,
        );
    }

    #[test]
    fn conv1d_gradcheck_even_kernel_wide_pad() {
        // Exercises the im2col backward on an even kernel with pad > 1, where
        // more column entries land in the zero-padding region.
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 3, 6], 0.5, &mut rng), true);
        let w = params.insert("w", Tensor::randn(&[2, 3, 4], 0.5, &mut rng), true);
        let b = params.insert("b", Tensor::randn(&[2], 0.5, &mut rng), true);
        grad_check(
            &mut params,
            &[x, w, b],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let wv = g.param(p, p.id("w").unwrap());
                let bv = g.param(p, p.id("b").unwrap());
                let y = g.conv1d(xv, wv, bv, 2);
                let t = g.tanh(y);
                g.sum_all(t)
            },
            3e-2,
        );
    }

    #[test]
    fn avg_pool_reduces_and_averages() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 4]));
        let y = g.value(g.avg_pool1d(x, 2));
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.data(), &[2.0, 6.0]);
    }

    #[test]
    fn avg_pool_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 2, 6], 0.5, &mut rng), true);
        grad_check(
            &mut params,
            &[x],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let y = g.avg_pool1d(xv, 2);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn pool_drops_remainder() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[1, 1, 5]));
        let y = g.avg_pool1d(x, 2);
        assert_eq!(g.shape(y), vec![1, 1, 2]);
    }
}
