//! Reverse-mode automatic differentiation on a per-forward-pass tape.
//!
//! A [`Graph`] is a tape of [`Node`]s created by operator methods. Calling
//! [`Graph::backward`] walks the tape in reverse, accumulating gradients into
//! the [`Params`] store for every leaf created with [`Graph::param`].
//!
//! The op set is exactly what the RefFiL models need: dense linear algebra,
//! token-sequence reshaping, layer norm, softmax/cross-entropy and the
//! multi-positive InfoNCE used by the DPCL loss.
//!
//! # Examples
//!
//! ```
//! use refil_nn::{Graph, Params, Tensor};
//!
//! let mut params = Params::new();
//! let w = params.insert("w", Tensor::from_vec(vec![2.0], &[1]), true);
//! let g = Graph::new();
//! let wv = g.param(&params, w);
//! let y = g.mul(wv, wv); // y = w^2, dy/dw = 2w = 4
//! g.backward(y, &mut params);
//! assert_eq!(params.grad(w).data(), &[4.0]);
//! ```

use std::cell::{Cell, RefCell};
use std::ops::Range;

use crate::exp::exp_in_place;
use crate::gemm::{gemm, gemm_nt, gemm_tn};
use crate::params::{ParamId, Params};
use crate::tanh::tanh_in_place;
use crate::tensor::{Tensor, MAX_NDIM};

/// Per-thread scratch-arena accounting: how many buffer-request bytes were
/// served fresh from the allocator vs recycled from a pool, and the
/// high-water mark of bytes parked across all pools on this thread.
///
/// Counters are cumulative per window: harvest-and-reset with
/// [`take_scratch_stats`]. All byte figures count `f32` payload bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Bytes newly allocated because no pooled buffer was available.
    pub reserved_bytes: u64,
    /// Number of fresh allocations behind `reserved_bytes`.
    pub reserved_count: u64,
    /// Bytes served by recycling a pooled buffer.
    pub reused_bytes: u64,
    /// Number of pool hits behind `reused_bytes`.
    pub reused_count: u64,
    /// High-water mark of bytes parked in pools during the window.
    pub peak_pool_bytes: u64,
}

#[derive(Clone, Copy, Default)]
struct StatCell {
    stats: ScratchStats,
    /// Bytes currently parked across all live pools on this thread;
    /// survives [`take_scratch_stats`] so the next window's peak starts
    /// from reality, not zero.
    cur_pool_bytes: u64,
}

thread_local! {
    static SCRATCH_STATS: Cell<StatCell> = const { Cell::new(StatCell {
        stats: ScratchStats {
            reserved_bytes: 0,
            reserved_count: 0,
            reused_bytes: 0,
            reused_count: 0,
            peak_pool_bytes: 0,
        },
        cur_pool_bytes: 0,
    }) };
}

/// Snapshots and resets this thread's [`ScratchStats`] window. The returned
/// peak is at least the bytes still parked in live pools, and the new
/// window's peak starts from that figure.
pub fn take_scratch_stats() -> ScratchStats {
    SCRATCH_STATS.with(|cell| {
        let mut c = cell.get();
        c.stats.peak_pool_bytes = c.stats.peak_pool_bytes.max(c.cur_pool_bytes);
        let snapshot = c.stats;
        c.stats = ScratchStats {
            peak_pool_bytes: c.cur_pool_bytes,
            ..ScratchStats::default()
        };
        cell.set(c);
        snapshot
    })
}

fn note_take(reused: bool, len: usize) {
    SCRATCH_STATS.with(|cell| {
        let mut c = cell.get();
        let bytes = (len * std::mem::size_of::<f32>()) as u64;
        if reused {
            c.stats.reused_bytes += bytes;
            c.stats.reused_count += 1;
        } else {
            c.stats.reserved_bytes += bytes;
            c.stats.reserved_count += 1;
        }
        cell.set(c);
    });
}

fn note_pool_delta(parked_more: bool, cap: usize) {
    SCRATCH_STATS.with(|cell| {
        let mut c = cell.get();
        let bytes = (cap * std::mem::size_of::<f32>()) as u64;
        if parked_more {
            c.cur_pool_bytes += bytes;
            c.stats.peak_pool_bytes = c.stats.peak_pool_bytes.max(c.cur_pool_bytes);
        } else {
            c.cur_pool_bytes = c.cur_pool_bytes.saturating_sub(bytes);
        }
        cell.set(c);
    });
}

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var {
    id: usize,
}

/// Per-graph scratch arena for backward-pass buffers.
///
/// Gradient tensors are consumed as the tape is walked in reverse, so their
/// backing `Vec<f32>`s can be recycled for the gradients of earlier nodes
/// instead of hitting the allocator once per node. Buffers cycle
/// `take_* -> grad tensor -> consumed by the walk -> recycle`, so a steady
/// state backward pass allocates only when a node needs a larger buffer
/// than any freed so far.
#[derive(Default)]
pub(crate) struct Scratch {
    pool: Vec<Vec<f32>>,
}

impl Scratch {
    /// A zero-filled buffer of `len` elements, recycled when possible.
    pub(crate) fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        match self.pool.pop() {
            Some(mut v) => {
                note_pool_delta(false, v.capacity());
                note_take(true, len);
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => {
                note_take(false, len);
                vec![0.0; len]
            }
        }
    }

    /// A buffer holding a copy of `src`, recycled when possible.
    pub(crate) fn take_copied(&mut self, src: &[f32]) -> Vec<f32> {
        match self.pool.pop() {
            Some(mut v) => {
                note_pool_delta(false, v.capacity());
                note_take(true, src.len());
                v.clear();
                v.extend_from_slice(src);
                v
            }
            None => {
                note_take(false, src.len());
                src.to_vec()
            }
        }
    }

    /// An empty buffer with room for `cap` elements (for extend-style
    /// fills), recycled when possible.
    pub(crate) fn take_cleared(&mut self, cap: usize) -> Vec<f32> {
        match self.pool.pop() {
            Some(mut v) => {
                note_pool_delta(false, v.capacity());
                note_take(true, cap);
                v.clear();
                v.reserve(cap);
                v
            }
            None => {
                note_take(false, cap);
                Vec::with_capacity(cap)
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub(crate) fn recycle(&mut self, v: Vec<f32>) {
        if v.capacity() > 0 {
            note_pool_delta(true, v.capacity());
            self.pool.push(v);
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Keep the thread's parked-bytes figure exact when a graph (and its
        // pools) goes away.
        for v in &self.pool {
            note_pool_delta(false, v.capacity());
        }
    }
}

pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &[&Tensor], &Tensor, &mut Scratch) -> Vec<Tensor>>;

struct Node {
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    param: Option<ParamId>,
}

/// A reverse-mode autodiff tape.
///
/// Build one per forward pass; ops append nodes and [`Graph::backward`]
/// replays them in reverse.
///
/// A graph created with [`Graph::inference`] is a *forward-only plan*: ops
/// compute identical values but record no parent edges and never construct
/// backward closures, and every node's value buffer comes out of a pool
/// that the reset between replays refills — so replaying same-shaped
/// batches through one inference graph allocates nothing in steady state.
#[derive(Default)]
pub struct Graph {
    nodes: RefCell<Vec<Node>>,
    scratch: RefCell<Scratch>,
    /// Forward-only mode: no backward closures, pooled value buffers.
    inference: bool,
    /// Pool backing node *values* on inference graphs (distinct from
    /// `scratch`, which backs backward-pass gradient buffers).
    fwd: RefCell<Scratch>,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Graph({} nodes)", self.nodes.borrow().len())
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a forward-only graph: ops record values but no parent edges
    /// or backward closures, [`Graph::backward`] panics, and a reset
    /// recycles every node's buffer into a pool reused by the next forward
    /// pass. This is the core of the tape-free inference engine (see
    /// [`crate::InferenceSession`]).
    pub fn inference() -> Self {
        Self {
            inference: true,
            ..Self::default()
        }
    }

    /// Clears the tape so the graph can replay another forward pass. On an
    /// inference graph every node's value buffer is recycled into the
    /// forward pool first, so a replay of the same batch shape allocates
    /// nothing; on a training graph the nodes are simply dropped.
    pub(crate) fn reset(&self) {
        let mut nodes = self.nodes.borrow_mut();
        if self.inference {
            let mut fwd = self.fwd.borrow_mut();
            for node in nodes.drain(..) {
                fwd.recycle(node.value.into_vec());
            }
        } else {
            nodes.clear();
        }
    }

    /// Wraps a backward-closure constructor, skipping it entirely (no box,
    /// no capture) on inference graphs.
    pub(crate) fn bw(&self, f: impl FnOnce() -> BackwardFn) -> Option<BackwardFn> {
        if self.inference {
            None
        } else {
            Some(f())
        }
    }

    /// Parent edges for a new node; empty (non-allocating) on inference
    /// graphs, where no backward walk will ever read them.
    fn deps(&self, ids: &[usize]) -> Vec<usize> {
        if self.inference {
            Vec::new()
        } else {
            ids.to_vec()
        }
    }

    /// A zero-filled forward buffer of `len` elements: pooled on inference
    /// graphs, freshly allocated otherwise.
    pub(crate) fn out_zeroed(&self, len: usize) -> Vec<f32> {
        if self.inference {
            self.fwd.borrow_mut().take_zeroed(len)
        } else {
            vec![0.0; len]
        }
    }

    /// A forward buffer pre-filled with a copy of `src`.
    pub(crate) fn out_copied(&self, src: &[f32]) -> Vec<f32> {
        if self.inference {
            self.fwd.borrow_mut().take_copied(src)
        } else {
            src.to_vec()
        }
    }

    /// Hands a forward temporary from [`Graph::out_zeroed`] back to the
    /// pool on inference graphs (it is simply dropped otherwise), so a
    /// replay allocates nothing for it either.
    fn out_recycle(&self, v: Vec<f32>) {
        if self.inference {
            self.fwd.borrow_mut().recycle(v);
        }
    }

    /// An empty forward buffer with room for `cap` elements (for
    /// extend-style fills).
    fn out_cleared(&self, cap: usize) -> Vec<f32> {
        if self.inference {
            self.fwd.borrow_mut().take_cleared(cap)
        } else {
            Vec::with_capacity(cap)
        }
    }

    /// Pooled elementwise map of `a`'s value (same arithmetic and traversal
    /// order as [`Tensor::map`], so results are bit-identical).
    fn unary_value(&self, a: Var, f: impl Fn(f32) -> f32) -> Tensor {
        let nodes = self.nodes.borrow();
        let av = &nodes[a.id].value;
        let mut out = self.out_cleared(av.numel());
        out.extend(av.data().iter().map(|&x| f(x)));
        Tensor::from_vec(out, av.shape())
    }

    /// Pooled elementwise combination of two same-shape values (bit-identical
    /// to [`Tensor::zip`]).
    fn zip_value(&self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let nodes = self.nodes.borrow();
        let (av, bv) = (&nodes[a.id].value, &nodes[b.id].value);
        assert_eq!(av.shape(), bv.shape(), "zip shape mismatch");
        let mut out = self.out_cleared(av.numel());
        out.extend(av.data().iter().zip(bv.data()).map(|(&x, &y)| f(x, y)));
        Tensor::from_vec(out, av.shape())
    }

    /// Pooled row-broadcast combination (bit-identical to the free
    /// `rows_broadcast` helper used by the backward closures).
    fn rows_broadcast_value(&self, x: Var, a: Var, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let nodes = self.nodes.borrow();
        let (xv, av) = (&nodes[x.id].value, &nodes[a.id].value);
        assert_eq!(xv.ndim(), 3, "rows_broadcast expects 3-D x");
        assert_eq!(av.ndim(), 2, "rows_broadcast expects 2-D a");
        let (b, r, c) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
        assert_eq!(av.shape(), [b, c], "rows_broadcast shape mismatch");
        let mut out = self.out_zeroed(xv.numel());
        for bi in 0..b {
            let arow = &av.data()[bi * c..(bi + 1) * c];
            for ri in 0..r {
                let base = (bi * r + ri) * c;
                for ci in 0..c {
                    out[base + ci] = f(xv.data()[base + ci], arow[ci]);
                }
            }
        }
        Tensor::from_vec(out, xv.shape())
    }

    fn push(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
        param: Option<ParamId>,
    ) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node {
            value,
            parents,
            backward,
            param,
        });
        Var { id }
    }

    /// Crate-internal: appends a node whose backward closure (if any) the
    /// caller has already gated through [`Graph::bw`] (used by op extension
    /// modules such as `conv`).
    pub(crate) fn push_node(
        &self,
        value: Tensor,
        parents: Vec<Var>,
        backward: Option<BackwardFn>,
    ) -> Var {
        let parents = if self.inference {
            Vec::new()
        } else {
            parents.into_iter().map(|v| v.id).collect()
        };
        self.push(value, parents, backward, None)
    }

    /// Creates a leaf tied to a parameter; gradients flow into `params` on
    /// [`Graph::backward`].
    pub fn param(&self, params: &Params, id: ParamId) -> Var {
        let t = params.value(id);
        let v = if self.inference {
            Tensor::from_vec(self.out_copied(t.data()), t.shape())
        } else {
            t.clone()
        };
        self.push(v, vec![], None, Some(id))
    }

    /// Creates a constant leaf (no gradient).
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, vec![], None, None)
    }

    /// Creates a constant leaf holding a copy of `value`. Equivalent to
    /// `constant(value.clone())` but the copy comes out of the forward pool
    /// on inference graphs — use this for per-batch inputs on hot paths.
    pub fn input(&self, value: &Tensor) -> Var {
        let v = Tensor::from_vec(self.out_copied(value.data()), value.shape());
        self.push(v, vec![], None, None)
    }

    /// A copy of the value held by `v`.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Runs `f` against the value of `v` without cloning it.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[v.id].value)
    }

    /// Argmax over the last axis of `v`'s value (no clone of the value).
    pub fn argmax_last(&self, v: Var) -> Vec<usize> {
        self.nodes.borrow()[v.id].value.argmax_last()
    }

    /// The shape of `v`.
    pub fn shape(&self, v: Var) -> Vec<usize> {
        self.nodes.borrow()[v.id].value.shape().to_vec()
    }

    /// Runs reverse-mode autodiff from the scalar `root`, accumulating
    /// parameter gradients into `params`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a single-element tensor.
    pub fn backward(&self, root: Var, params: &mut Params) {
        assert!(
            !self.inference,
            "backward called on a forward-only inference graph"
        );
        let nodes = self.nodes.borrow();
        let mut scratch = self.scratch.borrow_mut();
        assert_eq!(
            nodes[root.id].value.numel(),
            1,
            "backward root must be scalar, got shape {:?}",
            nodes[root.id].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = Vec::with_capacity(root.id + 1);
        grads.resize_with(root.id + 1, || None);
        grads[root.id] = Some(Tensor::ones(nodes[root.id].value.shape()));
        for i in (0..=root.id).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &nodes[i];
            if let Some(pid) = node.param {
                params.grad_mut(pid).axpy(1.0, &g);
            }
            if let Some(bw) = &node.backward {
                let pvals: Vec<&Tensor> = node.parents.iter().map(|&p| &nodes[p].value).collect();
                let pgrads = bw(&g, &pvals, &node.value, &mut scratch);
                debug_assert_eq!(pgrads.len(), node.parents.len());
                for (&p, pg) in node.parents.iter().zip(pgrads) {
                    match &mut grads[p] {
                        Some(acc) => {
                            acc.axpy(1.0, &pg);
                            scratch.recycle(pg.into_vec());
                        }
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            // The node's own upstream gradient is fully consumed; recycle
            // its buffer for earlier nodes on the tape.
            scratch.recycle(g.into_vec());
        }
    }

    // ---------------------------------------------------------------------
    // Elementwise arithmetic
    // ---------------------------------------------------------------------

    /// Elementwise `a + b` (same shapes).
    pub fn add(&self, a: Var, b: Var) -> Var {
        let v = self.zip_value(a, b, |x, y| x + y);
        self.push(
            v,
            self.deps(&[a.id, b.id]),
            self.bw(|| {
                Box::new(|g, _, _, scr| {
                    vec![
                        Tensor::from_vec(scr.take_copied(g.data()), g.shape()),
                        Tensor::from_vec(scr.take_copied(g.data()), g.shape()),
                    ]
                })
            }),
            None,
        )
    }

    /// Elementwise `a * b` (same shapes).
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let v = self.zip_value(a, b, |x, y| x * y);
        self.push(
            v,
            self.deps(&[a.id, b.id]),
            self.bw(|| {
                Box::new(|g, p, _, _scr| {
                    vec![g.zip(p[1], |gi, bi| gi * bi), g.zip(p[0], |gi, ai| gi * ai)]
                })
            }),
            None,
        )
    }

    /// Multiplies by a compile-time constant.
    pub fn scale(&self, a: Var, c: f32) -> Var {
        let v = self.unary_value(a, |x| x * c);
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(move |g, _, _, _scr| vec![g.map(|x| x * c)])),
            None,
        )
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        let v = self.unary_value(a, |x| x + c);
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| {
                Box::new(|g, _, _, scr| {
                    vec![Tensor::from_vec(scr.take_copied(g.data()), g.shape())]
                })
            }),
            None,
        )
    }

    // ---------------------------------------------------------------------
    // Activations and pointwise nonlinearities
    // ---------------------------------------------------------------------

    /// Gaussian error linear unit (tanh approximation).
    ///
    /// On a training graph the forward computes each element's `tanh` once,
    /// with the in-tree kernel that reproduces fdlibm `tanhf` bit for
    /// bit, and derives both the value and the exact derivative from it;
    /// the backward closure owns the derivatives (one `f32` per element
    /// until the tape drops) and returns `g·d`. An inference graph computes
    /// the value only. The bits are those of the separate libm
    /// forward/backward formulas.
    pub fn gelu(&self, a: Var) -> Var {
        let (v, deriv) = {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            let x = av.data();
            let mut y = self.out_cleared(x.len());
            let mut deriv = (!self.inference).then(|| Vec::with_capacity(x.len()));
            // `y` holds the tanh argument, then `t`, then the value.
            y.extend(x.iter().map(|&xi| gelu_inner(xi)));
            tanh_in_place(&mut y);
            if let Some(d) = &mut deriv {
                d.extend(x.iter().zip(&y).map(|(&xi, &t)| gelu_deriv(xi, t)));
            }
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi = 0.5 * xi * (1.0 + *yi);
            }
            (Tensor::from_vec(y, av.shape()), deriv)
        };
        self.push(
            v,
            self.deps(&[a.id]),
            deriv.map(|d| -> BackwardFn {
                Box::new(move |g, _, _, scr| {
                    let mut out = scr.take_cleared(d.len());
                    out.extend(g.data().iter().zip(&d).map(|(&gi, &di)| gi * di));
                    vec![Tensor::from_vec(out, g.shape())]
                })
            }),
            None,
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            let mut out = self.out_copied(av.data());
            tanh_in_place(&mut out);
            Tensor::from_vec(out, av.shape())
        };
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(|g, _, y, _scr| vec![g.zip(y, |gi, yi| gi * (1.0 - yi * yi))])),
            None,
        )
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// The matrix product `op(a) · op(b)`; `t` names the operand, if any,
    /// that is stored transposed and read in place, so no transposed copy
    /// is ever built:
    ///
    /// | `t`    | `a`         | `b`                     | result      |
    /// |--------|-------------|-------------------------|-------------|
    /// | `None` | `[…, m, k]` | `[k, n]` or `[B, k, n]` | `[…, m, n]` |
    /// | `Lhs`  | `[…, k, m]` | `[k, n]` or `[B, k, n]` | `[…, m, n]` |
    /// | `Rhs`  | `[…, m, k]` | `[n, k]` or `[B, n, k]` | `[…, m, n]` |
    ///
    /// A 2-D `b` is shared by every row of `a`. Without `Lhs`, `a`'s leading
    /// dims flatten into the rows of one kernel call (a layer applied to
    /// every token); with `Lhs` each `[k, m]` matrix of `a` is its own call,
    /// and `b`'s gradient accumulates the calls in batch order. A 3-D `b`
    /// pairs matrix `i` of a 3-D `a [B, …]` with its own matrix `i`
    /// (attention heads).
    ///
    /// Every layout is byte-identical in both passes to the `None` product
    /// on the [`Graph::transpose_last`] of its transposed operand: each
    /// output and gradient element runs the same ascending-`k` chain. The
    /// kernels of each pass are in the table on [`Transpose`].
    ///
    /// # Panics
    ///
    /// Panics if `a` has fewer than two dims, `b` is not 2-D or 3-D, the
    /// inner dims differ, or a 3-D `b` meets an `a` that is not 3-D with the
    /// same batch.
    pub fn matmul(&self, a: Var, b: Var, t: Transpose) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[b.id].value);
            let p = Product::new(av.shape(), bv.shape(), t);
            let mut out = self.out_zeroed(p.batches * p.m * p.n);
            for i in 0..p.batches {
                let (ai, bi) = (&av.data()[p.a_at(i)], &bv.data()[p.b_at(i)]);
                t.forward(ai, bi, &mut out[p.out_at(i)], p.dims());
            }
            let nd = av.ndim();
            let mut shape = [0; MAX_NDIM];
            shape[..nd].copy_from_slice(av.shape());
            if t == Transpose::Lhs {
                shape[nd - 2] = p.m;
            }
            shape[nd - 1] = p.n;
            Tensor::from_vec(out, &shape[..nd])
        };
        // One capture-free closure per layout, so a tape node allocates no
        // closure state.
        let backward = || -> BackwardFn {
            match t {
                Transpose::None => Box::new(|g, x, _, s| product_grads(Transpose::None, g, x, s)),
                Transpose::Lhs => Box::new(|g, x, _, s| product_grads(Transpose::Lhs, g, x, s)),
                Transpose::Rhs => Box::new(|g, x, _, s| product_grads(Transpose::Rhs, g, x, s)),
            }
        };
        self.push(v, self.deps(&[a.id, b.id]), self.bw(backward), None)
    }

    /// Transposes the last two axes.
    pub fn transpose_last(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            assert!(av.ndim() >= 2, "transpose requires >= 2 dims");
            let nd = av.ndim();
            let (r, c) = (av.shape()[nd - 2], av.shape()[nd - 1]);
            let batch: usize = av.shape()[..nd - 2].iter().product();
            // Output-major fill: sequential writes (no zero-fill pass), the
            // strided accesses land on the read side where they are cheaper.
            let mut data = self.out_cleared(av.numel());
            for bi in 0..batch {
                let src = &av.data()[bi * r * c..(bi + 1) * r * c];
                for j in 0..c {
                    data.extend((0..r).map(|i| src[i * c + j]));
                }
            }
            let mut shape = av.shape().to_vec();
            shape.swap(nd - 2, nd - 1);
            Tensor::from_vec(data, &shape)
        };
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(|g, _, _, _scr| vec![g.transpose_last()])),
            None,
        )
    }

    /// Reshapes (element order unchanged).
    pub fn reshape(&self, a: Var, shape: &[usize]) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            let numel: usize = shape.iter().product();
            assert_eq!(
                numel,
                av.numel(),
                "reshape numel mismatch: {:?} -> {:?}",
                av.shape(),
                shape
            );
            Tensor::from_vec(self.out_copied(av.data()), shape)
        };
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    vec![Tensor::from_vec(scr.take_copied(g.data()), p[0].shape())]
                })
            }),
            None,
        )
    }

    /// Swaps axes 1 and 2 of `a` read through the 4-D `view`
    /// (`[a,b,c,d] -> [a,c,b,d]`) and labels the result `shape`; splits and
    /// merges attention heads in one node, with no reshape around it.
    /// `permute_0213(permute_0213(x, [a,b,c,d], s1), [a,c,b,d], s0)` is `x`.
    pub(crate) fn permute_0213(&self, a: Var, view: [usize; 4], shape: &[usize]) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            let numel: usize = view.iter().product();
            assert_eq!(
                numel,
                av.numel(),
                "permute_0213 view {view:?} does not cover {:?}",
                av.shape()
            );
            assert_eq!(
                shape.iter().product::<usize>(),
                numel,
                "permute_0213 shape mismatch: {view:?} -> {shape:?}"
            );
            let mut out = self.out_cleared(numel);
            permute_0213_extend(av.data(), view, &mut out);
            Tensor::from_vec(out, shape)
        };
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| {
                Box::new(move |g, p, _, scr| {
                    let [sa, sb, sc, sd] = view;
                    let mut dx = scr.take_cleared(g.numel());
                    permute_0213_extend(g.data(), [sa, sc, sb, sd], &mut dx);
                    vec![Tensor::from_vec(dx, p[0].shape())]
                })
            }),
            None,
        )
    }

    // ---------------------------------------------------------------------
    // Broadcasting helpers
    // ---------------------------------------------------------------------

    /// Adds a `[d]` bias to every trailing row of `x [..., d]`.
    pub(crate) fn add_bias(&self, x: Var, bias: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            let bv = &nodes[bias.id].value;
            let d = *xv.shape().last().expect("add_bias on 0-d tensor");
            assert_eq!(bv.shape(), [d], "bias shape mismatch");
            // Single-pass fill (same adds as copy-then-accumulate, so
            // bit-identical) instead of a full copy traversal followed by a
            // read-modify-write one.
            let mut out = self.out_cleared(xv.numel());
            for row in xv.data().chunks(d) {
                out.extend(row.iter().zip(bv.data()).map(|(&x, &b)| x + b));
            }
            Tensor::from_vec(out, xv.shape())
        };
        self.push(
            v,
            self.deps(&[x.id, bias.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    let d = *p[1].shape().last().expect("bias shape");
                    let mut db = scr.take_zeroed(d);
                    for row in g.data().chunks(d) {
                        for (acc, &gi) in db.iter_mut().zip(row) {
                            *acc += gi;
                        }
                    }
                    vec![
                        Tensor::from_vec(scr.take_copied(g.data()), g.shape()),
                        Tensor::from_vec(db, &[d]),
                    ]
                })
            }),
            None,
        )
    }

    /// FiLM-style scaling: `x [b,r,c] * a [b,c]`, broadcasting `a` over rows.
    pub(crate) fn mul_rows_broadcast(&self, x: Var, a: Var) -> Var {
        let v = self.rows_broadcast_value(x, a, |xi, ai| xi * ai);
        self.push(
            v,
            self.deps(&[x.id, a.id]),
            self.bw(|| {
                Box::new(|g, p, _, _scr| {
                    let dx = rows_broadcast(g, p[1], |gi, ai| gi * ai);
                    let da = rows_broadcast_reduce(g, p[0], |gi, xi| gi * xi);
                    vec![dx, da]
                })
            }),
            None,
        )
    }

    /// FiLM-style shifting: `x [b,r,c] + a [b,c]`, broadcasting `a` over rows.
    pub(crate) fn add_rows_broadcast(&self, x: Var, a: Var) -> Var {
        let v = self.rows_broadcast_value(x, a, |xi, ai| xi + ai);
        self.push(
            v,
            self.deps(&[x.id, a.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    let da = rows_broadcast_reduce(g, p[0], |gi, _| gi);
                    vec![Tensor::from_vec(scr.take_copied(g.data()), g.shape()), da]
                })
            }),
            None,
        )
    }

    // ---------------------------------------------------------------------
    // Shape surgery
    // ---------------------------------------------------------------------

    /// Concatenates same-rank tensors along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, ranks differ, or non-`axis` dims differ.
    pub fn concat(&self, items: &[Var], axis: usize) -> Var {
        assert!(!items.is_empty(), "concat of zero vars");
        let (value, sizes) = {
            let nodes = self.nodes.borrow();
            let first = nodes[items[0].id].value.shape().to_vec();
            let rank = first.len();
            assert!(
                axis < rank,
                "concat axis {axis} out of range for rank {rank}"
            );
            let mut axis_total = 0usize;
            let mut sizes = Vec::with_capacity(items.len());
            for &it in items {
                let s = nodes[it.id].value.shape();
                assert_eq!(s.len(), rank, "concat rank mismatch");
                for (d, (&a, &b)) in s.iter().zip(&first).enumerate() {
                    if d != axis {
                        assert_eq!(a, b, "concat non-axis dim mismatch at dim {d}");
                    }
                }
                sizes.push(s[axis]);
                axis_total += s[axis];
            }
            let outer: usize = first[..axis].iter().product();
            let inner: usize = first[axis + 1..].iter().product();
            let mut shape = first.clone();
            shape[axis] = axis_total;
            let mut data = self.out_zeroed(outer * axis_total * inner);
            let mut offset = 0usize;
            for (&it, &sz) in items.iter().zip(&sizes) {
                let src = nodes[it.id].value.data();
                for o in 0..outer {
                    let dst_start = (o * axis_total + offset) * inner;
                    let src_start = o * sz * inner;
                    data[dst_start..dst_start + sz * inner]
                        .copy_from_slice(&src[src_start..src_start + sz * inner]);
                }
                offset += sz;
            }
            (Tensor::from_vec(data, &shape), sizes)
        };
        let axis_c = axis;
        let parent_ids: Vec<usize> = items.iter().map(|v| v.id).collect();
        self.push(
            value,
            self.deps(&parent_ids),
            self.bw(move || {
                Box::new(move |g, p, _, scr| {
                    let gshape = g.shape();
                    let outer: usize = gshape[..axis_c].iter().product();
                    let inner: usize = gshape[axis_c + 1..].iter().product();
                    let axis_total = gshape[axis_c];
                    let mut grads = Vec::with_capacity(sizes.len());
                    let mut offset = 0usize;
                    for (i, &sz) in sizes.iter().enumerate() {
                        let mut data = scr.take_zeroed(outer * sz * inner);
                        for o in 0..outer {
                            let src_start = (o * axis_total + offset) * inner;
                            let dst_start = o * sz * inner;
                            data[dst_start..dst_start + sz * inner]
                                .copy_from_slice(&g.data()[src_start..src_start + sz * inner]);
                        }
                        grads.push(Tensor::from_vec(data, p[i].shape()));
                        offset += sz;
                    }
                    grads
                })
            }),
            None,
        )
    }

    /// Slices `len` elements starting at `start` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, x: Var, axis: usize, start: usize, len: usize) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            let shape = xv.shape();
            assert!(axis < shape.len(), "slice axis out of range");
            assert!(start + len <= shape[axis], "slice range out of bounds");
            let outer: usize = shape[..axis].iter().product();
            let inner: usize = shape[axis + 1..].iter().product();
            let ax = shape[axis];
            let mut out_shape = shape.to_vec();
            out_shape[axis] = len;
            let mut data = self.out_zeroed(outer * len * inner);
            for o in 0..outer {
                let src_start = (o * ax + start) * inner;
                let dst_start = o * len * inner;
                data[dst_start..dst_start + len * inner]
                    .copy_from_slice(&xv.data()[src_start..src_start + len * inner]);
            }
            Tensor::from_vec(data, &out_shape)
        };
        self.push(
            value,
            self.deps(&[x.id]),
            self.bw(|| {
                Box::new(move |g, p, _, scr| {
                    let shape = p[0].shape();
                    let outer: usize = shape[..axis].iter().product();
                    let inner: usize = shape[axis + 1..].iter().product();
                    let ax = shape[axis];
                    let mut data = scr.take_zeroed(p[0].numel());
                    for o in 0..outer {
                        let dst_start = (o * ax + start) * inner;
                        let src_start = o * len * inner;
                        data[dst_start..dst_start + len * inner]
                            .copy_from_slice(&g.data()[src_start..src_start + len * inner]);
                    }
                    vec![Tensor::from_vec(data, shape)]
                })
            }),
            None,
        )
    }

    /// Gathers rows of a `[v, d]` matrix by index (embedding lookup).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 2-D or any index is out of bounds.
    pub fn embedding(&self, weight: Var, indices: &[usize]) -> Var {
        let idx: Vec<usize> = indices.to_vec();
        let value = {
            let nodes = self.nodes.borrow();
            let w = &nodes[weight.id].value;
            assert_eq!(w.ndim(), 2, "embedding weight must be 2-D");
            let (v, d) = (w.shape()[0], w.shape()[1]);
            let mut data = self.out_cleared(idx.len() * d);
            for &i in &idx {
                assert!(i < v, "embedding index {i} out of bounds for vocab {v}");
                data.extend_from_slice(&w.data()[i * d..(i + 1) * d]);
            }
            Tensor::from_vec(data, &[idx.len(), d])
        };
        self.push(
            value,
            self.deps(&[weight.id]),
            self.bw(|| {
                Box::new(move |g, p, _, scr| {
                    let d = p[0].shape()[1];
                    let mut dw = scr.take_zeroed(p[0].numel());
                    for (row, &i) in idx.iter().enumerate() {
                        let grow = &g.data()[row * d..(row + 1) * d];
                        let dwrow = &mut dw[i * d..(i + 1) * d];
                        for (a, &b) in dwrow.iter_mut().zip(grow) {
                            *a += b;
                        }
                    }
                    vec![Tensor::from_vec(dw, p[0].shape())]
                })
            }),
            None,
        )
    }

    // ---------------------------------------------------------------------
    // Reductions and normalizations
    // ---------------------------------------------------------------------

    /// Sum of all elements, as a `[1]` tensor.
    pub fn sum_all(&self, a: Var) -> Var {
        let v = {
            let sum = self.nodes.borrow()[a.id].value.sum();
            let mut d = self.out_cleared(1);
            d.push(sum);
            Tensor::from_vec(d, &[1])
        };
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    let mut d = scr.take_zeroed(p[0].numel());
                    d.fill(g.data()[0]);
                    vec![Tensor::from_vec(d, p[0].shape())]
                })
            }),
            None,
        )
    }

    /// Mean over the token axis: `x [b,t,d] -> [b,d]`.
    pub fn mean_tokens(&self, x: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            assert_eq!(xv.ndim(), 3, "mean_tokens expects 3-D input");
            let (b, t, d) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
            let mut data = self.out_zeroed(b * d);
            for bi in 0..b {
                for ti in 0..t {
                    let row = &xv.data()[(bi * t + ti) * d..(bi * t + ti + 1) * d];
                    let acc = &mut data[bi * d..(bi + 1) * d];
                    for (a, &r) in acc.iter_mut().zip(row) {
                        *a += r;
                    }
                }
            }
            let inv = 1.0 / t as f32;
            for a in &mut data {
                *a *= inv;
            }
            Tensor::from_vec(data, &[b, d])
        };
        self.push(
            value,
            self.deps(&[x.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    let (b, t, d) = (p[0].shape()[0], p[0].shape()[1], p[0].shape()[2]);
                    let inv = 1.0 / t as f32;
                    let mut data = scr.take_zeroed(b * t * d);
                    for bi in 0..b {
                        let grow = &g.data()[bi * d..(bi + 1) * d];
                        for ti in 0..t {
                            let dst = &mut data[(bi * t + ti) * d..(bi * t + ti + 1) * d];
                            for (a, &r) in dst.iter_mut().zip(grow) {
                                *a = r * inv;
                            }
                        }
                    }
                    vec![Tensor::from_vec(data, p[0].shape())]
                })
            }),
            None,
        )
    }

    /// Numerically-stable softmax over the last axis.
    pub fn softmax_last(&self, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[a.id].value;
            let mut out = self.out_cleared(xv.numel());
            softmax_last_into(xv, &mut out);
            Tensor::from_vec(out, xv.shape())
        };
        self.push(
            value,
            self.deps(&[a.id]),
            self.bw(|| {
                Box::new(|g, _, y, scr| {
                    let d = *y.shape().last().expect("softmax 0-d");
                    let mut out = scr.take_zeroed(y.numel());
                    for ((orow, grow), yrow) in out
                        .chunks_mut(d)
                        .zip(g.data().chunks(d))
                        .zip(y.data().chunks(d))
                    {
                        let dot: f32 = grow.iter().zip(yrow).map(|(gi, yi)| gi * yi).sum();
                        for ((o, &gi), &yi) in orow.iter_mut().zip(grow).zip(yrow) {
                            *o = (gi - dot) * yi;
                        }
                    }
                    vec![Tensor::from_vec(out, y.shape())]
                })
            }),
            None,
        )
    }

    /// Numerically-stable log-softmax over the last axis.
    pub(crate) fn log_softmax_last(&self, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[a.id].value;
            let d = *xv.shape().last().expect("log_softmax 0-d");
            let mut exps = self.out_cleared(xv.numel());
            shifted_exps(xv.data(), d, &mut exps);
            let mut out = self.out_cleared(xv.numel());
            for (xrow, erow) in xv.data().chunks(d).zip(exps.chunks(d)) {
                let lse = row_max(xrow) + erow.iter().sum::<f32>().ln();
                out.extend(xrow.iter().map(|&x| x - lse));
            }
            self.out_recycle(exps);
            Tensor::from_vec(out, xv.shape())
        };
        self.push(
            value,
            self.deps(&[a.id]),
            self.bw(|| {
                Box::new(|g, _, y, scr| {
                    let d = *y.shape().last().expect("log_softmax 0-d");
                    // exp(y), then gi − exp(yi)·Σg in place.
                    let mut out = scr.take_copied(y.data());
                    exp_in_place(&mut out);
                    for (orow, grow) in out.chunks_mut(d).zip(g.data().chunks(d)) {
                        let gsum: f32 = grow.iter().sum();
                        for (o, &gi) in orow.iter_mut().zip(grow) {
                            *o = gi - *o * gsum;
                        }
                    }
                    vec![Tensor::from_vec(out, y.shape())]
                })
            }),
            None,
        )
    }

    /// Layer normalization over the last axis with learned gain and bias.
    ///
    /// `x [..., d]`, `gain [d]`, `bias [d]`. Row statistics are computed
    /// eight rows at a time, one row per vector lane; each row's sums
    /// still run in ascending element order, so the result is the per-row
    /// formula's bit for bit.
    pub(crate) fn layer_norm(&self, x: Var, gain: Var, bias: Var, eps: f32) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            let gv = &nodes[gain.id].value;
            let bv = &nodes[bias.id].value;
            let d = *xv.shape().last().expect("layer_norm 0-d");
            assert_eq!(gv.shape(), [d], "layer_norm gain shape");
            assert_eq!(bv.shape(), [d], "layer_norm bias shape");
            let mut out = self.out_cleared(xv.numel());
            let mut xt = self.out_zeroed(d * LN_BLOCK);
            for xb in xv.data().chunks(d * LN_BLOCK) {
                let (mu, inv) = ln_block_stats(xb, d, eps, &mut xt);
                for ((xrow, &mu), &inv) in xb.chunks_exact(d).zip(&mu).zip(&inv) {
                    out.extend(
                        xrow.iter()
                            .zip(gv.data())
                            .zip(bv.data())
                            .map(|((&x, &g), &b)| g * (x - mu) * inv + b),
                    );
                }
            }
            self.out_recycle(xt);
            Tensor::from_vec(out, xv.shape())
        };
        self.push(
            value,
            self.deps(&[x.id, gain.id, bias.id]),
            self.bw(|| {
                Box::new(move |g, p, _, scr| {
                    let (xv, gain) = (p[0], p[1].data());
                    let d = gain.len();
                    let df = d as f32;
                    let mut dx = scr.take_cleared(xv.numel());
                    let mut dgain = scr.take_zeroed(d);
                    let mut dbias = scr.take_zeroed(d);
                    let mut xt = scr.take_zeroed(d * LN_BLOCK);
                    let mut gt = scr.take_zeroed(d * LN_BLOCK);
                    for (xb, gb) in xv
                        .data()
                        .chunks(d * LN_BLOCK)
                        .zip(g.data().chunks(d * LN_BLOCK))
                    {
                        let (mu, inv) = ln_block_stats(xb, d, eps, &mut xt);
                        // Σ dxhat and Σ dxhat·xhat per row, side by side over
                        // the transposed block, with dxhat_j = dy_j · gain_j.
                        ln_transpose(gb, d, &mut gt);
                        let (mut sum_dxhat, mut sum_dxhat_xhat) =
                            ([0.0f32; LN_BLOCK], [0.0f32; LN_BLOCK]);
                        for ((xc, gc), &ga) in xt
                            .as_chunks::<LN_BLOCK>()
                            .0
                            .iter()
                            .zip(gt.as_chunks::<LN_BLOCK>().0)
                            .zip(gain)
                        {
                            for r in 0..LN_BLOCK {
                                let xhat = (xc[r] - mu[r]) * inv[r];
                                let dxhat = gc[r] * ga;
                                sum_dxhat[r] += dxhat;
                                sum_dxhat_xhat[r] += dxhat * xhat;
                            }
                        }
                        let rows = xb.chunks_exact(d).zip(gb.chunks_exact(d));
                        for (r, (xrow, grow)) in rows.enumerate() {
                            let (mu, inv) = (mu[r], inv[r]);
                            let (s1, s2) = (sum_dxhat[r], sum_dxhat_xhat[r]);
                            let acc = dgain.iter_mut().zip(dbias.iter_mut());
                            for ((dg, db), (&x, &gi)) in acc.zip(xrow.iter().zip(grow)) {
                                *dg += gi * ((x - mu) * inv);
                                *db += gi;
                            }
                            dx.extend(xrow.iter().zip(grow).zip(gain).map(|((&x, &gi), &ga)| {
                                let xhat = (x - mu) * inv;
                                inv / df * (df * (gi * ga) - s1 - xhat * s2)
                            }));
                        }
                    }
                    scr.recycle(xt);
                    scr.recycle(gt);
                    vec![
                        Tensor::from_vec(dx, xv.shape()),
                        Tensor::from_vec(dgain, &[d]),
                        Tensor::from_vec(dbias, &[d]),
                    ]
                })
            }),
            None,
        )
    }

    /// L2-normalizes each row of a 2-D tensor.
    pub fn row_l2_normalize(&self, x: Var) -> Var {
        const EPS: f32 = 1e-8;
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            assert_eq!(xv.ndim(), 2, "row_l2_normalize expects 2-D input");
            let d = xv.shape()[1];
            let mut out = self.out_zeroed(xv.numel());
            for (orow, xrow) in out.chunks_mut(d).zip(xv.data().chunks(d)) {
                let n = xrow.iter().map(|x| x * x).sum::<f32>().sqrt().max(EPS);
                for (o, &x) in orow.iter_mut().zip(xrow) {
                    *o = x / n;
                }
            }
            Tensor::from_vec(out, xv.shape())
        };
        self.push(
            value,
            self.deps(&[x.id]),
            self.bw(|| {
                Box::new(|g, p, y, scr| {
                    let d = p[0].shape()[1];
                    let mut out = scr.take_zeroed(p[0].numel());
                    for ((orow, grow), (xrow, yrow)) in out
                        .chunks_mut(d)
                        .zip(g.data().chunks(d))
                        .zip(p[0].data().chunks(d).zip(y.data().chunks(d)))
                    {
                        let n = xrow.iter().map(|x| x * x).sum::<f32>().sqrt().max(EPS);
                        let gy: f32 = grow.iter().zip(yrow).map(|(gi, yi)| gi * yi).sum();
                        for ((o, &gi), &yi) in orow.iter_mut().zip(grow).zip(yrow) {
                            *o = (gi - yi * gy) / n;
                        }
                    }
                    vec![Tensor::from_vec(out, p[0].shape())]
                })
            }),
            None,
        )
    }

    // ---------------------------------------------------------------------
    // Losses
    // ---------------------------------------------------------------------

    /// Mean cross-entropy between `logits [b,k]` and integer `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != b` or any target is out of range.
    pub fn cross_entropy(&self, logits: Var, targets: &[usize]) -> Var {
        let tg: Vec<usize> = targets.to_vec();
        let value = {
            let nodes = self.nodes.borrow();
            let lv = &nodes[logits.id].value;
            assert_eq!(lv.ndim(), 2, "cross_entropy expects 2-D logits");
            let (b, k) = (lv.shape()[0], lv.shape()[1]);
            assert_eq!(tg.len(), b, "targets length mismatch");
            for &t in &tg {
                assert!(t < k, "target {t} out of range for {k} classes");
            }
            let mut exps = self.out_cleared(lv.numel());
            shifted_exps(lv.data(), k, &mut exps);
            let mut loss = 0.0f32;
            for ((row, erow), &t) in lv.data().chunks(k).zip(exps.chunks(k)).zip(&tg) {
                let lse = row_max(row) + erow.iter().sum::<f32>().ln();
                loss += lse - row[t];
            }
            self.out_recycle(exps);
            let mut d = self.out_cleared(1);
            d.push(loss / b as f32);
            Tensor::from_vec(d, &[1])
        };
        self.push(
            value,
            self.deps(&[logits.id]),
            self.bw(|| {
                Box::new(move |g, p, _, _scr| {
                    let (b, k) = (p[0].shape()[0], p[0].shape()[1]);
                    let gs = g.data()[0] / b as f32;
                    let mut dl = softmax_last_tensor(p[0]);
                    for (row, &t) in dl.data_mut().chunks_mut(k).zip(&tg) {
                        row[t] -= 1.0;
                        for x in row.iter_mut() {
                            *x *= gs;
                        }
                    }
                    vec![dl]
                })
            }),
            None,
        )
    }

    /// Multi-positive InfoNCE over similarity `logits [b,m]`.
    ///
    /// For each row `i`, `positives[i]` lists the positive columns;
    /// the loss is the mean of `-log(sum_pos exp / sum_all exp)`.
    ///
    /// # Panics
    ///
    /// Panics if `positives.len() != b`, any row's positive set is empty,
    /// or an index is out of range.
    pub fn multi_positive_nce(&self, logits: Var, positives: &[Vec<usize>]) -> Var {
        let pos: Vec<Vec<usize>> = positives.to_vec();
        let value = {
            let nodes = self.nodes.borrow();
            let lv = &nodes[logits.id].value;
            assert_eq!(lv.ndim(), 2, "multi_positive_nce expects 2-D logits");
            let (b, m) = (lv.shape()[0], lv.shape()[1]);
            assert_eq!(pos.len(), b, "positives length mismatch");
            for ps in &pos {
                assert!(!ps.is_empty(), "each row needs at least one positive");
                for &j in ps {
                    assert!(j < m, "positive index {j} out of range");
                }
            }
            // Each row's exps once; the numerator sums its positives' entries
            // in `ps` order.
            let mut exps = self.out_cleared(lv.numel());
            shifted_exps(lv.data(), m, &mut exps);
            let mut loss = 0.0f32;
            for (erow, ps) in exps.chunks(m).zip(&pos) {
                let denom: f32 = erow.iter().sum();
                let numer: f32 = ps.iter().map(|&j| erow[j]).sum();
                loss -= (numer / denom).ln();
            }
            self.out_recycle(exps);
            let mut d = self.out_cleared(1);
            d.push(loss / b as f32);
            Tensor::from_vec(d, &[1])
        };
        self.push(
            value,
            self.deps(&[logits.id]),
            self.bw(|| {
                Box::new(move |g, p, _, scr| {
                    let (b, m) = (p[0].shape()[0], p[0].shape()[1]);
                    let gs = g.data()[0] / b as f32;
                    let mut exps = scr.take_cleared(b * m);
                    shifted_exps(p[0].data(), m, &mut exps);
                    let mut out = scr.take_cleared(b * m);
                    // Each row's positives, marked once (duplicates in `ps`
                    // mark the same column, as `ps.contains` would).
                    let mut positive = vec![false; m];
                    for (erow, ps) in exps.chunks(m).zip(&pos) {
                        let denom: f32 = erow.iter().sum();
                        let numer: f32 = ps.iter().map(|&j| erow[j]).sum();
                        for &j in ps {
                            positive[j] = true;
                        }
                        out.extend(erow.iter().zip(&positive).map(|(&e, &is_pos)| {
                            let pos_soft = if is_pos { e / numer } else { 0.0 };
                            gs * (e / denom - pos_soft)
                        }));
                        for &j in ps {
                            positive[j] = false;
                        }
                    }
                    scr.recycle(exps);
                    vec![Tensor::from_vec(out, p[0].shape())]
                })
            }),
            None,
        )
    }

    /// Inverted dropout: zeroes each element with probability `p` and scales
    /// survivors by `1/(1-p)`, so activations keep their expectation. The
    /// mask is sampled eagerly from `rng` and reused in the backward pass.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub(crate) fn dropout<R: rand::Rng>(&self, x: Var, p: f32, rng: &mut R) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        if p == 0.0 {
            return x;
        }
        let keep = 1.0 - p;
        let mask: Vec<f32> = {
            let nodes = self.nodes.borrow();
            (0..nodes[x.id].value.numel())
                .map(|_| {
                    if rng.gen::<f32>() < p {
                        0.0
                    } else {
                        1.0 / keep
                    }
                })
                .collect()
        };
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            let mut data = self.out_cleared(xv.numel());
            data.extend(xv.data().iter().zip(&mask).map(|(&a, &m)| a * m));
            Tensor::from_vec(data, xv.shape())
        };
        self.push(
            value,
            self.deps(&[x.id]),
            self.bw(|| {
                Box::new(move |g, _, _, _scr| {
                    let data: Vec<f32> =
                        g.data().iter().zip(&mask).map(|(&gi, &m)| gi * m).collect();
                    vec![Tensor::from_vec(data, g.shape())]
                })
            }),
            None,
        )
    }
}

/// `sqrt(2/π)`, the scale of the tanh-GELU argument.
const GELU_C: f32 = 0.797_884_6;
/// Cubic coefficient of the tanh-GELU argument.
const GELU_K: f32 = 0.044_715;

/// The tanh-GELU's `tanh` argument, `C·(x + 0.044715·x³)`.
#[inline]
fn gelu_inner(x: f32) -> f32 {
    GELU_C * (x + GELU_K * x * x * x)
}

/// The exact GELU derivative at `x` given `t = tanh(gelu_inner(x))`.
#[inline]
fn gelu_deriv(x: f32, t: f32) -> f32 {
    let dinner = GELU_C * (1.0 + 3.0 * GELU_K * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// libm reference for the tanh-approximated GELU: `Graph::gelu` must
/// match it bit for bit.
#[cfg(test)]
fn gelu_fwd(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// The exact derivative of [`gelu_fwd`] (libm reference).
#[cfg(test)]
fn gelu_bwd(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let inner = C * (x + 0.044715 * x * x * x);
    let t = inner.tanh();
    let dinner = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

fn softmax_last_tensor(x: &Tensor) -> Tensor {
    let mut out = Vec::with_capacity(x.numel());
    softmax_last_into(x, &mut out);
    Tensor::from_vec(out, x.shape())
}

/// Appends the last-axis softmax of `x` to the empty `out` (a
/// caller-provided buffer, same arithmetic as [`softmax_last_tensor`]).
/// Each row runs max, shift, exp, sum in ascending order from `+0`, divide.
fn softmax_last_into(x: &Tensor, out: &mut Vec<f32>) {
    let d = *x.shape().last().expect("softmax on 0-d tensor");
    shifted_exps(x.data(), d, out);
    for orow in out.chunks_mut(d) {
        let mut sum = 0.0f32;
        for &o in orow.iter() {
            sum += o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
}

/// The largest element of `row` (`−∞` for an empty row; NaNs are skipped,
/// as `f32::max` skips them).
fn row_max(row: &[f32]) -> f32 {
    row.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Appends `exp(x − max(row))` for every element of every `d`-long row of
/// `xs` to `out`: the shifts row by row, then every exp in one bulk
/// [`exp_in_place`] call over the appended values.
fn shifted_exps(xs: &[f32], d: usize, out: &mut Vec<f32>) {
    let start = out.len();
    for row in xs.chunks(d) {
        let m = row_max(row);
        out.extend(row.iter().map(|&x| x - m));
    }
    exp_in_place(&mut out[start..]);
}

/// Which operand of [`Graph::matmul`] is stored transposed and read in
/// place. Each layout runs one kernel per pass, with these operands:
///
/// | layout | forward          | `da =`           | `db +=`          |
/// |--------|------------------|------------------|------------------|
/// | `None` | `gemm(a, b)`     | `gemm_nt(g, b)`  | `gemm_tn(a, g)`  |
/// | `Lhs`  | `gemm_tn(a, b)`  | `gemm_nt(b, g)`  | `gemm(a, g)`     |
/// | `Rhs`  | `gemm_nt(a, b)`  | `gemm(g, b)`     | `gemm_tn(g, a)`  |
///
/// `g` is the output gradient, and each gradient comes out in its
/// operand's stored layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Neither: `a […, m, k] · b [k, n]`.
    None,
    /// `a` is stored `[…, k, m]`: the product `aᵀ · b`.
    Lhs,
    /// `b` is stored `[n, k]` (or `[B, n, k]`): the product `a · bᵀ`.
    Rhs,
}

impl Transpose {
    /// `out += op(a) · op(b)` for one `[m, k] · [k, n]` call.
    fn forward(self, a: &[f32], b: &[f32], out: &mut [f32], [m, k, n]: [usize; 3]) {
        match self {
            Self::None => gemm(a, b, out, m, k, n),
            Self::Lhs => gemm_tn(a, b, out, m, k, n),
            Self::Rhs => gemm_nt(a, b, out, m, k, n),
        }
    }

    /// The adjoints of one [`Transpose::forward`] call for its output
    /// gradient `g`: `da` (zeroed) receives `a`'s gradient and `db` adds
    /// `b`'s, as in the table above.
    fn adjoints(
        self,
        g: &[f32],
        a: &[f32],
        b: &[f32],
        da: &mut [f32],
        db: &mut [f32],
        [m, k, n]: [usize; 3],
    ) {
        match self {
            Self::None => {
                gemm_nt(g, b, da, m, n, k);
                gemm_tn(a, g, db, k, m, n);
            }
            Self::Lhs => {
                gemm_nt(b, g, da, k, n, m);
                gemm(a, g, db, k, m, n);
            }
            Self::Rhs => {
                gemm(g, b, da, m, n, k);
                gemm_tn(g, a, db, n, m, k);
            }
        }
    }
}

/// Gradients of `matmul(x[0], x[1], t)` for its output gradient `g`.
fn product_grads(t: Transpose, g: &Tensor, x: &[&Tensor], scr: &mut Scratch) -> Vec<Tensor> {
    let p = Product::new(x[0].shape(), x[1].shape(), t);
    let (a, b) = (x[0].data(), x[1].data());
    let mut da = scr.take_zeroed(a.len());
    let mut db = scr.take_zeroed(b.len());
    for i in 0..p.batches {
        let (ai, bi, gi) = (&a[p.a_at(i)], &b[p.b_at(i)], &g.data()[p.out_at(i)]);
        let (dai, dbi) = (&mut da[p.a_at(i)], &mut db[p.b_at(i)]);
        t.adjoints(gi, ai, bi, dai, dbi, p.dims());
    }
    vec![
        Tensor::from_vec(da, x[0].shape()),
        Tensor::from_vec(db, x[1].shape()),
    ]
}

/// The kernel calls of one [`Graph::matmul`]: `batches` products of an
/// `[m, k]` by a `[k, n]` matrix, every call reading the same `b` when
/// `shared_b`.
struct Product {
    batches: usize,
    m: usize,
    k: usize,
    n: usize,
    shared_b: bool,
}

impl Product {
    fn new(a: &[usize], b: &[usize], t: Transpose) -> Self {
        let (na, nb) = (a.len(), b.len());
        assert!(
            na >= 2 && (nb == 2 || nb == 3),
            "matmul needs a of rank >= 2 and b of rank 2 or 3, got {a:?} x {b:?}"
        );
        let (r, c) = (a[na - 2], a[na - 1]);
        let (m, k) = if t == Transpose::Lhs { (c, r) } else { (r, c) };
        let (kb, n) = if t == Transpose::Rhs {
            (b[nb - 1], b[nb - 2])
        } else {
            (b[nb - 2], b[nb - 1])
        };
        assert_eq!(k, kb, "matmul inner dim mismatch: {a:?} x {b:?} ({t:?})");
        let lead: usize = a[..na - 2].iter().product();
        let (batches, m, shared_b) = if nb == 3 {
            assert!(
                na == 3 && a[0] == b[0],
                "batched matmul needs a 3-D a with b's batch, got {a:?} x {b:?}"
            );
            (b[0], m, false)
        } else if t == Transpose::Lhs {
            (lead, m, true)
        } else {
            (1, lead * m, true)
        };
        Self {
            batches,
            m,
            k,
            n,
            shared_b,
        }
    }

    fn dims(&self) -> [usize; 3] {
        [self.m, self.k, self.n]
    }

    /// Call `i`'s slice of `a` (or of its gradient).
    fn a_at(&self, i: usize) -> Range<usize> {
        i * self.m * self.k..(i + 1) * self.m * self.k
    }

    /// Call `i`'s slice of `b` (or of its gradient).
    fn b_at(&self, i: usize) -> Range<usize> {
        let i = if self.shared_b { 0 } else { i };
        i * self.k * self.n..(i + 1) * self.k * self.n
    }

    /// Call `i`'s slice of the output (or of its gradient).
    fn out_at(&self, i: usize) -> Range<usize> {
        i * self.m * self.n..(i + 1) * self.m * self.n
    }
}

/// Rows whose statistics [`Graph::layer_norm`] computes side by side: one
/// lane per row, so eight serial `f32` chains run as one vector chain.
const LN_BLOCK: usize = 8;

/// Writes a block of at most [`LN_BLOCK`] rows of width `d` (`rows`) into
/// `t` as `[d][LN_BLOCK]`, column `r` holding row `r`; the lanes of a short
/// block are zeroed. Whole `LN_BLOCK × LN_BLOCK` tiles pass through a
/// fixed-size array, which the compiler transposes with register shuffles
/// (a strided store per element costs about four times as much).
fn ln_transpose(rows: &[f32], d: usize, t: &mut [f32]) {
    let n = rows.len() / d;
    if n < LN_BLOCK {
        t.fill(0.0);
    }
    let cols = t.as_chunks_mut::<LN_BLOCK>().0;
    let full = d / LN_BLOCK * LN_BLOCK;
    for j0 in (0..full).step_by(LN_BLOCK) {
        let mut tile = [[0.0f32; LN_BLOCK]; LN_BLOCK];
        for (r, dst) in tile.iter_mut().enumerate().take(n) {
            dst.copy_from_slice(&rows[r * d + j0..r * d + j0 + LN_BLOCK]);
        }
        for (jj, col) in cols[j0..j0 + LN_BLOCK].iter_mut().enumerate() {
            *col = std::array::from_fn(|r| tile[r][jj]);
        }
    }
    for (j, col) in cols.iter_mut().enumerate().skip(full) {
        for (r, lane) in col.iter_mut().enumerate().take(n) {
            *lane = rows[r * d + j];
        }
    }
}

/// Mean and `1 / sqrt(var + eps)` of each row in a block of at most
/// [`LN_BLOCK`] rows of width `d`, using `xt` (`d·LN_BLOCK` long) for the
/// transposed block. Each row's sums run over ascending elements from
/// `-0.0`, the same chain as `row.iter().sum::<f32>()`, so every lane
/// equals the per-row formula bit for bit; lanes past the block's rows are
/// padding.
fn ln_block_stats(
    rows: &[f32],
    d: usize,
    eps: f32,
    xt: &mut [f32],
) -> ([f32; LN_BLOCK], [f32; LN_BLOCK]) {
    ln_transpose(rows, d, xt);
    let cols = xt.as_chunks::<LN_BLOCK>().0;
    let df = d as f32;
    let mut sum = [-0.0f32; LN_BLOCK];
    for col in cols {
        for (s, &x) in sum.iter_mut().zip(col) {
            *s += x;
        }
    }
    let mu = sum.map(|s| s / df);
    let mut sq = [-0.0f32; LN_BLOCK];
    for col in cols {
        for ((s, &x), &m) in sq.iter_mut().zip(col).zip(&mu) {
            *s += (x - m) * (x - m);
        }
    }
    (mu, sq.map(|s| 1.0 / (s / df + eps).sqrt()))
}

/// Appends the `[a,c,b,d]` permutation of `src`, read as `[a,b,c,d]`, to
/// `out`: output-major, so every write is a sequential run of `d` elements
/// (the permutation keeps the last axis contiguous on both sides).
fn permute_0213_extend(src: &[f32], [sa, sb, sc, sd]: [usize; 4], out: &mut Vec<f32>) {
    for ai in 0..sa {
        for ci in 0..sc {
            for bi in 0..sb {
                let s = ((ai * sb + bi) * sc + ci) * sd;
                out.extend_from_slice(&src[s..s + sd]);
            }
        }
    }
}

/// Applies `f(x[b,r,c], a[b,c])` broadcasting `a` over the row axis.
fn rows_broadcast(x: &Tensor, a: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(x.ndim(), 3, "rows_broadcast expects 3-D x");
    assert_eq!(a.ndim(), 2, "rows_broadcast expects 2-D a");
    let (b, r, c) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    assert_eq!(a.shape(), [b, c], "rows_broadcast shape mismatch");
    let mut out = vec![0.0f32; x.numel()];
    for bi in 0..b {
        let arow = &a.data()[bi * c..(bi + 1) * c];
        for ri in 0..r {
            let base = (bi * r + ri) * c;
            for ci in 0..c {
                out[base + ci] = f(x.data()[base + ci], arow[ci]);
            }
        }
    }
    Tensor::from_vec(out, x.shape())
}

/// Reduces `f(g[b,r,c], x[b,r,c])` over the row axis into a `[b,c]` tensor.
fn rows_broadcast_reduce(g: &Tensor, x: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let (b, r, c) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let mut out = vec![0.0f32; b * c];
    for bi in 0..b {
        for ri in 0..r {
            let base = (bi * r + ri) * c;
            for ci in 0..c {
                out[bi * c + ci] += f(g.data()[base + ci], x.data()[base + ci]);
            }
        }
    }
    Tensor::from_vec(out, &[b, c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Numeric-vs-analytic gradient check for a scalar function of params.
    fn grad_check(
        params: &mut Params,
        ids: &[ParamId],
        f: &dyn Fn(&Graph, &Params) -> Var,
        tol: f32,
    ) {
        params.zero_grad();
        let g = Graph::new();
        let loss = f(&g, params);
        g.backward(loss, params);
        let analytic: Vec<Tensor> = ids.iter().map(|&id| params.grad(id).clone()).collect();

        let eps = 1e-3f32;
        for (pi, &id) in ids.iter().enumerate() {
            for j in 0..params.value(id).numel() {
                let orig = params.value(id).data()[j];
                params.value_mut(id).data_mut()[j] = orig + eps;
                let gp = Graph::new();
                let lp = gp.value(f(&gp, params)).data()[0];
                params.value_mut(id).data_mut()[j] = orig - eps;
                let gm = Graph::new();
                let lm = gm.value(f(&gm, params)).data()[0];
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
    fn add_mul_scalar_chain() {
        let mut params = Params::new();
        let a = params.insert("a", Tensor::from_vec(vec![3.0], &[1]), true);
        let b = params.insert("b", Tensor::from_vec(vec![4.0], &[1]), true);
        let g = Graph::new();
        let av = g.param(&params, a);
        let bv = g.param(&params, b);
        let prod = g.mul(av, bv);
        let y = g.add(prod, av); // y = ab + a
        assert_eq!(g.value(y).data(), &[15.0]);
        g.backward(y, &mut params);
        assert_eq!(params.grad(a).data(), &[5.0]); // b + 1
        assert_eq!(params.grad(b).data(), &[3.0]); // a
    }

    #[test]
    fn matmul_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let a = params.insert("a", Tensor::randn(&[2, 3], 1.0, &mut rng), true);
        let b = params.insert("b", Tensor::randn(&[3, 2], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[a, b],
            &|g, p| {
                let av = g.param(p, p.id("a").unwrap());
                let bv = g.param(p, p.id("b").unwrap());
                let c = g.matmul(av, bv, Transpose::None);
                let sq = g.mul(c, c);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn bmm_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let a = params.insert("a", Tensor::randn(&[2, 2, 3], 0.5, &mut rng), true);
        let b = params.insert("b", Tensor::randn(&[2, 3, 2], 0.5, &mut rng), true);
        grad_check(
            &mut params,
            &[a, b],
            &|g, p| {
                let av = g.param(p, p.id("a").unwrap());
                let bv = g.param(p, p.id("b").unwrap());
                let c = g.matmul(av, bv, Transpose::None);
                let t = g.tanh(c);
                g.sum_all(t)
            },
            1e-2,
        );
    }

    #[test]
    fn activations_gradcheck() {
        let mut params = Params::new();
        let x = params.insert(
            "x",
            Tensor::from_vec(vec![-1.5, -0.3, 0.2, 1.7, 0.4, 2.5], &[6]),
            true,
        );
        for act in ["gelu", "tanh"] {
            grad_check(
                &mut params,
                &[x],
                &|g, p| {
                    let xv = g.param(p, p.id("x").unwrap());
                    let y = match act {
                        "gelu" => g.gelu(xv),
                        _ => g.tanh(xv),
                    };
                    g.sum_all(y)
                },
                2e-2,
            );
        }
    }

    /// Dense grid over the GELU's working range plus the edges where its
    /// `tanh` saturates, overflows or goes NaN.
    fn gelu_probe_inputs() -> Vec<f32> {
        let mut xs: Vec<f32> = (-1280..=1280).map(|i| i as f32 / 64.0).collect();
        // A stride through every bit pattern covers each binade and sign.
        xs.extend((0..=u32::MAX).step_by(65_537).map(f32::from_bits));
        xs.extend([
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            9.0,
            -9.0,
            20.0,
            -20.0,
            1e30,
            -1e30,
            f32::NAN,
        ]);
        xs
    }

    /// `gelu` value and `d sum(gelu(x)) / dx` on a training graph.
    fn gelu_value_and_grad(xs: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut params = Params::new();
        let id = params.insert("x", Tensor::from_vec(xs.to_vec(), &[xs.len()]), true);
        let g = Graph::new();
        let y = g.gelu(g.param(&params, id));
        let value = g.value(y).into_vec();
        g.backward(g.sum_all(y), &mut params);
        (value, params.grad(id).data().to_vec())
    }

    /// The gradient the separate-formula backward produced: `1·gelu_bwd(x)`
    /// accumulated into a zeroed parameter gradient.
    fn gelu_bwd_reference_grad(xs: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(xs.to_vec(), &[xs.len()]);
        let mut grad = Tensor::zeros(&[xs.len()]);
        grad.axpy(
            1.0,
            &Tensor::ones(&[xs.len()]).zip(&x, |gi, xi| gi * gelu_bwd(xi)),
        );
        grad.into_vec()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gelu_single_tanh_matches_separate_formulas_bitwise() {
        let xs = gelu_probe_inputs();
        let (value, grad) = gelu_value_and_grad(&xs);
        let want: Vec<f32> = xs.iter().map(|&x| gelu_fwd(x)).collect();
        assert_eq!(bits(&value), bits(&want), "forward value");
        assert_eq!(bits(&grad), bits(&gelu_bwd_reference_grad(&xs)), "gradient");
    }

    #[test]
    fn inference_gelu_matches_and_boxes_no_closure() {
        let xs = gelu_probe_inputs();
        let g = Graph::inference();
        let y = g.gelu(g.input(&Tensor::from_vec(xs.clone(), &[xs.len()])));
        let (taped, _) = gelu_value_and_grad(&xs);
        assert_eq!(bits(g.value(y).data()), bits(&taped));
        assert!(g.nodes.borrow()[y.id].backward.is_none());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0],
            &[2, 3],
        ));
        let s = g.value(g.softmax_last(x));
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_gradcheck() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 4], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[x],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let s = g.softmax_last(xv);
                let sq = g.mul(s, s);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn log_softmax_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[3, 4], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[x],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let s = g.log_softmax_last(xv);
                let w = g.mul(s, s);
                // The mean of the 3×4 squares.
                let total = g.sum_all(w);
                g.scale(total, 1.0 / 12.0)
            },
            1e-2,
        );
    }

    #[test]
    fn layer_norm_normalizes() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]));
        let gain = g.constant(Tensor::ones(&[4]));
        let bias = g.constant(Tensor::zeros(&[4]));
        let y = g.value(g.layer_norm(x, gain, bias, 1e-5));
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 5], 1.0, &mut rng), true);
        let gain = params.insert("gain", Tensor::rand_uniform(&[5], 0.5, 1.5, &mut rng), true);
        let bias = params.insert("bias", Tensor::randn(&[5], 0.2, &mut rng), true);
        grad_check(
            &mut params,
            &[x, gain, bias],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let gv = g.param(p, p.id("gain").unwrap());
                let bv = g.param(p, p.id("bias").unwrap());
                let y = g.layer_norm(xv, gv, bv, 1e-5);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            2e-2,
        );
    }

    /// The per-row LayerNorm (value, dx, dgain, dbias) that the blocked
    /// [`Graph::layer_norm`] must reproduce bit for bit: one serial chain per
    /// row statistic, rows in order.
    fn layer_norm_per_row(
        x: &[f32],
        gain: &[f32],
        bias: &[f32],
        dy: &[f32],
        eps: f32,
    ) -> [Vec<f32>; 4] {
        let d = gain.len();
        let df = d as f32;
        let (mut y, mut dx) = (Vec::new(), Vec::new());
        let (mut dgain, mut dbias) = (vec![0.0f32; d], vec![0.0f32; d]);
        for (xrow, grow) in x.chunks(d).zip(dy.chunks(d)) {
            let mu = xrow.iter().sum::<f32>() / df;
            let var = xrow.iter().map(|x| (x - mu) * (x - mu)).sum::<f32>() / df;
            let inv = 1.0 / (var + eps).sqrt();
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            let mut xhat = vec![0.0f32; d];
            let mut dxhat = vec![0.0f32; d];
            for j in 0..d {
                y.push(gain[j] * (xrow[j] - mu) * inv + bias[j]);
                xhat[j] = (xrow[j] - mu) * inv;
                dxhat[j] = grow[j] * gain[j];
                sum_dxhat += dxhat[j];
                sum_dxhat_xhat += dxhat[j] * xhat[j];
                dgain[j] += grow[j] * xhat[j];
                dbias[j] += grow[j];
            }
            for j in 0..d {
                dx.push(inv / df * (df * dxhat[j] - sum_dxhat - xhat[j] * sum_dxhat_xhat));
            }
        }
        [y, dx, dgain, dbias]
    }

    #[test]
    fn layer_norm_row_blocks_match_per_row_reference() {
        let mut rng = StdRng::seed_from_u64(31);
        let nan = generated_nan();
        for d in [1, 3, 32, 64] {
            for rows in 0..=2 * LN_BLOCK + 1 {
                let mut x = Tensor::randn(&[rows, d], 2.0, &mut rng).into_vec();
                // Rows of NaN, ±Inf, signed zeros, a large offset and all
                // −0 (whose mean keeps its sign only if each sum starts
                // from −0, as `iter().sum()` does; the −0 biases show it).
                for (r, row) in x.chunks_mut(d).enumerate() {
                    match r % 7 {
                        1 => row[r % d] = nan,
                        2 => row[(r + 1) % d] = f32::NEG_INFINITY,
                        3 => row[0] = f32::INFINITY,
                        4 => row
                            .iter_mut()
                            .enumerate()
                            .for_each(|(j, v)| *v = if j % 2 == 0 { -0.0 } else { 0.0 }),
                        5 => row.iter_mut().for_each(|v| *v += 1.0e4),
                        6 => row.fill(-0.0),
                        _ => {}
                    }
                }
                let gain = Tensor::rand_uniform(&[d], 0.5, 1.5, &mut rng);
                let mut bias = Tensor::randn(&[d], 0.2, &mut rng);
                bias.data_mut()
                    .iter_mut()
                    .step_by(3)
                    .for_each(|b| *b = -0.0);
                let dy = Tensor::randn(&[rows, d], 1.0, &mut rng);
                let want = layer_norm_per_row(&x, gain.data(), bias.data(), dy.data(), 1e-5);

                let g = Graph::new();
                let xv = g.constant(Tensor::from_vec(x, &[rows, d]));
                let (gv, bv) = (g.constant(gain), g.constant(bias));
                let y = g.layer_norm(xv, gv, bv, 1e-5);
                let nodes = g.nodes.borrow();
                let node = &nodes[y.id];
                let pvals: Vec<&Tensor> = node.parents.iter().map(|&p| &nodes[p].value).collect();
                let bw = node.backward.as_ref().unwrap();
                let grads = bw(&dy, &pvals, &node.value, &mut Scratch::default());
                let got = [&node.value, &grads[0], &grads[1], &grads[2]];
                for (i, (w, g)) in want.iter().zip(got).enumerate() {
                    assert_eq!(bits(g.data()), bits(w), "output {i} at rows={rows} d={d}");
                }
            }
        }
    }

    /// The value and first input gradient of node `y` for upstream `dy`,
    /// from its backward closure called directly.
    fn value_and_grad(g: &Graph, y: Var, dy: &Tensor) -> [Vec<u32>; 2] {
        let nodes = g.nodes.borrow();
        let node = &nodes[y.id];
        let pvals: Vec<&Tensor> = node.parents.iter().map(|&p| &nodes[p].value).collect();
        let bw = node.backward.as_ref().unwrap();
        let grads = bw(dy, &pvals, &node.value, &mut Scratch::default());
        [bits(node.value.data()), bits(grads[0].data())]
    }

    /// The softmax family before its exps ran in bulk: each row's own libm
    /// `exp` calls in the old formulas' order. `[softmax, log_softmax, its
    /// gradient, CE loss, CE gradient, NCE loss, NCE gradient]`.
    fn softmax_family_per_row(
        x: &[f32],
        d: usize,
        dy: &[f32],
        targets: &[usize],
        pos: &[Vec<usize>],
        gl: f32,
    ) -> [Vec<f32>; 7] {
        let b = x.len() / d;
        let max = |row: &[f32]| row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut soft = vec![0.0f32; x.len()];
        for (orow, xrow) in soft.chunks_mut(d).zip(x.chunks(d)) {
            let m = max(xrow);
            let mut sum = 0.0f32;
            for (o, &xv) in orow.iter_mut().zip(xrow) {
                *o = (xv - m).exp();
                sum += *o;
            }
            for o in orow.iter_mut() {
                *o /= sum;
            }
        }
        let (mut logs, mut dlogs) = (Vec::new(), Vec::new());
        let (mut ce, mut nce) = (0.0f32, 0.0f32);
        for xrow in x.chunks(d) {
            let m = max(xrow);
            let lse = m + xrow.iter().map(|x| (x - m).exp()).sum::<f32>().ln();
            logs.extend(xrow.iter().map(|&x| x - lse));
        }
        for (grow, yrow) in dy.chunks(d).zip(logs.chunks(d)) {
            let gsum: f32 = grow.iter().sum();
            dlogs.extend(grow.iter().zip(yrow).map(|(&gi, &yi)| gi - yi.exp() * gsum));
        }
        let gs = gl / b as f32;
        let mut dce = soft.clone();
        for ((xrow, drow), &t) in x.chunks(d).zip(dce.chunks_mut(d)).zip(targets) {
            let m = max(xrow);
            ce += m + xrow.iter().map(|x| (x - m).exp()).sum::<f32>().ln() - xrow[t];
            drow[t] -= 1.0;
            drow.iter_mut().for_each(|v| *v *= gs);
        }
        let mut dnce = Vec::new();
        for (xrow, ps) in x.chunks(d).zip(pos) {
            let mx = max(xrow);
            let exps: Vec<f32> = xrow.iter().map(|x| (x - mx).exp()).collect();
            let denom: f32 = xrow.iter().map(|x| (x - mx).exp()).sum();
            let numer: f32 = ps.iter().map(|&j| (xrow[j] - mx).exp()).sum();
            nce -= (numer / denom).ln();
            let numer_b: f32 = ps.iter().map(|&j| exps[j]).sum();
            for (j, &e) in exps.iter().enumerate() {
                let pos_soft = if ps.contains(&j) { e / numer_b } else { 0.0 };
                dnce.push(gs * (e / exps.iter().sum::<f32>() - pos_soft));
            }
        }
        [
            soft,
            logs,
            dlogs,
            vec![ce / b as f32],
            dce,
            vec![nce / b as f32],
            dnce,
        ]
    }

    #[test]
    fn softmax_family_matches_per_row_libm_formulas() {
        let mut rng = StdRng::seed_from_u64(41);
        let nan = generated_nan();
        for (rows, d) in [(0, 3), (1, 1), (3, 9), (7, 10), (17, 33), (40, 12)] {
            let mut x = Tensor::randn(&[rows, d], 3.0, &mut rng).into_vec();
            // −Inf, shifts far past exp's underflow cut, NaN and all −0.
            for (r, row) in x.chunks_mut(d).enumerate() {
                match r % 5 {
                    1 => row[r % d] = f32::NEG_INFINITY,
                    2 => row.iter_mut().step_by(2).for_each(|v| *v *= 40.0),
                    3 => row[0] = nan,
                    4 => row.fill(-0.0),
                    _ => {}
                }
            }
            let dy = Tensor::randn(&[rows, d], 1.0, &mut rng);
            let targets: Vec<usize> = (0..rows).map(|r| (r * 7) % d).collect();
            // Out of order, with a duplicate.
            let pos: Vec<Vec<usize>> = (0..rows)
                .map(|r| {
                    let cols = [r * 3 + 1, r, r * 3 + 1, r + 2, r * 5 + 3, r + 4, r * 7];
                    cols.map(|c| c % d).to_vec()
                })
                .collect();
            let gl = Tensor::from_vec(vec![0.7], &[1]);
            let want = softmax_family_per_row(&x, d, dy.data(), &targets, &pos, 0.7);

            let g = Graph::new();
            let xv = g.constant(Tensor::from_vec(x.clone(), &[rows, d]));
            let soft = g.softmax_last(xv);
            let logs = value_and_grad(&g, g.log_softmax_last(xv), &dy);
            let ce = value_and_grad(&g, g.cross_entropy(xv, &targets), &gl);
            let nce = value_and_grad(&g, g.multi_positive_nce(xv, &pos), &gl);
            let got = [
                &bits(g.value(soft).data()),
                &logs[0],
                &logs[1],
                &ce[0],
                &ce[1],
                &nce[0],
                &nce[1],
            ];
            for (i, (w, g)) in want.iter().zip(got).enumerate() {
                assert_eq!(g, &bits(w), "output {i} at rows={rows} d={d}");
            }
        }
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let g = Graph::new();
        let logits = g.constant(Tensor::from_vec(
            vec![2.0, 0.0, 0.0, 0.0, 3.0, 0.0],
            &[2, 3],
        ));
        let loss = g.value(g.cross_entropy(logits, &[0, 1])).data()[0];
        let l0 = -(2.0f32.exp() / (2.0f32.exp() + 2.0)).ln();
        let l1 = -(3.0f32.exp() / (3.0f32.exp() + 2.0)).ln();
        assert!((loss - (l0 + l1) / 2.0).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[3, 4], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[x],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                g.cross_entropy(xv, &[1, 3, 0])
            },
            1e-2,
        );
    }

    #[test]
    fn multi_positive_nce_reduces_to_ce() {
        // With exactly one positive per row, NCE equals cross-entropy.
        let g = Graph::new();
        let data = Tensor::from_vec(vec![0.5, -0.2, 0.9, 1.0, 0.0, -1.0], &[2, 3]);
        let l1 = g.constant(data.clone());
        let l2 = g.constant(data);
        let nce = g
            .value(g.multi_positive_nce(l1, &[vec![2], vec![0]]))
            .data()[0];
        let ce = g.value(g.cross_entropy(l2, &[2, 0])).data()[0];
        assert!((nce - ce).abs() < 1e-5);
    }

    #[test]
    fn multi_positive_nce_gradcheck() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 5], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[x],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                g.multi_positive_nce(xv, &[vec![0, 2], vec![4]])
            },
            1e-2,
        );
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let g = Graph::new();
        let a = g.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.constant(Tensor::from_vec(vec![5.0, 6.0], &[2, 1]));
        let c = g.concat(&[a, b], 1);
        assert_eq!(g.shape(c), vec![2, 3]);
        assert_eq!(g.value(c).data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        let s = g.slice(c, 1, 2, 1);
        assert_eq!(g.value(s).data(), &[5.0, 6.0]);
    }

    #[test]
    fn concat_gradcheck() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut params = Params::new();
        let a = params.insert("a", Tensor::randn(&[2, 2], 1.0, &mut rng), true);
        let b = params.insert("b", Tensor::randn(&[2, 3], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[a, b],
            &|g, p| {
                let av = g.param(p, p.id("a").unwrap());
                let bv = g.param(p, p.id("b").unwrap());
                let c = g.concat(&[av, bv], 1);
                let sl = g.slice(c, 1, 1, 3);
                let sq = g.mul(sl, sl);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn embedding_gradcheck() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut params = Params::new();
        let w = params.insert("w", Tensor::randn(&[4, 3], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[w],
            &|g, p| {
                let wv = g.param(p, p.id("w").unwrap());
                let e = g.embedding(wv, &[1, 3, 1]);
                let sq = g.mul(e, e);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn broadcast_ops_gradcheck() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 3, 4], 0.5, &mut rng), true);
        let a = params.insert("a", Tensor::randn(&[2, 4], 0.5, &mut rng), true);
        grad_check(
            &mut params,
            &[x, a],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let av = g.param(p, p.id("a").unwrap());
                let m = g.mul_rows_broadcast(xv, av);
                let s = g.add_rows_broadcast(m, av);
                let t = g.tanh(s);
                g.sum_all(t)
            },
            2e-2,
        );
    }

    #[test]
    fn add_bias_gradcheck() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 3], 0.5, &mut rng), true);
        let b = params.insert("b", Tensor::randn(&[3], 0.5, &mut rng), true);
        grad_check(
            &mut params,
            &[x, b],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let bv = g.param(p, p.id("b").unwrap());
                let y = g.add_bias(xv, bv);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn row_l2_normalize_unit_norm_and_gradcheck() {
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![3.0, 4.0, 0.0, 5.0], &[2, 2]));
        let y = g.value(g.row_l2_normalize(x));
        for row in y.data().chunks(2) {
            let n: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }

        let mut rng = StdRng::seed_from_u64(12);
        let mut params = Params::new();
        let xp = params.insert("x", Tensor::randn(&[2, 3], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[xp],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let y = g.row_l2_normalize(xv);
                let c = g.constant(Tensor::from_vec(
                    vec![1.0, 0.5, -0.5, 0.2, 0.3, 0.9],
                    &[2, 3],
                ));
                let m = g.mul(y, c);
                g.sum_all(m)
            },
            2e-2,
        );
    }

    #[test]
    fn permute_0213_self_inverse() {
        let mut rng = StdRng::seed_from_u64(13);
        let t = Tensor::randn(&[2, 3, 20], 1.0, &mut rng);
        let g = Graph::new();
        let v = g.constant(t.clone());
        let p = g.permute_0213(v, [2, 3, 4, 5], &[8, 3, 5]);
        assert_eq!(g.shape(p), vec![8, 3, 5]);
        let pp = g.permute_0213(p, [2, 4, 3, 5], &[2, 3, 20]);
        assert_eq!(g.value(pp), t);
    }

    /// The NaN this target generates (for `inf - inf`). Tests that compare
    /// arithmetic paths bitwise use it as their only NaN payload, so the
    /// result cannot depend on which operand of a NaN-NaN add wins.
    fn generated_nan() -> f32 {
        std::hint::black_box(f32::INFINITY) - f32::INFINITY
    }

    /// A `shape` tensor of values drawn from `rng`, with NaN, ±0 and −Inf
    /// interleaved when `special` is set.
    fn payload(shape: &[usize], special: bool, rng: &mut StdRng) -> Tensor {
        let mut t = Tensor::randn(shape, 1.0, rng);
        if special {
            let specials = [generated_nan(), -0.0, 0.0, f32::NEG_INFINITY];
            for (i, x) in t
                .data_mut()
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| i % 5 == 2)
            {
                *x = specials[(i / 5) % specials.len()];
            }
        }
        t
    }

    /// The 4-D `[a,b,c,d] -> [a,c,b,d]` node as it was before
    /// [`Graph::permute_0213`] took a view: a copy scattered by destination
    /// index, self-inverse, so its backward is the same scatter.
    fn permute_0213_reference(g: &Graph, x: Var) -> Var {
        fn scatter(x: &Tensor) -> Tensor {
            let [a, b, c, d]: [usize; 4] = x.shape().try_into().unwrap();
            let mut out = vec![0.0f32; x.numel()];
            for ai in 0..a {
                for bi in 0..b {
                    for ci in 0..c {
                        let src = ((ai * b + bi) * c + ci) * d;
                        let dst = ((ai * c + ci) * b + bi) * d;
                        out[dst..dst + d].copy_from_slice(&x.data()[src..src + d]);
                    }
                }
            }
            Tensor::from_vec(out, &[a, c, b, d])
        }
        let v = g.with_value(x, scatter);
        g.push_node(
            v,
            vec![x],
            g.bw(|| Box::new(|gr, _, _, _| vec![scatter(gr)])),
        )
    }

    /// Values of the attention-style tape's interior nodes and every
    /// parameter gradient (accumulated onto `-0.0`, which keeps each
    /// gradient's bits), for the fused token ops or the reshape composites
    /// they replace. `x` feeds q, k, v and a residual.
    fn token_tape(params: &mut Params, c: &Tensor, heads: usize, fused: bool) -> Vec<Tensor> {
        let ids: Vec<ParamId> = ["x", "wq", "wk", "wv", "wo"]
            .iter()
            .map(|n| params.id(n).unwrap())
            .collect();
        for &id in &ids {
            params.grad_mut(id).fill(-0.0);
        }
        let g = Graph::new();
        let tokens = |x: Var, w: Var| {
            if fused {
                return g.matmul(x, w, Transpose::None);
            }
            let (s, e) = (g.shape(x), g.shape(w)[1]);
            let flat = g.reshape(x, &[s[0] * s[1], s[2]]);
            let y = g.matmul(flat, w, Transpose::None);
            g.reshape(y, &[s[0], s[1], e])
        };
        let permute = |x: Var, view: [usize; 4], shape: &[usize]| {
            if fused {
                return g.permute_0213(x, view, shape);
            }
            let x4 = g.reshape(x, &view);
            let p = permute_0213_reference(&g, x4);
            g.reshape(p, shape)
        };
        let x = g.param(params, ids[0]);
        let (b, t, d) = (g.shape(x)[0], g.shape(x)[1], g.shape(x)[2]);
        let dh = d / heads;
        let split = |v: Var| permute(v, [b, t, heads, dh], &[b * heads, t, dh]);
        let q = split(tokens(x, g.param(params, ids[1])));
        let k = split(tokens(x, g.param(params, ids[2])));
        let v = split(tokens(x, g.param(params, ids[3])));
        let attn = g.softmax_last(g.matmul(q, k, Transpose::Rhs));
        let ctx = g.matmul(attn, v, Transpose::None);
        let merged = permute(ctx, [b, heads, t, dh], &[b, t, d]);
        let out = tokens(merged, g.param(params, ids[4]));
        let r = g.add(out, x);
        let loss = g.sum_all(g.mul(r, g.constant(c.clone())));
        g.backward(loss, params);
        let mut seen: Vec<Tensor> = [q, k, v, ctx, merged, out, r]
            .iter()
            .map(|&n| g.value(n))
            .collect();
        seen.extend(ids.iter().map(|&id| params.grad(id).clone()));
        seen
    }

    #[test]
    fn fused_token_ops_match_reshape_composites_bitwise() {
        let mut rng = StdRng::seed_from_u64(27);
        for special in [false, true] {
            for b in [1, 3] {
                for t in [1, 9] {
                    for heads in [1, 2, 4] {
                        let d = 2 * heads;
                        let mut params = Params::new();
                        params.insert("x", payload(&[b, t, d], special, &mut rng), true);
                        for w in ["wq", "wk", "wv", "wo"] {
                            params.insert(w, Tensor::randn(&[d, d], 0.5, &mut rng), true);
                        }
                        let c = payload(&[b, t, d], special, &mut rng);
                        let want = token_tape(&mut params, &c, heads, false);
                        let got = token_tape(&mut params, &c, heads, true);
                        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(g.shape(), w.shape(), "tensor {i}");
                            assert_eq!(
                                bits(g.data()),
                                bits(w.data()),
                                "tensor {i} differs at b={b} t={t} heads={heads} special={special}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn permute_0213_moves_every_payload_bit() {
        // Pure data movement: distinct NaN payloads, ±0 and ±Inf survive
        // the fused permute and its backward exactly as the composite.
        let vals: Vec<f32> = (0..2 * 3 * 4 * 2)
            .map(|i| match i % 6 {
                0 => f32::from_bits(0x7fc0_0000 | i as u32),
                1 => -0.0,
                2 => f32::NEG_INFINITY,
                3 => f32::from_bits(0xffc0_0100 | i as u32),
                _ => i as f32 - 7.5,
            })
            .collect();
        let run = |fused: bool| {
            let mut params = Params::new();
            let x = params.insert("x", Tensor::from_vec(vals.clone(), &[2, 3, 8]), true);
            params.grad_mut(x).fill(-0.0);
            let g = Graph::new();
            let xv = g.param(&params, x);
            let p = if fused {
                g.permute_0213(xv, [2, 3, 4, 2], &[8, 3, 2])
            } else {
                let x4 = g.reshape(xv, &[2, 3, 4, 2]);
                let p = permute_0213_reference(&g, x4);
                g.reshape(p, &[8, 3, 2])
            };
            let c = Tensor::from_vec(vals.iter().rev().copied().collect(), &[8, 3, 2]);
            let loss = g.sum_all(g.mul(p, g.constant(c)));
            g.backward(loss, &mut params);
            (g.value(p), params.grad(x).clone())
        };
        let (want, dwant) = run(false);
        let (got, dgot) = run(true);
        assert_eq!(got.shape(), &[8, 3, 2]);
        assert_eq!(bits(got.data()), bits(want.data()));
        assert_eq!(bits(dgot.data()), bits(dwant.data()));
    }

    #[test]
    fn mean_tokens_gradcheck() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 3, 4], 1.0, &mut rng), true);
        grad_check(
            &mut params,
            &[x],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let m = g.mean_tokens(xv);
                let sq = g.mul(m, m);
                g.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn dropout_preserves_expectation_and_masks_gradient() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::ones(&[1000]), true);
        let g = Graph::new();
        let xv = g.param(&params, x);
        let y = g.dropout(xv, 0.3, &mut rng);
        let v = g.value(y);
        let mean = v.sum() / v.numel() as f32;
        assert!((mean - 1.0).abs() < 0.1, "dropout mean {mean}");
        let s = g.sum_all(y);
        g.backward(s, &mut params);
        // Gradient is the same mask: zeros where dropped, 1/keep elsewhere.
        let grads = params.grad(x);
        let zeros = grads.data().iter().filter(|&&v| v == 0.0).count();
        assert!((200..400).contains(&zeros), "dropped {zeros}/1000");
        for &v in grads.data() {
            assert!(v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = g.dropout(x, 0.0, &mut rng);
        assert_eq!(g.value(y).data(), &[1.0, 2.0]);
    }

    #[test]
    fn gradient_accumulates_over_shared_subexpression() {
        let mut params = Params::new();
        let a = params.insert("a", Tensor::from_vec(vec![2.0], &[1]), true);
        let g = Graph::new();
        let av = g.param(&params, a);
        let s = g.add(av, av); // 2a -> da = 2
        let y = g.mul(s, av); // 2a^2 -> dy/da = 4a = 8
        g.backward(y, &mut params);
        assert_eq!(params.grad(a).data(), &[8.0]);
    }

    #[test]
    fn backward_twice_accumulates_param_grads() {
        let mut params = Params::new();
        let a = params.insert("a", Tensor::from_vec(vec![3.0], &[1]), true);
        for _ in 0..2 {
            let g = Graph::new();
            let av = g.param(&params, a);
            let y = g.mul(av, av);
            g.backward(y, &mut params);
        }
        assert_eq!(params.grad(a).data(), &[12.0]); // 2 * (2a)
    }

    /// The stored shapes of `a`, `b` and the output in one cell of the
    /// product table, with `m = 3`, `k = 5` and `n = 2` per kernel call:
    /// `lead` multiplies the rows of a 2-D `a` and is the batch of a 3-D
    /// one, and a batched `b` holds `lead` matrices. `None` for a
    /// combination `matmul` rejects.
    fn product_cell(
        t: Transpose,
        batched: bool,
        lead: usize,
        rank: usize,
    ) -> Option<[Vec<usize>; 3]> {
        let (m, k, n) = (3, 5, 2);
        if batched && rank != 3 {
            return None;
        }
        let (a, out) = match (rank, t) {
            (2, Transpose::Lhs) => (vec![k, lead * m], vec![lead * m, n]),
            (2, _) => (vec![lead * m, k], vec![lead * m, n]),
            (_, Transpose::Lhs) => (vec![lead, k, m], vec![lead, m, n]),
            _ => (vec![lead, m, k], vec![lead, m, n]),
        };
        let mut b = if t == Transpose::Rhs {
            vec![n, k]
        } else {
            vec![k, n]
        };
        if batched {
            b.insert(0, lead);
        }
        Some([a, b, out])
    }

    /// Plain-loop oracle of `matmul(a, b, t)` and both gradients for the
    /// output gradient `g`. Every element is one chain from `0.0` in
    /// ascending order of its summed index; a shared `b`'s gradient sums
    /// the calls in batch order.
    fn product_oracle(t: Transpose, a: &Tensor, b: &Tensor, g: &Tensor) -> [Vec<f32>; 3] {
        let (sa, sb) = (a.shape(), b.shape());
        let (na, nb) = (sa.len(), sb.len());
        let (lhs, rhs) = (t == Transpose::Lhs, t == Transpose::Rhs);
        let (m, k) = if lhs {
            (sa[na - 1], sa[na - 2])
        } else {
            (sa[na - 2], sa[na - 1])
        };
        let n = if rhs { sb[nb - 2] } else { sb[nb - 1] };
        let calls = a.numel() / (m * k);
        let ai = |c: usize, i: usize, p: usize| c * m * k + if lhs { p * m + i } else { i * k + p };
        let bi = |c: usize, p: usize, j: usize| {
            let c = if nb == 3 { c } else { 0 };
            c * k * n + if rhs { j * k + p } else { p * n + j }
        };
        let (a, b, g) = (a.data(), b.data(), g.data());
        let mut y = vec![0.0f32; calls * m * n];
        let mut da = vec![0.0f32; a.len()];
        let mut db = vec![0.0f32; b.len()];
        for c in 0..calls {
            for i in 0..m {
                for j in 0..n {
                    let o = (c * m + i) * n + j;
                    for p in 0..k {
                        y[o] += a[ai(c, i, p)] * b[bi(c, p, j)];
                    }
                }
                for p in 0..k {
                    for j in 0..n {
                        da[ai(c, i, p)] += g[(c * m + i) * n + j] * b[bi(c, p, j)];
                        db[bi(c, p, j)] += a[ai(c, i, p)] * g[(c * m + i) * n + j];
                    }
                }
            }
        }
        [y, da, db]
    }

    /// Bits of `matmul(a, b, t)` and of both gradients under the loss
    /// `Σ y·c` (accumulated onto `-0.0`, which keeps each gradient's bits),
    /// or of the composite that reads the transposed operand through
    /// [`Graph::transpose_last`] into the `None` product.
    fn product_tape(
        params: &mut Params,
        c: &Tensor,
        t: Transpose,
        composite: bool,
    ) -> [Vec<u32>; 3] {
        let ids = [params.id("a").unwrap(), params.id("b").unwrap()];
        for id in ids {
            params.grad_mut(id).fill(-0.0);
        }
        let g = Graph::new();
        let (a, b) = (g.param(params, ids[0]), g.param(params, ids[1]));
        let y = match (composite, t) {
            (true, Transpose::Lhs) => g.matmul(g.transpose_last(a), b, Transpose::None),
            (true, Transpose::Rhs) => g.matmul(a, g.transpose_last(b), Transpose::None),
            _ => g.matmul(a, b, t),
        };
        assert_eq!(g.shape(y), c.shape());
        g.backward(g.sum_all(g.mul(y, g.constant(c.clone()))), params);
        [
            bits(g.value(y).data()),
            bits(params.grad(ids[0]).data()),
            bits(params.grad(ids[1]).data()),
        ]
    }

    #[test]
    fn matmul_table_matches_oracle_composites_and_finite_differences() {
        let mut rng = StdRng::seed_from_u64(30);
        let mut cells = 0;
        for t in [Transpose::None, Transpose::Lhs, Transpose::Rhs] {
            for batched in [false, true] {
                for lead in [1, 3] {
                    for rank in [2, 3] {
                        let Some([sa, sb, out]) = product_cell(t, batched, lead, rank) else {
                            continue;
                        };
                        cells += 1;
                        let cell = format!("{t:?} batched={batched} lead={lead} rank={rank}");
                        for special in [false, true] {
                            let a = payload(&sa, special, &mut rng);
                            let b = payload(&sb, special, &mut rng);
                            let c = payload(&out, special, &mut rng);
                            let want = product_oracle(t, &a, &b, &c).map(|v| bits(&v));
                            let mut params = Params::new();
                            params.insert("a", a, true);
                            params.insert("b", b, true);
                            let got = product_tape(&mut params, &c, t, false);
                            assert_eq!(got, want, "{cell} special={special} vs oracle");
                            let composite = product_tape(&mut params, &c, t, true);
                            assert_eq!(got, composite, "{cell} special={special} vs composite");
                        }
                        let mut params = Params::new();
                        let a = params.insert("a", Tensor::randn(&sa, 0.5, &mut rng), true);
                        let b = params.insert("b", Tensor::randn(&sb, 0.5, &mut rng), true);
                        grad_check(
                            &mut params,
                            &[a, b],
                            &|g, p| {
                                let av = g.param(p, p.id("a").unwrap());
                                let bv = g.param(p, p.id("b").unwrap());
                                g.sum_all(g.tanh(g.matmul(av, bv, t)))
                            },
                            2e-2,
                        );
                    }
                }
            }
        }
        assert_eq!(cells, 18);
    }

    #[test]
    fn matmul_tn_tokens_matches_transpose_composite_bitwise() {
        // Forward values AND parameter gradients of the `Lhs` product must be
        // byte-identical to the explicit transpose_last + `None` composite.
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[3, 5, 4], 1.0, &mut rng);
        let wt = Tensor::randn(&[5, 6], 0.5, &mut rng);

        let run = |fused: bool, params: &mut Params| -> (Tensor, Tensor, Tensor) {
            let xid = params.id("x").unwrap();
            let wid = params.id("w").unwrap();
            params.zero_grad();
            let g = Graph::new();
            let xv = g.param(params, xid);
            let wv = g.param(params, wid);
            let y = if fused {
                g.matmul(xv, wv, Transpose::Lhs)
            } else {
                let t = g.transpose_last(xv);
                g.matmul(t, wv, Transpose::None)
            };
            let out = g.value(y);
            let loss = g.sum_all(g.mul(y, y));
            g.backward(loss, params);
            (out, params.grad(xid).clone(), params.grad(wid).clone())
        };

        let mut params = Params::new();
        params.insert("x", x, true);
        params.insert("w", wt, true);
        let (y_ref, dx_ref, dw_ref) = run(false, &mut params);
        let (y_got, dx_got, dw_got) = run(true, &mut params);
        assert_eq!(y_got.shape(), &[3, 4, 6]);
        assert_eq!(y_got.data(), y_ref.data());
        assert_eq!(dx_got.data(), dx_ref.data());
        assert_eq!(dw_got.data(), dw_ref.data());
    }

    #[test]
    fn matmul_tn_tokens_gradcheck() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut params = Params::new();
        let x = params.insert("x", Tensor::randn(&[2, 4, 3], 0.5, &mut rng), true);
        let w = params.insert("w", Tensor::randn(&[4, 5], 0.5, &mut rng), true);
        grad_check(
            &mut params,
            &[x, w],
            &|g, p| {
                let xv = g.param(p, p.id("x").unwrap());
                let wv = g.param(p, p.id("w").unwrap());
                let y = g.matmul(xv, wv, Transpose::Lhs);
                let t = g.tanh(y);
                g.sum_all(t)
            },
            2e-2,
        );
    }

    /// `matmul` on constants of the given shapes.
    fn product_of_shapes(a: &[usize], b: &[usize], t: Transpose) {
        let g = Graph::new();
        let (av, bv) = (g.constant(Tensor::zeros(a)), g.constant(Tensor::zeros(b)));
        g.matmul(av, bv, t);
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_rejects_inner_dim_mismatch() {
        product_of_shapes(&[2, 3], &[2, 4], Transpose::Rhs);
    }

    #[test]
    #[should_panic(expected = "with b's batch")]
    fn matmul_rejects_batch_mismatch() {
        product_of_shapes(&[2, 3, 4], &[3, 4, 5], Transpose::None);
    }

    #[test]
    #[should_panic(expected = "with b's batch")]
    fn matmul_rejects_batched_b_with_2d_a() {
        product_of_shapes(&[4, 3], &[1, 4, 5], Transpose::Lhs);
    }

    #[test]
    #[should_panic(expected = "rank 2 or 3")]
    fn matmul_rejects_4d_b() {
        product_of_shapes(&[1, 2, 3, 4], &[1, 2, 4, 5], Transpose::None);
    }

    #[test]
    fn inference_graph_values_match_training_graph() {
        // One composite forward touching most op families, replayed twice on
        // a single inference graph and compared bitwise against the tape.
        let mut rng = StdRng::seed_from_u64(17);
        let mut params = Params::new();
        let w = params.insert("w", Tensor::randn(&[4, 4], 0.7, &mut rng), true);
        let gain = params.insert("gain", Tensor::ones(&[4]), true);
        let bias = params.insert("bias", Tensor::zeros(&[4]), true);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);

        let build = |g: &Graph, params: &Params, x: &Tensor| -> Tensor {
            let wv = g.param(params, w);
            let gv = g.param(params, gain);
            let bv = g.param(params, bias);
            let xv = g.input(x);
            let h = g.matmul(xv, wv, Transpose::None);
            let h = g.layer_norm(h, gv, bv, 1e-5);
            let h = g.gelu(h);
            let h = g.softmax_last(h);
            g.value(h)
        };

        let reference = {
            let g = Graph::new();
            build(&g, &params, &x)
        };
        let g = Graph::inference();
        for _ in 0..3 {
            let got = build(&g, &params, &x);
            assert_eq!(got.data(), reference.data());
            assert!(!g.nodes.borrow().is_empty());
            g.reset();
            assert!(g.nodes.borrow().is_empty());
        }
    }

    #[test]
    fn scratch_stats_count_reserve_reuse_and_peak() {
        let _ = take_scratch_stats(); // open a clean window
        let mut scratch = Scratch::default();
        let a = scratch.take_zeroed(8); // miss: 32 bytes reserved
        scratch.recycle(a); // 32 bytes parked
        let b = scratch.take_zeroed(4); // hit: 16 bytes reused
        scratch.recycle(b);
        drop(scratch);
        let stats = take_scratch_stats();
        assert_eq!(stats.reserved_count, 1);
        assert_eq!(stats.reserved_bytes, 32);
        assert_eq!(stats.reused_count, 1);
        assert_eq!(stats.reused_bytes, 16);
        assert!(
            stats.peak_pool_bytes >= 32,
            "peak {}",
            stats.peak_pool_bytes
        );
        // The window reset: a fresh snapshot shows no flows, and the peak
        // reflects only still-parked bytes (none — the arena was dropped).
        let fresh = take_scratch_stats();
        assert_eq!(fresh.reserved_count, 0);
        assert_eq!(fresh.reused_count, 0);
    }

    #[test]
    fn inference_replay_reuses_buffers_per_scratch_stats() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut params = Params::new();
        params.insert("w", Tensor::randn(&[4, 4], 0.1, &mut rng), true);
        params.insert("gain", Tensor::ones(&[4]), true);
        params.insert("bias", Tensor::zeros(&[4]), true);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let g = Graph::inference();
        let run = |g: &Graph| {
            let wv = g.param(&params, params.id("w").unwrap());
            let xv = g.input(&x);
            let h = g.matmul(xv, wv, Transpose::None);
            // LayerNorm's transposed-block temporary comes from the pool too.
            let gain = g.param(&params, params.id("gain").unwrap());
            let bias = g.param(&params, params.id("bias").unwrap());
            let h = g.layer_norm(h, gain, bias, 1e-5);
            let _ = g.value(h);
            g.reset();
        };
        run(&g); // warm the value pool
        let _ = take_scratch_stats();
        run(&g);
        let stats = take_scratch_stats();
        assert!(
            stats.reused_count > 0,
            "steady-state replay must hit the pool: {stats:?}"
        );
        assert_eq!(
            stats.reserved_count, 0,
            "steady-state replay must not allocate: {stats:?}"
        );
    }
}
