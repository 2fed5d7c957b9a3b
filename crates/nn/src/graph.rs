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

use crate::gemm::{gemm, gemm_nt, gemm_tn};
use crate::params::{ParamId, Params};
use crate::tanh::tanh_in_place;
use crate::tensor::Tensor;

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
/// refilled by [`Graph::reset`] — so replaying same-shaped batches through
/// one inference graph allocates nothing in steady state.
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
    /// or backward closures, [`Graph::backward`] panics, and
    /// [`Graph::reset`] recycles every node's buffer into a pool reused by
    /// the next forward pass. This is the core of the tape-free inference
    /// engine (see [`crate::infer::InferenceSession`]).
    pub fn inference() -> Self {
        Self {
            inference: true,
            ..Self::default()
        }
    }

    /// Whether this graph is a forward-only (inference) plan.
    pub fn is_inference(&self) -> bool {
        self.inference
    }

    /// Clears the tape so the graph can replay another forward pass. On an
    /// inference graph every node's value buffer is recycled into the
    /// forward pool first, so a replay of the same batch shape allocates
    /// nothing; on a training graph the nodes are simply dropped.
    pub fn reset(&self) {
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

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
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

    /// Elementwise `a - b` (same shapes).
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let v = self.zip_value(a, b, |x, y| x - y);
        self.push(
            v,
            self.deps(&[a.id, b.id]),
            self.bw(|| {
                Box::new(|g, _, _, scr| {
                    let mut db = scr.take_copied(g.data());
                    for x in &mut db {
                        *x = -*x;
                    }
                    vec![
                        Tensor::from_vec(scr.take_copied(g.data()), g.shape()),
                        Tensor::from_vec(db, g.shape()),
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

    /// Elementwise `a / b` (same shapes).
    pub fn div(&self, a: Var, b: Var) -> Var {
        let v = self.zip_value(a, b, |x, y| x / y);
        self.push(
            v,
            self.deps(&[a.id, b.id]),
            self.bw(|| {
                Box::new(|g, p, _, _scr| {
                    let da = g.zip(p[1], |gi, bi| gi / bi);
                    let mut db = g.zip(p[0], |gi, ai| gi * ai);
                    db = db.zip(p[1], |x, bi| -x / (bi * bi));
                    vec![da, db]
                })
            }),
            None,
        )
    }

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        let v = self.unary_value(a, |x| -x);
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(|g, _, _, _scr| vec![g.map(|x| -x)])),
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

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let v = self.unary_value(a, |x| x.max(0.0));
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| {
                Box::new(
                    |g, p, _, _scr| vec![g.zip(p[0], |gi, xi| if xi > 0.0 { gi } else { 0.0 })],
                )
            }),
            None,
        )
    }

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

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let v = self.unary_value(a, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(|g, _, y, _scr| vec![g.zip(y, |gi, yi| gi * yi * (1.0 - yi))])),
            None,
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self, a: Var) -> Var {
        let v = self.unary_value(a, f32::exp);
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(|g, _, y, _scr| vec![g.zip(y, |gi, yi| gi * yi)])),
            None,
        )
    }

    /// Elementwise natural log.
    pub fn ln(&self, a: Var) -> Var {
        let v = self.unary_value(a, f32::ln);
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(|g, p, _, _scr| vec![g.zip(p[0], |gi, xi| gi / xi)])),
            None,
        )
    }

    /// Elementwise square root.
    pub fn sqrt(&self, a: Var) -> Var {
        let v = self.unary_value(a, f32::sqrt);
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(|g, _, y, _scr| vec![g.zip(y, |gi, yi| gi / (2.0 * yi))])),
            None,
        )
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// 2-D matrix product `a [m,k] x b [k,n]`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[b.id].value);
            assert_eq!(av.ndim(), 2, "matmul lhs must be 2-D, got {:?}", av.shape());
            assert_eq!(bv.ndim(), 2, "matmul rhs must be 2-D, got {:?}", bv.shape());
            let (m, k) = (av.shape()[0], av.shape()[1]);
            let (k2, n) = (bv.shape()[0], bv.shape()[1]);
            assert_eq!(
                k,
                k2,
                "matmul inner dim mismatch: {:?} x {:?}",
                av.shape(),
                bv.shape()
            );
            let mut out = self.out_zeroed(m * n);
            gemm(av.data(), bv.data(), &mut out, m, k, n);
            Tensor::from_vec(out, &[m, n])
        };
        self.push(
            v,
            self.deps(&[a.id, b.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    // da = g · bᵀ and db = aᵀ · g through the layout-aware
                    // kernels: no transposed copies, same accumulation order.
                    let (m, k) = (p[0].shape()[0], p[0].shape()[1]);
                    let n = p[1].shape()[1];
                    let mut da = scr.take_zeroed(m * k);
                    gemm_nt(g.data(), p[1].data(), &mut da, m, n, k);
                    let mut db = scr.take_zeroed(k * n);
                    gemm_tn(p[0].data(), g.data(), &mut db, k, m, n);
                    vec![
                        Tensor::from_vec(da, p[0].shape()),
                        Tensor::from_vec(db, p[1].shape()),
                    ]
                })
            }),
            None,
        )
    }

    /// 2-D product with the right operand read transposed in place:
    /// `a [m,k] x bt [n,k] -> [m,n]` without materializing `btᵀ`.
    ///
    /// Byte-identical to `matmul(a, transpose_last(bt))` — per-element
    /// accumulation order is unchanged — but skips the transpose copy and
    /// its tape node. Used for similarity matrices (`x · cᵀ`).
    pub fn matmul_nt(&self, a: Var, bt: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[bt.id].value);
            assert_eq!(av.ndim(), 2, "matmul_nt lhs must be 2-D");
            assert_eq!(bv.ndim(), 2, "matmul_nt rhs must be 2-D");
            let (m, k) = (av.shape()[0], av.shape()[1]);
            let (n, k2) = (bv.shape()[0], bv.shape()[1]);
            assert_eq!(k, k2, "matmul_nt inner dim mismatch");
            let mut out = self.out_zeroed(m * n);
            gemm_nt(av.data(), bv.data(), &mut out, m, k, n);
            Tensor::from_vec(out, &[m, n])
        };
        self.push(
            v,
            self.deps(&[a.id, bt.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    let (m, k) = (p[0].shape()[0], p[0].shape()[1]);
                    let n = p[1].shape()[0];
                    // da = g · bt (plain product); dbt = gᵀ · a.
                    let mut da = scr.take_zeroed(m * k);
                    gemm(g.data(), p[1].data(), &mut da, m, n, k);
                    let mut dbt = scr.take_zeroed(n * k);
                    gemm_tn(g.data(), p[0].data(), &mut dbt, n, m, k);
                    vec![
                        Tensor::from_vec(da, p[0].shape()),
                        Tensor::from_vec(dbt, p[1].shape()),
                    ]
                })
            }),
            None,
        )
    }

    /// Batched 3-D matrix product `a [b,m,k] x b [b,k,n]`.
    pub fn bmm(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[b.id].value);
            assert_eq!(av.ndim(), 3, "bmm lhs must be 3-D, got {:?}", av.shape());
            assert_eq!(bv.ndim(), 3, "bmm rhs must be 3-D, got {:?}", bv.shape());
            let (bb, m, k) = (av.shape()[0], av.shape()[1], av.shape()[2]);
            let (bb2, k2, n) = (bv.shape()[0], bv.shape()[1], bv.shape()[2]);
            assert_eq!(bb, bb2, "bmm batch mismatch");
            assert_eq!(k, k2, "bmm inner dim mismatch");
            let mut out = self.out_zeroed(bb * m * n);
            for bi in 0..bb {
                gemm(
                    &av.data()[bi * m * k..(bi + 1) * m * k],
                    &bv.data()[bi * k * n..(bi + 1) * k * n],
                    &mut out[bi * m * n..(bi + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            Tensor::from_vec(out, &[bb, m, n])
        };
        self.push(
            v,
            self.deps(&[a.id, b.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    let (bb, m, k) = (p[0].shape()[0], p[0].shape()[1], p[0].shape()[2]);
                    let n = p[1].shape()[2];
                    let mut da = scr.take_zeroed(bb * m * k);
                    let mut db = scr.take_zeroed(bb * k * n);
                    for bi in 0..bb {
                        let gs = &g.data()[bi * m * n..(bi + 1) * m * n];
                        let avs = &p[0].data()[bi * m * k..(bi + 1) * m * k];
                        let bvs = &p[1].data()[bi * k * n..(bi + 1) * k * n];
                        gemm_nt(gs, bvs, &mut da[bi * m * k..(bi + 1) * m * k], m, n, k);
                        gemm_tn(avs, gs, &mut db[bi * k * n..(bi + 1) * k * n], k, m, n);
                    }
                    vec![
                        Tensor::from_vec(da, p[0].shape()),
                        Tensor::from_vec(db, p[1].shape()),
                    ]
                })
            }),
            None,
        )
    }

    /// Batched product with the right operand read transposed in place:
    /// `a [b,m,k] x bt [b,n,k] -> [b,m,n]` without materializing `btᵀ`.
    ///
    /// Byte-identical to `bmm(a, transpose_last(bt))`; used for attention
    /// scores `q · kᵀ` so no transposed copy of `k` is ever built.
    pub fn bmm_nt(&self, a: Var, bt: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[bt.id].value);
            assert_eq!(av.ndim(), 3, "bmm_nt lhs must be 3-D");
            assert_eq!(bv.ndim(), 3, "bmm_nt rhs must be 3-D");
            let (bb, m, k) = (av.shape()[0], av.shape()[1], av.shape()[2]);
            let (bb2, n, k2) = (bv.shape()[0], bv.shape()[1], bv.shape()[2]);
            assert_eq!(bb, bb2, "bmm_nt batch mismatch");
            assert_eq!(k, k2, "bmm_nt inner dim mismatch");
            let mut out = self.out_zeroed(bb * m * n);
            for bi in 0..bb {
                gemm_nt(
                    &av.data()[bi * m * k..(bi + 1) * m * k],
                    &bv.data()[bi * n * k..(bi + 1) * n * k],
                    &mut out[bi * m * n..(bi + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            Tensor::from_vec(out, &[bb, m, n])
        };
        self.push(
            v,
            self.deps(&[a.id, bt.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    let (bb, m, k) = (p[0].shape()[0], p[0].shape()[1], p[0].shape()[2]);
                    let n = p[1].shape()[1];
                    let mut da = scr.take_zeroed(bb * m * k);
                    let mut dbt = scr.take_zeroed(bb * n * k);
                    for bi in 0..bb {
                        let gs = &g.data()[bi * m * n..(bi + 1) * m * n];
                        let avs = &p[0].data()[bi * m * k..(bi + 1) * m * k];
                        let bvs = &p[1].data()[bi * n * k..(bi + 1) * n * k];
                        gemm(gs, bvs, &mut da[bi * m * k..(bi + 1) * m * k], m, n, k);
                        gemm_tn(gs, avs, &mut dbt[bi * n * k..(bi + 1) * n * k], n, m, k);
                    }
                    vec![
                        Tensor::from_vec(da, p[0].shape()),
                        Tensor::from_vec(dbt, p[1].shape()),
                    ]
                })
            }),
            None,
        )
    }

    /// Applies the same matrix to every token: `x [b,t,d] x w [d,e] -> [b,t,e]`.
    pub fn matmul_tokens(&self, x: Var, w: Var) -> Var {
        let (b, t, d) = {
            let s = self.shape(x);
            assert_eq!(s.len(), 3, "matmul_tokens expects 3-D input, got {s:?}");
            (s[0], s[1], s[2])
        };
        let e = self.shape(w)[1];
        let flat = self.reshape(x, &[b * t, d]);
        let out = self.matmul(flat, w);
        self.reshape(out, &[b, t, e])
    }

    /// Applies the same matrix to every *last-axis-transposed* token slice:
    /// `x [b,s,d] x w [s,h] -> [b,d,h]`, computing `x_bᵀ · w` per batch via
    /// `gemm_tn` without materializing the `[b,d,s]` transpose.
    ///
    /// Byte-identical to `matmul_tokens(transpose_last(x), w)` in both the
    /// forward and backward passes: every output (and gradient) element is
    /// accumulated over the same ascending-k chain the explicit-transpose
    /// composite runs, just read through a strided layout.
    pub fn matmul_tn_tokens(&self, x: Var, w: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (xv, wv) = (&nodes[x.id].value, &nodes[w.id].value);
            assert_eq!(
                xv.ndim(),
                3,
                "matmul_tn_tokens expects 3-D input, got {:?}",
                xv.shape()
            );
            assert_eq!(wv.ndim(), 2, "matmul_tn_tokens weight must be 2-D");
            let (b, s, d) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
            let (s2, h) = (wv.shape()[0], wv.shape()[1]);
            assert_eq!(
                s,
                s2,
                "matmul_tn_tokens inner dim mismatch: {:?} x {:?}",
                xv.shape(),
                wv.shape()
            );
            let mut out = self.out_zeroed(b * d * h);
            for bi in 0..b {
                gemm_tn(
                    &xv.data()[bi * s * d..(bi + 1) * s * d],
                    wv.data(),
                    &mut out[bi * d * h..(bi + 1) * d * h],
                    d,
                    s,
                    h,
                );
            }
            Tensor::from_vec(out, &[b, d, h])
        };
        self.push(
            v,
            self.deps(&[x.id, w.id]),
            self.bw(|| {
                Box::new(|g, p, _, scr| {
                    let (b, s, d) = (p[0].shape()[0], p[0].shape()[1], p[0].shape()[2]);
                    let h = p[1].shape()[1];
                    let mut dx = scr.take_zeroed(b * s * d);
                    let mut dw = scr.take_zeroed(s * h);
                    for bi in 0..b {
                        let gs = &g.data()[bi * d * h..(bi + 1) * d * h];
                        let xs = &p[0].data()[bi * s * d..(bi + 1) * s * d];
                        // dx_b = w · g_bᵀ  (layout-aware, no transposed copy);
                        // dw  += x_b · g_b, accumulated batch-by-batch in the
                        // same (batch, row) order as the flattened composite.
                        gemm_nt(
                            p[1].data(),
                            gs,
                            &mut dx[bi * s * d..(bi + 1) * s * d],
                            s,
                            h,
                            d,
                        );
                        gemm(xs, gs, &mut dw[..], s, d, h);
                    }
                    vec![
                        Tensor::from_vec(dx, p[0].shape()),
                        Tensor::from_vec(dw, p[1].shape()),
                    ]
                })
            }),
            None,
        )
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

    /// Swaps axes 1 and 2 of a 4-D tensor (`[a,b,c,d] -> [a,c,b,d]`);
    /// used to split/merge attention heads. Self-inverse.
    pub fn permute_0213(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            let s = av.shape();
            let (sa, sb, sc, sd) = (s[0], s[1], s[2], s[3]);
            // Output-major fill: sequential writes of contiguous `d`-runs
            // with no zero-fill pass (the permutation keeps the last axis
            // contiguous on both sides).
            let mut out = self.out_cleared(av.numel());
            for ai in 0..sa {
                for ci in 0..sc {
                    for bi in 0..sb {
                        let src = ((ai * sb + bi) * sc + ci) * sd;
                        out.extend_from_slice(&av.data()[src..src + sd]);
                    }
                }
            }
            Tensor::from_vec(out, &[sa, sc, sb, sd])
        };
        self.push(
            v,
            self.deps(&[a.id]),
            self.bw(|| Box::new(|g, _, _, _scr| vec![permute_0213_tensor(g)])),
            None,
        )
    }

    // ---------------------------------------------------------------------
    // Broadcasting helpers
    // ---------------------------------------------------------------------

    /// Adds a `[d]` bias to every trailing row of `x [..., d]`.
    pub fn add_bias(&self, x: Var, bias: Var) -> Var {
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
    pub fn mul_rows_broadcast(&self, x: Var, a: Var) -> Var {
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
    pub fn add_rows_broadcast(&self, x: Var, a: Var) -> Var {
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

    /// Mean of all elements, as a `[1]` tensor.
    pub fn mean_all(&self, a: Var) -> Var {
        let n = self.nodes.borrow()[a.id].value.numel() as f32;
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n)
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
            let mut out = self.out_zeroed(xv.numel());
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
    pub fn log_softmax_last(&self, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[a.id].value;
            let d = *xv.shape().last().expect("log_softmax 0-d");
            let mut out = self.out_zeroed(xv.numel());
            for (orow, xrow) in out.chunks_mut(d).zip(xv.data().chunks(d)) {
                let m = xrow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lse = m + xrow.iter().map(|x| (x - m).exp()).sum::<f32>().ln();
                for (o, &x) in orow.iter_mut().zip(xrow) {
                    *o = x - lse;
                }
            }
            Tensor::from_vec(out, xv.shape())
        };
        self.push(
            value,
            self.deps(&[a.id]),
            self.bw(|| {
                Box::new(|g, _, y, scr| {
                    let d = *y.shape().last().expect("log_softmax 0-d");
                    let mut out = scr.take_zeroed(y.numel());
                    for ((orow, grow), yrow) in out
                        .chunks_mut(d)
                        .zip(g.data().chunks(d))
                        .zip(y.data().chunks(d))
                    {
                        let gsum: f32 = grow.iter().sum();
                        for ((o, &gi), &yi) in orow.iter_mut().zip(grow).zip(yrow) {
                            *o = gi - yi.exp() * gsum;
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
    /// `x [..., d]`, `gain [d]`, `bias [d]`.
    pub fn layer_norm(&self, x: Var, gain: Var, bias: Var, eps: f32) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            let gv = &nodes[gain.id].value;
            let bv = &nodes[bias.id].value;
            let d = *xv.shape().last().expect("layer_norm 0-d");
            assert_eq!(gv.shape(), [d], "layer_norm gain shape");
            assert_eq!(bv.shape(), [d], "layer_norm bias shape");
            let mut out = self.out_zeroed(xv.numel());
            for (orow, xrow) in out.chunks_mut(d).zip(xv.data().chunks(d)) {
                let mu = xrow.iter().sum::<f32>() / d as f32;
                let var = xrow.iter().map(|x| (x - mu) * (x - mu)).sum::<f32>() / d as f32;
                let inv = 1.0 / (var + eps).sqrt();
                for (j, (o, &x)) in orow.iter_mut().zip(xrow).enumerate() {
                    *o = gv.data()[j] * (x - mu) * inv + bv.data()[j];
                }
            }
            Tensor::from_vec(out, xv.shape())
        };
        self.push(
            value,
            self.deps(&[x.id, gain.id, bias.id]),
            self.bw(|| {
                Box::new(move |g, p, _, scr| {
                    let xv = p[0];
                    let gv = p[1];
                    let d = *xv.shape().last().expect("layer_norm 0-d");
                    let df = d as f32;
                    let mut dx = scr.take_zeroed(xv.numel());
                    let mut dgain = scr.take_zeroed(d);
                    let mut dbias = scr.take_zeroed(d);
                    // Per-row work buffers, reused across rows (fully overwritten).
                    let mut xhat = scr.take_zeroed(d);
                    let mut dxhat = scr.take_zeroed(d);
                    for (rowi, (xrow, grow)) in
                        xv.data().chunks(d).zip(g.data().chunks(d)).enumerate()
                    {
                        let mu = xrow.iter().sum::<f32>() / df;
                        let var = xrow.iter().map(|x| (x - mu) * (x - mu)).sum::<f32>() / df;
                        let inv = 1.0 / (var + eps).sqrt();
                        // xhat_j = (x_j - mu) * inv; dy_j flows through gain.
                        let mut sum_dxhat = 0.0f32;
                        let mut sum_dxhat_xhat = 0.0f32;
                        for j in 0..d {
                            xhat[j] = (xrow[j] - mu) * inv;
                            dxhat[j] = grow[j] * gv.data()[j];
                            sum_dxhat += dxhat[j];
                            sum_dxhat_xhat += dxhat[j] * xhat[j];
                            dgain[j] += grow[j] * xhat[j];
                            dbias[j] += grow[j];
                        }
                        let dst = &mut dx[rowi * d..(rowi + 1) * d];
                        for j in 0..d {
                            dst[j] =
                                inv / df * (df * dxhat[j] - sum_dxhat - xhat[j] * sum_dxhat_xhat);
                        }
                    }
                    scr.recycle(xhat);
                    scr.recycle(dxhat);
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
            let mut loss = 0.0f32;
            for (row, &t) in lv.data().chunks(k).zip(&tg) {
                assert!(t < k, "target {t} out of range for {k} classes");
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lse = m + row.iter().map(|x| (x - m).exp()).sum::<f32>().ln();
                loss += lse - row[t];
            }
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
            let mut loss = 0.0f32;
            for (row, ps) in lv.data().chunks(m).zip(&pos) {
                assert!(!ps.is_empty(), "each row needs at least one positive");
                let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let denom: f32 = row.iter().map(|x| (x - mx).exp()).sum();
                let numer: f32 = ps
                    .iter()
                    .map(|&j| {
                        assert!(j < m, "positive index {j} out of range");
                        (row[j] - mx).exp()
                    })
                    .sum();
                loss -= (numer / denom).ln();
            }
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
                    let mut out = scr.take_zeroed(b * m);
                    // Per-row exp buffer, reused across rows (fully overwritten).
                    let mut exps = scr.take_zeroed(m);
                    for ((orow, row), ps) in out.chunks_mut(m).zip(p[0].data().chunks(m)).zip(&pos)
                    {
                        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                        for (e, &x) in exps.iter_mut().zip(row) {
                            *e = (x - mx).exp();
                        }
                        let denom: f32 = exps.iter().sum();
                        let numer: f32 = ps.iter().map(|&j| exps[j]).sum();
                        for j in 0..m {
                            let soft = exps[j] / denom;
                            let pos_soft = if ps.contains(&j) {
                                exps[j] / numer
                            } else {
                                0.0
                            };
                            orow[j] = gs * (soft - pos_soft);
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
    pub fn dropout<R: rand::Rng>(&self, x: Var, p: f32, rng: &mut R) -> Var {
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

    /// Mean squared error against a constant target.
    pub fn mse_against(&self, x: Var, target: &Tensor) -> Var {
        let t = self.constant(target.clone());
        let d = self.sub(x, t);
        let sq = self.mul(d, d);
        self.mean_all(sq)
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
    let mut out = vec![0.0f32; x.numel()];
    softmax_last_into(x, &mut out);
    Tensor::from_vec(out, x.shape())
}

/// Writes the last-axis softmax of `x` into `out` (caller-provided buffer,
/// same arithmetic as [`softmax_last_tensor`]).
fn softmax_last_into(x: &Tensor, out: &mut [f32]) {
    let d = *x.shape().last().expect("softmax on 0-d tensor");
    for (orow, xrow) in out.chunks_mut(d).zip(x.data().chunks(d)) {
        let m = xrow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &xv) in orow.iter_mut().zip(xrow) {
            *o = (xv - m).exp();
            sum += *o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
}

/// `[a,b,c,d] -> [a,c,b,d]`.
fn permute_0213_tensor(x: &Tensor) -> Tensor {
    let mut out = vec![0.0f32; x.numel()];
    permute_0213_into(x, &mut out);
    let s = x.shape();
    Tensor::from_vec(out, &[s[0], s[2], s[1], s[3]])
}

/// Writes the 0213-permutation of `x` into `out` (same layout as
/// [`permute_0213_tensor`], but against a caller-provided buffer).
fn permute_0213_into(x: &Tensor, out: &mut [f32]) {
    assert_eq!(
        x.ndim(),
        4,
        "permute_0213 expects 4-D input, got {:?}",
        x.shape()
    );
    let (a, b, c, d) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    for ai in 0..a {
        for bi in 0..b {
            for ci in 0..c {
                let src = ((ai * b + bi) * c + ci) * d;
                let dst = ((ai * c + ci) * b + bi) * d;
                out[dst..dst + d].copy_from_slice(&x.data()[src..src + d]);
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
                let c = g.matmul(av, bv);
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
                let c = g.bmm(av, bv);
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
            // Avoid 0.0 exactly: ReLU is non-differentiable there.
            Tensor::from_vec(vec![-1.5, -0.3, 0.2, 1.7, 0.4, 2.5], &[6]),
            true,
        );
        for act in ["relu", "gelu", "tanh", "sigmoid", "exp"] {
            grad_check(
                &mut params,
                &[x],
                &|g, p| {
                    let xv = g.param(p, p.id("x").unwrap());
                    let y = match act {
                        "relu" => g.relu(xv),
                        "gelu" => g.gelu(xv),
                        "tanh" => g.tanh(xv),
                        "sigmoid" => g.sigmoid(xv),
                        _ => g.exp(xv),
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
                g.mean_all(w)
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
        let t = Tensor::randn(&[2, 3, 4, 5], 1.0, &mut rng);
        let g = Graph::new();
        let v = g.constant(t.clone());
        let p = g.permute_0213(v);
        assert_eq!(g.shape(p), vec![2, 4, 3, 5]);
        let pp = g.permute_0213(p);
        assert_eq!(g.value(pp), t);
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
        let mean = g.value(y).mean();
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

    #[test]
    fn matmul_tn_tokens_matches_transpose_composite_bitwise() {
        // Forward values AND parameter gradients must be byte-identical to
        // the explicit transpose_last + matmul_tokens composite.
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
                g.matmul_tn_tokens(xv, wv)
            } else {
                let t = g.transpose_last(xv);
                g.matmul_tokens(t, wv)
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
                let y = g.matmul_tn_tokens(xv, wv);
                let t = g.tanh(y);
                g.sum_all(t)
            },
            2e-2,
        );
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
            let h = g.matmul(xv, wv);
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
            assert!(!g.is_empty());
            g.reset();
            assert!(g.is_empty());
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
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let g = Graph::inference();
        let run = |g: &Graph| {
            let wv = g.param(&params, params.id("w").unwrap());
            let xv = g.input(&x);
            let h = g.matmul(xv, wv);
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
