//! Tape-free inference sessions: reusable forward plans for serving.
//!
//! Training builds a fresh [`Graph`] per forward pass and pays full autograd
//! tax — boxed backward closures, parent edges, and a heap allocation per
//! node value — even when no gradient is ever taken. The FDIL protocol
//! evaluates the global model on *every seen domain after every task*, so
//! that tax compounds O(tasks²) over a run.
//!
//! An [`InferenceSession`] owns a forward-only [`Graph`] (see
//! [`Graph::inference`]) and replays model builders through it. After each
//! [`InferenceSession::forward`] the tape is reset and every node's value
//! buffer is recycled into the graph's forward pool, so replaying batches of
//! the same shape reaches zero steady-state allocations while producing
//! values bit-identical to the taped forward (same kernels, same arithmetic,
//! same traversal order — only the buffers' provenance differs).
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use refil_nn::{layers::Linear, InferenceSession, Params, Tensor};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let model = Linear::new(&mut params, "clf", 2, 2, true, &mut rng);
//! let mut session = InferenceSession::new();
//! for _ in 0..3 {
//!     let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
//!     let preds = session.forward(|g| {
//!         let xv = g.input(&x);
//!         g.argmax_last(model.forward(g, &params, xv))
//!     });
//!     assert_eq!(preds.len(), 2);
//! }
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use crate::graph::Graph;

/// Process-wide override forcing new sessions onto the taped path.
static FORCE_TAPED: AtomicBool = AtomicBool::new(false);

/// Forces every subsequently created [`InferenceSession`] onto the taped
/// forward path: the reference the tape-free path is tested against.
/// Intended for bit-exactness tests only; serialize tests that flip this.
pub fn force_taped(on: bool) {
    FORCE_TAPED.store(on, Ordering::SeqCst);
}

/// A reusable forward plan for tape-free prediction.
///
/// Create one per serving thread and funnel every forward pass through
/// [`InferenceSession::forward`]; the closure receives the session's graph
/// and returns whatever owned result it extracts (predictions, logits). The
/// graph is reset after the closure returns, so `Var` handles must not
/// escape it.
#[derive(Debug)]
pub struct InferenceSession {
    graph: Graph,
    taped: bool,
}

impl InferenceSession {
    /// A tape-free session backed by a pooled forward-only graph — unless
    /// [`force_taped`] is in effect at creation time, in which case every
    /// forward pass builds a fresh training-mode tape (boxed backward
    /// closures and all), the reference the tape-free path must match.
    pub fn new() -> Self {
        let taped = FORCE_TAPED.load(Ordering::SeqCst);
        Self {
            graph: if taped {
                Graph::new()
            } else {
                Graph::inference()
            },
            taped,
        }
    }

    /// Runs one forward pass. `build` must extract an owned result (e.g.
    /// predictions via [`Graph::argmax_last`] or a value clone) before
    /// returning — the tape is cleared as soon as the closure finishes.
    pub fn forward<R>(&mut self, build: impl FnOnce(&Graph) -> R) -> R {
        if self.taped {
            // Fresh tape per call: full per-node allocation and closure
            // boxing, exactly what the training-path predict used to do.
            let g = Graph::new();
            build(&g)
        } else {
            let out = build(&self.graph);
            self.graph.reset();
            out
        }
    }
}

impl Default for InferenceSession {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Transpose;
    use crate::params::Params;
    use crate::tensor::Tensor;

    #[test]
    fn session_replay_matches_fresh_graph() {
        let mut params = Params::new();
        let w = params.insert(
            "w",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]),
            true,
        );
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25], &[2, 2]);

        let reference = {
            let g = Graph::new();
            let wv = g.param(&params, w);
            let xv = g.constant(x.clone());
            let y = g.softmax_last(g.matmul(xv, wv, Transpose::None));
            g.value(y)
        };

        let mut session = InferenceSession::new();
        for _ in 0..4 {
            let got = session.forward(|g| {
                let wv = g.param(&params, w);
                let xv = g.input(&x);
                let y = g.softmax_last(g.matmul(xv, wv, Transpose::None));
                g.value(y)
            });
            assert_eq!(got.data(), reference.data());
            assert_eq!(got.shape(), reference.shape());
        }
    }

    #[test]
    fn session_handles_changing_batch_shapes() {
        let mut params = Params::new();
        let w = params.insert(
            "w",
            Tensor::from_vec(vec![1.0, -1.0, 0.5, 2.0], &[2, 2]),
            true,
        );
        let mut session = InferenceSession::new();
        for rows in [1usize, 3, 2, 5, 1] {
            let x = Tensor::from_vec((0..rows * 2).map(|i| i as f32 * 0.1).collect(), &[rows, 2]);
            let reference = {
                let g = Graph::new();
                let wv = g.param(&params, w);
                let xv = g.constant(x.clone());
                g.value(g.matmul(xv, wv, Transpose::None))
            };
            let got = session.forward(|g| {
                let wv = g.param(&params, w);
                let xv = g.input(&x);
                g.value(g.matmul(xv, wv, Transpose::None))
            });
            assert_eq!(got.data(), reference.data());
        }
    }

    #[test]
    #[should_panic(expected = "forward-only")]
    fn backward_panics_on_inference_graph() {
        let mut params = Params::new();
        let w = params.insert("w", Tensor::from_vec(vec![2.0], &[1]), true);
        let g = Graph::inference();
        let wv = g.param(&params, w);
        let y = g.mul(wv, wv);
        g.backward(y, &mut params);
    }
}
