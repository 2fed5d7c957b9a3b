//! # refil-nn
//!
//! A minimal, dependency-light neural-network substrate written for the
//! RefFiL reproduction: dense `f32` tensors, a reverse-mode autograd tape,
//! the layers the paper's backbone needs (linear, layer norm, multi-head
//! attention, FiLM, embeddings, a residual feature extractor, a frozen patch
//! tokenizer), SGD/Adam optimizers, and composite losses (knowledge
//! distillation, EWC penalty).
//!
//! Everything is deterministic given a seeded [`rand::Rng`]; gradients are
//! validated against finite differences in the test suite.
//!
//! # Examples
//!
//! Train a tiny classifier:
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use refil_nn::{layers::Linear, Graph, Params, Sgd, Tensor};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let model = Linear::new(&mut params, "clf", 2, 2, true, &mut rng);
//! let mut opt = Sgd::new(0.1);
//!
//! for _ in 0..50 {
//!     params.zero_grad();
//!     let g = Graph::new();
//!     let x = g.constant(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]));
//!     let logits = model.forward(&g, &params, x);
//!     let loss = g.cross_entropy(logits, &[0, 1]);
//!     g.backward(loss, &mut params);
//!     opt.step(&mut params);
//! }
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod checkpoint;
mod conv;
pub mod gemm;
mod graph;
pub mod infer;
pub mod init;
pub mod layers;
pub mod losses;
pub mod models;
mod optim;
mod params;
#[cfg(test)]
mod proptests;
mod schedule;
mod tanh;
mod tensor;

pub use gemm::{set_kernel_policy, KernelPolicy};
pub use graph::{take_scratch_stats, Graph, ScratchStats, Var};
pub use infer::{force_taped, InferenceSession};
pub use optim::{clip_grad_norm, Adam, Sgd};
pub use params::{ParamEntry, ParamId, Params};
pub use schedule::LrSchedule;
pub use tensor::{gaussian, Tensor};
