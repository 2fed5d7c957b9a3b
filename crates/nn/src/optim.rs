//! Optimizers operating on a [`Params`] store.

use crate::params::Params;
use crate::tensor::Tensor;

/// Stochastic gradient descent with optional momentum.
///
/// The paper trains every method with SGD; this implementation matches
/// PyTorch's semantics (`v = mu*v + g; w -= lr*v`).
///
/// # Examples
///
/// ```
/// use refil_nn::{Graph, Params, Sgd, Tensor};
///
/// let mut params = Params::new();
/// let w = params.insert("w", Tensor::from_vec(vec![1.0], &[1]), true);
/// let mut opt = Sgd::new(0.1);
/// let g = Graph::new();
/// let wv = g.param(&params, w);
/// let loss = g.mul(wv, wv);
/// g.backward(loss, &mut params);
/// opt.step(&mut params);
/// assert!((params.value(w).data()[0] - 0.8).abs() < 1e-6); // 1 - 0.1*2
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Option<Tensor>>,
    lr_scales: Option<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
            lr_scales: None,
        }
    }

    /// Sets per-parameter learning-rate multipliers, indexed like the
    /// [`Params`] store (parameter-group learning rates, e.g. a slow
    /// backbone with fast prompt/classifier heads).
    pub fn with_param_lr_scales(mut self, scales: Vec<f32>) -> Self {
        self.lr_scales = Some(scales);
        self
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Applies one update to every trainable parameter, then leaves the
    /// gradients untouched (call [`Params::zero_grad`] before the next pass).
    pub fn step(&mut self, params: &mut Params) {
        if self.velocity.len() < params.len() {
            self.velocity.resize(params.len(), None);
        }
        for (idx, value, grad) in params.trainable_mut() {
            let update = if self.momentum != 0.0 {
                let v = self.velocity[idx].get_or_insert_with(|| Tensor::zeros(grad.shape()));
                v.scale_inplace(self.momentum);
                v.axpy(1.0, grad);
                &*v
            } else {
                grad
            };
            let scale = self
                .lr_scales
                .as_ref()
                .and_then(|s| s.get(idx).copied())
                .unwrap_or(1.0);
            value.axpy(-self.lr * scale, update);
        }
    }
}

/// Rescales trainable gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the pre-clip norm.
pub fn clip_grad_norm(params: &mut Params, max_norm: f32) -> f32 {
    let norm = params.grad_norm();
    if norm > max_norm && norm > 0.0 {
        params.scale_grads(max_norm / norm);
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn quad_loss_step(params: &mut Params, opt: &mut Sgd) -> f32 {
        params.zero_grad();
        let g = Graph::new();
        let w = g.param(params, params.id("w").unwrap());
        let loss = g.mul(w, w);
        let loss_sum = g.sum_all(loss);
        let out = g.value(loss_sum).data()[0];
        g.backward(loss_sum, params);
        opt.step(params);
        out
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut params = Params::new();
        params.insert("w", Tensor::from_vec(vec![5.0, -3.0], &[2]), true);
        let mut opt = Sgd::new(0.1);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let l = quad_loss_step(&mut params, &mut opt);
            assert!(l <= last + 1e-6, "loss increased: {l} > {last}");
            last = l;
        }
        assert!(last < 1e-3, "did not converge: {last}");
    }

    #[test]
    fn momentum_accelerates() {
        let mut p1 = Params::new();
        p1.insert("w", Tensor::from_vec(vec![5.0], &[1]), true);
        let mut p2 = p1.clone();
        let mut plain = Sgd::new(0.01);
        let mut mom = Sgd::new(0.01).with_momentum(0.9);
        for _ in 0..20 {
            quad_loss_step(&mut p1, &mut plain);
            quad_loss_step(&mut p2, &mut mom);
        }
        let l1 = p1.value(p1.id("w").unwrap()).data()[0].abs();
        let l2 = p2.value(p2.id("w").unwrap()).data()[0].abs();
        assert!(l2 < l1, "momentum ({l2}) should beat plain ({l1})");
    }

    #[test]
    fn frozen_params_unchanged() {
        let mut params = Params::new();
        let w = params.insert("w", Tensor::from_vec(vec![2.0], &[1]), false);
        params.grad_mut(w).fill(1.0);
        let mut opt = Sgd::new(0.5);
        opt.step(&mut params);
        assert_eq!(params.value(w).data(), &[2.0]);
    }

    #[test]
    fn per_param_lr_scales_apply() {
        let mut params = Params::new();
        let a = params.insert("a", Tensor::from_vec(vec![1.0], &[1]), true);
        let b = params.insert("b", Tensor::from_vec(vec![1.0], &[1]), true);
        params.grad_mut(a).fill(1.0);
        params.grad_mut(b).fill(1.0);
        let mut opt = Sgd::new(0.1).with_param_lr_scales(vec![0.1, 1.0]);
        opt.step(&mut params);
        assert!((params.value(a).data()[0] - 0.99).abs() < 1e-6);
        assert!((params.value(b).data()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let mut params = Params::new();
        let w = params.insert("w", Tensor::zeros(&[2]), true);
        params.grad_mut(w).data_mut().copy_from_slice(&[3.0, 4.0]);
        let pre = clip_grad_norm(&mut params, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((params.grad_norm() - 1.0).abs() < 1e-5);
    }
}
