//! Named parameter storage shared by models and optimizers.
//!
//! Parameters live outside the autograd [`Graph`](crate::Graph): a graph is a
//! per-forward-pass tape, while `Params` persists across steps and across
//! federated communication rounds. Each parameter carries a `trainable` flag
//! so frozen components (e.g. the paper's initialized-only tokenizer) are
//! excluded from optimization and from federated aggregation of gradients.

use std::collections::HashMap;
use std::fmt;

use crate::tensor::Tensor;

/// Handle to a parameter inside a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// One named parameter: value, accumulated gradient, and trainability.
#[derive(Debug, Clone)]
pub struct ParamEntry {
    /// Unique name, e.g. `"backbone.block0.linear1.weight"`.
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Whether the optimizer may update this parameter.
    pub trainable: bool,
}

/// A named collection of parameters.
///
/// # Examples
///
/// ```
/// use refil_nn::{Params, Tensor};
///
/// let mut params = Params::new();
/// let w = params.insert("w", Tensor::zeros(&[2, 2]), true);
/// assert_eq!(params.value(w).shape(), &[2, 2]);
/// assert_eq!(params.num_scalars(), 4);
/// ```
#[derive(Default, Clone)]
pub struct Params {
    entries: Vec<ParamEntry>,
    by_name: HashMap<String, usize>,
}

impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Params({} entries, {} scalars)",
            self.entries.len(),
            self.num_scalars()
        )
    }
}

impl Params {
    /// Creates an empty parameter store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn insert(&mut self, name: &str, value: Tensor, trainable: bool) -> ParamId {
        assert!(
            !self.by_name.contains_key(name),
            "parameter name {name:?} registered twice"
        );
        let id = ParamId(self.entries.len());
        let grad = Tensor::zeros(value.shape());
        self.entries.push(ParamEntry {
            name: name.to_string(),
            value,
            grad,
            trainable,
        });
        self.by_name.insert(name.to_string(), id.0);
        id
    }

    /// Number of parameters (tensors, not scalars).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.numel()).sum()
    }

    /// Looks up a parameter id by name.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied().map(ParamId)
    }

    /// The value tensor of `id`.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable access to the value tensor of `id` (tests perturb values
    /// through it).
    #[cfg(test)]
    pub(crate) fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// The gradient tensor of `id`.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].grad
    }

    /// Mutable access to the gradient tensor of `id`.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].grad
    }

    /// Iterates over the trainable parameters as `(index, value, grad)`,
    /// borrowing each value mutably beside its gradient (an optimizer step).
    pub(crate) fn trainable_mut(&mut self) -> impl Iterator<Item = (usize, &mut Tensor, &Tensor)> {
        self.entries
            .iter_mut()
            .enumerate()
            .filter(|(_, e)| e.trainable)
            .map(|(i, e)| (i, &mut e.value, &e.grad))
    }

    /// Iterates over `(ParamId, &ParamEntry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &ParamEntry)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (ParamId(i), e))
    }

    /// Zeroes every gradient.
    pub fn zero_grad(&mut self) {
        for e in &mut self.entries {
            e.grad.fill(0.0);
        }
    }

    /// Flattens all parameter values into one vector (aggregation format).
    pub fn to_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for e in &self.entries {
            out.extend_from_slice(e.value.data());
        }
        out
    }

    /// Loads parameter values from a flat vector produced by [`Params::to_flat`]
    /// on an identically-structured store.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the store's scalar count.
    pub fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.num_scalars(),
            "flat parameter length mismatch"
        );
        let mut off = 0;
        for e in &mut self.entries {
            let n = e.value.numel();
            e.value.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }

    /// Gradient L2 norm over trainable parameters (for clipping / diagnostics).
    pub(crate) fn grad_norm(&self) -> f32 {
        self.entries
            .iter()
            .filter(|e| e.trainable)
            .map(|e| e.grad.data().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every trainable gradient by `alpha` (gradient clipping support).
    pub(crate) fn scale_grads(&mut self, alpha: f32) {
        for e in &mut self.entries {
            if e.trainable {
                e.grad.scale_inplace(alpha);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut p = Params::new();
        let a = p.insert("a", Tensor::zeros(&[2]), true);
        let b = p.insert("b", Tensor::ones(&[3]), false);
        assert_eq!(p.id("a"), Some(a));
        assert_eq!(p.id("b"), Some(b));
        assert_eq!(p.id("c"), None);
        assert_eq!(p.num_scalars(), 5);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut p = Params::new();
        p.insert("a", Tensor::zeros(&[1]), true);
        p.insert("a", Tensor::zeros(&[1]), true);
    }

    #[test]
    fn flat_roundtrip() {
        let mut p = Params::new();
        p.insert("a", Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        p.insert("b", Tensor::from_vec(vec![3.0], &[1]), true);
        let flat = p.to_flat();
        assert_eq!(flat, vec![1.0, 2.0, 3.0]);
        let mut q = p.clone();
        q.load_flat(&[9.0, 8.0, 7.0]);
        assert_eq!(q.value(q.id("a").unwrap()).data(), &[9.0, 8.0]);
        assert_eq!(q.value(q.id("b").unwrap()).data(), &[7.0]);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut p = Params::new();
        let a = p.insert("a", Tensor::zeros(&[2]), true);
        p.grad_mut(a).fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad(a).data(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_norm_ignores_frozen() {
        let mut p = Params::new();
        let a = p.insert("a", Tensor::zeros(&[1]), true);
        let b = p.insert("b", Tensor::zeros(&[1]), false);
        p.grad_mut(a).fill(3.0);
        p.grad_mut(b).fill(4.0);
        assert!((p.grad_norm() - 3.0).abs() < 1e-6);
    }
}
