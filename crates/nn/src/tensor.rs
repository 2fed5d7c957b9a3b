//! Dense n-dimensional `f32` tensor used throughout the substrate.
//!
//! The tensor is a flat `Vec<f32>` plus a shape, stored in row-major
//! (C-contiguous) order. It deliberately supports only the operations the
//! RefFiL models need; everything is implemented on the CPU with plain loops
//! so that results are bit-for-bit deterministic given a seed.

use std::fmt;

use rand::Rng;

/// Maximum tensor rank. The models top out at 4-D (`[b, heads, t, t]`
/// attention scores), so shapes live inline in the tensor header instead of
/// costing a heap allocation per tensor — on the inference hot path that
/// allocation was the last one left per node.
const MAX_NDIM: usize = 4;

/// An inline, fixed-capacity shape: the dims of a tensor without the heap.
///
/// Dereferences to `&[usize]`, so indexing, iteration, and slice methods all
/// work as they did when the shape was a `Vec<usize>`. Unused trailing dims
/// are kept zeroed so derived equality over the full array is equivalent to
/// slice equality.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    dims: [usize; MAX_NDIM],
    len: u8,
}

impl Shape {
    fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_NDIM,
            "tensor rank {} exceeds the supported maximum {MAX_NDIM}",
            dims.len()
        );
        let mut inline = [0usize; MAX_NDIM];
        inline[..dims.len()].copy_from_slice(dims);
        Self {
            dims: inline,
            len: dims.len() as u8,
        }
    }

    fn push(&mut self, dim: usize) {
        assert!((self.len as usize) < MAX_NDIM, "tensor rank overflow");
        self.dims[self.len as usize] = dim;
        self.len += 1;
    }
}

impl std::ops::Deref for Shape {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.dims[..self.len as usize]
    }
}

impl std::ops::DerefMut for Shape {
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.dims[..self.len as usize]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A dense, row-major, `f32` tensor.
///
/// # Examples
///
/// ```
/// use refil_nn::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, ", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(f, "data=[{:?}, ...; {}])", &self.data[..8], self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?} (numel {})",
            data.len(),
            shape,
            numel
        );
        Self {
            shape: Shape::new(shape),
            data,
        }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Self {
            shape: Shape::new(shape),
            data: vec![0.0; numel],
        }
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Self {
            shape: Shape::new(shape),
            data: vec![value; numel],
        }
    }

    /// Creates a scalar (shape `[1]`) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: Shape::new(&[1]),
            data: vec![value],
        }
    }

    /// Samples a tensor with entries drawn i.i.d. from `N(0, std^2)`.
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| gaussian(rng) * std).collect();
        Self {
            shape: Shape::new(shape),
            data,
        }
    }

    /// Samples a tensor with entries drawn i.i.d. from `U(lo, hi)`.
    pub fn rand_uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen_range(lo..hi)).collect();
        Self {
            shape: Shape::new(shape),
            data,
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Mutable element access by multi-dimensional index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let i = self.flat_index(idx);
        &mut self.data[i]
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (d, (&i, &s)) in idx.iter().zip(self.shape.iter()).enumerate() {
            assert!(i < s, "index {i} out of bounds for dim {d} (size {s})");
            flat = flat * s + i;
        }
        flat
    }

    /// Returns a reshaped copy sharing the same data order.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.data.len(),
            "reshape numel mismatch: {:?} -> {:?}",
            self.shape,
            shape
        );
        Self {
            shape: Shape::new(shape),
            data: self.data.clone(),
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise binary combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Self {
            shape: self.shape,
            data,
        }
    }

    /// In-place `self += alpha * other` (same shapes).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scaling: `self *= alpha`.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        for a in &mut self.data {
            *a = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element along the last axis, per leading index.
    ///
    /// For a `[rows, cols]` tensor this returns `rows` indices.
    pub fn argmax_last(&self) -> Vec<usize> {
        let cols = *self.shape.last().expect("argmax on 0-d tensor");
        assert!(cols > 0, "argmax over empty last axis");
        self.data
            .chunks(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in argmax"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// 2-D matrix multiplication: `self [m,k] x other [k,n] -> [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions mismatch.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.ndim(),
            2,
            "matmul lhs must be 2-D, got {:?}",
            self.shape
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul rhs must be 2-D, got {:?}",
            other.shape
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dim mismatch: {:?} x {:?}",
            self.shape, other.shape
        );
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm(&self.data, &other.data, &mut out, m, k, n);
        Self {
            shape: Shape::new(&[m, n]),
            data: out,
        }
    }

    /// Batched matrix multiplication on 3-D tensors:
    /// `self [b,m,k] x other [b,k,n] -> [b,m,n]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn bmm(&self, other: &Self) -> Self {
        assert_eq!(self.ndim(), 3, "bmm lhs must be 3-D, got {:?}", self.shape);
        assert_eq!(
            other.ndim(),
            3,
            "bmm rhs must be 3-D, got {:?}",
            other.shape
        );
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm batch mismatch");
        assert_eq!(k, k2, "bmm inner dim mismatch");
        let mut out = vec![0.0f32; b * m * n];
        for i in 0..b {
            crate::gemm::gemm(
                &self.data[i * m * k..(i + 1) * m * k],
                &other.data[i * k * n..(i + 1) * k * n],
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
        Self {
            shape: Shape::new(&[b, m, n]),
            data: out,
        }
    }

    /// Transposes the last two axes (works for 2-D and 3-D tensors).
    ///
    /// # Panics
    ///
    /// Panics for tensors with fewer than 2 dimensions.
    pub fn transpose_last(&self) -> Self {
        assert!(self.ndim() >= 2, "transpose requires >= 2 dims");
        let nd = self.ndim();
        let (r, c) = (self.shape[nd - 2], self.shape[nd - 1]);
        let batch: usize = self.shape[..nd - 2].iter().product();
        let mut data = vec![0.0f32; self.data.len()];
        for bi in 0..batch {
            let src = &self.data[bi * r * c..(bi + 1) * r * c];
            let dst = &mut data[bi * r * c..(bi + 1) * r * c];
            for i in 0..r {
                for j in 0..c {
                    dst[j * r + i] = src[i * c + j];
                }
            }
        }
        let mut shape = self.shape;
        shape.swap(nd - 2, nd - 1);
        Self { shape, data }
    }

    /// Extracts row `i` of a 2-D tensor as a `[cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if not 2-D or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Self {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape[1];
        assert!(i < self.shape[0], "row index out of bounds");
        Self {
            shape: Shape::new(&[cols]),
            data: self.data[i * cols..(i + 1) * cols].to_vec(),
        }
    }

    /// Stacks equal-shape tensors along a new leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes differ.
    pub fn stack(items: &[Tensor]) -> Self {
        assert!(!items.is_empty(), "stack of zero tensors");
        let inner = items[0].shape;
        let mut data = Vec::with_capacity(items.len() * items[0].numel());
        for t in items {
            assert_eq!(t.shape, inner, "stack shape mismatch");
            data.extend_from_slice(&t.data);
        }
        let mut shape = Shape::new(&[items.len()]);
        for &d in inner.iter() {
            shape.push(d);
        }
        Self { shape, data }
    }

    /// Cosine similarity between two flattened tensors.
    ///
    /// Returns 0 when either vector has zero norm.
    pub fn cosine(&self, other: &Self) -> f32 {
        assert_eq!(self.numel(), other.numel(), "cosine length mismatch");
        let dot: f32 = self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum();
        let na = self.norm();
        let nb = other.norm();
        if na <= f32::EPSILON || nb <= f32::EPSILON {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

/// Draws one standard-normal sample via Box–Muller.
pub fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_and_indexing() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 1]), 5.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[3, 3], 1.0, &mut rng);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        let c = a.matmul(&eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn bmm_per_batch() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]);
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(&c.data()[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&c.data()[4..], &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn transpose_last_2d_and_3d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose_last();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);

        let t3 = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]);
        let t3t = t3.transpose_last();
        assert_eq!(t3t.shape(), &[2, 3, 2]);
        assert_eq!(t3t.at(&[1, 2, 0]), t3.at(&[1, 0, 2]));
    }

    #[test]
    fn double_transpose_roundtrips() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::randn(&[4, 5], 1.0, &mut rng);
        assert_eq!(t.transpose_last().transpose_last(), t);
    }

    #[test]
    fn argmax_last_per_row() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(t.argmax_last(), vec![1, 0]);
    }

    #[test]
    fn cosine_similarity_extremes() {
        let a = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let b = Tensor::from_vec(vec![2.0, 0.0], &[2]);
        let c = Tensor::from_vec(vec![0.0, 3.0], &[2]);
        let d = Tensor::from_vec(vec![-1.0, 0.0], &[2]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
        assert!(a.cosine(&c).abs() < 1e-6);
        assert!((a.cosine(&d) + 1.0).abs() < 1e-6);
        assert_eq!(a.cosine(&Tensor::zeros(&[2])), 0.0);
    }

    #[test]
    fn stack_builds_leading_axis() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn randn_statistics_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / 10_000.0;
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_inplace(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
    }

    #[test]
    fn reshape_preserves_order() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.at(&[0, 1]), 1.0);
        assert_eq!(r.at(&[2, 1]), 5.0);
    }
}
