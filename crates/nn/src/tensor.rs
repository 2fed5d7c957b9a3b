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
pub(crate) const MAX_NDIM: usize = 4;

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
/// assert_eq!(t.data()[2], 3.0); // row 1, column 0
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
    pub(crate) fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Self {
            shape: Shape::new(shape),
            data: vec![value; numel],
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
    pub(crate) fn rand_uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
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
    pub(crate) fn ndim(&self) -> usize {
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

    /// Applies `f` elementwise, returning a new tensor.
    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Self {
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
    pub(crate) fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
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
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// In-place scaling: `self *= alpha`.
    pub(crate) fn scale_inplace(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Fills the tensor with `value`.
    pub(crate) fn fill(&mut self, value: f32) {
        for a in &mut self.data {
            *a = value;
        }
    }

    /// Sum of all elements.
    pub(crate) fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Index of the maximum element along the last axis, per leading index.
    ///
    /// For a `[rows, cols]` tensor this returns `rows` indices.
    pub(crate) fn argmax_last(&self) -> Vec<usize> {
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
        // Row-major: element [i, j] of a [2, 3] tensor sits at 3·i + j.
        assert_eq!(t.data()[0], 1.0);
        assert_eq!(t.data()[2], 3.0);
        assert_eq!(t.data()[4], 5.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    /// Value of the tape's `None` product of two constants.
    fn product(a: Tensor, b: Tensor) -> Tensor {
        let g = crate::Graph::new();
        let y = g.matmul(g.constant(a), g.constant(b), crate::Transpose::None);
        g.value(y)
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = product(a, b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn bmm_per_batch() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]);
        let c = product(a, b);
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
        // [1, 2, 0] of the [2, 3, 2] result is [1, 0, 2] of the [2, 2, 3] input.
        assert_eq!(t3t.data()[6 + 2 * 2], t3.data()[6 + 2]);
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
    fn randn_statistics_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean = t.sum() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
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
}
