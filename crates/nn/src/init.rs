//! Weight initializers.

use rand::Rng;

use crate::tensor::Tensor;

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let w = refil_nn::init::xavier_uniform(4, 8, &mut rng);
/// assert_eq!(w.shape(), &[4, 8]);
/// ```
pub fn xavier_uniform<R: Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(&[fan_in, fan_out], -limit, limit, rng)
}

/// Truncated-ish normal init used for prompt and token parameters.
pub fn prompt_normal<R: Rng>(shape: &[usize], rng: &mut R) -> Tensor {
    Tensor::randn(shape, 0.02, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(10, 10, &mut rng);
        let limit = (6.0f32 / 20.0).sqrt();
        for &x in w.data() {
            assert!(x.abs() <= limit);
        }
    }
}
