//! Weight initializers.

use rand::Rng;

use crate::tensor::Tensor;

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
///
/// # Examples
///
/// [`Linear`](crate::layers::Linear) draws its weight from it:
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use refil_nn::{layers::Linear, Params};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut params = Params::new();
/// let _fc = Linear::new(&mut params, "fc", 4, 8, false, &mut rng);
/// let w = params.value(params.id("fc.weight").unwrap());
/// assert_eq!(w.shape(), &[4, 8]);
/// let limit = (6.0f32 / (4 + 8) as f32).sqrt();
/// assert!(w.data().iter().all(|x| x.abs() <= limit));
/// ```
pub(crate) fn xavier_uniform<R: Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
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
