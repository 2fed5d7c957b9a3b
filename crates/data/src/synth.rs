//! Synthetic domain-shift generator.
//!
//! The real Digits-Five / OfficeCaltech10 / PACS / DomainNet images are not
//! available in this environment, so each dataset is replaced by a synthetic
//! analogue that preserves exactly the properties domain-incremental learning
//! exercises:
//!
//! * a label space shared by every domain (class prototypes in feature space);
//! * a per-domain *input* distribution shift (an orthogonal rotation built
//!   from Givens rotations, a translation, and domain-specific noise);
//! * controllable per-domain difficulty (noise magnitude), tuned per preset so
//!   the easy/hard ordering matches the paper's per-domain accuracies;
//! * seeded determinism.
//!
//! Because the rotation is orthogonal, the class geometry is preserved inside
//! each domain — the domain-invariant structure a good FDIL method should
//! recover — while raw feature coordinates shift substantially between
//! domains, which is what drives catastrophic forgetting in the baselines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use refil_nn::gaussian;

use crate::sample::{DomainData, FdilDataset, Sample};

/// Specification of one synthetic domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainSpec {
    /// Domain name.
    pub name: String,
    /// Total samples to generate (train + test).
    pub samples: usize,
    /// Observation noise std; larger = harder domain (lower accuracy ceiling).
    pub noise: f32,
    /// Domain-shift strength in `[0, 1]`: rotation angle scale and shift
    /// magnitude relative to the prototype scale.
    pub shift: f32,
    /// Label-collision offset, in class-index units: this domain's class `k`
    /// prototype is placed (by cyclic interpolation) where the base
    /// arrangement put class `k + collision`. A non-zero difference between
    /// two domains makes the *same input region* carry *different labels*
    /// across them — the interference that causes catastrophic forgetting.
    /// A domain-aware model can still resolve the conflict through the
    /// domain-signature subspace (see [`DatasetSpec::signature_dim`]).
    pub collision: f32,
    /// Fraction of labels randomly flipped (extra difficulty), in `[0, 1)`.
    pub label_noise: f32,
    /// Optional per-class sample counts; when set, overrides the uniform
    /// split of `samples` (used by FedDomainNet's Table 6 statistics).
    pub class_counts: Option<Vec<usize>>,
}

impl DomainSpec {
    /// Uniform-class domain spec.
    pub fn new(name: &str, samples: usize, noise: f32, shift: f32) -> Self {
        Self {
            name: name.to_string(),
            samples,
            noise,
            shift,
            collision: 0.0,
            label_noise: 0.0,
            class_counts: None,
        }
    }

    /// Sets the label-collision offset (class-index units).
    pub fn with_collision(mut self, collision: f32) -> Self {
        self.collision = collision;
        self
    }

    /// Sets the label-noise fraction.
    pub fn with_label_noise(mut self, frac: f32) -> Self {
        assert!((0.0..1.0).contains(&frac), "label noise must be in [0,1)");
        self.label_noise = frac;
        self
    }

    /// Sets explicit per-class counts (their sum replaces `samples`).
    pub fn with_class_counts(mut self, counts: Vec<usize>) -> Self {
        self.samples = counts.iter().sum();
        self.class_counts = Some(counts);
        self
    }
}

/// Specification of a whole synthetic FDIL dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// Number of classes.
    pub classes: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Distance scale of class prototypes.
    pub proto_scale: f32,
    /// Within-class spread before domain noise.
    pub within_std: f32,
    /// Fraction of each domain reserved for the test split.
    pub test_fraction: f32,
    /// Width of the domain-signature subspace appended to every feature
    /// vector: each domain writes its own fixed signature vector there
    /// (scaled by [`DatasetSpec::signature_scale`]), giving domain-aware
    /// models the information needed to resolve cross-domain label
    /// collisions. Must be `< feature_dim`.
    pub signature_dim: usize,
    /// Magnitude of the domain signature relative to `proto_scale`.
    pub signature_scale: f32,
    /// Per-domain specs in canonical task order.
    pub domains: Vec<DomainSpec>,
}

impl DatasetSpec {
    /// Generates the dataset deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> FdilDataset {
        assert!(self.classes >= 2, "need at least two classes");
        assert!(
            (0.0..1.0).contains(&self.test_fraction),
            "test fraction in [0,1)"
        );
        assert!(
            self.signature_dim < self.feature_dim,
            "signature must leave geometry dims"
        );
        let mut rng = StdRng::seed_from_u64(seed);

        // Shared class prototype arrangement = the domain-invariant structure
        // (lives in the geometry subspace; the trailing signature_dim
        // dimensions are reserved for the per-domain signature).
        let geo_dim = self.feature_dim - self.signature_dim;
        let protos: Vec<Vec<f32>> = (0..self.classes)
            .map(|_| {
                (0..geo_dim)
                    .map(|_| gaussian(&mut rng) * self.proto_scale)
                    .collect()
            })
            .collect();

        let domains = self
            .domains
            .iter()
            .enumerate()
            .map(|(di, spec)| self.generate_domain(spec, di, &protos, &mut rng))
            .collect();

        FdilDataset {
            name: self.name.clone(),
            classes: self.classes,
            feature_dim: self.feature_dim,
            domains,
        }
    }

    /// This domain's prototype for class `k`: cyclic interpolation of the
    /// base arrangement, offset by `collision` class-index units.
    fn domain_prototype(&self, protos: &[Vec<f32>], k: usize, collision: f32) -> Vec<f32> {
        let kc = self.classes;
        let lo = (k + collision.floor() as usize) % kc;
        let hi = (lo + 1) % kc;
        let f = collision.fract();
        protos[lo]
            .iter()
            .zip(&protos[hi])
            .map(|(&a, &b)| (1.0 - f) * a + f * b)
            .collect()
    }

    fn generate_domain(
        &self,
        spec: &DomainSpec,
        domain_index: usize,
        protos: &[Vec<f32>],
        rng: &mut StdRng,
    ) -> DomainData {
        let d = self.feature_dim - self.signature_dim;
        // Domain transform: Givens rotations + translation. The first domain
        // (task 1) is kept close to the canonical frame; later domains rotate
        // further, so consecutive tasks genuinely shift.
        let strength = spec.shift;
        let rotations: Vec<(usize, usize, f32)> = (0..2 * d)
            .map(|_| {
                let i = rng.gen_range(0..d);
                let mut j = rng.gen_range(0..d);
                while j == i {
                    j = rng.gen_range(0..d);
                }
                let theta = rng.gen_range(-1.0f32..1.0) * strength * std::f32::consts::PI;
                (i, j, theta)
            })
            .collect();
        let translation: Vec<f32> = (0..d)
            .map(|_| gaussian(rng) * strength * self.proto_scale)
            .collect();
        // Fixed per-domain signature in the reserved trailing dims.
        let signature: Vec<f32> = (0..self.signature_dim)
            .map(|_| gaussian(rng) * self.signature_scale * self.proto_scale)
            .collect();
        // Pre-compute this domain's (collision-shifted) class prototypes.
        let domain_protos: Vec<Vec<f32>> = (0..self.classes)
            .map(|k| self.domain_prototype(protos, k, spec.collision))
            .collect();

        let counts: Vec<usize> = match &spec.class_counts {
            Some(c) => {
                assert_eq!(c.len(), self.classes, "class_counts length mismatch");
                c.clone()
            }
            None => {
                let base = spec.samples / self.classes;
                let extra = spec.samples % self.classes;
                (0..self.classes)
                    .map(|k| base + usize::from(k < extra))
                    .collect()
            }
        };

        let mut all = Vec::with_capacity(counts.iter().sum());
        for (k, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                let mut x: Vec<f32> = domain_protos[k]
                    .iter()
                    .map(|&p| p + gaussian(rng) * self.within_std)
                    .collect();
                for &(i, j, theta) in &rotations {
                    let (s, c) = theta.sin_cos();
                    let (xi, xj) = (x[i], x[j]);
                    x[i] = c * xi - s * xj;
                    x[j] = s * xi + c * xj;
                }
                for (xi, &t) in x.iter_mut().zip(&translation) {
                    *xi += t + gaussian(rng) * spec.noise;
                }
                // Append the domain signature. It is deliberately *weak*
                // (scaled down, heavily noised): a domain-conditioned model
                // (task-key prompts) resolves cross-domain collisions far
                // more reliably than one that must infer the domain from
                // input alone — the asymmetry prompt methods exploit.
                x.extend(
                    signature
                        .iter()
                        .map(|&s| s + gaussian(rng) * 1.5 * self.within_std),
                );
                let label = if spec.label_noise > 0.0 && rng.gen::<f32>() < spec.label_noise {
                    rng.gen_range(0..self.classes)
                } else {
                    k
                };
                all.push(Sample { features: x, label });
            }
        }
        // Deterministic shuffle, then split.
        shuffle(&mut all, rng);
        let n_test = ((all.len() as f32) * self.test_fraction).round() as usize;
        let n_test = n_test.clamp(usize::from(!all.is_empty()), all.len());
        let test = all.split_off(all.len() - n_test);
        let _ = domain_index;
        DomainData {
            name: spec.name.clone(),
            train: all,
            test,
        }
    }
}

/// Fisher–Yates shuffle with the provided RNG.
pub(crate) fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DatasetSpec {
        DatasetSpec {
            name: "toy".into(),
            classes: 3,
            feature_dim: 8,
            proto_scale: 2.0,
            within_std: 0.3,
            test_fraction: 0.2,
            signature_dim: 2,
            signature_scale: 0.5,
            domains: vec![
                DomainSpec::new("d0", 90, 0.1, 0.0),
                DomainSpec::new("d1", 60, 0.1, 0.5),
            ],
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = spec().generate(7);
        let b = spec().generate(7);
        assert_eq!(a.domains[0].train, b.domains[0].train);
        assert_eq!(a.domains[1].test, b.domains[1].test);
    }

    #[test]
    fn different_seeds_differ() {
        let a = spec().generate(7);
        let b = spec().generate(8);
        assert_ne!(a.domains[0].train, b.domains[0].train);
    }

    #[test]
    fn sizes_and_split_respected() {
        let d = spec().generate(1);
        assert_eq!(d.domains[0].len(), 90);
        assert_eq!(d.domains[1].len(), 60);
        assert_eq!(d.domains[0].test.len(), 18);
        assert_eq!(d.domains[1].test.len(), 12);
    }

    #[test]
    fn all_classes_present() {
        let d = spec().generate(3);
        for dom in &d.domains {
            let mut seen = [false; 3];
            for s in dom.train.iter().chain(&dom.test) {
                seen[s.label] = true;
            }
            assert!(
                seen.iter().all(|&x| x),
                "domain {} missing a class",
                dom.name
            );
        }
    }

    #[test]
    fn domain_shift_moves_class_means() {
        // The same class should sit in different places in shifted domains.
        let d = spec().generate(5);
        let mean_of = |dom: &DomainData, k: usize| -> Vec<f32> {
            let samples: Vec<&Sample> = dom.train.iter().filter(|s| s.label == k).collect();
            let mut m = vec![0.0f32; 8];
            for s in &samples {
                for (mi, &f) in m.iter_mut().zip(&s.features) {
                    *mi += f;
                }
            }
            for mi in &mut m {
                *mi /= samples.len() as f32;
            }
            m
        };
        let m0 = mean_of(&d.domains[0], 0);
        let m1 = mean_of(&d.domains[1], 0);
        let dist: f32 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1.0, "domains did not shift: distance {dist}");
    }

    #[test]
    fn class_counts_override() {
        let mut s = spec();
        s.domains[0] = DomainSpec::new("d0", 0, 0.1, 0.0).with_class_counts(vec![10, 20, 30]);
        let d = s.generate(1);
        assert_eq!(d.domains[0].len(), 60);
        let count_k = |k: usize| {
            d.domains[0]
                .train
                .iter()
                .chain(&d.domains[0].test)
                .filter(|x| x.label == k)
                .count()
        };
        assert_eq!(count_k(0), 10);
        assert_eq!(count_k(2), 30);
    }

    #[test]
    fn label_noise_flips_some_labels() {
        let mut s = spec();
        s.domains[0].label_noise = 0.5;
        let clean = spec().generate(11);
        let noisy = s.generate(11);
        // Same seed/geometry, so compare label disagreement rates.
        let flips = clean.domains[0]
            .train
            .iter()
            .zip(&noisy.domains[0].train)
            .filter(|(a, b)| a.label != b.label)
            .count();
        assert!(flips > 0, "label noise had no effect");
    }
}
