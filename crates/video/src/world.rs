//! The latent feature space shared by streams, domains and detectors.
//!
//! Real detectors see pixels; our substitute detectors see points in a
//! `feature_dim`-dimensional latent space. Each object class has a fixed
//! *prototype* vector; a domain transforms prototypes with its own mixing
//! matrix, shift and contrast (appearance change), and adds
//! illumination-dependent noise (the paper's "objects at night are difficult
//! to distinguish"). Because the prototypes are fixed per world seed, the
//! teacher model, the student model and every stream built from the same
//! [`WorldConfig`] agree on what a "car" looks like.

use crate::ClassId;
use shoggoth_util::Rng;

/// Configuration of a feature world.
///
/// # Examples
///
/// ```
/// use shoggoth_video::{FeatureWorld, WorldConfig};
///
/// let world = FeatureWorld::new(&WorldConfig::new(4, 16, 7));
/// assert_eq!(world.num_classes(), 4);
/// assert_eq!(world.prototype(0).len(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorldConfig {
    /// Number of foreground object classes.
    pub num_classes: usize,
    /// Dimensionality of the latent feature space.
    pub feature_dim: usize,
    /// Seed fixing the class prototypes.
    pub seed: u64,
}

impl WorldConfig {
    /// Creates a world configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0` or `feature_dim == 0`.
    pub fn new(num_classes: usize, feature_dim: usize, seed: u64) -> Self {
        assert!(num_classes > 0, "need at least one class");
        assert!(feature_dim > 0, "need at least one feature dimension");
        Self {
            num_classes,
            feature_dim,
            seed,
        }
    }
}

/// Fixed class prototypes in latent feature space.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureWorld {
    config: WorldConfig,
    prototypes: Vec<Vec<f32>>,
}

impl FeatureWorld {
    /// Generates the prototypes for a configuration.
    ///
    /// Prototypes are drawn once from an isotropic Gaussian and rescaled to
    /// a common norm, so classes are roughly equidistant and no class is
    /// trivially separable by magnitude alone.
    pub fn new(config: &WorldConfig) -> Self {
        let mut rng = Rng::seed_from(config.seed ^ 0x5747_4f52_4c44); // "WORLD"
        let mut prototypes = Vec::with_capacity(config.num_classes);
        for _ in 0..config.num_classes {
            let mut proto = vec![0.0f32; config.feature_dim];
            rng.fill_gaussian_f32(1.0, &mut proto);
            let norm = proto.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            // Common norm 2.0: far enough apart to be learnable, close
            // enough that domain noise creates genuine confusion.
            for v in &mut proto {
                *v *= 2.0 / norm;
            }
            prototypes.push(proto);
        }
        Self {
            config: config.clone(),
            prototypes,
        }
    }

    /// The configuration this world was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Number of foreground classes.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    /// Latent feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.config.feature_dim
    }

    /// The prototype vector of a class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn prototype(&self, class: ClassId) -> &[f32] {
        &self.prototypes[class]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototypes_are_deterministic_per_seed() {
        let cfg = WorldConfig::new(3, 8, 11);
        let a = FeatureWorld::new(&cfg);
        let b = FeatureWorld::new(&cfg);
        assert_eq!(a, b);
        let c = FeatureWorld::new(&WorldConfig::new(3, 8, 12));
        assert_ne!(a, c);
    }

    #[test]
    fn prototypes_have_common_norm() {
        let world = FeatureWorld::new(&WorldConfig::new(5, 32, 0));
        for c in 0..5 {
            let norm = world.prototype(c).iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm - 2.0).abs() < 1e-4, "class {c} norm {norm}");
        }
    }

    #[test]
    fn prototypes_are_distinct() {
        let world = FeatureWorld::new(&WorldConfig::new(4, 32, 1));
        for a in 0..4 {
            for b in (a + 1)..4 {
                let dist: f32 = world
                    .prototype(a)
                    .iter()
                    .zip(world.prototype(b))
                    .map(|(x, y)| (x - y).powi(2))
                    .sum::<f32>()
                    .sqrt();
                assert!(dist > 0.5, "classes {a} and {b} nearly collide: {dist}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one class")]
    fn zero_classes_rejected() {
        WorldConfig::new(0, 8, 0);
    }
}
