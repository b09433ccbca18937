//! Domains: weather/illumination conditions with their own appearance
//! transform and class mix.
//!
//! A domain models everything the paper's Fig. 1 attributes to *data
//! drift*: the class distribution changes (rush hour vs. quiet night), and
//! the visual appearance of the same class changes (illumination, weather).
//! Appearance change is a per-domain affine transform of the latent feature
//! space plus illumination-dependent noise.

use crate::world::{FeatureWorld, WorldConfig};
use crate::ClassId;
use shoggoth_util::Rng;

/// Illumination condition of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Illumination {
    /// Full daylight: low feature noise.
    Day,
    /// Dawn/dusk: moderate feature noise.
    Dusk,
    /// Night: high feature noise and reduced contrast — the condition the
    /// paper singles out as hardest for the lightweight model.
    Night,
}

impl Illumination {
    /// Standard deviation of appearance noise under this illumination.
    pub fn noise_std(self) -> f32 {
        match self {
            Illumination::Day => 0.35,
            Illumination::Dusk => 0.55,
            Illumination::Night => 0.85,
        }
    }

    /// Contrast multiplier applied to object features.
    pub fn contrast(self) -> f32 {
        match self {
            Illumination::Day => 1.0,
            Illumination::Dusk => 0.85,
            Illumination::Night => 0.65,
        }
    }
}

/// Weather condition of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weather {
    /// Clear skies.
    Sunny,
    /// Overcast.
    Cloudy,
    /// Rain: extra appearance noise.
    Rainy,
}

impl Weather {
    /// Additional appearance-noise standard deviation from weather.
    pub fn extra_noise(self) -> f32 {
        match self {
            Weather::Sunny => 0.0,
            Weather::Cloudy => 0.1,
            Weather::Rainy => 0.25,
        }
    }
}

/// A single weather/illumination condition.
///
/// Created through [`DomainLibrary::generate`], which derives the appearance
/// transform deterministically from the library seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Domain {
    /// Human-readable name, e.g. `"day-sunny"`.
    pub name: String,
    /// Illumination condition.
    pub illumination: Illumination,
    /// Weather condition.
    pub weather: Weather,
    /// Relative class frequencies (need not be normalized).
    pub class_mix: Vec<f64>,
    /// How strongly this domain's appearance differs from the source
    /// domain, in `[0, 1]`. `0.0` means the identity transform.
    pub severity: f32,
    /// Per-domain feature-space mixing matrix (`dim × dim`, row-major):
    /// `I + severity · R` with `R` random.
    mix: Vec<f32>,
    /// Per-domain feature shift.
    shift: Vec<f32>,
    /// Per-class appearance shift (class-conditional drift: e.g. at night
    /// a car becomes a pair of headlights, not a darker car). A global
    /// normalization layer cannot absorb this component — the classifier
    /// head must genuinely adapt, which is what makes replay memory
    /// matter.
    class_shift: Vec<Vec<f32>>,
    dim: usize,
}

impl Domain {
    /// Total appearance-noise standard deviation for this domain.
    pub fn noise_std(&self) -> f32 {
        self.illumination.noise_std() + self.weather.extra_noise()
    }

    /// Samples a ground-truth class according to this domain's class mix.
    pub fn sample_class(&self, rng: &mut Rng) -> ClassId {
        rng.weighted_index(&self.class_mix)
    }

    /// The deterministic (noise-free) appearance of `class` in this domain,
    /// `contrast · (M · (prototype + jitter) + shift)`, written into `out`,
    /// one feature row of the feature dimension's length.
    ///
    /// `jitter` is the per-object instance variation (same length as the
    /// prototype); pass zeros for the canonical class appearance.
    ///
    /// # Panics
    ///
    /// Panics if `jitter.len()` differs from the feature dimension or
    /// `class` is out of range.
    pub fn object_appearance_into(
        &self,
        world: &FeatureWorld,
        class: ClassId,
        jitter: &[f32],
        out: &mut [f32],
    ) {
        assert_eq!(jitter.len(), self.dim, "jitter dimension mismatch");
        debug_assert_eq!(out.len(), self.dim, "appearance dimension mismatch");
        let proto = world.prototype(class);
        let contrast = self.illumination.contrast();
        let class_shift = &self.class_shift[class];
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.mix[r * self.dim..(r + 1) * self.dim];
            let dot: f32 = row
                .iter()
                .zip(proto.iter().zip(jitter))
                .map(|(m, (p, j))| m * (p + j))
                .sum();
            *o = contrast * (dot + self.shift[r] + class_shift[r]);
        }
    }

    /// The appearance of a background (non-object) region in this domain,
    /// written into `out`, one feature row of the feature dimension's
    /// length: a low-magnitude vector around the domain shift, confusable
    /// with low-contrast objects.
    pub fn background_appearance_into(&self, rng: &mut Rng, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim, "appearance dimension mismatch");
        let contrast = self.illumination.contrast();
        rng.fill_gaussian_f32(0.6, out);
        for (o, &shift) in out.iter_mut().zip(&self.shift) {
            *o = contrast * (0.4 * shift + *o);
        }
    }

    /// Linear interpolation of two domains' transforms (used for gradual
    /// scene transitions). Class mix, illumination and weather come from
    /// `other` weighted by `t`.
    ///
    /// # Panics
    ///
    /// Panics if the domains have different feature dimensions.
    pub fn lerp(&self, other: &Domain, t: f32) -> Domain {
        assert_eq!(self.dim, other.dim, "domain dimension mismatch");
        let t = t.clamp(0.0, 1.0);
        let mix = self
            .mix
            .iter()
            .zip(&other.mix)
            .map(|(a, b)| a + (b - a) * t)
            .collect();
        let shift = self
            .shift
            .iter()
            .zip(&other.shift)
            .map(|(a, b)| a + (b - a) * t)
            .collect();
        let class_mix = self
            .class_mix
            .iter()
            .zip(&other.class_mix)
            .map(|(a, b)| a + (b - a) * t as f64)
            .collect();
        let class_shift = self
            .class_shift
            .iter()
            .zip(&other.class_shift)
            .map(|(sa, sb)| sa.iter().zip(sb).map(|(a, b)| a + (b - a) * t).collect())
            .collect();
        Domain {
            name: format!("{}->{}", self.name, other.name),
            illumination: if t < 0.5 {
                self.illumination
            } else {
                other.illumination
            },
            weather: if t < 0.5 { self.weather } else { other.weather },
            class_mix,
            severity: self.severity + (other.severity - self.severity) * t,
            mix,
            shift,
            class_shift,
            dim: self.dim,
        }
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.dim
    }
}

/// A deterministic collection of domains sharing one feature world.
///
/// # Examples
///
/// ```
/// use shoggoth_video::{DomainLibrary, Illumination, Weather, WorldConfig};
///
/// let mut lib = DomainLibrary::new(WorldConfig::new(4, 16, 3));
/// let day = lib.generate("day-sunny", Illumination::Day, Weather::Sunny, 0.0, vec![4.0, 2.0, 1.0, 1.0]);
/// let night = lib.generate("night", Illumination::Night, Weather::Sunny, 0.7, vec![3.0, 1.0, 0.3, 0.2]);
/// assert_ne!(day, night);
/// assert_eq!(lib.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DomainLibrary {
    world: FeatureWorld,
    domains: Vec<Domain>,
    rng: Rng,
}

impl DomainLibrary {
    /// Creates a library over a fresh feature world.
    pub fn new(config: WorldConfig) -> Self {
        let domain_seed = config.seed;
        Self::with_domain_seed(config, domain_seed)
    }

    /// Creates a library over the same feature world as `config` but with
    /// an independent domain-generation stream. Use this to synthesize
    /// *auxiliary* domains (e.g. a generic pre-training corpus) that share
    /// class prototypes with a stream without replicating its domains.
    pub fn with_domain_seed(config: WorldConfig, domain_seed: u64) -> Self {
        let rng = Rng::seed_from(domain_seed ^ 0x444f_4d41_494e); // "DOMAIN"
        Self {
            world: FeatureWorld::new(&config),
            domains: Vec::new(),
            rng,
        }
    }

    /// The shared feature world.
    pub fn world(&self) -> &FeatureWorld {
        &self.world
    }

    /// Number of generated domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no domain has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// All generated domains, in generation order.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The `idx`-th generated domain.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn domain(&self, idx: usize) -> &Domain {
        &self.domains[idx]
    }

    /// Generates (and stores) a new domain.
    ///
    /// `severity = 0.0` yields the identity appearance transform — use it
    /// for the source domain the student is pre-trained on. Larger severity
    /// mixes feature dimensions and shifts the space more aggressively.
    ///
    /// # Panics
    ///
    /// Panics if `class_mix.len()` differs from the world's class count or
    /// `severity` is outside `[0, 1]`.
    pub fn generate(
        &mut self,
        name: &str,
        illumination: Illumination,
        weather: Weather,
        severity: f32,
        class_mix: Vec<f64>,
    ) -> Domain {
        assert_eq!(
            class_mix.len(),
            self.world.num_classes(),
            "class mix length must equal class count"
        );
        assert!(
            (0.0..=1.0).contains(&severity),
            "severity must be in [0, 1]"
        );
        let dim = self.world.feature_dim();
        // Real-world appearance drift (illumination, weather) is dominated
        // by shift and contrast changes of low-level statistics — the kind
        // of drift batch-(re)normalization statistics and a retrained head
        // can track — with only mild feature mixing. The mixing term is
        // kept small relative to the shift so the paper's frozen-backbone
        // premise holds.
        let mut mix = vec![0.0f32; dim * dim];
        self.rng.fill_gaussian_f32(1.0, &mut mix);
        for (i, m) in mix.iter_mut().enumerate() {
            let identity = if i / dim == i % dim { 1.0 } else { 0.0 };
            // Off-diagonal mixing scaled down by dimension so the
            // transform stays well-conditioned.
            let perturb = *m / (dim as f32).sqrt();
            *m = identity + severity * 0.3 * perturb;
        }
        let mut shift = vec![0.0f32; dim];
        self.rng.fill_gaussian_f32(1.3, &mut shift);
        shift.iter_mut().for_each(|v| *v *= severity);
        // Class-conditional component: small next to the global shift but
        // un-normalizable, so it forces real head adaptation per domain.
        let class_shift: Vec<Vec<f32>> = (0..self.world.num_classes())
            .map(|_| {
                let mut class = vec![0.0f32; dim];
                self.rng.fill_gaussian_f32(0.14, &mut class);
                class.iter_mut().for_each(|v| *v *= severity);
                class
            })
            .collect();
        let domain = Domain {
            name: name.to_owned(),
            illumination,
            weather,
            class_mix,
            severity,
            mix,
            shift,
            class_shift,
            dim,
        };
        self.domains.push(domain.clone());
        domain
    }
}

/// Normalized class histogram of a slice of ground-truth class ids.
///
/// Used to visualize the Fig. 1(c) class-distribution shift.
pub fn class_histogram(classes: &[ClassId], num_classes: usize) -> Vec<f64> {
    let mut hist = vec![0.0f64; num_classes];
    for &c in classes {
        if c < num_classes {
            hist[c] += 1.0;
        }
    }
    let total: f64 = hist.iter().sum();
    if total > 0.0 {
        for h in &mut hist {
            *h /= total;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library() -> DomainLibrary {
        DomainLibrary::new(WorldConfig::new(4, 16, 5))
    }

    /// The appearance of `class` in `domain` with zero jitter.
    fn canonical(domain: &Domain, world: &FeatureWorld, class: ClassId) -> Vec<f32> {
        let mut out = vec![0.0; world.feature_dim()];
        domain.object_appearance_into(world, class, &vec![0.0; world.feature_dim()], &mut out);
        out
    }

    #[test]
    fn source_domain_is_identity_transform() {
        let mut lib = library();
        let day = lib.generate("day", Illumination::Day, Weather::Sunny, 0.0, vec![1.0; 4]);
        let appearance = canonical(&day, lib.world(), 2);
        let proto = lib.world().prototype(2);
        for (a, p) in appearance.iter().zip(proto) {
            assert!(
                (a - p).abs() < 1e-5,
                "identity domain must preserve prototypes"
            );
        }
    }

    #[test]
    fn severe_domain_moves_features() {
        let mut lib = library();
        let day = lib.generate("day", Illumination::Day, Weather::Sunny, 0.0, vec![1.0; 4]);
        let night = lib.generate(
            "night",
            Illumination::Night,
            Weather::Rainy,
            0.8,
            vec![1.0; 4],
        );
        let a = canonical(&day, lib.world(), 0);
        let b = canonical(&night, lib.world(), 0);
        let dist: f32 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(
            dist > 0.5,
            "severe domain should shift appearance, got {dist}"
        );
    }

    #[test]
    fn night_contrast_shrinks_features() {
        let mut lib = library();
        let night = lib.generate(
            "night",
            Illumination::Night,
            Weather::Sunny,
            0.0,
            vec![1.0; 4],
        );
        let a = canonical(&night, lib.world(), 0);
        let proto = lib.world().prototype(0);
        let norm_a: f32 = a.iter().map(|v| v * v).sum::<f32>().sqrt();
        let norm_p: f32 = proto.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(
            norm_a < norm_p * 0.7,
            "night contrast should shrink magnitude"
        );
    }

    #[test]
    fn class_sampling_follows_mix() {
        let mut lib = library();
        let d = lib.generate(
            "biased",
            Illumination::Day,
            Weather::Sunny,
            0.0,
            vec![8.0, 0.0, 1.0, 1.0],
        );
        let mut rng = Rng::seed_from(9);
        let mut counts = [0usize; 4];
        for _ in 0..10_000 {
            counts[d.sample_class(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[0] > counts[2] * 5);
    }

    #[test]
    fn lerp_endpoints_match_inputs() {
        let mut lib = library();
        let a = lib.generate("a", Illumination::Day, Weather::Sunny, 0.0, vec![1.0; 4]);
        let b = lib.generate("b", Illumination::Night, Weather::Rainy, 0.9, vec![2.0; 4]);
        let at_zero = a.lerp(&b, 0.0);
        let at_one = a.lerp(&b, 1.0);
        let x0 = canonical(&at_zero, lib.world(), 1);
        let xa = canonical(&a, lib.world(), 1);
        for (p, q) in x0.iter().zip(&xa) {
            assert!((p - q).abs() < 1e-5);
        }
        assert_eq!(at_one.illumination, Illumination::Night);
    }

    #[test]
    fn histogram_normalizes() {
        let h = class_histogram(&[0, 0, 1, 3], 4);
        assert_eq!(h, vec![0.5, 0.25, 0.0, 0.25]);
        assert_eq!(class_histogram(&[], 3), vec![0.0; 3]);
    }

    #[test]
    fn library_generation_is_deterministic() {
        let build = || {
            let mut lib = library();
            lib.generate("x", Illumination::Dusk, Weather::Cloudy, 0.5, vec![1.0; 4])
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic(expected = "class mix length must equal class count")]
    fn wrong_class_mix_length_rejected() {
        let mut lib = library();
        lib.generate("bad", Illumination::Day, Weather::Sunny, 0.0, vec![1.0; 3]);
    }
}
