//! Seedable pseudo-random number generation.
//!
//! The simulation must be reproducible bit-for-bit across platforms and
//! toolchain versions, so this module implements its own generators instead
//! of depending on an external crate whose stream may change between
//! releases:
//!
//! * [`SplitMix64`] — the seeding/stream-splitting generator recommended by
//!   Vigna for initializing xoshiro state.
//! * [`Xoshiro256StarStar`] — the general-purpose generator behind [`Rng`].
//!
//! Both are tested against the reference vectors published with the original
//! C implementations.

/// SplitMix64 generator (Steele, Lea & Flood 2014; Vigna's variant).
///
/// Used to expand a single `u64` seed into the 256-bit state of
/// [`Xoshiro256StarStar`] and to derive independent child seeds.
///
/// # Examples
///
/// ```
/// use shoggoth_util::rng::SplitMix64;
///
/// let mut sm = SplitMix64::new(0);
/// // First output of SplitMix64 seeded with 0 (reference vector).
/// assert_eq!(sm.next_u64(), 0xe220a8397b1dcdaf);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* generator (Blackman & Vigna 2018).
///
/// All-purpose 64-bit generator with 256 bits of state, a period of
/// 2²⁵⁶ − 1, and excellent statistical quality for simulation work.
///
/// # Examples
///
/// ```
/// use shoggoth_util::rng::Xoshiro256StarStar;
///
/// let mut a = Xoshiro256StarStar::seed_from(7);
/// let mut b = Xoshiro256StarStar::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator whose 256-bit state is expanded from `seed` via
    /// [`SplitMix64`], as recommended by the algorithm's authors.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The simulation's random-number generator.
///
/// A thin, ergonomic facade over [`Xoshiro256StarStar`] providing the
/// distributions the Shoggoth simulation needs: uniform floats, ranges,
/// Gaussians (Box–Muller), Bernoulli draws, shuffles, and index sampling
/// without replacement (for Algorithm 1's random replay replacement).
///
/// # Examples
///
/// ```
/// use shoggoth_util::Rng;
///
/// let mut rng = Rng::seed_from(1);
/// let g = rng.next_gaussian(0.0, 1.0);
/// assert!(g.is_finite());
/// let idx = rng.sample_indices(10, 3);
/// assert_eq!(idx.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    inner: Xoshiro256StarStar,
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: Xoshiro256StarStar::seed_from(seed),
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator.
    ///
    /// Useful for giving each subsystem (stream, model, link, ...) its own
    /// stream while keeping the whole simulation a function of one seed.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from(self.next_u64())
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a uniform integer in `[0, n)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        let n = n as u64;
        // Unbiased multiply-shift rejection sampling (Lemire 2019): accept
        // when the low half clears the 2^64 mod n threshold, else retry.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Returns a Gaussian sample with the given mean and standard deviation
    /// via the Box–Muller transform.
    pub fn next_gaussian(&mut self, mean: f64, std_dev: f64) -> f64 {
        let z = match self.gauss_spare.take() {
            Some(z) => z,
            None => {
                // Draw u1 in (0, 1] to avoid ln(0).
                let u1 = 1.0 - self.next_f64();
                let u2 = self.next_f64();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = std::f64::consts::TAU * u2;
                self.gauss_spare = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        mean + std_dev * z
    }

    /// Returns a Gaussian `f32` sample.
    pub fn next_gaussian_f32(&mut self, mean: f32, std_dev: f32) -> f32 {
        self.next_gaussian(mean as f64, std_dev as f64) as f32
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// Weights need not be normalized. Non-finite or negative weights are
    /// treated as zero. If every weight is zero the last index is returned.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index on empty weights");
        let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let total: f64 = weights.iter().copied().map(clean).sum();
        if total <= 0.0 {
            return weights.len() - 1;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            target -= clean(w);
            if target < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices uniformly from `[0, n)`.
    ///
    /// Implements Algorithm 1's "random sampling of h images" primitive.
    /// If `k >= n`, all indices `0..n` are returned (shuffled).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut indices: Vec<usize> = (0..n).collect();
        self.shuffle(&mut indices);
        indices.truncate(k.min(n));
        indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_reference_vectors() {
        // Reference outputs for seed 1234567 from the canonical C code.
        let mut sm = SplitMix64::new(1234567);
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    #[test]
    fn splitmix64_zero_seed_first_output() {
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xe220a8397b1dcdaf);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256StarStar::seed_from(99);
        let mut b = Xoshiro256StarStar::seed_from(99);
        let mut c = Xoshiro256StarStar::seed_from(100);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng::seed_from(4);
        let n = 10;
        let mut counts = vec![0usize; n];
        for _ in 0..100_000 {
            counts[rng.below(n)] += 1;
        }
        for &c in &counts {
            // Each bucket should hold ~10_000 draws; allow generous slack.
            assert!((8_500..11_500).contains(&c), "count {c} out of tolerance");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::seed_from(6);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn weighted_index_all_zero_falls_back_to_last() {
        let mut rng = Rng::seed_from(7);
        assert_eq!(rng.weighted_index(&[0.0, 0.0, 0.0]), 2);
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Rng::seed_from(8);
        let sample = rng.sample_indices(20, 7);
        assert_eq!(sample.len(), 7);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7);
        assert!(sample.iter().all(|&i| i < 20));
    }

    #[test]
    fn sample_indices_k_larger_than_n_returns_all() {
        let mut rng = Rng::seed_from(9);
        let mut sample = rng.sample_indices(5, 50);
        sample.sort_unstable();
        assert_eq!(sample, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng::seed_from(10);
        let mut a = root.fork();
        let mut b = root.fork();
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(11);
        let mut data: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng::seed_from(12);
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
        assert!((0..100).all(|_| !rng.bernoulli(0.0)));
    }
}
