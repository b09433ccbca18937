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
//! C implementations. Gaussian draws transform the uniforms through
//! [`fmath`], not the platform libm, so every draw is the same on every
//! target.

use crate::fmath;

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
        // The threshold is below n, so a low half of at least n clears it
        // without the division, which runs only for the rare low half
        // under n.
        let mut m = (self.next_u64() as u128) * (n as u128);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (n as u128);
            }
        }
        (m >> 64) as usize
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
                let (u1, u2) = self.box_muller_uniforms();
                let (z, spare) = box_muller(u1, u2);
                self.gauss_spare = Some(spare);
                z
            }
        };
        mean + std_dev * z
    }

    /// Returns a Gaussian `f32` sample.
    pub fn next_gaussian_f32(&mut self, mean: f32, std_dev: f32) -> f32 {
        self.next_gaussian(mean as f64, std_dev as f64) as f32
    }

    /// Fills `out` with zero-mean Gaussian `f32` samples: bit for bit the
    /// values of `out.len()` calls of `next_gaussian_f32(0.0, std_dev)`,
    /// leaving the generator in the same state.
    ///
    /// Full blocks of 16 Box–Muller pairs draw their uniforms in the
    /// serial order and then transform them in one loop, which vectorizes.
    /// A cached spare and the draws after the last full block take the
    /// scalar path. Both compute the same Box–Muller transform through
    /// [`fmath`], so the values are the same.
    ///
    /// # Examples
    ///
    /// ```
    /// use shoggoth_util::Rng;
    ///
    /// let (mut a, mut b) = (Rng::seed_from(1), Rng::seed_from(1));
    /// let mut filled = [0.0f32; 40];
    /// a.fill_gaussian_f32(0.5, &mut filled);
    /// for v in filled {
    ///     assert_eq!(v.to_bits(), b.next_gaussian_f32(0.0, 0.5).to_bits());
    /// }
    /// assert_eq!(a, b);
    /// ```
    pub fn fill_gaussian_f32(&mut self, std_dev: f32, out: &mut [f32]) {
        let lead = usize::from(self.gauss_spare.is_some()).min(out.len());
        let (head, rest) = out.split_at_mut(lead);
        for o in head {
            *o = self.next_gaussian_f32(0.0, std_dev);
        }
        let sd = f64::from(std_dev);
        let mut blocks = rest.chunks_exact_mut(2 * BLOCK);
        for block in &mut blocks {
            let mut u1 = [0.0; BLOCK];
            let mut u2 = [0.0; BLOCK];
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = self.box_muller_uniforms();
            }
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = box_muller(*a, *b);
            }
            // Interleaved as the serial draws make them. The `0 +` is the
            // serial path's zero mean, which turns a −0 product into +0.
            for ((pair, a), b) in block.chunks_exact_mut(2).zip(u1).zip(u2) {
                pair[0] = (0.0 + sd * a) as f32;
                pair[1] = (0.0 + sd * b) as f32;
            }
        }
        for o in blocks.into_remainder() {
            *o = self.next_gaussian_f32(0.0, std_dev);
        }
    }

    /// The two uniforms of one Box–Muller pair: `u1` in (0, 1], which
    /// avoids ln(0), then `u2` in [0, 1).
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let u1 = 1.0 - self.next_f64();
        (u1, self.next_f64())
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
        self.shuffle_with(slice.len(), |i, j| slice.swap(i, j));
    }

    /// Fisher–Yates over `len` items stored elsewhere: calls `swap(i, j)`
    /// (with `j ≤ i`) for each swap [`Rng::shuffle`] makes on a slice of
    /// that length, with the same draws.
    pub fn shuffle_with(&mut self, len: usize, mut swap: impl FnMut(usize, usize)) {
        for i in (1..len).rev() {
            let j = self.below(i + 1);
            swap(i, j);
        }
    }

    /// Samples `k` distinct indices uniformly from `[0, n)`.
    ///
    /// Implements Algorithm 1's "random sampling of h images" primitive.
    /// If `k >= n`, all indices `0..n` are returned (shuffled).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut indices = Vec::with_capacity(n);
        self.sample_indices_into(n, k, &mut indices);
        indices
    }

    /// [`Rng::sample_indices`] into `out`, whose contents it replaces:
    /// the same draws and the same indices, in storage the caller reuses.
    pub fn sample_indices_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..n);
        self.shuffle(out);
        out.truncate(k.min(n));
    }
}

/// The Box–Muller pair of `(u1, u2)`: `r·cos θ`, then `r·sin θ`, with
/// `r = √(−2 ln u1)` and `θ = 2π·u2`, through [`fmath`]. `u1` in
/// [2⁻⁵³, 1] and `θ` in [0, 2π) are inside the domains `fmath` covers.
#[inline(always)]
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * fmath::ln(u1)).sqrt();
    let (sin, cos) = fmath::sincos(std::f64::consts::TAU * u2);
    (r * cos, r * sin)
}

/// Box–Muller pairs per block of [`Rng::fill_gaussian_f32`].
const BLOCK: usize = 16;

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

    /// The division-first form `below` had before it skipped the
    /// division: the threshold computed on every call.
    fn below_dividing_first(rng: &mut Rng, n: usize) -> usize {
        let n = n as u64;
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = (rng.next_u64() as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    #[test]
    fn below_equals_the_division_first_form_in_value_and_state() {
        let mut bounds = vec![1, 2, 3, 5, 7, 10, 1000, 3000, usize::MAX, usize::MAX - 1];
        bounds.extend((0..64).map(|shift| 1usize << shift));
        bounds.extend([(1usize << 63) - 1, (1usize << 63) + 1, (1usize << 62) + 1]);
        let mut pick = Rng::seed_from(12);
        bounds.extend((0..200).map(|_| pick.next_u64() as usize >> pick.below(64)));
        for (i, &n) in bounds.iter().enumerate() {
            let n = n.max(1);
            let mut fast = Rng::seed_from(100 + i as u64);
            let mut slow = fast.clone();
            for _ in 0..500 {
                assert_eq!(fast.below(n), below_dividing_first(&mut slow, n), "n = {n}");
                assert_eq!(fast, slow, "n = {n}");
            }
        }
    }

    #[test]
    fn sample_indices_into_reuses_storage_and_matches_sample_indices() {
        let mut a = Rng::seed_from(13);
        let mut b = a.clone();
        let mut out = vec![99; 5];
        for (n, k) in [(3000, 49), (400, 22), (5, 50), (0, 3), (10, 0)] {
            b.sample_indices_into(n, k, &mut out);
            assert_eq!(a.sample_indices(n, k), out);
            assert_eq!(a, b);
        }
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
    fn shuffling_indices_then_gathering_equals_shuffling_the_items() {
        // The draws depend only on the length, so a stream can shuffle an
        // index list and gather several parallel arrays through it.
        for len in [0, 1, 2, 7, 64] {
            let items: Vec<u64> = (0..len).map(|i| i * 1_000 + 7).collect();
            let (mut a, mut b) = (Rng::seed_from(len), Rng::seed_from(len));
            let mut shuffled = items.clone();
            a.shuffle(&mut shuffled);
            let mut order: Vec<usize> = (0..items.len()).collect();
            b.shuffle(&mut order);
            let gathered: Vec<u64> = order.iter().map(|&k| items[k]).collect();
            assert_eq!(gathered, shuffled, "length {len}");
            assert_eq!(a, b, "length {len}: same draws");
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = Rng::seed_from(12);
        assert!((0..100).all(|_| rng.bernoulli(1.0)));
        assert!((0..100).all(|_| !rng.bernoulli(0.0)));
    }
}
