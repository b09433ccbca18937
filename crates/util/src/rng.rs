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
    /// Full blocks of 16 Box–Muller pairs go through a vectorizable
    /// polynomial `ln`/`sincos` whose error is bounded far below an `f32`
    /// rounding step. A pair whose rounding the bound cannot settle, a
    /// cached spare, and the draws after the last full block take the
    /// scalar libm path, so the fast transform never changes a result.
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
        let mut blocks = rest.chunks_exact_mut(2 * BLOCK);
        for block in &mut blocks {
            let mut u1 = [0.0; BLOCK];
            let mut u2 = [0.0; BLOCK];
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = self.box_muller_uniforms();
            }
            gaussian_block(&u1, &u2, &fast_pairs(&u1, &u2), std_dev as f64, block);
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

/// The Box–Muller pair of `(u1, u2)` through libm: `r·cos θ`, then
/// `r·sin θ`, with `r = √(−2 ln u1)` and `θ = 2π·u2`.
fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Box–Muller pairs per block of [`Rng::fill_gaussian_f32`].
const BLOCK: usize = 16;

/// Half-width of the interval, per unit of `|sd|·(r + 1)`, in which a fast
/// sample must round to one `f32`: 16 times the transform's error bound.
const ROUNDING_MARGIN: f64 = 1.0 / (1u64 << 46) as f64;

/// Writes the `f32` samples `0 + sd·z` of a block of pairs into `out`,
/// interleaved as the serial draws make them (`cos`, then `sin`).
///
/// Each sample comes from `pairs`, the [`fast_pairs`] of `(u1, u2)`, when
/// every value within [`ROUNDING_MARGIN`] of it rounds to the same `f32`:
/// the libm value lies in that interval, so it rounds to the same bits. A
/// pair with a sample that fails the test is recomputed by [`libm_pair`].
fn gaussian_block(
    u1: &[f64; BLOCK],
    u2: &[f64; BLOCK],
    pairs: &FastPairs,
    sd: f64,
    out: &mut [f32],
) {
    let mut settled = [true; BLOCK];
    for (i, (pair, ok)) in out.chunks_exact_mut(2).zip(&mut settled).enumerate() {
        let margin = sd.abs() * (pairs.r[i] + 1.0) * ROUNDING_MARGIN;
        let (a, a_ok) = rounded(sd, pairs.cos[i], margin);
        let (b, b_ok) = rounded(sd, pairs.sin[i], margin);
        pair[0] = a;
        pair[1] = b;
        *ok = a_ok & b_ok;
    }
    for (i, pair) in out.chunks_exact_mut(2).enumerate() {
        if !settled[i] {
            pair.copy_from_slice(&libm_pair(u1[i], u2[i], sd));
        }
    }
}

/// `(0 + sd·z) as f32`, and whether every value within `margin` of the
/// product rounds to the same `f32` bits (false for NaN). The `0 +` is the
/// serial path's zero mean, which turns a `−0` product into `+0`.
#[inline(always)]
fn rounded(sd: f64, z: f64, margin: f64) -> (f32, bool) {
    let v = 0.0 + sd * z;
    let (lo, hi) = ((v - margin) as f32, (v + margin) as f32);
    (v as f32, lo == hi && lo.to_bits() == hi.to_bits())
}

/// The serial path's samples of one pair, for a pair the fast transform
/// cannot settle. Out of line so that its libm calls stay out of the block
/// loop.
#[cold]
#[inline(never)]
fn libm_pair(u1: f64, u2: f64, sd: f64) -> [f32; 2] {
    let (a, b) = box_muller(u1, u2);
    [(0.0 + sd * a) as f32, (0.0 + sd * b) as f32]
}

/// A block's Box–Muller radii `r` and unscaled samples `r·cos θ`, `r·sin θ`.
struct FastPairs {
    r: [f64; BLOCK],
    cos: [f64; BLOCK],
    sin: [f64; BLOCK],
}

/// The Box–Muller pairs of a block without libm: branch-free, so that the
/// loop vectorizes. Each sample is within `(r + 1)·2⁻⁵⁰` of [`box_muller`]'s
/// (DESIGN.md §9, "Gaussian draws").
fn fast_pairs(u1: &[f64; BLOCK], u2: &[f64; BLOCK]) -> FastPairs {
    let mut pairs = FastPairs {
        r: [0.0; BLOCK],
        cos: [0.0; BLOCK],
        sin: [0.0; BLOCK],
    };
    for i in 0..BLOCK {
        let r = (-2.0 * ln_unit(u1[i])).sqrt();
        let (sin, cos) = sincos_turn(std::f64::consts::TAU * u2[i]);
        pairs.r[i] = r;
        pairs.cos[i] = r * cos;
        pairs.sin[i] = r * sin;
    }
    pairs
}

/// `ln x` for a normal `x` in (0, 1], within 1 ulp (fdlibm's `log`
/// without its special cases): `x = 2ᵏ·m` with `m` in [√2/2, √2), then
/// `ln m = 2 atanh s` with `s = (m − 1)/(m + 1)` as an odd series in `s`.
#[inline(always)]
fn ln_unit(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG: [f64; 7] = [
        f64::from_bits(0x3fe5_5555_5555_5593),
        f64::from_bits(0x3fd9_9999_9997_fa04),
        f64::from_bits(0x3fd2_4924_9422_9359),
        f64::from_bits(0x3fcc_71c5_1d8e_78af),
        f64::from_bits(0x3fc7_4664_96cb_03de),
        f64::from_bits(0x3fc3_9a09_d078_c69f),
        f64::from_bits(0x3fc2_f112_df3e_5244),
    ];
    // Shift the high word so that the exponent field counts from √2/2.
    let bits = x.to_bits();
    let hx = (bits >> 32) + (0x3ff0_0000 - 0x3fe6_a09e);
    let m = f64::from_bits((((hx & 0x000f_ffff) + 0x3fe6_a09e) << 32) | (bits & 0xffff_ffff));
    // k = biased exponent − 1023, converted through the 2⁵² magic number.
    let k = f64::from_bits(0x4330_0000_0000_0000 | (hx >> 20)) - (4_503_599_627_370_496.0 + 1023.0);
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    s * (hfsq + t1 + t2) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `(sin θ, cos θ)` for `θ` in [0, 2π): a Cody–Waite reduction by
/// `n·π/2` with π/2 in three 33-bit parts (each product `n·part` is
/// exact), fdlibm's kernels on [−π/4, π/4], and the quadrant `n mod 4`
/// applied by swapping the kernels and flipping sign bits.
#[inline(always)]
fn sincos_turn(theta: f64) -> (f64, f64) {
    const FRAC_2_PI: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    const PIO2: [f64; 3] = [
        f64::from_bits(0x3ff9_21fb_5440_0000),
        f64::from_bits(0x3dd0_b461_1a60_0000),
        f64::from_bits(0x3ba3_198a_2e00_0000),
    ];
    // 1.5·2⁵²: adding it rounds to an integer held in the low mantissa bits.
    const TO_INT: f64 = 6_755_399_441_055_744.0;
    let t = theta * FRAC_2_PI + TO_INT;
    let n = t.to_bits();
    let nf = t - TO_INT;
    // theta − n·PIO2[0] is exact (Sterbenz); y0 + y1 is the reduced angle.
    let a = theta - nf * PIO2[0];
    let b = nf * PIO2[1];
    let y0 = a - b;
    let y1 = ((a - y0) - b) - nf * PIO2[2];
    let (s, c) = (kernel_sin(y0, y1), kernel_cos(y0, y1));
    // Quadrants 1 and 3 swap sin and cos; sin is negated in 2 and 3, cos
    // in 1 and 2.
    let swap = 0u64.wrapping_sub(n & 1);
    let (sb, cb) = (s.to_bits(), c.to_bits());
    let sin = ((sb & !swap) | (cb & swap)) ^ ((n & 2) << 62);
    let cos = ((cb & !swap) | (sb & swap)) ^ ((n.wrapping_add(1) & 2) << 62);
    (f64::from_bits(sin), f64::from_bits(cos))
}

/// fdlibm's `__kernel_sin(x, y, 1)`: `sin(x + y)` for `|x + y| ≤ π/4`.
#[inline(always)]
fn kernel_sin(x: f64, y: f64) -> f64 {
    const S: [f64; 6] = [
        f64::from_bits(0xbfc5_5555_5555_5549),
        f64::from_bits(0x3f81_1111_1110_f8a6),
        f64::from_bits(0xbf2a_01a0_19c1_61d5),
        f64::from_bits(0x3ec7_1de3_57b1_fe7d),
        f64::from_bits(0xbe5a_e5e6_8a2b_9ceb),
        f64::from_bits(0x3de5_d93a_5acf_d57c),
    ];
    let z = x * x;
    let w = z * z;
    let r = S[1] + z * (S[2] + z * S[3]) + z * w * (S[4] + z * S[5]);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S[0])
}

/// fdlibm's `__kernel_cos(x, y)`: `cos(x + y)` for `|x + y| ≤ π/4`.
#[inline(always)]
fn kernel_cos(x: f64, y: f64) -> f64 {
    const C: [f64; 6] = [
        f64::from_bits(0x3fa5_5555_5555_554c),
        f64::from_bits(0xbf56_c16c_16c1_5177),
        f64::from_bits(0x3efa_01a0_19cb_1590),
        f64::from_bits(0xbe92_7e4f_809c_52ad),
        f64::from_bits(0x3e21_ee9e_bdb4_b1c4),
        f64::from_bits(0xbda8_fae9_be88_38d4),
    ];
    let z = x * x;
    let w = z * z;
    let r = z * (C[0] + z * (C[1] + z * C[2])) + w * w * (C[3] + z * (C[4] + z * C[5]));
    let hz = 0.5 * z;
    let one_minus = 1.0 - hz;
    one_minus + (((1.0 - one_minus) - hz) + (z * r - x * y))
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

    /// A sample whose `f32` rounding the margin cannot settle takes the
    /// libm value. Each lane's fast `cos` sample is moved onto the midpoint
    /// between the libm sample's `f32` and its neighbour away from zero;
    /// where that midpoint rounds (ties to even) to the neighbour, only the
    /// fallback gives the libm bits.
    #[test]
    fn unsettled_samples_take_the_libm_value() {
        let mut rng = Rng::seed_from(21);
        let mut u1 = [0.0; BLOCK];
        let mut u2 = [0.0; BLOCK];
        for (a, b) in u1.iter_mut().zip(&mut u2) {
            (*a, *b) = rng.box_muller_uniforms();
        }
        let mut pairs = fast_pairs(&u1, &u2);
        let mut off_by_rounding = 0;
        for i in 0..BLOCK {
            let exact = box_muller(u1[i], u2[i]).0 as f32;
            let up = f32::from_bits(exact.to_bits() + 1);
            let midpoint = (f64::from(exact) + f64::from(up)) / 2.0;
            off_by_rounding += usize::from(midpoint as f32 != exact);
            pairs.cos[i] = midpoint;
        }
        assert!(off_by_rounding > 0, "no lane tests the fallback");
        let mut out = [0.0f32; 2 * BLOCK];
        gaussian_block(&u1, &u2, &pairs, 1.0, &mut out);
        for (i, pair) in out.chunks_exact(2).enumerate() {
            let exact = libm_pair(u1[i], u2[i], 1.0);
            assert_eq!(pair[0].to_bits(), exact[0].to_bits(), "lane {i}");
            assert_eq!(pair[1].to_bits(), exact[1].to_bits(), "lane {i}");
        }
    }

    /// The fast transform's error against libm over 10⁸ pairs, and how
    /// often a pair falls back to libm. Slow unoptimized: run with
    /// `cargo test --release -p shoggoth-util -- --ignored`.
    #[test]
    #[ignore]
    fn fast_transform_stays_inside_the_rounding_margin() {
        const BLOCKS: u64 = 6_250_000; // 10⁸ pairs
        let sds = [1.0, 0.45, 0.6, 1.3, 0.14, 0.3, 3.7e-3, 1e3];
        let mut rng = Rng::seed_from(20);
        let mut u1 = [0.0; BLOCK];
        let mut u2 = [0.0; BLOCK];
        let mut out = [0.0f32; 2 * BLOCK];
        let (mut worst, mut fallbacks, mut mismatches) = (0.0f64, 0u64, 0u64);
        for block in 0..BLOCKS {
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = rng.box_muller_uniforms();
            }
            let sd = sds[block as usize % sds.len()];
            let pairs = fast_pairs(&u1, &u2);
            gaussian_block(&u1, &u2, &pairs, sd, &mut out);
            for i in 0..BLOCK {
                let (c, s) = box_muller(u1[i], u2[i]);
                let scale = pairs.r[i] + 1.0;
                worst = worst.max((pairs.cos[i] - c).abs() / scale);
                worst = worst.max((pairs.sin[i] - s).abs() / scale);
                let margin = sd.abs() * scale * ROUNDING_MARGIN;
                let settled =
                    rounded(sd, pairs.cos[i], margin).1 && rounded(sd, pairs.sin[i], margin).1;
                fallbacks += u64::from(!settled);
                let exact = libm_pair(u1[i], u2[i], sd);
                mismatches += u64::from(out[2 * i].to_bits() != exact[0].to_bits());
                mismatches += u64::from(out[2 * i + 1].to_bits() != exact[1].to_bits());
            }
        }
        let pairs = (BLOCKS * BLOCK as u64) as f64;
        assert_eq!(mismatches, 0, "fill differs from libm");
        assert!(
            worst <= ROUNDING_MARGIN / 16.0,
            "max |z_fast − z_libm|/(r + 1) = {worst:e}"
        );
        let rate = fallbacks as f64 / pairs;
        assert!(rate <= 1e-4, "fallback rate {rate:e}");
        println!(
            "max |z_fast − z_libm|/(r + 1) = {worst:e}, fallbacks {fallbacks} of {pairs:e} pairs"
        );
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
