//! The simulator's transcendental functions: `exp`, `ln` and `sincos`
//! in plain `f64` arithmetic.
//!
//! The platform libm differs between C libraries and their versions, so a
//! value it computes could differ between two machines. These functions
//! use only `+`, `−`, `×`, `÷`, `sqrt` and bit operations, each correctly
//! rounded by IEEE 754, and never a fused multiply-add, so they give the
//! same bits on every target. They are branch-free, so a loop over them
//! vectorizes.
//!
//! Each covers the inputs the simulator gives it, stated on the function,
//! and its worst error there against glibc's libm is measured by this
//! module's tests.

/// 1.5·2⁵²: adding it to a float of magnitude below 2⁵¹ rounds it to an
/// integer held in the low mantissa bits.
const TO_INT: f64 = 6_755_399_441_055_744.0;

/// `eˣ` for `x ≤ 0`, subnormal results included; `−∞` gives 0 and NaN
/// gives NaN. Worst error measured against glibc's `exp` on [−745, 0]:
/// 1 ulp. Rounded to `f32`, against glibc's `expf` on every `f32` in
/// [−104, −2⁻²⁵]: 1 ulp, on 97 052 of the 265 289 729 inputs.
///
/// `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2` (Cody–Waite, ln 2 in two parts),
/// `eʳ` by its Taylor series to degree 13, whose truncation is below
/// 2⁻⁵⁷, and the result scaled by `2ᵏ` through two powers of two built
/// from exponent bits, so that a subnormal result is rounded once. Below
/// −746 the result rounds to 0, so the argument is clamped there (NaN
/// fails the comparison and passes through).
///
/// # Examples
///
/// ```
/// use shoggoth_util::fmath;
///
/// assert_eq!(fmath::exp(0.0), 1.0);
/// assert_eq!(fmath::exp(f64::NEG_INFINITY), 0.0);
/// assert!((fmath::exp(-1.0) - 0.367_879_441_171_442_3).abs() < 1e-16);
/// ```
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    const LOG2_E: f64 = std::f64::consts::LOG2_E;
    // fdlibm's ln 2 split: the high part has 32 significant bits, so
    // `k·LN2_HI` is exact for every `|k| < 2²⁰`.
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    // 1/n! for n = 2..=13.
    const C: [f64; 12] = [
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5_040.0,
        1.0 / 40_320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
        1.0 / 479_001_600.0,
        1.0 / 6_227_020_800.0,
    ];
    let x = if x < -746.0 { -746.0 } else { x };
    let t = x * LOG2_E + TO_INT;
    let k = t - TO_INT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // eʳ = 1 + r + r²·q(r), with q = Σ C[i]·rⁱ in Estrin's scheme, whose
    // short dependency chains keep a vectorized loop's units busy.
    let r2 = r * r;
    let r4 = r2 * r2;
    let q01 = (C[0] + C[1] * r) + (C[2] + C[3] * r) * r2;
    let q23 = (C[4] + C[5] * r) + (C[6] + C[7] * r) * r2;
    let q45 = (C[8] + C[9] * r) + (C[10] + C[11] * r) * r2;
    let q = q01 + r4 * (q23 + q45 * r4);
    let p = 1.0 + (r + r2 * q);
    // 2ᵏ = 2ᵃ·2ᵇ with a = round(k/2) and b = k − a, both at least −539,
    // read off the magic-number sums' low bits.
    let half = k * 0.5 + TO_INT;
    let a = half.to_bits().wrapping_sub(TO_INT.to_bits());
    let b = t.to_bits().wrapping_sub(half.to_bits());
    let scale_a = f64::from_bits(a.wrapping_add(1023) << 52);
    let scale_b = f64::from_bits(b.wrapping_add(1023) << 52);
    p * scale_a * scale_b
}

/// `ln x` for a positive normal `x`. Worst error measured against glibc's
/// `log` on [2⁻⁵³, 1]: 1 ulp. Rounded to `f32`, against glibc's `logf` on
/// every 7th `f32` in [10⁻¹², 1]: 1 ulp, on 27 030 of 47 815 652 inputs.
///
/// fdlibm's `log` without its special cases: `x = 2ᵏ·m` with `m` in
/// [√2/2, √2), then `ln m = 2 atanh s` with `s = (m − 1)/(m + 1)` as an odd
/// series in `s`.
///
/// # Examples
///
/// ```
/// use shoggoth_util::fmath;
///
/// assert_eq!(fmath::ln(1.0), 0.0);
/// assert!((fmath::ln(0.5) + std::f64::consts::LN_2).abs() < 1e-16);
/// ```
#[inline(always)]
pub fn ln(x: f64) -> f64 {
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

/// `(sin θ, cos θ)` for `θ` in [0, 2π). Worst error measured against
/// glibc's `sin` and `cos` there, near the zeros included: 1 ulp each.
///
/// A Cody–Waite reduction by `n·π/2` with π/2 in three 33-bit parts (each
/// product `n·part` is exact) and a fourth for the rest, which keeps the
/// tiny results near multiples of π/2 accurate, fdlibm's kernels on
/// [−π/4, π/4], and the quadrant `n mod 4` applied by swapping the kernels
/// and flipping sign bits.
///
/// # Examples
///
/// ```
/// use shoggoth_util::fmath;
///
/// assert_eq!(fmath::sincos(0.0), (0.0, 1.0));
/// let (s, c) = fmath::sincos(std::f64::consts::FRAC_PI_2);
/// assert!((s - 1.0).abs() < 1e-16 && c.abs() < 1e-16);
/// ```
#[inline(always)]
pub fn sincos(theta: f64) -> (f64, f64) {
    const FRAC_2_PI: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    const PIO2: [f64; 4] = [
        f64::from_bits(0x3ff9_21fb_5440_0000),
        f64::from_bits(0x3dd0_b461_1a60_0000),
        f64::from_bits(0x3ba3_198a_2e00_0000),
        f64::from_bits(0x397b_839a_2520_49c1),
    ];
    let t = theta * FRAC_2_PI + TO_INT;
    let n = t.to_bits();
    let nf = t - TO_INT;
    // theta − n·PIO2[0] is exact (Sterbenz); y0 + y1 is the reduced angle.
    let a = theta - nf * PIO2[0];
    let b = nf * PIO2[1];
    let y0 = a - b;
    let y1 = (((a - y0) - b) - nf * PIO2[2]) - nf * PIO2[3];
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
    use std::f64::consts::TAU;

    /// Distance in ulps between two `f64`s, counting representable values
    /// between them (±0 are one apart); `u64::MAX` if either is NaN.
    fn ulps(a: f64, b: f64) -> u64 {
        if a.is_nan() || b.is_nan() {
            return u64::MAX;
        }
        let key = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// [`ulps`] for `f32`.
    fn ulps_f32(a: f32, b: f32) -> u64 {
        if a.is_nan() || b.is_nan() {
            return u64::MAX;
        }
        let key = |x: f32| {
            let bits = x.to_bits() as i32;
            i64::from(if bits < 0 { i32::MIN - bits } else { bits })
        };
        key(a).abs_diff(key(b))
    }

    /// `points` values spread evenly over each binade `[2ᵉ, 2ᵉ⁺¹)` for `e`
    /// in `exponents`, and 1.
    fn binade_grid(exponents: std::ops::Range<i32>, points: u64) -> impl Iterator<Item = f64> {
        let step = (1u64 << 52) / points;
        exponents
            .flat_map(move |e| {
                let base = 2f64.powi(e).to_bits();
                (0..points).map(move |i| f64::from_bits(base + i * step))
            })
            .chain([1.0])
    }

    /// The worst ulp distance of `f` from `reference` over `inputs`.
    fn worst(
        inputs: impl Iterator<Item = f64>,
        f: impl Fn(f64) -> f64,
        reference: impl Fn(f64) -> f64,
    ) -> (u64, f64) {
        inputs
            .map(|x| (ulps(f(x), reference(x)), x))
            .fold((0, 0.0), |w, d| if d.0 > w.0 { d } else { w })
    }

    #[test]
    fn ln_is_within_one_ulp_of_libm_on_the_uniform_range() {
        let (ulp, at) = worst(binade_grid(-53..0, 1 << 13), ln, f64::ln);
        println!("ln on [2^-53, 1]: worst {ulp} ulp at {at:e}");
        assert!(ulp <= 1, "ln({at:e}) is {ulp} ulp from libm");
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm_down_to_underflow() {
        let n = 1u32 << 20;
        let grid = (0..=n).map(|i| -745.0 * f64::from(i) / f64::from(n));
        let near_zero = binade_grid(-60..0, 1 << 10).map(|x| -x);
        let (ulp, at) = worst(grid.chain(near_zero), exp, f64::exp);
        println!("exp on [-745, 0]: worst {ulp} ulp at {at:e}");
        assert!(ulp <= 1, "exp({at:e}) is {ulp} ulp from libm");
    }

    #[test]
    fn sincos_is_within_one_ulp_of_libm_on_a_turn() {
        let n = 1u32 << 20;
        // A uniform grid, and the 2 000 inputs around each multiple of π/2,
        // where a result crosses zero.
        let near_zeros = (1..4).flat_map(|q| {
            let at = (f64::from(q) * std::f64::consts::FRAC_PI_2).to_bits();
            (at - 1000..at + 1000).map(f64::from_bits)
        });
        let turn = (0..n)
            .map(|i| TAU * (f64::from(i) / f64::from(n)))
            .chain(near_zeros);
        let (ulp_sin, at_sin) = worst(turn.clone(), |t| sincos(t).0, f64::sin);
        let (ulp_cos, at_cos) = worst(turn, |t| sincos(t).1, f64::cos);
        println!("sincos on [0, 2pi): sin worst {ulp_sin} ulp at {at_sin:e}, cos {ulp_cos} at {at_cos:e}");
        assert!(ulp_sin <= 1, "sin({at_sin:e}) is {ulp_sin} ulp from libm");
        assert!(ulp_cos <= 1, "cos({at_cos:e}) is {ulp_cos} ulp from libm");
    }

    /// The cross-entropy's `ln` of a probability clamped to at least
    /// 1e-12, rounded to `f32`, against libm's `f32` `ln`, on every 7th
    /// `f32` in [1e-12, 1].
    #[test]
    fn ln_of_probabilities_matches_libm_in_f32() {
        let (lo, hi) = (1e-12f32.to_bits(), 1f32.to_bits());
        let (mut differ, mut worst, mut total) = (0u64, 0, 0u64);
        for bits in (lo..=hi).step_by(7).chain([hi]) {
            let p = f32::from_bits(bits);
            let d = ulps_f32(ln(f64::from(p)) as f32, p.ln());
            differ += u64::from(d > 0);
            worst = worst.max(d);
            total += 1;
        }
        println!("ln in f32 on [1e-12, 1]: {differ} of {total} differ, worst {worst} ulp");
        assert!(worst <= 1, "{worst} ulp");
    }

    /// The softmax's `exp` of `v − max`, rounded to `f32`, against libm's
    /// `f32` `exp`: on every `f32` in [−104, −2⁻²⁵] (below −104 both round
    /// to 0), and on every 101st above, where `eˣ` rounds to 1.
    #[test]
    fn exp_of_softmax_inputs_matches_libm_in_f32() {
        let (lo, hi) = ((-2f32.powi(-25)).to_bits(), (-104.0f32).to_bits());
        let (mut differ, mut worst) = (0u64, 0);
        for bits in lo..=hi {
            let x = f32::from_bits(bits);
            let d = ulps_f32(exp(f64::from(x)) as f32, x.exp());
            differ += u64::from(d > 0);
            worst = worst.max(d);
        }
        println!(
            "exp in f32 on [-104, -2^-25]: {differ} of {} differ, worst {worst} ulp",
            hi - lo + 1
        );
        assert!(worst <= 1, "{worst} ulp");
        for bits in ((-0.0f32).to_bits()..lo).step_by(101) {
            let x = f32::from_bits(bits);
            assert_eq!(exp(f64::from(x)) as f32, 1.0, "exp({x:e})");
            assert_eq!(x.exp(), 1.0, "libm exp({x:e})");
        }
    }

    #[test]
    fn edge_cases() {
        assert_eq!(exp(-0.0).to_bits(), 1f64.to_bits());
        assert_eq!(exp(0.0).to_bits(), 1f64.to_bits());
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0f64.to_bits());
        assert_eq!(exp(-746.0).to_bits(), 0f64.to_bits());
        assert_eq!(exp(-1e300).to_bits(), 0f64.to_bits());
        assert!(exp(f64::NAN).is_nan());
        assert!(exp(-f64::NAN).is_nan());
        // The smallest subnormal and the largest input that rounds to 0.
        assert_eq!(exp(-745.1).to_bits(), (-745.1f64).exp().to_bits());
        assert_eq!(exp(-745.2).to_bits(), 0);
        // The smallest Box–Muller `u1` is 2⁻⁵³, the largest `u2` 1 − 2⁻⁵³.
        let u1 = 2f64.powi(-53);
        assert!(ulps(ln(u1), u1.ln()) <= 1);
        assert_eq!(ln(1.0).to_bits(), 0f64.to_bits());
        let theta = TAU * (1.0 - 2f64.powi(-53));
        let (s, c) = sincos(theta);
        assert!(ulps(s, theta.sin()) <= 1 && ulps(c, theta.cos()) <= 1);
        assert_eq!(sincos(0.0), (0.0, 1.0));
        assert!(sincos(f64::NAN).0.is_nan() && sincos(f64::NAN).1.is_nan());
    }
}
