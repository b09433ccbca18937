//! Explicit float-comparison helpers.
//!
//! Bare `==`/`!=` on `f32`/`f64` is forbidden in library code by the
//! workspace lint tool (`cargo run -p xtask -- lint`, lint L3): it is
//! almost always either a tolerance bug or an unstated bit-exactness
//! assumption. These helpers make the intent explicit — and give the
//! reviewer one place to audit the semantics.

/// Whether `x` is exactly zero (`+0.0` or `-0.0`), decided on the bit
/// pattern so no float comparison is involved. `NaN` is not zero.
///
/// Used by the SGD hot path to skip frozen layers: a learning rate is
/// *exactly* zero only when the freeze policy set it so, making bit-level
/// zero the correct test (an epsilon would silently freeze slow-learning
/// layers).
///
/// # Examples
///
/// ```
/// use shoggoth_util::float::is_exact_zero;
///
/// assert!(is_exact_zero(0.0));
/// assert!(is_exact_zero(-0.0));
/// assert!(!is_exact_zero(1e-45)); // smallest subnormal is not zero
/// assert!(!is_exact_zero(f32::NAN));
/// ```
#[must_use]
pub fn is_exact_zero(x: f32) -> bool {
    x.to_bits() & 0x7fff_ffff == 0
}

/// Bit-exact equality of two `f32`s: `NaN` equals `NaN` (same payload),
/// and `+0.0` differs from `-0.0`. This is the right notion for
/// "unchanged after export/import" style checks.
#[must_use]
pub fn bit_eq(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits()
}

/// Approximate equality with an absolute tolerance. `NaN` never compares
/// equal. Prefer this over bare `==` whenever two independently computed
/// floats are expected to agree.
///
/// # Examples
///
/// ```
/// use shoggoth_util::float::approx_eq;
///
/// assert!(approx_eq(0.1 + 0.2, 0.3, 1e-9));
/// assert!(!approx_eq(1.0, 1.1, 1e-3));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tolerance: f64) -> bool {
    (a - b).abs() <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_zero_covers_both_signs_only() {
        assert!(is_exact_zero(0.0));
        assert!(is_exact_zero(-0.0));
        assert!(!is_exact_zero(f32::MIN_POSITIVE));
        assert!(!is_exact_zero(-f32::MIN_POSITIVE));
        assert!(!is_exact_zero(f32::NAN));
        assert!(!is_exact_zero(f32::INFINITY));
    }

    #[test]
    fn bit_eq_distinguishes_signed_zero_and_matches_nan() {
        assert!(!bit_eq(0.0, -0.0));
        assert!(bit_eq(f32::NAN, f32::NAN));
        assert!(bit_eq(1.5, 1.5));
        assert!(!bit_eq(1.5, 1.5000001));
    }

    #[test]
    fn approx_eq_respects_tolerance_and_nan() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 2.0, 0.5));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1.0));
    }
}
