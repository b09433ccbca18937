//! Exponentially-weighted moving averages.
//!
//! The sampling-rate controller (paper Eq. 3) tracks the recent average
//! scene-change score φ̄ and resource usage λ̄ with exponentially-weighted
//! moving averages; this module provides that primitive.

/// An exponentially-weighted moving average.
///
/// `value ← alpha * sample + (1 - alpha) * value`, seeded by the first
/// observation.
///
/// # Examples
///
/// ```
/// use shoggoth_util::Ewma;
///
/// let mut avg = Ewma::new(0.5);
/// avg.observe(10.0);
/// avg.observe(0.0);
/// assert_eq!(avg.value(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an average with smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1], got {alpha}"
        );
        Self { alpha, value: None }
    }

    /// Feeds an observation and returns the updated average.
    pub fn observe(&mut self, sample: f64) -> f64 {
        let next = match self.value {
            None => sample,
            Some(v) => self.alpha * sample + (1.0 - self.alpha) * v,
        };
        self.value = Some(next);
        next
    }

    /// Current average; `0.0` before any observation.
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Clears the average back to the uninitialized state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_seeds_value() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), 0.0);
        assert_eq!(e.observe(7.0), 7.0);
    }

    #[test]
    fn converges_toward_constant_input() {
        let mut e = Ewma::new(0.3);
        for _ in 0..200 {
            e.observe(4.0);
        }
        assert!((e.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_one_tracks_last_sample() {
        let mut e = Ewma::new(1.0);
        e.observe(1.0);
        e.observe(9.0);
        assert_eq!(e.value(), 9.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut e = Ewma::new(0.5);
        e.observe(2.0);
        e.reset();
        assert_eq!(e.value(), 0.0);
        // The next observation seeds the value again.
        assert_eq!(e.observe(4.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "EWMA alpha must be in (0, 1]")]
    fn rejects_zero_alpha() {
        Ewma::new(0.0);
    }
}
