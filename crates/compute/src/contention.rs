//! Inference/training GPU contention (Figure 4).

/// Models how much inference throughput survives while an adaptive
/// training session shares the device.
///
/// The paper observes edge inference dropping from 30 fps to ~15 fps while
/// training runs, for a small average loss because sessions are short.
///
/// # Examples
///
/// ```
/// use shoggoth_compute::Contention;
///
/// let c = Contention::default();
/// assert_eq!(c.inference_fps(30.0, false), 30.0);
/// assert_eq!(c.inference_fps(30.0, true), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contention {
    /// Fraction of idle inference throughput available during training.
    pub inference_share: f64,
}

impl Contention {
    /// Creates a contention model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < inference_share <= 1`.
    pub fn new(inference_share: f64) -> Self {
        assert!(
            inference_share > 0.0 && inference_share <= 1.0,
            "inference share must be in (0, 1]"
        );
        Self { inference_share }
    }

    /// Achieved inference FPS given the device's idle cap and whether a
    /// training session is currently running.
    pub fn inference_fps(&self, idle_fps: f64, training_active: bool) -> f64 {
        if training_active {
            idle_fps * self.inference_share
        } else {
            idle_fps
        }
    }
}

impl Default for Contention {
    /// The paper's observed 50% share (30 → 15 fps).
    fn default() -> Self {
        Self::new(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_training_means_full_rate() {
        assert_eq!(Contention::new(0.3).inference_fps(30.0, false), 30.0);
    }

    #[test]
    fn training_scales_rate_down() {
        assert_eq!(Contention::new(0.3).inference_fps(30.0, true), 9.0);
    }

    #[test]
    #[should_panic(expected = "inference share must be in (0, 1]")]
    fn zero_share_rejected() {
        Contention::new(0.0);
    }
}
