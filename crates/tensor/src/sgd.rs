//! Mini-batch SGD configuration.

/// Hyper-parameters for stochastic gradient descent with momentum.
///
/// The paper's adaptive training "decreases the learning rate of all layers
/// before the replay layer and allows full learning of all layers after" —
/// here to zero, by not updating those layers at all
/// ([`crate::Mlp::train_step`]); this struct carries the one rate of the
/// layers that do train.
///
/// # Examples
///
/// ```
/// use shoggoth_tensor::SgdConfig;
///
/// let sgd = SgdConfig::new(0.05).with_momentum(0.9).with_weight_decay(1e-4);
/// assert_eq!(sgd.learning_rate, 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Base learning rate applied to every parameter.
    pub learning_rate: f32,
    /// Momentum coefficient in `[0, 1)`; `0.0` disables momentum.
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
}

impl SgdConfig {
    /// Creates a configuration with the given learning rate and no momentum
    /// or weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is negative or non-finite.
    pub fn new(learning_rate: f32) -> Self {
        assert!(
            learning_rate.is_finite() && learning_rate >= 0.0,
            "learning rate must be a non-negative finite number"
        );
        Self {
            learning_rate,
            momentum: 0.0,
            weight_decay: 0.0,
        }
    }

    /// Sets the momentum coefficient.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= momentum < 1`.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        self.momentum = momentum;
        self
    }

    /// Sets the L2 weight-decay coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `weight_decay` is negative or non-finite.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        assert!(
            weight_decay.is_finite() && weight_decay >= 0.0,
            "weight decay must be a non-negative finite number"
        );
        self.weight_decay = weight_decay;
        self
    }
}

impl Default for SgdConfig {
    /// A conservative default: `lr = 0.01`, no momentum, no weight decay.
    fn default() -> Self {
        Self::new(0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let sgd = SgdConfig::new(0.1)
            .with_momentum(0.9)
            .with_weight_decay(0.001);
        assert_eq!(sgd.momentum, 0.9);
        assert_eq!(sgd.weight_decay, 0.001);
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(SgdConfig::default(), SgdConfig::new(0.01));
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0, 1)")]
    fn rejects_momentum_of_one() {
        SgdConfig::new(0.1).with_momentum(1.0);
    }

    #[test]
    #[should_panic(expected = "learning rate must be a non-negative finite number")]
    fn rejects_negative_learning_rate() {
        SgdConfig::new(-0.1);
    }
}
