//! The adaptive frame-sampling controller — the paper's Eqs. (2)–(3).
//!
//! The cloud keeps the scene-change score φ̄ near a target, pushes the
//! sampling rate up when the edge's estimated accuracy α falls below its
//! target, and carries the previous rate scaled by the resource-usage
//! trend λ:
//!
//! ```text
//! r_{t+1} = [ R(φ) + R(α) + R(λ) ]_{r_min}^{r_max}
//! R(φ) = η_r · (φ̄_t − φ_target)
//! R(α) = η_α · max(0, α_target − α_t)
//! R(λ) = (1 + λ̄_{t+1} − λ̄_t) · r_t
//! ```

use crate::error::InvalidConfig;
use shoggoth_metrics::match_detections;
use shoggoth_models::Detection;
use shoggoth_util::{Ewma, RingBuffer};
use shoggoth_video::GroundTruthObject;

/// Controller parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Target scene-change score `φ_target`.
    pub phi_target: f64,
    /// Target estimated accuracy `α_target`.
    pub alpha_target: f64,
    /// Step size `η_r` on the φ term.
    pub eta_r: f64,
    /// Step size `η_α` on the α term.
    pub eta_alpha: f64,
    /// Minimum sampling rate in fps (the paper uses 0.1).
    pub r_min: f64,
    /// Maximum sampling rate in fps (the paper uses 2.0).
    pub r_max: f64,
    /// Initial sampling rate in fps.
    pub initial_rate: f64,
    /// Length of the recent-frame horizon over which φ̄ is averaged.
    pub phi_window: usize,
    /// Smoothing factor of the λ̄ exponentially-weighted average.
    pub lambda_alpha: f64,
}

impl ControllerConfig {
    /// The defaults used throughout the evaluation.
    pub fn paper_defaults() -> Self {
        Self {
            phi_target: 0.35,
            alpha_target: 0.8,
            eta_r: 2.5,
            eta_alpha: 3.0,
            r_min: 0.1,
            r_max: 2.0,
            initial_rate: 0.5,
            phi_window: 30,
            lambda_alpha: 0.4,
        }
    }
}

impl ControllerConfig {
    /// The sampling rate the edge falls back to while the uplink circuit
    /// breaker is open: the controller's floor `r_min`. Sampling at the
    /// floor keeps the chunk cadence (and hence recovery probing) alive
    /// without spending bandwidth the outage would waste.
    pub fn outage_floor(&self) -> f64 {
        self.r_min
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// One controller update, fully attributed: every Eq. (2)–(3) input and
/// term alongside the resulting rate, so telemetry can explain *why* the
/// rate moved (φ pressure, α pressure, or the λ carry term).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateDecision {
    /// Scene-change score φ̄ over the recent-frame horizon.
    pub phi_bar: f64,
    /// Edge-reported estimated accuracy α_t.
    pub alpha: f64,
    /// Raw resource-usage sample λ_{t+1} (clamped to `[0, 1]`).
    pub lambda: f64,
    /// Smoothed λ̄_{t+1} after observing this sample.
    pub lambda_bar: f64,
    /// Term `R(φ) = η_r · (φ̄_t − φ_target)`.
    pub r_phi: f64,
    /// Term `R(α) = η_α · max(0, α_target − α_t)`.
    pub r_alpha: f64,
    /// Term `R(λ) = (1 + λ̄_{t+1} − λ̄_t) · r_t`.
    pub r_lambda: f64,
    /// The clamped new rate `r_{t+1}` in fps.
    pub rate: f64,
}

/// The sampling-rate controller running in the cloud.
///
/// # Examples
///
/// ```
/// use shoggoth::controller::{ControllerConfig, SamplingRateController};
///
/// let mut ctl = SamplingRateController::new(ControllerConfig::paper_defaults())?;
/// // Rapid scene change and poor accuracy drive the rate upward.
/// for _ in 0..10 {
///     ctl.observe_phi(0.9);
/// }
/// let r = ctl.update_detailed(0.3, 0.2).rate;
/// assert!(r > ctl.config().initial_rate);
/// assert!(r <= ctl.config().r_max);
/// # Ok::<(), shoggoth::error::InvalidConfig>(())
/// ```
#[derive(Debug, Clone)]
pub struct SamplingRateController {
    config: ControllerConfig,
    rate: f64,
    phi_horizon: RingBuffer<f64>,
    lambda_ewma: Ewma,
    lambda_bar_prev: f64,
}

impl SamplingRateController {
    /// Creates a controller at the configured initial rate.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if the configuration is inconsistent
    /// (`r_min > r_max`, `r_min <= 0`, non-positive window, an initial
    /// rate outside the bounds, a non-finite step size or target, or a
    /// `lambda_alpha` outside `(0, 1]`). Each of these would otherwise
    /// panic or drive the rate to 0 or NaN, which stops the edge sampling.
    pub fn new(config: ControllerConfig) -> Result<Self, InvalidConfig> {
        let reject = |reason| InvalidConfig {
            component: "sampling-rate controller",
            reason,
        };
        if config.r_min > config.r_max {
            return Err(reject("r_min must not exceed r_max"));
        }
        if config.r_min <= 0.0 {
            return Err(reject("r_min must be positive"));
        }
        for (value, reason) in [
            (config.eta_r, "eta_r must be finite"),
            (config.eta_alpha, "eta_alpha must be finite"),
            (config.phi_target, "phi_target must be finite"),
            (config.alpha_target, "alpha_target must be finite"),
        ] {
            if !value.is_finite() {
                return Err(reject(reason));
            }
        }
        if !(config.lambda_alpha > 0.0 && config.lambda_alpha <= 1.0) {
            return Err(reject("lambda_alpha must be in (0, 1]"));
        }
        if config.phi_window == 0 {
            return Err(reject("phi window must be positive"));
        }
        if !(config.r_min..=config.r_max).contains(&config.initial_rate) {
            return Err(reject("initial rate must lie within [r_min, r_max]"));
        }
        Ok(Self {
            rate: config.initial_rate,
            phi_horizon: RingBuffer::new(config.phi_window),
            lambda_ewma: Ewma::new(config.lambda_alpha),
            lambda_bar_prev: 0.0,
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Current sampling rate `r_t` in fps.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean φ over the recent-frame horizon.
    pub fn phi_bar(&self) -> f64 {
        self.phi_horizon.mean()
    }

    /// Records a per-frame scene-change score (cloud side, computed from
    /// consecutive teacher labels).
    pub fn observe_phi(&mut self, phi: f64) {
        self.phi_horizon.push(phi.clamp(0.0, 1.0));
    }

    /// Applies Eq. (2)/(3) with the edge-reported estimated accuracy `α_t`
    /// and resource usage `λ_{t+1}`, returning the fully-attributed
    /// [`RateDecision`] (telemetry's controller trace) whose `rate` is the
    /// new rate `r_{t+1}`.
    pub fn update_detailed(&mut self, alpha: f64, lambda: f64) -> RateDecision {
        let phi_bar = self.phi_bar();
        let r_phi = self.config.eta_r * (phi_bar - self.config.phi_target);
        let r_alpha = self.config.eta_alpha * (self.config.alpha_target - alpha).max(0.0);
        let lambda_bar_next = self.lambda_ewma.observe(lambda.clamp(0.0, 1.0));
        let r_lambda = (1.0 + lambda_bar_next - self.lambda_bar_prev) * self.rate;
        self.lambda_bar_prev = lambda_bar_next;
        self.rate = (r_phi + r_alpha + r_lambda).clamp(self.config.r_min, self.config.r_max);
        RateDecision {
            phi_bar,
            alpha,
            lambda,
            lambda_bar: lambda_bar_next,
            r_phi,
            r_alpha,
            r_lambda,
            rate: self.rate,
        }
    }
}

/// The per-frame scene-change score φ_k (§III-C).
///
/// The paper defines φ_k as the task loss of the teacher's labels on frame
/// `I_k` scored against its labels on `I_{k−1}`, and motivates this by
/// noting that *labels* live in a much smaller space than pixels, making
/// them a robust change signal. We follow that argument to its clean form:
/// φ is the total-variation distance between the two frames' class-count
/// histograms, plus the disagreement left after geometric matching at a
/// loose IoU. Identical label sets score 0; disjoint ones score 1; two
/// empty frames score 0 (a perfectly stationary empty scene).
///
/// (A strict IoU-0.5 matching is deliberately *not* used here: at sampling
/// gaps of a second or more, object motion alone breaks box overlap, which
/// would saturate φ and blind the controller — the label-space histogram
/// is the stable signal.)
pub fn phi_score(prev: &[Detection], cur: &[Detection]) -> f64 {
    let total = prev.len() + cur.len();
    if total == 0 {
        return 0.0;
    }
    // Class-count total-variation term: how much did the label
    // *population* change?
    let max_class = prev.iter().chain(cur).map(|d| d.class).max().unwrap_or(0);
    let mut count_prev = vec![0i64; max_class + 1];
    let mut count_cur = vec![0i64; max_class + 1];
    for d in prev {
        count_prev[d.class] += 1;
    }
    for d in cur {
        count_cur[d.class] += 1;
    }
    let tv: i64 = count_prev
        .iter()
        .zip(&count_cur)
        .map(|(a, b)| (a - b).abs())
        .sum();
    let histogram_term = tv as f64 / total as f64;

    // Geometric term at a loose IoU: of the objects that persist by
    // count, how many moved out of overlap entirely?
    let pseudo_gt: Vec<GroundTruthObject> = prev
        .iter()
        .enumerate()
        .map(|(i, d)| GroundTruthObject {
            track_id: i as u64,
            class: d.class,
            bbox: d.bbox,
        })
        .collect();
    let result = match_detections(cur, &pseudo_gt, 0.1);
    let geometric_term = 1.0 - 2.0 * result.true_positives as f64 / total as f64;

    (0.7 * histogram_term + 0.3 * geometric_term).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_video::BBox;

    fn det(class: usize, x: f32) -> Detection {
        Detection {
            bbox: BBox::new(x, 0.1, 0.2, 0.2),
            class,
            confidence: 0.9,
        }
    }

    #[test]
    fn identical_labels_score_zero_phi() {
        let labels = vec![det(0, 0.1), det(1, 0.5)];
        assert!(phi_score(&labels, &labels).abs() < 1e-9);
    }

    #[test]
    fn disjoint_labels_score_one_phi() {
        let a = vec![det(0, 0.1)];
        let b = vec![det(1, 0.7)];
        assert!((phi_score(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_pair_scores_zero_phi() {
        assert_eq!(phi_score(&[], &[]), 0.0);
    }

    #[test]
    fn appearing_object_scores_partial_phi() {
        let a = vec![det(0, 0.1)];
        let b = vec![det(0, 0.1), det(0, 0.6)];
        let phi = phi_score(&a, &b);
        assert!((phi - (1.0 - 2.0 / 3.0)).abs() < 1e-9, "phi {phi}");
    }

    #[test]
    fn rate_stays_within_bounds() {
        let mut ctl = SamplingRateController::new(ControllerConfig::paper_defaults())
            .expect("valid defaults");
        for _ in 0..20 {
            ctl.observe_phi(1.0);
        }
        for _ in 0..10 {
            let r = ctl.update_detailed(0.0, 1.0).rate;
            assert!(r <= ctl.config().r_max && r >= ctl.config().r_min);
        }
        assert!((ctl.rate() - 2.0).abs() < 1e-9, "should saturate at r_max");
    }

    #[test]
    fn stationary_scene_drives_rate_down() {
        let mut ctl = SamplingRateController::new(ControllerConfig::paper_defaults())
            .expect("valid defaults");
        // No scene change, accurate model, low resource pressure.
        for _ in 0..30 {
            ctl.observe_phi(0.0);
        }
        for _ in 0..20 {
            ctl.update_detailed(0.95, 0.05);
        }
        assert!(
            ctl.rate() < ctl.config().initial_rate,
            "rate should fall on stationary video: {}",
            ctl.rate()
        );
    }

    #[test]
    fn poor_accuracy_raises_rate() {
        let mut ctl = SamplingRateController::new(ControllerConfig::paper_defaults())
            .expect("valid defaults");
        for _ in 0..30 {
            ctl.observe_phi(0.25); // exactly on target: no φ pressure
        }
        let before = ctl.rate();
        let after = ctl.update_detailed(0.2, 0.1).rate;
        assert!(
            after > before,
            "low α must raise the rate: {before} -> {after}"
        );
    }

    #[test]
    fn update_is_literal_equation() {
        let config = ControllerConfig {
            phi_target: 0.2,
            alpha_target: 0.8,
            eta_r: 1.0,
            eta_alpha: 2.0,
            r_min: 0.1,
            r_max: 10.0,
            initial_rate: 1.0,
            phi_window: 4,
            lambda_alpha: 1.0, // λ̄ tracks the last sample exactly
        };
        let mut ctl = SamplingRateController::new(config).expect("valid config");
        ctl.observe_phi(0.6); // φ̄ = 0.6
                              // R(φ) = 1.0·(0.6−0.2) = 0.4
                              // R(α) = 2.0·max(0, 0.8−0.5) = 0.6
                              // λ̄_{t+1} = 0.3, λ̄_t = 0 → R(λ) = (1+0.3)·1.0 = 1.3
        let r = ctl.update_detailed(0.5, 0.3).rate;
        assert!((r - 2.3).abs() < 1e-9, "r {r}");
    }

    #[test]
    fn out_of_range_initial_rate_rejected() {
        let err = SamplingRateController::new(ControllerConfig {
            initial_rate: 5.0,
            ..ControllerConfig::paper_defaults()
        })
        .expect_err("out-of-range initial rate must be rejected");
        assert!(err.reason.contains("initial rate must lie within"), "{err}");
    }

    #[test]
    fn inverted_bounds_rejected() {
        let err = SamplingRateController::new(ControllerConfig {
            r_min: 3.0,
            r_max: 1.0,
            ..ControllerConfig::paper_defaults()
        })
        .expect_err("inverted bounds must be rejected");
        assert!(err.reason.contains("r_min"), "{err}");
    }

    /// The reason `SamplingRateController::new` gives for rejecting the
    /// paper defaults with `edit` applied.
    fn rejection(edit: impl FnOnce(&mut ControllerConfig)) -> &'static str {
        let mut config = ControllerConfig::paper_defaults();
        edit(&mut config);
        SamplingRateController::new(config)
            .expect_err("invalid config must be rejected")
            .reason
    }

    #[test]
    fn lambda_alpha_outside_unit_interval_rejected() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let reason = rejection(|c| c.lambda_alpha = bad);
            assert!(reason.contains("lambda_alpha"), "{bad}: {reason}");
        }
    }

    #[test]
    fn non_finite_eta_r_rejected() {
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(rejection(|c| c.eta_r = bad).contains("eta_r"));
        }
    }

    #[test]
    fn non_finite_eta_alpha_rejected() {
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            assert!(rejection(|c| c.eta_alpha = bad).contains("eta_alpha"));
        }
    }

    #[test]
    fn non_finite_phi_target_rejected() {
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(rejection(|c| c.phi_target = bad).contains("phi_target"));
        }
    }

    #[test]
    fn non_finite_alpha_target_rejected() {
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            assert!(rejection(|c| c.alpha_target = bad).contains("alpha_target"));
        }
    }

    #[test]
    fn non_positive_r_min_rejected() {
        for bad in [0.0, -0.1] {
            let reason = rejection(|c| {
                c.r_min = bad;
                c.initial_rate = 0.5;
            });
            assert!(reason.contains("r_min must be positive"), "{bad}: {reason}");
        }
    }

    #[test]
    fn zero_step_sizes_stay_valid() {
        let config = ControllerConfig {
            eta_r: 0.0,
            eta_alpha: 0.0,
            ..ControllerConfig::paper_defaults()
        };
        assert!(SamplingRateController::new(config).is_ok());
    }
}
