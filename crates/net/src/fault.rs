//! Composable link-fault model: bursty loss, scheduled outages, bandwidth
//! degradation, and latency jitter.
//!
//! The seed repo injected failures with a single i.i.d. `loss_rate`, which
//! cannot express the failure modes that actually break edge-cloud
//! adaptation loops: losses arrive in *bursts* (fading, congestion),
//! connectivity disappears for whole *windows* (tunnels, handovers),
//! capacity *degrades* without vanishing, and latency *spikes*. A
//! [`FaultProfile`] composes all four, each optional, on top of the
//! baseline i.i.d. loss:
//!
//! | fault                | type                | models                          |
//! |----------------------|---------------------|---------------------------------|
//! | baseline loss        | `loss_rate`         | random independent packet loss  |
//! | bursty loss          | [`GilbertElliott`]  | fading / congestion episodes    |
//! | scheduled outage     | [`OutageWindow`]    | tunnels, handovers, blackouts   |
//! | capacity degradation | [`DegradationWindow`] | contention, rate adaptation   |
//! | latency jitter       | [`LatencyJitter`]   | queueing delay and spikes       |
//!
//! Every stochastic decision is drawn from the caller-supplied seeded
//! [`shoggoth_util::Rng`], so a chaos run is a pure function of its seed
//! and schedule. Construction-time validation rejects NaN/out-of-range
//! rates and inverted windows with a typed [`InvalidLink`] error instead
//! of silently clamping.

use shoggoth_util::Rng;

/// A link or fault-profile configuration rejected at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLink {
    /// The configuration field that failed validation.
    pub field: &'static str,
    /// Why the value was rejected.
    pub reason: &'static str,
}

impl std::fmt::Display for InvalidLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid link configuration ({}): {}",
            self.field, self.reason
        )
    }
}

impl std::error::Error for InvalidLink {}

/// Whether `v` is a valid probability (finite, in `[0, 1]`; NaN fails).
fn unit_rate(v: f64) -> bool {
    (0.0..=1.0).contains(&v)
}

/// A two-state Gilbert–Elliott loss chain.
///
/// The link alternates between a *good* and a *bad* state; each message
/// send advances the chain by one step and then draws loss at the state's
/// rate. With `loss_bad` near one and small transition probabilities this
/// produces the long clustered loss episodes that i.i.d. loss cannot:
/// the same average loss rate concentrated into bursts that starve the
/// labeling loop for seconds at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-message probability of entering the bad state from good.
    pub enter_bad: f64,
    /// Per-message probability of leaving the bad state back to good.
    pub exit_bad: f64,
    /// Loss rate while in the good state.
    pub loss_good: f64,
    /// Loss rate while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A typical bursty-cellular profile: rare 10-message-scale bursts
    /// that lose almost everything, near-lossless in between.
    pub fn bursty() -> Self {
        Self {
            enter_bad: 0.05,
            exit_bad: 0.2,
            loss_good: 0.01,
            loss_bad: 0.95,
        }
    }

    /// Validates every probability.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLink`] if any field is NaN or outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), InvalidLink> {
        let fields = [
            ("burst.enter_bad", self.enter_bad),
            ("burst.exit_bad", self.exit_bad),
            ("burst.loss_good", self.loss_good),
            ("burst.loss_bad", self.loss_bad),
        ];
        for (field, v) in fields {
            if !unit_rate(v) {
                return Err(InvalidLink {
                    field,
                    reason: "must be a probability in [0, 1] (NaN rejected)",
                });
            }
        }
        Ok(())
    }

    /// Advances the chain one step from `bad` and returns the new state.
    pub fn step(&self, bad: bool, rng: &mut Rng) -> bool {
        if bad {
            !rng.bernoulli(self.exit_bad)
        } else {
            rng.bernoulli(self.enter_bad)
        }
    }

    /// The loss rate of the given state.
    pub fn state_loss(&self, bad: bool) -> f64 {
        if bad {
            self.loss_bad
        } else {
            self.loss_good
        }
    }
}

/// A scheduled total-connectivity outage: every message sent with
/// `start_secs <= now < end_secs` is lost, deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Outage start, in simulation seconds (inclusive).
    pub start_secs: f64,
    /// Outage end, in simulation seconds (exclusive).
    pub end_secs: f64,
}

impl OutageWindow {
    /// Whether the outage covers simulation time `now_secs`.
    pub fn covers(&self, now_secs: f64) -> bool {
        (self.start_secs..self.end_secs).contains(&now_secs)
    }

    /// Validates the window bounds.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLink`] on non-finite bounds, a negative start, or
    /// an inverted/empty window (`end_secs <= start_secs`).
    pub fn validate(&self) -> Result<(), InvalidLink> {
        if !self.start_secs.is_finite() || self.start_secs < 0.0 {
            return Err(InvalidLink {
                field: "outage.start_secs",
                reason: "must be finite and non-negative",
            });
        }
        if !self.end_secs.is_finite() || self.end_secs <= self.start_secs {
            return Err(InvalidLink {
                field: "outage.end_secs",
                reason: "window must be finite and not inverted (end > start)",
            });
        }
        Ok(())
    }
}

/// A bandwidth-degradation episode: while active, both link capacities are
/// multiplied by `capacity_factor` (transfers slow down; nothing is lost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationWindow {
    /// Episode start, in simulation seconds (inclusive).
    pub start_secs: f64,
    /// Episode end, in simulation seconds (exclusive).
    pub end_secs: f64,
    /// Capacity multiplier in `(0, 1]` while the episode is active.
    pub capacity_factor: f64,
}

impl DegradationWindow {
    /// Whether the episode covers simulation time `now_secs`.
    pub fn covers(&self, now_secs: f64) -> bool {
        (self.start_secs..self.end_secs).contains(&now_secs)
    }

    /// Validates the window bounds and factor.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLink`] on non-finite bounds, a negative start, an
    /// inverted/empty window, or a factor outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), InvalidLink> {
        if !self.start_secs.is_finite() || self.start_secs < 0.0 {
            return Err(InvalidLink {
                field: "degradation.start_secs",
                reason: "must be finite and non-negative",
            });
        }
        if !self.end_secs.is_finite() || self.end_secs <= self.start_secs {
            return Err(InvalidLink {
                field: "degradation.end_secs",
                reason: "window must be finite and not inverted (end > start)",
            });
        }
        if !self.capacity_factor.is_finite()
            || self.capacity_factor <= 0.0
            || self.capacity_factor > 1.0
        {
            return Err(InvalidLink {
                field: "degradation.capacity_factor",
                reason: "must be in (0, 1] (NaN rejected)",
            });
        }
        Ok(())
    }
}

/// Random latency perturbation on delivered messages: a uniform jitter in
/// `[0, jitter_secs)` on every transfer, plus an occasional spike of
/// `spike_secs` with probability `spike_prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyJitter {
    /// Maximum uniform jitter added to every delivered transfer, seconds.
    pub jitter_secs: f64,
    /// Per-message probability of a latency spike.
    pub spike_prob: f64,
    /// Extra latency of a spike, seconds.
    pub spike_secs: f64,
}

impl LatencyJitter {
    /// Validates the jitter parameters.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLink`] on negative/non-finite durations or a
    /// `spike_prob` outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), InvalidLink> {
        if !self.jitter_secs.is_finite() || self.jitter_secs < 0.0 {
            return Err(InvalidLink {
                field: "jitter.jitter_secs",
                reason: "must be finite and non-negative",
            });
        }
        if !unit_rate(self.spike_prob) {
            return Err(InvalidLink {
                field: "jitter.spike_prob",
                reason: "must be a probability in [0, 1] (NaN rejected)",
            });
        }
        if !self.spike_secs.is_finite() || self.spike_secs < 0.0 {
            return Err(InvalidLink {
                field: "jitter.spike_secs",
                reason: "must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// A composable fault schedule for one link.
///
/// # Examples
///
/// ```
/// use shoggoth_net::fault::{FaultProfile, GilbertElliott};
///
/// let profile = FaultProfile::none()
///     .with_loss_rate(0.02)
///     .with_burst(GilbertElliott::bursty())
///     .with_outage(30.0, 45.0)
///     .with_degradation(60.0, 90.0, 0.25);
/// profile.validate()?;
/// assert!(profile.outage_active(31.0));
/// assert!(!profile.outage_active(45.0));
/// assert!((profile.capacity_factor(75.0) - 0.25).abs() < 1e-12);
/// # Ok::<(), shoggoth_net::fault::InvalidLink>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Baseline i.i.d. per-message loss probability.
    pub loss_rate: f64,
    /// Optional Gilbert–Elliott bursty-loss chain, layered on top of the
    /// baseline loss.
    pub burst: Option<GilbertElliott>,
    /// Scheduled total outages.
    pub outages: Vec<OutageWindow>,
    /// Scheduled bandwidth-degradation episodes.
    pub degradations: Vec<DegradationWindow>,
    /// Latency jitter and spikes on delivered messages.
    pub jitter: Option<LatencyJitter>,
}

impl FaultProfile {
    /// A fault-free profile (the paper's experiments).
    pub fn none() -> Self {
        Self {
            loss_rate: 0.0,
            burst: None,
            outages: Vec::new(),
            degradations: Vec::new(),
            jitter: None,
        }
    }

    /// The scripted outage storm of the chaos smoke, the telemetry
    /// timelines and the behaviour pins, one 90 s window of every fault
    /// kind: 5% i.i.d. loss under bursty Gilbert–Elliott loss, total
    /// outages over 15–58 s and 75–79 s, capacity halved over 60–68 s,
    /// and 50 ms jitter with 1 s spikes on 10% of messages.
    pub fn storm() -> Self {
        Self::none()
            .with_loss_rate(0.05)
            .with_burst(GilbertElliott::bursty())
            .with_outage(15.0, 58.0)
            .with_outage(75.0, 79.0)
            .with_degradation(60.0, 68.0, 0.5)
            .with_jitter(LatencyJitter {
                jitter_secs: 0.05,
                spike_prob: 0.1,
                spike_secs: 1.0,
            })
    }

    /// Sets the baseline i.i.d. loss rate (validated, not clamped).
    #[must_use]
    pub fn with_loss_rate(mut self, loss_rate: f64) -> Self {
        self.loss_rate = loss_rate;
        self
    }

    /// Adds a Gilbert–Elliott bursty-loss chain.
    #[must_use]
    pub fn with_burst(mut self, burst: GilbertElliott) -> Self {
        self.burst = Some(burst);
        self
    }

    /// Adds a scheduled outage window.
    #[must_use]
    pub fn with_outage(mut self, start_secs: f64, end_secs: f64) -> Self {
        self.outages.push(OutageWindow {
            start_secs,
            end_secs,
        });
        self
    }

    /// Adds a bandwidth-degradation episode.
    #[must_use]
    pub fn with_degradation(mut self, start_secs: f64, end_secs: f64, factor: f64) -> Self {
        self.degradations.push(DegradationWindow {
            start_secs,
            end_secs,
            capacity_factor: factor,
        });
        self
    }

    /// Adds latency jitter.
    #[must_use]
    pub fn with_jitter(mut self, jitter: LatencyJitter) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// Validates every component of the profile.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidLink`] found: NaN or out-of-range rates,
    /// inverted windows, or out-of-range degradation factors.
    pub fn validate(&self) -> Result<(), InvalidLink> {
        if !unit_rate(self.loss_rate) {
            return Err(InvalidLink {
                field: "loss_rate",
                reason: "must be a probability in [0, 1] (NaN rejected)",
            });
        }
        if let Some(burst) = &self.burst {
            burst.validate()?;
        }
        for outage in &self.outages {
            outage.validate()?;
        }
        for degradation in &self.degradations {
            degradation.validate()?;
        }
        if let Some(jitter) = &self.jitter {
            jitter.validate()?;
        }
        Ok(())
    }

    /// Whether any scheduled outage covers simulation time `now_secs`.
    pub fn outage_active(&self, now_secs: f64) -> bool {
        self.outages.iter().any(|w| w.covers(now_secs))
    }

    /// The effective capacity multiplier at `now_secs`: the smallest
    /// factor among active degradation episodes, `1.0` when none is
    /// active.
    pub fn capacity_factor(&self, now_secs: f64) -> f64 {
        self.degradations
            .iter()
            .filter(|w| w.covers(now_secs))
            .map(|w| w.capacity_factor)
            .fold(1.0, f64::min)
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_loss_rate_rejected() {
        let err = FaultProfile::none()
            .with_loss_rate(f64::NAN)
            .validate()
            .expect_err("NaN loss rate must be rejected");
        assert_eq!(err.field, "loss_rate");
    }

    #[test]
    fn negative_and_above_one_loss_rates_rejected() {
        assert!(FaultProfile::none()
            .with_loss_rate(-0.1)
            .validate()
            .is_err());
        assert!(FaultProfile::none().with_loss_rate(1.5).validate().is_err());
        assert!(FaultProfile::none().with_loss_rate(1.0).validate().is_ok());
    }

    #[test]
    fn inverted_outage_window_rejected() {
        let err = FaultProfile::none()
            .with_outage(10.0, 5.0)
            .validate()
            .expect_err("inverted window must be rejected");
        assert_eq!(err.field, "outage.end_secs");
        // Empty windows are rejected too.
        assert!(FaultProfile::none()
            .with_outage(5.0, 5.0)
            .validate()
            .is_err());
        assert!(FaultProfile::none()
            .with_outage(5.0, 6.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn negative_outage_start_rejected() {
        let err = FaultProfile::none()
            .with_outage(-1.0, 5.0)
            .validate()
            .expect_err("negative start must be rejected");
        assert_eq!(err.field, "outage.start_secs");
    }

    #[test]
    fn degradation_factor_domain_enforced() {
        assert!(FaultProfile::none()
            .with_degradation(0.0, 10.0, 0.0)
            .validate()
            .is_err());
        assert!(FaultProfile::none()
            .with_degradation(0.0, 10.0, 1.5)
            .validate()
            .is_err());
        assert!(FaultProfile::none()
            .with_degradation(0.0, 10.0, f64::NAN)
            .validate()
            .is_err());
        assert!(FaultProfile::none()
            .with_degradation(0.0, 10.0, 1.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn burst_probabilities_validated() {
        let bad = GilbertElliott {
            enter_bad: 1.2,
            ..GilbertElliott::bursty()
        };
        assert!(bad.validate().is_err());
        assert!(GilbertElliott::bursty().validate().is_ok());
    }

    #[test]
    fn jitter_domain_enforced() {
        let bad = LatencyJitter {
            jitter_secs: -0.5,
            spike_prob: 0.1,
            spike_secs: 1.0,
        };
        assert!(bad.validate().is_err());
        let nan_prob = LatencyJitter {
            jitter_secs: 0.01,
            spike_prob: f64::NAN,
            spike_secs: 1.0,
        };
        assert!(nan_prob.validate().is_err());
    }

    #[test]
    fn outage_and_degradation_windows_are_half_open() {
        let profile = FaultProfile::none()
            .with_outage(10.0, 20.0)
            .with_degradation(10.0, 20.0, 0.5);
        assert!(!profile.outage_active(9.999));
        assert!(profile.outage_active(10.0));
        assert!(profile.outage_active(19.999));
        assert!(!profile.outage_active(20.0));
        assert!((profile.capacity_factor(15.0) - 0.5).abs() < 1e-12);
        assert!((profile.capacity_factor(20.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_degradations_take_the_worst_factor() {
        let profile = FaultProfile::none()
            .with_degradation(0.0, 30.0, 0.5)
            .with_degradation(10.0, 20.0, 0.2);
        assert!((profile.capacity_factor(15.0) - 0.2).abs() < 1e-12);
        assert!((profile.capacity_factor(25.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gilbert_elliott_bursts_cluster_losses() {
        // With the same long-run loss rate, the GE chain should produce
        // longer loss runs than i.i.d. loss. Measure the mean loss-run
        // length over a long message sequence.
        let ge = GilbertElliott::bursty();
        let mut rng = Rng::seed_from(42);
        let mut bad = false;
        let mut losses = Vec::with_capacity(20_000);
        for _ in 0..20_000 {
            bad = ge.step(bad, &mut rng);
            losses.push(rng.bernoulli(ge.state_loss(bad)));
        }
        let mean_run = mean_loss_run(&losses);
        assert!(
            mean_run > 2.0,
            "bursty chain should cluster losses: mean run {mean_run}"
        );
    }

    #[test]
    fn gilbert_elliott_is_deterministic() {
        let ge = GilbertElliott::bursty();
        let run = |seed: u64| {
            let mut rng = Rng::seed_from(seed);
            let mut bad = false;
            (0..256)
                .map(|_| {
                    bad = ge.step(bad, &mut rng);
                    bad
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    fn mean_loss_run(losses: &[bool]) -> f64 {
        let mut runs = 0u64;
        let mut total = 0u64;
        let mut current = 0u64;
        for &lost in losses {
            if lost {
                current += 1;
            } else if current > 0 {
                runs += 1;
                total += current;
                current = 0;
            }
        }
        if current > 0 {
            runs += 1;
            total += current;
        }
        if runs == 0 {
            0.0
        } else {
            total as f64 / runs as f64
        }
    }
}
