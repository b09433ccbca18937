//! Edge-side resilience: upload timeouts, bounded retransmission with
//! exponential backoff, and a circuit breaker over the uplink.
//!
//! The paper assumes the cloud path is best-effort, but the seed
//! implementation took that literally: during a total blackout the edge
//! "kept (pointlessly) transmitting" — every chunk billed, none
//! delivered, no reaction anywhere. This module gives the edge the three
//! standard failure-management mechanisms, all deterministic under the
//! simulation's seeded RNG:
//!
//! * **In-flight tracking** ([`EdgeResilience::register`] /
//!   [`EdgeResilience::ack`]): every upload carries an id and a deadline;
//!   an upload not acknowledged (labels returned) by its deadline counts
//!   as a timeout.
//! * **Bounded retransmission**: timed-out chunks requeue with
//!   exponential backoff plus jitter, up to `max_attempts` sends and a
//!   bounded queue — overflow drops the oldest work instead of growing
//!   without bound.
//! * **Circuit breaker** ([`CircuitBreaker`]): consecutive timeouts open
//!   the breaker, which *suspends* the uplink (sampled chunks are counted
//!   and discarded, saving their bytes), freezes adaptation, and widens
//!   the sampling interval to the controller's outage floor. After a
//!   cooldown it half-opens and sends a single probe chunk; a delivered
//!   probe closes the breaker and releases the queued retransmits.
//!
//! ```text
//!            consecutive timeouts ≥ open_after
//!   CLOSED ────────────────────────────────────▶ OPEN
//!     ▲                                           │ cooldown elapsed
//!     │ probe acked                               ▼
//!     └────────────────────────────────────── HALF-OPEN
//!                     probe timeout ──▶ OPEN (again)
//! ```
//!
//! This module keeps no counts. The engine emits an event for every
//! upload, timeout and breaker transition, and [`ResilienceReport`] is
//! assembled from the run's event fold plus the link's loss counters; the
//! fold's per-state breaker spans sum to the simulation duration, an
//! invariant the chaos tests assert.

use crate::error::InvalidConfig;
use shoggoth_net::Link;
use shoggoth_telemetry::{BreakerPhase, RunTotals, TelemetryCounters};
use shoggoth_util::json::Obj;
use shoggoth_util::Rng;
use shoggoth_video::Frame;

/// Parameters of the edge resilience layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Seconds after which an unacknowledged upload counts as timed out.
    pub upload_timeout_secs: f64,
    /// Maximum total send attempts per chunk (1 = never retransmit).
    pub max_attempts: u32,
    /// Base of the exponential backoff before a retransmit, seconds.
    pub backoff_base_secs: f64,
    /// Cap on the exponential backoff, seconds.
    pub backoff_max_secs: f64,
    /// Uniform jitter added to each backoff, seconds (decorrelates
    /// retransmit storms across a fleet).
    pub backoff_jitter_secs: f64,
    /// Consecutive timeouts that open the circuit breaker
    /// (0 = breaker disabled, never opens).
    pub breaker_open_after: u32,
    /// Seconds the breaker stays open before half-opening with a probe.
    /// Each failed probe doubles the next cooldown (escalation), so a
    /// long outage costs a handful of probes, not one per cooldown.
    pub breaker_cooldown_secs: f64,
    /// Cap on the escalating cooldown, seconds. A successful recovery
    /// resets the cooldown to `breaker_cooldown_secs`.
    pub breaker_cooldown_max_secs: f64,
    /// Maximum chunks waiting in the retransmit queue; overflow drops the
    /// oldest queued chunk.
    pub retransmit_capacity: usize,
}

impl ResilienceConfig {
    /// The resilience layer as shipped: retries with backoff and an
    /// outage-detecting breaker.
    pub fn standard() -> Self {
        Self {
            upload_timeout_secs: 2.0,
            max_attempts: 3,
            backoff_base_secs: 0.5,
            backoff_max_secs: 8.0,
            backoff_jitter_secs: 0.25,
            breaker_open_after: 2,
            breaker_cooldown_secs: 5.0,
            breaker_cooldown_max_secs: 40.0,
            retransmit_capacity: 4,
        }
    }

    /// The seed repo's behavior: fire-and-forget uploads, no retries, no
    /// breaker. Used as the baseline in blackout-waste comparisons.
    pub fn disabled() -> Self {
        Self {
            upload_timeout_secs: 2.0,
            max_attempts: 1,
            backoff_base_secs: 0.5,
            backoff_max_secs: 8.0,
            backoff_jitter_secs: 0.0,
            breaker_open_after: 0,
            breaker_cooldown_secs: 5.0,
            breaker_cooldown_max_secs: 40.0,
            retransmit_capacity: 0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] on NaN/non-positive timeouts or
    /// cooldowns, negative backoff parameters, or `max_attempts == 0`.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        let reject = |reason| InvalidConfig {
            component: "resilience",
            reason,
        };
        if !self.upload_timeout_secs.is_finite() || self.upload_timeout_secs <= 0.0 {
            return Err(reject("upload timeout must be finite and positive"));
        }
        if self.max_attempts == 0 {
            return Err(reject("max attempts must be at least 1"));
        }
        if !self.backoff_base_secs.is_finite() || self.backoff_base_secs < 0.0 {
            return Err(reject("backoff base must be finite and non-negative"));
        }
        if !self.backoff_max_secs.is_finite() || self.backoff_max_secs < self.backoff_base_secs {
            return Err(reject("backoff cap must be finite and at least the base"));
        }
        if !self.backoff_jitter_secs.is_finite() || self.backoff_jitter_secs < 0.0 {
            return Err(reject("backoff jitter must be finite and non-negative"));
        }
        if !self.breaker_cooldown_secs.is_finite() || self.breaker_cooldown_secs <= 0.0 {
            return Err(reject("breaker cooldown must be finite and positive"));
        }
        if !self.breaker_cooldown_max_secs.is_finite()
            || self.breaker_cooldown_max_secs < self.breaker_cooldown_secs
        {
            return Err(reject(
                "breaker cooldown cap must be finite and at least the base cooldown",
            ));
        }
        Ok(())
    }

    /// The backoff delay before send attempt `attempt + 1`, given that
    /// attempt number `attempt` (1-based) just failed: exponential in the
    /// attempt index, capped at `backoff_max_secs`.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(32);
        (self.backoff_base_secs * f64::powi(2.0, exp as i32)).min(self.backoff_max_secs)
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// A consecutive-failure circuit breaker with an escalating cooldown.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    open_after: u32,
    cooldown_secs: f64,
    cooldown_max_secs: f64,
    current_cooldown_secs: f64,
    state: BreakerPhase,
    consecutive_failures: u32,
    opened_at_secs: f64,
}

impl CircuitBreaker {
    /// Creates a closed breaker. `open_after == 0` disables it entirely.
    /// Each failed probe doubles the cooldown up to `cooldown_max_secs`;
    /// a recovery resets it to `cooldown_secs`.
    pub fn new(open_after: u32, cooldown_secs: f64, cooldown_max_secs: f64) -> Self {
        Self {
            open_after,
            cooldown_secs,
            cooldown_max_secs,
            current_cooldown_secs: cooldown_secs,
            state: BreakerPhase::Closed,
            consecutive_failures: 0,
            opened_at_secs: 0.0,
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerPhase {
        self.state
    }

    /// Records a failed upload (timeout). Opens the breaker after
    /// `open_after` consecutive failures, and re-opens it immediately on
    /// a failed probe — doubling the cooldown (up to the cap) so a long
    /// outage is probed at a geometrically decaying rate.
    pub fn on_failure(&mut self, now_secs: f64) {
        match self.state {
            BreakerPhase::Closed => {
                self.consecutive_failures += 1;
                if self.open_after > 0 && self.consecutive_failures >= self.open_after {
                    self.state = BreakerPhase::Open;
                    self.opened_at_secs = now_secs;
                    self.current_cooldown_secs = self.cooldown_secs;
                }
            }
            BreakerPhase::HalfOpen => {
                self.state = BreakerPhase::Open;
                self.opened_at_secs = now_secs;
                self.current_cooldown_secs =
                    (self.current_cooldown_secs * 2.0).min(self.cooldown_max_secs);
            }
            BreakerPhase::Open => {}
        }
    }

    /// Records a successful upload acknowledgment. Returns `true` when
    /// this success closed the breaker (a delivered probe).
    pub fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        if self.state == BreakerPhase::HalfOpen {
            self.state = BreakerPhase::Closed;
            self.current_cooldown_secs = self.cooldown_secs;
            true
        } else {
            false
        }
    }

    /// Advances time-driven transitions: an open breaker half-opens once
    /// its (possibly escalated) cooldown has elapsed.
    pub fn poll(&mut self, now_secs: f64) {
        if self.state == BreakerPhase::Open
            && now_secs - self.opened_at_secs >= self.current_cooldown_secs
        {
            self.state = BreakerPhase::HalfOpen;
        }
    }
}

/// One chunk awaiting acknowledgment (labels returned from the cloud).
#[derive(Debug, Clone)]
struct InflightUpload {
    id: u64,
    deadline_secs: f64,
    attempt: u32,
    probe: bool,
    frames: Vec<Frame>,
}

/// A timed-out chunk waiting for its backoff to elapse.
#[derive(Debug, Clone)]
pub struct QueuedRetransmit {
    /// Simulation time at which the retransmit may be sent.
    pub ready_at_secs: f64,
    /// The send attempt this retransmit will be (1-based).
    pub attempt: u32,
    /// The sampled frames to re-send.
    pub frames: Vec<Frame>,
}

/// The outcome of acknowledging an upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckOutcome {
    /// Whether the upload was still tracked (false for post-timeout
    /// stragglers, whose labels are used but change no breaker state).
    pub acked: bool,
    /// Whether this acknowledgment closed the breaker (a probe landed).
    pub closed_breaker: bool,
}

/// One expired in-flight upload, as reported by [`EdgeResilience::expire`]
/// (the telemetry layer turns each into an `UploadTimedOut` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadTimeout {
    /// The send attempt that timed out (1-based).
    pub attempt: u32,
    /// Whether the expired upload was a half-open probe.
    pub probe: bool,
    /// Whether the chunk was requeued for retransmission (false for
    /// probes, exhausted attempts, and queue-capacity drops).
    pub requeued: bool,
    /// Whether the requeue shed the oldest queued chunk from a full
    /// retransmit queue.
    pub shed: bool,
}

/// Resilience counters surfaced in the simulation report, assembled by the
/// engine from the run's event fold.
///
/// `PartialEq` is derived so determinism tests can compare whole chaos
/// runs bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceReport {
    /// Uploads that reached their deadline unacknowledged.
    pub upload_timeouts: u64,
    /// Chunks re-sent after a timeout.
    pub retransmits: u64,
    /// Chunks abandoned: attempts exhausted or retransmit queue full.
    pub retries_dropped: u64,
    /// Probe chunks sent while half-open.
    pub probe_uploads: u64,
    /// Chunks sampled but discarded because the breaker was open.
    pub suppressed_uploads: u64,
    /// Uplink bytes those suppressed chunks would have cost.
    pub suppressed_bytes: u64,
    /// Breaker open transitions.
    pub breaker_opens: u64,
    /// Breaker half-open transitions.
    pub breaker_half_opens: u64,
    /// Breaker close transitions (recoveries).
    pub breaker_closes: u64,
    /// Seconds spent with the breaker closed.
    pub closed_secs: f64,
    /// Seconds spent with the breaker open.
    pub open_secs: f64,
    /// Seconds spent with the breaker half-open.
    pub half_open_secs: f64,
    /// Label batches the cloud dropped (cloud-side fault injection).
    pub cloud_label_drops: u64,
    /// Label batches the cloud returned late (cloud-side fault injection).
    pub slow_label_batches: u64,
    /// Messages the link lost to any fault, both directions.
    pub messages_lost: u64,
    /// Messages the link lost to scheduled outage windows.
    pub outage_drops: u64,
}

impl ResilienceReport {
    /// Assembles the report from the run's event fold (its counters and
    /// totals) and the link's loss counters.
    pub(crate) fn new(counters: &TelemetryCounters, totals: &RunTotals, link: &Link) -> Self {
        Self {
            upload_timeouts: counters.upload_timeouts,
            retransmits: counters.retransmits,
            retries_dropped: totals.retries_dropped,
            probe_uploads: counters.probe_uploads,
            suppressed_uploads: counters.uploads_suppressed,
            suppressed_bytes: totals.suppressed_bytes,
            breaker_opens: totals.breaker_opens,
            breaker_half_opens: totals.breaker_half_opens,
            breaker_closes: totals.breaker_closes,
            closed_secs: totals.closed_secs,
            open_secs: totals.open_secs,
            half_open_secs: totals.half_open_secs,
            cloud_label_drops: counters.cloud_label_drops,
            slow_label_batches: counters.slow_label_batches,
            messages_lost: link.dropped_messages(),
            outage_drops: link.outage_drops(),
        }
    }

    /// The report as a JSON object, one field per counter.
    pub fn to_json(&self) -> String {
        let Self {
            upload_timeouts,
            retransmits,
            retries_dropped,
            probe_uploads,
            suppressed_uploads,
            suppressed_bytes,
            breaker_opens,
            breaker_half_opens,
            breaker_closes,
            closed_secs,
            open_secs,
            half_open_secs,
            cloud_label_drops,
            slow_label_batches,
            messages_lost,
            outage_drops,
        } = *self;
        Obj::new()
            .int("upload_timeouts", upload_timeouts)
            .int("retransmits", retransmits)
            .int("retries_dropped", retries_dropped)
            .int("probe_uploads", probe_uploads)
            .int("suppressed_uploads", suppressed_uploads)
            .int("suppressed_bytes", suppressed_bytes)
            .int("breaker_opens", breaker_opens)
            .int("breaker_half_opens", breaker_half_opens)
            .int("breaker_closes", breaker_closes)
            .num("closed_secs", closed_secs)
            .num("open_secs", open_secs)
            .num("half_open_secs", half_open_secs)
            .int("cloud_label_drops", cloud_label_drops)
            .int("slow_label_batches", slow_label_batches)
            .int("messages_lost", messages_lost)
            .int("outage_drops", outage_drops)
            .finish()
    }
}

/// The edge resilience layer: in-flight tracker, retransmit queue, and
/// circuit breaker.
#[derive(Debug, Clone)]
pub struct EdgeResilience {
    config: ResilienceConfig,
    breaker: CircuitBreaker,
    inflight: Vec<InflightUpload>,
    queue: Vec<QueuedRetransmit>,
    next_id: u64,
}

impl EdgeResilience {
    /// Creates the layer.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if `config` fails
    /// [`ResilienceConfig::validate`].
    pub fn new(config: ResilienceConfig) -> Result<Self, InvalidConfig> {
        config.validate()?;
        Ok(Self {
            breaker: CircuitBreaker::new(
                config.breaker_open_after,
                config.breaker_cooldown_secs,
                config.breaker_cooldown_max_secs,
            ),
            config,
            inflight: Vec::new(),
            queue: Vec::new(),
            next_id: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// The breaker's current state.
    pub fn state(&self) -> BreakerPhase {
        self.breaker.state()
    }

    /// Tracks a just-sent upload and returns its id. `attempt` is 1-based;
    /// pass `probe = true` for half-open probe chunks.
    pub fn register(
        &mut self,
        now_secs: f64,
        frames: Vec<Frame>,
        attempt: u32,
        probe: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.inflight.push(InflightUpload {
            id,
            deadline_secs: now_secs + self.config.upload_timeout_secs,
            attempt,
            probe,
            frames,
        });
        id
    }

    /// Acknowledges an upload (its labels arrived back on the edge).
    pub fn ack(&mut self, id: u64) -> AckOutcome {
        let Some(pos) = self.inflight.iter().position(|u| u.id == id) else {
            return AckOutcome {
                acked: false,
                closed_breaker: false,
            };
        };
        self.inflight.remove(pos);
        let closed_breaker = self.breaker.on_success();
        AckOutcome {
            acked: true,
            closed_breaker,
        }
    }

    /// Expires every in-flight upload past its deadline: informs the
    /// breaker and requeues the chunk with backoff (probes and exhausted
    /// attempts are dropped instead). Returns one [`UploadTimeout`] per
    /// expiry, in deadline-scan order.
    pub fn expire(&mut self, now_secs: f64, rng: &mut Rng) -> Vec<UploadTimeout> {
        let mut timeouts = Vec::new();
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].deadline_secs > now_secs {
                i += 1;
                continue;
            }
            let expired = self.inflight.remove(i);
            self.breaker.on_failure(now_secs);
            let mut timeout = UploadTimeout {
                attempt: expired.attempt,
                probe: expired.probe,
                requeued: false,
                shed: false,
            };
            if expired.probe || expired.attempt >= self.config.max_attempts {
                timeouts.push(timeout);
                continue;
            }
            let mut delay = self.config.backoff_secs(expired.attempt);
            if self.config.backoff_jitter_secs > 0.0 {
                delay += rng.range_f64(0.0, self.config.backoff_jitter_secs);
            }
            if self.queue.len() >= self.config.retransmit_capacity {
                // Bounded queue: shed the oldest queued chunk first.
                if self.queue.is_empty() {
                    timeouts.push(timeout);
                    continue;
                }
                self.queue.remove(0);
                timeout.shed = true;
            }
            timeout.requeued = true;
            timeouts.push(timeout);
            self.queue.push(QueuedRetransmit {
                ready_at_secs: now_secs + delay,
                attempt: expired.attempt + 1,
                frames: expired.frames,
            });
        }
        timeouts
    }

    /// Advances the breaker's time-driven transitions (open → half-open).
    pub fn poll(&mut self, now_secs: f64) {
        self.breaker.poll(now_secs);
    }

    /// Pops the first retransmit whose backoff has elapsed, if the breaker
    /// is closed (an open breaker holds the queue).
    pub fn take_ready(&mut self, now_secs: f64) -> Option<QueuedRetransmit> {
        if self.breaker.state() != BreakerPhase::Closed {
            return None;
        }
        let pos = self
            .queue
            .iter()
            .position(|q| q.ready_at_secs <= now_secs)?;
        Some(self.queue.remove(pos))
    }

    /// Makes every queued retransmit immediately ready (the catch-up after
    /// a recovery closes the breaker).
    pub fn release_queue(&mut self, now_secs: f64) {
        for q in &mut self.queue {
            q.ready_at_secs = q.ready_at_secs.min(now_secs);
        }
    }

    /// Retransmit chunks currently queued (the telemetry queue-depth
    /// signal, alongside in-flight uploads).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a probe chunk is currently awaiting acknowledgment.
    pub fn probe_in_flight(&self) -> bool {
        self.inflight.iter().any(|u| u.probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<Frame> {
        use shoggoth_video::presets;
        presets::kitti(9)
            .with_total_frames(n as u64)
            .build()
            .collect()
    }

    #[test]
    fn breaker_opens_after_consecutive_failures() {
        let mut b = CircuitBreaker::new(2, 5.0, 40.0);
        b.on_failure(1.0);
        assert_eq!(b.state(), BreakerPhase::Closed);
        b.on_failure(2.0);
        assert_eq!(b.state(), BreakerPhase::Open);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(2, 5.0, 40.0);
        b.on_failure(1.0);
        assert!(!b.on_success());
        b.on_failure(2.0);
        assert_eq!(b.state(), BreakerPhase::Closed, "streak was reset");
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_closes_on_probe_success() {
        let mut b = CircuitBreaker::new(1, 5.0, 40.0);
        b.on_failure(10.0);
        assert_eq!(b.state(), BreakerPhase::Open);
        b.poll(14.9);
        assert_eq!(b.state(), BreakerPhase::Open);
        b.poll(15.0);
        assert_eq!(b.state(), BreakerPhase::HalfOpen);
        assert!(b.on_success(), "probe success closes the breaker");
        assert_eq!(b.state(), BreakerPhase::Closed);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let mut b = CircuitBreaker::new(1, 5.0, 40.0);
        b.on_failure(10.0);
        b.poll(15.0);
        assert_eq!(b.state(), BreakerPhase::HalfOpen);
        b.on_failure(17.0);
        assert_eq!(b.state(), BreakerPhase::Open);
        b.poll(26.9);
        assert_eq!(
            b.state(),
            BreakerPhase::Open,
            "cooldown restarts, doubled to 10 s by the failed probe"
        );
        b.poll(27.0);
        assert_eq!(b.state(), BreakerPhase::HalfOpen);
    }

    #[test]
    fn failed_probes_escalate_the_cooldown_until_recovery_resets_it() {
        let mut b = CircuitBreaker::new(1, 5.0, 12.0);
        b.on_failure(0.0); // open, cooldown 5
        b.poll(5.0);
        assert_eq!(b.state(), BreakerPhase::HalfOpen);
        b.on_failure(6.0); // probe failed → cooldown 10
        b.poll(15.9);
        assert_eq!(b.state(), BreakerPhase::Open, "escalated cooldown");
        b.poll(16.0);
        assert_eq!(b.state(), BreakerPhase::HalfOpen);
        b.on_failure(17.0); // probe failed → cooldown capped at 12
        b.poll(28.9);
        assert_eq!(b.state(), BreakerPhase::Open, "cap holds");
        b.poll(29.0);
        assert_eq!(b.state(), BreakerPhase::HalfOpen);
        assert!(b.on_success(), "recovery closes and resets");
        b.on_failure(31.0); // re-open: cooldown back to base 5
        b.poll(36.0);
        assert_eq!(b.state(), BreakerPhase::HalfOpen, "base cooldown again");
    }

    #[test]
    fn disabled_breaker_never_opens() {
        let mut b = CircuitBreaker::new(0, 5.0, 40.0);
        for i in 0..100 {
            b.on_failure(i as f64);
        }
        assert_eq!(b.state(), BreakerPhase::Closed);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let cfg = ResilienceConfig::standard();
        assert!((cfg.backoff_secs(1) - 0.5).abs() < 1e-12);
        assert!((cfg.backoff_secs(2) - 1.0).abs() < 1e-12);
        assert!((cfg.backoff_secs(3) - 2.0).abs() < 1e-12);
        assert!((cfg.backoff_secs(10) - 8.0).abs() < 1e-12, "capped");
    }

    #[test]
    fn timeout_requeues_with_backoff_then_exhausts() {
        let mut r = EdgeResilience::new(ResilienceConfig {
            backoff_jitter_secs: 0.0,
            breaker_open_after: 0,
            ..ResilienceConfig::standard()
        })
        .expect("valid config");
        let mut rng = Rng::seed_from(1);
        let timeout = |attempt, requeued| UploadTimeout {
            attempt,
            probe: false,
            requeued,
            shed: false,
        };
        r.register(0.0, frames(2), 1, false);
        assert!(r.expire(1.9, &mut rng).is_empty(), "before the deadline");
        assert_eq!(r.expire(2.0, &mut rng), [timeout(1, true)]);
        let q = r.take_ready(2.5).expect("backoff 0.5 s elapsed");
        assert_eq!(q.attempt, 2);
        r.register(2.5, q.frames, q.attempt, false);
        assert_eq!(r.expire(4.5, &mut rng), [timeout(2, true)]);
        assert!(r.take_ready(5.0).is_none(), "backoff 1 s not yet elapsed");
        let q = r.take_ready(5.5).expect("backoff elapsed");
        assert_eq!(q.attempt, 3);
        r.register(5.5, q.frames, q.attempt, false);
        // Attempt 3 = max_attempts: dropped, not requeued.
        assert_eq!(r.expire(7.5, &mut rng), [timeout(3, false)]);
        assert!(r.take_ready(100.0).is_none());
    }

    #[test]
    fn retransmit_queue_is_bounded() {
        let mut r = EdgeResilience::new(ResilienceConfig {
            retransmit_capacity: 2,
            breaker_open_after: 0,
            ..ResilienceConfig::standard()
        })
        .expect("valid config");
        let mut rng = Rng::seed_from(2);
        for _ in 0..4 {
            r.register(0.0, frames(1), 1, false);
        }
        let timeouts = r.expire(10.0, &mut rng);
        let flags: Vec<_> = timeouts.iter().map(|t| (t.requeued, t.shed)).collect();
        assert_eq!(
            flags,
            [(true, false), (true, false), (true, true), (true, true)],
            "the third and fourth requeues shed the oldest queued chunk"
        );
        assert_eq!(r.queue_len(), 2);
    }

    #[test]
    fn a_zero_capacity_queue_drops_instead_of_shedding() {
        let mut r = EdgeResilience::new(ResilienceConfig {
            retransmit_capacity: 0,
            breaker_open_after: 0,
            ..ResilienceConfig::standard()
        })
        .expect("valid config");
        let mut rng = Rng::seed_from(6);
        r.register(0.0, frames(1), 1, false);
        let timeouts = r.expire(10.0, &mut rng);
        assert!(!timeouts[0].requeued && !timeouts[0].shed);
    }

    #[test]
    fn probes_are_never_retransmitted() {
        let mut r = EdgeResilience::new(ResilienceConfig::standard()).expect("valid config");
        let mut rng = Rng::seed_from(3);
        r.register(0.0, frames(1), 1, true);
        assert!(r.probe_in_flight());
        let timeouts = r.expire(5.0, &mut rng);
        assert!(timeouts[0].probe && !timeouts[0].requeued);
        assert!(!r.probe_in_flight());
        assert!(r.take_ready(100.0).is_none(), "probe must not requeue");
    }

    #[test]
    fn open_breaker_holds_the_queue_until_release() {
        let mut r = EdgeResilience::new(ResilienceConfig {
            breaker_open_after: 1,
            backoff_jitter_secs: 0.0,
            ..ResilienceConfig::standard()
        })
        .expect("valid config");
        let mut rng = Rng::seed_from(4);
        r.register(0.0, frames(1), 1, false);
        r.expire(2.0, &mut rng); // timeout opens the breaker and queues
        assert_eq!(r.state(), BreakerPhase::Open);
        assert!(r.take_ready(100.0).is_none(), "open breaker holds queue");
    }

    #[test]
    fn late_ack_is_ignored_after_timeout() {
        let mut r = EdgeResilience::new(ResilienceConfig::standard()).expect("valid config");
        let mut rng = Rng::seed_from(5);
        let id = r.register(0.0, frames(1), 1, false);
        r.expire(3.0, &mut rng);
        let outcome = r.ack(id);
        assert!(!outcome.acked, "expired upload is no longer tracked");
    }

    #[test]
    fn config_rejections() {
        let base = ResilienceConfig::standard;
        let cases = [
            ResilienceConfig {
                upload_timeout_secs: f64::NAN,
                ..base()
            },
            ResilienceConfig {
                upload_timeout_secs: 0.0,
                ..base()
            },
            ResilienceConfig {
                max_attempts: 0,
                ..base()
            },
            ResilienceConfig {
                backoff_base_secs: -1.0,
                ..base()
            },
            ResilienceConfig {
                backoff_max_secs: 0.1,
                ..base()
            },
            ResilienceConfig {
                backoff_jitter_secs: f64::NAN,
                ..base()
            },
            ResilienceConfig {
                breaker_cooldown_secs: 0.0,
                ..base()
            },
            ResilienceConfig {
                breaker_cooldown_max_secs: 1.0,
                ..base()
            },
        ];
        for bad in cases {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
        assert!(base().validate().is_ok());
        assert!(ResilienceConfig::disabled().validate().is_ok());
    }
}
