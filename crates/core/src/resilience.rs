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
//!   [`EdgeResilience::ack`]): every upload carries an id and a 2 s
//!   deadline; an upload not acknowledged (labels returned) by its
//!   deadline counts as a timeout.
//! * **Bounded retransmission**: timed-out chunks requeue with
//!   exponential backoff (0.5 s doubling per attempt, capped at 8 s) plus
//!   a jitter in `[0, 0.25)` s, up to `max_attempts` sends and a queue of
//!   `retransmit_capacity` chunks — overflow drops the oldest work instead
//!   of growing without bound.
//! * **Circuit breaker** ([`CircuitBreaker`]): consecutive timeouts open
//!   the breaker, which *suspends* the uplink (sampled chunks are counted
//!   and discarded, saving their bytes), freezes adaptation, and widens
//!   the sampling interval to the controller's outage floor. After a 5 s
//!   cooldown, doubled by each failed probe up to 40 s, it half-opens and
//!   sends a single probe chunk; a delivered probe closes the breaker and
//!   releases the queued retransmits.
//!
//! The timings are constants; [`ResilienceConfig`] holds the three values
//! runs set differently.
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

/// Seconds after which an unacknowledged upload counts as timed out.
const UPLOAD_TIMEOUT_SECS: f64 = 2.0;
/// Base of the exponential backoff before a retransmit, seconds.
const BACKOFF_BASE_SECS: f64 = 0.5;
/// Cap on the exponential backoff, seconds.
const BACKOFF_MAX_SECS: f64 = 8.0;
/// Uniform jitter added to each backoff, seconds (decorrelates retransmit
/// storms across a fleet).
const BACKOFF_JITTER_SECS: f64 = 0.25;
/// Seconds the breaker stays open before half-opening with a probe. Each
/// failed probe doubles the next cooldown (escalation), so a long outage
/// costs a handful of probes, not one per cooldown.
const BREAKER_COOLDOWN_SECS: f64 = 5.0;
/// Cap on the escalating cooldown, seconds. A successful recovery resets
/// the cooldown to [`BREAKER_COOLDOWN_SECS`].
const BREAKER_COOLDOWN_MAX_SECS: f64 = 40.0;

/// Parameters of the edge resilience layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Maximum total send attempts per chunk (1 = never retransmit).
    pub max_attempts: u32,
    /// Consecutive timeouts that open the circuit breaker
    /// (0 = breaker disabled, never opens).
    pub breaker_open_after: u32,
    /// Maximum chunks waiting in the retransmit queue; overflow drops the
    /// oldest queued chunk.
    pub retransmit_capacity: usize,
}

impl ResilienceConfig {
    /// The resilience layer as shipped: retries with backoff and an
    /// outage-detecting breaker.
    pub fn standard() -> Self {
        Self {
            max_attempts: 3,
            breaker_open_after: 2,
            retransmit_capacity: 4,
        }
    }

    /// The seed repo's behavior: fire-and-forget uploads, no retries, no
    /// breaker. Used as the baseline in blackout-waste comparisons.
    pub fn disabled() -> Self {
        Self {
            max_attempts: 1,
            breaker_open_after: 0,
            retransmit_capacity: 0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidConfig`] if `max_attempts == 0`.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        if self.max_attempts == 0 {
            return Err(InvalidConfig {
                component: "resilience",
                reason: "max attempts must be at least 1",
            });
        }
        Ok(())
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// The backoff delay before send attempt `attempt + 1`, given that attempt
/// number `attempt` (1-based) just failed: exponential in the attempt
/// index, capped at [`BACKOFF_MAX_SECS`].
fn backoff_secs(attempt: u32) -> f64 {
    let exp = attempt.saturating_sub(1).min(32);
    (BACKOFF_BASE_SECS * f64::powi(2.0, exp as i32)).min(BACKOFF_MAX_SECS)
}

/// A consecutive-failure circuit breaker with an escalating cooldown.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    open_after: u32,
    current_cooldown_secs: f64,
    state: BreakerPhase,
    consecutive_failures: u32,
    opened_at_secs: f64,
}

impl CircuitBreaker {
    /// Creates a closed breaker. `open_after == 0` disables it entirely.
    /// The cooldown starts at 5 s, each failed probe doubles it up to
    /// 40 s, and a recovery resets it to 5 s.
    pub fn new(open_after: u32) -> Self {
        Self {
            open_after,
            current_cooldown_secs: BREAKER_COOLDOWN_SECS,
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
                    self.current_cooldown_secs = BREAKER_COOLDOWN_SECS;
                }
            }
            BreakerPhase::HalfOpen => {
                self.state = BreakerPhase::Open;
                self.opened_at_secs = now_secs;
                self.current_cooldown_secs =
                    (self.current_cooldown_secs * 2.0).min(BREAKER_COOLDOWN_MAX_SECS);
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
            self.current_cooldown_secs = BREAKER_COOLDOWN_SECS;
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
            breaker: CircuitBreaker::new(config.breaker_open_after),
            config,
            inflight: Vec::new(),
            queue: Vec::new(),
            next_id: 0,
        })
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
            deadline_secs: now_secs + UPLOAD_TIMEOUT_SECS,
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
            let delay = backoff_secs(expired.attempt) + rng.range_f64(0.0, BACKOFF_JITTER_SECS);
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
        let mut b = CircuitBreaker::new(2);
        b.on_failure(1.0);
        assert_eq!(b.state(), BreakerPhase::Closed);
        b.on_failure(2.0);
        assert_eq!(b.state(), BreakerPhase::Open);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(2);
        b.on_failure(1.0);
        assert!(!b.on_success());
        b.on_failure(2.0);
        assert_eq!(b.state(), BreakerPhase::Closed, "streak was reset");
    }

    #[test]
    fn breaker_half_opens_after_cooldown_and_closes_on_probe_success() {
        let mut b = CircuitBreaker::new(1);
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
        let mut b = CircuitBreaker::new(1);
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
        let mut b = CircuitBreaker::new(1);
        let mut now = 0.0;
        b.on_failure(now);
        // The cooldown starts at 5 s; each failed probe doubles it, up to
        // the 40 s cap.
        for cooldown in [5.0, 10.0, 20.0, 40.0, 40.0] {
            b.poll(now + cooldown - 0.1);
            assert_eq!(b.state(), BreakerPhase::Open, "cooldown {cooldown}");
            b.poll(now + cooldown);
            assert_eq!(b.state(), BreakerPhase::HalfOpen, "cooldown {cooldown}");
            now += cooldown + 1.0;
            b.on_failure(now); // the probe failed
        }
        b.poll(now + 40.0);
        assert!(b.on_success(), "recovery closes and resets");
        now += 50.0;
        b.on_failure(now); // re-open: cooldown back to base 5
        b.poll(now + 5.0);
        assert_eq!(b.state(), BreakerPhase::HalfOpen, "base cooldown again");
    }

    #[test]
    fn disabled_breaker_never_opens() {
        let mut b = CircuitBreaker::new(0);
        for i in 0..100 {
            b.on_failure(i as f64);
        }
        assert_eq!(b.state(), BreakerPhase::Closed);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert!((backoff_secs(1) - 0.5).abs() < 1e-12);
        assert!((backoff_secs(2) - 1.0).abs() < 1e-12);
        assert!((backoff_secs(3) - 2.0).abs() < 1e-12);
        assert!((backoff_secs(10) - 8.0).abs() < 1e-12, "capped");
    }

    #[test]
    fn timeout_requeues_with_backoff_then_exhausts() {
        let mut r = EdgeResilience::new(ResilienceConfig {
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
        // Each backoff is its base plus a jitter in [0, 0.25) s.
        assert_eq!(r.expire(2.0, &mut rng), [timeout(1, true)]);
        assert!(
            r.take_ready(2.49).is_none(),
            "backoff 0.5 s not yet elapsed"
        );
        let q = r.take_ready(2.75).expect("backoff 0.5 s + jitter elapsed");
        assert_eq!(q.attempt, 2);
        r.register(2.75, q.frames, q.attempt, false);
        assert_eq!(r.expire(4.75, &mut rng), [timeout(2, true)]);
        assert!(r.take_ready(5.74).is_none(), "backoff 1 s not yet elapsed");
        let q = r.take_ready(6.0).expect("backoff 1 s + jitter elapsed");
        assert_eq!(q.attempt, 3);
        r.register(6.0, q.frames, q.attempt, false);
        // Attempt 3 = max_attempts: dropped, not requeued.
        assert_eq!(r.expire(8.0, &mut rng), [timeout(3, false)]);
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
        let bad = ResilienceConfig {
            max_attempts: 0,
            ..ResilienceConfig::standard()
        };
        assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        assert!(ResilienceConfig::standard().validate().is_ok());
        assert!(ResilienceConfig::disabled().validate().is_ok());
    }
}
