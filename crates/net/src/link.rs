//! The edge ↔ cloud link: byte accounting, latency, and fault injection.

use crate::fault::{FaultProfile, InvalidLink};
use crate::message::Message;
use shoggoth_util::Rng;

/// Uplink capacity of the 4G-class link, kilobits per second.
const UPLINK_KBPS: f64 = 20_000.0;
/// Downlink capacity, kilobits per second.
const DOWNLINK_KBPS: f64 = 40_000.0;
/// One-way base latency, seconds.
const BASE_LATENCY_SECS: f64 = 0.025;

/// The link's fault-injection schedule. Capacity and latency are fixed:
/// 20 Mbps up, 40 Mbps down, 25 ms one way.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Composable fault schedule ([`FaultProfile::none`] for the paper's
    /// experiments).
    pub fault: FaultProfile,
}

impl LinkConfig {
    /// A 4G-class link: 20 Mbps up, 40 Mbps down, 25 ms one-way latency,
    /// no faults.
    pub fn cellular() -> Self {
        Self {
            fault: FaultProfile::none(),
        }
    }

    /// Sets the baseline i.i.d. loss rate. The value is validated (not
    /// clamped) when the [`Link`] is constructed.
    #[must_use]
    pub fn with_loss_rate(mut self, loss_rate: f64) -> Self {
        self.fault.loss_rate = loss_rate;
        self
    }

    /// Replaces the whole fault profile.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultProfile) -> Self {
        self.fault = fault;
        self
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::cellular()
    }
}

/// The outcome of a successful transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Bytes that crossed the wire.
    pub bytes: u64,
    /// Transfer completion latency in seconds (serialization at the
    /// degraded capacity + base latency + jitter).
    pub latency_secs: f64,
}

/// The fate of one send, including *why* a lost message was lost — the
/// telemetry layer records this so a timeline can distinguish scheduled
/// outages from random loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// Delivered after [`Transfer::latency_secs`].
    Delivered(Transfer),
    /// Lost to a scheduled outage window (still billed).
    LostToOutage,
    /// Lost to random loss — the i.i.d. baseline or the burst chain
    /// (still billed).
    LostToLoss,
}

impl SendOutcome {
    /// The transfer, if the message was delivered.
    pub fn transfer(self) -> Option<Transfer> {
        match self {
            SendOutcome::Delivered(t) => Some(t),
            SendOutcome::LostToOutage | SendOutcome::LostToLoss => None,
        }
    }

    /// Whether the message was delivered.
    pub fn delivered(self) -> bool {
        matches!(self, SendOutcome::Delivered(_))
    }
}

/// A bidirectional edge ↔ cloud link with cumulative accounting and
/// deterministic fault injection.
///
/// Sends are stamped with the simulation time so scheduled faults
/// (outages, degradations) apply; all randomness comes from the
/// caller-supplied seeded RNG.
///
/// # Examples
///
/// ```
/// use shoggoth_net::{Link, LinkConfig, Message};
/// use shoggoth_util::Rng;
///
/// let mut link = Link::new(LinkConfig::cellular())?;
/// let mut rng = Rng::seed_from(0);
/// let sent = link.send_uplink(0.0, Message::Labels { samples: 10 }, &mut rng);
/// assert!(sent.delivered());
/// assert!(link.uplink_bytes() > 0);
/// # Ok::<(), shoggoth_net::fault::InvalidLink>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    fault: FaultProfile,
    uplink_bytes: u64,
    downlink_bytes: u64,
    dropped_messages: u64,
    outage_drops: u64,
    ge_bad: bool,
}

impl Link {
    /// Creates a link.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLink`] if the fault profile fails
    /// [`FaultProfile::validate`].
    pub fn new(config: LinkConfig) -> Result<Self, InvalidLink> {
        config.fault.validate()?;
        Ok(Self {
            fault: config.fault,
            uplink_bytes: 0,
            downlink_bytes: 0,
            dropped_messages: 0,
            outage_drops: 0,
            ge_bad: false,
        })
    }

    /// Sends a message edge → cloud at simulation time `now_secs`,
    /// reporting whether it arrived and, if not, why. Lost messages still
    /// consume uplink bytes (the sender transmitted them).
    pub fn send_uplink(&mut self, now_secs: f64, message: Message, rng: &mut Rng) -> SendOutcome {
        let bytes = message.bytes();
        self.uplink_bytes += bytes;
        self.transfer(now_secs, bytes, UPLINK_KBPS, rng)
    }

    /// Sends a message cloud → edge (same semantics as
    /// [`send_uplink`](Self::send_uplink)).
    pub fn send_downlink(&mut self, now_secs: f64, message: Message, rng: &mut Rng) -> SendOutcome {
        let bytes = message.bytes();
        self.downlink_bytes += bytes;
        self.transfer(now_secs, bytes, DOWNLINK_KBPS, rng)
    }

    /// Applies the fault pipeline to one already-billed message: outage
    /// check, burst-chain step, i.i.d. loss, then latency (degraded
    /// serialization + jitter). Fault order is part of the determinism
    /// contract: the RNG draw sequence per message is fixed.
    fn transfer(
        &mut self,
        now_secs: f64,
        bytes: u64,
        capacity_kbps: f64,
        rng: &mut Rng,
    ) -> SendOutcome {
        let fault = &self.fault;
        if fault.outage_active(now_secs) {
            self.dropped_messages += 1;
            self.outage_drops += 1;
            return SendOutcome::LostToOutage;
        }
        let mut loss = fault.loss_rate;
        if let Some(burst) = &fault.burst {
            self.ge_bad = burst.step(self.ge_bad, rng);
            // Combined survival: the message must survive both the
            // baseline and the burst-state loss draws.
            loss = 1.0 - (1.0 - loss) * (1.0 - burst.state_loss(self.ge_bad));
        }
        if rng.bernoulli(loss) {
            self.dropped_messages += 1;
            return SendOutcome::LostToLoss;
        }
        let factor = fault.capacity_factor(now_secs);
        let payload_secs = bytes as f64 * 8.0 / (capacity_kbps * factor * 1000.0);
        let mut latency_secs = BASE_LATENCY_SECS + payload_secs;
        if let Some(jitter) = &fault.jitter {
            if jitter.jitter_secs > 0.0 {
                latency_secs += rng.range_f64(0.0, jitter.jitter_secs);
            }
            if rng.bernoulli(jitter.spike_prob) {
                latency_secs += jitter.spike_secs;
            }
        }
        SendOutcome::Delivered(Transfer {
            bytes,
            latency_secs,
        })
    }

    /// Total bytes transmitted edge → cloud.
    pub fn uplink_bytes(&self) -> u64 {
        self.uplink_bytes
    }

    /// Total bytes transmitted cloud → edge.
    pub fn downlink_bytes(&self) -> u64 {
        self.downlink_bytes
    }

    /// Number of messages lost to any fault.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_messages
    }

    /// Messages lost to scheduled outage windows.
    pub fn outage_drops(&self) -> u64 {
        self.outage_drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{GilbertElliott, LatencyJitter};

    #[test]
    fn accounting_accumulates_both_directions() {
        let mut link = Link::new(LinkConfig::cellular()).expect("valid config");
        let mut rng = Rng::seed_from(1);
        link.send_uplink(0.0, Message::Telemetry, &mut rng);
        link.send_downlink(0.0, Message::Detections { count: 2 }, &mut rng);
        assert_eq!(link.uplink_bytes(), 96);
        assert_eq!(link.downlink_bytes(), 64 + 56);
    }

    #[test]
    fn latency_includes_serialization_time() {
        let mut link = Link::new(LinkConfig::cellular()).expect("valid config");
        let mut rng = Rng::seed_from(2);
        let msg = Message::ModelWeights { bytes: 936 };
        let up = link
            .send_uplink(0.0, msg, &mut rng)
            .transfer()
            .expect("no loss configured");
        // 936 + 64 header = 1000 bytes = 8000 bits at 20 Mbps = 0.4 ms,
        // plus the 25 ms base.
        assert!(
            (up.latency_secs - (0.025 + 0.0004)).abs() < 1e-12,
            "{}",
            up.latency_secs
        );
        let down = link
            .send_downlink(0.0, msg, &mut rng)
            .transfer()
            .expect("no loss configured");
        // The downlink is twice as fast.
        assert!(
            (down.latency_secs - (0.025 + 0.0002)).abs() < 1e-12,
            "{}",
            down.latency_secs
        );
    }

    #[test]
    fn lossy_link_drops_but_still_bills_uplink() {
        let mut link = Link::new(LinkConfig::cellular().with_loss_rate(1.0)).expect("valid config");
        let mut rng = Rng::seed_from(3);
        assert!(!link
            .send_uplink(0.0, Message::Telemetry, &mut rng)
            .delivered());
        assert_eq!(link.dropped_messages(), 1);
        assert!(link.uplink_bytes() > 0);
    }

    #[test]
    fn invalid_fault_profile_rejected_at_link_construction() {
        let config = LinkConfig::cellular().with_fault(FaultProfile::none().with_outage(9.0, 3.0));
        let err = Link::new(config).expect_err("inverted outage must be rejected");
        assert_eq!(err.field, "outage.end_secs");
    }

    #[test]
    fn outage_window_drops_everything_inside_and_nothing_outside() {
        let config =
            LinkConfig::cellular().with_fault(FaultProfile::none().with_outage(10.0, 20.0));
        let mut link = Link::new(config).expect("valid config");
        let mut rng = Rng::seed_from(4);
        assert!(link
            .send_uplink(9.9, Message::Telemetry, &mut rng)
            .delivered());
        assert!(!link
            .send_uplink(10.0, Message::Telemetry, &mut rng)
            .delivered());
        assert!(!link
            .send_uplink(19.9, Message::Telemetry, &mut rng)
            .delivered());
        assert!(link
            .send_uplink(20.0, Message::Telemetry, &mut rng)
            .delivered());
        assert_eq!(link.outage_drops(), 2);
        assert_eq!(link.dropped_messages(), 2);
        // Outage drops are still billed: the edge transmitted into the void.
        assert_eq!(link.uplink_bytes(), 4 * 96);
    }

    #[test]
    fn degradation_slows_transfers_without_losing_them() {
        let config = LinkConfig::cellular()
            .with_fault(FaultProfile::none().with_degradation(10.0, 20.0, 0.5));
        let mut link = Link::new(config).expect("valid config");
        let mut rng = Rng::seed_from(5);
        let msg = Message::ModelWeights { bytes: 936 };
        let clean = link
            .send_uplink(0.0, msg, &mut rng)
            .transfer()
            .expect("delivered");
        let degraded = link
            .send_uplink(15.0, msg, &mut rng)
            .transfer()
            .expect("delivered");
        // Half the capacity doubles the serialization time, not the base
        // latency.
        let serialization = |t: Transfer| t.latency_secs - BASE_LATENCY_SECS;
        assert!((serialization(clean) - 0.0004).abs() < 1e-12);
        assert!((serialization(degraded) - 2.0 * serialization(clean)).abs() < 1e-12);
        assert_eq!(link.dropped_messages(), 0);
    }

    #[test]
    fn jitter_perturbs_latency_within_bounds() {
        let jitter = LatencyJitter {
            jitter_secs: 0.05,
            spike_prob: 0.0,
            spike_secs: 0.0,
        };
        let config = LinkConfig::cellular().with_fault(FaultProfile::none().with_jitter(jitter));
        let base = LinkConfig::cellular();
        let mut jittered = Link::new(config).expect("valid config");
        let mut clean = Link::new(base).expect("valid config");
        let mut rng_a = Rng::seed_from(6);
        let mut rng_b = Rng::seed_from(6);
        let msg = Message::Telemetry;
        for _ in 0..32 {
            let j = jittered
                .send_uplink(0.0, msg, &mut rng_a)
                .transfer()
                .expect("delivered");
            let c = clean
                .send_uplink(0.0, msg, &mut rng_b)
                .transfer()
                .expect("delivered");
            let extra = j.latency_secs - c.latency_secs;
            assert!(
                (0.0..0.05).contains(&extra),
                "jitter out of bounds: {extra}"
            );
        }
    }

    /// Sends 2000 messages and returns the mean length of the runs of
    /// consecutive `LostToLoss` outcomes and the share of messages lost.
    fn loss_runs(config: LinkConfig) -> (f64, f64) {
        let mut link = Link::new(config).expect("valid config");
        let mut rng = Rng::seed_from(7);
        let (mut lost, mut runs, mut in_run) = (0u32, 0u32, false);
        for _ in 0..2000 {
            let hit =
                link.send_uplink(0.0, Message::Telemetry, &mut rng) == SendOutcome::LostToLoss;
            if hit {
                lost += 1;
                runs += u32::from(!in_run);
            }
            in_run = hit;
        }
        (
            f64::from(lost) / f64::from(runs.max(1)),
            f64::from(lost) / 2000.0,
        )
    }

    #[test]
    fn bursty_link_drops_in_clusters() {
        let bursty = LinkConfig::cellular()
            .with_fault(FaultProfile::none().with_burst(GilbertElliott::bursty()));
        let (bursty_run, loss) = loss_runs(bursty);
        assert!(loss > 0.0, "bursty chain should drop some");
        let (iid_run, _) = loss_runs(LinkConfig::cellular().with_loss_rate(loss));
        assert!(
            bursty_run > 2.0 * iid_run,
            "bursty loss runs average {bursty_run}, i.i.d. runs at the same rate {iid_run}"
        );
    }

    #[test]
    fn send_outcomes_classify_losses() {
        let mut rng = Rng::seed_from(8);
        let outage = LinkConfig::cellular().with_fault(FaultProfile::none().with_outage(0.0, 10.0));
        let mut link = Link::new(outage).expect("valid config");
        assert_eq!(
            link.send_uplink(1.0, Message::Telemetry, &mut rng),
            SendOutcome::LostToOutage
        );
        let mut lossy =
            Link::new(LinkConfig::cellular().with_loss_rate(1.0)).expect("valid config");
        assert_eq!(
            lossy.send_uplink(0.0, Message::Telemetry, &mut rng),
            SendOutcome::LostToLoss
        );
        let mut clean = Link::new(LinkConfig::cellular()).expect("valid config");
        let outcome = clean.send_downlink(0.0, Message::Telemetry, &mut rng);
        assert!(outcome.delivered());
        assert!(outcome.transfer().is_some());
    }

    #[test]
    fn identical_seeds_produce_identical_links() {
        let config = LinkConfig::cellular().with_fault(
            FaultProfile::none()
                .with_loss_rate(0.1)
                .with_burst(GilbertElliott::bursty())
                .with_outage(1.0, 2.0),
        );
        let run = |seed: u64| {
            let mut link = Link::new(config.clone()).expect("valid config");
            let mut rng = Rng::seed_from(seed);
            for i in 0..512 {
                link.send_uplink(i as f64 * 0.01, Message::Telemetry, &mut rng);
            }
            link
        };
        assert_eq!(run(11), run(11));
    }
}
