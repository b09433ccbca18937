//! Typed telemetry events for the edge-cloud pipeline.
//!
//! Every event is stamped with **simulation time and frame index** — never
//! wall clock — so a recorded run is bit-identical across machines, thread
//! counts, and recorder on/off configurations. The taxonomy follows the
//! pipeline end to end: frame sampling, chunk uploads and their fates,
//! breaker transitions, label arrival, adaptation steps, and the
//! controller's rate decisions with their Eq. (2)–(3) inputs.

/// Deterministic timestamp of one event: simulation seconds plus the
/// index of the frame being played when the event fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamp {
    /// Simulation time in seconds.
    pub sim_secs: f64,
    /// Index of the stream frame during which the event fired.
    pub frame: u64,
}

/// The phase of the edge's uplink circuit breaker.
///
/// The core crate's breaker keeps its state in this type, so the phase it
/// traces is the state it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPhase {
    /// Normal operation: uploads flow.
    Closed,
    /// Outage detected: uplink suspended, adaptation frozen.
    Open,
    /// Cooldown elapsed: probing the link with a single chunk.
    HalfOpen,
}

impl BreakerPhase {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerPhase::Closed => "closed",
            BreakerPhase::Open => "open",
            BreakerPhase::HalfOpen => "half_open",
        }
    }
}

/// One telemetry event.
///
/// All payloads are plain scalars so records are `Copy` and the ring
/// recorder stores them without allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A frame was sampled into the pending upload chunk.
    FrameSampled {
        /// Chunk occupancy after this frame joined.
        chunk_len: u32,
        /// Breaker phase at sampling time (open-phase samples are headed
        /// for suppression, not transmission).
        breaker: BreakerPhase,
    },
    /// A sampling instant was skipped (half-open breaker: the probe owns
    /// the uplink).
    SampleSkipped,
    /// A chunk (or probe) was encoded and transmitted on the uplink.
    ChunkUploaded {
        /// Frames in the chunk.
        frames: u32,
        /// Bytes billed on the uplink.
        bytes: u64,
        /// 1-based send attempt (`> 1` marks a retransmit).
        attempt: u32,
        /// Whether this was a half-open probe chunk.
        probe: bool,
        /// Whether the link lost it to a scheduled outage window.
        lost_to_outage: bool,
        /// Delivery latency in seconds; `None` if the link lost it.
        latency_secs: Option<f64>,
    },
    /// A full chunk was counted and discarded because the breaker was
    /// open (its would-be bytes credited as savings).
    UploadSuppressed {
        /// Frames in the discarded chunk.
        frames: u32,
        /// Uplink bytes the chunk would have cost.
        bytes: u64,
    },
    /// An in-flight upload passed its deadline unacknowledged.
    UploadTimedOut {
        /// 1-based attempt that timed out.
        attempt: u32,
        /// Whether the timed-out upload was a probe.
        probe: bool,
        /// Whether the chunk re-entered the retransmit queue (false for
        /// probes and exhausted attempts).
        requeued: bool,
        /// Whether this requeue shed the oldest queued chunk from a full
        /// retransmit queue (that chunk is dropped).
        shed: bool,
    },
    /// The circuit breaker changed state.
    BreakerTransition {
        /// Phase before the transition.
        from: BreakerPhase,
        /// Phase after the transition.
        to: BreakerPhase,
    },
    /// A label batch arrived back on the edge and joined the training
    /// pool.
    LabelBatchArrived {
        /// Labeled samples in the batch.
        samples: u32,
        /// Frames the batch covers.
        frames: u32,
        /// Whether the originating upload had already timed out (labels
        /// still pool; breaker state unchanged).
        straggler: bool,
        /// Whether this acknowledgment closed the breaker (a probe
        /// landed).
        closed_breaker: bool,
    },
    /// The cloud dropped a delivered batch's labels (cloud-side fault).
    CloudLabelsDropped,
    /// The cloud returned a label batch late (cloud-side fault).
    CloudLabelsSlow {
        /// Extra cloud-side queueing latency in seconds.
        extra_secs: f64,
    },
    /// One adaptive-training session completed (edge- or cloud-side).
    AdaptationStep {
        /// Fresh samples in the session.
        fresh_samples: u32,
        /// Replay samples drawn over all mini-batches.
        replay_samples: u32,
        /// Mini-batches executed.
        mini_batches: u32,
        /// Mean training loss over the session.
        mean_loss: f64,
        /// Loss of the first mini-batch (drift shock on arrival).
        first_batch_loss: f64,
        /// Loss of the last mini-batch (how far the session converged).
        last_batch_loss: f64,
        /// Modeled wall-clock of the session in seconds.
        session_secs: f64,
        /// Whether the session ran in the cloud (AMS) rather than on the
        /// edge.
        cloud_side: bool,
    },
    /// The controller produced a new sampling rate — with every Eq.
    /// (2)–(3) input and term, so a rate trajectory can be attributed to
    /// φ, α, or λ pressure.
    RateDecision {
        /// Scene-change score φ̄ over the recent-frame horizon.
        phi_bar: f64,
        /// Edge-reported estimated accuracy α.
        alpha: f64,
        /// Raw resource-usage sample λ the edge reported.
        lambda: f64,
        /// Smoothed λ̄ after this observation.
        lambda_bar: f64,
        /// Term `R(φ) = η_r · (φ̄ − φ_target)`.
        r_phi: f64,
        /// Term `R(α) = η_α · max(0, α_target − α)`.
        r_alpha: f64,
        /// Term `R(λ) = (1 + λ̄_{t+1} − λ̄_t) · r_t`.
        r_lambda: f64,
        /// The clamped new rate `r_{t+1}` in fps.
        rate: f64,
    },
    /// Per-frame status sample: the timeline's backbone, emitted once per
    /// played frame after evaluation.
    FrameStatus {
        /// Per-frame mAP@0.5 of the system output.
        map: f64,
        /// Achieved inference FPS under training contention.
        fps: f64,
        /// Sampling rate in force (outage floor while the breaker is not
        /// closed).
        sampling_rate: f64,
        /// Detections the system emitted for this frame.
        detections: u32,
        /// Cumulative uplink bytes billed so far.
        uplink_bytes: u64,
        /// Retransmit-queue depth.
        queue_depth: u32,
        /// Breaker phase while the frame played.
        breaker: BreakerPhase,
    },
}

impl Event {
    /// Stable lowercase kind name used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::FrameSampled { .. } => "frame_sampled",
            Event::SampleSkipped => "sample_skipped",
            Event::ChunkUploaded { .. } => "chunk_uploaded",
            Event::UploadSuppressed { .. } => "upload_suppressed",
            Event::UploadTimedOut { .. } => "upload_timed_out",
            Event::BreakerTransition { .. } => "breaker_transition",
            Event::LabelBatchArrived { .. } => "label_batch_arrived",
            Event::CloudLabelsDropped => "cloud_labels_dropped",
            Event::CloudLabelsSlow { .. } => "cloud_labels_slow",
            Event::AdaptationStep { .. } => "adaptation_step",
            Event::RateDecision { .. } => "rate_decision",
            Event::FrameStatus { .. } => "frame_status",
        }
    }
}

/// A stamped event: what happened, and when in simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Deterministic sim-time stamp.
    pub stamp: Stamp,
    /// The event payload.
    pub event: Event,
}

impl Record {
    /// Builds a record from its stamp components and event.
    pub fn new(sim_secs: f64, frame: u64, event: Event) -> Self {
        Self {
            stamp: Stamp { sim_secs, frame },
            event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let events = [
            Event::SampleSkipped,
            Event::CloudLabelsDropped,
            Event::CloudLabelsSlow { extra_secs: 0.5 },
            Event::BreakerTransition {
                from: BreakerPhase::Closed,
                to: BreakerPhase::Open,
            },
        ];
        let kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            [
                "sample_skipped",
                "cloud_labels_dropped",
                "cloud_labels_slow",
                "breaker_transition"
            ]
        );
    }

    #[test]
    fn phases_have_stable_names() {
        assert_eq!(BreakerPhase::Closed.as_str(), "closed");
        assert_eq!(BreakerPhase::Open.as_str(), "open");
        assert_eq!(BreakerPhase::HalfOpen.as_str(), "half_open");
    }

    #[test]
    fn records_are_copy() {
        let r = Record::new(1.5, 45, Event::SampleSkipped);
        let s = r;
        assert_eq!(r, s, "Record must be Copy for allocation-free rings");
    }
}
