//! The event fold: counters, fixed-bucket histograms and report totals
//! aggregated from the event stream.

use crate::event::{BreakerPhase, Event, Record};
use crate::recorder::Recorder;
use shoggoth_util::json::{self, Obj};

/// Monotone event counters maintained by the [`EventFold`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryCounters {
    /// Frames played (one `FrameStatus` each).
    pub frames: u64,
    /// Frames sampled into upload chunks.
    pub frames_sampled: u64,
    /// Sampling instants skipped while half-open.
    pub samples_skipped: u64,
    /// Chunks transmitted on the uplink (probes and retransmits
    /// included).
    pub chunks_uploaded: u64,
    /// Of those, half-open probe chunks.
    pub probe_uploads: u64,
    /// Of those, retransmits (attempt > 1).
    pub retransmits: u64,
    /// Transmitted chunks the link lost (any fault).
    pub uploads_lost: u64,
    /// Full chunks discarded because the breaker was open.
    pub uploads_suppressed: u64,
    /// In-flight uploads that passed their deadline.
    pub upload_timeouts: u64,
    /// Circuit-breaker state changes.
    pub breaker_transitions: u64,
    /// Label batches delivered back to the edge.
    pub label_batches: u64,
    /// Labeled samples pooled from those batches.
    pub labeled_samples: u64,
    /// Label batches the cloud dropped.
    pub cloud_label_drops: u64,
    /// Label batches the cloud returned late.
    pub slow_label_batches: u64,
    /// Completed adaptive-training sessions.
    pub adaptation_steps: u64,
    /// Controller rate decisions.
    pub rate_decisions: u64,
}

impl TelemetryCounters {
    /// The counters as a JSON object, one field per counter.
    pub fn to_json(&self) -> String {
        let Self {
            frames,
            frames_sampled,
            samples_skipped,
            chunks_uploaded,
            probe_uploads,
            retransmits,
            uploads_lost,
            uploads_suppressed,
            upload_timeouts,
            breaker_transitions,
            label_batches,
            labeled_samples,
            cloud_label_drops,
            slow_label_batches,
            adaptation_steps,
            rate_decisions,
        } = *self;
        Obj::new()
            .int("frames", frames)
            .int("frames_sampled", frames_sampled)
            .int("samples_skipped", samples_skipped)
            .int("chunks_uploaded", chunks_uploaded)
            .int("probe_uploads", probe_uploads)
            .int("retransmits", retransmits)
            .int("uploads_lost", uploads_lost)
            .int("uploads_suppressed", uploads_suppressed)
            .int("upload_timeouts", upload_timeouts)
            .int("breaker_transitions", breaker_transitions)
            .int("label_batches", label_batches)
            .int("labeled_samples", labeled_samples)
            .int("cloud_label_drops", cloud_label_drops)
            .int("slow_label_batches", slow_label_batches)
            .int("adaptation_steps", adaptation_steps)
            .int("rate_decisions", rate_decisions)
            .finish()
    }
}

/// A fixed-bucket histogram: `bounds` are ascending inclusive upper
/// edges, and one extra overflow bucket catches everything above the last
/// edge (non-finite samples land there too), so bucket counts always sum
/// to the number of recorded samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram over ascending inclusive upper edges. One
    /// overflow bucket is appended internally.
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample. Finite samples update the running mean/min/max;
    /// samples above the last edge (or non-finite) count in the overflow
    /// bucket.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Total samples recorded (always the sum of the bucket counts).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The configured upper edges (without the overflow bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Freezes the histogram into its summary form.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.total();
        let buckets = self
            .bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
            .collect();
        HistogramSummary {
            count,
            mean: if count == 0 {
                0.0
            } else {
                self.sum / count as f64
            },
            min: if count == 0 { 0.0 } else { self.min },
            max: if count == 0 { 0.0 } else { self.max },
            buckets,
        }
    }
}

/// Immutable snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean of the finite samples (`0` when empty).
    pub mean: f64,
    /// Smallest finite sample (`0` when empty).
    pub min: f64,
    /// Largest finite sample (`0` when empty).
    pub max: f64,
    /// `(inclusive upper edge, count)` pairs; the final edge is
    /// `f64::INFINITY` (the overflow bucket).
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSummary {
    /// The summary as a JSON object; each bucket is an `[edge, count]`
    /// pair, and the overflow bucket's infinite edge is written as `null`.
    pub fn to_json(&self) -> String {
        let Self {
            count,
            mean,
            min,
            max,
            buckets,
        } = self;
        let buckets = buckets
            .iter()
            .map(|&(edge, n)| json::array([json::num(edge), n.to_string()]));
        Obj::new()
            .int("count", *count)
            .num("mean", *mean)
            .num("min", *min)
            .num("max", *max)
            .raw("buckets", &json::array(buckets))
            .finish()
    }
}

/// Aggregated telemetry of one run, attached to the simulation report.
///
/// Folded from every event the engine emitted, whichever recorder (if
/// any) also saw them, so traced and untraced runs carry equal summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Events the engine emitted.
    pub events_recorded: u64,
    /// Monotone event counters.
    pub counters: TelemetryCounters,
    /// Per-frame inference latency in milliseconds (1000 / achieved FPS).
    pub frame_latency_ms: HistogramSummary,
    /// Retransmit-queue depth sampled per frame.
    pub queue_depth: HistogramSummary,
    /// Absolute per-frame mAP@0.5 change between consecutive frames.
    pub map_delta: HistogramSummary,
}

impl TelemetrySummary {
    /// The summary as a JSON object with the counters and histograms
    /// nested.
    pub fn to_json(&self) -> String {
        let Self {
            events_recorded,
            counters,
            frame_latency_ms,
            queue_depth,
            map_delta,
        } = self;
        Obj::new()
            .int("events_recorded", *events_recorded)
            .raw("counters", &counters.to_json())
            .raw("frame_latency_ms", &frame_latency_ms.to_json())
            .raw("queue_depth", &queue_depth.to_json())
            .raw("map_delta", &map_delta.to_json())
            .finish()
    }
}

/// What the fold totals beside the counters: the report-side sums and the
/// circuit breaker's history.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunTotals {
    /// Frames of the chunks the uplink delivered (the frames the cloud
    /// teacher labeled).
    pub delivered_frames: u64,
    /// Timed-out chunks abandoned: attempts exhausted, no queue room, or
    /// shed from a full queue by a newer requeue.
    pub retries_dropped: u64,
    /// Uplink bytes the suppressed chunks would have cost.
    pub suppressed_bytes: u64,
    /// Modeled seconds of all adaptation sessions, summed in event order.
    pub session_secs: f64,
    /// Of those, the seconds of cloud-side sessions.
    pub cloud_training_secs: f64,
    /// Breaker transitions into open.
    pub breaker_opens: u64,
    /// Breaker transitions into half-open.
    pub breaker_half_opens: u64,
    /// Breaker transitions into closed (recoveries).
    pub breaker_closes: u64,
    /// Seconds the breaker spent closed.
    pub closed_secs: f64,
    /// Seconds the breaker spent open.
    pub open_secs: f64,
    /// Seconds the breaker spent half-open.
    pub half_open_secs: f64,
}

/// Bucket edges of the per-frame latency histogram, in milliseconds
/// (33.4 ms ≈ one 30 fps frame time).
const LATENCY_BOUNDS_MS: [f64; 7] = [20.0, 33.4, 40.0, 50.0, 66.8, 100.0, 200.0];
/// Bucket edges of the retransmit-queue-depth histogram.
const QUEUE_BOUNDS: [f64; 5] = [0.0, 1.0, 2.0, 4.0, 8.0];
/// Bucket edges of the per-frame |Δ mAP@0.5| histogram.
const MAP_DELTA_BOUNDS: [f64; 5] = [0.01, 0.05, 0.1, 0.2, 0.5];

/// The one accounting path of a run: an always-on fold over every event
/// the engine emits, allocating nothing per event.
///
/// It yields the [`TelemetrySummary`] and the [`RunTotals`] the engine
/// builds its report from. The breaker's per-state seconds are rebuilt
/// from the `BreakerTransition` stamps: each transition closes the span
/// of the phase it leaves, and [`EventFold::finish`] closes the last one
/// at the end of the run, so the spans sum to the run's duration.
#[derive(Debug, Clone)]
pub struct EventFold {
    events_recorded: u64,
    counters: TelemetryCounters,
    frame_latency_ms: Histogram,
    queue_depth: Histogram,
    map_delta: Histogram,
    last_map: Option<f64>,
    totals: RunTotals,
    phase: BreakerPhase,
    phase_since_secs: f64,
}

impl Default for EventFold {
    fn default() -> Self {
        Self {
            events_recorded: 0,
            counters: TelemetryCounters::default(),
            frame_latency_ms: Histogram::new(&LATENCY_BOUNDS_MS),
            queue_depth: Histogram::new(&QUEUE_BOUNDS),
            map_delta: Histogram::new(&MAP_DELTA_BOUNDS),
            last_map: None,
            totals: RunTotals::default(),
            phase: BreakerPhase::Closed,
            phase_since_secs: 0.0,
        }
    }
}

impl EventFold {
    /// Adds the span since the last transition to `phase`'s seconds.
    fn close_span(&mut self, phase: BreakerPhase, now_secs: f64) {
        let span = (now_secs - self.phase_since_secs).max(0.0);
        let t = &mut self.totals;
        match phase {
            BreakerPhase::Closed => t.closed_secs += span,
            BreakerPhase::Open => t.open_secs += span,
            BreakerPhase::HalfOpen => t.half_open_secs += span,
        }
        self.phase_since_secs = now_secs;
    }

    /// Closes the breaker's last span at `end_secs` and freezes the fold.
    pub fn finish(mut self, end_secs: f64) -> (TelemetrySummary, RunTotals) {
        self.close_span(self.phase, end_secs);
        let summary = TelemetrySummary {
            events_recorded: self.events_recorded,
            counters: self.counters,
            frame_latency_ms: self.frame_latency_ms.summary(),
            queue_depth: self.queue_depth.summary(),
            map_delta: self.map_delta.summary(),
        };
        (summary, self.totals)
    }
}

impl Recorder for EventFold {
    fn record(&mut self, record: Record) {
        self.events_recorded += 1;
        let (c, t) = (&mut self.counters, &mut self.totals);
        match record.event {
            Event::FrameSampled { .. } => c.frames_sampled += 1,
            Event::SampleSkipped => c.samples_skipped += 1,
            Event::ChunkUploaded {
                frames,
                probe,
                attempt,
                latency_secs,
                ..
            } => {
                c.chunks_uploaded += 1;
                if probe {
                    c.probe_uploads += 1;
                }
                if attempt > 1 {
                    c.retransmits += 1;
                }
                if latency_secs.is_some() {
                    t.delivered_frames += u64::from(frames);
                } else {
                    c.uploads_lost += 1;
                }
            }
            Event::UploadSuppressed { bytes, .. } => {
                c.uploads_suppressed += 1;
                t.suppressed_bytes += bytes;
            }
            Event::UploadTimedOut {
                probe,
                requeued,
                shed,
                ..
            } => {
                c.upload_timeouts += 1;
                // Probes are never retried; any other chunk that was not
                // requeued is abandoned, and a requeue into a full queue
                // sheds its oldest chunk.
                t.retries_dropped += u64::from(!probe && !requeued) + u64::from(shed);
            }
            Event::BreakerTransition { from, to } => {
                c.breaker_transitions += 1;
                match to {
                    BreakerPhase::Closed => t.breaker_closes += 1,
                    BreakerPhase::Open => t.breaker_opens += 1,
                    BreakerPhase::HalfOpen => t.breaker_half_opens += 1,
                }
                self.close_span(from, record.stamp.sim_secs);
                self.phase = to;
            }
            Event::LabelBatchArrived { samples, .. } => {
                c.label_batches += 1;
                c.labeled_samples += u64::from(samples);
            }
            Event::CloudLabelsDropped => c.cloud_label_drops += 1,
            Event::CloudLabelsSlow { .. } => c.slow_label_batches += 1,
            Event::AdaptationStep {
                session_secs,
                cloud_side,
                ..
            } => {
                c.adaptation_steps += 1;
                t.session_secs += session_secs;
                if cloud_side {
                    t.cloud_training_secs += session_secs;
                }
            }
            Event::RateDecision { .. } => c.rate_decisions += 1,
            Event::FrameStatus {
                map,
                fps,
                queue_depth,
                ..
            } => {
                c.frames += 1;
                if fps > 0.0 {
                    self.frame_latency_ms.record(1000.0 / fps);
                }
                self.queue_depth.record(f64::from(queue_depth));
                if let Some(prev) = self.last_map {
                    self.map_delta.record((map - prev).abs());
                }
                self.last_map = Some(map);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RingRecorder;

    fn status(sim_secs: f64, frame: u64, map: f64) -> Record {
        Record::new(
            sim_secs,
            frame,
            Event::FrameStatus {
                map,
                fps: 30.0,
                sampling_rate: 0.5,
                detections: 2,
                uplink_bytes: 1000,
                queue_depth: 1,
                breaker: BreakerPhase::Closed,
            },
        )
    }

    fn transition(sim_secs: f64, from: BreakerPhase, to: BreakerPhase) -> Record {
        Record::new(sim_secs, 0, Event::BreakerTransition { from, to })
    }

    fn timed_out(probe: bool, requeued: bool, shed: bool) -> Record {
        let event = Event::UploadTimedOut {
            attempt: 1,
            probe,
            requeued,
            shed,
        };
        Record::new(0.0, 0, event)
    }

    #[test]
    fn fold_counts_and_summarizes() {
        let mut fold = EventFold::default();
        fold.record(status(0.0, 0, 0.5));
        fold.record(status(0.1, 1, 0.7));
        fold.record(Record::new(0.1, 1, Event::SampleSkipped));
        let (summary, _) = fold.finish(0.2);
        assert_eq!(summary.events_recorded, 3);
        assert_eq!(summary.counters.frames, 2);
        assert_eq!(summary.counters.samples_skipped, 1);
        assert_eq!(summary.frame_latency_ms.count, 2);
        assert_eq!(summary.map_delta.count, 1, "first frame has no delta");
    }

    #[test]
    fn aggregates_survive_ring_eviction() {
        let (mut ring, mut fold) = (RingRecorder::new(2), EventFold::default());
        for i in 0..5 {
            let record = status(i as f64 * 0.1, i, 0.5);
            fold.record(record);
            ring.record(record);
        }
        assert_eq!(ring.events_dropped(), 3);
        assert_eq!(ring.records().len(), 2);
        let (summary, _) = fold.finish(0.5);
        assert_eq!(summary.counters.frames, 5, "the fold sees every event");
    }

    #[test]
    fn breaker_spans_sum_to_the_run_duration() {
        use BreakerPhase::{Closed, HalfOpen, Open};
        let mut fold = EventFold::default();
        fold.record(transition(10.0, Closed, Open)); // closed 0..10
        fold.record(transition(15.0, Open, HalfOpen)); // open 10..15
        fold.record(transition(16.0, HalfOpen, Closed)); // half-open 15..16
        let (summary, t) = fold.finish(30.0); // closed 16..30
        assert!(
            (t.closed_secs - 24.0).abs() < 1e-9,
            "closed {}",
            t.closed_secs
        );
        assert!((t.open_secs - 5.0).abs() < 1e-9, "open {}", t.open_secs);
        assert!(
            (t.half_open_secs - 1.0).abs() < 1e-9,
            "half {}",
            t.half_open_secs
        );
        assert!((t.closed_secs + t.open_secs + t.half_open_secs - 30.0).abs() < 1e-9);
        assert_eq!(
            (t.breaker_opens, t.breaker_half_opens, t.breaker_closes),
            (1, 1, 1)
        );
        assert_eq!(summary.counters.breaker_transitions, 3);
    }

    #[test]
    fn a_run_that_ends_open_closes_its_last_span_open() {
        let mut fold = EventFold::default();
        fold.record(transition(4.0, BreakerPhase::Closed, BreakerPhase::Open));
        let (_, t) = fold.finish(10.0);
        assert_eq!(
            (t.closed_secs, t.open_secs, t.half_open_secs),
            (4.0, 6.0, 0.0)
        );
    }

    #[test]
    fn dropped_retries_count_abandoned_and_shed_chunks() {
        let mut fold = EventFold::default();
        fold.record(timed_out(true, false, false)); // probe: never retried
        fold.record(timed_out(false, true, false)); // requeued
        fold.record(timed_out(false, false, false)); // abandoned
        fold.record(timed_out(false, true, true)); // requeued, shed the oldest
        let (summary, t) = fold.finish(1.0);
        assert_eq!(summary.counters.upload_timeouts, 4);
        assert_eq!(t.retries_dropped, 2);
    }

    #[test]
    fn sessions_split_edge_and_cloud_seconds() {
        let step = |session_secs, cloud_side| {
            let event = Event::AdaptationStep {
                fresh_samples: 8,
                replay_samples: 0,
                mini_batches: 1,
                mean_loss: 1.0,
                first_batch_loss: 1.0,
                last_batch_loss: 1.0,
                session_secs,
                cloud_side,
            };
            Record::new(0.0, 0, event)
        };
        let mut fold = EventFold::default();
        fold.record(step(2.0, false));
        fold.record(step(0.5, true));
        let (summary, t) = fold.finish(1.0);
        assert_eq!(summary.counters.adaptation_steps, 2);
        assert_eq!((t.session_secs, t.cloud_training_secs), (2.5, 0.5));
    }

    #[test]
    fn only_delivered_chunks_count_as_labeled_frames() {
        let upload = |frames, latency_secs| {
            let event = Event::ChunkUploaded {
                frames,
                bytes: 100,
                attempt: 1,
                probe: false,
                lost_to_outage: false,
                latency_secs,
            };
            Record::new(0.0, 0, event)
        };
        let mut fold = EventFold::default();
        fold.record(upload(4, Some(0.1)));
        fold.record(upload(3, None));
        let (summary, t) = fold.finish(1.0);
        assert_eq!(t.delivered_frames, 4);
        assert_eq!(summary.counters.uploads_lost, 1);
    }

    #[test]
    fn buckets_partition_the_real_line() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 9.0, f64::NAN, f64::INFINITY] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 3], "1.0 is inclusive in bucket 0");
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn summary_statistics_cover_finite_samples() {
        let mut h = Histogram::new(&[10.0]);
        h.record(2.0);
        h.record(6.0);
        h.record(f64::NAN);
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert!((s.mean - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[1].0, f64::INFINITY);
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let s = Histogram::new(&[1.0]).summary();
        assert_eq!((s.count, s.mean, s.min, s.max), (0, 0.0, 0.0, 0.0));
    }
}
