//! JSONL export of a recorded event stream.
//!
//! Written with the deterministic [`shoggoth_util::json`] writer: field
//! order is fixed per event kind, floats use Rust's shortest-roundtrip
//! `Display` (non-finite values become `null`), and no wall-clock or
//! locale state is consulted. One JSON object per line, stamped with
//! `type`, `secs` (sim time) and `frame`.

use crate::event::{Event, Record};
use shoggoth_util::json::Obj;

/// Serializes one record to a single JSON line (no trailing newline).
pub fn record_to_json(record: &Record) -> String {
    let obj = Obj::new()
        .text("type", record.event.kind())
        .num("secs", record.stamp.sim_secs)
        .int("frame", record.stamp.frame);
    match record.event {
        Event::FrameSampled { chunk_len, breaker } => obj
            .int("chunk_len", u64::from(chunk_len))
            .text("breaker", breaker.as_str())
            .finish(),
        Event::SampleSkipped | Event::CloudLabelsDropped => obj.finish(),
        Event::ChunkUploaded {
            frames,
            bytes,
            attempt,
            probe,
            lost_to_outage,
            latency_secs,
        } => obj
            .int("frames", u64::from(frames))
            .int("bytes", bytes)
            .int("attempt", u64::from(attempt))
            .flag("probe", probe)
            .flag("lost_to_outage", lost_to_outage)
            .opt_num("latency_secs", latency_secs)
            .finish(),
        Event::UploadSuppressed { frames, bytes } => obj
            .int("frames", u64::from(frames))
            .int("bytes", bytes)
            .finish(),
        Event::UploadTimedOut {
            attempt,
            probe,
            requeued,
            shed,
        } => obj
            .int("attempt", u64::from(attempt))
            .flag("probe", probe)
            .flag("requeued", requeued)
            .flag("shed", shed)
            .finish(),
        Event::BreakerTransition { from, to } => obj
            .text("from", from.as_str())
            .text("to", to.as_str())
            .finish(),
        Event::LabelBatchArrived {
            samples,
            frames,
            straggler,
            closed_breaker,
        } => obj
            .int("samples", u64::from(samples))
            .int("frames", u64::from(frames))
            .flag("straggler", straggler)
            .flag("closed_breaker", closed_breaker)
            .finish(),
        Event::CloudLabelsSlow { extra_secs } => obj.num("extra_secs", extra_secs).finish(),
        Event::AdaptationStep {
            fresh_samples,
            replay_samples,
            mini_batches,
            mean_loss,
            first_batch_loss,
            last_batch_loss,
            session_secs,
            cloud_side,
        } => obj
            .int("fresh_samples", u64::from(fresh_samples))
            .int("replay_samples", u64::from(replay_samples))
            .int("mini_batches", u64::from(mini_batches))
            .num("mean_loss", mean_loss)
            .num("first_batch_loss", first_batch_loss)
            .num("last_batch_loss", last_batch_loss)
            .num("session_secs", session_secs)
            .flag("cloud_side", cloud_side)
            .finish(),
        Event::RateDecision {
            phi_bar,
            alpha,
            lambda,
            lambda_bar,
            r_phi,
            r_alpha,
            r_lambda,
            rate,
        } => obj
            .num("phi_bar", phi_bar)
            .num("alpha", alpha)
            .num("lambda", lambda)
            .num("lambda_bar", lambda_bar)
            .num("r_phi", r_phi)
            .num("r_alpha", r_alpha)
            .num("r_lambda", r_lambda)
            .num("rate", rate)
            .finish(),
        Event::FrameStatus {
            map,
            fps,
            sampling_rate,
            detections,
            uplink_bytes,
            queue_depth,
            breaker,
        } => obj
            .num("map", map)
            .num("fps", fps)
            .num("sampling_rate", sampling_rate)
            .int("detections", u64::from(detections))
            .int("uplink_bytes", uplink_bytes)
            .int("queue_depth", u64::from(queue_depth))
            .text("breaker", breaker.as_str())
            .finish(),
    }
}

/// Serializes a record stream to JSONL (one object per line, trailing
/// newline included when non-empty).
pub fn to_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record_to_json(record));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BreakerPhase;

    #[test]
    fn lines_carry_stamp_and_kind() {
        let line = record_to_json(&Record::new(1.5, 45, Event::SampleSkipped));
        assert_eq!(
            line,
            "{\"type\":\"sample_skipped\",\"secs\":1.5,\"frame\":45}"
        );
    }

    #[test]
    fn lost_uploads_serialize_null_latency() {
        let line = record_to_json(&Record::new(
            2.0,
            60,
            Event::ChunkUploaded {
                frames: 4,
                bytes: 9000,
                attempt: 2,
                probe: false,
                lost_to_outage: true,
                latency_secs: None,
            },
        ));
        assert!(line.contains("\"latency_secs\":null"), "{line}");
        assert!(line.contains("\"lost_to_outage\":true"), "{line}");
        assert!(line.contains("\"attempt\":2"), "{line}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = record_to_json(&Record::new(
            0.0,
            0,
            Event::CloudLabelsSlow {
                extra_secs: f64::NAN,
            },
        ));
        assert!(line.contains("\"extra_secs\":null"), "{line}");
    }

    #[test]
    fn jsonl_is_one_line_per_record() {
        let records = [
            Record::new(0.0, 0, Event::SampleSkipped),
            Record::new(
                0.1,
                3,
                Event::BreakerTransition {
                    from: BreakerPhase::Closed,
                    to: BreakerPhase::Open,
                },
            ),
        ];
        let jsonl = to_jsonl(&records);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"from\":\"closed\""));
        assert!(lines[1].contains("\"to\":\"open\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            // Balanced quotes: every key/value string is closed.
            assert_eq!(line.matches('"').count() % 2, 0);
        }
    }
}
