//! Telemetry golden tests: recording must be *observation only*.
//!
//! The contract under test is the one `DESIGN.md` §11 states: a traced
//! run and an untraced run of the same seeded scenario produce
//! bit-identical [`SimReport`]s (telemetry summary included), and fleet
//! traces merge identically for every worker-thread count. A recorder
//! that perturbed a single RNG draw or control-flow branch would fail
//! every test in this file.

use proptest::prelude::*;
use shoggoth::fleet::{run_fleet_traced, FleetConfig};
use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth::CloudFaultProfile;
use shoggoth_models::{StudentDetector, TeacherDetector};
use shoggoth_net::{FaultProfile, LinkConfig};
use shoggoth_telemetry::{Histogram, NoopRecorder, Record, Recorder, RingRecorder};
use shoggoth_util::parallel_map;
use shoggoth_video::presets;

const STREAM_SEED: u64 = 83;

/// The chaos acceptance scenario: the scripted outage storm from the
/// `unreliable_network` smoke test, on the same stream seed the chaos
/// harness uses, plus a flaky cloud labeler.
fn storm_config(frames: u64) -> SimConfig {
    let mut config = SimConfig::quick(presets::kitti(STREAM_SEED).with_total_frames(frames));
    config.strategy = Strategy::Shoggoth;
    config.link = LinkConfig::cellular().with_fault(FaultProfile::storm());
    config.cloud.faults = CloudFaultProfile::flaky();
    config
}

thread_local! {
    /// One pre-trained model pair per test thread (`Mlp` is not `Sync`);
    /// models depend on the stream library, not the frame count.
    static MODELS: (StudentDetector, TeacherDetector) =
        Simulation::build_models(&storm_config(60));
}

fn run_traced<R: Recorder>(config: &SimConfig, recorder: &mut R) -> SimReport {
    let (student, teacher) = MODELS.with(Clone::clone);
    Simulation::run_traced(config, student, teacher, recorder).expect("traced run must not fail")
}

#[test]
fn tracing_is_observation_only() {
    let config = storm_config(2_700);

    let untraced = run_traced(&config, &mut NoopRecorder);
    let mut ring = RingRecorder::default();
    let traced = run_traced(&config, &mut ring);

    // The golden assertion: every field bit-identical, the telemetry
    // summary included (`SimReport` derives `PartialEq`).
    assert_eq!(untraced, traced, "recording must not perturb the run");
    let records = ring.records();
    assert!(!records.is_empty(), "storm must leave a trace");
    assert_eq!(traced.telemetry.events_recorded, records.len() as u64);

    let summary = &traced.telemetry;
    assert!(
        summary.counters.breaker_transitions >= 2,
        "storm must trip the breaker"
    );
    // Histogram invariant on real data: one queue-depth sample per frame,
    // and the buckets partition the samples.
    assert_eq!(summary.queue_depth.count, traced.frames);
    let bucket_sum: u64 = summary.queue_depth.buckets.iter().map(|(_, n)| n).sum();
    assert_eq!(bucket_sum, summary.queue_depth.count);
}

/// A top-level run generates its stream a block ahead on a second thread
/// (when the host has one); inside a pool worker the same run generates
/// each frame inline. Both loops must play the same frames.
#[test]
fn pipelined_and_inline_runs_are_identical() {
    let config = storm_config(1_800);
    let traced = |(student, teacher): (StudentDetector, TeacherDetector)| {
        let mut ring = RingRecorder::default();
        let report = Simulation::run_traced(&config, student, teacher, &mut ring)
            .expect("traced run must not fail");
        assert_eq!(ring.events_dropped(), 0);
        (report, ring.records())
    };
    let models = MODELS.with(Clone::clone);
    let (report, records) = traced(models.clone());
    assert!(
        report.resilience.breaker_opens >= 1,
        "storm must trip the breaker"
    );
    let inline = parallel_map(vec![models; 2], 2, |_, models| traced(models));
    for (inline_report, inline_records) in inline {
        assert_eq!(inline_report, report, "reports must match");
        assert!(inline_records == records, "traces must match");
    }
}

#[test]
fn fleet_traces_are_thread_count_invariant() {
    let devices = 3;
    let serial = FleetConfig::new(storm_config(900), devices).with_threads(1);
    let threaded = FleetConfig::new(storm_config(900), devices).with_threads(4);

    let (serial_report, serial_traces) =
        run_fleet_traced(&serial, RingRecorder::DEFAULT_CAPACITY).expect("serial fleet runs");
    let (threaded_report, threaded_traces) =
        run_fleet_traced(&threaded, RingRecorder::DEFAULT_CAPACITY).expect("threaded fleet runs");

    assert_eq!(serial_report, threaded_report, "fleet reports must match");
    assert_eq!(
        serial_traces, threaded_traces,
        "merged event streams must be identical for every thread count"
    );
    assert_eq!(serial_traces.len(), devices);
    assert!(serial_traces.iter().all(|trace| !trace.is_empty()));

    // Devices replay different streams, so their traces must differ.
    assert_ne!(serial_traces[0], serial_traces[1]);
}

proptest! {
    /// Histogram bucket counts always sum to the number of recorded
    /// events, whatever mix of finite, infinite, and NaN samples arrives.
    #[test]
    fn histogram_buckets_partition_all_samples(
        bit_patterns in proptest::collection::vec(any::<u64>(), 0..200)
    ) {
        // Reinterpreted bits cover the whole f64 domain — NaNs,
        // infinities, subnormals — and the specials are forced in.
        let mut values: Vec<f64> = bit_patterns.iter().map(|b| f64::from_bits(*b)).collect();
        values.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let mut histogram = Histogram::new(&[0.0, 1.0, 10.0, 100.0]);
        for value in &values {
            histogram.record(*value);
        }
        prop_assert_eq!(histogram.total(), values.len() as u64);
        let summary = histogram.summary();
        let bucket_sum: u64 = summary.buckets.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(bucket_sum, summary.count);
        prop_assert_eq!(summary.count, values.len() as u64);
    }
}

/// Exported records survive the JSONL round into one line per event, and
/// the timeline carries all four lanes — the artifact shape CI checks.
#[test]
fn exports_have_the_documented_shape() {
    let config = storm_config(900);
    let mut ring = RingRecorder::default();
    let _report = run_traced(&config, &mut ring);
    let records: Vec<Record> = ring.records();

    let jsonl = shoggoth_telemetry::to_jsonl(&records);
    assert_eq!(jsonl.lines().count(), records.len(), "one line per record");
    assert!(jsonl
        .lines()
        .all(|line| line.starts_with('{') && line.ends_with('}')));

    let html = shoggoth_telemetry::render_timeline("storm", &records);
    assert!(html.contains("<svg"), "timeline must embed an SVG");
    for lane in [
        "sampling rate (fps)",
        "accuracy (per-frame mAP@0.5)",
        "uplink (MB cumulative)",
        "breaker state",
    ] {
        assert!(html.contains(lane), "missing lane: {lane}");
    }
}
