//! Chaos harness: scripted fault schedules and property-based sweeps over
//! arbitrary ones.
//!
//! Every test here asserts the same contract: *no fault schedule may
//! panic the engine*, every frame is played and reported, byte counters
//! stay monotone in run length, and the circuit breaker's per-state span
//! accounting sums to the simulation duration. The property sweep also
//! checks the event trace itself, which the report's counts are folded
//! from. All fault injection draws from the simulation's seeded RNG, so
//! each schedule is replayed bit-identically — including across
//! `parallel_map` fleet runs.

use proptest::prelude::*;
use shoggoth::fleet::{run_fleet, FleetConfig};
use shoggoth::resilience::ResilienceConfig;
use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth::CloudFaultProfile;
use shoggoth_models::{StudentDetector, TeacherDetector};
use shoggoth_net::{FaultProfile, GilbertElliott, LatencyJitter, LinkConfig};
use shoggoth_telemetry::{BreakerPhase, Event, Record, RingRecorder};
use shoggoth_video::presets;

const STREAM_SEED: u64 = 83;

fn chaos_config(frames: u64, fault: FaultProfile) -> SimConfig {
    let mut config = SimConfig::quick(presets::kitti(STREAM_SEED).with_total_frames(frames));
    config.strategy = Strategy::Shoggoth;
    config.link = LinkConfig::cellular().with_fault(fault);
    config
}

thread_local! {
    /// Models are stream-library-scoped, not frame-count-scoped, so one
    /// pre-trained pair (per test thread — `Mlp` is not `Sync`) serves
    /// every run in this harness.
    static MODELS: (StudentDetector, TeacherDetector) =
        Simulation::build_models(&chaos_config(60, FaultProfile::none()));
}

fn run(config: &SimConfig) -> SimReport {
    let (student, teacher) = MODELS.with(Clone::clone);
    Simulation::run_with_models(config, student, teacher).expect("chaos run must not fail")
}

fn run_traced(config: &SimConfig) -> (SimReport, Vec<Record>) {
    let (student, teacher) = MODELS.with(Clone::clone);
    let mut ring = RingRecorder::default();
    let report = Simulation::run_traced(config, student, teacher, &mut ring)
        .expect("chaos run must not fail");
    assert_eq!(
        ring.events_dropped(),
        0,
        "the ring must keep the whole trace"
    );
    (report, ring.drain_records())
}

/// Invariants of the event trace that counting cannot absorb: the
/// breaker transitions chain from `Closed` to the phase of the last
/// frame, and every played frame has exactly one `FrameStatus`. A missed
/// transition site would move the folded counts and their cross-checks
/// together; it cannot keep the chain intact.
fn assert_trace_invariants(records: &[Record], frames: u64) {
    let mut phase = BreakerPhase::Closed;
    let mut status_frames = Vec::new();
    for record in records {
        match record.event {
            Event::BreakerTransition { from, to } => {
                assert_eq!(
                    from, phase,
                    "transition at {:?} breaks the chain",
                    record.stamp
                );
                phase = to;
            }
            Event::FrameStatus { breaker, .. } => {
                assert_eq!(breaker, phase, "frame {} status", record.stamp.frame);
                status_frames.push(record.stamp.frame);
            }
            _ => {}
        }
    }
    assert_eq!(
        status_frames,
        (0..frames).collect::<Vec<_>>(),
        "one FrameStatus per played frame"
    );
}

/// The shared invariants every chaos run must uphold.
fn assert_invariants(report: &SimReport, frames: u64) {
    assert_eq!(report.frames, frames, "every frame must be played");
    assert!(
        (0.0..=1.0).contains(&report.map50),
        "map50 {}",
        report.map50
    );
    let r = &report.resilience;
    let span_sum = r.closed_secs + r.open_secs + r.half_open_secs;
    assert!(
        (span_sum - report.duration_secs).abs() < 1e-6,
        "breaker spans {} must sum to duration {}",
        span_sum,
        report.duration_secs
    );
    assert!(r.breaker_closes <= r.breaker_half_opens);
    assert!(r.breaker_half_opens <= r.breaker_opens);
    assert!(r.outage_drops <= r.messages_lost);
}

fn worst_case_fault() -> FaultProfile {
    FaultProfile::none()
        .with_loss_rate(0.2)
        .with_burst(GilbertElliott::bursty())
        .with_outage(8.0, 16.0)
        .with_outage(25.0, 28.0)
        .with_degradation(4.0, 20.0, 0.2)
        .with_jitter(LatencyJitter {
            jitter_secs: 0.05,
            spike_prob: 0.1,
            spike_secs: 1.5,
        })
}

#[test]
fn scripted_schedules_complete_with_invariants() {
    let schedules = [
        (
            "bursty",
            FaultProfile::none().with_burst(GilbertElliott::bursty()),
        ),
        (
            "outage storm",
            FaultProfile::none()
                .with_outage(5.0, 12.0)
                .with_outage(15.0, 22.0)
                .with_outage(25.0, 29.0),
        ),
        (
            "degraded and jittery",
            FaultProfile::none()
                .with_degradation(0.0, 30.0, 0.1)
                .with_jitter(LatencyJitter {
                    jitter_secs: 0.1,
                    spike_prob: 0.2,
                    spike_secs: 2.0,
                }),
        ),
        ("worst case", worst_case_fault()),
    ];
    for (name, fault) in schedules {
        let config = chaos_config(900, fault);
        let report = run(&config);
        assert_invariants(&report, 900);
        println!(
            "{name}: timeouts {} retransmits {} opens {} suppressed {}",
            report.resilience.upload_timeouts,
            report.resilience.retransmits,
            report.resilience.breaker_opens,
            report.resilience.suppressed_uploads,
        );
    }
}

#[test]
fn cloud_faults_starve_training_without_crashing() {
    let mut config = chaos_config(1800, FaultProfile::none());
    config.cloud.faults = CloudFaultProfile {
        label_drop_rate: 0.4,
        slow_label_rate: 0.9,
        slow_label_secs: 1.0,
    };
    let report = run(&config);
    assert_invariants(&report, 1800);
    assert!(
        report.resilience.cloud_label_drops > 0,
        "a flaky cloud should drop some label batches"
    );
    assert!(report.resilience.slow_label_batches > 0);
}

#[test]
fn worst_case_schedule_is_deterministic() {
    let config = chaos_config(900, worst_case_fault());
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a, b, "identical seed + schedule must be bit-identical");
}

#[test]
fn chaos_fleet_is_thread_count_invariant() {
    let mut base = chaos_config(600, worst_case_fault());
    base.strategy = Strategy::Shoggoth;
    let serial = run_fleet(&FleetConfig::new(base.clone(), 3).with_threads(1))
        .expect("serial chaos fleet completes");
    let parallel = run_fleet(&FleetConfig::new(base, 3).with_threads(4))
        .expect("parallel chaos fleet completes");
    assert_eq!(
        serial, parallel,
        "fleet chaos runs must not depend on worker scheduling"
    );
    for report in &serial.per_device {
        assert_invariants(report, 600);
    }
}

#[test]
fn scripted_outage_window_saves_bandwidth_at_edge_only_accuracy() {
    // The acceptance scenario: a total outage covering the entire run.
    // The breaker must bound the uplink spend (strictly below the
    // fire-and-forget behavior of earlier revisions) while accuracy
    // matches Edge-Only on the identical stream and models.
    let fault = FaultProfile::none().with_outage(0.0, 1e9);
    let config = chaos_config(2700, fault);

    let resilient = run(&config);
    let mut fire_and_forget = config.clone();
    fire_and_forget.resilience = ResilienceConfig::disabled();
    let wasteful = run(&fire_and_forget);
    let mut edge_cfg = config.clone();
    edge_cfg.strategy = Strategy::EdgeOnly;
    let edge = run(&edge_cfg);

    assert_invariants(&resilient, 2700);
    assert!(
        resilient.uplink_bytes < wasteful.uplink_bytes,
        "breaker must save bytes: {} vs {}",
        resilient.uplink_bytes,
        wasteful.uplink_bytes
    );
    assert!(
        resilient.map50 >= edge.map50 - 1e-9,
        "no worse than Edge-Only"
    );
    assert_eq!(resilient.training_sessions, 0, "no labels, no training");
    assert!(resilient.resilience.breaker_opens >= 1);
    assert!(resilient.resilience.suppressed_bytes > 0);
    assert_eq!(
        resilient.resilience.outage_drops, resilient.resilience.messages_lost,
        "every loss here is an outage loss"
    );
}

proptest! {
    /// Arbitrary valid fault schedules: the run completes, plays every
    /// frame, keeps byte counters monotone in run length, the breaker
    /// span accounting closes, and the trace holds its own invariants.
    #[test]
    fn arbitrary_fault_schedules_hold_invariants(
        loss_rate in 0.0..1.0f64,
        enter_bad in 0.0..0.5f64,
        exit_bad in 0.01..1.0f64,
        loss_bad in 0.0..1.0f64,
        outage_start in 0.0..10.0f64,
        outage_len in 0.5..8.0f64,
        factor in 0.05..1.0f64,
        jitter_secs in 0.0..0.2f64,
        spike_prob in 0.0..0.3f64,
        label_drop in 0.0..0.5f64,
        slow_rate in 0.0..0.5f64,
    ) {
        let fault = FaultProfile::none()
            .with_loss_rate(loss_rate)
            .with_burst(GilbertElliott {
                enter_bad,
                exit_bad,
                loss_good: 0.01,
                loss_bad,
            })
            .with_outage(outage_start, outage_start + outage_len)
            .with_degradation(2.0, 14.0, factor)
            .with_jitter(LatencyJitter {
                jitter_secs,
                spike_prob,
                spike_secs: 1.0,
            });
        let mut short = chaos_config(240, fault);
        short.cloud.faults = CloudFaultProfile {
            label_drop_rate: label_drop,
            slow_label_rate: slow_rate,
            slow_label_secs: 0.5,
        };
        let mut long = short.clone();
        long.stream = long.stream.with_total_frames(480);

        let (short_report, short_trace) = run_traced(&short);
        let (long_report, long_trace) = run_traced(&long);
        assert_invariants(&short_report, 240);
        assert_invariants(&long_report, 480);
        assert_trace_invariants(&short_trace, 240);
        assert_trace_invariants(&long_trace, 480);
        // The long run replays the short run as a prefix, so its byte
        // counters must dominate (monotonicity).
        prop_assert!(long_report.uplink_bytes >= short_report.uplink_bytes);
        prop_assert!(long_report.downlink_bytes >= short_report.downlink_bytes);
    }
}
