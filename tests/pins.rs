//! Pins on what the simulator computes that hold across commits: FNV-1a
//! digests of the quick pre-trained weights and of whole `SimReport`s over
//! a quick-scale scenario matrix.
//!
//! Every other golden test compares two runs of the same build (traced vs
//! untraced, serial vs parallel), so a refactor that moves one weight or
//! report bit passes them all. The weight digests were computed before
//! pre-training moved to the shared fit loop and the concurrent
//! `pretrain_pair`; the report digests before the report's counters moved
//! onto the event fold. A refactor that keeps them changes no measured
//! number. Re-pin only for an intended behaviour change, and say why.
//!
//! Each report scenario pins two digests: one over `f64::to_bits` of every
//! measured report field, in the order `perfbench/src/digest.rs` hashes
//! them, and one over the per-frame mAP vector alone. The storm Shoggoth
//! run also pins its telemetry summary: the event count, the sixteen
//! counters and the three histogram summaries.
//!
//! The stream pins digest every field of every frame the three presets
//! generate, so stream generation is pinned directly and not only through
//! the reports it feeds.
//!
//! The digests are per target architecture: `exp`/`ln` come from the
//! platform libm, so they are checked on `x86_64` only. Elsewhere the tests
//! still run every scenario and its sanity checks.

use shoggoth::fleet::{run_fleet, FleetConfig, FleetReport};
use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth::{CloudFaultProfile, ResilienceConfig};
use shoggoth_models::{StudentConfig, StudentDetector, TeacherConfig, TeacherDetector};
use shoggoth_net::{FaultProfile, GilbertElliott, LatencyJitter, LinkConfig};
use shoggoth_telemetry::HistogramSummary;
use shoggoth_video::{presets, BBox, Frame, StreamConfig};

/// Frames per Table I run: enough for Shoggoth and AMS to train.
const TABLE_FRAMES: u64 = 900;
/// Frames of the storm runs.
const STORM_FRAMES: u64 = 2_700;
/// Frames of the chaos run.
const CHAOS_FRAMES: u64 = 1_800;
/// Frames per device of the storm fleet.
const FLEET_FRAMES: u64 = 600;
/// Frames of each pinned stream.
const STREAM_FRAMES: u64 = 3_000;

/// A 64-bit FNV-1a hasher over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }

    fn f32(&mut self, value: f32) {
        self.bytes(&value.to_bits().to_le_bytes());
    }

    fn bbox(&mut self, b: &BBox) {
        for v in [b.x, b.y, b.w, b.h] {
            self.f32(v);
        }
    }

    fn option(&mut self, value: Option<u64>) {
        match value {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }

    /// Every field of a frame, its proposals' features bit by bit.
    fn frame(&mut self, f: &Frame) {
        self.u64(f.index);
        self.f64(f.timestamp);
        self.u64(f.scene_index as u64);
        self.str(&f.domain_name);
        self.u64(f.ground_truth.len() as u64);
        for o in &f.ground_truth {
            self.u64(o.track_id);
            self.u64(o.class as u64);
            self.bbox(&o.bbox);
        }
        self.u64(f.proposals.len() as u64);
        for (i, p) in f.proposals.iter().enumerate() {
            let features = f.proposal_features(i);
            self.bbox(&p.bbox);
            self.u64(features.len() as u64);
            self.weights(features);
            self.option(p.true_class.map(|c| c as u64));
            self.option(p.track_id);
        }
        self.u64(f.raw_bytes);
        self.f32(f.motion_magnitude);
    }

    /// The little-endian bytes of each weight's bit pattern, no length.
    fn weights(&mut self, weights: &[f32]) {
        for &w in weights {
            self.f32(w);
        }
    }

    /// Every measured field of a report, in the benchmark digest's order.
    fn report(&mut self, r: &SimReport) {
        self.str(&r.strategy);
        self.str(&r.stream_name);
        self.u64(r.frames);
        for v in [r.duration_secs, r.map50, r.average_iou] {
            self.f64(v);
        }
        self.maps(&r.per_frame_map);
        for v in [r.uplink_kbps, r.downlink_kbps] {
            self.f64(v);
        }
        self.u64(r.uplink_bytes);
        self.u64(r.downlink_bytes);
        for v in [r.avg_fps, r.min_fps] {
            self.f64(v);
        }
        self.u64(r.fps_series.len() as u64);
        for &(t, fps) in &r.fps_series {
            self.f64(t);
            self.f64(fps);
        }
        self.u64(r.training_sessions as u64);
        for v in [
            r.avg_session_secs,
            r.avg_sampling_rate,
            r.final_sampling_rate,
        ] {
            self.f64(v);
        }
        self.u64(r.teacher_frames);
        self.f64(r.cloud_training_secs);
        let s = &r.resilience;
        for v in [
            s.upload_timeouts,
            s.retransmits,
            s.retries_dropped,
            s.probe_uploads,
            s.suppressed_uploads,
            s.suppressed_bytes,
            s.breaker_opens,
            s.breaker_half_opens,
            s.breaker_closes,
            s.cloud_label_drops,
            s.slow_label_batches,
            s.messages_lost,
            s.outage_drops,
        ] {
            self.u64(v);
        }
        for v in [s.closed_secs, s.open_secs, s.half_open_secs] {
            self.f64(v);
        }
    }

    fn maps(&mut self, maps: &[f64]) {
        self.u64(maps.len() as u64);
        for &m in maps {
            self.f64(m);
        }
    }

    fn histogram(&mut self, h: &HistogramSummary) {
        self.u64(h.count);
        for v in [h.mean, h.min, h.max] {
            self.f64(v);
        }
        self.u64(h.buckets.len() as u64);
        for &(edge, count) in &h.buckets {
            self.f64(edge);
            self.u64(count);
        }
    }

    fn fleet(&mut self, f: &FleetReport) {
        for r in &f.per_device {
            self.report(r);
        }
        self.str(&f.strategy);
        self.u64(f.devices as u64);
        for v in [
            f.mean_map50,
            f.cloud_gpu_secs,
            f.duration_secs,
            f.gpu_utilization_per_device,
            f.supported_devices_per_gpu,
            f.mean_uplink_kbps,
        ] {
            self.f64(v);
        }
    }
}

fn report_digest(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.report(r);
    h.0
}

fn map_digest<'a>(maps: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let mut h = Fnv::new();
    for m in maps {
        h.maps(m);
    }
    h.0
}

fn weights_digest(weights: &[f32]) -> u64 {
    let mut h = Fnv::new();
    h.weights(weights);
    h.0
}

/// The scripted outage storm of `tests/telemetry.rs` (and the
/// `unreliable_network` example), with a flaky cloud labeler.
fn storm_config(frames: u64) -> SimConfig {
    let mut config = SimConfig::quick(presets::kitti(83).with_total_frames(frames));
    config.strategy = Strategy::Shoggoth;
    config.link = LinkConfig::cellular().with_fault(FaultProfile::storm());
    config.cloud.faults = CloudFaultProfile::flaky();
    config
}

/// Compares pins, collecting every mismatch so one failing run prints the
/// whole table of actual values.
#[derive(Default)]
struct Pins {
    actual: Vec<String>,
    mismatches: Vec<String>,
}

impl Pins {
    fn check(&mut self, name: &str, actual: u64, pinned: u64) {
        self.compare(name, actual, pinned, format!("{actual:#018x}"));
    }

    fn count(&mut self, name: &str, actual: u64, pinned: u64) {
        self.compare(name, actual, pinned, actual.to_string());
    }

    fn compare(&mut self, name: &str, actual: u64, pinned: u64, shown: String) {
        if actual != pinned {
            self.mismatches.push(format!("{name}: {shown}"));
        }
        self.actual.push(format!("{name}: {shown}"));
    }

    fn finish(self) {
        if cfg!(target_arch = "x86_64") && !self.mismatches.is_empty() {
            panic!(
                "reports moved:\n  {}\nactual values:\n  {}",
                self.mismatches.join("\n  "),
                self.actual.join("\n  ")
            );
        }
    }
}

/// The storm Shoggoth run's telemetry summary: its event count, counters
/// and histogram digests.
fn storm_telemetry(pins: &mut Pins, report: &SimReport) {
    let summary = &report.telemetry;
    let c = &summary.counters;
    let counts = [
        ("events_recorded", summary.events_recorded, 2738),
        ("frames", c.frames, 2700),
        ("frames_sampled", c.frames_sampled, 12),
        ("samples_skipped", c.samples_skipped, 1),
        ("chunks_uploaded", c.chunks_uploaded, 8),
        ("probe_uploads", c.probe_uploads, 2),
        ("retransmits", c.retransmits, 3),
        ("uploads_lost", c.uploads_lost, 4),
        ("uploads_suppressed", c.uploads_suppressed, 0),
        ("upload_timeouts", c.upload_timeouts, 4),
        ("breaker_transitions", c.breaker_transitions, 5),
        ("label_batches", c.label_batches, 4),
        ("labeled_samples", c.labeled_samples, 128),
        ("cloud_label_drops", c.cloud_label_drops, 0),
        ("slow_label_batches", c.slow_label_batches, 0),
        ("adaptation_steps", c.adaptation_steps, 1),
        ("rate_decisions", c.rate_decisions, 3),
    ];
    for (name, actual, pinned) in counts {
        pins.count(&format!("storm telemetry {name}"), actual, pinned);
    }
    let histograms = [
        (
            "frame_latency_ms",
            &summary.frame_latency_ms,
            0xc4a5_c848_3091_0339,
        ),
        ("queue_depth", &summary.queue_depth, 0xf7da_97a6_3145_fed9),
        ("map_delta", &summary.map_delta, 0x0d29_53a2_4408_c9a1),
    ];
    for (name, histogram, pinned) in histograms {
        let mut h = Fnv::new();
        h.histogram(histogram);
        pins.check(&format!("storm telemetry {name}"), h.0, pinned);
    }
}

/// The quick models `Simulation::build_models` pre-trains for `stream`,
/// trained one after the other.
fn serial_pair(config: &SimConfig) -> (StudentDetector, TeacherDetector) {
    let library = &config.stream.library;
    let world = library.world();
    let (dim, classes) = (world.feature_dim(), world.num_classes());
    let student_cfg = StudentConfig::new(dim, classes, config.student_seed).quick();
    let teacher_cfg = TeacherConfig::new(dim, classes, config.teacher_seed).quick();
    (
        StudentDetector::pretrained_with(student_cfg, library, 0),
        TeacherDetector::pretrained_with(teacher_cfg, library),
    )
}

/// The quick student's and teacher's pre-trained weights on two presets,
/// which the concurrent `build_models` must also reproduce serially.
#[test]
fn quick_pretrained_weights_match_the_pins() {
    let cases: [(&str, StreamConfig, u64, u64); 2] = [
        (
            "detrac",
            presets::detrac(1),
            0xe2d8_f1f0_0873_72a9,
            0x559c_391d_4c48_66ca,
        ),
        (
            "kitti",
            presets::kitti(1),
            0x2312_f825_f3e1_30a2,
            0x54df_cb2c_b903_dc73,
        ),
    ];
    for (name, stream, student_pin, teacher_pin) in cases {
        let config = SimConfig::quick(stream);
        let (student, teacher) = Simulation::build_models(&config);
        let (serial_student, serial_teacher) = serial_pair(&config);
        let student_weights = student.net().export_weights();
        let teacher_weights = teacher.net().export_weights();
        assert_eq!(
            student_weights,
            serial_student.net().export_weights(),
            "{name}: concurrent student differs from the serial one"
        );
        assert_eq!(
            teacher_weights,
            serial_teacher.net().export_weights(),
            "{name}: concurrent teacher differs from the serial one"
        );
        if cfg!(target_arch = "x86_64") {
            assert_eq!(
                (
                    weights_digest(&student_weights),
                    weights_digest(&teacher_weights)
                ),
                (student_pin, teacher_pin),
                "{name}: pre-trained weights moved (student, teacher digests)"
            );
        }
    }
}

/// `(report digest, per-frame mAP digest)` of each Table I strategy, in
/// `Strategy::table_one()` order.
type TablePins = [(u64, u64); 5];

/// A clean quick-scale Table I run over a stream preset.
fn table_config(stream: StreamConfig) -> SimConfig {
    SimConfig::quick(stream.with_total_frames(TABLE_FRAMES))
}

/// Every Table I strategy over the three presets on a clean link, then
/// through the outage storm: Cloud-Only through the outages, and Prompt
/// and AMS under the breaker.
#[test]
fn table_one_reports_match_the_pins() {
    let cases: [(&str, SimConfig, TablePins); 4] = [
        (
            "detrac",
            table_config(presets::detrac(1)),
            [
                (0xac21_5a2e_897a_1090, 0xe987_494e_f4bb_9891),
                (0x2c13_97bd_d80e_c66a, 0x003c_c1c2_dc3e_b69d),
                (0x1832_c358_0989_85bb, 0xcceb_3c89_88a7_682b),
                (0x9aa1_c498_1565_e367, 0xdb51_2b42_a470_f1c0),
                (0x37d4_7ae9_dea2_6f26, 0xc69a_cb23_88f4_6d07),
            ],
        ),
        (
            "kitti",
            table_config(presets::kitti(1)),
            [
                (0xb6ae_c361_7e65_0030, 0xd312_b79d_3b0a_7b3b),
                (0x4af1_b569_6b72_c16e, 0xc73a_6112_c327_2c3f),
                (0xaf2b_57f9_db3f_d7cb, 0xe3f1_5ffd_778e_1ae2),
                (0xa4d0_cd1c_17c6_9049, 0x5206_3b2b_1efb_6bf9),
                (0xf1f7_d480_17a0_6079, 0x6898_2c49_ed80_da8e),
            ],
        ),
        (
            "waymo",
            table_config(presets::waymo(1)),
            [
                (0xf244_048c_67f2_d6c1, 0x7660_06ae_60b5_645f),
                (0x0d51_949b_2c8c_f283, 0xc79a_1395_4cc0_ddb3),
                (0xa59d_56f0_6129_3b24, 0x972e_96a2_941f_ccf0),
                (0xbe6d_34c1_e495_b0a8, 0x1ebd_4c92_733a_a92e),
                (0x94f2_3ce3_9fbe_0d0b, 0xd451_2b6a_dc7f_12eb),
            ],
        ),
        (
            "storm",
            storm_config(STORM_FRAMES),
            [
                (0x2825_b89c_f07d_d6e1, 0x3a8a_aed8_e07e_ea6d),
                (0x1f6d_c579_b63b_e601, 0xfb34_9db8_a520_2a51),
                (0xb08b_285b_5d8c_38b3, 0xfd12_7d90_4f48_aea8),
                (0x8bb2_f5ac_175d_64db, 0x2bd0_9004_c99f_4fbd),
                (0x46c9_2f21_0a48_1076, 0xfb2a_7d6e_56a9_1049),
            ],
        ),
    ];
    let mut pins = Pins::default();
    for (preset, base, expected) in cases {
        let (student, teacher) = Simulation::build_models(&base);
        for (strategy, (report_pin, map_pin)) in Strategy::table_one().into_iter().zip(expected) {
            let mut config = base.clone();
            config.strategy = strategy;
            let report = Simulation::run_with_models(&config, student.clone(), teacher.clone())
                .expect("quick Table I run");
            if matches!(strategy, Strategy::Shoggoth | Strategy::Ams) {
                assert!(
                    report.training_sessions >= 1,
                    "{preset} {}: the pin must cover a training session",
                    strategy.name()
                );
            }
            if preset == "storm" {
                let r = &report.resilience;
                if strategy.uses_sampling() {
                    assert!(r.breaker_opens >= 1, "storm {strategy}: no breaker open");
                } else if strategy == Strategy::CloudOnly {
                    assert!(r.outage_drops > 0, "storm {strategy}: no outage drop");
                }
                if strategy == Strategy::Shoggoth {
                    storm_telemetry(&mut pins, &report);
                }
            }
            let name = format!("{preset} {}", strategy.name());
            pins.check(
                &format!("{name} report"),
                report_digest(&report),
                report_pin,
            );
            pins.check(
                &format!("{name} maps"),
                map_digest([report.per_frame_map.as_slice()]),
                map_pin,
            );
        }
    }
    pins.finish();
}

#[test]
fn fixed_rate_report_matches_the_pin() {
    let mut config = SimConfig::quick(presets::kitti(1).with_total_frames(TABLE_FRAMES));
    config.strategy = Strategy::FixedRate(0.4);
    let report = Simulation::run(&config).expect("quick fixed-rate run");
    let mut pins = Pins::default();
    pins.check(
        "fixed 0.4 report",
        report_digest(&report),
        0xe4f1_03e0_7ab2_2534,
    );
    pins.check(
        "fixed 0.4 maps",
        map_digest([report.per_frame_map.as_slice()]),
        0xef80_cddf_c6b6_66d7,
    );
    pins.finish();
}

/// The storm with fire-and-forget uploads (`ResilienceConfig::disabled()`):
/// every upload that times out is dropped, with no retransmit and no
/// breaker. No label batch comes back, so the run never trains and its mAP
/// digest is the storm Edge-Only run's.
#[test]
fn storm_fire_and_forget_report_matches_the_pin() {
    let mut config = storm_config(STORM_FRAMES);
    config.resilience = ResilienceConfig::disabled();
    let report = Simulation::run(&config).expect("fire-and-forget storm run");
    let r = &report.resilience;
    assert!(r.upload_timeouts > 0, "the storm must time uploads out");
    assert_eq!(
        (r.retransmits, r.breaker_opens),
        (0, 0),
        "fire-and-forget neither retransmits nor opens the breaker"
    );
    let mut pins = Pins::default();
    pins.check(
        "storm fire-and-forget report",
        report_digest(&report),
        0xc806_1e1a_a938_910d,
    );
    pins.check(
        "storm fire-and-forget maps",
        map_digest([report.per_frame_map.as_slice()]),
        0x3a8a_aed8_e07e_ea6d,
    );
    pins.finish();
}

/// Not one of the paper's settings: a fast fixed rate through a harsher
/// schedule and a one-slot retransmit queue, so the pin also covers
/// suppressed chunks, shed retransmits, cloud label faults and recoveries.
#[test]
fn chaos_report_matches_the_pin() {
    let fault = FaultProfile::none()
        .with_loss_rate(0.2)
        .with_burst(GilbertElliott::bursty())
        .with_outage(8.0, 16.0)
        .with_outage(25.0, 28.0)
        .with_degradation(4.0, 20.0, 0.2)
        .with_jitter(LatencyJitter {
            jitter_secs: 0.05,
            spike_prob: 0.1,
            spike_secs: 1.5,
        });
    let mut config = storm_config(CHAOS_FRAMES);
    config.strategy = Strategy::FixedRate(2.0);
    config.link = LinkConfig::cellular().with_fault(fault);
    config.cloud.faults = CloudFaultProfile {
        label_drop_rate: 0.3,
        slow_label_rate: 0.3,
        slow_label_secs: 0.5,
    };
    config.resilience.retransmit_capacity = 1;
    let report = Simulation::run(&config).expect("chaos run");
    let r = &report.resilience;
    for (what, count) in [
        ("suppressed uploads", r.suppressed_uploads),
        ("dropped retries", r.retries_dropped),
        ("cloud label drops", r.cloud_label_drops),
        ("slow label batches", r.slow_label_batches),
        ("breaker closes", r.breaker_closes),
    ] {
        assert!(count > 0, "the chaos pin must cover {what}");
    }
    let mut pins = Pins::default();
    pins.check(
        "chaos report",
        report_digest(&report),
        0xa7d7_073b_87cc_4604,
    );
    pins.check(
        "chaos maps",
        map_digest([report.per_frame_map.as_slice()]),
        0xedd0_cfca_132b_523c,
    );
    pins.finish();
}

#[test]
fn storm_fleet_report_matches_the_pin() {
    let fleet = FleetConfig::new(storm_config(FLEET_FRAMES), 3).with_threads(1);
    let report = run_fleet(&fleet).expect("storm fleet run");
    let mut h = Fnv::new();
    h.fleet(&report);
    let mut pins = Pins::default();
    pins.check("storm fleet report", h.0, 0x6497_28c2_7457_6b38);
    pins.check(
        "storm fleet maps",
        map_digest(report.per_device.iter().map(|r| r.per_frame_map.as_slice())),
        0xb42d_cbee_b5fd_1f47,
    );
    pins.finish();
}

/// Every frame of the three presets at seed 3: boxes, feature bits, ground
/// truth, motion and domain names. The features are Gaussian noise around
/// the domain-transformed prototypes, so this pins the stream's noise and
/// the domain library's draws bit for bit.
#[test]
fn streams_match_the_pins() {
    let streams = [
        ("detrac", presets::detrac(3), 0xa709_522e_e089_9951),
        ("kitti", presets::kitti(3), 0x88a2_64cf_29cb_60a8),
        ("waymo", presets::waymo(3), 0xd933_9cca_22e5_e54b),
    ];
    let mut pins = Pins::default();
    for (name, stream, pinned) in streams {
        let mut h = Fnv::new();
        let mut frames = 0;
        for frame in stream.with_total_frames(STREAM_FRAMES).build() {
            h.frame(&frame);
            frames += 1;
        }
        assert_eq!(frames, STREAM_FRAMES, "{name}: every frame is generated");
        pins.check(&format!("{name} stream"), h.0, pinned);
    }
    pins.finish();
}
