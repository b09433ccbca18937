//! Pins on what the simulator computes that hold across commits: FNV-1a
//! digests of the quick pre-trained weights and of whole `SimReport`s over
//! a quick-scale scenario matrix.
//!
//! Every other golden test compares two runs of the same build (traced vs
//! untraced, serial vs parallel), so a refactor that moves one weight or
//! report bit passes them all. A refactor that keeps these changes no
//! measured number. Re-pin only for an intended behaviour change, and say
//! why.
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
//! Every pinned value lives in `pins/pins.txt`, one `name value` line
//! each, and is the same on every architecture: the simulator takes no
//! value from the platform libm (`shoggoth_util::fmath`). A test fails on
//! a moved value, on a check with no entry and on an entry of its section
//! that no check reads, and prints the whole replacement file.

use shoggoth::fleet::{run_fleet, FleetConfig, FleetReport};
use shoggoth::sim::{SimConfig, SimReport, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth::{CloudFaultProfile, ResilienceConfig};
use shoggoth_models::{StudentConfig, StudentDetector, TeacherConfig, TeacherDetector};
use shoggoth_net::{FaultProfile, GilbertElliott, LatencyJitter, LinkConfig};
use shoggoth_telemetry::HistogramSummary;
use shoggoth_video::{presets, BBox, Frame, StreamConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, PoisonError};

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

/// The checked-in pin file: one `name value` line per pin, `#` comments.
const PIN_FILE: &str = include_str!("../pins/pins.txt");

/// The pin file's sections: a name's first `.`-separated part. Each test
/// below checks one section whole; `scripts/paper_scale_pin.sh` checks
/// `paper_scale`.
const SECTIONS: [&str; 9] = [
    "fmath",
    "weights",
    "table1",
    "fixed",
    "fire_and_forget",
    "chaos",
    "fleet",
    "stream",
    "paper_scale",
];

/// The pin file's `(name, value)` entries, in file order.
fn pin_entries() -> impl Iterator<Item = (&'static str, &'static str)> {
    PIN_FILE
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            line.split_once(' ')
                .unwrap_or_else(|| panic!("pin line `{line}` is not `name value`"))
        })
}

/// The section a pin name belongs to.
fn section_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Every value the tests of this process have computed so far, and the
/// sections whose tests have finished: what the replacement file is made
/// of.
static COMPUTED: Mutex<(BTreeMap<String, String>, BTreeSet<&str>)> =
    Mutex::new((BTreeMap::new(), BTreeSet::new()));

/// The pin file with every value computed so far in place of its pinned
/// one: entries of finished sections that no check read are dropped, and
/// checks with no entry are appended.
fn replacement_file(computed: &BTreeMap<String, String>, finished: &BTreeSet<&str>) -> String {
    let mut out = String::new();
    for line in PIN_FILE.lines() {
        match line.split_once(' ') {
            Some((name, _)) if !line.starts_with('#') => {
                if let Some(value) = computed.get(name) {
                    out.push_str(&format!("{name} {value}\n"));
                } else if !finished.contains(section_of(name)) {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    let pinned: BTreeSet<&str> = pin_entries().map(|(name, _)| name).collect();
    for (name, value) in computed {
        if !pinned.contains(name.as_str()) {
            out.push_str(&format!("{name} {value}\n"));
        }
    }
    out
}

/// Checks one section of the pin file, collecting every mismatch so that
/// one failing run prints a whole replacement file.
struct Pins {
    section: &'static str,
    computed: Vec<(String, String)>,
    mismatches: Vec<String>,
}

impl Pins {
    fn new(section: &'static str) -> Self {
        assert!(SECTIONS.contains(&section), "unknown pin section {section}");
        Self {
            section,
            computed: Vec::new(),
            mismatches: Vec::new(),
        }
    }

    /// Checks a digest, written `0x` and 16 hex digits.
    fn check(&mut self, name: &str, actual: u64) {
        self.compare(name, format!("{actual:#018x}"));
    }

    /// Checks a count, written in decimal.
    fn count(&mut self, name: &str, actual: u64) {
        self.compare(name, actual.to_string());
    }

    fn compare(&mut self, name: &str, actual: String) {
        let name = format!("{}.{name}", self.section);
        match pin_entries().find(|&(pinned, _)| pinned == name) {
            Some((_, pinned)) if pinned == actual => {}
            Some((_, pinned)) => self
                .mismatches
                .push(format!("{name}: pinned {pinned}, computed {actual}")),
            None => self
                .mismatches
                .push(format!("{name}: no entry, computed {actual}")),
        }
        self.computed.push((name, actual));
    }

    /// Fails on a mismatch, a check with no entry, or an entry of this
    /// section that no check read, printing the replacement pin file.
    fn finish(mut self) {
        for (name, _) in pin_entries().filter(|&(name, _)| section_of(name) == self.section) {
            if !self.computed.iter().any(|(checked, _)| checked == name) {
                self.mismatches.push(format!("{name}: no check reads it"));
            }
        }
        let mut computed = COMPUTED.lock().unwrap_or_else(PoisonError::into_inner);
        computed.0.extend(self.computed);
        computed.1.insert(self.section);
        if !self.mismatches.is_empty() {
            panic!(
                "pins moved:\n  {}\nreplacement pins/pins.txt (every test finished so far; \
                 the last failure printed holds them all):\n{}",
                self.mismatches.join("\n  "),
                replacement_file(&computed.0, &computed.1)
            );
        }
    }
}

/// Every entry of the pin file names a known section, once, and has a
/// value in its section's form.
#[test]
fn pin_file_entries_belong_to_a_check() {
    let mut seen = BTreeSet::new();
    for (name, value) in pin_entries() {
        assert!(
            SECTIONS.contains(&section_of(name)),
            "{name}: no check reads section {}",
            section_of(name)
        );
        assert!(seen.insert(name), "{name} is pinned twice");
        let digest = value.strip_prefix("0x").is_some_and(|hex| {
            hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        });
        assert!(
            digest || value.parse::<u64>().is_ok(),
            "{name}: `{value}` is neither a 0x digest nor a count"
        );
    }
}

/// The storm Shoggoth run's telemetry summary: its event count, counters
/// and histogram digests, under `prefix`.
fn storm_telemetry(pins: &mut Pins, prefix: &str, report: &SimReport) {
    let summary = &report.telemetry;
    let c = &summary.counters;
    let counts = [
        ("events_recorded", summary.events_recorded),
        ("frames", c.frames),
        ("frames_sampled", c.frames_sampled),
        ("samples_skipped", c.samples_skipped),
        ("chunks_uploaded", c.chunks_uploaded),
        ("probe_uploads", c.probe_uploads),
        ("retransmits", c.retransmits),
        ("uploads_lost", c.uploads_lost),
        ("uploads_suppressed", c.uploads_suppressed),
        ("upload_timeouts", c.upload_timeouts),
        ("breaker_transitions", c.breaker_transitions),
        ("label_batches", c.label_batches),
        ("labeled_samples", c.labeled_samples),
        ("cloud_label_drops", c.cloud_label_drops),
        ("slow_label_batches", c.slow_label_batches),
        ("adaptation_steps", c.adaptation_steps),
        ("rate_decisions", c.rate_decisions),
    ];
    for (name, actual) in counts {
        pins.count(&format!("{prefix}.telemetry.{name}"), actual);
    }
    let histograms = [
        ("frame_latency_ms", &summary.frame_latency_ms),
        ("queue_depth", &summary.queue_depth),
        ("map_delta", &summary.map_delta),
    ];
    for (name, histogram) in histograms {
        let mut h = Fnv::new();
        h.histogram(histogram);
        pins.check(&format!("{prefix}.telemetry.{name}"), h.0);
    }
}

/// A fixed table of `shoggoth_util::fmath` outputs: `ln` on (0, 1], `exp`
/// on [−745, 0] and `sincos` on [0, 2π), 1 024 inputs each, and the
/// extremes the simulator reaches. Its digest is the same on every
/// target; a change to the functions moves it.
#[test]
fn fmath_outputs_match_the_pin() {
    use shoggoth_util::fmath;
    let mut h = Fnv::new();
    for i in 1..=1024 {
        h.f64(fmath::ln(f64::from(i) / 1024.0));
        h.f64(fmath::exp(-745.0 * f64::from(i) / 1024.0));
        let (sin, cos) = fmath::sincos(std::f64::consts::TAU * f64::from(i - 1) / 1024.0);
        h.f64(sin);
        h.f64(cos);
    }
    let u1 = 2f64.powi(-53);
    let (sin, cos) = fmath::sincos(std::f64::consts::TAU * (1.0 - u1));
    for v in [
        fmath::ln(u1),
        fmath::ln(1e-12),
        fmath::exp(-104.0),
        sin,
        cos,
    ] {
        h.f64(v);
    }
    let mut pins = Pins::new("fmath");
    pins.check("table", h.0);
    pins.finish();
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
    let cases = [("detrac", presets::detrac(1)), ("kitti", presets::kitti(1))];
    let mut pins = Pins::new("weights");
    for (name, stream) in cases {
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
        pins.check(&format!("{name}.student"), weights_digest(&student_weights));
        pins.check(&format!("{name}.teacher"), weights_digest(&teacher_weights));
    }
    pins.finish();
}

/// Pins a single run's report digest and per-frame mAP digest.
fn single_run_pins(section: &'static str, report: &SimReport) {
    let mut pins = Pins::new(section);
    pins.check("report", report_digest(report));
    pins.check("maps", map_digest([report.per_frame_map.as_slice()]));
    pins.finish();
}

/// A clean quick-scale Table I run over a stream preset.
fn table_config(stream: StreamConfig) -> SimConfig {
    SimConfig::quick(stream.with_total_frames(TABLE_FRAMES))
}

/// Every Table I strategy over the three presets on a clean link, then
/// through the outage storm: Cloud-Only through the outages, and Prompt
/// and AMS under the breaker.
#[test]
fn table_one_reports_match_the_pins() {
    let cases = [
        ("detrac", table_config(presets::detrac(1))),
        ("kitti", table_config(presets::kitti(1))),
        ("waymo", table_config(presets::waymo(1))),
        ("storm", storm_config(STORM_FRAMES)),
    ];
    let mut pins = Pins::new("table1");
    for (preset, base) in cases {
        let (student, teacher) = Simulation::build_models(&base);
        for strategy in Strategy::table_one() {
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
                    storm_telemetry(&mut pins, "storm.Shoggoth", &report);
                }
            }
            let name = format!("{preset}.{}", strategy.name());
            pins.check(&format!("{name}.report"), report_digest(&report));
            pins.check(
                &format!("{name}.maps"),
                map_digest([report.per_frame_map.as_slice()]),
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
    single_run_pins("fixed", &report);
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
    single_run_pins("fire_and_forget", &report);
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
    single_run_pins("chaos", &report);
}

#[test]
fn storm_fleet_report_matches_the_pin() {
    let fleet = FleetConfig::new(storm_config(FLEET_FRAMES), 3).with_threads(1);
    let report = run_fleet(&fleet).expect("storm fleet run");
    let mut h = Fnv::new();
    h.fleet(&report);
    let mut pins = Pins::new("fleet");
    pins.check("report", h.0);
    pins.check(
        "maps",
        map_digest(report.per_device.iter().map(|r| r.per_frame_map.as_slice())),
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
        ("detrac", presets::detrac(3)),
        ("kitti", presets::kitti(3)),
        ("waymo", presets::waymo(3)),
    ];
    let mut pins = Pins::new("stream");
    for (name, stream) in streams {
        let mut h = Fnv::new();
        let mut frames = 0;
        for frame in stream.with_total_frames(STREAM_FRAMES).build() {
            h.frame(&frame);
            frames += 1;
        }
        assert_eq!(frames, STREAM_FRAMES, "{name}: every frame is generated");
        pins.check(name, h.0);
    }
    pins.finish();
}
