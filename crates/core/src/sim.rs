//! The deterministic edge-cloud simulation engine.
//!
//! [`Simulation::run`] plays a synthetic video stream frame by frame at
//! 30 fps through a chosen [`Strategy`], exercising the real components:
//! the student genuinely infers and trains, the teacher genuinely labels,
//! the link genuinely bills every byte, and the controller genuinely moves
//! the sampling rate. The resulting [`SimReport`] carries every quantity
//! the paper's tables and figures report.

use crate::cloud::{CloudConfig, CloudServer, LabelFate};
use crate::error::SimError;
use crate::resilience::{EdgeResilience, ResilienceConfig, ResilienceReport};
use crate::strategy::{AdapterSite, Rate, Strategy, Uplink};
use crate::trainer::{AdaptiveTrainer, TrainerConfig};
use shoggoth_compute::{JETSON_TX2, V100};
use shoggoth_metrics::{kbps, Evaluation, FpsTracker};
use shoggoth_models::{
    Detection, Detector, LabeledSample, StudentConfig, StudentDetector, TeacherConfig,
    TeacherDetector,
};
use shoggoth_net::{Codec, FrameGroupStats, Link, LinkConfig, Message, SendOutcome};
use shoggoth_telemetry::{
    BreakerPhase, Event, EventFold, NoopRecorder, Record, Recorder, TelemetrySummary,
};
use shoggoth_util::json::{self, Obj};
use shoggoth_util::pool::{pipeline, LookAheadStats};
use shoggoth_util::Rng;
use shoggoth_video::{Frame, StreamConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The video stream to play.
    pub stream: StreamConfig,
    /// The strategy under test.
    pub strategy: Strategy,
    /// Edge adaptive-training parameters.
    pub trainer: TrainerConfig,
    /// Cloud labeling / controller parameters.
    pub cloud: CloudConfig,
    /// Edge ↔ cloud link.
    pub link: LinkConfig,
    /// Edge failure management: upload timeouts, retransmission, and the
    /// uplink circuit breaker. [`ResilienceConfig::disabled`] reproduces
    /// the fire-and-forget behavior of earlier revisions.
    pub resilience: ResilienceConfig,
    /// Codec used for frame uploads.
    pub codec: Codec,
    /// Sampled frames per upload chunk. The edge buffers this many sampled
    /// frames, H.264-encodes the buffer (1–3 s in the paper) and ships it;
    /// the cloud labels each chunk on arrival and updates the sampling
    /// rate, while the edge pools labeled samples until a full training
    /// batch ([`TrainerConfig::batch_frames`]) has accumulated.
    pub upload_chunk_frames: usize,
    /// Student initialization / pre-training seed.
    pub student_seed: u64,
    /// Teacher initialization / pre-training seed.
    pub teacher_seed: u64,
    /// Simulation-event seed.
    pub sim_seed: u64,
    /// Use the small `quick()` model configurations (for tests).
    pub quick_models: bool,
}

impl SimConfig {
    /// Paper-scaled defaults around a stream.
    pub fn new(stream: StreamConfig) -> Self {
        Self {
            stream,
            strategy: Strategy::Shoggoth,
            trainer: TrainerConfig::paper_scaled(),
            cloud: CloudConfig::default(),
            link: LinkConfig::cellular(),
            resilience: ResilienceConfig::standard(),
            codec: Codec::h264_like(),
            upload_chunk_frames: 10,
            student_seed: 1,
            teacher_seed: 2,
            sim_seed: 3,
            quick_models: false,
        }
    }

    /// Small models and short sessions, for tests and examples.
    pub fn quick(stream: StreamConfig) -> Self {
        Self {
            trainer: TrainerConfig::quick(),
            upload_chunk_frames: 4,
            quick_models: true,
            ..Self::new(stream)
        }
    }
}

/// Everything one simulation run measured.
///
/// `PartialEq` is derived so determinism tests can assert that two runs
/// (e.g. serial vs. parallel fleet schedules, or telemetry-on vs.
/// telemetry-off) are bit-identical in every field, the telemetry summary
/// included.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Strategy name.
    pub strategy: String,
    /// Stream preset name.
    pub stream_name: String,
    /// Frames played.
    pub frames: u64,
    /// Stream duration in seconds.
    pub duration_secs: f64,
    /// Pooled mAP@0.5 over the whole stream (Tables I, II).
    pub map50: f64,
    /// Average IoU of matched detections (Table III).
    pub average_iou: f64,
    /// Per-frame mAP@0.5 (Figure 5's CDF input).
    pub per_frame_map: Vec<f64>,
    /// Average uplink rate in Kbps (Tables I, III).
    pub uplink_kbps: f64,
    /// Average downlink rate in Kbps (Table I).
    pub downlink_kbps: f64,
    /// Total uplink bytes.
    pub uplink_bytes: u64,
    /// Total downlink bytes.
    pub downlink_bytes: u64,
    /// Average achieved inference FPS (Figure 4 left).
    pub avg_fps: f64,
    /// Lowest instantaneous FPS (the training dip).
    pub min_fps: f64,
    /// FPS time series in 1 s buckets (Figure 4 right).
    pub fps_series: Vec<(f64, f64)>,
    /// Completed adaptive-training sessions.
    pub training_sessions: usize,
    /// Mean modeled wall-clock per session in seconds.
    pub avg_session_secs: f64,
    /// Time-averaged sampling rate in fps.
    pub avg_sampling_rate: f64,
    /// Sampling rate at the end of the run.
    pub final_sampling_rate: f64,
    /// Frames the cloud teacher ran inference on (labeling for adaptive
    /// strategies; every frame for Cloud-Only). Drives the fleet
    /// scalability analysis: cloud GPU time per device.
    pub teacher_frames: u64,
    /// Total modeled cloud GPU seconds spent training (non-zero only for
    /// AMS, whose distillation runs on the server).
    pub cloud_training_secs: f64,
    /// Resilience counters: timeouts, retransmits, breaker transitions
    /// and per-state spans, suppressed uploads, cloud label faults.
    pub resilience: ResilienceReport,
    /// Aggregated telemetry, folded from every event of the run whether
    /// or not a recorder also kept them.
    pub telemetry: TelemetrySummary,
}

impl SimReport {
    /// The report as a JSON object, one field per report field; the FPS
    /// series is written as `[secs, fps]` pairs and the resilience and
    /// telemetry sections are nested objects.
    pub fn to_json(&self) -> String {
        let Self {
            strategy,
            stream_name,
            frames,
            duration_secs,
            map50,
            average_iou,
            per_frame_map,
            uplink_kbps,
            downlink_kbps,
            uplink_bytes,
            downlink_bytes,
            avg_fps,
            min_fps,
            fps_series,
            training_sessions,
            avg_session_secs,
            avg_sampling_rate,
            final_sampling_rate,
            teacher_frames,
            cloud_training_secs,
            resilience,
            telemetry,
        } = self;
        Obj::new()
            .text("strategy", strategy)
            .text("stream_name", stream_name)
            .int("frames", *frames)
            .num("duration_secs", *duration_secs)
            .num("map50", *map50)
            .num("average_iou", *average_iou)
            .raw("per_frame_map", &json::nums(per_frame_map))
            .num("uplink_kbps", *uplink_kbps)
            .num("downlink_kbps", *downlink_kbps)
            .int("uplink_bytes", *uplink_bytes)
            .int("downlink_bytes", *downlink_bytes)
            .num("avg_fps", *avg_fps)
            .num("min_fps", *min_fps)
            .raw("fps_series", &json::pairs(fps_series))
            .int("training_sessions", *training_sessions as u64)
            .num("avg_session_secs", *avg_session_secs)
            .num("avg_sampling_rate", *avg_sampling_rate)
            .num("final_sampling_rate", *final_sampling_rate)
            .int("teacher_frames", *teacher_frames)
            .num("cloud_training_secs", *cloud_training_secs)
            .raw("resilience", &resilience.to_json())
            .raw("telemetry", &telemetry.to_json())
            .finish()
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} on {}: {} frames over {:.1} s",
            self.strategy, self.stream_name, self.frames, self.duration_secs
        )?;
        writeln!(
            f,
            "  accuracy   mAP@0.5 {:.3}   avg IoU {:.3}",
            self.map50, self.average_iou
        )?;
        writeln!(
            f,
            "  inference  {:.1} fps avg, {:.1} fps min",
            self.avg_fps, self.min_fps
        )?;
        writeln!(
            f,
            "  network    up {:.1} Kbps ({} B)   down {:.1} Kbps ({} B)",
            self.uplink_kbps, self.uplink_bytes, self.downlink_kbps, self.downlink_bytes
        )?;
        writeln!(
            f,
            "  sampling   {:.2} fps avg, {:.2} fps final",
            self.avg_sampling_rate, self.final_sampling_rate
        )?;
        writeln!(
            f,
            "  training   {} sessions, {:.2} s avg (cloud GPU {:.1} s)",
            self.training_sessions, self.avg_session_secs, self.cloud_training_secs
        )?;
        writeln!(
            f,
            "  resilience {} timeouts, {} retransmits, {} breaker opens",
            self.resilience.upload_timeouts,
            self.resilience.retransmits,
            self.resilience.breaker_opens
        )?;
        write!(
            f,
            "  telemetry  {} events, latency p-mean {:.1} ms, queue depth max {:.0}",
            self.telemetry.events_recorded,
            self.telemetry.frame_latency_ms.mean,
            self.telemetry.queue_depth.max
        )
    }
}

/// The simulation engine.
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Pre-trains the models a configuration calls for. Exposed so
    /// experiment harnesses can build them once and share across strategy
    /// runs (the models are cloned per run).
    pub fn build_models(config: &SimConfig) -> (StudentDetector, TeacherDetector) {
        let world = config.stream.library.world();
        let (dim, classes) = (world.feature_dim(), world.num_classes());
        let (student_cfg, teacher_cfg) = if config.quick_models {
            (
                StudentConfig::new(dim, classes, config.student_seed).quick(),
                TeacherConfig::new(dim, classes, config.teacher_seed).quick(),
            )
        } else {
            (
                StudentConfig::new(dim, classes, config.student_seed),
                TeacherConfig::new(dim, classes, config.teacher_seed),
            )
        };
        shoggoth_models::pretrain_pair(student_cfg, teacher_cfg, &config.stream.library, 0)
    }

    /// Builds models and runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is inconsistent or the
    /// training stack fails mid-run (see [`crate::error`]).
    pub fn run(config: &SimConfig) -> Result<SimReport, SimError> {
        let (student, teacher) = Self::build_models(config);
        Self::run_with_models(config, student, teacher)
    }

    /// Runs the simulation with externally pre-trained models.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is inconsistent or the
    /// training stack fails mid-run (see [`crate::error`]).
    pub fn run_with_models(
        config: &SimConfig,
        student: StudentDetector,
        teacher: TeacherDetector,
    ) -> Result<SimReport, SimError> {
        Self::run_traced(config, student, teacher, &mut NoopRecorder)
    }

    /// Runs the simulation while streaming stamped telemetry events into
    /// `recorder`. Recording is observation-only: the returned report,
    /// its [`SimReport::telemetry`] summary included, is bit-identical to
    /// an untraced run of the same configuration.
    ///
    /// Called outside a worker pool with more than one thread available,
    /// the run generates its video stream on a second thread
    /// ([`shoggoth_util::pool::pipeline`]), which also runs a copy of the
    /// serving model on the frames ahead of the engine; the engine and
    /// `recorder` stay on the calling thread, and the report is the same
    /// either way.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is inconsistent or the
    /// training stack fails mid-run (see [`crate::error`]).
    pub fn run_traced<R: Recorder>(
        config: &SimConfig,
        student: StudentDetector,
        teacher: TeacherDetector,
        recorder: &mut R,
    ) -> Result<SimReport, SimError> {
        let mut engine = Engine::new(config, student, teacher, recorder)?;
        engine.play()?;
        Ok(engine.finish())
    }
}

/// Labels on their way back to the edge (uplink + cloud + downlink
/// latency already summed into the delivery time).
struct PendingLabels {
    deliver_at_secs: f64,
    upload_id: u64,
    frames: usize,
    samples: Vec<LabeledSample>,
}

/// Where the student adapts, with the state adaptation needs there.
enum Adapter {
    /// The student never adapts.
    None,
    /// Edge-side adaptive training (Shoggoth / Prompt / fixed rates).
    Edge {
        trainer: AdaptiveTrainer,
        /// Modeled wall-clock of one session on the edge device.
        session_secs: f64,
    },
    /// AMS: the cloud fine-tunes a shadow student and streams the full
    /// model back; edge inference never contends with training.
    CloudShadow {
        /// Boxed: a whole detector would make every `Adapter` its size.
        student: Box<StudentDetector>,
        trainer: AdaptiveTrainer,
        /// Modeled wall-clock of one session on the cloud device.
        session_secs: f64,
        /// The last delivered update, the shadow's weights exported flat;
        /// reused by every update.
        update: Vec<f32>,
    },
}

/// The edge's inference rate while no training session runs: the 30 fps
/// the paper's Jetson TX2 achieves.
const EDGE_IDLE_FPS: f64 = 30.0;

/// Share of [`EDGE_IDLE_FPS`] left while a training session runs on the
/// same GPU: the paper observes 30 fps dropping to 15 (Fig. 4).
const TRAINING_INFERENCE_SHARE: f64 = 0.5;

/// Confidence threshold θ of the edge's estimated-accuracy signal α: a
/// prediction counts as "accurate" when its posterior clears it.
/// Deliberately stricter than Eq. 1's 0.5 labeling threshold: the
/// micro-student's argmax posterior over a handful of classes is rarely
/// below 0.5, so a 0.5 cut would saturate α at 1.
const ALPHA_THETA: f32 = 0.8;

/// Modeled size of one AMS model update on the downlink. The stand-in
/// student is a micro-MLP, but AMS ships the real YOLOv4-ResNet18 student
/// (compressed deltas on the order of a megabyte), so the byte accounting
/// uses this paper-scale figure.
const AMS_UPDATE_BYTES: u64 = 1_200_000;

/// Frames the stream generator hands the engine at a time when it runs
/// ahead on a second thread (`pool::pipeline`). A UA-DETRAC block is
/// about 0.7 ms of generation and 100 KiB, so one hand-off per block
/// costs little per frame and the eight blocks in flight stay small.
const FRAME_BLOCK: usize = 32;

/// A frame's detections made ahead on the stream's producer thread, by
/// the serving model at `version` (see [`LookAhead`]).
struct Precomputed {
    version: u64,
    detections: Vec<Detection>,
}

/// The newest serving student, published by the engine for the
/// look-ahead. Latest wins: a publication overwrites the one before in
/// place, so the slot holds one weight buffer however often the student
/// changes.
struct Published {
    /// The engine's `serving_version`, readable without the lock: a
    /// precomputed list is current while it carries this version.
    version: AtomicU64,
    latest: Mutex<Publication>,
}

/// The serving student's weights, flat, and their version.
struct Publication {
    version: u64,
    weights: Vec<f32>,
}

/// Locks the weights slot. A publication writes a whole weight vector and
/// an import only reads, so a panic on the other thread cannot leave the
/// slot half written.
fn lock(slot: &Mutex<Publication>) -> std::sync::MutexGuard<'_, Publication> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The model that detects on played frames: the student, or the cloud's
/// teacher when every frame goes up (`Uplink::EveryFrame`).
enum ServingModel {
    Student(StudentDetector),
    Teacher(TeacherDetector),
}

/// A copy of the serving model on the stream's producer thread, which
/// detects on the frames ahead of the engine while it plays earlier ones.
/// Before each detection it imports the newest published student, so a
/// result is tagged with the version of the weights that made it. The
/// engine uses a result only when that version is still its own, so a
/// played frame's detections are the serving model's whichever thread ran
/// it.
struct LookAhead {
    model: ServingModel,
    version: u64,
    published: Arc<Published>,
}

impl LookAhead {
    fn detect(&mut self, frame: &Frame) -> Precomputed {
        self.catch_up();
        let detections = match &mut self.model {
            ServingModel::Student(student) => student.detect(frame),
            ServingModel::Teacher(teacher) => teacher.detect(frame),
        };
        Precomputed {
            version: self.version,
            detections,
        }
    }

    /// Imports the published student when it is newer than the copy. The
    /// version moves only with a successful import, so a copy that cannot
    /// take the weights tags its results stale rather than wrong.
    fn catch_up(&mut self) {
        if self.published.version.load(Ordering::Acquire) == self.version {
            return;
        }
        let latest = lock(&self.published.latest);
        if let ServingModel::Student(student) = &mut self.model {
            if student.net_mut().import_weights(&latest.weights).is_ok() {
                self.version = latest.version;
            }
        }
    }
}

/// Mutable state of one run, generic over its telemetry sink so the
/// no-op recorder compiles away entirely.
struct Engine<'a, R: Recorder> {
    config: &'a SimConfig,
    /// Where the strategy sends frames.
    uplink: Uplink,
    adapter: Adapter,
    /// Every emitted event, folded into the report's counts.
    fold: EventFold,
    recorder: &'a mut R,
    /// Sim-time stamp components of the frame being played (what every
    /// emitted event is stamped with).
    now_secs: f64,
    cur_frame: u64,
    frames_played: u64,
    student: StudentDetector,
    cloud: CloudServer,
    link: Link,
    resilience: EdgeResilience,
    pending_labels: Vec<PendingLabels>,
    rng: Rng,

    sampling_rate: f64,
    next_sample_time: f64,
    /// Sampled frames awaiting upload (one codec chunk).
    chunk: Vec<Frame>,
    /// Labeled samples pooled toward the next training batch.
    pool: Vec<LabeledSample>,
    /// Frames contributing to the pool.
    pool_frames: usize,
    /// End of the edge training session in progress.
    training_until: f64,
    busy_secs_window: f64,
    last_rate_update: f64,
    alpha_hits: u64,
    alpha_total: u64,

    eval: Evaluation,
    per_frame_map: Vec<f64>,
    fps: FpsTracker,
    rate_sum: f64,

    /// Bumped whenever the serving student changes: a precomputed result
    /// of an older version is stale.
    serving_version: u64,
    /// The look-ahead's weights slot, once a producer thread runs one.
    published: Option<Arc<Published>>,
}

impl<'a, R: Recorder> Engine<'a, R> {
    fn new(
        config: &'a SimConfig,
        student: StudentDetector,
        teacher: TeacherDetector,
        recorder: &'a mut R,
    ) -> Result<Self, SimError> {
        let num_classes = config.stream.library.world().num_classes();
        let cloud = CloudServer::new(teacher, num_classes, config.cloud)?;
        let (uplink, site) = config.strategy.plan();
        let sampling_rate = match uplink {
            Uplink::Sampled(Rate::Fixed(rate)) => rate,
            Uplink::Off | Uplink::EveryFrame | Uplink::Sampled(Rate::Controller) => {
                config.cloud.controller.initial_rate
            }
        };
        let adapter = match site {
            AdapterSite::None => Adapter::None,
            AdapterSite::Edge => Adapter::Edge {
                trainer: AdaptiveTrainer::new(config.trainer.clone()),
                session_secs: config.trainer.session_time(&JETSON_TX2).total_secs(),
            },
            // AMS (Khani et al.) fine-tunes the *entire* student in the
            // cloud — no latent replay, full backpropagation. The cloud's
            // V100 can afford it; the cost shows up as model-sized
            // downlink updates and slightly more forgetting.
            AdapterSite::CloudShadow => {
                let ams = config.trainer.ams_shadow();
                Adapter::CloudShadow {
                    student: Box::new(student.clone()),
                    session_secs: ams.session_time(&V100).total_secs(),
                    // AMS keeps only its recent-frame window, not a
                    // reservoir replay memory: a capacity of one disables
                    // replay.
                    trainer: AdaptiveTrainer::new(TrainerConfig {
                        replay_capacity: 1,
                        ..ams
                    }),
                    update: Vec::new(),
                }
            }
        };
        Ok(Self {
            link: Link::new(config.link.clone())?,
            resilience: EdgeResilience::new(config.resilience)?,
            pending_labels: Vec::new(),
            rng: Rng::seed_from(config.sim_seed ^ 0x53_49_4d), // "SIM"
            sampling_rate,
            next_sample_time: 0.0,
            chunk: Vec::new(),
            pool: Vec::new(),
            pool_frames: 0,
            training_until: f64::NEG_INFINITY,
            busy_secs_window: 0.0,
            last_rate_update: 0.0,
            alpha_hits: 0,
            alpha_total: 0,
            eval: Evaluation::new(num_classes),
            // One value per frame: sized once instead of regrown as the
            // run plays.
            per_frame_map: Vec::with_capacity(config.stream.total_frames() as usize),
            fps: FpsTracker::new(),
            rate_sum: 0.0,
            serving_version: 0,
            published: None,
            config,
            uplink,
            adapter,
            fold: EventFold::default(),
            recorder,
            now_secs: 0.0,
            cur_frame: 0,
            frames_played: 0,
            student,
            cloud,
        })
    }

    /// Stamps one event at the current frame's sim time, folds it into
    /// the run's counts and hands it to the recorder.
    fn rec(&mut self, event: Event) {
        let record = Record::new(self.now_secs, self.cur_frame, event);
        self.fold.record(record);
        self.recorder.record(record);
    }

    /// Emits a `BreakerTransition` if the breaker left `before` during the
    /// maintenance step that just ran.
    fn trace_breaker(&mut self, before: BreakerPhase) {
        let after = self.resilience.state();
        if after != before {
            self.rec(Event::BreakerTransition {
                from: before,
                to: after,
            });
        }
    }

    /// Plays the whole stream. The frames are generated ahead on a second
    /// thread when one is free (`pool::pipeline`); the stream's RNG never
    /// reads engine state, so this plays exactly the frames of the serial
    /// loop. That thread also detects on the frames ahead with a
    /// [`LookAhead`] copy of the serving model, and a list is current
    /// while it carries the published version. Returns what the
    /// look-ahead did.
    fn play(&mut self) -> Result<LookAheadStats, SimError> {
        let stream = self.config.stream.build();
        let stats = pipeline(
            stream,
            FRAME_BLOCK,
            self,
            |engine| {
                let (mut look_ahead, published) = engine.look_ahead();
                let current = move |list: &Precomputed| {
                    list.version == published.version.load(Ordering::Acquire)
                };
                (move |frame: &Frame| look_ahead.detect(frame), current)
            },
            |engine, frame, ahead| engine.step(frame, ahead),
        )?;
        Ok(stats)
    }

    /// The serving model's copy for the producer thread, and the slot
    /// through which the engine hands it every later student.
    fn look_ahead(&mut self) -> (LookAhead, Arc<Published>) {
        let published = Arc::new(Published {
            version: AtomicU64::new(self.serving_version),
            latest: Mutex::new(Publication {
                version: self.serving_version,
                weights: Vec::new(),
            }),
        });
        self.published = Some(Arc::clone(&published));
        let model = match self.uplink {
            Uplink::EveryFrame => ServingModel::Teacher(self.cloud.teacher().clone()),
            Uplink::Off | Uplink::Sampled(_) => ServingModel::Student(self.student.clone()),
        };
        let look_ahead = LookAhead {
            model,
            version: self.serving_version,
            published: Arc::clone(&published),
        };
        (look_ahead, published)
    }

    /// The serving student's weights changed (a training session, an AMS
    /// update; only sampled uplinks adapt, so the student is the serving
    /// model). Its version moves on, which makes every list precomputed
    /// before stale, and a running look-ahead gets the new weights,
    /// written over the last ones: an AMS update's, already flat, are
    /// copied; an edge session's student is exported.
    fn student_changed(&mut self) {
        self.serving_version += 1;
        let Some(published) = &self.published else {
            return;
        };
        let mut latest = lock(&published.latest);
        match &self.adapter {
            Adapter::CloudShadow { update, .. } => latest.weights.clone_from(update),
            Adapter::None | Adapter::Edge { .. } => {
                self.student.net().export_weights_into(&mut latest.weights);
            }
        }
        latest.version = self.serving_version;
        drop(latest);
        published
            .version
            .store(self.serving_version, Ordering::Release);
    }

    /// Plays one frame: inference, the uplink and adaptation the plan
    /// calls for, then evaluation. `ahead` holds the frame's detections
    /// when the look-ahead made them; they stand in for the serving
    /// model's only when the model has not changed since.
    fn step(&mut self, frame: &Frame, ahead: Option<&Precomputed>) -> Result<(), SimError> {
        let t = frame.timestamp;
        self.frames_played += 1;
        self.now_secs = t;
        self.cur_frame = frame.index;

        // Achieved inference rate under training contention.
        let fps_now = if t < self.training_until {
            EDGE_IDLE_FPS * TRAINING_INFERENCE_SHARE
        } else {
            EDGE_IDLE_FPS
        };
        self.fps.record(t, fps_now);
        self.rate_sum += self.effective_rate();

        // System inference output for this frame.
        let fresh;
        let detections: &[Detection] = match ahead {
            Some(ahead) if ahead.version == self.serving_version => &ahead.detections,
            _ => {
                fresh = match self.uplink {
                    Uplink::EveryFrame => self.cloud.infer(frame),
                    Uplink::Off | Uplink::Sampled(_) => self.student.detect(frame),
                };
                &fresh
            }
        };
        if self.uplink == Uplink::EveryFrame {
            self.ship_every_frame(frame, detections.len());
        }

        // Estimated-accuracy bookkeeping (the α metric).
        for d in detections {
            self.alpha_total += 1;
            if d.confidence >= ALPHA_THETA {
                self.alpha_hits += 1;
            }
        }

        if let Uplink::Sampled(_) = self.uplink {
            self.maintain_uplink(frame);
            self.sample(frame);
            // Adapt once a training batch has pooled. Adaptation freezes
            // while the breaker is not closed: labels cannot be fresh
            // during an outage, and training through one would burn the
            // edge GPU for nothing.
            if self.resilience.state() == BreakerPhase::Closed
                && self.pool_frames >= self.config.trainer.batch_frames
            {
                self.adapt(t)?;
            }
        }

        // Evaluation: one match, folded into the run's scores.
        let frame_map = self.eval.add(detections, &frame.ground_truth);
        self.per_frame_map.push(frame_map);

        // The per-frame status sample: the telemetry timeline's
        // backbone, emitted once per played frame after evaluation.
        self.rec(Event::FrameStatus {
            map: frame_map,
            fps: fps_now,
            sampling_rate: self.effective_rate(),
            detections: detections.len() as u32,
            uplink_bytes: self.link.uplink_bytes(),
            queue_depth: self.resilience.queue_len() as u32,
            breaker: self.resilience.state(),
        });
        Ok(())
    }

    /// Assembles the report once every frame has been played.
    fn finish(self) -> SimReport {
        let frames_played = self.frames_played;
        let duration = frames_played as f64 / self.config.stream.fps as f64;
        let (telemetry, totals) = self.fold.finish(duration);
        let sessions = telemetry.counters.adaptation_steps;

        SimReport {
            resilience: ResilienceReport::new(&telemetry.counters, &totals, &self.link),
            strategy: self.config.strategy.name(),
            stream_name: self.config.stream.name.clone(),
            frames: frames_played,
            duration_secs: duration,
            map50: self.eval.map50(),
            average_iou: self.eval.average_iou(),
            per_frame_map: self.per_frame_map,
            uplink_kbps: kbps(self.link.uplink_bytes(), duration),
            downlink_kbps: kbps(self.link.downlink_bytes(), duration),
            uplink_bytes: self.link.uplink_bytes(),
            downlink_bytes: self.link.downlink_bytes(),
            avg_fps: self.fps.average(),
            min_fps: self.fps.min(),
            fps_series: self.fps.series(),
            training_sessions: sessions as usize,
            avg_session_secs: if sessions == 0 {
                0.0
            } else {
                totals.session_secs / sessions as f64
            },
            avg_sampling_rate: if frames_played == 0 {
                0.0
            } else {
                self.rate_sum / frames_played as f64
            },
            final_sampling_rate: self.sampling_rate,
            // With every frame uploaded the teacher infers every played
            // frame; otherwise it labels the frames the uplink delivered.
            teacher_frames: match self.uplink {
                Uplink::EveryFrame => frames_played,
                Uplink::Off | Uplink::Sampled(_) => totals.delivered_frames,
            },
            cloud_training_secs: totals.cloud_training_secs,
            telemetry,
        }
    }

    /// The every-frame uplink's traffic: the live frame goes up, and the
    /// golden model's `count` mask-bearing results come back. Neither
    /// send's outcome is consulted, so the detections arrive even through
    /// an outage; the cloud's inference draws nothing from the run's RNG,
    /// so it may run before the sends.
    fn ship_every_frame(&mut self, frame: &Frame, count: usize) {
        let encoded = self.config.codec.encode_frame(
            frame.index,
            frame.raw_bytes,
            frame.motion_magnitude,
            1.0 / self.config.stream.fps as f64,
        );
        self.link.send_uplink(
            frame.timestamp,
            Message::FrameBatch {
                frames: 1,
                encoded_bytes: encoded,
            },
            &mut self.rng,
        );
        self.link.send_downlink(
            frame.timestamp,
            Message::MaskResults {
                count,
                frame_encoded_bytes: encoded,
            },
            &mut self.rng,
        );
    }

    /// Resilience maintenance: matured label deliveries, upload timeouts,
    /// the breaker clock, and retransmits whose backoff elapsed (the
    /// in-order sequence is the determinism contract). Then a half-open
    /// breaker probes as soon as it may: one single-frame chunk tests the
    /// link, and no further probe launches until this one times out or is
    /// acknowledged.
    fn maintain_uplink(&mut self, frame: &Frame) {
        let t = frame.timestamp;
        let before = self.resilience.state();
        self.deliver_labels(t);
        self.trace_breaker(before);
        let before = self.resilience.state();
        let timeouts = self.resilience.expire(t, &mut self.rng);
        for timeout in timeouts {
            self.rec(Event::UploadTimedOut {
                attempt: timeout.attempt,
                probe: timeout.probe,
                requeued: timeout.requeued,
                shed: timeout.shed,
            });
        }
        self.trace_breaker(before);
        let before = self.resilience.state();
        self.resilience.poll(t);
        self.trace_breaker(before);
        while let Some(q) = self.resilience.take_ready(t) {
            self.transmit_chunk(t, q.frames, q.attempt, false);
        }

        if self.resilience.state() == BreakerPhase::HalfOpen && !self.resilience.probe_in_flight() {
            self.transmit_chunk(t, vec![frame.clone()], 1, true);
        }
    }

    /// Frame sampling toward the upload chunk. An open breaker suspends
    /// the uplink: frames are still sampled (at the controller's outage
    /// floor) but full chunks are counted and discarded instead of
    /// transmitted; the probe machinery owns the uplink while half-open.
    fn sample(&mut self, frame: &Frame) {
        let t = frame.timestamp;
        if t < self.next_sample_time {
            return;
        }
        self.next_sample_time = t + 1.0 / self.effective_rate().max(1e-6);
        let breaker = self.resilience.state();
        if breaker == BreakerPhase::HalfOpen {
            self.rec(Event::SampleSkipped);
            return;
        }
        self.chunk.push(frame.clone());
        self.rec(Event::FrameSampled {
            chunk_len: self.chunk.len() as u32,
            breaker,
        });
        if self.chunk.len() >= self.config.upload_chunk_frames {
            if breaker == BreakerPhase::Closed {
                self.upload_chunk(t);
            } else {
                self.suppress_chunk();
            }
        }
    }

    /// The sampling rate actually in force: the controller's rate while
    /// the breaker is closed, the outage floor while it is open or
    /// half-open (no point sampling fast into a dead link).
    fn effective_rate(&self) -> f64 {
        match self.resilience.state() {
            BreakerPhase::Closed => self.sampling_rate,
            BreakerPhase::Open | BreakerPhase::HalfOpen => self
                .config
                .cloud
                .controller
                .outage_floor()
                .min(self.sampling_rate),
        }
    }

    /// Delivers every matured label batch to the edge: pools the samples,
    /// acknowledges the upload, and — when a delivered probe closes the
    /// breaker — resumes normal sampling and releases queued retransmits.
    fn deliver_labels(&mut self, t: f64) {
        let mut i = 0;
        while i < self.pending_labels.len() {
            if self.pending_labels[i].deliver_at_secs > t {
                i += 1;
                continue;
            }
            let pending = self.pending_labels.remove(i);
            let outcome = self.resilience.ack(pending.upload_id);
            // Labels are useful even from a post-timeout straggler.
            self.pool_frames += pending.frames;
            let sample_count = pending.samples.len();
            self.pool.extend(pending.samples);
            self.rec(Event::LabelBatchArrived {
                samples: sample_count as u32,
                frames: pending.frames as u32,
                straggler: !outcome.acked,
                closed_breaker: outcome.closed_breaker,
            });
            if outcome.closed_breaker {
                // Recovery: catch up immediately instead of waiting out
                // the widened sampling interval.
                self.next_sample_time = t;
                self.resilience.release_queue(t);
            }
        }
    }

    /// Encodes and transmits one chunk of sampled frames, registering it
    /// with the in-flight tracker. On delivery the cloud labels the chunk
    /// and (cloud faults permitting) the labels travel back as a
    /// [`PendingLabels`] entry; acknowledgment happens when they arrive.
    fn transmit_chunk(&mut self, t: f64, frames: Vec<Frame>, attempt: u32, probe: bool) {
        if frames.is_empty() {
            return;
        }
        let message = self.encode_chunk(&frames, 1.0 / self.sampling_rate.max(1e-6));
        let wire_bytes = message.bytes();
        let outcome = self.link.send_uplink(t, message, &mut self.rng);
        self.rec(Event::ChunkUploaded {
            frames: frames.len() as u32,
            bytes: wire_bytes,
            attempt,
            probe,
            lost_to_outage: matches!(outcome, SendOutcome::LostToOutage),
            latency_secs: outcome.transfer().map(|up| up.latency_secs),
        });
        let mut pending = None;
        if let Some(up) = outcome.transfer() {
            let refs: Vec<&Frame> = frames.iter().collect();
            let labels = self.cloud.label_batch(&refs);
            match self.config.cloud.faults.label_fate(&mut self.rng) {
                LabelFate::Dropped => self.rec(Event::CloudLabelsDropped),
                LabelFate::Delivered { extra_latency_secs } => {
                    if extra_latency_secs > 0.0 {
                        self.rec(Event::CloudLabelsSlow {
                            extra_secs: extra_latency_secs,
                        });
                    }
                    let down = self.link.send_downlink(
                        t,
                        Message::Labels {
                            samples: labels.total_samples,
                        },
                        &mut self.rng,
                    );
                    if let Some(down) = down.transfer() {
                        // Moved, not cloned: each sample keeps its feature
                        // buffer.
                        let mut samples = Vec::with_capacity(labels.total_samples);
                        samples.extend(labels.per_frame.into_iter().flatten());
                        pending = Some((
                            t + up.latency_secs + extra_latency_secs + down.latency_secs,
                            samples,
                            frames.len(),
                        ));
                    }
                }
            }
        }
        let upload_id = self.resilience.register(t, frames, attempt, probe);
        if let Some((deliver_at_secs, samples, chunk_frames)) = pending {
            self.pending_labels.push(PendingLabels {
                deliver_at_secs,
                upload_id,
                frames: chunk_frames,
                samples,
            });
        }
    }

    /// The uplink message carrying a chunk of sampled frames taken
    /// `gap_secs` apart, H.264-encoded as one group.
    fn encode_chunk(&self, frames: &[Frame], gap_secs: f64) -> Message {
        let stats: Vec<FrameGroupStats> = frames
            .iter()
            .map(|f| FrameGroupStats::new(f.raw_bytes, f.motion_magnitude))
            .collect();
        Message::FrameBatch {
            frames: frames.len(),
            encoded_bytes: self.config.codec.encode_group(&stats, gap_secs),
        }
    }

    /// Discards a chunk because the breaker was open, crediting the uplink
    /// bytes it would have cost (frame batch + telemetry).
    fn suppress_chunk(&mut self) {
        let gap_secs = 1.0 / self.effective_rate().max(1e-6);
        let would_be_bytes =
            self.encode_chunk(&self.chunk, gap_secs).bytes() + Message::Telemetry.bytes();
        self.rec(Event::UploadSuppressed {
            frames: self.chunk.len() as u32,
            bytes: would_be_bytes,
        });
        self.chunk.clear();
    }

    /// The chunk-upload event: encode + ship the sampled chunk (the cloud
    /// labels it on delivery; the labels pool when they arrive back), and
    /// update the sampling rate.
    fn upload_chunk(&mut self, t: f64) {
        let frames = std::mem::take(&mut self.chunk);
        self.transmit_chunk(t, frames, 1, false);

        // Telemetry and rate control — once per chunk, so the controller
        // reacts within seconds of a scene change.
        self.link.send_uplink(t, Message::Telemetry, &mut self.rng);
        if self.uplink == Uplink::Sampled(Rate::Controller) {
            let alpha = if self.alpha_total == 0 {
                self.config.cloud.controller.alpha_target
            } else {
                self.alpha_hits as f64 / self.alpha_total as f64
            };
            let elapsed = (t - self.last_rate_update).max(1e-6);
            let lambda = (0.35 + self.busy_secs_window / elapsed).clamp(0.0, 1.0);
            let decision = self.cloud.update_rate_detailed(alpha, lambda);
            self.sampling_rate = decision.rate;
            self.rec(Event::RateDecision {
                phi_bar: decision.phi_bar,
                alpha: decision.alpha,
                lambda: decision.lambda,
                lambda_bar: decision.lambda_bar,
                r_phi: decision.r_phi,
                r_alpha: decision.r_alpha,
                r_lambda: decision.r_lambda,
                rate: decision.rate,
            });
            self.last_rate_update = t;
            self.busy_secs_window = 0.0;
            self.alpha_hits = 0;
            self.alpha_total = 0;
        }
    }

    /// A full training batch has pooled: adapt the student wherever the
    /// plan puts its adapter.
    fn adapt(&mut self, t: f64) -> Result<(), SimError> {
        let fresh = std::mem::take(&mut self.pool);
        self.pool_frames = 0;
        let (report, session_secs, cloud_side, student_changed) = match &mut self.adapter {
            Adapter::None => return Ok(()),
            Adapter::Edge {
                trainer,
                session_secs,
            } => {
                let report = trainer.train_session(&mut self.student, &fresh, &mut self.rng)?;
                self.training_until = t + *session_secs;
                self.busy_secs_window += *session_secs;
                (report, *session_secs, false, true)
            }
            Adapter::CloudShadow {
                student,
                trainer,
                session_secs,
                update,
            } => {
                let report = trainer.train_session(student, &fresh, &mut self.rng)?;
                let message = Message::ModelWeights {
                    bytes: AMS_UPDATE_BYTES,
                };
                let delivered = self
                    .link
                    .send_downlink(t, message, &mut self.rng)
                    .delivered();
                if delivered {
                    student.net().export_weights_into(update);
                    self.student
                        .net_mut()
                        .import_weights(update)
                        .map_err(|source| SimError::Tensor {
                            context: "AMS model update import",
                            source,
                        })?;
                }
                (report, *session_secs, true, delivered)
            }
        };
        if student_changed {
            self.student_changed();
        }
        self.rec(Event::AdaptationStep {
            fresh_samples: report.fresh_samples as u32,
            replay_samples: report.replay_samples_used as u32,
            mini_batches: report.mini_batches as u32,
            mean_loss: report.mean_loss,
            first_batch_loss: report.first_batch_loss,
            last_batch_loss: report.last_batch_loss,
            session_secs,
            cloud_side,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_video::presets;

    fn quick_config(strategy: Strategy, frames: u64) -> SimConfig {
        let mut config = SimConfig::quick(presets::kitti(21).with_total_frames(frames));
        config.strategy = strategy;
        config
    }

    fn run_ok(config: &SimConfig) -> SimReport {
        Simulation::run(config).expect("quick config runs cleanly")
    }

    fn run_with_models_ok(
        config: &SimConfig,
        student: StudentDetector,
        teacher: TeacherDetector,
    ) -> SimReport {
        Simulation::run_with_models(config, student, teacher).expect("quick config runs cleanly")
    }

    #[test]
    fn edge_only_uses_no_network() {
        let report = run_ok(&quick_config(Strategy::EdgeOnly, 200));
        assert_eq!(report.uplink_bytes, 0);
        assert_eq!(report.downlink_bytes, 0);
        assert_eq!(report.training_sessions, 0);
        assert_eq!(report.frames, 200);
        assert!((report.avg_fps - 30.0).abs() < 1e-9);
    }

    #[test]
    fn cloud_only_is_bandwidth_hungry_and_accurate() {
        let config = quick_config(Strategy::CloudOnly, 200);
        let (student, teacher) = Simulation::build_models(&config);
        let cloud = run_with_models_ok(&config, student.clone(), teacher.clone());
        let mut edge_cfg = quick_config(Strategy::EdgeOnly, 200);
        edge_cfg.stream = config.stream.clone();
        let edge = run_with_models_ok(&edge_cfg, student, teacher);
        assert!(cloud.uplink_kbps > 50.0 * edge.uplink_kbps.max(1.0));
        assert!(cloud.downlink_kbps > cloud.uplink_kbps * 0.8);
        assert!(cloud.map50 >= edge.map50 - 0.02);
    }

    #[test]
    fn shoggoth_trains_and_bills_bandwidth() {
        let report = run_ok(&quick_config(Strategy::Shoggoth, 900));
        assert!(report.training_sessions >= 1, "no sessions in 30 s");
        assert!(report.uplink_bytes > 0);
        assert!(report.downlink_bytes > 0);
        // Downlink carries only labels: far smaller than the uplink.
        assert!(report.downlink_bytes * 5 < report.uplink_bytes);
        assert!(report.min_fps < 30.0, "training dip should appear");
    }

    #[test]
    fn ams_ships_models_downlink() {
        let config = quick_config(Strategy::Ams, 900);
        let report = run_ok(&config);
        assert!(report.training_sessions >= 1);
        // Model weights dominate the downlink.
        let shoggoth = run_ok(&quick_config(Strategy::Shoggoth, 900));
        assert!(
            report.downlink_bytes > 3 * shoggoth.downlink_bytes,
            "AMS downlink {} should dwarf Shoggoth's {}",
            report.downlink_bytes,
            shoggoth.downlink_bytes
        );
        // AMS never contends with edge inference.
        assert!((report.avg_fps - 30.0).abs() < 1e-9);
    }

    #[test]
    fn simulation_is_deterministic() {
        let config = quick_config(Strategy::Shoggoth, 400);
        let (student, teacher) = Simulation::build_models(&config);
        let a = run_with_models_ok(&config, student.clone(), teacher.clone());
        let b = run_with_models_ok(&config, student, teacher);
        assert_eq!(a.map50, b.map50);
        assert_eq!(a.uplink_bytes, b.uplink_bytes);
        assert_eq!(a.per_frame_map, b.per_frame_map);
    }

    #[test]
    fn fixed_rate_strategies_never_move_the_rate() {
        let report = run_ok(&quick_config(Strategy::FixedRate(0.4), 600));
        assert!((report.final_sampling_rate - 0.4).abs() < 1e-9);
        assert!((report.avg_sampling_rate - 0.4).abs() < 1e-9);
        let prompt = run_ok(&quick_config(Strategy::Prompt, 600));
        assert!((prompt.final_sampling_rate - 2.0).abs() < 1e-9);
    }

    #[test]
    fn higher_fixed_rates_cost_more_uplink() {
        let slow = run_ok(&quick_config(Strategy::FixedRate(0.5), 900));
        let fast = run_ok(&quick_config(Strategy::FixedRate(2.0), 900));
        assert!(
            fast.uplink_bytes > slow.uplink_bytes,
            "fast {} vs slow {}",
            fast.uplink_bytes,
            slow.uplink_bytes
        );
    }

    #[test]
    fn per_frame_map_covers_every_frame() {
        let report = run_ok(&quick_config(Strategy::EdgeOnly, 150));
        assert_eq!(report.per_frame_map.len(), 150);
        assert!(report.per_frame_map.iter().all(|m| (0.0..=1.0).contains(m)));
    }

    /// A recorder that keeps every record and does a fixed amount of
    /// arithmetic per event, so the engine's thread plays frames slower
    /// than the stream's producer makes them: the producer's queue stays
    /// full and it detects ahead on most frames.
    #[derive(Default)]
    struct BusyRecorder {
        records: Vec<Record>,
        churn: u64,
    }

    impl Recorder for BusyRecorder {
        fn record(&mut self, record: Record) {
            let mut x = self.churn ^ record.stamp.frame;
            for _ in 0..40_000 {
                x = std::hint::black_box(x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1));
            }
            self.churn = x;
            self.records.push(record);
        }
    }

    /// One traced run with a busy recorder: its report, its trace and how
    /// its frames got their detections.
    fn busy_run(
        config: &SimConfig,
        (student, teacher): (StudentDetector, TeacherDetector),
    ) -> (SimReport, Vec<Record>, LookAheadStats) {
        let mut recorder = BusyRecorder::default();
        let mut engine =
            Engine::new(config, student, teacher, &mut recorder).expect("valid quick config");
        let stats = engine.play().expect("quick config runs cleanly");
        let report = engine.finish();
        (report, recorder.records, stats)
    }

    #[test]
    fn look_ahead_detections_leave_reports_and_traces_bit_identical() {
        use shoggoth_util::pool::{available_threads, join};
        let models = Simulation::build_models(&quick_config(Strategy::EdgeOnly, 900));
        let mut total = LookAheadStats::default();
        for strategy in [
            Strategy::EdgeOnly,
            Strategy::CloudOnly,
            Strategy::Shoggoth,
            Strategy::Ams,
        ] {
            let config = quick_config(strategy, 900);
            let (report, records, used) = busy_run(&config, models.clone());
            // The same run on a pool thread: inline, no look-ahead.
            let copy = models.clone();
            let ((inline_report, inline_records, inline_used), ()) =
                join(|| busy_run(&config, copy), || ());
            assert_eq!(inline_report, report, "{strategy:?}: reports must match");
            assert!(inline_records == records, "{strategy:?}: traces must match");
            let LookAheadStats {
                used: inline_used,
                stale,
                redone,
                waits,
            } = inline_used;
            assert_eq!((inline_used, stale, redone, waits), (0, 0, 0, 0));
            if strategy == Strategy::Shoggoth || strategy == Strategy::Ams {
                assert!(report.training_sessions >= 1, "{strategy:?} must adapt");
            }
            total.used += used.used;
            total.stale += used.stale;
            total.redone += used.redone;
            total.waits += used.waits;
        }
        // A session-heavy run: Shoggoth on the quick models over a stream
        // long enough for several sessions.
        let config = quick_config(Strategy::Shoggoth, 2_700);
        let (report, records, heavy) = busy_run(&config, models.clone());
        let ((inline_report, inline_records, _), ()) = join(|| busy_run(&config, models), || ());
        assert_eq!(inline_report, report, "session-heavy: reports must match");
        assert!(
            inline_records == records,
            "session-heavy: traces must match"
        );
        assert!(
            report.training_sessions >= 3,
            "{}",
            report.training_sessions
        );
        if available_threads() > 1 {
            // Frames played with the producer's detections, and the producer
            // made lists again after sessions made the first ones stale.
            assert!(total.used > 0, "{total:?}");
            assert!(heavy.used > 0 && heavy.redone > 0, "{heavy:?}");
        } else {
            assert_eq!((total.used, total.stale), (0, 0));
            assert_eq!((heavy.used, heavy.redone), (0, 0));
        }
    }

    #[test]
    fn publishing_the_student_reuses_the_slot_buffer() {
        for strategy in [Strategy::Shoggoth, Strategy::Ams] {
            let config = quick_config(strategy, 2_700);
            let (student, teacher) = Simulation::build_models(&config);
            let mut recorder = NoopRecorder;
            let mut engine =
                Engine::new(&config, student, teacher, &mut recorder).expect("valid quick config");
            let (_look_ahead, published) = engine.look_ahead();
            let slot_buffer = |published: &Published| {
                let latest = lock(&published.latest);
                (
                    latest.weights.as_ptr(),
                    latest.weights.capacity(),
                    latest.version,
                )
            };
            let mut first = None;
            let mut frames = config.stream.build();
            while engine.serving_version < 2 {
                let frame = frames.next().expect("the student changes twice");
                let before = engine.serving_version;
                engine
                    .step(&frame, None)
                    .expect("quick config runs cleanly");
                if engine.serving_version == before {
                    continue;
                }
                let (ptr, capacity, version) = slot_buffer(&published);
                assert_eq!(version, engine.serving_version, "{strategy:?}");
                assert_eq!(
                    published.version.load(Ordering::SeqCst),
                    version,
                    "{strategy:?}"
                );
                match first {
                    None => first = Some((ptr, capacity)),
                    Some(first) => assert_eq!(first, (ptr, capacity), "{strategy:?}"),
                }
                // The published weights classify like the serving student.
                let mut copy = engine.student.clone();
                let latest = lock(&published.latest);
                copy.net_mut()
                    .import_weights(&latest.weights)
                    .expect("same architecture");
                drop(latest);
                let probe = frames.next().expect("frames left");
                assert_eq!(
                    copy.detect(&probe),
                    engine.student.detect(&probe),
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn invalid_controller_config_is_an_error_not_a_panic() {
        let mut config = quick_config(Strategy::Shoggoth, 30);
        config.cloud.controller.lambda_alpha = 0.0;
        assert!(matches!(Simulation::run(&config), Err(SimError::Config(_))));
    }
}
