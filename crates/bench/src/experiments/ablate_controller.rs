//! **Controller ablation** (design-choice bench, no paper table): sweeps
//! the sampling-rate controller's φ target and the α term to show what
//! each term of Eq. (2) contributes.
//!
//! Rows:
//! * the full controller (paper defaults),
//! * φ-only (α term disabled via `η_α = 0`),
//! * α-only (φ term disabled via `η_r = 0`),
//! * loose / tight φ targets.

use crate::{
    experiment_config, experiment_frames, experiment_seed, rule, run_strategy, write_json,
    SharedModels,
};
use shoggoth::controller::ControllerConfig;
use shoggoth::sim::Simulation;
use shoggoth::strategy::Strategy;
use shoggoth_util::json::{self, Obj};
use shoggoth_video::presets;

/// One ablation row.
#[derive(Debug)]
pub struct ControllerRow {
    /// Variant label.
    pub variant: String,
    /// Measured mAP@0.5.
    pub map50: f64,
    /// Measured uplink Kbps.
    pub uplink_kbps: f64,
    /// Time-averaged sampling rate.
    pub avg_rate: f64,
    /// Training sessions completed.
    pub sessions: usize,
}

impl ControllerRow {
    /// The row as a JSON object.
    pub fn to_json(&self) -> String {
        let Self {
            variant,
            map50,
            uplink_kbps,
            avg_rate,
            sessions,
        } = self;
        Obj::new()
            .text("variant", variant)
            .num("map50", *map50)
            .num("uplink_kbps", *uplink_kbps)
            .num("avg_rate", *avg_rate)
            .int("sessions", *sessions as u64)
            .finish()
    }
}

/// Serializable result bundle.
#[derive(Debug)]
pub struct ControllerResult {
    /// Frames simulated.
    pub frames: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Ablation rows.
    pub rows: Vec<ControllerRow>,
}

impl ControllerResult {
    /// The result as a JSON object.
    pub fn to_json(&self) -> String {
        let Self { frames, seed, rows } = self;
        Obj::new()
            .int("frames", *frames)
            .int("seed", *seed)
            .raw(
                "rows",
                &json::array(rows.iter().map(ControllerRow::to_json)),
            )
            .finish()
    }
}

fn variants() -> Vec<(&'static str, ControllerConfig)> {
    let base = ControllerConfig::paper_defaults();
    vec![
        ("full (paper)", base),
        (
            "phi-only",
            ControllerConfig {
                eta_alpha: 0.0,
                ..base
            },
        ),
        ("alpha-only", ControllerConfig { eta_r: 0.0, ..base }),
        (
            "loose phi target",
            ControllerConfig {
                phi_target: base.phi_target + 0.15,
                ..base
            },
        ),
        (
            "tight phi target",
            ControllerConfig {
                phi_target: (base.phi_target - 0.15).max(0.01),
                ..base
            },
        ),
    ]
}

/// Runs the controller ablation on the UA-DETRAC preset.
///
/// # Panics
///
/// Aborts the experiment if a simulation run fails.
pub fn run() -> ControllerResult {
    let frames = experiment_frames();
    let seed = experiment_seed();
    let stream = presets::detrac(seed).with_total_frames(frames);
    eprintln!("[ablate_controller] pre-training models ...");
    let models = SharedModels::build(&stream, seed);

    println!("Controller ablation — contribution of Eq. (2)'s terms");
    println!("({frames} frames on UA-DETRAC, seed {seed})\n");
    rule(78);
    println!(
        "{:<18} {:>10} {:>14} {:>14} {:>12}",
        "Variant", "mAP (%)", "Up (Kbps)", "avg rate", "sessions"
    );
    rule(78);

    let mut rows = Vec::new();
    for (name, controller) in variants() {
        eprintln!("[ablate_controller] running {name} ...");
        let mut config = experiment_config(&stream, Strategy::Shoggoth, seed);
        config.cloud.controller = controller;
        let report =
            Simulation::run_with_models(&config, models.student.clone(), models.teacher.clone())
                .expect("experiment run failed");
        println!(
            "{:<18} {:>10.1} {:>14.1} {:>14.2} {:>12}",
            name,
            report.map50 * 100.0,
            report.uplink_kbps,
            report.avg_sampling_rate,
            report.training_sessions
        );
        rows.push(ControllerRow {
            variant: name.to_owned(),
            map50: report.map50,
            uplink_kbps: report.uplink_kbps,
            avg_rate: report.avg_sampling_rate,
            sessions: report.training_sessions,
        });
    }
    rule(78);

    // Also show the fixed-rate envelope for context.
    eprintln!("[ablate_controller] running fixed 0.5 fps reference ...");
    let fixed = run_strategy(&stream, Strategy::FixedRate(0.5), &models, seed);
    println!(
        "{:<18} {:>10.1} {:>14.1} {:>14.2} {:>12}",
        "fixed 0.5 (ref)",
        fixed.map50 * 100.0,
        fixed.uplink_kbps,
        fixed.avg_sampling_rate,
        fixed.training_sessions
    );

    let result = ControllerResult { frames, seed, rows };
    write_json("ablate_controller", &result.to_json());
    result
}
