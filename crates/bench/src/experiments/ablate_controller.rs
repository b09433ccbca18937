//! **Controller ablation** (design-choice bench, no paper table): sweeps
//! the sampling-rate controller's φ target and the α term to show what
//! each term of Eq. (2) contributes.
//!
//! Rows:
//! * the full controller (paper defaults),
//! * φ-only (α term disabled via `η_α = 0`),
//! * α-only (φ term disabled via `η_r = 0`),
//! * loose / tight φ targets.

use super::{Row, Rows};
use crate::{rule, write_json, Sweep};
use shoggoth::controller::ControllerConfig;
use shoggoth::sim::{SimConfig, SimReport};
use shoggoth::strategy::Strategy;
use shoggoth_util::json::Obj;

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

impl Row for ControllerRow {
    fn to_json(&self) -> String {
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

/// The experiment's rows with the scale they were measured at.
pub type ControllerResult = Rows<ControllerRow>;

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

/// The simulation config of each controller variant on `detrac`, in row
/// order, then the fixed 0.5 fps reference. The full controller is the
/// default one, so it is the sweep's Shoggoth run.
pub fn configs(detrac: &Sweep) -> Vec<SimConfig> {
    let shoggoth = detrac.config(Strategy::Shoggoth);
    variants()
        .into_iter()
        .map(|(_, controller)| {
            let mut config = shoggoth.clone();
            config.cloud.controller = controller;
            config
        })
        .chain(std::iter::once(detrac.config(Strategy::FixedRate(0.5))))
        .collect()
}

/// Prints one ablation row.
fn print_row(name: &str, report: &SimReport) {
    println!(
        "{:<18} {:>10.1} {:>14.1} {:>14.2} {:>12}",
        name,
        report.map50 * 100.0,
        report.uplink_kbps,
        report.avg_sampling_rate,
        report.training_sessions
    );
}

/// Runs the controller ablation on `detrac`.
pub fn run(detrac: &Sweep) -> ControllerResult {
    let (frames, seed) = (detrac.stream.total_frames(), detrac.seed);
    let mut reports = detrac.run(configs(detrac));
    let fixed = reports.pop();

    println!("Controller ablation — contribution of Eq. (2)'s terms");
    println!("({frames} frames on UA-DETRAC, seed {seed})\n");
    rule(78);
    println!(
        "{:<18} {:>10} {:>14} {:>14} {:>12}",
        "Variant", "mAP (%)", "Up (Kbps)", "avg rate", "sessions"
    );
    rule(78);

    let mut rows = Vec::new();
    for ((name, _), report) in variants().into_iter().zip(reports) {
        print_row(name, &report);
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
    if let Some(fixed) = fixed {
        print_row("fixed 0.5 (ref)", &fixed);
    }

    let result = ControllerResult { frames, seed, rows };
    write_json("ablate_controller", &result.to_json());
    result
}
