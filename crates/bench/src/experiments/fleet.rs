//! **Fleet scalability** (paper §IV-B, point 4 — prose claim, no table):
//! "AMS requires more computing resources for training on the cloud, so
//! Shoggoth can support more edge devices when several edge devices share
//! the same GPU server."
//!
//! For each strategy, simulates a small fleet of cameras sharing one
//! V100-class GPU and reports the cloud GPU seconds each device demands
//! (teacher inference for labeling + any cloud-side training) and the
//! number of devices one GPU can sustain.

use crate::{experiment_frames, experiment_seed, rule, write_json};
use shoggoth::fleet::{run_fleet, FleetConfig, FleetReport};
use shoggoth::sim::SimConfig;
use shoggoth::strategy::Strategy;
use shoggoth_util::json::{self, Obj};
use shoggoth_video::presets;

/// Serializable result bundle.
#[derive(Debug)]
pub struct FleetResult {
    /// Frames simulated per device.
    pub frames: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Devices per fleet.
    pub devices: usize,
    /// Per-strategy fleet reports.
    pub fleets: Vec<FleetReport>,
}

impl FleetResult {
    /// The result as a JSON object with the fleet reports nested.
    pub fn to_json(&self) -> String {
        let Self {
            frames,
            seed,
            devices,
            fleets,
        } = self;
        Obj::new()
            .int("frames", *frames)
            .int("seed", *seed)
            .int("devices", *devices as u64)
            .raw(
                "fleets",
                &json::array(fleets.iter().map(FleetReport::to_json)),
            )
            .finish()
    }
}

/// Runs the fleet-scalability analysis.
///
/// # Panics
///
/// Aborts the experiment if a fleet run fails.
pub fn run() -> FleetResult {
    // A fleet multiplies simulation cost; use a third of the usual frames.
    let frames = (experiment_frames() / 3).max(3_000);
    let seed = experiment_seed();
    let devices = 4;

    println!("Fleet scalability — cloud GPU demand per edge device");
    println!("({devices} devices × {frames} frames on UA-DETRAC, seed {seed})\n");

    // Compute every fleet first (each run_fleet fans its devices over
    // worker threads), then print the table from the finished reports.
    let mut fleets = Vec::new();
    for strategy in [
        Strategy::Shoggoth,
        Strategy::Ams,
        Strategy::CloudOnly,
        Strategy::EdgeOnly,
    ] {
        eprintln!("[fleet] running {strategy} fleet ...");
        let mut base = SimConfig::new(presets::detrac(seed).with_total_frames(frames));
        base.strategy = strategy;
        base.student_seed = seed;
        base.teacher_seed = seed.wrapping_add(1);
        let report =
            run_fleet(&FleetConfig::new(base, devices)).expect("fleet experiment run failed");
        fleets.push(report);
    }

    rule(86);
    println!(
        "{:<12} {:>12} {:>16} {:>18} {:>20}",
        "Strategy", "mean mAP %", "GPU s (fleet)", "GPU util/device", "devices per GPU"
    );
    rule(86);
    for report in &fleets {
        let supported = if report.supported_devices_per_gpu.is_finite() {
            format!("{:.0}", report.supported_devices_per_gpu)
        } else {
            "unlimited".to_owned()
        };
        println!(
            "{:<12} {:>12.1} {:>16.1} {:>17.1}% {:>20}",
            report.strategy,
            report.mean_map50 * 100.0,
            report.cloud_gpu_secs,
            report.gpu_utilization_per_device * 100.0,
            supported,
        );
    }
    rule(86);
    println!("\n(paper: Shoggoth supports more devices per GPU than AMS because the");
    println!(" cloud only labels for Shoggoth, while AMS also trains there)");

    let result = FleetResult {
        frames,
        seed,
        devices,
        fleets,
    };
    write_json("fleet", &result.to_json());
    result
}
