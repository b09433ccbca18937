//! **Replay-capacity ablation** (design-choice bench, no paper table):
//! sweeps the replay memory size around the paper's 5× ratio between
//! replay and fresh images, showing the trade-off between forgetting
//! protection (small memories) and staleness (the aging effect of very
//! large, rarely-refreshed memories).

use crate::{
    experiment_config, experiment_frames, experiment_seed, rule, write_json, SharedModels,
};
use shoggoth::sim::Simulation;
use shoggoth::strategy::Strategy;
use shoggoth::trainer::TrainerConfig;
use shoggoth_util::json::{self, Obj};
use shoggoth_video::presets;

/// One capacity row.
#[derive(Debug)]
pub struct ReplayRow {
    /// Replay memory capacity in samples.
    pub capacity: usize,
    /// Measured mAP@0.5.
    pub map50: f64,
    /// Measured average IoU.
    pub average_iou: f64,
}

impl ReplayRow {
    /// The row as a JSON object.
    pub fn to_json(&self) -> String {
        let Self {
            capacity,
            map50,
            average_iou,
        } = self;
        Obj::new()
            .int("capacity", *capacity as u64)
            .num("map50", *map50)
            .num("average_iou", *average_iou)
            .finish()
    }
}

/// Serializable result bundle.
#[derive(Debug)]
pub struct ReplayResult {
    /// Frames simulated.
    pub frames: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Capacity sweep rows.
    pub rows: Vec<ReplayRow>,
}

impl ReplayResult {
    /// The result as a JSON object.
    pub fn to_json(&self) -> String {
        let Self { frames, seed, rows } = self;
        Obj::new()
            .int("frames", *frames)
            .int("seed", *seed)
            .raw("rows", &json::array(rows.iter().map(ReplayRow::to_json)))
            .finish()
    }
}

/// Runs the replay-capacity sweep on the UA-DETRAC preset.
///
/// # Panics
///
/// Aborts the experiment if a simulation run fails.
pub fn run() -> ReplayResult {
    let frames = experiment_frames();
    let seed = experiment_seed();
    let stream = presets::detrac(seed).with_total_frames(frames);
    eprintln!("[ablate_replay] pre-training models ...");
    let models = SharedModels::build(&stream, seed);

    println!("Replay-capacity ablation (paper default ≈ 3000 samples, 5× fresh)");
    println!("({frames} frames on UA-DETRAC, seed {seed})\n");
    rule(48);
    println!("{:<12} {:>12} {:>14}", "Capacity", "mAP (%)", "avg IoU");
    rule(48);

    let mut rows = Vec::new();
    for capacity in [1usize, 300, 1000, 3000, 9000, 30000] {
        eprintln!("[ablate_replay] capacity {capacity} ...");
        let mut config = experiment_config(&stream, Strategy::Shoggoth, seed);
        config.trainer = TrainerConfig {
            replay_capacity: capacity,
            ..TrainerConfig::paper_scaled()
        };
        let report =
            Simulation::run_with_models(&config, models.student.clone(), models.teacher.clone())
                .expect("experiment run failed");
        println!(
            "{:<12} {:>12.1} {:>14.3}",
            capacity,
            report.map50 * 100.0,
            report.average_iou
        );
        rows.push(ReplayRow {
            capacity,
            map50: report.map50,
            average_iou: report.average_iou,
        });
    }
    rule(48);

    let result = ReplayResult { frames, seed, rows };
    write_json("ablate_replay", &result.to_json());
    result
}
