//! **Table II**: ablation of the adaptive-training design — mAP and
//! training time (forward / backward / overall seconds) for the replay
//! placement and freeze variants.
//!
//! mAP comes from genuinely running each variant through the UA-DETRAC
//! stream; training time comes from the Jetson-TX2 FLOP model at the
//! paper's session scale (300 fresh / 1500 replay images, 8 epochs).

use crate::{
    experiment_config, experiment_frames, experiment_seed, rule, write_json, SharedModels,
};
use shoggoth::sim::Simulation;
use shoggoth::strategy::Strategy;
use shoggoth::trainer::{FreezePolicy, ReplayPlacement, TrainerConfig};
use shoggoth_compute::training::{training_time, TrainingPlan};
use shoggoth_compute::{jetson_tx2, yolov4_resnet18};
use shoggoth_util::json::{self, Obj};
use shoggoth_video::presets;

/// Paper Table II reference: (method, mAP %, forward s, backward s,
/// overall s).
const PAPER: [(&str, f64, f64, f64, f64); 5] = [
    ("Ours (Baseline)", 53.5, 17.8, 0.8, 18.6),
    ("Input", 49.6, 536.2, 31.6, 567.8),
    ("Completely Freezing", 50.7, 17.8, 0.7, 18.5),
    ("Conv5_4", 52.3, 20.2, 5.8, 26.0),
    ("No Replay Memory", 45.6, 95.7, 6.2, 101.9),
];

/// One measured ablation row.
#[derive(Debug)]
pub struct Table2Row {
    /// Variant name.
    pub method: String,
    /// Measured mAP@0.5 (fraction).
    pub map50: f64,
    /// Modeled forward seconds per paper-scale session.
    pub forward_secs: f64,
    /// Modeled backward seconds per paper-scale session.
    pub backward_secs: f64,
    /// Modeled overall seconds.
    pub overall_secs: f64,
}

impl Table2Row {
    /// The row as a JSON object.
    pub fn to_json(&self) -> String {
        let Self {
            method,
            map50,
            forward_secs,
            backward_secs,
            overall_secs,
        } = self;
        Obj::new()
            .text("method", method)
            .num("map50", *map50)
            .num("forward_secs", *forward_secs)
            .num("backward_secs", *backward_secs)
            .num("overall_secs", *overall_secs)
            .finish()
    }
}

/// Serializable result bundle.
#[derive(Debug)]
pub struct Table2Result {
    /// Frames simulated.
    pub frames: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Measured rows in Table II order.
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// The result as a JSON object.
    pub fn to_json(&self) -> String {
        let Self { frames, seed, rows } = self;
        Obj::new()
            .int("frames", *frames)
            .int("seed", *seed)
            .raw("rows", &json::array(rows.iter().map(Table2Row::to_json)))
            .finish()
    }
}

/// Builds the trainer-config and wall-clock plan for each Table II variant.
fn variants() -> Vec<(&'static str, TrainerConfig, TrainingPlan)> {
    let stack = yolov4_resnet18();
    let base = TrainerConfig::paper_scaled();
    vec![
        (
            "Ours (Baseline)",
            base.clone(),
            TrainingPlan::paper_defaults(&stack),
        ),
        (
            "Input",
            TrainerConfig {
                placement: ReplayPlacement::Input,
                ..base.clone()
            },
            TrainingPlan::input_replay(&stack),
        ),
        (
            "Completely Freezing",
            TrainerConfig {
                freeze: FreezePolicy::CompletelyFrozen,
                ..base.clone()
            },
            TrainingPlan::completely_frozen(&stack),
        ),
        (
            // The conv5_4 analog on the latent student: replay before the
            // third hidden block instead of at the penultimate layer.
            "Conv5_4",
            TrainerConfig {
                placement: ReplayPlacement::Layer(7),
                ..base.clone()
            },
            TrainingPlan::conv5_4(&stack),
        ),
        (
            "No Replay Memory",
            TrainerConfig {
                replay_capacity: 1,
                ..base
            },
            TrainingPlan::no_replay(&stack),
        ),
    ]
}

/// Runs the Table II ablation.
///
/// # Panics
///
/// Aborts the experiment if a simulation run fails.
pub fn run() -> Table2Result {
    let frames = experiment_frames();
    let seed = experiment_seed();
    let stack = yolov4_resnet18();
    let device = jetson_tx2();
    let stream = presets::detrac(seed).with_total_frames(frames);
    eprintln!("[table2] pre-training models ...");
    let models = SharedModels::build(&stream, seed);

    println!("Table II — mAP and training time of adaptive-training variants");
    println!("({frames} frames on UA-DETRAC, seed {seed}; paper values in parentheses)\n");
    rule(100);
    println!(
        "{:<22} {:>16} {:>18} {:>18} {:>18}",
        "Method", "mAP (%)", "Forward (s)", "Backward (s)", "Overall (s)"
    );
    rule(100);

    let mut rows = Vec::new();
    for (i, (name, trainer_cfg, plan)) in variants().into_iter().enumerate() {
        eprintln!("[table2] running variant {name} ...");
        let mut config = experiment_config(&stream, Strategy::Shoggoth, seed);
        config.trainer = trainer_cfg;
        let report =
            Simulation::run_with_models(&config, models.student.clone(), models.teacher.clone())
                .expect("experiment run failed");

        let time = training_time(&stack, &plan, &device);
        let (_, p_map, p_fwd, p_bwd, p_all) = PAPER[i];
        println!(
            "{:<22} {:>7.1} ({:>5.1}) {:>9.1} ({:>6.1}) {:>9.1} ({:>6.1}) {:>9.1} ({:>6.1})",
            name,
            report.map50 * 100.0,
            p_map,
            time.forward_secs,
            p_fwd,
            time.backward_secs,
            p_bwd,
            time.total_secs(),
            p_all,
        );
        rows.push(Table2Row {
            method: name.to_owned(),
            map50: report.map50,
            forward_secs: time.forward_secs,
            backward_secs: time.backward_secs,
            overall_secs: time.total_secs(),
        });
    }
    rule(100);

    let result = Table2Result { frames, seed, rows };
    write_json("table2", &result.to_json());
    result
}

/// Convenience: run a single variant's wall-clock model (used by tests).
pub fn wallclock_of(variant: &str) -> Option<f64> {
    let stack = yolov4_resnet18();
    let device = jetson_tx2();
    variants()
        .into_iter()
        .find(|(name, _, _)| *name == variant)
        .map(|(_, _, plan)| training_time(&stack, &plan, &device).total_secs())
}
