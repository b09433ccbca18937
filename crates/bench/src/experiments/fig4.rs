//! **Figure 4**: average inference FPS per strategy (left), and
//! Shoggoth's FPS over time showing the training dips (right).
//!
//! Expected shape: Edge-Only / AMS / Cloud-Only hold the full 30 fps;
//! Shoggoth and Prompt lose a few fps on average because short training
//! sessions halve the rate while they run.

use crate::{experiment_frames, experiment_seed, rule, run_strategy, write_json, SharedModels};
use shoggoth::strategy::Strategy;
use shoggoth_util::json::{self, Obj};
use shoggoth_video::presets;

/// Serializable result bundle.
#[derive(Debug)]
pub struct Fig4Result {
    /// Frames simulated.
    pub frames: u64,
    /// Experiment seed.
    pub seed: u64,
    /// (strategy, average fps, minimum fps).
    pub averages: Vec<(String, f64, f64)>,
    /// Shoggoth's per-second FPS series (time s, fps).
    pub shoggoth_series: Vec<(f64, f64)>,
}

impl Fig4Result {
    /// The result as a JSON object; each tuple is an array.
    pub fn to_json(&self) -> String {
        let Self {
            frames,
            seed,
            averages,
            shoggoth_series,
        } = self;
        let averages = averages.iter().map(|(name, avg, min)| {
            json::array([json::text(name), json::num(*avg), json::num(*min)])
        });
        Obj::new()
            .int("frames", *frames)
            .int("seed", *seed)
            .raw("averages", &json::array(averages))
            .raw("shoggoth_series", &json::pairs(shoggoth_series))
            .finish()
    }
}

/// Runs the Figure 4 experiment.
pub fn run() -> Fig4Result {
    let frames = experiment_frames();
    let seed = experiment_seed();
    let stream = presets::detrac(seed).with_total_frames(frames);
    eprintln!("[fig4] pre-training models ...");
    let models = SharedModels::build(&stream, seed);

    println!("Figure 4 (left) — average inference FPS per strategy");
    println!("({frames} frames on UA-DETRAC, seed {seed})\n");
    rule(54);
    println!("{:<12} {:>14} {:>14}", "Strategy", "Avg FPS", "Min FPS");
    rule(54);

    let mut averages = Vec::new();
    let mut shoggoth_series = Vec::new();
    for strategy in Strategy::table_one() {
        eprintln!("[fig4] running {strategy} ...");
        let report = run_strategy(&stream, strategy, &models, seed);
        println!(
            "{:<12} {:>14.1} {:>14.1}",
            strategy.name(),
            report.avg_fps,
            report.min_fps
        );
        if strategy == Strategy::Shoggoth {
            shoggoth_series = report.fps_series.clone();
        }
        averages.push((strategy.name(), report.avg_fps, report.min_fps));
    }
    rule(54);

    println!("\nFigure 4 (right) — Shoggoth FPS over time (first dips shown)");
    println!("(paper: FPS drops from 30 to ~15 while a training session runs)\n");
    let mut shown = 0;
    let mut in_dip = false;
    for &(t, fps) in &shoggoth_series {
        let dipping = fps < 29.0;
        if dipping != in_dip {
            println!("  t = {t:7.1} s   fps -> {fps:.1}");
            in_dip = dipping;
            shown += 1;
            if shown >= 12 {
                println!("  ... ({} series points total)", shoggoth_series.len());
                break;
            }
        }
    }
    if shown == 0 {
        println!("  (no training dips occurred — stream too short for a session)");
    }

    let result = Fig4Result {
        frames,
        seed,
        averages,
        shoggoth_series,
    };
    write_json("fig4", &result.to_json());
    result
}
