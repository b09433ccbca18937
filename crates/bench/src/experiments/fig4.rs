//! **Figure 4**: average inference FPS per strategy (left), and
//! Shoggoth's FPS over time showing the training dips (right).
//!
//! Expected shape: Edge-Only / AMS / Cloud-Only hold the full 30 fps;
//! Shoggoth and Prompt lose a few fps on average because short training
//! sessions halve the rate while they run.

use crate::{rule, write_json, Sweep};
use shoggoth::sim::SimReport;
use shoggoth::strategy::Strategy;
use shoggoth_util::json::{self, Obj};

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

    /// Figure 4 as a view of finished runs on one stream: every report's
    /// FPS, and the Shoggoth report's FPS series.
    pub fn from_reports(frames: u64, seed: u64, reports: &[SimReport]) -> Self {
        Self {
            frames,
            seed,
            averages: reports
                .iter()
                .map(|report| (report.strategy.clone(), report.avg_fps, report.min_fps))
                .collect(),
            shoggoth_series: reports
                .iter()
                .find(|report| report.strategy == Strategy::Shoggoth.name())
                .map(|report| report.fps_series.clone())
                .unwrap_or_default(),
        }
    }
}

/// Runs the Figure 4 experiment on the Table I reports of `detrac`.
pub fn run(detrac: &Sweep) -> Fig4Result {
    let (frames, seed) = (detrac.stream.total_frames(), detrac.seed);
    let reports = detrac.reports(&Strategy::table_one());
    let result = Fig4Result::from_reports(frames, seed, &reports);

    println!("Figure 4 (left) — average inference FPS per strategy");
    println!("({frames} frames on UA-DETRAC, seed {seed})\n");
    rule(54);
    println!("{:<12} {:>14} {:>14}", "Strategy", "Avg FPS", "Min FPS");
    rule(54);
    for (name, avg_fps, min_fps) in &result.averages {
        println!("{name:<12} {avg_fps:>14.1} {min_fps:>14.1}");
    }
    rule(54);

    println!("\nFigure 4 (right) — Shoggoth FPS over time (first dips shown)");
    println!("(paper: FPS drops from 30 to ~15 while a training session runs)\n");
    let shoggoth_series = &result.shoggoth_series;
    let mut shown = 0;
    let mut in_dip = false;
    for &(t, fps) in shoggoth_series {
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

    write_json("fig4", &result.to_json());
    result
}
