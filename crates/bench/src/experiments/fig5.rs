//! **Figure 5**: CDF of per-frame mAP gain versus Edge-Only, for
//! Cloud-Only, Prompt, AMS and Shoggoth.
//!
//! All strategies replay the *identical* deterministic stream, so the
//! per-frame mAP series are frame-aligned and the gain at frame `k` is
//! exactly `mAP_strategy[k] − mAP_edge_only[k]`.
//!
//! Expected shape: Cloud-Only's curve is right-most; Shoggoth dominates
//! AMS on most frames and even beats Cloud-Only on a minority of frames;
//! Prompt is the weakest adaptive strategy.

use crate::{experiment_frames, experiment_seed, rule, run_strategy, write_json, SharedModels};
use shoggoth::strategy::Strategy;
use shoggoth_util::json::{self, Obj};
use shoggoth_util::stats::EmpiricalCdf;
use shoggoth_video::presets;

/// Serializable result bundle.
#[derive(Debug)]
pub struct Fig5Result {
    /// Frames simulated.
    pub frames: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Per strategy: name, CDF curve of mAP gain (x, P(gain <= x)).
    pub curves: Vec<(String, Vec<(f64, f64)>)>,
    /// Per strategy: fraction of frames with positive gain vs Edge-Only.
    pub fraction_above_zero: Vec<(String, f64)>,
    /// Fraction of frames where Shoggoth's gain exceeds AMS's gain.
    pub shoggoth_beats_ams: f64,
    /// Fraction of frames where Shoggoth's gain meets or exceeds
    /// Cloud-Only's gain.
    pub shoggoth_meets_cloud: f64,
}

impl Fig5Result {
    /// The result as a JSON object; each tuple is an array.
    pub fn to_json(&self) -> String {
        let Self {
            frames,
            seed,
            curves,
            fraction_above_zero,
            shoggoth_beats_ams,
            shoggoth_meets_cloud,
        } = self;
        let curves = curves
            .iter()
            .map(|(name, curve)| json::array([json::text(name), json::pairs(curve)]));
        let fraction_above_zero = fraction_above_zero
            .iter()
            .map(|(name, fraction)| json::array([json::text(name), json::num(*fraction)]));
        Obj::new()
            .int("frames", *frames)
            .int("seed", *seed)
            .raw("curves", &json::array(curves))
            .raw("fraction_above_zero", &json::array(fraction_above_zero))
            .num("shoggoth_beats_ams", *shoggoth_beats_ams)
            .num("shoggoth_meets_cloud", *shoggoth_meets_cloud)
            .finish()
    }
}

/// Runs the Figure 5 experiment.
///
/// # Panics
///
/// Aborts the experiment if a simulation run fails.
pub fn run() -> Fig5Result {
    let frames = experiment_frames();
    let seed = experiment_seed();
    let stream = presets::detrac(seed).with_total_frames(frames);
    eprintln!("[fig5] pre-training models ...");
    let models = SharedModels::build(&stream, seed);

    eprintln!("[fig5] running Edge-Only baseline ...");
    let edge = run_strategy(&stream, Strategy::EdgeOnly, &models, seed);

    let others = [
        Strategy::CloudOnly,
        Strategy::Prompt,
        Strategy::Ams,
        Strategy::Shoggoth,
    ];
    let mut gains: Vec<(String, Vec<f64>)> = Vec::new();
    for strategy in others {
        eprintln!("[fig5] running {strategy} ...");
        let report = run_strategy(&stream, strategy, &models, seed);
        let gain: Vec<f64> = report
            .per_frame_map
            .iter()
            .zip(&edge.per_frame_map)
            .map(|(s, e)| s - e)
            .collect();
        gains.push((strategy.name(), gain));
    }

    println!("Figure 5 — CDF of per-frame mAP gain vs Edge-Only");
    println!("({frames} frames on UA-DETRAC, seed {seed})\n");
    rule(70);
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>12}",
        "Strategy", "P(gain>0)", "median gain", "p90 gain", "mean gain"
    );
    rule(70);

    let mut curves = Vec::new();
    let mut fraction_above_zero = Vec::new();
    for (name, gain) in &gains {
        let cdf = EmpiricalCdf::new(gain);
        let above = cdf.fraction_above(0.0);
        println!(
            "{:<12} {:>13.1}% {:>14.3} {:>14.3} {:>12.3}",
            name,
            above * 100.0,
            shoggoth_util::stats::median(gain),
            shoggoth_util::stats::percentile(gain, 90.0),
            shoggoth_util::stats::mean(gain),
        );
        curves.push((name.clone(), cdf.curve(41)));
        fraction_above_zero.push((name.clone(), above));
    }
    rule(70);

    // Pairwise dominance claims from the paper's prose.
    let find = |name: &str| {
        gains
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, g)| g.clone())
            .expect("strategy was run")
    };
    let shoggoth = find("Shoggoth");
    let ams = find("AMS");
    let cloud = find("Cloud-Only");
    let beats_ams = pairwise_ge(&shoggoth, &ams, true);
    let meets_cloud = pairwise_ge(&shoggoth, &cloud, false);
    println!(
        "\nShoggoth gain > AMS gain on {:.1}% of frames (paper: 73%)",
        beats_ams * 100.0
    );
    println!(
        "Shoggoth gain >= Cloud-Only gain on {:.1}% of frames (paper: ~20%)",
        meets_cloud * 100.0
    );

    let result = Fig5Result {
        frames,
        seed,
        curves,
        fraction_above_zero,
        shoggoth_beats_ams: beats_ams,
        shoggoth_meets_cloud: meets_cloud,
    };
    write_json("fig5", &result.to_json());
    result
}

/// Fraction of frames where `a` exceeds (`strict`) or meets (`!strict`)
/// `b`.
fn pairwise_ge(a: &[f64], b: &[f64], strict: bool) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let count = a
        .iter()
        .zip(b)
        .filter(|(x, y)| if strict { x > y } else { x >= y })
        .count();
    count as f64 / a.len() as f64
}
