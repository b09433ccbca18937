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

use crate::{rule, write_json, Sweep};
use shoggoth::sim::SimReport;
use shoggoth::strategy::Strategy;
use shoggoth_util::json::{self, Obj};
use shoggoth_util::stats::EmpiricalCdf;

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

/// Per-frame mAP gain over Edge-Only of every other report, for reports
/// in Table I order (Edge-Only first). Every run replays the identical
/// stream, so the series are frame-aligned.
fn gains(reports: &[SimReport]) -> Vec<(String, Vec<f64>)> {
    let Some((edge, others)) = reports.split_first() else {
        return Vec::new();
    };
    others
        .iter()
        .map(|report| {
            let gain = report
                .per_frame_map
                .iter()
                .zip(&edge.per_frame_map)
                .map(|(s, e)| s - e)
                .collect();
            (report.strategy.clone(), gain)
        })
        .collect()
}

impl Fig5Result {
    /// Figure 5 as a view of Table I's runs on one stream, in Table I
    /// order: the gain CDF of every strategy against Edge-Only, and
    /// Shoggoth's frame-wise dominance over AMS and Cloud-Only.
    pub fn from_reports(frames: u64, seed: u64, reports: &[SimReport]) -> Self {
        let gains = gains(reports);
        let gain_of = |strategy: Strategy| {
            gains
                .iter()
                .find(|(name, _)| *name == strategy.name())
                .map_or(&[][..], |(_, gain)| gain)
        };
        let shoggoth = gain_of(Strategy::Shoggoth);
        let (curves, fraction_above_zero) = gains
            .iter()
            .map(|(name, gain)| {
                let cdf = EmpiricalCdf::new(gain);
                (
                    (name.clone(), cdf.curve(41)),
                    (name.clone(), cdf.fraction_above(0.0)),
                )
            })
            .unzip();
        Self {
            frames,
            seed,
            curves,
            fraction_above_zero,
            shoggoth_beats_ams: pairwise_ge(shoggoth, gain_of(Strategy::Ams), true),
            shoggoth_meets_cloud: pairwise_ge(shoggoth, gain_of(Strategy::CloudOnly), false),
        }
    }
}

/// Runs the Figure 5 experiment on the Table I reports of `detrac`.
pub fn run(detrac: &Sweep) -> Fig5Result {
    let (frames, seed) = (detrac.stream.total_frames(), detrac.seed);
    let reports = detrac.reports(&Strategy::table_one());
    let result = Fig5Result::from_reports(frames, seed, &reports);

    println!("Figure 5 — CDF of per-frame mAP gain vs Edge-Only");
    println!("({frames} frames on UA-DETRAC, seed {seed})\n");
    rule(70);
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>12}",
        "Strategy", "P(gain>0)", "median gain", "p90 gain", "mean gain"
    );
    rule(70);
    for ((name, gain), (_, above)) in gains(&reports).iter().zip(&result.fraction_above_zero) {
        println!(
            "{:<12} {:>13.1}% {:>14.3} {:>14.3} {:>12.3}",
            name,
            above * 100.0,
            shoggoth_util::stats::median(gain),
            shoggoth_util::stats::percentile(gain, 90.0),
            shoggoth_util::stats::mean(gain),
        );
    }
    rule(70);

    // Pairwise dominance claims from the paper's prose.
    println!(
        "\nShoggoth gain > AMS gain on {:.1}% of frames (paper: 73%)",
        result.shoggoth_beats_ams * 100.0
    );
    println!(
        "Shoggoth gain >= Cloud-Only gain on {:.1}% of frames (paper: ~20%)",
        result.shoggoth_meets_cloud * 100.0
    );

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
