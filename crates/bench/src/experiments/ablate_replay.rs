//! **Replay-capacity ablation** (design-choice bench, no paper table):
//! sweeps the replay memory size around the paper's 5× ratio between
//! replay and fresh images, showing the trade-off between forgetting
//! protection (small memories) and staleness (the aging effect of very
//! large, rarely-refreshed memories).

use super::{Row, Rows};
use crate::{rule, write_json, Sweep};
use shoggoth::sim::SimConfig;
use shoggoth::strategy::Strategy;
use shoggoth::trainer::TrainerConfig;
use shoggoth_util::json::Obj;

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

impl Row for ReplayRow {
    fn to_json(&self) -> String {
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

/// The experiment's rows with the scale they were measured at.
pub type ReplayResult = Rows<ReplayRow>;

/// Replay capacities swept, in row order.
const CAPACITIES: [usize; 6] = [1, 300, 1000, 3000, 9000, 30000];

/// The simulation config of each capacity on `detrac`, in row order. The
/// default trainer's capacity is 3000, so that row is the sweep's
/// Shoggoth run.
pub fn configs(detrac: &Sweep) -> Vec<SimConfig> {
    CAPACITIES
        .into_iter()
        .map(|replay_capacity| SimConfig {
            trainer: TrainerConfig {
                replay_capacity,
                ..TrainerConfig::paper_scaled()
            },
            ..detrac.config(Strategy::Shoggoth)
        })
        .collect()
}

/// Runs the replay-capacity sweep on `detrac`.
pub fn run(detrac: &Sweep) -> ReplayResult {
    let (frames, seed) = (detrac.stream.total_frames(), detrac.seed);
    let reports = detrac.run(configs(detrac));

    println!("Replay-capacity ablation (paper default ≈ 3000 samples, 5× fresh)");
    println!("({frames} frames on UA-DETRAC, seed {seed})\n");
    rule(48);
    println!("{:<12} {:>12} {:>14}", "Capacity", "mAP (%)", "avg IoU");
    rule(48);

    let mut rows = Vec::new();
    for (capacity, report) in CAPACITIES.into_iter().zip(reports) {
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
