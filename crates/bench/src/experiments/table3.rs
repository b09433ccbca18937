//! **Table III**: sensitivity to the frame-sampling rate — uplink
//! bandwidth and average IoU at fixed rates 0.1–2.0 fps versus adaptive
//! sampling.
//!
//! Expected shape: IoU rises with the fixed rate up to a sweet spot, then
//! falls (overfitting to a few recent frames); adaptive sampling beats
//! every fixed rate at a mid-range uplink cost.

use crate::{experiment_frames, experiment_seed, rule, run_strategy, write_json, SharedModels};
use shoggoth::strategy::Strategy;
use shoggoth_util::json::{self, Obj};
use shoggoth_video::presets;

/// Paper Table III reference: (rate label, up Kbps, average IoU).
const PAPER: [(&str, f64, f64); 7] = [
    ("0.1", 19.0, 0.483),
    ("0.2", 36.0, 0.524),
    ("0.4", 61.0, 0.556),
    ("0.8", 122.0, 0.623),
    ("1.6", 249.0, 0.612),
    ("2.0", 307.0, 0.597),
    ("Adaptive", 135.0, 0.640),
];

/// One measured sensitivity row.
#[derive(Debug)]
pub struct Table3Row {
    /// Rate label (fps or "Adaptive").
    pub rate: String,
    /// Measured uplink Kbps.
    pub uplink_kbps: f64,
    /// Measured average IoU.
    pub average_iou: f64,
    /// Measured mAP@0.5 (extra context, not in the paper's table).
    pub map50: f64,
}

impl Table3Row {
    /// The row as a JSON object.
    pub fn to_json(&self) -> String {
        let Self {
            rate,
            uplink_kbps,
            average_iou,
            map50,
        } = self;
        Obj::new()
            .text("rate", rate)
            .num("uplink_kbps", *uplink_kbps)
            .num("average_iou", *average_iou)
            .num("map50", *map50)
            .finish()
    }
}

/// Serializable result bundle.
#[derive(Debug)]
pub struct Table3Result {
    /// Frames simulated.
    pub frames: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Rows in Table III order.
    pub rows: Vec<Table3Row>,
}

impl Table3Result {
    /// The result as a JSON object.
    pub fn to_json(&self) -> String {
        let Self { frames, seed, rows } = self;
        Obj::new()
            .int("frames", *frames)
            .int("seed", *seed)
            .raw("rows", &json::array(rows.iter().map(Table3Row::to_json)))
            .finish()
    }
}

/// Runs the Table III sensitivity sweep.
pub fn run() -> Table3Result {
    let frames = experiment_frames();
    let seed = experiment_seed();
    let stream = presets::detrac(seed).with_total_frames(frames);
    eprintln!("[table3] pre-training models ...");
    let models = SharedModels::build(&stream, seed);

    println!("Table III — sensitivity to different sampling rates");
    println!("({frames} frames on UA-DETRAC, seed {seed}; paper values in parentheses)\n");
    rule(76);
    println!(
        "{:<10} {:>22} {:>22} {:>12}",
        "Rate (fps)", "Up BW (Kbps)", "Average IoU", "mAP (%)"
    );
    rule(76);

    let strategies: Vec<(String, Strategy)> = [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]
        .iter()
        .map(|&r| (format!("{r}"), Strategy::FixedRate(r)))
        .chain(std::iter::once(("Adaptive".to_owned(), Strategy::Shoggoth)))
        .collect();

    let mut rows = Vec::new();
    for (i, (label, strategy)) in strategies.into_iter().enumerate() {
        eprintln!("[table3] running rate {label} ...");
        let report = run_strategy(&stream, strategy, &models, seed);
        let (_, p_up, p_iou) = PAPER[i];
        println!(
            "{:<10} {:>11.1} ({:>6.1}) {:>12.3} ({:>5.3}) {:>10.1}",
            label,
            report.uplink_kbps,
            p_up,
            report.average_iou,
            p_iou,
            report.map50 * 100.0,
        );
        rows.push(Table3Row {
            rate: label,
            uplink_kbps: report.uplink_kbps,
            average_iou: report.average_iou,
            map50: report.map50,
        });
    }
    rule(76);

    let result = Table3Result { frames, seed, rows };
    write_json("table3", &result.to_json());
    result
}
