//! **Table III**: sensitivity to the frame-sampling rate — uplink
//! bandwidth and average IoU at fixed rates 0.1–2.0 fps versus adaptive
//! sampling.
//!
//! Expected shape: IoU rises with the fixed rate up to a sweet spot, then
//! falls (overfitting to a few recent frames); adaptive sampling beats
//! every fixed rate at a mid-range uplink cost.

use super::{Row, Rows};
use crate::{rule, write_json, Sweep};
use shoggoth::sim::SimConfig;
use shoggoth::strategy::Strategy;
use shoggoth_util::json::Obj;

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

impl Row for Table3Row {
    fn to_json(&self) -> String {
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

/// The experiment's rows with the scale they were measured at.
pub type Table3Result = Rows<Table3Row>;

/// The Table III rows in order: each fixed rate, then adaptive sampling
/// (Shoggoth itself).
fn rates() -> Vec<(String, Strategy)> {
    [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]
        .iter()
        .map(|&r| (format!("{r}"), Strategy::FixedRate(r)))
        .chain(std::iter::once(("Adaptive".to_owned(), Strategy::Shoggoth)))
        .collect()
}

/// The simulation config of each Table III row on `detrac`, in table
/// order. The adaptive row is the sweep's Shoggoth run.
pub fn configs(detrac: &Sweep) -> Vec<SimConfig> {
    rates()
        .into_iter()
        .map(|(_, strategy)| detrac.config(strategy))
        .collect()
}

/// Runs the Table III sensitivity sweep on `detrac`.
pub fn run(detrac: &Sweep) -> Table3Result {
    let (frames, seed) = (detrac.stream.total_frames(), detrac.seed);
    let reports = detrac.run(configs(detrac));

    println!("Table III — sensitivity to different sampling rates");
    println!("({frames} frames on UA-DETRAC, seed {seed}; paper values in parentheses)\n");
    rule(76);
    println!(
        "{:<10} {:>22} {:>22} {:>12}",
        "Rate (fps)", "Up BW (Kbps)", "Average IoU", "mAP (%)"
    );
    rule(76);

    let mut rows = Vec::new();
    for (((label, _), report), (_, p_up, p_iou)) in rates().into_iter().zip(reports).zip(PAPER) {
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
