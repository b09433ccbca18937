//! **Table I**: Up/Down bandwidth (Kbps) and mAP@0.5 for the five
//! strategies on the three stream presets.
//!
//! Paper reference rows are printed next to the measured ones. Absolute
//! numbers differ (synthetic substrate), but the orderings and rough
//! factors should match: Cloud-Only wins mAP at enormous bandwidth;
//! Shoggoth lands within a few points of Cloud-Only with the smallest
//! downlink; AMS pays a heavy downlink for similar mAP; Edge-Only is far
//! behind.

use crate::{rule, write_json, Sweep};
use shoggoth::sim::SimReport;
use shoggoth::strategy::Strategy;
use shoggoth_util::json::{self, Obj};
use shoggoth_video::presets;

/// One strategy row of paper Table I: `(up, down, mAP %)`.
type PaperRow = (f64, f64, f64);

/// Paper Table I values: per preset, per strategy rows in the order
/// Edge-Only, Cloud-Only, Prompt, AMS, Shoggoth.
const PAPER: [(&str, [PaperRow; 5]); 3] = [
    (
        "UA-DETRAC",
        [
            (0.0, 0.0, 34.2),
            (3257.0, 3539.0, 58.9),
            (303.0, 22.0, 48.3),
            (151.0, 226.0, 51.6),
            (135.0, 10.0, 53.5),
        ],
    ),
    (
        "KITTI",
        [
            (0.0, 0.0, 56.8),
            (2184.0, 2437.0, 78.0),
            (179.0, 10.0, 71.4),
            (94.0, 203.0, 72.8),
            (91.0, 5.0, 74.7),
        ],
    ),
    (
        "Waymo Open",
        [
            (0.0, 0.0, 47.5),
            (2687.0, 2880.0, 64.7),
            (278.0, 15.0, 61.5),
            (127.0, 207.0, 59.1),
            (112.0, 8.0, 61.9),
        ],
    ),
];

/// Serializable result bundle.
#[derive(Debug)]
pub struct Table1Result {
    /// Frames simulated per stream.
    pub frames_per_stream: u64,
    /// Experiment seed.
    pub seed: u64,
    /// One report per (stream, strategy), stream-major in Table I order.
    pub reports: Vec<SimReport>,
}

impl Table1Result {
    /// The result as a JSON object with the reports nested.
    pub fn to_json(&self) -> String {
        let Self {
            frames_per_stream,
            seed,
            reports,
        } = self;
        Obj::new()
            .int("frames_per_stream", *frames_per_stream)
            .int("seed", *seed)
            .raw(
                "reports",
                &json::array(reports.iter().map(SimReport::to_json)),
            )
            .finish()
    }
}

/// Runs the Table I experiment and returns all reports. The UA-DETRAC
/// rows come from `detrac`; the other presets get a sweep of their own.
pub fn run(detrac: &Sweep) -> Table1Result {
    let (frames, seed) = (detrac.stream.total_frames(), detrac.seed);
    let strategies = Strategy::table_one();
    let mut all_reports = Vec::new();

    println!("Table I — comparison of strategies on three datasets");
    println!("({frames} frames per stream, seed {seed}; paper values in parentheses)\n");

    for (preset_idx, stream) in presets::all(seed).into_iter().enumerate() {
        let stream = stream.with_total_frames(frames);
        let (display_name, paper_rows) = PAPER[preset_idx];
        // Compute first (strategies fan out over worker threads), print the
        // finished rows after — output is identical to the serial order.
        let reports = if stream == detrac.stream {
            detrac.reports(&strategies)
        } else {
            Sweep::new(stream, seed, &strategies).reports(&strategies)
        };

        println!("{display_name}");
        rule(90);
        println!(
            "{:<12} {:>21} {:>21} {:>16}",
            "Strategy", "Up (Kbps)", "Down (Kbps)", "mAP@0.5 (%)"
        );
        rule(90);
        for ((strategy, report), &(p_up, p_down, p_map)) in
            strategies.iter().zip(&reports).zip(paper_rows.iter())
        {
            println!(
                "{:<12} {:>10.1} ({:>7.1}) {:>10.1} ({:>7.1}) {:>8.1} ({:>5.1})",
                strategy.name(),
                report.uplink_kbps,
                p_up,
                report.downlink_kbps,
                p_down,
                report.map50 * 100.0,
                p_map,
            );
        }
        all_reports.extend(reports);
        rule(90);
        println!();
    }

    let result = Table1Result {
        frames_per_stream: frames,
        seed,
        reports: all_reports,
    };
    write_json("table1", &result.to_json());
    result
}
