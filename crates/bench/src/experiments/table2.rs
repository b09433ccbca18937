//! **Table II**: ablation of the adaptive-training design — mAP and
//! training time (forward / backward / overall seconds) for the replay
//! placement and freeze variants.
//!
//! mAP comes from genuinely running each variant through the UA-DETRAC
//! stream; training time comes from the Jetson-TX2 FLOP model at the
//! paper's session scale (300 fresh / 1500 replay images, 8 epochs).

use super::{Row, Rows};
use crate::{rule, write_json, Sweep};
use shoggoth::sim::SimConfig;
use shoggoth::strategy::Strategy;
use shoggoth::trainer::{FreezePolicy, ReplayPlacement, TrainerConfig};
use shoggoth_compute::JETSON_TX2;
use shoggoth_util::json::Obj;

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

impl Row for Table2Row {
    fn to_json(&self) -> String {
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

/// The experiment's rows with the scale they were measured at.
pub type Table2Result = Rows<Table2Row>;

/// The paper's training batch, which the time columns are priced at.
const PAPER_BATCH_FRAMES: usize = 300;

/// The trainer config of each Table II variant, in table order.
fn variants() -> Vec<(&'static str, TrainerConfig)> {
    let base = TrainerConfig::paper_scaled();
    vec![
        ("Ours (Baseline)", base.clone()),
        (
            "Input",
            TrainerConfig {
                placement: ReplayPlacement::Input,
                ..base.clone()
            },
        ),
        (
            "Completely Freezing",
            TrainerConfig {
                freeze: FreezePolicy::CompletelyFrozen,
                ..base.clone()
            },
        ),
        (
            // The conv5_4 analog on the latent student: replay before the
            // third hidden block instead of at the penultimate layer.
            "Conv5_4",
            TrainerConfig {
                placement: ReplayPlacement::Layer(7),
                ..base.clone()
            },
        ),
        (
            "No Replay Memory",
            TrainerConfig {
                replay_capacity: 1,
                ..base
            },
        ),
    ]
}

/// The simulation config of each Table II variant on `detrac`, in table
/// order. The baseline's trainer is the default one, so it is the sweep's
/// Shoggoth run.
pub fn configs(detrac: &Sweep) -> Vec<SimConfig> {
    variants()
        .into_iter()
        .map(|(_, trainer)| SimConfig {
            trainer,
            ..detrac.config(Strategy::Shoggoth)
        })
        .collect()
}

/// Runs the Table II ablation on `detrac`.
pub fn run(detrac: &Sweep) -> Table2Result {
    let (frames, seed) = (detrac.stream.total_frames(), detrac.seed);
    let reports = detrac.run(configs(detrac));

    println!("Table II — mAP and training time of adaptive-training variants");
    println!("({frames} frames on UA-DETRAC, seed {seed}; paper values in parentheses)\n");
    rule(100);
    println!(
        "{:<22} {:>16} {:>18} {:>18} {:>18}",
        "Method", "mAP (%)", "Forward (s)", "Backward (s)", "Overall (s)"
    );
    rule(100);

    let mut rows = Vec::new();
    for (((name, trainer), report), (_, p_map, p_fwd, p_bwd, p_all)) in
        variants().into_iter().zip(reports).zip(PAPER)
    {
        let time = TrainerConfig {
            batch_frames: PAPER_BATCH_FRAMES,
            ..trainer
        }
        .session_time(&JETSON_TX2);
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
