//! Sampling-rate policies head to head (the paper's Table III story).
//!
//! Runs the same drifting stream under several fixed sampling rates and
//! under the adaptive controller, then prints the bandwidth/accuracy
//! trade-off each policy achieved, plus the adaptive controller's rate
//! trajectory so you can watch it react to scene changes.
//!
//! ```bash
//! cargo run --release --example sampling_policies
//! ```

use shoggoth::controller::{phi_score, ControllerConfig, SamplingRateController};
use shoggoth::sim::{SimConfig, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth_models::Detector;
use shoggoth_video::presets;

fn main() {
    let stream = presets::waymo(17).with_total_frames(5400); // 3 minutes

    let mut base = SimConfig::quick(stream.clone());
    println!("pre-training models ...");
    let (student, teacher) = Simulation::build_models(&base);

    println!("\npolicy comparison on {} :", stream.name);
    println!("{:-<66}", "");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "policy", "up Kbps", "avg IoU", "mAP %", "sessions"
    );
    println!("{:-<66}", "");
    let policies = [
        ("fixed 0.2", Strategy::FixedRate(0.2)),
        ("fixed 0.8", Strategy::FixedRate(0.8)),
        ("fixed 2.0", Strategy::FixedRate(2.0)),
        ("adaptive", Strategy::Shoggoth),
    ];
    for (label, strategy) in policies {
        base.strategy = strategy;
        let report = Simulation::run_with_models(&base, student.clone(), teacher.clone())
            .expect("simulation run failed");
        println!(
            "{:<12} {:>12.1} {:>12.3} {:>12.1} {:>10}",
            label,
            report.uplink_kbps,
            report.average_iou,
            report.map50 * 100.0,
            report.training_sessions
        );
    }
    println!("{:-<66}", "");

    // Show the raw controller reacting to a synthetic φ/α trace: a calm
    // stretch, a scene change, then calm again.
    println!("\ncontroller trajectory on a synthetic calm -> change -> calm trace:");
    let mut ctl =
        SamplingRateController::new(ControllerConfig::paper_defaults()).expect("valid defaults");
    let mut teacher = teacher;
    let mut prev: Option<Vec<shoggoth_models::Detection>> = None;
    let mut shown_step = 0;
    for (i, frame) in stream.build().enumerate() {
        if i % 30 != 0 {
            continue; // observe once per second
        }
        let dets = teacher.detect(&frame);
        if let Some(p) = &prev {
            ctl.observe_phi(phi_score(p, &dets));
        }
        prev = Some(dets);
        if i % 300 == 0 {
            // Update every 10 s with a plausible α.
            let alpha = if frame.domain_name.contains("night") {
                0.5
            } else {
                0.95
            };
            let rate = ctl.update_detailed(alpha, 0.4).rate;
            shown_step += 1;
            println!(
                "  t={:>5.0}s  domain={:<22} phi_bar={:.2}  rate={:.2} fps",
                frame.timestamp,
                frame.domain_name,
                ctl.phi_bar(),
                rate
            );
            if shown_step >= 18 {
                break;
            }
        }
    }
}
