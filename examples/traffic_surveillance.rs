//! Traffic surveillance: the paper's motivating workload.
//!
//! A UA-DETRAC-like intersection camera rides through day, rain, dusk and
//! night. This example compares Shoggoth against the Edge-Only baseline
//! *per scene*, showing where adaptive online learning earns its keep —
//! exactly the data-drift story of the paper's Figure 1.
//!
//! ```bash
//! cargo run --release --example traffic_surveillance
//! ```

use shoggoth::sim::{SimConfig, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth_metrics::map::{map_at_05, FrameEval};
use shoggoth_models::Detector;
use shoggoth_video::presets;

fn main() {
    let stream = presets::detrac(11).with_total_frames(7200); // 4 minutes

    let mut config = SimConfig::quick(stream.clone());
    config.strategy = Strategy::Shoggoth;
    println!("pre-training models ...");
    let (student, teacher) = Simulation::build_models(&config);

    // Run Shoggoth once through the stream.
    let shoggoth = Simulation::run_with_models(&config, student.clone(), teacher.clone())
        .expect("simulation run failed");

    // For the per-scene breakdown, replay the stream with the frozen
    // (non-adapted) student and score both strategies scene by scene.
    let mut frozen = student;
    let mut scene_names: Vec<String> = Vec::new();
    let mut edge_evals: Vec<Vec<FrameEval>> = Vec::new();
    let mut shoggoth_maps: Vec<Vec<f64>> = Vec::new();
    for frame in stream.build() {
        if frame.scene_index >= scene_names.len() {
            scene_names.push(frame.domain_name.to_string());
            edge_evals.push(Vec::new());
            shoggoth_maps.push(Vec::new());
        }
        let detections = frozen.detect(&frame);
        shoggoth_maps[frame.scene_index].push(shoggoth.per_frame_map[frame.index as usize]);
        edge_evals[frame.scene_index].push(FrameEval {
            detections,
            ground_truth: frame.ground_truth,
        });
    }

    let classes = stream.library.world().num_classes();
    println!("\nscene-by-scene mAP@0.5 (%), Edge-Only vs Shoggoth:");
    println!("{:-<64}", "");
    println!(
        "{:<6} {:<22} {:>12} {:>12}",
        "scene", "domain", "Edge-Only", "Shoggoth"
    );
    println!("{:-<64}", "");
    for (i, name) in scene_names.iter().enumerate() {
        let edge_map = map_at_05(&edge_evals[i], classes) * 100.0;
        let shog_map =
            shoggoth_maps[i].iter().sum::<f64>() / shoggoth_maps[i].len().max(1) as f64 * 100.0;
        let marker = if shog_map > edge_map + 2.0 {
            "  <- adapted"
        } else {
            ""
        };
        println!("{i:<6} {name:<22} {edge_map:>12.1} {shog_map:>12.1}{marker}");
    }
    println!("{:-<64}", "");
    println!(
        "\noverall: Shoggoth mAP {:.1} % using {:.1} Kbps uplink, {} training sessions",
        shoggoth.map50 * 100.0,
        shoggoth.uplink_kbps,
        shoggoth.training_sessions
    );
}
