//! Telemetry timeline artifacts: one chaos-scenario run per strategy,
//! each exported as a JSONL event trace plus a self-contained HTML/SVG
//! timeline (sampling rate, accuracy, uplink bytes, breaker-state lanes)
//! under `target/experiments/`.
//!
//! ```bash
//! cargo run --release -p shoggoth-bench --bin timeline
//! ```
//!
//! Scale via `SHOGGOTH_FRAMES` (default 2 700 = 90 s at 30 fps, enough to
//! cover the scripted outage storm) and `SHOGGOTH_SEED`.

use shoggoth::sim::{SimConfig, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth::CloudFaultProfile;
use shoggoth_bench::{artifact_slug, env_u64, experiment_seed, export_telemetry, rule};
use shoggoth_net::{FaultProfile, LinkConfig};
use shoggoth_telemetry::RingRecorder;
use shoggoth_video::presets;

/// The scripted outage storm the chaos smoke test uses: two outages,
/// a degradation episode, bursty loss, jitter, and a flaky cloud labeler.
fn chaos_config(strategy: Strategy, frames: u64, seed: u64) -> SimConfig {
    let mut config = SimConfig::quick(presets::kitti(seed).with_total_frames(frames));
    config.strategy = strategy;
    config.link = LinkConfig::cellular().with_fault(FaultProfile::storm());
    config.cloud.faults = CloudFaultProfile::flaky();
    config
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    shoggoth_bench::check_threads();
    // The chaos window is 90 s, so the default is smaller than the
    // 15-minute experiment default.
    let frames = env_u64("SHOGGOTH_FRAMES", 2_700);
    let seed = experiment_seed().wrapping_add(28); // distinct stream from table runs
    let strategies = [
        Strategy::Shoggoth,
        Strategy::Prompt,
        Strategy::Ams,
        Strategy::FixedRate(0.5),
    ];

    println!(
        "telemetry timelines: {} strategies x {} frames through the outage storm\n",
        strategies.len(),
        frames
    );
    let models = Simulation::build_models(&chaos_config(Strategy::Shoggoth, frames, seed));

    for strategy in strategies {
        let config = chaos_config(strategy, frames, seed);
        let mut recorder = RingRecorder::default();
        let report =
            Simulation::run_traced(&config, models.0.clone(), models.1.clone(), &mut recorder)?;
        let name = format!("telemetry_{}", artifact_slug(&report.strategy));
        let title = format!(
            "{} through the outage storm ({} frames)",
            report.strategy, frames
        );
        let (jsonl, html) = export_telemetry(&name, &title, &recorder.records());
        rule(72);
        println!("{report}");
        println!("  artifacts  {} / {}", jsonl.display(), html.display());
    }
    rule(72);
    println!("\nOpen any of the .html timelines in a browser: four lanes show the");
    println!("sampling rate, per-frame accuracy, cumulative uplink, and breaker");
    println!("state, with adaptation and timeout markers on the breaker band.");
    Ok(())
}
