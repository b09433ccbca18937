//! Drive a KITTI stream through a scripted outage storm and watch the
//! edge's resilience layer manage the failures.
//!
//! The schedule stacks every fault the link model supports: a long
//! mid-run outage, a second short one, a bandwidth-degradation episode,
//! bursty Gilbert–Elliott loss, and latency jitter — plus a flaky cloud
//! labeling service. The run is fully deterministic (seeded RNG), which
//! is also why CI uses it as the chaos smoke test.
//!
//! ```bash
//! cargo run --release --example unreliable_network
//! ```

use shoggoth::resilience::ResilienceConfig;
use shoggoth::sim::{SimConfig, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth::CloudFaultProfile;
use shoggoth_net::{FaultProfile, LinkConfig};
use shoggoth_telemetry::{render_timeline, to_jsonl, RingRecorder};
use shoggoth_video::presets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = SimConfig::quick(presets::kitti(29).with_total_frames(2700));
    config.strategy = Strategy::Shoggoth;
    config.link = LinkConfig::cellular().with_fault(FaultProfile::storm());
    config.cloud.faults = CloudFaultProfile::flaky();

    println!("90 s KITTI run through an outage storm (pre-training models) ...\n");
    let (student, teacher) = Simulation::build_models(&config);
    let mut recorder = RingRecorder::default();
    let resilient =
        Simulation::run_traced(&config, student.clone(), teacher.clone(), &mut recorder)?;

    // The same storm without the resilience layer: fire-and-forget.
    let mut naive_config = config.clone();
    naive_config.resilience = ResilienceConfig::disabled();
    let naive = Simulation::run_with_models(&naive_config, student, teacher)?;

    let r = &resilient.resilience;
    println!("resilience counters");
    println!("{:-<58}", "");
    println!("  upload timeouts        {:>8}", r.upload_timeouts);
    println!("  retransmits            {:>8}", r.retransmits);
    println!("  retries dropped        {:>8}", r.retries_dropped);
    println!("  breaker opens          {:>8}", r.breaker_opens);
    println!("  breaker half-opens     {:>8}", r.breaker_half_opens);
    println!("  breaker closes         {:>8}", r.breaker_closes);
    println!("  probe uploads          {:>8}", r.probe_uploads);
    println!("  suppressed uploads     {:>8}", r.suppressed_uploads);
    println!("  suppressed bytes       {:>8}", r.suppressed_bytes);
    println!("  cloud label drops      {:>8}", r.cloud_label_drops);
    println!("  slow label batches     {:>8}", r.slow_label_batches);
    println!("  messages lost          {:>8}", r.messages_lost);
    println!("    of which outage      {:>8}", r.outage_drops);
    println!(
        "  breaker spans (s)      closed {:.1} / open {:.1} / half-open {:.1}",
        r.closed_secs, r.open_secs, r.half_open_secs
    );
    println!("{:-<58}", "");
    println!(
        "\n{:<18} {:>12} {:>12} {:>10}",
        "", "uplink KB", "sessions", "mAP@0.5"
    );
    for (name, report) in [("resilient", &resilient), ("fire-and-forget", &naive)] {
        println!(
            "{:<18} {:>12.1} {:>12} {:>9.1}%",
            name,
            report.uplink_bytes as f64 / 1024.0,
            report.training_sessions,
            report.map50 * 100.0
        );
    }
    println!(
        "\nThe breaker spent {:.0} s suspended instead of transmitting into a",
        r.open_secs
    );
    println!("dead link, then recovered by probe and retransmitted the queued");
    println!("chunks — the extra uplink over fire-and-forget is the price of");
    println!("actually getting labels (and training sessions) through the storm.");

    // Export the traced run as telemetry artifacts: one stamped event per
    // JSONL line, and a self-contained SVG timeline of the whole storm.
    let records = recorder.records();
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    let jsonl = dir.join("telemetry_unreliable_network.jsonl");
    std::fs::write(&jsonl, to_jsonl(&records))?;
    let html = dir.join("telemetry_unreliable_network.html");
    std::fs::write(
        &html,
        render_timeline("Shoggoth through the outage storm", &records),
    )?;
    println!("\n{resilient}");
    println!(
        "\n[telemetry exported to {} and {}]",
        jsonl.display(),
        html.display()
    );
    Ok(())
}
