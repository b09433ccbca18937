//! The experiment result files carry the reports they were built from.
//!
//! `scripts/experiments_md.py` renders EXPERIMENTS.md's measured tables
//! from `target/experiments/*.json`, so every key it reads must be in the
//! document, and every number must be the report's value written with
//! Rust's shortest-roundtrip `Display`.

use shoggoth::fleet::{run_fleet, FleetConfig};
use shoggoth::sim::{SimConfig, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth_bench::experiments::table1::Table1Result;
use shoggoth_video::presets;

#[test]
fn table1_json_matches_its_report() {
    let mut config = SimConfig::quick(presets::kitti(4).with_total_frames(300));
    config.strategy = Strategy::FixedRate(0.5);
    let report = Simulation::run(&config).expect("quick run completes");
    let result = Table1Result {
        frames_per_stream: 300,
        seed: 4,
        reports: vec![report.clone()],
    };
    let json = result.to_json();

    for key in [
        "frames_per_stream",
        "seed",
        "reports",
        "stream_name",
        "strategy",
        "uplink_kbps",
        "downlink_kbps",
        "map50",
    ] {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "missing {key}: {json}"
        );
    }
    assert!(json.starts_with(r#"{"frames_per_stream":300,"seed":4,"reports":[{"#));
    assert!(json.ends_with("}]}"));
    assert!(json.contains(r#""strategy":"Fixed(0.5)""#));
    assert!(json.contains(&format!(r#""stream_name":"{}""#, report.stream_name)));
    for (key, value) in [
        ("map50", report.map50),
        ("uplink_kbps", report.uplink_kbps),
        ("downlink_kbps", report.downlink_kbps),
    ] {
        assert!(value.is_finite());
        assert!(
            json.contains(&format!("\"{key}\":{value},")),
            "{key} not written as {value}"
        );
    }
    // The per-frame series is written in full, one number per frame.
    let series_len = report.per_frame_map.len();
    assert_eq!(series_len, 300);
    let start = json.find(r#""per_frame_map":["#).expect("series present");
    let series = &json[start..];
    let series = &series[series.find('[').expect("open")..=series.find(']').expect("close")];
    assert_eq!(series.matches(',').count(), series_len - 1);
}

#[test]
fn unlimited_fleet_capacity_is_written_as_null() {
    let mut base = SimConfig::quick(presets::kitti(2).with_total_frames(120));
    base.strategy = Strategy::EdgeOnly;
    let report = run_fleet(&FleetConfig::new(base, 1).with_threads(1)).expect("fleet runs");
    assert!(report.supported_devices_per_gpu.is_infinite());
    let json = report.to_json();
    assert!(
        json.contains(r#""supported_devices_per_gpu":null"#),
        "{json}"
    );
    assert!(json.contains(r#""per_device":[{"strategy":"Edge-Only""#));
}
