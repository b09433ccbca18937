//! Golden determinism tests for the parallel experiment runner.
//!
//! The thread pool must be an implementation detail: a fleet analysis or a
//! strategy sweep run on one thread and on many threads has to produce
//! **bit-identical** reports (every f64, every per-frame series). Seeding
//! is fixed per work item before the fan-out and results are merged back
//! in submission order, so any divergence here means a worker leaked state
//! into a neighbor.

use shoggoth::fleet::{run_fleet, FleetConfig, FleetReport};
use shoggoth::sim::SimConfig;
use shoggoth::strategy::Strategy;
use shoggoth_bench::{experiment_config, run_configs, SharedModels};
use shoggoth_video::presets;

fn fleet_report(seed: u64, threads: usize) -> FleetReport {
    let mut base = SimConfig::quick(presets::kitti(seed).with_total_frames(300));
    base.strategy = Strategy::Shoggoth;
    run_fleet(&FleetConfig::new(base, 3).with_threads(threads)).expect("fleet runs cleanly")
}

#[test]
fn fleet_parallel_is_bit_identical_to_serial() {
    for seed in [71u64, 5] {
        let serial = fleet_report(seed, 1);
        let parallel = fleet_report(seed, 4);
        assert_eq!(
            serial, parallel,
            "seed {seed}: parallel fleet diverged from serial"
        );
    }
}

#[test]
fn strategy_sweep_parallel_is_bit_identical_to_serial() {
    for seed in [1u64, 9] {
        let stream = presets::kitti(seed).with_total_frames(300);
        let models = SharedModels::build(&stream, seed);
        let configs: Vec<SimConfig> = [Strategy::Shoggoth, Strategy::EdgeOnly, Strategy::CloudOnly]
            .into_iter()
            .map(|strategy| experiment_config(&stream, strategy, seed))
            .collect();
        let serial = run_configs(&models, configs.clone(), 1);
        let parallel = run_configs(&models, configs, 4);
        assert_eq!(
            serial, parallel,
            "seed {seed}: parallel strategy sweep diverged from serial"
        );
    }
}

#[test]
fn fleet_report_order_is_device_order() {
    // Device seeds are a pure function of the device index; the merged
    // report vector must come back in that index order, not completion
    // order.
    let report = fleet_report(71, 4);
    assert_eq!(report.per_device.len(), 3);
    let expected_seeds: Vec<u64> = (0..3u64).map(|d| 71 + d * 7919).collect();
    // Stream names do not carry the seed, but per-device streams differ;
    // re-running device 0 alone must reproduce per_device[0] exactly.
    let mut base = SimConfig::quick(presets::kitti(71).with_total_frames(300));
    base.strategy = Strategy::Shoggoth;
    let solo = run_fleet(&FleetConfig::new(base, 1).with_threads(1)).expect("fleet runs cleanly");
    assert_eq!(solo.per_device[0], report.per_device[0]);
    assert_eq!(expected_seeds.len(), 3);
}
