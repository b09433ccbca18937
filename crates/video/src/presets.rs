//! Stream presets mirroring the paper's three benchmarks.
//!
//! Each preset builds a [`StreamConfig`] whose class count, drift severity
//! and scene tempo echo the corresponding dataset:
//!
//! * [`detrac`] — UA-DETRAC-like: 4 vehicle classes, dense urban traffic,
//!   strong weather/illumination drift (hardest; paper Edge-Only mAP 34.2).
//! * [`kitti`] — KITTI-like (Car only): a single class, daytime driving,
//!   mild drift (easiest; paper Edge-Only mAP 56.8).
//! * [`waymo`] — Waymo-Open-like: 3 classes, mixed day/night suburban
//!   driving, intermediate drift (paper Edge-Only mAP 47.5).
//!
//! Convention: **domain index 0 is the source domain** (severity 0.0) on
//! which students are pre-trained; later scenes drift away from it and
//! periodically return.

use crate::domain::{DomainLibrary, Illumination, Weather};
use crate::stream::{SceneSpec, StreamConfig};
use crate::world::WorldConfig;

/// Default scene length in frames (20 s at 30 fps).
const SCENE_FRAMES: u64 = 600;

/// UA-DETRAC-like stream: 4 vehicle classes, heavy drift, dense traffic.
///
/// # Examples
///
/// ```
/// let config = shoggoth_video::presets::detrac(1);
/// assert_eq!(config.name, "ua-detrac");
/// assert!(config.total_frames() > 5_000);
/// ```
pub fn detrac(seed: u64) -> StreamConfig {
    let mut library = DomainLibrary::new(WorldConfig::new(4, 32, seed ^ 0xD37A));
    // Class mixes: car, bus, van, truck. Night thins out everything but
    // cars; rain shifts toward heavy vehicles (Fig. 1(c) style shift).
    library.generate(
        "day-sunny",
        Illumination::Day,
        Weather::Sunny,
        0.0,
        vec![8.0, 1.5, 2.0, 1.0],
    );
    library.generate(
        "day-cloudy",
        Illumination::Day,
        Weather::Cloudy,
        0.35,
        vec![7.0, 2.0, 2.0, 1.5],
    );
    library.generate(
        "day-rainy",
        Illumination::Day,
        Weather::Rainy,
        0.6,
        vec![5.0, 2.5, 1.5, 2.5],
    );
    library.generate(
        "dusk",
        Illumination::Dusk,
        Weather::Cloudy,
        0.5,
        vec![6.0, 1.0, 1.5, 1.0],
    );
    library.generate(
        "night",
        Illumination::Night,
        Weather::Sunny,
        0.85,
        vec![6.0, 0.5, 0.5, 0.4],
    );
    library.generate(
        "night-rainy",
        Illumination::Night,
        Weather::Rainy,
        1.0,
        vec![5.0, 0.4, 0.3, 0.3],
    );
    let scenes = vec![
        SceneSpec::new(0, SCENE_FRAMES),
        SceneSpec::new(1, SCENE_FRAMES),
        SceneSpec::new(2, SCENE_FRAMES),
        SceneSpec::new(1, SCENE_FRAMES / 2),
        SceneSpec::new(3, SCENE_FRAMES),
        SceneSpec::new(4, SCENE_FRAMES),
        SceneSpec::new(5, SCENE_FRAMES),
        SceneSpec::new(4, SCENE_FRAMES / 2),
        SceneSpec::new(3, SCENE_FRAMES / 2),
        SceneSpec::new(0, SCENE_FRAMES),
        SceneSpec::new(2, SCENE_FRAMES),
        SceneSpec::new(5, SCENE_FRAMES),
        SceneSpec::new(1, SCENE_FRAMES),
        SceneSpec::new(4, SCENE_FRAMES),
        SceneSpec::new(0, SCENE_FRAMES / 2),
    ];
    StreamConfig {
        name: "ua-detrac".into(),
        library,
        scenes,
        fps: 30,
        mean_objects: 7.0,
        background_proposals: 8,
        bbox_jitter: 0.13,
        proposal_miss_rate: 0.08,
        resolution: (512, 512),
        transition_frames: 90,
        seed,
    }
}

/// KITTI-like stream (Car only): one class, mild daytime drift.
///
/// # Examples
///
/// ```
/// let config = shoggoth_video::presets::kitti(1);
/// assert_eq!(config.library.world().num_classes(), 1);
/// ```
pub fn kitti(seed: u64) -> StreamConfig {
    let mut library = DomainLibrary::new(WorldConfig::new(1, 32, seed ^ 0x1717));
    library.generate(
        "residential",
        Illumination::Day,
        Weather::Sunny,
        0.0,
        vec![1.0],
    );
    library.generate("city", Illumination::Day, Weather::Cloudy, 0.5, vec![1.0]);
    library.generate("road", Illumination::Day, Weather::Rainy, 0.65, vec![1.0]);
    library.generate(
        "campus",
        Illumination::Dusk,
        Weather::Cloudy,
        0.75,
        vec![1.0],
    );
    let scenes = vec![
        SceneSpec::new(0, SCENE_FRAMES),
        SceneSpec::new(1, SCENE_FRAMES),
        SceneSpec::new(2, SCENE_FRAMES),
        SceneSpec::new(0, SCENE_FRAMES / 2),
        SceneSpec::new(3, SCENE_FRAMES),
        SceneSpec::new(1, SCENE_FRAMES / 2),
        SceneSpec::new(2, SCENE_FRAMES),
        SceneSpec::new(3, SCENE_FRAMES / 2),
        SceneSpec::new(0, SCENE_FRAMES),
        SceneSpec::new(2, SCENE_FRAMES / 2),
    ];
    StreamConfig {
        name: "kitti".into(),
        library,
        scenes,
        fps: 30,
        mean_objects: 4.0,
        background_proposals: 5,
        bbox_jitter: 0.10,
        proposal_miss_rate: 0.05,
        resolution: (512, 512),
        transition_frames: 60,
        seed,
    }
}

/// Waymo-Open-like stream: 3 classes, mixed day/night suburban driving.
///
/// # Examples
///
/// ```
/// let config = shoggoth_video::presets::waymo(1);
/// assert_eq!(config.library.world().num_classes(), 3);
/// ```
pub fn waymo(seed: u64) -> StreamConfig {
    let mut library = DomainLibrary::new(WorldConfig::new(3, 32, seed ^ 0x3A7A0));
    // vehicle, pedestrian, cyclist.
    library.generate(
        "day-suburban",
        Illumination::Day,
        Weather::Sunny,
        0.0,
        vec![6.0, 3.0, 1.0],
    );
    library.generate(
        "day-downtown",
        Illumination::Day,
        Weather::Cloudy,
        0.4,
        vec![5.0, 5.0, 1.5],
    );
    library.generate(
        "rain",
        Illumination::Day,
        Weather::Rainy,
        0.6,
        vec![6.0, 2.0, 0.5],
    );
    library.generate(
        "dusk",
        Illumination::Dusk,
        Weather::Sunny,
        0.55,
        vec![6.0, 2.0, 0.8],
    );
    library.generate(
        "night",
        Illumination::Night,
        Weather::Sunny,
        0.8,
        vec![6.0, 1.0, 0.2],
    );
    let scenes = vec![
        SceneSpec::new(0, SCENE_FRAMES),
        SceneSpec::new(1, SCENE_FRAMES),
        SceneSpec::new(3, SCENE_FRAMES / 2),
        SceneSpec::new(4, SCENE_FRAMES),
        SceneSpec::new(2, SCENE_FRAMES),
        SceneSpec::new(0, SCENE_FRAMES / 2),
        SceneSpec::new(4, SCENE_FRAMES),
        SceneSpec::new(1, SCENE_FRAMES / 2),
        SceneSpec::new(3, SCENE_FRAMES),
        SceneSpec::new(0, SCENE_FRAMES),
        SceneSpec::new(2, SCENE_FRAMES / 2),
        SceneSpec::new(4, SCENE_FRAMES / 2),
    ];
    StreamConfig {
        name: "waymo-open".into(),
        library,
        scenes,
        fps: 30,
        mean_objects: 6.0,
        background_proposals: 7,
        bbox_jitter: 0.12,
        proposal_miss_rate: 0.07,
        resolution: (512, 512),
        transition_frames: 75,
        seed,
    }
}

/// All three presets, in the order the paper's Table I lists them.
pub fn all(seed: u64) -> Vec<StreamConfig> {
    vec![detrac(seed), kitti(seed), waymo(seed)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_and_play() {
        for config in all(3) {
            let frames: Vec<_> = config.clone().with_total_frames(120).build().collect();
            assert_eq!(frames.len(), 120, "{}", config.name);
            assert!(frames.iter().any(|f| !f.ground_truth.is_empty()));
        }
    }

    #[test]
    fn every_frame_carries_one_feature_row_per_proposal() {
        for config in all(3) {
            let dim = config.library.world().feature_dim();
            for frame in config.build() {
                assert_eq!(frame.feature_dim, dim, "{}", config.name);
                assert_eq!(
                    frame.features.len(),
                    frame.proposals.len() * dim,
                    "{} frame {}",
                    config.name,
                    frame.index
                );
                for (i, row) in frame.features.chunks_exact(dim).enumerate() {
                    assert_eq!(frame.proposal_features(i), row);
                }
            }
        }
    }

    #[test]
    fn source_domain_is_severity_zero() {
        for config in all(4) {
            assert_eq!(
                config.library.domain(0).severity,
                0.0,
                "{}: domain 0 must be the pre-training source",
                config.name
            );
            assert_eq!(config.scenes[0].domain_index, 0);
        }
    }

    #[test]
    fn drift_severity_ordering_matches_dataset_difficulty() {
        let max_severity = |c: &crate::stream::StreamConfig| {
            c.library
                .domains()
                .iter()
                .map(|d| d.severity)
                .fold(0.0f32, f32::max)
        };
        let d = max_severity(&detrac(1));
        let k = max_severity(&kitti(1));
        let w = max_severity(&waymo(1));
        assert!(
            d > w && w > k,
            "severity order detrac > waymo > kitti: {d} {w} {k}"
        );
    }

    #[test]
    fn presets_visit_multiple_domains() {
        for config in all(5) {
            let mut names: Vec<&str> = Vec::new();
            for scene in &config.scenes {
                let name = config.library.domain(scene.domain_index).name.as_str();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            assert!(names.len() >= 4, "{} visits only {:?}", config.name, names);
        }
    }

    #[test]
    fn playback_is_thirty_fps() {
        for config in all(6) {
            assert_eq!(config.fps, 30);
        }
    }
}
