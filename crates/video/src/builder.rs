//! A fluent builder for custom stream scenarios.
//!
//! The presets cover the paper's three benchmarks; real deployments want
//! their own drift scripts. [`StreamBuilder`] lets users declare domains
//! by name, chain scenes, and get a validated [`StreamConfig`]:
//!
//! ```
//! use shoggoth_video::builder::StreamBuilder;
//! use shoggoth_video::{Illumination, Weather, WorldConfig};
//!
//! let config = StreamBuilder::new("toll-plaza", WorldConfig::new(2, 16, 9))
//!     .domain("day", Illumination::Day, Weather::Sunny, 0.0, vec![3.0, 1.0])
//!     .domain("storm", Illumination::Dusk, Weather::Rainy, 0.7, vec![2.0, 1.5])
//!     .scene("day", 600)
//!     .scene("storm", 900)
//!     .scene("day", 600)
//!     .mean_objects(5.0)
//!     .transition_frames(45)
//!     .build()?;
//! assert_eq!(config.total_frames(), 2100);
//! # Ok::<(), shoggoth_video::builder::BuildStreamError>(())
//! ```

use crate::domain::{DomainLibrary, Illumination, Weather};
use crate::stream::{SceneSpec, StreamConfig};
use crate::world::WorldConfig;

/// Errors from assembling a custom stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildStreamError {
    /// A scene referenced a domain name that was never declared.
    UnknownDomain {
        /// The undeclared name.
        name: String,
    },
    /// The same domain name was declared twice.
    DuplicateDomain {
        /// The repeated name.
        name: String,
    },
    /// No scenes were declared.
    NoScenes,
    /// A scene had zero frames.
    EmptyScene {
        /// Index of the offending scene.
        index: usize,
    },
}

impl std::fmt::Display for BuildStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildStreamError::UnknownDomain { name } => {
                write!(f, "scene references undeclared domain \"{name}\"")
            }
            BuildStreamError::DuplicateDomain { name } => {
                write!(f, "domain \"{name}\" declared twice")
            }
            BuildStreamError::NoScenes => write!(f, "stream has no scenes"),
            BuildStreamError::EmptyScene { index } => {
                write!(f, "scene {index} has zero frames")
            }
        }
    }
}

impl std::error::Error for BuildStreamError {}

/// Fluent builder producing a validated [`StreamConfig`].
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    name: String,
    library: DomainLibrary,
    domain_names: Vec<String>,
    scenes: Vec<(String, u64)>,
    fps: u32,
    mean_objects: f64,
    background_proposals: usize,
    bbox_jitter: f32,
    proposal_miss_rate: f64,
    resolution: (u32, u32),
    transition_frames: u64,
    seed: u64,
}

impl StreamBuilder {
    /// Starts a builder over a fresh feature world.
    pub fn new(name: &str, world: WorldConfig) -> Self {
        let seed = world.seed;
        Self {
            name: name.to_owned(),
            library: DomainLibrary::new(world),
            domain_names: Vec::new(),
            scenes: Vec::new(),
            fps: 30,
            mean_objects: 5.0,
            background_proposals: 6,
            bbox_jitter: 0.12,
            proposal_miss_rate: 0.06,
            resolution: (512, 512),
            transition_frames: 60,
            seed,
        }
    }

    /// Declares a domain (order matters: the first declared domain is the
    /// pre-training source by the workspace convention).
    ///
    /// # Panics
    ///
    /// Panics if `class_mix` length or `severity` are invalid (see
    /// [`DomainLibrary::generate`]). Duplicate names are reported at
    /// [`build`](Self::build) time.
    pub fn domain(
        mut self,
        name: &str,
        illumination: Illumination,
        weather: Weather,
        severity: f32,
        class_mix: Vec<f64>,
    ) -> Self {
        self.library
            .generate(name, illumination, weather, severity, class_mix);
        self.domain_names.push(name.to_owned());
        self
    }

    /// Appends a scene playing `frames` frames of the named domain.
    pub fn scene(mut self, domain: &str, frames: u64) -> Self {
        self.scenes.push((domain.to_owned(), frames));
        self
    }

    /// Sets the playback rate (default 30 fps).
    pub fn fps(mut self, fps: u32) -> Self {
        self.fps = fps;
        self
    }

    /// Sets the expected concurrent object count (default 5).
    pub fn mean_objects(mut self, mean: f64) -> Self {
        self.mean_objects = mean;
        self
    }

    /// Sets the background distractors per frame (default 6).
    pub fn background_proposals(mut self, count: usize) -> Self {
        self.background_proposals = count;
        self
    }

    /// Sets the proposal-box jitter fraction (default 0.12).
    pub fn bbox_jitter(mut self, jitter: f32) -> Self {
        self.bbox_jitter = jitter;
        self
    }

    /// Sets the per-frame proposal miss probability (default 0.06).
    pub fn proposal_miss_rate(mut self, rate: f64) -> Self {
        self.proposal_miss_rate = rate;
        self
    }

    /// Sets the frame resolution (default 512×512).
    pub fn resolution(mut self, width: u32, height: u32) -> Self {
        self.resolution = (width, height);
        self
    }

    /// Sets the gradual-transition length at scene switches (default 60).
    pub fn transition_frames(mut self, frames: u64) -> Self {
        self.transition_frames = frames;
        self
    }

    /// Sets the stream seed (defaults to the world seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildStreamError`] if a scene references an undeclared
    /// domain, a domain name repeats, no scene was declared, or a scene is
    /// empty.
    pub fn build(self) -> Result<StreamConfig, BuildStreamError> {
        for (i, name) in self.domain_names.iter().enumerate() {
            if self.domain_names[..i].contains(name) {
                return Err(BuildStreamError::DuplicateDomain { name: name.clone() });
            }
        }
        if self.scenes.is_empty() {
            return Err(BuildStreamError::NoScenes);
        }
        let mut scenes = Vec::with_capacity(self.scenes.len());
        for (index, (name, frames)) in self.scenes.iter().enumerate() {
            let domain_index = self
                .domain_names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| BuildStreamError::UnknownDomain { name: name.clone() })?;
            if *frames == 0 {
                return Err(BuildStreamError::EmptyScene { index });
            }
            scenes.push(SceneSpec::new(domain_index, *frames));
        }
        Ok(StreamConfig {
            name: self.name,
            library: self.library,
            scenes,
            fps: self.fps,
            mean_objects: self.mean_objects,
            background_proposals: self.background_proposals,
            bbox_jitter: self.bbox_jitter,
            proposal_miss_rate: self.proposal_miss_rate,
            resolution: self.resolution,
            transition_frames: self.transition_frames,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> StreamBuilder {
        StreamBuilder::new("test", WorldConfig::new(2, 8, 1))
            .domain("a", Illumination::Day, Weather::Sunny, 0.0, vec![1.0, 1.0])
            .domain(
                "b",
                Illumination::Night,
                Weather::Rainy,
                0.8,
                vec![1.0, 0.5],
            )
    }

    #[test]
    fn valid_scenario_builds_and_plays() {
        let config = base()
            .scene("a", 50)
            .scene("b", 50)
            .mean_objects(3.0)
            .build()
            .expect("valid scenario");
        assert_eq!(config.total_frames(), 100);
        let frames: Vec<_> = config.build().collect();
        assert_eq!(frames.len(), 100);
        assert_eq!(&*frames[0].domain_name, "a");
    }

    #[test]
    fn unknown_domain_is_rejected() {
        let err = base().scene("zzz", 10).build().expect_err("must fail");
        assert_eq!(err, BuildStreamError::UnknownDomain { name: "zzz".into() });
        assert!(err.to_string().contains("zzz"));
    }

    #[test]
    fn duplicate_domain_is_rejected() {
        let err = base()
            .domain("a", Illumination::Day, Weather::Cloudy, 0.1, vec![1.0, 1.0])
            .scene("a", 10)
            .build()
            .expect_err("must fail");
        assert_eq!(err, BuildStreamError::DuplicateDomain { name: "a".into() });
    }

    #[test]
    fn empty_scenario_is_rejected() {
        assert_eq!(
            base().build().expect_err("must fail"),
            BuildStreamError::NoScenes
        );
    }

    #[test]
    fn zero_length_scene_is_rejected() {
        let err = base()
            .scene("a", 10)
            .scene("b", 0)
            .build()
            .expect_err("must fail");
        assert_eq!(err, BuildStreamError::EmptyScene { index: 1 });
    }

    #[test]
    fn builder_settings_propagate() {
        let config = base()
            .scene("a", 10)
            .fps(15)
            .background_proposals(9)
            .bbox_jitter(0.2)
            .proposal_miss_rate(0.5)
            .resolution(256, 128)
            .transition_frames(5)
            .seed(42)
            .build()
            .expect("valid scenario");
        assert_eq!(config.fps, 15);
        assert_eq!(config.background_proposals, 9);
        assert_eq!(config.resolution, (256, 128));
        assert_eq!(config.seed, 42);
    }
}
