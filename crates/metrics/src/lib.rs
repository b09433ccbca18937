//! Evaluation metrics for the reproduction.
//!
//! Implements exactly the quantities the paper reports:
//!
//! * [`map::Evaluation`] — the streaming evaluator a simulation run feeds
//!   frame by frame. It matches each frame once and yields
//!   - the frame's own mAP@0.5, pooled into the CDF of mAP gain vs.
//!     Edge-Only (Figure 5) via [`shoggoth_util::stats::EmpiricalCdf`];
//!   - the run's mAP@0.5 (Tables I, II), VOC-2010-style all-point
//!     interpolation over detections pooled across frames;
//!   - the run's mean IoU of matched true-positive detections (Table
//!     III's accuracy metric).
//!
//!   [`map::map_at_05`], [`map::frame_map_at_05`] and
//!   [`map::average_iou`] give the same scores for a slice of
//!   [`map::FrameEval`]s.
//! * [`bandwidth::kbps`] — uplink/downlink byte counts as average Kbps
//!   (Tables I, III).
//! * [`fps::FpsTracker`] — achieved inference FPS, overall average,
//!   minimum and one-second time series (Figure 4), kept as running
//!   totals.
//!
//! # Examples
//!
//! ```
//! use shoggoth_metrics::map::{map_at_05, FrameEval};
//! use shoggoth_models::Detection;
//! use shoggoth_video::{BBox, GroundTruthObject};
//!
//! let gt = GroundTruthObject { track_id: 0, class: 0, bbox: BBox::new(0.1, 0.1, 0.2, 0.2) };
//! let det = Detection { bbox: BBox::new(0.1, 0.1, 0.2, 0.2), class: 0, confidence: 0.9 };
//! let frames = vec![FrameEval { detections: vec![det], ground_truth: vec![gt] }];
//! assert!((map_at_05(&frames, 1) - 1.0).abs() < 1e-9);
//! ```

pub mod bandwidth;
pub mod fps;
pub mod map;
pub mod matching;

pub use bandwidth::kbps;
pub use fps::FpsTracker;
pub use map::{average_iou, frame_map_at_05, map_at_05, Evaluation, FrameEval};
pub use matching::{match_detections, MatchResult};
