//! Frames, ground-truth objects, and region proposals.

use crate::{BBox, ClassId};
use std::sync::Arc;

/// A ground-truth object present in a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthObject {
    /// Stream-unique identifier (stable across the object's lifetime).
    pub track_id: u64,
    /// The object's true class.
    pub class: ClassId,
    /// The object's true bounding box.
    pub bbox: BBox,
}

/// A region proposal a detector classifies.
///
/// Its latent appearance features live in the frame's feature block
/// ([`Frame::proposal_features`]), so a proposal is a plain `Copy` value.
/// Detectors never see `true_class`; it exists so the evaluation can score
/// detections and so the replay buffer can be audited in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proposal {
    /// Proposed bounding box (jittered off the true box for objects).
    pub bbox: BBox,
    /// Ground truth: `Some(class)` for a true-object proposal, `None` for a
    /// background distractor. Hidden from detectors.
    pub true_class: Option<ClassId>,
    /// Track id of the underlying object, if any.
    pub track_id: Option<u64>,
}

/// One video frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Zero-based frame index within the stream.
    pub index: u64,
    /// Presentation time in seconds (index / fps).
    pub timestamp: f64,
    /// Index of the scene this frame belongs to.
    pub scene_index: usize,
    /// Name of the active domain (for diagnostics). Shared: the stream
    /// hands every frame of a domain the same name.
    pub domain_name: Arc<str>,
    /// Ground-truth objects visible in the frame.
    pub ground_truth: Vec<GroundTruthObject>,
    /// Region proposals (objects + background distractors), shuffled.
    pub proposals: Vec<Proposal>,
    /// The proposals' latent appearance features, one row-major block:
    /// row `i` (`feature_dim` values) belongs to `proposals[i]`.
    pub features: Vec<f32>,
    /// Width of a feature row (the world's feature dimension).
    pub feature_dim: usize,
    /// Uncompressed frame size in bytes (resolution-dependent); the codec
    /// model in `shoggoth-net` compresses from this base.
    pub raw_bytes: u64,
    /// Mean inter-frame motion of tracked objects since the previous frame,
    /// in normalized image units (drives codec compressibility).
    pub motion_magnitude: f32,
}

impl Frame {
    /// The latent appearance features of proposal `i`: row `i` of the
    /// feature block.
    ///
    /// # Panics
    ///
    /// Panics if row `i` lies outside the feature block.
    pub fn proposal_features(&self, i: usize) -> &[f32] {
        &self.features[i * self.feature_dim..(i + 1) * self.feature_dim]
    }

    /// Ground-truth class ids in this frame (one per object).
    pub fn ground_truth_classes(&self) -> Vec<ClassId> {
        self.ground_truth.iter().map(|o| o.class).collect()
    }

    /// Number of true-object proposals.
    pub fn object_proposal_count(&self) -> usize {
        self.proposals
            .iter()
            .filter(|p| p.true_class.is_some())
            .count()
    }

    /// Number of background proposals.
    pub fn background_proposal_count(&self) -> usize {
        self.proposals.len() - self.object_proposal_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_with(classes: &[Option<ClassId>]) -> Frame {
        Frame {
            index: 0,
            timestamp: 0.0,
            scene_index: 0,
            domain_name: "test".into(),
            ground_truth: classes
                .iter()
                .flatten()
                .enumerate()
                .map(|(i, &c)| GroundTruthObject {
                    track_id: i as u64,
                    class: c,
                    bbox: BBox::new(0.0, 0.0, 0.1, 0.1),
                })
                .collect(),
            proposals: classes
                .iter()
                .map(|&c| Proposal {
                    bbox: BBox::new(0.0, 0.0, 0.1, 0.1),
                    true_class: c,
                    track_id: None,
                })
                .collect(),
            features: (0..classes.len() * 4).map(|v| v as f32).collect(),
            feature_dim: 4,
            raw_bytes: 1000,
            motion_magnitude: 0.0,
        }
    }

    #[test]
    fn proposal_counts_split_by_kind() {
        let f = frame_with(&[Some(0), None, Some(1), None, None]);
        assert_eq!(f.object_proposal_count(), 2);
        assert_eq!(f.background_proposal_count(), 3);
        assert_eq!(f.ground_truth_classes(), vec![0, 1]);
    }

    #[test]
    fn proposal_features_are_rows_of_the_block() {
        let f = frame_with(&[Some(0), None, Some(1)]);
        assert_eq!(f.proposal_features(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(f.proposal_features(2), &[8.0, 9.0, 10.0, 11.0]);
    }
}
