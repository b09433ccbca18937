//! The detector abstraction shared by student and teacher.

use crate::background_class;
use shoggoth_tensor::{losses, Matrix, Mlp, Mode};
use shoggoth_video::{BBox, ClassId, Frame};

/// One detection: a box, a foreground class, and a confidence score
/// (the model's normalized posterior, the paper's `d_i`).
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detected bounding box (the proposal's box).
    pub bbox: BBox,
    /// Predicted foreground class.
    pub class: ClassId,
    /// Normalized posterior probability of the predicted class, in `[0, 1]`.
    pub confidence: f32,
}

/// A model that turns a frame's proposals into detections.
///
/// Implementations classify every proposal and emit one [`Detection`] per
/// proposal predicted as a foreground class (background predictions are
/// dropped). Detections keep their confidence so evaluation can rank them.
pub trait Detector {
    /// Human-readable model name.
    fn name(&self) -> &str;

    /// Detects objects in a frame.
    fn detect(&mut self, frame: &Frame) -> Vec<Detection>;

    /// Classifies a raw feature batch, returning `(class, confidence)` per
    /// row. The class may be the background index.
    fn classify(&mut self, features: &Matrix) -> Vec<(ClassId, f32)>;
}

/// Stacks proposal feature vectors into a batch matrix (one row per
/// proposal).
///
/// Returns a `0 × dim` matrix when `proposals` is empty (`dim` falls back
/// to 1 so downstream shape checks fail loudly rather than silently).
pub fn features_matrix(proposals: &[shoggoth_video::Proposal]) -> Matrix {
    let dim = proposals.first().map_or(1, |p| p.features.len());
    let mut m = Matrix::zeros(proposals.len(), dim);
    for (r, p) in proposals.iter().enumerate() {
        m.row_mut(r).copy_from_slice(&p.features);
    }
    m
}

/// Turns per-proposal predictions on `frame` (one `(class, confidence)`
/// per proposal, as [`Detector::classify`] returns them) into detections,
/// dropping background predictions.
pub fn detections_from(
    predictions: &[(ClassId, f32)],
    frame: &Frame,
    num_classes: usize,
) -> Vec<Detection> {
    let bg = background_class(num_classes);
    frame
        .proposals
        .iter()
        .zip(predictions.iter().copied())
        .filter(|(_, (class, _))| *class < bg)
        .map(|(p, (class, confidence))| Detection {
            bbox: p.bbox,
            class,
            confidence,
        })
        .collect()
}

/// [`Detector::detect`] for a network-backed detector: classify every
/// proposal, keep the foreground predictions.
pub(crate) fn detect_with<D: Detector + ?Sized>(
    detector: &mut D,
    frame: &Frame,
    num_classes: usize,
) -> Vec<Detection> {
    if frame.proposals.is_empty() {
        return Vec::new();
    }
    let predictions = detector.classify(&features_matrix(&frame.proposals));
    detections_from(&predictions, frame, num_classes)
}

/// [`Detector::classify`] for a network-backed detector: an eval-mode
/// forward pass, then the arg-max class and its softmax probability per
/// row.
pub(crate) fn classify_with(net: &mut Mlp, features: &Matrix) -> Vec<(ClassId, f32)> {
    if features.rows() == 0 {
        return Vec::new();
    }
    let logits = net
        .forward(features, Mode::Eval)
        .expect("feature width matches network input");
    let probs = losses::softmax(&logits);
    net.recycle(logits);
    (0..probs.rows())
        .map(|r| {
            let row = probs.row(r);
            let (class, &p) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty row");
            (class, p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::student::{StudentConfig, StudentDetector};
    use crate::teacher::{TeacherConfig, TeacherDetector};
    use shoggoth_util::Rng;
    use shoggoth_video::Proposal;

    #[test]
    fn features_matrix_stacks_rows() {
        let proposals = vec![
            Proposal {
                bbox: BBox::new(0.0, 0.0, 0.1, 0.1),
                features: vec![1.0, 2.0],
                true_class: None,
                track_id: None,
            },
            Proposal {
                bbox: BBox::new(0.5, 0.5, 0.1, 0.1),
                features: vec![3.0, 4.0],
                true_class: Some(0),
                track_id: Some(1),
            },
        ];
        let m = features_matrix(&proposals);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn empty_proposals_yield_empty_matrix() {
        let m = features_matrix(&[]);
        assert_eq!(m.rows(), 0);
    }

    fn frame_with_proposals(dim: usize, count: usize) -> Frame {
        let mut rng = Rng::seed_from(3);
        Frame {
            index: 0,
            timestamp: 0.0,
            scene_index: 0,
            domain_name: "day".to_owned(),
            ground_truth: Vec::new(),
            proposals: (0..count)
                .map(|i| Proposal {
                    bbox: BBox::new(0.05 * i as f32, 0.1, 0.05, 0.05),
                    features: (0..dim).map(|_| rng.next_gaussian_f32(0.0, 1.0)).collect(),
                    true_class: None,
                    track_id: None,
                })
                .collect(),
            raw_bytes: 0,
            motion_magnitude: 0.0,
        }
    }

    #[test]
    fn repeated_detection_reuses_the_workspace() {
        // Inference hands its logits back to the network, so after the
        // first call no `detect` allocates a fresh tensor buffer.
        let frame = frame_with_proposals(16, 12);
        let mut student = StudentDetector::new(StudentConfig::new(16, 3, 1).quick());
        let mut teacher = TeacherDetector::new(TeacherConfig::new(16, 3, 1).quick());
        let allocations = |s: &StudentDetector, t: &TeacherDetector| {
            (
                s.net().workspace_allocations(),
                t.net().workspace_allocations(),
            )
        };
        student.detect(&frame);
        teacher.detect(&frame);
        let warm = allocations(&student, &teacher);
        for _ in 0..50 {
            student.detect(&frame);
            teacher.detect(&frame);
        }
        assert_eq!(allocations(&student, &teacher), warm);
    }
}
