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
    /// Detects objects in a frame.
    fn detect(&mut self, frame: &Frame) -> Vec<Detection>;

    /// Classifies a raw feature batch, returning `(class, confidence)` per
    /// row. The class may be the background index.
    fn classify(&mut self, features: &Matrix) -> Vec<(ClassId, f32)>;

    /// [`Detector::classify`] over a frame's proposals, one prediction per
    /// proposal in order. The default classifies [`features_matrix`];
    /// network-backed detectors copy the frame's feature block straight
    /// into a workspace batch instead.
    fn classify_frame(&mut self, frame: &Frame) -> Vec<(ClassId, f32)> {
        self.classify(&features_matrix(frame))
    }
}

/// The frame's feature block as a batch matrix: one row per proposal, the
/// frame's feature width wide (`0 × feature_dim` for a frame without
/// proposals).
///
/// # Panics
///
/// Panics if the block does not hold one row per proposal.
pub fn features_matrix(frame: &Frame) -> Matrix {
    let mut m = Matrix::zeros(frame.proposals.len(), frame.feature_dim);
    m.as_mut_slice().copy_from_slice(&frame.features);
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
    // Sized for every proposal, so the list is one allocation instead of
    // a growth sequence.
    let mut detections = Vec::with_capacity(frame.proposals.len().min(predictions.len()));
    detections.extend(
        frame
            .proposals
            .iter()
            .zip(predictions.iter().copied())
            .filter(|(_, (class, _))| *class < bg)
            .map(|(p, (class, confidence))| Detection {
                bbox: p.bbox,
                class,
                confidence,
            }),
    );
    detections
}

/// [`Detector::detect`] for a network-backed detector: classify every
/// proposal, keep the foreground predictions.
pub(crate) fn detect_with<D: Detector + ?Sized>(
    detector: &mut D,
    frame: &Frame,
    num_classes: usize,
) -> Vec<Detection> {
    let predictions = detector.classify_frame(frame);
    detections_from(&predictions, frame, num_classes)
}

/// [`Detector::classify_frame`] for a network-backed detector: the
/// frame's feature block is copied into a workspace batch, classified
/// and handed back, so no call after the first allocates a tensor
/// buffer.
pub(crate) fn classify_frame_with(net: &mut Mlp, frame: &Frame) -> Vec<(ClassId, f32)> {
    if frame.proposals.is_empty() {
        return Vec::new();
    }
    let x = net
        .batch_from(frame.proposals.len(), frame.feature_dim, &frame.features)
        .expect("a frame's feature block holds one row per proposal");
    let predictions = classify_with(net, &x);
    net.recycle(x);
    predictions
}

/// [`Detector::classify`] for a network-backed detector: an eval-mode
/// forward pass, the softmax written over the logits, then the arg-max
/// class and its probability per row.
pub(crate) fn classify_with(net: &mut Mlp, features: &Matrix) -> Vec<(ClassId, f32)> {
    if features.rows() == 0 {
        return Vec::new();
    }
    let mut probs = net
        .forward(features, Mode::Eval)
        .expect("feature width matches network input");
    losses::softmax_in_place(&mut probs);
    let predictions = (0..probs.rows())
        .map(|r| {
            let row = probs.row(r);
            let (class, &p) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty row");
            (class, p)
        })
        .collect();
    net.recycle(probs);
    predictions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::student::{StudentConfig, StudentDetector};
    use crate::teacher::{TeacherConfig, TeacherDetector};
    use shoggoth_util::Rng;
    use shoggoth_video::Proposal;

    /// A frame of `count` background proposals with Gaussian features.
    fn frame_with_proposals(dim: usize, count: usize) -> Frame {
        let mut rng = Rng::seed_from(3 + count as u64);
        Frame {
            index: 0,
            timestamp: 0.0,
            scene_index: 0,
            domain_name: "day".into(),
            ground_truth: Vec::new(),
            proposals: (0..count)
                .map(|i| Proposal {
                    bbox: BBox::new(0.05 * i as f32, 0.1, 0.05, 0.05),
                    true_class: None,
                    track_id: None,
                })
                .collect(),
            features: (0..count * dim)
                .map(|_| rng.next_gaussian_f32(0.0, 1.0))
                .collect(),
            feature_dim: dim,
            raw_bytes: 0,
            motion_magnitude: 0.0,
        }
    }

    #[test]
    fn features_matrix_is_the_feature_block() {
        let frame = frame_with_proposals(2, 3);
        let m = features_matrix(&frame);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        for r in 0..3 {
            assert_eq!(m.row(r), frame.proposal_features(r));
        }
    }

    #[test]
    fn empty_proposals_yield_an_empty_matrix_of_the_frame_width() {
        let m = features_matrix(&frame_with_proposals(16, 0));
        assert_eq!((m.rows(), m.cols()), (0, 16));
    }

    #[test]
    fn classify_frame_matches_classify_on_the_feature_matrix() {
        let frame = frame_with_proposals(16, 12);
        let mut student = StudentDetector::new(StudentConfig::new(16, 3, 1).quick());
        let mut teacher = TeacherDetector::new(TeacherConfig::new(16, 3, 1).quick());
        let features = features_matrix(&frame);
        assert_eq!(student.classify_frame(&frame), student.classify(&features));
        assert_eq!(teacher.classify_frame(&frame), teacher.classify(&features));
        let empty = frame_with_proposals(16, 0);
        assert!(student.classify_frame(&empty).is_empty());
        assert!(student.detect(&empty).is_empty());
    }

    #[test]
    fn repeated_detection_reuses_the_workspace() {
        // Inference hands its input batch and logits back to the network,
        // so once it has seen the largest frame no `detect` allocates a
        // fresh tensor buffer, whatever the proposal counts that follow.
        let frames: Vec<Frame> = [15, 12, 3, 0, 9, 1, 15, 7]
            .iter()
            .map(|&count| frame_with_proposals(16, count))
            .collect();
        let mut student = StudentDetector::new(StudentConfig::new(16, 3, 1).quick());
        let mut teacher = TeacherDetector::new(TeacherConfig::new(16, 3, 1).quick());
        let allocations = |s: &StudentDetector, t: &TeacherDetector| {
            (
                s.net().workspace_allocations(),
                t.net().workspace_allocations(),
            )
        };
        student.detect(&frames[0]);
        teacher.detect(&frames[0]);
        let warm = allocations(&student, &teacher);
        for _ in 0..10 {
            for frame in &frames {
                student.detect(frame);
                teacher.detect(frame);
            }
        }
        assert_eq!(allocations(&student, &teacher), warm);
    }
}
