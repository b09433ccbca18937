//! Greedy detection ↔ ground-truth matching at an IoU threshold.

use shoggoth_models::Detection;
use shoggoth_video::GroundTruthObject;

/// Outcome of matching one frame's detections against its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// For each detection (in the order given): `Some((gt_index, iou))` if
    /// it matched a ground-truth object, `None` if it is a false positive.
    pub assignments: Vec<Option<(usize, f32)>>,
    /// Number of true positives.
    pub true_positives: usize,
    /// Number of false positives.
    pub false_positives: usize,
    /// Number of ground-truth objects left unmatched (false negatives).
    pub false_negatives: usize,
}

impl MatchResult {
    /// Precision `TP / (TP + FP)`; `0.0` when no detections.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall `TP / (TP + FN)`; `0.0` when no ground truth.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

/// Greedily matches detections to ground truth, standard PASCAL-VOC style:
/// detections are visited in descending confidence; each claims the
/// unclaimed same-class ground-truth object with the highest IoU, provided
/// that IoU clears `iou_threshold`. Unclaimed detections are false
/// positives; unclaimed ground truth are false negatives.
pub fn match_detections(
    detections: &[Detection],
    ground_truth: &[GroundTruthObject],
    iou_threshold: f32,
) -> MatchResult {
    let mut scratch = MatchScratch::default();
    let tp = match_into(detections, ground_truth, iou_threshold, &mut scratch);
    MatchResult {
        assignments: scratch.assignments,
        true_positives: tp,
        false_positives: detections.len() - tp,
        false_negatives: ground_truth.len() - tp,
    }
}

/// The matcher's buffers, reused from frame to frame by a caller that
/// matches many frames.
#[derive(Debug, Default)]
pub(crate) struct MatchScratch {
    /// Detection indices in descending confidence.
    order: Vec<usize>,
    /// Whether each ground-truth object has been claimed.
    taken: Vec<bool>,
    /// [`MatchResult::assignments`] of the last match.
    pub(crate) assignments: Vec<Option<(usize, f32)>>,
}

/// [`match_detections`] into `scratch`: leaves the assignments in
/// `scratch.assignments` and returns the true-positive count.
pub(crate) fn match_into(
    detections: &[Detection],
    ground_truth: &[GroundTruthObject],
    iou_threshold: f32,
    scratch: &mut MatchScratch,
) -> usize {
    let MatchScratch {
        order,
        taken,
        assignments,
    } = scratch;
    order.clear();
    order.extend(0..detections.len());
    order.sort_by(|&a, &b| {
        detections[b]
            .confidence
            .total_cmp(&detections[a].confidence)
    });
    taken.clear();
    taken.resize(ground_truth.len(), false);
    assignments.clear();
    assignments.resize(detections.len(), None);
    let mut tp = 0;
    for &det_idx in order.iter() {
        let det = &detections[det_idx];
        let mut best: Option<(usize, f32)> = None;
        for (gt_idx, gt) in ground_truth.iter().enumerate() {
            if taken[gt_idx] || gt.class != det.class {
                continue;
            }
            let iou = det.bbox.iou(&gt.bbox);
            if iou >= iou_threshold && best.is_none_or(|(_, b)| iou > b) {
                best = Some((gt_idx, iou));
            }
        }
        if let Some((gt_idx, iou)) = best {
            taken[gt_idx] = true;
            assignments[det_idx] = Some((gt_idx, iou));
            tp += 1;
        }
    }
    tp
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_video::BBox;

    fn gt(class: usize, x: f32) -> GroundTruthObject {
        GroundTruthObject {
            track_id: 0,
            class,
            bbox: BBox::new(x, 0.1, 0.2, 0.2),
        }
    }

    fn det(class: usize, x: f32, conf: f32) -> Detection {
        Detection {
            bbox: BBox::new(x, 0.1, 0.2, 0.2),
            class,
            confidence: conf,
        }
    }

    #[test]
    fn perfect_match() {
        let r = match_detections(&[det(0, 0.1, 0.9)], &[gt(0, 0.1)], 0.5);
        assert_eq!(r.true_positives, 1);
        assert_eq!(r.false_positives, 0);
        assert_eq!(r.false_negatives, 0);
        assert_eq!(r.precision(), 1.0);
        assert_eq!(r.recall(), 1.0);
    }

    #[test]
    fn class_mismatch_is_false_positive() {
        let r = match_detections(&[det(1, 0.1, 0.9)], &[gt(0, 0.1)], 0.5);
        assert_eq!(r.true_positives, 0);
        assert_eq!(r.false_positives, 1);
        assert_eq!(r.false_negatives, 1);
    }

    #[test]
    fn low_iou_is_false_positive() {
        let r = match_detections(&[det(0, 0.7, 0.9)], &[gt(0, 0.1)], 0.5);
        assert_eq!(r.true_positives, 0);
    }

    #[test]
    fn each_ground_truth_matched_at_most_once() {
        // Two detections on the same object: higher-confidence one wins,
        // the other is a false positive.
        let r = match_detections(&[det(0, 0.1, 0.5), det(0, 0.11, 0.9)], &[gt(0, 0.1)], 0.5);
        assert_eq!(r.true_positives, 1);
        assert_eq!(r.false_positives, 1);
        // The high-confidence detection (index 1) got the match.
        assert!(r.assignments[1].is_some());
        assert!(r.assignments[0].is_none());
    }

    #[test]
    fn detection_prefers_highest_iou_ground_truth() {
        let r = match_detections(&[det(0, 0.12, 0.9)], &[gt(0, 0.4), gt(0, 0.1)], 0.3);
        let (gt_idx, _) = r.assignments[0].expect("matched");
        assert_eq!(gt_idx, 1);
        assert_eq!(r.false_negatives, 1);
    }

    #[test]
    fn empty_inputs() {
        let r = match_detections(&[], &[], 0.5);
        assert_eq!(r.precision(), 0.0);
        assert_eq!(r.recall(), 0.0);
        let r = match_detections(&[], &[gt(0, 0.1)], 0.5);
        assert_eq!(r.false_negatives, 1);
        let r = match_detections(&[det(0, 0.1, 0.9)], &[], 0.5);
        assert_eq!(r.false_positives, 1);
    }
}
