//! Average Precision and mAP@0.5.

use crate::matching::{match_into, MatchScratch};
use shoggoth_models::Detection;
use shoggoth_video::GroundTruthObject;

/// A frame's detections paired with its ground truth, the unit of
/// evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameEval {
    /// The detector's output on the frame.
    pub detections: Vec<Detection>,
    /// The frame's ground-truth objects.
    pub ground_truth: Vec<GroundTruthObject>,
}

/// One class's evaluation state: `(confidence, is_tp)` per detection in
/// the order the frames were added, and its ground-truth count.
#[derive(Debug, Clone, PartialEq, Default)]
struct ClassScores {
    scored: Vec<(f32, bool)>,
    ground_truth: usize,
}

impl ClassScores {
    /// Average Precision with VOC-2010-style all-point interpolation:
    /// rank by confidence (a stable sort, so ties keep their order), walk
    /// cumulative precision/recall, take the running max of precision
    /// from the right and sum it over each recall increment. `ranked` and
    /// `curve` are scratch.
    fn ap(&self, ranked: &mut Vec<(f32, bool)>, curve: &mut Vec<(f64, f64)>) -> f64 {
        ranked.clear();
        ranked.extend_from_slice(&self.scored);
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        let (mut tp, mut fp) = (0usize, 0usize);
        curve.clear();
        for &(_, is_tp) in ranked.iter() {
            if is_tp {
                tp += 1;
            } else {
                fp += 1;
            }
            curve.push((
                tp as f64 / self.ground_truth as f64,
                tp as f64 / (tp + fp) as f64,
            ));
        }
        let mut max_from_right = 0.0f64;
        for (_, p) in curve.iter_mut().rev() {
            max_from_right = max_from_right.max(*p);
            *p = max_from_right;
        }
        let (mut ap, mut prev_recall) = (0.0, 0.0);
        for &(r, p) in curve.iter() {
            ap += (r - prev_recall) * p;
            prev_recall = r;
        }
        ap
    }
}

/// The mean AP of the classes with ground truth, `0.0` if none has any.
fn mean_ap(
    classes: &[ClassScores],
    ranked: &mut Vec<(f32, bool)>,
    curve: &mut Vec<(f64, f64)>,
) -> f64 {
    let (ap_sum, counted) = classes
        .iter()
        .filter(|class| class.ground_truth > 0)
        .fold((0.0, 0usize), |(sum, n), class| {
            (sum + class.ap(ranked, curve), n + 1)
        });
    if counted == 0 {
        0.0
    } else {
        ap_sum / counted as f64
    }
}

/// The buffers one [`Evaluation::add`] works in, kept from frame to
/// frame so that scoring a frame allocates nothing once they have grown.
/// They hold no result: a clone starts empty and every two compare equal.
#[derive(Debug, Default)]
struct Scratch {
    /// The frame's own class lists.
    frame: Vec<ClassScores>,
    matcher: MatchScratch,
    /// A class list ranked by confidence.
    ranked: Vec<(f32, bool)>,
    /// Its interpolated precision-recall curve.
    curve: Vec<(f64, f64)>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for Scratch {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Streaming accuracy evaluation: every frame is matched once, at IoU 0.5
/// over all classes, and folded into the run's pooled scores as it is
/// added, so no frame is kept.
///
/// A detection only claims ground truth of its own class, so the one
/// all-class match assigns each detection exactly as a per-class match
/// would. Each class list grows in frame order and is stable-sorted when
/// scored, which ranks ties as pooling every frame and sorting would.
/// The per-frame lists, the matcher's buffers and the AP ranking live in
/// scratch the evaluation owns, so [`Evaluation::add`] allocates nothing
/// once they have grown (the run's own lists still grow with the run);
/// `==` and `Clone` ignore that scratch.
///
/// # Examples
///
/// ```
/// use shoggoth_metrics::map::Evaluation;
/// use shoggoth_models::Detection;
/// use shoggoth_video::{BBox, GroundTruthObject};
///
/// let gt = GroundTruthObject { track_id: 0, class: 0, bbox: BBox::new(0.1, 0.1, 0.2, 0.2) };
/// let hit = Detection { bbox: BBox::new(0.1, 0.1, 0.2, 0.2), class: 0, confidence: 0.9 };
/// let mut eval = Evaluation::new(1);
/// assert_eq!(eval.add(&[hit], &[gt.clone()]), 1.0);
/// assert_eq!(eval.add(&[], &[gt]), 0.0);
/// assert_eq!(eval.map50(), 0.5);
/// assert!((eval.average_iou() - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    classes: Vec<ClassScores>,
    iou_sum: f64,
    total_gt: usize,
    scratch: Scratch,
}

impl Evaluation {
    /// An empty evaluation over classes `0..num_classes`. Detections and
    /// ground truth of other classes count toward [`Self::average_iou`]
    /// only.
    pub fn new(num_classes: usize) -> Self {
        Self {
            classes: vec![ClassScores::default(); num_classes],
            iou_sum: 0.0,
            total_gt: 0,
            scratch: Scratch::default(),
        }
    }

    /// Scores one frame and folds it into the run; returns the frame's
    /// own mAP@0.5 (the paper's Fig. 5 per-frame value).
    pub fn add(&mut self, detections: &[Detection], ground_truth: &[GroundTruthObject]) -> f64 {
        let Scratch {
            frame,
            matcher,
            ranked,
            curve,
        } = &mut self.scratch;
        frame.resize_with(self.classes.len(), ClassScores::default);
        for class in frame.iter_mut() {
            class.scored.clear();
            class.ground_truth = 0;
        }
        match_into(detections, ground_truth, 0.5, matcher);
        for (det, assignment) in detections.iter().zip(&matcher.assignments) {
            if let Some(class) = frame.get_mut(det.class) {
                class.scored.push((det.confidence, assignment.is_some()));
            }
            if let Some((_, iou)) = assignment {
                self.iou_sum += f64::from(*iou);
            }
        }
        for gt in ground_truth {
            if let Some(class) = frame.get_mut(gt.class) {
                class.ground_truth += 1;
            }
        }
        self.total_gt += ground_truth.len();
        let frame_map = mean_ap(frame, ranked, curve);
        for (run, class) in self.classes.iter_mut().zip(frame.iter()) {
            run.scored.extend_from_slice(&class.scored);
            run.ground_truth += class.ground_truth;
        }
        frame_map
    }

    /// Mean Average Precision at IoU 0.5 over the frames added, averaged
    /// over the classes that appear in their ground truth. Detections of
    /// each class are pooled across frames and ranked by confidence; AP
    /// is the area under the interpolated precision-recall curve
    /// (VOC-2010 all-point). Classes with no ground truth are skipped,
    /// not counted as zero. `0.0` if no class has any ground truth.
    pub fn map50(&self) -> f64 {
        mean_ap(&self.classes, &mut Vec::new(), &mut Vec::new())
    }

    /// Mean IoU of matched true-positive detections, Table III's "Average
    /// IoU": `sum(matched IoUs) / max(ground-truth objects, 1)`, so both
    /// localization quality and recall count. Unmatched detections add
    /// zero, and missed objects drag the average down.
    pub fn average_iou(&self) -> f64 {
        self.iou_sum / self.total_gt.max(1) as f64
    }
}

/// The [`Evaluation`] of a set of frames, added in order.
fn evaluate(frames: &[FrameEval], num_classes: usize) -> Evaluation {
    let mut eval = Evaluation::new(num_classes);
    for frame in frames {
        eval.add(&frame.detections, &frame.ground_truth);
    }
    eval
}

/// Mean Average Precision at IoU 0.5 over a set of frames
/// ([`Evaluation::map50`]).
pub fn map_at_05(frames: &[FrameEval], num_classes: usize) -> f64 {
    evaluate(frames, num_classes).map50()
}

/// mAP@0.5 of a single frame (used for the paper's Fig. 5 per-frame CDF).
pub fn frame_map_at_05(frame: &FrameEval, num_classes: usize) -> f64 {
    Evaluation::new(num_classes).add(&frame.detections, &frame.ground_truth)
}

/// Mean IoU of matched true-positive detections over a set of frames
/// ([`Evaluation::average_iou`], Table III).
pub fn average_iou(frames: &[FrameEval]) -> f64 {
    evaluate(frames, 0).average_iou()
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
    fn perfect_detector_has_map_one() {
        let frames = vec![
            FrameEval {
                detections: vec![det(0, 0.1, 0.9), det(1, 0.5, 0.8)],
                ground_truth: vec![gt(0, 0.1), gt(1, 0.5)],
            },
            FrameEval {
                detections: vec![det(0, 0.3, 0.7)],
                ground_truth: vec![gt(0, 0.3)],
            },
        ];
        assert!((map_at_05(&frames, 2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blind_detector_has_map_zero() {
        let frames = vec![FrameEval {
            detections: vec![],
            ground_truth: vec![gt(0, 0.1)],
        }];
        assert_eq!(map_at_05(&frames, 1), 0.0);
    }

    #[test]
    fn false_positives_lower_ap_when_ranked_above_hits() {
        // FP at higher confidence than the TP: precision at the TP's rank
        // is 1/2, so AP = 0.5.
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.7, 0.9), det(0, 0.1, 0.5)],
            ground_truth: vec![gt(0, 0.1)],
        }];
        let ap = map_at_05(&frames, 1);
        assert!((ap - 0.5).abs() < 1e-9, "ap {ap}");
    }

    #[test]
    fn false_positive_below_all_hits_does_not_hurt() {
        // With all-point interpolation, trailing FPs leave AP at 1.0.
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9), det(0, 0.7, 0.2)],
            ground_truth: vec![gt(0, 0.1)],
        }];
        let ap = map_at_05(&frames, 1);
        assert!((ap - 1.0).abs() < 1e-9, "ap {ap}");
    }

    #[test]
    fn missing_class_is_skipped_not_zeroed() {
        // Class 1 never appears in GT; mAP averages over class 0 only.
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1)],
        }];
        assert!((map_at_05(&frames, 2) - 1.0).abs() < 1e-9);
        // A class-1 false positive does not bring class 1 into the mean.
        let mut eval = Evaluation::new(2);
        eval.add(&[det(0, 0.1, 0.9), det(1, 0.6, 0.8)], &[gt(0, 0.1)]);
        assert_eq!(eval.map50(), 1.0);
    }

    #[test]
    fn half_recall_halves_ap() {
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1), gt(0, 0.6)],
        }];
        let ap = map_at_05(&frames, 1);
        assert!((ap - 0.5).abs() < 1e-9, "ap {ap}");
    }

    #[test]
    fn average_iou_rewards_tight_boxes() {
        let tight = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1)],
        }];
        let loose = vec![FrameEval {
            detections: vec![Detection {
                bbox: BBox::new(0.14, 0.1, 0.2, 0.2),
                class: 0,
                confidence: 0.9,
            }],
            ground_truth: vec![gt(0, 0.1)],
        }];
        assert!(average_iou(&tight) > average_iou(&loose));
        assert!((average_iou(&tight) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn average_iou_penalizes_misses() {
        let frames = vec![FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1), gt(0, 0.6)],
        }];
        assert!((average_iou(&frames) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_everything_is_zero() {
        assert_eq!(map_at_05(&[], 3), 0.0);
        assert_eq!(average_iou(&[]), 0.0);
    }

    #[test]
    fn frame_map_matches_single_frame_pool() {
        let frame = FrameEval {
            detections: vec![det(0, 0.1, 0.9)],
            ground_truth: vec![gt(0, 0.1)],
        };
        assert_eq!(
            frame_map_at_05(&frame, 1),
            map_at_05(std::slice::from_ref(&frame), 1)
        );
    }

    #[test]
    fn pooled_ranking_spans_frames() {
        // Frame 1 ranks a false positive above its hit (AP 1/2); frame 2
        // has one hit (AP 1). Pooled, the hits sit at precision 1/2 and
        // 2/3, interpolated to 2/3 over both recall steps: AP 2/3, not the
        // frames' mean 3/4.
        let mut eval = Evaluation::new(1);
        let first = eval.add(&[det(0, 0.7, 0.9), det(0, 0.1, 0.3)], &[gt(0, 0.1)]);
        assert!((first - 0.5).abs() < 1e-9, "frame map {first}");
        assert_eq!(eval.add(&[det(0, 0.3, 0.6)], &[gt(0, 0.3)]), 1.0);
        assert!((eval.map50() - 2.0 / 3.0).abs() < 1e-9);
        assert!((eval.average_iou() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn out_of_range_classes_count_toward_iou_only() {
        let mut eval = Evaluation::new(1);
        assert_eq!(eval.add(&[det(3, 0.1, 0.9)], &[gt(3, 0.1)]), 0.0);
        assert_eq!(eval.map50(), 0.0);
        assert!((eval.average_iou() - 1.0).abs() < 1e-6);
    }
}
