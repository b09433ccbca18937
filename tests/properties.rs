//! Property-based tests (proptest) over the core data structures and
//! invariants: PRNG ranges, matrix algebra, IoU geometry, replay-memory
//! size discipline, controller clamping, codec bounds, mAP bounds, and
//! the streaming evaluation against the per-class definition of mAP.

use proptest::prelude::*;
use shoggoth::controller::{phi_score, ControllerConfig, SamplingRateController};
use shoggoth::replay::ReplayMemory;
use shoggoth_metrics::map::{average_iou, frame_map_at_05, map_at_05, Evaluation, FrameEval};
use shoggoth_metrics::matching::match_detections;
use shoggoth_models::Detection;
use shoggoth_net::{Codec, FrameGroupStats};
use shoggoth_tensor::{losses, Matrix};
use shoggoth_util::stats::EmpiricalCdf;
use shoggoth_util::Rng;
use shoggoth_video::{BBox, GroundTruthObject};

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (0.0f32..0.9, 0.0f32..0.9, 0.01f32..0.5, 0.01f32..0.5)
        .prop_map(|(x, y, w, h)| BBox::new(x, y, w, h))
}

fn arb_detection() -> impl Strategy<Value = Detection> {
    (arb_bbox(), 0usize..4, 0.01f32..1.0).prop_map(|(bbox, class, confidence)| Detection {
        bbox,
        class,
        confidence,
    })
}

/// Box positions on a small grid: same-class boxes overlap above and
/// below IoU 0.5, and several detections compete for one object.
const GRID_X: [f32; 6] = [0.10, 0.12, 0.15, 0.30, 0.50, 0.53];
/// A few confidence levels, so ranks tie within and across frames.
const CONFIDENCES: [f32; 4] = [0.3, 0.5, 0.7, 0.9];
/// Classes scored by the evaluation; ground truth uses all four, the
/// detections only the first three.
const EVAL_CLASSES: usize = 4;

/// A frame of up to 5 objects and 9 detections, possibly empty, possibly
/// multi-class, with tied confidences and overlapping same-class boxes.
fn arb_frame() -> impl Strategy<Value = FrameEval> {
    arb_frame_with(0..6, 0..10)
}

/// A frame with many detections (20 to 40) over a few ground-truth
/// objects, whose per-class lists outgrow those of [`arb_frame`].
fn arb_large_frame() -> impl Strategy<Value = FrameEval> {
    arb_frame_with(1..6, 20..40)
}

/// Frames of `objects` ground-truth objects and `detections` detections
/// on the grid.
fn arb_frame_with(
    objects: std::ops::Range<usize>,
    detections: std::ops::Range<usize>,
) -> impl Strategy<Value = FrameEval> {
    (
        prop::collection::vec((0usize..6, 0usize..EVAL_CLASSES), objects),
        prop::collection::vec((0usize..6, 0usize..3, 0usize..4, 0.0f32..0.03), detections),
    )
        .prop_map(|(objects, dets)| FrameEval {
            ground_truth: objects
                .iter()
                .enumerate()
                .map(|(i, &(x, class))| GroundTruthObject {
                    track_id: i as u64,
                    class,
                    bbox: BBox::new(GRID_X[x], 0.1, 0.2, 0.2),
                })
                .collect(),
            detections: dets
                .iter()
                .map(|&(x, class, level, shift)| Detection {
                    bbox: BBox::new(GRID_X[x] + shift, 0.1 + shift, 0.2, 0.2),
                    class,
                    confidence: CONFIDENCES[level],
                })
                .collect(),
        })
}

/// Average Precision of one class as mAP was defined before the streaming
/// [`Evaluation`]: filter and clone the class's detections and ground
/// truth per frame, match them on their own, pool in frame order,
/// stable-sort by confidence and integrate the interpolated curve.
fn reference_average_precision(frames: &[FrameEval], class: usize) -> Option<f64> {
    let mut scored: Vec<(f32, bool)> = Vec::new();
    let mut total_gt = 0usize;
    for frame in frames {
        let class_dets: Vec<Detection> = frame
            .detections
            .iter()
            .filter(|d| d.class == class)
            .cloned()
            .collect();
        let class_gt: Vec<GroundTruthObject> = frame
            .ground_truth
            .iter()
            .filter(|g| g.class == class)
            .cloned()
            .collect();
        total_gt += class_gt.len();
        let result = match_detections(&class_dets, &class_gt, 0.5);
        for (det, assignment) in class_dets.iter().zip(&result.assignments) {
            scored.push((det.confidence, assignment.is_some()));
        }
    }
    if total_gt == 0 {
        return None;
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut recalls = Vec::new();
    let mut precisions = Vec::new();
    for &(_, is_tp) in &scored {
        if is_tp {
            tp += 1;
        } else {
            fp += 1;
        }
        recalls.push(tp as f64 / total_gt as f64);
        precisions.push(tp as f64 / (tp + fp) as f64);
    }
    let mut max_from_right = 0.0f64;
    for p in precisions.iter_mut().rev() {
        max_from_right = max_from_right.max(*p);
        *p = max_from_right;
    }
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for (r, p) in recalls.iter().zip(&precisions) {
        ap += (r - prev_recall) * p;
        prev_recall = *r;
    }
    Some(ap)
}

/// The per-class definition's mAP@0.5: the mean AP over the classes with
/// ground truth, `0.0` when none has any.
fn reference_map(frames: &[FrameEval]) -> f64 {
    let mut ap_sum = 0.0;
    let mut classes_counted = 0;
    for class in 0..EVAL_CLASSES {
        if let Some(ap) = reference_average_precision(frames, class) {
            ap_sum += ap;
            classes_counted += 1;
        }
    }
    if classes_counted == 0 {
        0.0
    } else {
        ap_sum / classes_counted as f64
    }
}

/// The per-class definition's average IoU, from a separate all-class
/// match of every frame.
fn reference_average_iou(frames: &[FrameEval]) -> f64 {
    let mut iou_sum = 0.0f64;
    let mut total_gt = 0usize;
    for frame in frames {
        total_gt += frame.ground_truth.len();
        let result = match_detections(&frame.detections, &frame.ground_truth, 0.5);
        for assignment in result.assignments.iter().flatten() {
            iou_sum += assignment.1 as f64;
        }
    }
    iou_sum / total_gt.max(1) as f64
}

/// One item of [`PerItemMemory`].
struct PerItem {
    activation: Vec<f32>,
    label: usize,
    stored_at_run: usize,
}

/// Algorithm 1 with one owned activation buffer per item, as the replay
/// memory first stored it: the reference `ReplayMemory`'s rows, labels,
/// draws and samples must match bit for bit.
struct PerItemMemory {
    capacity: usize,
    items: Vec<PerItem>,
    runs: usize,
}

impl PerItemMemory {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            items: Vec::new(),
            runs: 0,
        }
    }

    fn integrate(&mut self, mut batch: Vec<PerItem>, rng: &mut Rng) {
        self.runs += 1;
        let (n, runs) = (batch.len(), self.runs);
        if n == 0 {
            return;
        }
        // Moves item `src` out of the batch, leaving an empty placeholder.
        let mut take = |src: usize| {
            let mut item = std::mem::replace(
                &mut batch[src],
                PerItem {
                    activation: Vec::new(),
                    label: 0,
                    stored_at_run: 0,
                },
            );
            item.stored_at_run = runs;
            item
        };
        if self.items.len() >= self.capacity {
            let h = (self.capacity / runs).min(n);
            if h == 0 {
                return;
            }
            let add_idx = rng.sample_indices(n, h);
            let replace_idx = rng.sample_indices(self.items.len(), h);
            for (&src, &dst) in add_idx.iter().zip(&replace_idx) {
                self.items[dst] = take(src);
            }
        } else {
            let space = self.capacity - self.items.len();
            if n <= space {
                self.items.extend((0..n).map(take));
            } else {
                for src in rng.sample_indices(n, space) {
                    self.items.push(take(src));
                }
            }
        }
    }

    fn sample<'a>(&'a self, k: usize, rng: &mut Rng, scratch: &mut Vec<usize>) -> Vec<&'a PerItem> {
        rng.sample_indices_into(self.items.len(), k, scratch);
        scratch.iter().map(|&i| &self.items[i]).collect()
    }
}

proptest! {
    #[test]
    fn rng_below_always_in_range(seed in any::<u64>(), n in 1usize..10_000) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn rng_unit_interval(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..100 {
            let x = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn iou_is_symmetric_and_bounded(a in arb_bbox(), b in arb_bbox()) {
        let ab = a.iou(&b);
        let ba = b.iou(&a);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&ab));
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_distributes_over_addition(
        seed in any::<u64>(),
        n in 1usize..8,
        m in 1usize..8,
        k in 1usize..8,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Matrix::from_fn(n, m, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let b = Matrix::from_fn(m, k, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let c = Matrix::from_fn(m, k, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        // a(b + c) == ab + ac
        let lhs = a.matmul(&b.add(&c).expect("same shape")).expect("shapes");
        let rhs = a
            .matmul(&b)
            .expect("shapes")
            .add(&a.matmul(&c).expect("shapes"))
            .expect("same shape");
        let diff = lhs.sub(&rhs).expect("same shape").frobenius_norm();
        prop_assert!(diff < 1e-3 * (1.0 + lhs.frobenius_norm()));
    }

    #[test]
    fn transpose_reverses_matmul(
        seed in any::<u64>(),
        n in 1usize..6,
        m in 1usize..6,
    ) {
        let mut rng = Rng::seed_from(seed);
        let a = Matrix::from_fn(n, m, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let b = Matrix::from_fn(m, n, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        // (ab)^T == b^T a^T
        let lhs = a.matmul(&b).expect("shapes").transpose();
        let rhs = b.transpose().matmul(&a.transpose()).expect("shapes");
        let diff = lhs.sub(&rhs).expect("same shape").frobenius_norm();
        prop_assert!(diff < 1e-4 * (1.0 + lhs.frobenius_norm()));
    }

    #[test]
    fn softmax_rows_are_distributions(seed in any::<u64>(), rows in 1usize..6, cols in 1usize..6) {
        let mut rng = Rng::seed_from(seed);
        let logits = Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian_f32(0.0, 5.0));
        let p = losses::softmax(&logits);
        for r in 0..rows {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn replay_memory_never_exceeds_capacity(
        seed in any::<u64>(),
        capacity in 1usize..200,
        batches in prop::collection::vec(0usize..120, 1..12),
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut memory = ReplayMemory::new(capacity);
        for (run, &batch_size) in batches.iter().enumerate() {
            let batch = Matrix::from_fn(batch_size, 1, |r, _| r as f32);
            memory.integrate(&batch, &vec![run; batch_size], &mut rng);
            prop_assert!(memory.len() <= capacity);
        }
        prop_assert_eq!(memory.runs(), batches.len());
    }

    #[test]
    fn replay_memory_matches_the_per_item_algorithm(
        seed in any::<u64>(),
        capacity in 1usize..200,
        width in 1usize..6,
        batches in prop::collection::vec((0usize..120, 0usize..80), 1..12),
    ) {
        let mut data = Rng::seed_from(seed ^ 0x5EED);
        let (mut rng, mut reference_rng) = (Rng::seed_from(seed), Rng::seed_from(seed));
        let mut memory = ReplayMemory::new(capacity);
        let mut reference = PerItemMemory::new(capacity);
        let (mut scratch, mut reference_scratch) = (Vec::new(), Vec::new());
        for &(batch_size, k) in &batches {
            let rows = Matrix::from_fn(batch_size, width, |_, _| data.next_f32());
            let labels: Vec<usize> = (0..batch_size).map(|_| data.below(7)).collect();
            memory.integrate(&rows, &labels, &mut rng);
            reference.integrate(
                (0..batch_size)
                    .map(|r| PerItem { activation: rows.row(r).to_vec(), label: labels[r], stored_at_run: 0 })
                    .collect(),
                &mut reference_rng,
            );
            prop_assert_eq!(&rng, &reference_rng);
            prop_assert_eq!(memory.runs(), reference.runs);
            prop_assert_eq!(memory.len(), reference.items.len());
            for (r, item) in reference.items.iter().enumerate() {
                prop_assert_eq!(memory.activations().row(r), item.activation.as_slice());
                prop_assert_eq!(memory.labels()[r], item.label);
                prop_assert_eq!(memory.stored_at_run()[r], item.stored_at_run);
            }

            let mut sampled = Matrix::zeros(0, width);
            let mut sampled_labels = Vec::new();
            let n = memory.sample_into(k, &mut rng, &mut scratch, &mut sampled, &mut sampled_labels);
            let expected: Vec<&PerItem> = reference.sample(k, &mut reference_rng, &mut reference_scratch);
            prop_assert_eq!(&rng, &reference_rng);
            prop_assert_eq!(n, expected.len());
            prop_assert_eq!(sampled.rows(), n);
            for (r, item) in expected.iter().enumerate() {
                prop_assert_eq!(sampled.row(r), item.activation.as_slice());
                prop_assert_eq!(sampled_labels[r], item.label);
            }
        }
    }

    #[test]
    fn controller_rate_always_clamped(
        seed in any::<u64>(),
        phis in prop::collection::vec(0.0f64..1.0, 1..40),
        alphas in prop::collection::vec(0.0f64..1.0, 1..10),
    ) {
        let mut rng = Rng::seed_from(seed);
        let config = ControllerConfig::paper_defaults();
        let mut ctl = SamplingRateController::new(config).expect("generated config is valid");
        for &phi in &phis {
            ctl.observe_phi(phi);
        }
        for &alpha in &alphas {
            let lambda = rng.next_f64();
            let r = ctl.update_detailed(alpha, lambda).rate;
            prop_assert!(r >= config.r_min - 1e-12 && r <= config.r_max + 1e-12);
            prop_assert!((ctl.rate() - r).abs() < 1e-12);
        }
    }

    #[test]
    fn controller_rate_clamped_for_arbitrary_configs(
        r_min in 0.01f64..1.0,
        span in 0.0f64..4.0,
        init_frac in 0.0f64..1.0,
        eta_r in 0.0f64..10.0,
        eta_alpha in 0.0f64..10.0,
        phi_target in 0.0f64..1.0,
        alpha_target in 0.0f64..1.0,
        phi_window in 1usize..60,
        steps in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..40),
    ) {
        // Not just the paper constants: any *valid* configuration must
        // keep the rate inside [r_min, r_max] no matter how hard the
        // φ/α error terms push.
        let config = ControllerConfig {
            phi_target,
            alpha_target,
            eta_r,
            eta_alpha,
            r_min,
            r_max: r_min + span,
            initial_rate: r_min + init_frac * span,
            phi_window,
            lambda_alpha: 0.4,
        };
        let mut ctl = SamplingRateController::new(config).expect("generated config is valid");
        for &(phi, alpha, lambda) in &steps {
            ctl.observe_phi(phi);
            let r = ctl.update_detailed(alpha, lambda).rate;
            prop_assert!(r >= config.r_min - 1e-12 && r <= config.r_max + 1e-12);
        }
    }

    #[test]
    fn phi_score_is_bounded_and_reflexive(
        dets in prop::collection::vec(arb_detection(), 0..12),
        other in prop::collection::vec(arb_detection(), 0..12),
    ) {
        let phi_self = phi_score(&dets, &dets);
        prop_assert!(phi_self < 1e-9, "phi of identical label sets must be 0, got {phi_self}");
        let phi = phi_score(&dets, &other);
        prop_assert!((0.0..=1.0).contains(&phi));
    }

    #[test]
    fn codec_output_is_positive_and_monotone_in_frames(
        n in 1usize..60,
        motion in 0.0f32..0.05,
        gap in 0.01f64..10.0,
    ) {
        let codec = Codec::h264_like();
        let group = vec![FrameGroupStats::new(786_432, motion); n];
        let bytes = codec.encode_group(&group, gap);
        prop_assert!(bytes > 0);
        // Raw size is an upper bound; the best-case P ratio (300) a lower
        // bound.
        let raw: u64 = group.iter().map(|f| f.raw_bytes).sum();
        prop_assert!(bytes <= raw);
        prop_assert!(bytes as f64 >= raw as f64 / 300.0 * 0.99);
        // One more frame never costs fewer bytes.
        let mut bigger = group.clone();
        bigger.push(FrameGroupStats::new(786_432, motion));
        prop_assert!(codec.encode_group(&bigger, gap) >= bytes);
    }

    #[test]
    fn matching_counts_are_consistent(
        dets in prop::collection::vec(arb_detection(), 0..10),
        gts in prop::collection::vec((arb_bbox(), 0usize..4), 0..10),
    ) {
        let ground_truth: Vec<GroundTruthObject> = gts
            .iter()
            .enumerate()
            .map(|(i, (bbox, class))| GroundTruthObject { track_id: i as u64, class: *class, bbox: *bbox })
            .collect();
        let result = match_detections(&dets, &ground_truth, 0.5);
        prop_assert_eq!(result.true_positives + result.false_positives, dets.len());
        prop_assert_eq!(result.true_positives + result.false_negatives, ground_truth.len());
        prop_assert!(result.precision() <= 1.0 && result.recall() <= 1.0);
        // No ground-truth object may be claimed twice.
        let mut claimed: Vec<usize> = result
            .assignments
            .iter()
            .flatten()
            .map(|(gt, _)| *gt)
            .collect();
        let before = claimed.len();
        claimed.sort_unstable();
        claimed.dedup();
        prop_assert_eq!(claimed.len(), before);
    }

    #[test]
    fn map_is_bounded(
        dets in prop::collection::vec(arb_detection(), 0..10),
        gts in prop::collection::vec((arb_bbox(), 0usize..4), 0..10),
    ) {
        let frame = FrameEval {
            detections: dets,
            ground_truth: gts
                .iter()
                .enumerate()
                .map(|(i, (bbox, class))| GroundTruthObject { track_id: i as u64, class: *class, bbox: *bbox })
                .collect(),
        };
        let frames = vec![frame];
        let map = map_at_05(&frames, 4);
        prop_assert!((0.0..=1.0).contains(&map));
        let iou = average_iou(&frames);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&iou));
    }

    /// One evaluation scores a large frame first, then the rest (small and
    /// empty frames in random order, with one more empty frame at a random
    /// place), in the buffers the large frame grew: a stale entry in its
    /// scratch would change a later frame's mAP. A clone taken after the
    /// large frame starts with empty scratch and must stay equal.
    #[test]
    fn evaluation_matches_the_per_class_definition(
        large in arb_large_frame(),
        rest in prop::collection::vec(arb_frame(), 0..12),
        empty_at in 0usize..13,
    ) {
        let mut frames = rest;
        let empty = FrameEval { detections: Vec::new(), ground_truth: Vec::new() };
        frames.insert(empty_at.min(frames.len()), empty);
        frames.insert(0, large);
        let mut eval = Evaluation::new(EVAL_CLASSES);
        let mut fresh: Option<Evaluation> = None;
        for (i, frame) in frames.iter().enumerate() {
            let frame_map = eval.add(&frame.detections, &frame.ground_truth);
            let expected = reference_map(std::slice::from_ref(frame));
            prop_assert!(frame_map.to_bits() == expected.to_bits(), "frame {i}: mAP {frame_map} vs {expected}");
            prop_assert_eq!(frame_map_at_05(frame, EVAL_CLASSES).to_bits(), expected.to_bits());
            if let Some(clone) = &mut fresh {
                let clone_map = clone.add(&frame.detections, &frame.ground_truth);
                prop_assert_eq!(clone_map.to_bits(), expected.to_bits());
                prop_assert!(*clone == eval, "frame {i}: clone differs");
            } else {
                fresh = Some(eval.clone());
            }
        }
        prop_assert!(fresh.as_ref() == Some(&eval));
        let map = reference_map(&frames);
        prop_assert!(eval.map50().to_bits() == map.to_bits(), "pooled mAP {} vs {map}", eval.map50());
        prop_assert_eq!(map_at_05(&frames, EVAL_CLASSES).to_bits(), map.to_bits());
        let iou = reference_average_iou(&frames);
        prop_assert!(eval.average_iou().to_bits() == iou.to_bits(), "average IoU {} vs {iou}", eval.average_iou());
        prop_assert_eq!(average_iou(&frames).to_bits(), iou.to_bits());
    }

    #[test]
    fn cdf_is_monotone_nondecreasing(values in prop::collection::vec(-10.0f64..10.0, 1..100)) {
        let cdf = EmpiricalCdf::new(&values);
        let curve = cdf.curve(20);
        for pair in curve.windows(2) {
            prop_assert!(pair[1].1 >= pair[0].1);
        }
        prop_assert!(cdf.eval(f64::INFINITY) >= 1.0 - 1e-12);
        prop_assert!(cdf.eval(f64::NEG_INFINITY) <= 1e-12);
    }
}
