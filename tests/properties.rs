//! Property-based tests (proptest) over the core data structures and
//! invariants: PRNG ranges, matrix algebra, IoU geometry, replay-memory
//! size discipline, controller clamping, codec bounds, and mAP bounds.

use proptest::prelude::*;
use shoggoth::controller::{phi_score, ControllerConfig, SamplingRateController};
use shoggoth::replay::{ReplayItem, ReplayMemory};
use shoggoth_metrics::map::{average_iou, map_at_05, FrameEval};
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
            let batch: Vec<ReplayItem> = (0..batch_size)
                .map(|i| ReplayItem { activation: vec![i as f32], label: run, stored_at_run: 0 })
                .collect();
            memory.integrate(batch, &mut rng);
            prop_assert!(memory.len() <= capacity);
        }
        prop_assert_eq!(memory.runs(), batches.len());
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
        // Raw size is an upper bound; best-case P ratio a lower bound.
        let raw: u64 = group.iter().map(|f| f.raw_bytes).sum();
        prop_assert!(bytes <= raw);
        prop_assert!(bytes as f64 >= raw as f64 / codec.p_frame_ratio * 0.99);
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
