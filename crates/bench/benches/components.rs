//! Criterion micro-benchmarks of the system's hot components: replay
//! memory management, tensor training steps, the sampling-rate controller,
//! the codec model, and a full simulation slice.

// The criterion_group! macro expands to undocumented harness functions.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use shoggoth::controller::{ControllerConfig, SamplingRateController};
use shoggoth::replay::ReplayMemory;
use shoggoth::sim::{SimConfig, Simulation};
use shoggoth::strategy::Strategy;
use shoggoth::trainer::{AdaptiveTrainer, TrainerConfig};
use shoggoth_models::{sample_domain_batch, StudentConfig, StudentDetector};
use shoggoth_net::{Codec, FrameGroupStats};
use shoggoth_tensor::{losses, Matrix, Mode};
use shoggoth_util::Rng;
use shoggoth_video::presets;
use std::hint::black_box;

fn bench_replay_memory(c: &mut Criterion) {
    let mut rng = Rng::seed_from(1);
    let batch = Matrix::from_fn(600, 48, |r, _| r as f32);
    let labels: Vec<usize> = (0..600).map(|i| i % 5).collect();
    c.bench_function("replay_memory_integrate_600_into_3000", |b| {
        let mut memory = ReplayMemory::new(3000);
        b.iter(|| {
            memory.integrate(black_box(&batch), &labels, &mut rng);
        });
    });
    c.bench_function("replay_memory_sample_48_of_3000", |b| {
        let mut memory = ReplayMemory::new(3000);
        for _ in 0..6 {
            memory.integrate(&batch, &labels, &mut rng);
        }
        let mut scratch = Vec::new();
        let mut rows = Matrix::zeros(0, 0);
        let mut row_labels = Vec::new();
        b.iter(|| {
            rows.resize_zeroed(0, 48);
            row_labels.clear();
            black_box(memory.sample_into(48, &mut rng, &mut scratch, &mut rows, &mut row_labels))
        });
    });
}

fn bench_tensor(c: &mut Criterion) {
    let mut rng = Rng::seed_from(2);
    let a = Matrix::from_fn(64, 64, |_, _| rng.next_gaussian_f32(0.0, 1.0));
    let b_mat = Matrix::from_fn(64, 64, |_, _| rng.next_gaussian_f32(0.0, 1.0));
    c.bench_function("matmul_64x64", |b| {
        b.iter(|| black_box(a.matmul(black_box(&b_mat)).expect("shapes match")));
    });

    let mut student = StudentDetector::new(StudentConfig::new(32, 4, 3));
    let x = Matrix::from_fn(64, 32, |_, _| rng.next_gaussian_f32(0.0, 1.0));
    let labels: Vec<usize> = (0..64).map(|i| i % 5).collect();
    c.bench_function("student_train_step_batch64", |b| {
        b.iter(|| {
            let logits = student
                .net_mut()
                .forward(black_box(&x), Mode::Train)
                .expect("shapes match");
            let (_, grad) =
                losses::softmax_cross_entropy(&logits, &labels).expect("labels in range");
            student.net_mut().backward(&grad).expect("cached");
        });
    });
    c.bench_function("student_inference_batch64", |b| {
        b.iter(|| {
            black_box(
                student
                    .net_mut()
                    .forward(black_box(&x), Mode::Eval)
                    .expect("shapes match"),
            )
        });
    });
}

fn bench_controller(c: &mut Criterion) {
    let mut ctl =
        SamplingRateController::new(ControllerConfig::paper_defaults()).expect("valid defaults");
    c.bench_function("controller_observe_and_update", |b| {
        b.iter(|| {
            ctl.observe_phi(black_box(0.3));
            black_box(ctl.update_detailed(black_box(0.6), black_box(0.4)).rate)
        });
    });
}

fn bench_codec(c: &mut Criterion) {
    let codec = Codec::h264_like();
    let group = vec![FrameGroupStats::new(786_432, 0.004); 60];
    c.bench_function("codec_encode_group_60", |b| {
        b.iter(|| black_box(codec.encode_group(black_box(&group), 0.5)));
    });
}

fn bench_training_session(c: &mut Criterion) {
    let stream = presets::kitti(7).with_total_frames(60);
    let student0 =
        StudentDetector::pretrained_with(StudentConfig::new(32, 1, 5).quick(), &stream.library, 0);
    let mut rng = Rng::seed_from(6);
    let fresh = sample_domain_batch(
        stream.library.world(),
        stream.library.domain(1),
        200,
        100,
        &mut rng,
    );
    c.bench_function("adaptive_training_session_300_samples", |b| {
        b.iter(|| {
            let mut student = student0.clone();
            let mut trainer = AdaptiveTrainer::new(TrainerConfig::quick());
            trainer
                .train_session(&mut student, black_box(&fresh), &mut rng)
                .expect("bench session trains");
        });
    });
}

fn bench_simulation_slice(c: &mut Criterion) {
    let mut config = SimConfig::quick(presets::kitti(9).with_total_frames(300));
    config.strategy = Strategy::Shoggoth;
    let (student, teacher) = Simulation::build_models(&config);
    c.bench_function("simulation_300_frames_shoggoth", |b| {
        b.iter(|| {
            black_box(
                Simulation::run_with_models(black_box(&config), student.clone(), teacher.clone())
                    .expect("bench run failed"),
            )
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_replay_memory,
        bench_tensor,
        bench_controller,
        bench_codec,
        bench_training_session,
        bench_simulation_slice
);
criterion_main!(benches);
