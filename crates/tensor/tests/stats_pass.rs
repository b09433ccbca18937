//! The statistics pass (`Mode::Stats`) against the train-mode forward,
//! **bit for bit**, and the rule that a backward cache exists only between
//! a `Mode::Train` forward and the backward that reads it.
//!
//! A frozen front runs forward with batch statistics but is never
//! backpropagated through, so it runs in `Mode::Stats`: the output, the
//! `BatchRenorm` running moments and every later eval output must be those
//! of `Mode::Train`, while no cache is recorded, a stale one is
//! invalidated, and a backward fails with `MissingForwardCache`. A clone
//! carries no cache either, yet trains on exactly like its original. The
//! inputs include `±0`, NaN and `±∞`, at 1, 15, 64 and 905 rows (the last
//! the size of a paper-scale training session's fresh batch).

use shoggoth_tensor::{
    losses, BatchRenorm, Dense, Layer, Matrix, Mlp, Mode, Relu, SgdConfig, TensorError, Workspace,
};
use shoggoth_util::Rng;

/// Batch heights: one row, a frame's proposals, a mini-batch, a session.
const ROWS: [usize; 4] = [1, 15, 64, 905];

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Gaussian rows with `±0`, NaN and `±∞` planted in the first row(s).
fn awkward_batch(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let special = [
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let mut m = gaussian(rng, rows, cols);
    for (slot, &value) in m.as_mut_slice().iter_mut().zip(&special) {
        *slot = value;
    }
    m
}

fn gaussian(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian_f32(0.5, 2.0))
}

fn params(layer: &dyn Layer) -> Vec<u32> {
    let mut out = Vec::new();
    layer.export_params(&mut out);
    bits(&out)
}

fn is_missing_cache<T: std::fmt::Debug>(result: Result<T, TensorError>) -> bool {
    matches!(result, Err(TensorError::MissingForwardCache { .. }))
}

/// The outputs of a train-mode and a statistics forward, asserted equal
/// bit for bit; `None` when both failed alike, which only the
/// `finite-check` feature does (on a non-finite input).
fn both_ok(
    a: Result<Matrix, TensorError>,
    b: Result<Matrix, TensorError>,
    context: &str,
) -> Option<(Matrix, Matrix)> {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "{context}: output");
            Some((a, b))
        }
        (Err(a), Err(b)) if cfg!(feature = "finite-check") => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{context}: error");
            None
        }
        (a, b) => panic!("{context}: {a:?} vs {b:?}"),
    }
}

/// Runs `train` in `Mode::Train` and `stats`, its twin, in `Mode::Stats`
/// over a plain and an awkward batch, then both in `Mode::Eval`; asserts
/// equal outputs and parameters (γ, β and the running moments included)
/// at every step, and that `stats` refuses a backward, also after a
/// train-mode forward of its own had recorded a cache.
fn assert_stats_is_train(
    mut train: Box<dyn Layer>,
    mut stats: Box<dyn Layer>,
    cols: usize,
    label: &str,
) {
    let mut rng = Rng::seed_from(17);
    let mut ws = Workspace::new();
    for rows in ROWS {
        for (step, x) in [
            gaussian(&mut rng, rows, cols),
            awkward_batch(&mut rng, rows, cols),
        ]
        .iter()
        .enumerate()
        {
            let context = format!("{label}, {rows} rows, step {step}");
            let a = train.forward(x, Mode::Train, &mut ws);
            let b = stats.forward(x, Mode::Stats, &mut ws);
            assert_eq!(params(&*train), params(&*stats), "{context}: state");
            let Some((a, b)) = both_ok(a, b, &context) else {
                continue;
            };
            let g = gaussian(&mut rng, a.rows(), a.cols());
            assert!(
                is_missing_cache(stats.backward(&g, &mut ws)),
                "{context}: backward after a statistics pass"
            );
            // A train-mode cache does not survive a statistics pass.
            let recorded = stats.forward(x, Mode::Train, &mut ws).expect("shapes");
            let replaced = stats.forward(x, Mode::Stats, &mut ws).expect("shapes");
            assert!(
                is_missing_cache(stats.backward_params_only(&g, &mut ws)),
                "{context}: a stale train-mode cache"
            );
            let grad = train.backward(&g, &mut ws).expect("cached");
            // Keep the twins' running moments equal: the extra train and
            // statistics forwards moved `stats` twice more.
            for _ in 0..2 {
                let y = train.forward(x, Mode::Stats, &mut ws).expect("shapes");
                ws.give(y);
            }
            assert_eq!(params(&*train), params(&*stats), "{context}: state");

            let probe = gaussian(&mut rng, 3, cols);
            let a_eval = train.forward(&probe, Mode::Eval, &mut ws).expect("shapes");
            let b_eval = stats.forward(&probe, Mode::Eval, &mut ws).expect("shapes");
            assert_eq!(
                bits(a_eval.as_slice()),
                bits(b_eval.as_slice()),
                "{context}: next eval output"
            );
            for m in [a, b, recorded, replaced, grad, a_eval, b_eval] {
                ws.give(m);
            }
        }
    }
}

#[test]
fn batchrenorm_statistics_pass_is_the_train_pass() {
    let mut rng = Rng::seed_from(2);
    for dim in [5, 24] {
        let layer = trained_brn(dim, &mut rng);
        assert_stats_is_train(
            Box::new(layer.clone()),
            Box::new(layer),
            dim,
            &format!("brn {dim}"),
        );
    }
}

/// A `BatchRenorm` whose γ, β and running moments are all away from
/// their initial values (at γ = 1, β = 0 the affine step is exact
/// whichever way it is computed).
fn trained_brn(dim: usize, rng: &mut Rng) -> BatchRenorm {
    let mut layer = BatchRenorm::new(dim);
    let mut ws = Workspace::new();
    let sgd = SgdConfig::new(0.5).with_momentum(0.9);
    for _ in 0..4 {
        let x = gaussian(rng, 16, dim);
        let y = layer.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let g = Matrix::from_fn(16, dim, |_, _| rng.next_gaussian_f32(0.0, 4.0));
        let gi = layer.backward(&g, &mut ws).expect("cached");
        layer.apply_update(&sgd);
        ws.give(y);
        ws.give(gi);
    }
    layer
}

#[test]
fn dense_statistics_pass_is_the_train_pass() {
    let layer = Dense::new(24, 16, &mut Rng::seed_from(3));
    assert_stats_is_train(Box::new(layer.clone()), Box::new(layer), 24, "dense");
}

#[test]
fn relu_statistics_pass_is_the_train_pass() {
    assert_stats_is_train(Box::new(Relu::new()), Box::new(Relu::new()), 7, "relu");
}

/// The student's layer pattern: an input `BatchRenorm`, then
/// `Dense → BatchRenorm → Relu` blocks and a `Dense → Relu → Dense` head.
fn student_like(rng: &mut Rng) -> Mlp {
    Mlp::new(vec![
        Box::new(BatchRenorm::new(8)),
        Box::new(Dense::new(8, 12, rng)),
        Box::new(BatchRenorm::new(12)),
        Box::new(Relu::new()),
        Box::new(Dense::new(12, 6, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(6, 3, rng)),
    ])
}

#[test]
fn forward_range_statistics_pass_is_the_train_pass() {
    let mut rng = Rng::seed_from(5);
    let mut train = student_like(&mut rng);
    // Move every γ and β off their initial values first.
    let sgd = SgdConfig::new(0.5).with_momentum(0.9);
    let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
    let mut grad = Matrix::zeros(0, 0);
    for _ in 0..4 {
        let x = gaussian(&mut rng, 16, 8);
        train
            .train_step(0, &x, &labels, &sgd, &mut grad)
            .expect("finite");
    }
    let mut stats = train.clone();
    let front = 4;
    for rows in ROWS {
        for step in 0..2 {
            let context = format!("{rows} rows, step {step}");
            let x = if step == 0 {
                gaussian(&mut rng, rows, 8)
            } else {
                awkward_batch(&mut rng, rows, 8)
            };
            let a = train.forward_range(0..front, &x, Mode::Train);
            let b = stats.forward_range(0..front, &x, Mode::Stats);
            let Some((a, b)) = both_ok(a, b, &context) else {
                continue;
            };
            assert_eq!(
                bits(&train.export_weights()),
                bits(&stats.export_weights()),
                "{context}: weights and running moments"
            );
            let g = gaussian(&mut rng, rows, 12);
            assert!(
                is_missing_cache(stats.backward_range(0..front, &g)),
                "{context}: backward after a statistics pass"
            );
            let grad = train.backward_range(0..front, &g).expect("cached");
            train.recycle(grad);

            let probe = gaussian(&mut rng, 15, 8);
            let a_eval = train.forward(&probe, Mode::Eval).expect("shapes");
            let b_eval = stats.forward(&probe, Mode::Eval).expect("shapes");
            assert_eq!(
                bits(a_eval.as_slice()),
                bits(b_eval.as_slice()),
                "{context}: next eval output"
            );
            for m in [a, a_eval] {
                train.recycle(m);
            }
            for m in [b, b_eval] {
                stats.recycle(m);
            }
        }
    }
}

#[test]
fn a_clone_carries_no_cache_but_trains_like_its_original() {
    let mut rng = Rng::seed_from(6);
    let mut net = student_like(&mut rng);
    let sgd = SgdConfig::new(0.05).with_momentum(0.9);
    let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
    let batch = |rng: &mut Rng| gaussian(rng, 16, 8);
    let mut grad = Matrix::zeros(0, 0);
    // Train the original so it holds gradients, momentum, moments and
    // caches of its last step.
    for _ in 0..3 {
        let x = batch(&mut rng);
        net.train_step(0, &x, &labels, &sgd, &mut grad)
            .expect("finite");
    }

    // A clone taken between a train-mode forward and its backward: the
    // original keeps its cache, the clone has none.
    let mut copy = net.clone();
    let x = batch(&mut rng);
    let logits = net.forward(&x, Mode::Train).expect("shapes");
    let (_, g) = losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
    let mut mid_step = net.clone();
    assert!(is_missing_cache(mid_step.backward(&g)), "clone backward");
    assert!(
        is_missing_cache(mid_step.backward_discard(&g)),
        "clone discard"
    );
    net.backward_discard(&g)
        .expect("the original keeps its cache");
    net.step(&sgd).expect("finite");
    // A clone taken before that forward, given the same step, is level.
    assert!(is_missing_cache(copy.backward(&g)), "clone backward");
    let logits = copy.forward(&x, Mode::Train).expect("shapes");
    let (_, g) = losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
    copy.backward_discard(&g).expect("cached");
    copy.step(&sgd).expect("finite");
    assert_eq!(bits(&net.export_weights()), bits(&copy.export_weights()));

    // Several steps on each, from the front and from an interior layer,
    // give the same weights and running moments.
    let mut grad_copy = Matrix::zeros(0, 0);
    for (step, from) in [0, 0, 4, 0, 4].into_iter().enumerate() {
        let x = batch(&mut rng);
        let (x_net, x_copy) = if from == 0 {
            (x.clone(), x)
        } else {
            (
                net.forward_range(0..from, &x, Mode::Stats).expect("shapes"),
                copy.forward_range(0..from, &x, Mode::Stats)
                    .expect("shapes"),
            )
        };
        let a = net
            .train_step(from, &x_net, &labels, &sgd, &mut grad)
            .expect("finite");
        let b = copy
            .train_step(from, &x_copy, &labels, &sgd, &mut grad_copy)
            .expect("finite");
        assert_eq!(a.to_bits(), b.to_bits(), "step {step}: loss");
        assert_eq!(
            bits(&net.export_weights()),
            bits(&copy.export_weights()),
            "step {step}: weights and running moments"
        );
    }
}
