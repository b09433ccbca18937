//! The in-place eval forward (`Layer::forward_eval_in_place`) against the
//! eval formulas, **bit for bit**, and the eval-stats cache of
//! `BatchRenorm` against a fresh layer.
//!
//! `Mlp::forward_range` runs every eval-mode layer after the first in
//! place, so an inference pass gives the same bits as the layer-by-layer
//! out-of-place pass only if each in-place forward repeats the layer's
//! arithmetic exactly: `max(v, 0)` for `Relu`, and
//! `γ·((x − μ)·s + 0) + β` with `s = 1/√(σ² + ε)` for `BatchRenorm`. The
//! inputs include `±0`, NaN and `±∞`, where a reordered or simplified
//! expression would show.

use shoggoth_tensor::{
    BatchRenorm, Dense, Layer, Matrix, Mlp, Mode, ParamCursor, Relu, SgdConfig, Workspace,
};
use shoggoth_util::Rng;

/// `BatchRenorm`'s variance epsilon.
const EPS: f32 = 1e-5;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Gaussian rows with the special values planted in the first row(s).
fn awkward_batch(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let special = [
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];
    let mut m = Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian_f32(0.5, 2.0));
    for (slot, &value) in m.as_mut_slice().iter_mut().zip(&special) {
        *slot = value;
    }
    m
}

/// A layer's eval output three ways: out of place, in place, and (the
/// reference) the formula computed here from `reference`.
fn assert_in_place_matches(
    layer: &mut dyn Layer,
    x: &Matrix,
    reference: impl Fn(usize, f32) -> f32,
    label: &str,
) {
    let mut ws = Workspace::new();
    let out = layer.forward(x, Mode::Eval, &mut ws).expect("shapes");
    let mut in_place = x.clone();
    assert!(
        layer.forward_eval_in_place(&mut in_place),
        "{label}: handled"
    );
    let cols = x.cols();
    let expected: Vec<f32> = x
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &v)| reference(i % cols, v))
        .collect();
    assert_eq!(bits(in_place.as_slice()), bits(out.as_slice()), "{label}");
    assert_eq!(bits(in_place.as_slice()), bits(&expected), "{label}");
}

/// `(γ, β, μ, σ²)` of a `BatchRenorm` layer, from its exported parameters.
fn brn_params(layer: &BatchRenorm) -> [Vec<f32>; 4] {
    let mut params = Vec::new();
    layer.export_params(&mut params);
    let dim = params.len() / 4;
    let part = |k: usize| params[k * dim..(k + 1) * dim].to_vec();
    [part(0), part(1), part(2), part(3)]
}

/// The eval formula over `layer`'s current parameters and moments.
fn brn_reference(layer: &BatchRenorm) -> impl Fn(usize, f32) -> f32 {
    let [gamma, beta, mean, var] = brn_params(layer);
    move |c, x| {
        let scale = 1.0 / (var[c] + EPS).sqrt();
        gamma[c] * ((x - mean[c]) * scale + 0.0) + beta[c]
    }
}

/// A `BatchRenorm` whose γ, β and running moments are all away from
/// their initial values, some γ and β negative.
fn trained_brn(dim: usize, rng: &mut Rng) -> BatchRenorm {
    let mut layer = BatchRenorm::new(dim);
    let mut ws = Workspace::new();
    let sgd = SgdConfig::new(0.5).with_momentum(0.9);
    for _ in 0..4 {
        let x = Matrix::from_fn(16, dim, |_, _| rng.next_gaussian_f32(1.0, 3.0));
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
fn relu_in_place_is_the_rectifier_bit_for_bit() {
    let mut rng = Rng::seed_from(1);
    for (rows, cols) in [(1, 10), (3, 7), (15, 32), (0, 4)] {
        let x = awkward_batch(&mut rng, rows, cols);
        let mut relu = Relu::new();
        assert_in_place_matches(&mut relu, &x, |_, v| v.max(0.0), "relu");
        // The train-mode forward computes the same expression.
        let mut ws = Workspace::new();
        let train = relu.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let eval = relu.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        assert_eq!(bits(train.as_slice()), bits(eval.as_slice()));
    }
}

#[test]
fn batchrenorm_in_place_is_the_eval_formula_bit_for_bit() {
    let mut rng = Rng::seed_from(2);
    for dim in [1, 5, 24, 32] {
        let mut layer = trained_brn(dim, &mut rng);
        for rows in [1, 3, 15] {
            let x = awkward_batch(&mut rng, rows, dim);
            let reference = brn_reference(&layer);
            assert_in_place_matches(&mut layer, &x, reference, &format!("brn {dim}x{rows}"));
        }
        // A fresh layer: γ = 1, β = 0, μ = 0, σ² = 1.
        let mut fresh = BatchRenorm::new(dim);
        let x = awkward_batch(&mut rng, 4, dim);
        let reference = brn_reference(&fresh);
        assert_in_place_matches(&mut fresh, &x, reference, &format!("fresh brn {dim}"));
    }
}

#[test]
fn in_place_declines_a_wrong_width() {
    let mut layer = BatchRenorm::new(4);
    let mut x = Matrix::filled(2, 3, 1.5);
    assert!(!layer.forward_eval_in_place(&mut x));
    assert_eq!(x.as_slice(), &[1.5; 6], "a declined input is untouched");
    let mut ws = Workspace::new();
    assert!(layer.forward(&x, Mode::Eval, &mut ws).is_err());
    // Layers without an in-place form decline every input.
    let mut dense = Dense::new(3, 2, &mut Rng::seed_from(3));
    assert!(!dense.forward_eval_in_place(&mut x));
}

/// The eval output of `layer` equals that of a fresh layer loaded from its
/// exported parameters.
fn assert_cache_current(layer: &mut BatchRenorm, x: &Matrix, label: &str) {
    let mut params = Vec::new();
    layer.export_params(&mut params);
    let mut fresh = BatchRenorm::new(x.cols());
    fresh
        .import_params(&mut ParamCursor::new(&params))
        .expect("params fit");
    let mut ws = Workspace::new();
    let live = layer.forward(x, Mode::Eval, &mut ws).expect("shapes");
    let expected = fresh.forward(x, Mode::Eval, &mut ws).expect("shapes");
    assert_eq!(bits(live.as_slice()), bits(expected.as_slice()), "{label}");
}

#[test]
fn eval_stats_cache_never_goes_stale() {
    let mut rng = Rng::seed_from(4);
    let dim = 6;
    let mut layer = BatchRenorm::new(dim);
    let mut ws = Workspace::new();
    let x = Matrix::from_fn(5, dim, |_, _| rng.next_gaussian_f32(0.0, 2.0));
    // Warm the cache on the initial moments.
    assert_cache_current(&mut layer, &x, "initial");

    // A train-mode forward moves the running moments.
    let batch = Matrix::from_fn(32, dim, |_, _| rng.next_gaussian_f32(3.0, 4.0));
    let y = layer.forward(&batch, Mode::Train, &mut ws).expect("shapes");
    assert_cache_current(&mut layer, &x, "after a train-mode forward");

    // A step moves γ and β.
    let g = Matrix::from_fn(32, dim, |_, _| rng.next_gaussian_f32(0.0, 1.0));
    layer.backward(&g, &mut ws).expect("cached");
    layer.apply_update(&SgdConfig::new(0.3));
    assert_cache_current(&mut layer, &x, "after apply_update");
    ws.give(y);

    // An import replaces everything, the moments included.
    let other = trained_brn(dim, &mut rng);
    let mut params = Vec::new();
    other.export_params(&mut params);
    layer
        .import_params(&mut ParamCursor::new(&params))
        .expect("params fit");
    assert_cache_current(&mut layer, &x, "after import_params");
    let mut ws = Workspace::new();
    let live = layer.forward(&x, Mode::Eval, &mut ws).expect("shapes");
    let mut imported = other.clone();
    let expected = imported.forward(&x, Mode::Eval, &mut ws).expect("shapes");
    assert_eq!(bits(live.as_slice()), bits(expected.as_slice()));
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
fn network_eval_matches_the_layer_by_layer_pass() {
    let mut rng = Rng::seed_from(5);
    let mut net = student_like(&mut rng);
    let sgd = SgdConfig::new(0.05);
    let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
    for round in 0..3 {
        // Train a little so every moment and parameter moves.
        let batch = Matrix::from_fn(16, 8, |_, _| rng.next_gaussian_f32(0.5, 1.5));
        let logits = net.forward(&batch, Mode::Train).expect("shapes");
        let (_, grad) =
            shoggoth_tensor::losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
        net.backward(&grad).expect("cached");
        net.step(&sgd).expect("finite");

        let x = Matrix::from_fn(15, 8, |_, _| rng.next_gaussian_f32(0.0, 2.0));
        let full = net.forward(&x, Mode::Eval).expect("shapes");
        let mut current = x.clone();
        for layer in 0..net.len() {
            current = net
                .forward_range(layer..layer + 1, &current, Mode::Eval)
                .expect("shapes");
        }
        assert_eq!(
            bits(full.as_slice()),
            bits(current.as_slice()),
            "round {round}"
        );
        let mut copy = student_like(&mut Rng::seed_from(99));
        copy.import_weights(&net.export_weights())
            .expect("same shape");
        let fresh = copy.forward(&x, Mode::Eval).expect("shapes");
        assert_eq!(
            bits(full.as_slice()),
            bits(fresh.as_slice()),
            "round {round}: fresh copy"
        );
    }
}

#[test]
fn eval_forward_allocates_nothing_after_warm_up() {
    let mut rng = Rng::seed_from(6);
    let mut net = student_like(&mut rng);
    let batches: Vec<Matrix> = [15, 3, 9, 15, 1, 12]
        .iter()
        .map(|&rows| Matrix::from_fn(rows, 8, |_, _| rng.next_gaussian_f32(0.0, 1.0)))
        .collect();
    let pass = |net: &mut Mlp| {
        for x in &batches {
            let input = net
                .batch_from(x.rows(), x.cols(), x.as_slice())
                .expect("fits");
            let logits = net.forward(&input, Mode::Eval).expect("shapes");
            net.recycle(logits);
            net.recycle(input);
        }
    };
    pass(&mut net);
    let warm = net.workspace_allocations();
    for _ in 0..5 {
        pass(&mut net);
    }
    assert_eq!(net.workspace_allocations(), warm);
}

#[test]
fn batch_from_rejects_a_short_buffer() {
    let mut net = student_like(&mut Rng::seed_from(7));
    assert!(net.batch_from(2, 8, &[0.0; 15]).is_err());
    let m = net.batch_from(2, 8, &[0.25; 16]).expect("fits");
    assert_eq!((m.rows(), m.cols()), (2, 8));
    assert_eq!(m.as_slice(), &[0.25; 16]);
}
