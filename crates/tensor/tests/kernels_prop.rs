//! Property tests pinning the tiled `_into` kernels to a naive triple
//! loop, **bit-for-bit**.
//!
//! Training determinism (the cross-commit report and pre-training pins,
//! golden fleet runs, frozen-front equality tests) relies on every kernel
//! summing each output element in the triple loop's order: start from
//! `0.0`, add one product per step, steps in increasing order. The
//! reference below is that loop, written out independently of the kernels,
//! and every assertion compares `f32::to_bits` of the whole output — never
//! an epsilon.
//!
//! The products choose between three tiles, and each is covered:
//!
//! * full 32-column tiles and their 8-lane tails: random shapes with n up
//!   to 70, rows through 13, and k = 0;
//! * the narrow tile for the last `n mod 8` columns: every width 1–7 at
//!   rows 1–13, 15, 64 and 128 (full 4-row and 8-lane tiles and every
//!   remainder) and k = 0–70;
//! * the zero-skip for wide products with a zero-heavy left operand:
//!   n ∈ {128, 136, 200} and 32–128 rows at zero shares 0, 0.25, 0.5, 0.9
//!   and 1.0, with `+0` and `-0` mixed, plus one `∞` or NaN planted in the
//!   right operand, where only the dense tile matches the loop.
//!
//! Fixed cases run the real model shapes: a frame's 15 proposals, the
//! 64-row training batch, the teacher's 128-row pre-training batch at a
//! ReLU-like zero share, and the class head.

use proptest::prelude::*;
use shoggoth_tensor::{Matrix, Workspace};
use shoggoth_util::Rng;

/// `out[i][j] = Σ_s lhs(i, s) · rhs(s, j)`, `s` ascending from `0.0`.
fn triple_loop(
    rows: usize,
    steps: usize,
    cols: usize,
    lhs: impl Fn(usize, usize) -> f32,
    rhs: impl Fn(usize, usize) -> f32,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = 0.0f32;
            for s in 0..steps {
                acc += lhs(i, s) * rhs(s, j);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// What one check draws.
#[derive(Debug, Clone, Copy)]
struct Draw {
    /// Share of exact zeros in the left operands, half `+0`, half `-0`.
    zeros: f64,
    /// A value planted at one random position of each right operand.
    plant: Option<f32>,
}

/// The draw of the random-shape tests: one value in eight a zero.
const MIXED: Draw = Draw {
    zeros: 0.125,
    plant: None,
};

/// ReLU outputs and ReLU-masked gradients: about half exact zeros.
const RELU: Draw = Draw {
    zeros: 0.5,
    plant: None,
};

/// A `rows × cols` matrix of draws from `[-4, 4)`, each an exact zero
/// with probability `zeros`, `+0.0` or `-0.0` alike.
fn random(rng: &mut Rng, rows: usize, cols: usize, zeros: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.bernoulli(zeros) {
            if rng.bernoulli(0.5) {
                -0.0
            } else {
                0.0
            }
        } else {
            rng.next_f32() * 8.0 - 4.0
        }
    })
}

/// A right operand: [`random`] without zeros beyond chance, with
/// `plant` written over one random element.
fn right(rng: &mut Rng, rows: usize, cols: usize, plant: Option<f32>) -> Matrix {
    let mut m = random(rng, rows, cols, 0.125);
    if let Some(v) = plant {
        if rows * cols > 0 {
            let at = rng.below(rows * cols);
            m.as_mut_slice()[at] = v;
        }
    }
    m
}

/// Checks every kernel at one shape: `matmul_into` and `addmm_into` on
/// `a (m × k) · b (k × n)`, `matmul_transb_into` on `a · bᵀ` with `b` given
/// as `n × k`, and `matmul_transa_into` on `aᵀ · b` with `a` given as
/// `k × m`. A stale, wrongly shaped output must be fully overwritten.
fn check(m: usize, k: usize, n: usize, seed: u64, draw: Draw) -> Result<(), String> {
    let mut rng = Rng::seed_from(seed);
    let a = random(&mut rng, m, k, draw.zeros);
    let b = right(&mut rng, k, n, draw.plant);
    let bias = random(&mut rng, 1, n, 0.125);
    let b_t = right(&mut rng, n, k, draw.plant);
    let a_t = random(&mut rng, k, m, draw.zeros);
    let mut ws = Workspace::new();
    let stale = || Matrix::filled(3, 2, f32::NAN);
    let shape = format!("m={m} k={k} n={n} {draw:?}");

    let expected = triple_loop(m, k, n, |i, s| a.get(i, s), |s, j| b.get(s, j));
    let mut out = stale();
    a.matmul_into(&b, &mut out, &mut ws)
        .map_err(|e| e.to_string())?;
    if bits(&out) != expected || (out.rows(), out.cols()) != (m, n) {
        return Err(format!("matmul_into differs at {shape}"));
    }
    let allocating = a.matmul(&b).map_err(|e| e.to_string())?;
    if bits(&allocating) != expected {
        return Err(format!("matmul differs at {shape}"));
    }

    let mut out = stale();
    a.addmm_into(&b, &bias, &mut out, &mut ws)
        .map_err(|e| e.to_string())?;
    let with_bias: Vec<u32> = expected
        .iter()
        .enumerate()
        .map(|(idx, &v)| (f32::from_bits(v) + bias.get(0, idx % n)).to_bits())
        .collect();
    if bits(&out) != with_bias {
        return Err(format!("addmm_into differs at {shape}"));
    }

    let expected = triple_loop(m, k, n, |i, s| a.get(i, s), |s, j| b_t.get(j, s));
    let mut out = stale();
    a.matmul_transb_into(&b_t, &mut out, &mut ws)
        .map_err(|e| e.to_string())?;
    if bits(&out) != expected || (out.rows(), out.cols()) != (m, n) {
        return Err(format!("matmul_transb_into differs at {shape}"));
    }

    let expected = triple_loop(m, k, n, |i, s| a_t.get(s, i), |s, j| b.get(s, j));
    let mut out = stale();
    a_t.matmul_transa_into(&b, &mut out, &mut ws)
        .map_err(|e| e.to_string())?;
    if bits(&out) != expected || (out.rows(), out.cols()) != (m, n) {
        return Err(format!("matmul_transa_into differs at {shape}"));
    }
    Ok(())
}

fn check_shape(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    check(m, k, n, seed, MIXED)
}

/// The zero shares the zero-skip tests draw: none, below the skip's gate,
/// ReLU-like, sparse, and all zeros.
const ZERO_SHARES: [f64; 5] = [0.0, 0.25, 0.5, 0.9, 1.0];

proptest! {
    #[test]
    fn kernels_match_the_triple_loop(
        dims in (1usize..14, 0usize..71, 1usize..71),
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let checked = check_shape(m, k, n, seed);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }

    #[test]
    fn wide_zero_heavy_products_match_the_triple_loop(
        dims in (32usize..65, 0usize..41, 128usize..201),
        share in 0usize..5,
        seed in any::<u64>(),
    ) {
        let (m, k, n) = dims;
        let draw = Draw { zeros: ZERO_SHARES[share], plant: None };
        let checked = check(m, k, n, seed, draw);
        prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}

#[test]
fn every_column_remainder_and_row_count_matches() {
    for n in 1..=70 {
        for m in [1, 2, 3, 4, 5, 13] {
            for k in [0, 1, 3, 9] {
                let seed = (m * 10_000 + k * 100 + n) as u64;
                if let Err(e) = check_shape(m, k, n, seed) {
                    panic!("{e}");
                }
            }
        }
    }
}

#[test]
fn every_narrow_width_matches() {
    let rows = (1..=13).chain([15, 64, 128]);
    for m in rows {
        for n in 1..=7 {
            for k in 0..=70 {
                let seed = (m * 10_000 + k * 100 + n) as u64;
                if let Err(e) = check_shape(m, k, n, seed) {
                    panic!("{e}");
                }
            }
        }
    }
}

#[test]
fn zero_skip_shapes_match() {
    for n in [128, 136, 200] {
        for m in [32, 64, 128] {
            for zeros in ZERO_SHARES {
                let seed = (m * 1_000 + n) as u64;
                let draw = Draw { zeros, plant: None };
                if let Err(e) = check(m, 33, n, seed, draw) {
                    panic!("{e}");
                }
            }
        }
    }
}

#[test]
fn non_finite_right_operands_take_the_dense_tile() {
    // With a zero-heavy left operand these shapes pass every other gate of
    // the zero-skip; skipping `0 · ∞` or `0 · NaN` would lose the NaN the
    // triple loop produces. Under `finite-check` the wrappers reject the
    // non-finite product instead.
    for plant in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        for zeros in [0.5, 0.9] {
            let draw = Draw {
                zeros,
                plant: Some(plant),
            };
            for checked in [check(64, 48, 136, 5, draw), check(128, 128, 128, 6, draw)] {
                if cfg!(feature = "finite-check") {
                    assert!(checked.is_err_and(|e| e.contains("non-finite")));
                } else {
                    assert_eq!(checked, Ok(()));
                }
            }
        }
    }
}

#[test]
fn real_model_shapes_match() {
    // Student inference: one frame's ~15 proposals through a 32 → 64 layer.
    assert_eq!(check_shape(15, 32, 64, 1), Ok(()));
    // Training step at the paper's hidden width.
    assert_eq!(check_shape(64, 128, 128, 2), Ok(()));
    // Teacher pre-training batch, dense and at a ReLU-like zero share.
    assert_eq!(check_shape(128, 128, 128, 3), Ok(()));
    assert_eq!(check(128, 128, 128, 3, RELU), Ok(()));
    assert_eq!(check_shape(128, 128, 64, 4), Ok(()));
    // The class head (four classes plus background): a training batch and
    // one frame.
    assert_eq!(check(64, 32, 5, 7, RELU), Ok(()));
    assert_eq!(check(15, 64, 5, 8, RELU), Ok(()));
}
