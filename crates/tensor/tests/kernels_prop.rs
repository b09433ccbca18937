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
//! Shapes cover full 32-column tiles plus every column remainder (n up to
//! 70), row counts through 13, and k = 0; fixed cases run the real model
//! shapes (a frame's 15 proposals through the student, the 64-row training
//! batch through 128-wide layers, the teacher's 128-row pre-training batch).

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

/// A `rows × cols` matrix of draws from `[-4, 4)`, with exact zeros and
/// negative zeros mixed in so sign-of-zero handling is exercised.
fn random(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| match rng.below(16) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.next_f32() * 8.0 - 4.0,
    })
}

/// Checks every kernel at one shape: `matmul_into` and `addmm_into` on
/// `a (m × k) · b (k × n)`, `matmul_transb_into` on `a · bᵀ` with `b` given
/// as `n × k`, and `matmul_transa_into` on `aᵀ · b` with `a` given as
/// `k × m`. A stale, wrongly shaped output must be fully overwritten.
fn check_shape(m: usize, k: usize, n: usize, seed: u64) -> Result<(), String> {
    let mut rng = Rng::seed_from(seed);
    let a = random(&mut rng, m, k);
    let b = random(&mut rng, k, n);
    let bias = random(&mut rng, 1, n);
    let b_t = random(&mut rng, n, k);
    let a_t = random(&mut rng, k, m);
    let mut ws = Workspace::new();
    let stale = || Matrix::filled(3, 2, f32::NAN);
    let shape = format!("m={m} k={k} n={n}");

    let expected = triple_loop(m, k, n, |i, s| a.get(i, s), |s, j| b.get(s, j));
    let mut out = stale();
    a.matmul_into(&b, &mut out).map_err(|e| e.to_string())?;
    if bits(&out) != expected || (out.rows(), out.cols()) != (m, n) {
        return Err(format!("matmul_into differs at {shape}"));
    }
    let allocating = a.matmul(&b).map_err(|e| e.to_string())?;
    if bits(&allocating) != expected {
        return Err(format!("matmul differs at {shape}"));
    }

    let mut out = stale();
    a.addmm_into(&b, &bias, &mut out)
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
    a_t.matmul_transa_into(&b, &mut out)
        .map_err(|e| e.to_string())?;
    if bits(&out) != expected || (out.rows(), out.cols()) != (m, n) {
        return Err(format!("matmul_transa_into differs at {shape}"));
    }
    Ok(())
}

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
fn real_model_shapes_match() {
    // Student inference: one frame's ~15 proposals through a 32 → 64 layer.
    assert_eq!(check_shape(15, 32, 64, 1), Ok(()));
    // Training step at the paper's hidden width.
    assert_eq!(check_shape(64, 128, 128, 2), Ok(()));
    // Teacher pre-training batch.
    assert_eq!(check_shape(128, 128, 128, 3), Ok(()));
    assert_eq!(check_shape(128, 128, 64, 4), Ok(()));
}
