//! Flat-slice compute kernels behind the [`crate::Matrix`] hot-path ops.
//!
//! Every kernel writes into caller-provided storage and allocates nothing,
//! so the training loop can run steady-state out of a
//! [`crate::Workspace`]. Dimension checking happens at the `Matrix`
//! wrappers; the kernels trust their arguments (slices of exactly the
//! documented lengths) and keep the inner loops branch-free.
//!
//! Summation orders are part of the contract: each kernel accumulates in
//! the same order as the reference expression named in its docs, so
//! results are bit-identical to the allocating path (`matmul`,
//! `transpose` + `matmul`, `matmul` + `add_row_broadcast`). The
//! determinism tests and proptests in `tests/kernels_prop.rs` pin this
//! down to exact `f32` equality.

/// Lanes per accumulator strip: eight `f32`, which the compiler keeps in
/// two SSE (or one AVX) registers.
const LANES: usize = 8;
/// Strips per register tile: one output row by `4 × 8 = 32` columns, eight
/// SSE accumulators — half the register file, leaving room for the
/// operands.
const TILE_STRIPS: usize = 4;

/// One accumulator strip.
type Lanes = [f32; LANES];

/// `out = a · b` for row-major `a` (`m × k`), `b` (`k × n`), `out`
/// (`m × n`).
///
/// Register-tiled (see `tiled_row`): every `out[i][j]` starts from `0.0`
/// and adds `a[i][kk]·b[kk][j]` for `kk` in increasing order — the
/// classic triple loop's order. `out` is overwritten.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    for (i, out_row) in out[..m * n].chunks_exact_mut(n).enumerate() {
        let a_row = &a[i * k..][..k];
        tiled_row(|| a_row.iter().copied(), &b[..k * n], out_row);
    }
}

/// `out = a · bᵀ` for row-major `a` (`m × k`), `b` (`n × k`), `out`
/// (`m × n`) — the backward-pass kernel (`grad_input = grad_output · Wᵀ`).
///
/// Transposes `b` into `bt` (`k × n`, scratch, overwritten) and runs the
/// tiled [`matmul`]. A dot product over `k` in increasing order from
/// `0.0` is exactly `matmul`'s per-element order, so this is bit-identical
/// to `matmul(a, transpose(b))`; the transpose costs `k·n` against the
/// product's `m·k·n`.
pub fn matmul_transb(
    a: &[f32],
    b: &[f32],
    bt: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    transpose(b, bt, n, k);
    matmul(a, bt, out, m, k, n);
}

/// `out = aᵀ · b` for row-major `a` (`m × k`), `b` (`m × n`), `out`
/// (`k × n`) — the gradient-of-weights kernel
/// (`grad_W = inputᵀ · grad_output`) that avoids materializing the
/// transpose.
///
/// The same register tile as [`matmul`], sweeping the shared batch rows:
/// each `out[c][j]` starts from `0.0` and adds `a[r][c]·b[r][j]` for `r`
/// in increasing order, matching `matmul(transpose(a), b)` bit-for-bit.
pub fn matmul_transa(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let a = &a[..m * k];
    for (c, out_row) in out[..k * n].chunks_exact_mut(n).enumerate() {
        tiled_row(|| a.chunks_exact(k).map(|row| row[c]), &b[..m * n], out_row);
    }
}

/// `out = srcᵀ` for row-major `src` (`rows × cols`) and `out`
/// (`cols × rows`).
pub fn transpose(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    if rows == 0 {
        return;
    }
    for (c, out_row) in out[..cols * rows].chunks_exact_mut(rows).enumerate() {
        for (o, src_row) in out_row.iter_mut().zip(src.chunks_exact(cols)) {
            *o = src_row[c];
        }
    }
}

/// One output row `out[j] = Σ_s lhs_s · b[s][j]`, where `lhs()` yields the
/// row's left-operand scalars in step order and `b` has one row per step,
/// `out.len()` wide.
///
/// Columns go in tiles of [`TILE_STRIPS`] strips of [`LANES`]; the tail
/// reuses the tile with fewer strips, and a last partial strip runs with
/// zero-padded lanes that are never stored. Each tile sweeps every step
/// once, in increasing order, with its accumulators in registers: per
/// step, one scalar broadcast and one multiply-add per strip, no loads or
/// stores of `out`.
#[inline(always)]
fn tiled_row<I: Iterator<Item = f32>>(lhs: impl Fn() -> I, b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let mut j = 0;
    while j < n {
        let rest = n - j;
        let width = if rest >= LANES {
            (rest - rest % LANES).min(TILE_STRIPS * LANES)
        } else {
            rest
        };
        let out = &mut out[j..j + width];
        match width / LANES {
            4 => strips::<4>(lhs(), b, n, j, out),
            3 => strips::<3>(lhs(), b, n, j, out),
            2 => strips::<2>(lhs(), b, n, j, out),
            1 => strips::<1>(lhs(), b, n, j, out),
            _ => partial_strip(lhs(), b, n, j, out),
        }
        j += width;
    }
}

/// `S` full strips: `out` is columns `j..j + S·LANES` of `n`-wide rows.
#[inline(always)]
fn strips<const S: usize>(
    lhs: impl Iterator<Item = f32>,
    b: &[f32],
    n: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; LANES]; S];
    for (a, b_row) in lhs.zip(b.chunks_exact(n)) {
        let segment = &b_row[j..j + S * LANES];
        for (acc_strip, b_strip) in acc.iter_mut().zip(segment.chunks_exact(LANES)) {
            for (o, &v) in acc_strip.iter_mut().zip(b_strip) {
                *o += a * v;
            }
        }
    }
    for (o, acc_strip) in out.chunks_exact_mut(LANES).zip(&acc) {
        o.copy_from_slice(acc_strip);
    }
}

/// The last `out.len() < LANES` columns, from `j` to the end of each
/// `n`-wide row, in one zero-padded strip.
#[inline(always)]
fn partial_strip(lhs: impl Iterator<Item = f32>, b: &[f32], n: usize, j: usize, out: &mut [f32]) {
    let mut acc: Lanes = [0.0; LANES];
    for (a, b_row) in lhs.zip(b.chunks_exact(n)) {
        let tail = &b_row[j..];
        let lanes: Lanes = std::array::from_fn(|c| tail.get(c).copied().unwrap_or(0.0));
        for (o, &v) in acc.iter_mut().zip(&lanes) {
            *o += a * v;
        }
    }
    out.copy_from_slice(&acc[..out.len()]);
}

/// Adds the row vector `bias` (`n` wide) to every row of `out` (`m × n`)
/// in place — the fusion tail of `addmm` (`x·W + b`).
pub fn add_bias_rows(out: &mut [f32], bias: &[f32], m: usize, n: usize) {
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// Fused flat-parameter SGD-with-momentum step over one parameter block:
/// `v ← momentum·v − lr·(g + weight_decay·p); p ← p + v`.
///
/// One pass over three equal-length flat slices — no temporaries, no
/// per-matrix dispatch. All three slices must have the same length; excess
/// elements in a longer slice are ignored (the `Matrix` wrappers always
/// pass equal-shape parameter/gradient/velocity storage).
pub fn sgd_momentum_step(
    params: &mut [f32],
    grads: &[f32],
    velocity: &mut [f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    for ((p, &g), v) in params.iter_mut().zip(grads).zip(velocity) {
        let grad = g + weight_decay * *p;
        *v = momentum * *v - lr * grad;
        *p += *v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_hand_checked() {
        // [[1,2],[3,4]] · [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0f32; 4];
        matmul(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        // a (1×3) · bᵀ with b (2×3): out[0][j] = dot(a, b.row(j)).
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut bt = [0.0f32; 6];
        let mut out = [0.0f32; 2];
        matmul_transb(&a, &b, &mut bt, &mut out, 1, 3, 2);
        assert_eq!(bt, [4.0, 7.0, 5.0, 8.0, 6.0, 9.0]);
        assert_eq!(out, [32.0, 50.0]);
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        // aᵀ (2×1) · b (1×2) from a (1×2), b (1×2).
        let a = [2.0, 3.0];
        let b = [5.0, 7.0];
        let mut out = [0.0f32; 4];
        matmul_transa(&a, &b, &mut out, 1, 2, 2);
        assert_eq!(out, [10.0, 14.0, 15.0, 21.0]);
    }

    #[test]
    fn tails_cover_every_row_and_column_remainder() {
        // 7 rows = one 4-row tile plus a 3-row tail; 19 columns = two
        // 8-wide strips plus a 3-wide tail.
        let (m, k, n) = (7, 5, 19);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.25 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 * 0.5 - 3.0).collect();
        let mut out = vec![f32::NAN; m * n];
        matmul(&a, &b, &mut out, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                assert_eq!(out[i * n + j].to_bits(), acc.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn empty_inner_dimension_yields_zeros() {
        let mut out = [f32::NAN; 6];
        matmul(&[], &[], &mut out, 2, 0, 3);
        assert_eq!(out, [0.0; 6]);
    }

    #[test]
    fn bias_rows_broadcast() {
        let mut out = [0.0, 0.0, 1.0, 1.0];
        add_bias_rows(&mut out, &[10.0, 20.0], 2, 2);
        assert_eq!(out, [10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn sgd_step_hand_checked() {
        let mut p = [1.0f32, -2.0];
        let g = [0.5f32, 0.25];
        let mut v = [0.0f32, 0.1];
        sgd_momentum_step(&mut p, &g, &mut v, 0.1, 0.9, 0.0);
        // v0 = -0.05, p0 = 0.95; v1 = 0.09 - 0.025 = 0.065, p1 = -1.935
        assert_eq!(v, [-0.05, 0.065]);
        assert_eq!(p, [0.95, -1.935]);
    }

    #[test]
    fn sgd_step_applies_weight_decay() {
        let mut p = [2.0f32];
        let g = [0.0f32];
        let mut v = [0.0f32];
        sgd_momentum_step(&mut p, &g, &mut v, 0.5, 0.0, 0.1);
        // grad = 0 + 0.1·2 = 0.2; v = -0.1; p = 1.9
        assert_eq!(p, [1.9]);
    }
}
