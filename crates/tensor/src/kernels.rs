//! Flat-slice compute kernels behind the [`crate::Matrix`] hot-path ops.
//!
//! Every kernel writes into caller-provided storage and allocates nothing,
//! so the training loop can run steady-state out of a
//! [`crate::Workspace`]; the products borrow their [`Scratch`] from it.
//! Dimension checking happens at the `Matrix` wrappers; the kernels trust
//! their arguments (slices of exactly the documented lengths, scratch
//! reserved for the product).
//!
//! Summation orders are part of the contract: each kernel accumulates in
//! the same order as the reference expression named in its docs, so
//! results are bit-identical to the allocating path (`matmul`,
//! `transpose` + `matmul`, `matmul` + `add_row_broadcast`). Each product
//! picks one of three tiles, all in that order:
//!
//! * full 8-lane strips of output columns, one output row at a time;
//! * the last `n mod 8` columns in a narrow tile of several output rows;
//! * for wide products whose left operand is largely exact zeros (ReLU
//!   outputs, ReLU-masked gradients), the full strips sweep only the
//!   nonzero steps, which is exact because an accumulator that starts at
//!   `+0.0` is unchanged by adding a `±0` product.
//!
//! The determinism tests and proptests in `tests/kernels_prop.rs` pin all
//! of this down to exact `f32` equality.

use shoggoth_util::float::is_exact_zero;

/// Lanes per accumulator strip: eight `f32`, which the compiler keeps in
/// two SSE (or one AVX) registers.
const LANES: usize = 8;
/// Strips per register tile: one output row by `4 × 8 = 32` columns, eight
/// SSE accumulators — half the register file, leaving room for the
/// operands.
const TILE_STRIPS: usize = 4;
/// Output rows per narrow tile (`matmul`'s last `n mod 8` columns): four
/// rows of one strip, eight SSE accumulators.
const NARROW_ROWS: usize = 4;
/// The zero-skip runs only on products at least this many columns wide
/// (four full tiles)…
const SKIP_MIN_COLS: usize = 4 * TILE_STRIPS * LANES;
/// …with at least this many output rows, to pay for the finite scan of
/// `b`…
const SKIP_MIN_ROWS: usize = 32;
/// …and at least this many fifths of the left operand exact zeros.
const SKIP_ZERO_FIFTHS: usize = 2;

/// One accumulator strip.
type Lanes = [f32; LANES];

/// One step of a compacted left-operand row: its nonzero value and the
/// offset of the `b` row it multiplies.
type Step = (f32, usize);

/// Caller-owned scratch for [`matmul`] and [`matmul_transa`]: the
/// zero-padded panel of the narrow tile and the zero-skip's compacted
/// steps. [`Scratch::reserve`] sizes it for a product before the call.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// One strip per step: `b`'s last columns (`matmul`) or `a`'s last
    /// columns (`matmul_transa`), zero-padded to [`LANES`].
    panel: Vec<Lanes>,
    /// One output row's nonzero steps, in step order.
    steps: Vec<Step>,
}

impl Scratch {
    /// Grows the buffers to serve a product of `steps` steps: `k` for
    /// [`matmul`], `m` for [`matmul_transa`]. Returns whether fresh heap
    /// memory was needed.
    pub fn reserve(&mut self, steps: usize) -> bool {
        let allocates = self.steps.capacity() < steps || self.panel.capacity() < steps;
        if self.steps.len() < steps {
            self.steps.resize(steps, (0.0, 0));
            self.panel.resize(steps, [0.0; LANES]);
        }
        allocates
    }
}

/// `out = a · b` for row-major `a` (`m × k`), `b` (`k × n`), `out`
/// (`m × n`), with `scratch` reserved for `k` steps.
///
/// Every `out[i][j]` starts from `0.0` and adds `a[i][kk]·b[kk][j]` for
/// `kk` in increasing order — the classic triple loop's order. Full
/// strips run in the one-row tile (`tiled_row`), sweeping only the
/// nonzero `a[i][kk]` when `skips_zeros` holds; the last `n mod 8`
/// columns run in the narrow tile (`narrow_rows`). `out` is overwritten.
pub fn matmul(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    if n == 0 {
        return;
    }
    let (a, b, out) = (&a[..m * k], &b[..k * n], &mut out[..m * n]);
    let wide = n - n % LANES;
    let skip = skips_zeros(a, b, m, n);
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[i * k..][..k];
        let out_row = &mut out_row[..wide];
        if skip {
            sparse_row(
                compact(a_row.iter().copied(), n, &mut scratch.steps),
                b,
                out_row,
            );
        } else {
            tiled_row(|j| a_row.iter().copied().zip(rows_from(b, n, j)), out_row);
        }
    }
    if wide < n {
        let panel = pad_columns(b, n, wide, &mut scratch.panel);
        narrow_rows(a, k, panel, out, n, wide);
    }
}

/// `out = a · bᵀ` for row-major `a` (`m × k`), `b` (`n × k`), `out`
/// (`m × n`) — the backward-pass kernel (`grad_input = grad_output · Wᵀ`),
/// with `scratch` reserved for `k` steps.
///
/// Transposes `b` into `bt` (`k × n`, scratch, overwritten) and runs
/// [`matmul`]. A dot product over `k` in increasing order from `0.0` is
/// exactly `matmul`'s per-element order, so this is bit-identical to
/// `matmul(a, transpose(b))`; the transpose costs `k·n` against the
/// product's `m·k·n`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_transb(
    a: &[f32],
    b: &[f32],
    bt: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    transpose(b, bt, n, k);
    matmul(a, bt, out, m, k, n, scratch);
}

/// `out = aᵀ · b` for row-major `a` (`m × k`), `b` (`m × n`), `out`
/// (`k × n`) — the gradient-of-weights kernel
/// (`grad_W = inputᵀ · grad_output`) that avoids materializing the
/// transpose, with `scratch` reserved for `m` steps.
///
/// Each `out[c][j]` starts from `0.0` and adds `a[r][c]·b[r][j]` for `r`
/// in increasing order, matching `matmul(transpose(a), b)` bit-for-bit.
/// Full strips run in [`matmul`]'s one-row tile, reading `a` down a column
/// (or its compacted nonzeros); the last `n mod 8` columns run in a tile
/// whose lanes are 8 output rows, since `a[r][c..c + 8]` is contiguous
/// (`narrow_lanes`).
pub fn matmul_transa(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    if n == 0 {
        return;
    }
    let (a, b, out) = (&a[..m * k], &b[..m * n], &mut out[..k * n]);
    let wide = n - n % LANES;
    let skip = skips_zeros(a, b, k, n);
    for (c, out_row) in out.chunks_exact_mut(n).enumerate() {
        let column = || a.chunks_exact(k).map(move |row| row[c]);
        let out_row = &mut out_row[..wide];
        if skip {
            sparse_row(compact(column(), n, &mut scratch.steps), b, out_row);
        } else {
            tiled_row(|j| column().zip(rows_from(b, n, j)), out_row);
        }
    }
    if wide < n {
        narrow_lanes(a, k, b, out, n, wide, &mut scratch.panel);
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

/// Whether a product with left operand `lhs`, right operand `b` and
/// `rows × n` output runs its full strips over compacted nonzero steps.
///
/// Exact: each output starts at `+0.0`, and a sum that starts at `+0.0`
/// never becomes `-0.0` (round-to-nearest gives `x + (-x) = +0.0`), so
/// adding a `±0` product leaves it unchanged — *if* the product is `±0`.
/// That needs every `b` finite: `0·∞` is NaN. The other gates are where
/// the skip pays: a compacted step costs about 1.4 dense steps, so it
/// needs enough zeros, and the two scans (zeros in `lhs`, finiteness of
/// `b`) must be small against the `rows·k·n` product.
fn skips_zeros(lhs: &[f32], b: &[f32], rows: usize, n: usize) -> bool {
    n >= SKIP_MIN_COLS
        && rows >= SKIP_MIN_ROWS
        && exact_zeros(lhs) * 5 >= lhs.len() * SKIP_ZERO_FIFTHS
        && b.iter().fold(true, |finite, v| finite & v.is_finite())
}

/// How many of `values` are `±0`. Both gate scans are folds without an
/// early exit, which the compiler vectorizes; the count runs in `u32`
/// lanes over chunks that cannot overflow them.
fn exact_zeros(values: &[f32]) -> usize {
    values
        .chunks(1 << 24)
        .map(|chunk| {
            let zeros: u32 = chunk.iter().map(|&v| u32::from(is_exact_zero(v))).sum();
            zeros as usize
        })
        .sum()
}

/// Compacts one output row's left-operand scalars (`lhs`, in step order)
/// into `steps`: each nonzero value with the offset `s · stride` of the
/// `b` row that step `s` multiplies, step order kept. Branch-free: every
/// value is written, and the length advances past nonzeros only.
fn compact(lhs: impl Iterator<Item = f32>, stride: usize, steps: &mut [Step]) -> &[Step] {
    let mut len = 0;
    for (s, v) in lhs.enumerate() {
        steps[len] = (v, s * stride);
        len += usize::from(!is_exact_zero(v));
    }
    &steps[..len]
}

/// One output row's full strips `out[j] = Σ_s lhs_s · b_s[j]`, where
/// `steps(j)` yields each step's left-operand scalar and its `b` row from
/// column `j` on, in step order; `out.len()` is a multiple of [`LANES`].
///
/// Columns go in tiles of [`TILE_STRIPS`] strips of [`LANES`]; the tail
/// reuses the tile with fewer strips. Each tile sweeps every step once,
/// in order, with its accumulators in registers: per step, one scalar
/// broadcast and one multiply-add per strip, no loads or stores of `out`.
#[inline(always)]
fn tiled_row<'b, I: Iterator<Item = (f32, &'b [f32])>>(
    steps: impl Fn(usize) -> I,
    out: &mut [f32],
) {
    for (t, tile) in out.chunks_mut(TILE_STRIPS * LANES).enumerate() {
        let steps = steps(t * TILE_STRIPS * LANES);
        match tile.len() / LANES {
            4 => strips::<4>(steps, tile),
            3 => strips::<3>(steps, tile),
            2 => strips::<2>(steps, tile),
            _ => strips::<1>(steps, tile),
        }
    }
}

/// [`tiled_row`] over compacted `steps` (see [`compact`]). Not inlined:
/// `matmul` and `matmul_transa` share one copy of its four tiles.
#[inline(never)]
fn sparse_row(steps: &[Step], b: &[f32], out: &mut [f32]) {
    tiled_row(|j| steps.iter().map(move |&(v, at)| (v, &b[at + j..])), out);
}

/// The `n`-wide rows of `b`, each from column `j` on.
#[inline(always)]
fn rows_from(b: &[f32], n: usize, j: usize) -> impl Iterator<Item = &[f32]> {
    b.chunks_exact(n).map(move |row| &row[j..])
}

/// `S` full strips: each step's `b` row starts at `out`'s first column.
#[inline(always)]
fn strips<'b, const S: usize>(steps: impl Iterator<Item = (f32, &'b [f32])>, out: &mut [f32]) {
    let mut acc = [[0.0f32; LANES]; S];
    for (a, b_row) in steps {
        let (segment, _) = b_row[..S * LANES].as_chunks::<LANES>();
        for (acc_strip, b_strip) in acc.iter_mut().zip(segment) {
            for (o, &v) in acc_strip.iter_mut().zip(b_strip) {
                *o += a * v;
            }
        }
    }
    for (o, acc_strip) in out.chunks_exact_mut(LANES).zip(&acc) {
        o.copy_from_slice(acc_strip);
    }
}

/// Copies columns `from..` (fewer than [`LANES`]) of every `cols`-wide row
/// of `src` into the front of `panel`, one zero-padded strip per row;
/// returns the filled part.
fn pad_columns<'p>(src: &[f32], cols: usize, from: usize, panel: &'p mut [Lanes]) -> &'p [Lanes] {
    let panel = &mut panel[..src.len() / cols];
    for (strip, src_row) in panel.iter_mut().zip(src.chunks_exact(cols)) {
        let tail = &src_row[from..];
        *strip = std::array::from_fn(|c| tail.get(c).copied().unwrap_or(0.0));
    }
    panel
}

/// `matmul`'s last columns `wide..n`: `panel` holds them as one
/// zero-padded strip per `b` row, and [`NARROW_ROWS`] output rows share
/// each step's strip, one accumulator strip per row.
///
/// A lone row would run one strip of add chains at FP-add latency; four
/// rows keep eight independent chains in flight and load the strip once.
/// The padding lanes are never stored.
fn narrow_rows(a: &[f32], k: usize, panel: &[Lanes], out: &mut [f32], n: usize, wide: usize) {
    let m = out.len() / n;
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(NARROW_ROWS);
        let a = &a[i * k..(i + rows) * k];
        let out = &mut out[i * n..(i + rows) * n];
        match rows {
            4 => row_tile::<4>(a, k, panel, out, n, wide),
            3 => row_tile::<3>(a, k, panel, out, n, wide),
            2 => row_tile::<2>(a, k, panel, out, n, wide),
            _ => row_tile::<1>(a, k, panel, out, n, wide),
        }
        i += rows;
    }
}

/// `R` output rows of [`narrow_rows`]: `a` is their `R × k` block, `out`
/// their `R × n` block. Each step gathers the rows' `R` scalars first,
/// then multiplies them into the step's strip.
#[inline(always)]
fn row_tile<const R: usize>(
    a: &[f32],
    k: usize,
    panel: &[Lanes],
    out: &mut [f32],
    n: usize,
    wide: usize,
) {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    let mut acc = [[0.0f32; LANES]; R];
    for (s, b_strip) in panel[..k].iter().enumerate() {
        let column: [f32; R] = std::array::from_fn(|r| rows[r][s]);
        for r in 0..R {
            for l in 0..LANES {
                acc[r][l] += column[r] * b_strip[l];
            }
        }
    }
    for (acc_strip, out_row) in acc.iter().zip(out.chunks_exact_mut(n)) {
        out_row[wide..].copy_from_slice(&acc_strip[..n - wide]);
    }
}

/// `matmul_transa`'s last columns `wide..n`: the lanes are [`LANES`]
/// output rows `c..c + 8`, whose left operands `a[r][c..c + 8]` are
/// contiguous, with one accumulator strip per column and `b[r][j]`
/// broadcast. The last `k mod 8` output rows read `a`'s last columns from
/// a zero-padded copy in `panel`; the padding lanes are never stored.
fn narrow_lanes(
    a: &[f32],
    k: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    wide: usize,
    panel: &mut [Lanes],
) {
    let full = k - k % LANES;
    for c in (0..full).step_by(LANES) {
        lane_tile(a, k, c, b, &mut out[c * n..(c + LANES) * n], n, wide);
    }
    if full < k {
        let panel = pad_columns(a, k, full, panel).as_flattened();
        lane_tile(panel, LANES, 0, b, &mut out[full * n..], n, wide);
    }
}

/// One [`narrow_lanes`] tile: `lhs` has `stride`-wide rows whose columns
/// `c..c + 8` are the lanes; `out` holds this tile's output rows (up to
/// [`LANES`] of them).
fn lane_tile(
    lhs: &[f32],
    stride: usize,
    c: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    wide: usize,
) {
    match n - wide {
        1 => columns::<1>(lhs, stride, c, b, out, n, wide),
        2 => columns::<2>(lhs, stride, c, b, out, n, wide),
        3 => columns::<3>(lhs, stride, c, b, out, n, wide),
        4 => columns::<4>(lhs, stride, c, b, out, n, wide),
        5 => columns::<5>(lhs, stride, c, b, out, n, wide),
        6 => columns::<6>(lhs, stride, c, b, out, n, wide),
        _ => columns::<7>(lhs, stride, c, b, out, n, wide),
    }
}

/// [`lane_tile`] for `W = n - wide` columns.
#[inline(always)]
fn columns<const W: usize>(
    lhs: &[f32],
    stride: usize,
    c: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    wide: usize,
) {
    let mut acc = [[0.0f32; LANES]; W];
    for (lhs_row, b_row) in lhs.chunks_exact(stride).zip(b.chunks_exact(n)) {
        let lanes = &lhs_row[c..c + LANES];
        for (acc_strip, &bv) in acc.iter_mut().zip(&b_row[wide..]) {
            for (o, &av) in acc_strip.iter_mut().zip(lanes) {
                *o += av * bv;
            }
        }
    }
    for (lane, out_row) in out.chunks_exact_mut(n).enumerate() {
        for (o, acc_strip) in out_row[wide..].iter_mut().zip(&acc) {
            *o = acc_strip[lane];
        }
    }
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

    fn scratch(steps: usize) -> Scratch {
        let mut scratch = Scratch::default();
        scratch.reserve(steps);
        scratch
    }

    #[test]
    fn matmul_hand_checked() {
        // [[1,2],[3,4]] · [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0f32; 4];
        matmul(&a, &b, &mut out, 2, 2, 2, &mut scratch(2));
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        // a (1×3) · bᵀ with b (2×3): out[0][j] = dot(a, b.row(j)).
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let mut bt = [0.0f32; 6];
        let mut out = [0.0f32; 2];
        matmul_transb(&a, &b, &mut bt, &mut out, 1, 3, 2, &mut scratch(3));
        assert_eq!(bt, [4.0, 7.0, 5.0, 8.0, 6.0, 9.0]);
        assert_eq!(out, [32.0, 50.0]);
    }

    #[test]
    fn transa_matches_explicit_transpose() {
        // aᵀ (2×1) · b (1×2) from a (1×2), b (1×2).
        let a = [2.0, 3.0];
        let b = [5.0, 7.0];
        let mut out = [0.0f32; 4];
        matmul_transa(&a, &b, &mut out, 1, 2, 2, &mut scratch(1));
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
        matmul(&a, &b, &mut out, m, k, n, &mut scratch(k));
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
        matmul(&[], &[], &mut out, 2, 0, 3, &mut scratch(0));
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
