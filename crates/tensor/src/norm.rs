//! The Batch Renormalization layer.
//!
//! The paper (§III-B) replaces BN with Batch Renormalization (Ioffe, 2017)
//! because adaptive training runs with fine-grained mini-batches whose
//! statistics are noisy; BRN corrects the batch statistics toward the
//! running moments with the clipped `r`/`d` factors, "controlling internal
//! covariate shift, hence making learning with fine-grained batches faster
//! and more robust."
//!
//! All per-call scratch (batch moments, effective scale/shift, backward σ)
//! lives in persistent vectors overwritten in place, so steady-state
//! training through this layer performs no heap allocation.

use crate::layer::{ForwardCache, Layer, Mode, ParamCursor};
use crate::workspace::Workspace;
use crate::{kernels, Matrix, SgdConfig, TensorError};

const EPS: f32 = 1e-5;
/// Clip limit on the scale correction: `r ∈ [1/R_MAX, R_MAX]`.
const R_MAX: f32 = 3.0;
/// Clip limit on the shift correction: `d ∈ [−D_MAX, D_MAX]`.
const D_MAX: f32 = 5.0;

/// Batch Renormalization (Ioffe, 2017).
///
/// Train-mode forward corrects the batch statistics toward the running
/// moments with clipped factors `r = clip(σ_B/σ, 1/r_max, r_max)` and
/// `d = clip((μ_B − μ)/σ, −d_max, d_max)` (stop-gradient on both), with
/// the customary limits `r_max = 3`, `d_max = 5`, and updates the running
/// moments; a [`Mode::Stats`] forward does the same without recording the
/// backward cache; eval-mode forward uses the running moments. This makes
/// small-batch training behave like large-batch training — the property
/// the paper relies on for fine-grained on-device batches.
///
/// Every pass sweeps the row-major matrices row by row, with per-feature
/// accumulators in persistent vectors; each per-feature sum still runs
/// over the batch rows in increasing order from `0.0`, so the floats are
/// those of the column-by-column formulation (pinned in the tests).
#[derive(Debug, Clone)]
pub struct BatchRenorm {
    dim: usize,
    /// Clip limits on `r` and `d`: `R_MAX` and `D_MAX` (tests vary them).
    r_max: f32,
    d_max: f32,
    gamma: Matrix,
    beta: Matrix,
    grad_gamma: Matrix,
    grad_beta: Matrix,
    vel_gamma: Matrix,
    vel_beta: Matrix,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Momentum of the running-moment EMA update.
    stat_momentum: f32,
    /// What a train-mode forward records for backward.
    cache: ForwardCache<NormCache>,
    /// Scratch: per-feature batch mean.
    stat_mean: Vec<f32>,
    /// Scratch: per-feature biased batch variance.
    stat_var: Vec<f32>,
    /// Scratch: per-feature train-mode normalization scale `r/σ_B`.
    stat_scale: Vec<f32>,
    /// Scratch: per-feature train-mode normalization shift `d`.
    stat_shift: Vec<f32>,
    /// Scratch: per-feature σ_B recomputed during backward.
    stat_sigma: Vec<f32>,
    /// Scratch: per-feature batch mean of `ĝ` during backward.
    mean_g: Vec<f32>,
    /// Scratch: per-feature batch mean of `ĝ ⊙ x̂_c` during backward.
    mean_gx: Vec<f32>,
    /// Eval-mode scale `1/√(σ² + ε)` of the running variance, one per
    /// feature; empty while stale. The running moments change only in a
    /// train-mode forward and an import, which clear it.
    eval_scale: Vec<f32>,
}

impl BatchRenorm {
    /// Creates a BRN layer over `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "normalization dimension must be positive");
        Self {
            dim,
            r_max: R_MAX,
            d_max: D_MAX,
            gamma: Matrix::filled(1, dim, 1.0),
            beta: Matrix::zeros(1, dim),
            grad_gamma: Matrix::zeros(1, dim),
            grad_beta: Matrix::zeros(1, dim),
            vel_gamma: Matrix::zeros(1, dim),
            vel_beta: Matrix::zeros(1, dim),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            stat_momentum: 0.1,
            cache: ForwardCache::default(),
            stat_mean: Vec::new(),
            stat_var: Vec::new(),
            stat_scale: Vec::new(),
            stat_shift: Vec::new(),
            stat_sigma: Vec::new(),
            mean_g: Vec::new(),
            mean_gx: Vec::new(),
            eval_scale: Vec::new(),
        }
    }

    /// Per-feature batch mean and (biased) variance, written into
    /// `stat_mean` / `stat_var`.
    fn batch_moments(&mut self, input: &Matrix) {
        let n = input.rows().max(1) as f32;
        self.stat_mean.clear();
        self.stat_mean.resize(self.dim, 0.0);
        for r in 0..input.rows() {
            for (m, &v) in self.stat_mean.iter_mut().zip(input.row(r)) {
                *m += v;
            }
        }
        for m in &mut self.stat_mean {
            *m /= n;
        }
        self.stat_var.clear();
        self.stat_var.resize(self.dim, 0.0);
        for r in 0..input.rows() {
            for ((v, &x), &m) in self
                .stat_var
                .iter_mut()
                .zip(input.row(r))
                .zip(&self.stat_mean)
            {
                let d = x - m;
                *v += d * d;
            }
        }
        for v in &mut self.stat_var {
            *v /= n;
        }
    }

    /// Loads the train-mode scale `r/σ_B` and shift `d` from the batch
    /// moments, with `r = clip(σ_B/σ, 1/r_max, r_max)` and
    /// `d = clip((μ_B − μ)/σ, ±d_max)`.
    fn load_train_stats(&mut self) {
        self.stat_scale.clear();
        self.stat_shift.clear();
        for c in 0..self.dim {
            let sigma_b = (self.stat_var[c] + EPS).sqrt();
            let sigma_run = (self.running_var[c] + EPS).sqrt();
            let r = (sigma_b / sigma_run).clamp(1.0 / self.r_max, self.r_max);
            let d = ((self.stat_mean[c] - self.running_mean[c]) / sigma_run)
                .clamp(-self.d_max, self.d_max);
            self.stat_scale.push(r / sigma_b);
            self.stat_shift.push(d);
        }
    }

    /// Fills the eval-mode scale from the running variance, unless it is
    /// still current.
    fn load_eval_stats(&mut self) {
        if self.eval_scale.len() != self.dim {
            self.eval_scale.clear();
            self.eval_scale
                .extend(self.running_var.iter().map(|&v| 1.0 / (v + EPS).sqrt()));
        }
    }

    fn update_running(&mut self) {
        self.eval_scale.clear();
        let m = self.stat_momentum;
        for i in 0..self.dim {
            self.running_mean[i] = (1.0 - m) * self.running_mean[i] + m * self.stat_mean[i];
            self.running_var[i] = (1.0 - m) * self.running_var[i] + m * self.stat_var[i];
        }
    }

    /// Normalizes with the train-mode per-feature stats:
    /// `x̂ = (x − μ_B) * scale + shift`, then `y = γ·x̂ + β`, in one pass
    /// over the rows. With `record` (a [`Mode::Train`] forward) the pass
    /// also caches everything `backward` needs; without it (a
    /// [`Mode::Stats`] forward) the cache is invalidated and left as is.
    fn normalize_from_stats(&mut self, input: &Matrix, record: bool, ws: &mut Workspace) -> Matrix {
        let (rows, dim) = (input.rows(), self.dim);
        let mut out = ws.take(rows, dim);
        let mean = &self.stat_mean[..dim];
        let scale = &self.stat_scale[..dim];
        let shift = &self.stat_shift[..dim];
        let gamma = &self.gamma.as_slice()[..dim];
        let beta = &self.beta.as_slice()[..dim];
        let rows_in = input.as_slice().chunks_exact(dim);
        let rows_out = out.as_mut_slice().chunks_exact_mut(dim);
        let mut rows_cached = if record {
            let cache = self.cache.record();
            cache.centered.resize_zeroed(rows, dim);
            cache.xhat.resize_zeroed(rows, dim);
            cache.scale.clear();
            cache.scale.extend_from_slice(scale);
            Some(
                cache
                    .centered
                    .as_mut_slice()
                    .chunks_exact_mut(dim)
                    .zip(cache.xhat.as_mut_slice().chunks_exact_mut(dim)),
            )
        } else {
            self.cache.invalidate();
            None
        };
        for (x, y) in rows_in.zip(rows_out) {
            let mut cached = rows_cached.as_mut().and_then(Iterator::next);
            for c in 0..dim {
                let cen = x[c] - mean[c];
                let xh = cen * scale[c] + shift[c];
                y[c] = gamma[c] * xh + beta[c];
                if let Some((centered, xhat)) = &mut cached {
                    centered[c] = cen;
                    xhat[c] = xh;
                }
            }
        }
        out
    }
}

/// What a [`Mode::Train`] forward of [`BatchRenorm`] records for backward.
#[derive(Debug, Default)]
struct NormCache {
    /// Normalized activations `x̂`.
    xhat: Matrix,
    /// Centered inputs `x - μ_B`. Backward overwrites them in place with
    /// `x̂_c = (x - μ_B)/σ_B`.
    centered: Matrix,
    /// Per-feature `r / σ_B` effective scale.
    scale: Vec<f32>,
}

impl Layer for BatchRenorm {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "batch-renorm"
    }

    /// Train and statistics modes normalize with the corrected batch
    /// statistics and update the running moments, through one loop that
    /// records the backward cache in train mode only; eval mode uses the
    /// running moments.
    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if input.cols() != self.dim {
            return Err(TensorError::ShapeMismatch {
                context: "BatchRenorm::forward",
                expected: (input.rows(), self.dim),
                actual: (input.rows(), input.cols()),
            });
        }
        Ok(match mode {
            Mode::Train | Mode::Stats => {
                self.batch_moments(input);
                self.load_train_stats();
                let out = self.normalize_from_stats(input, mode == Mode::Train, ws);
                self.update_running();
                out
            }
            Mode::Eval => {
                let mut out = ws.take_copy(input.rows(), input.cols(), input.as_slice());
                self.forward_eval_in_place(&mut out);
                out
            }
        })
    }

    /// `y = γ·((x − μ)·s + d) + β` over the running moments, with
    /// `s = 1/√(σ² + ε)` and no shift correction (`d = 0`, kept as an
    /// addition so a `-0.0` comes out as the train-mode formula gives it).
    fn forward_eval_in_place(&mut self, x: &mut Matrix) -> bool {
        if x.cols() != self.dim {
            return false;
        }
        self.load_eval_stats();
        let dim = self.dim;
        let mean = &self.running_mean[..dim];
        let scale = &self.eval_scale[..dim];
        let gamma = &self.gamma.as_slice()[..dim];
        let beta = &self.beta.as_slice()[..dim];
        for row in x.as_mut_slice().chunks_exact_mut(dim) {
            for c in 0..dim {
                let xh = (row[c] - mean[c]) * scale[c] + 0.0;
                row[c] = gamma[c] * xh + beta[c];
            }
        }
        true
    }

    /// With stop-gradient on the correction factors (per Ioffe 2017), the
    /// input gradient is the classic BN one scaled by the cached effective
    /// per-feature scale `s = r/σ_B`:
    ///
    /// `dL/dx = s · (ĝ − mean(ĝ) − x̂_c · mean(ĝ ⊙ x̂_c))`
    ///
    /// where `ĝ = γ ⊙ dL/dy` and `x̂_c = centered/σ_B` is the *uncorrected*
    /// normalized input. The cache holds `r/σ_B`, not σ_B, so σ_B is
    /// recomputed from the centered cache, which is exact.
    ///
    /// Three row-major sweeps: parameter gradients and `Σ centered²`; then
    /// `x̂_c` (one division per element, written over the centered cache,
    /// which is dead after this call) with the sums of `ĝ` and `ĝ ⊙ x̂_c`;
    /// then the input gradient.
    fn backward(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        let cache = self.cache.consume("batch-renorm")?;
        if grad_output.rows() != cache.xhat.rows() || grad_output.cols() != self.dim {
            return Err(TensorError::ShapeMismatch {
                context: "BatchRenorm::backward",
                expected: (cache.xhat.rows(), self.dim),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        let (rows, dim) = (cache.xhat.rows(), self.dim);
        let n = rows as f32;
        let gamma = &self.gamma.as_slice()[..dim];
        let scale = &cache.scale[..dim];
        let grad_rows = || grad_output.as_slice().chunks_exact(dim);

        let grad_gamma = &mut self.grad_gamma.as_mut_slice()[..dim];
        let grad_beta = &mut self.grad_beta.as_mut_slice()[..dim];
        grad_gamma.fill(0.0);
        grad_beta.fill(0.0);
        self.stat_sigma.clear();
        self.stat_sigma.resize(dim, 0.0);
        let sigma = &mut self.stat_sigma[..dim];
        let cached = cache
            .xhat
            .as_slice()
            .chunks_exact(dim)
            .zip(cache.centered.as_slice().chunks_exact(dim));
        for (g, (xhat, centered)) in grad_rows().zip(cached) {
            for c in 0..dim {
                grad_gamma[c] += g[c] * xhat[c];
                grad_beta[c] += g[c];
                sigma[c] += centered[c] * centered[c];
            }
        }
        for s in sigma.iter_mut() {
            *s = (*s / n + EPS).sqrt();
        }

        self.mean_g.clear();
        self.mean_g.resize(dim, 0.0);
        self.mean_gx.clear();
        self.mean_gx.resize(dim, 0.0);
        let mean_g = &mut self.mean_g[..dim];
        let mean_gx = &mut self.mean_gx[..dim];
        let xc_rows = cache.centered.as_mut_slice().chunks_exact_mut(dim);
        for (g, xc) in grad_rows().zip(xc_rows) {
            for c in 0..dim {
                let ghat = gamma[c] * g[c];
                xc[c] /= sigma[c];
                mean_g[c] += ghat;
                mean_gx[c] += ghat * xc[c];
            }
        }
        for (mg, mgx) in mean_g.iter_mut().zip(mean_gx.iter_mut()) {
            *mg /= n;
            *mgx /= n;
        }

        let mut grad_in = ws.take(rows, dim);
        let xc_rows = cache.centered.as_slice().chunks_exact(dim);
        let in_rows = grad_in.as_mut_slice().chunks_exact_mut(dim);
        for ((g, xc), gi) in grad_rows().zip(xc_rows).zip(in_rows) {
            for c in 0..dim {
                let ghat = gamma[c] * g[c];
                gi[c] = scale[c] * (ghat - mean_g[c] - xc[c] * mean_gx[c]);
            }
        }
        Ok(grad_in)
    }

    fn apply_update(&mut self, cfg: &SgdConfig) {
        let lr = cfg.learning_rate;
        if shoggoth_util::float::is_exact_zero(lr) {
            return;
        }
        kernels::sgd_momentum_step(
            self.gamma.as_mut_slice(),
            self.grad_gamma.as_slice(),
            self.vel_gamma.as_mut_slice(),
            lr,
            cfg.momentum,
            0.0, // γ/β are exempt from weight decay
        );
        kernels::sgd_momentum_step(
            self.beta.as_mut_slice(),
            self.grad_beta.as_slice(),
            self.vel_beta.as_mut_slice(),
            lr,
            cfg.momentum,
            0.0,
        );
    }

    fn param_count(&self) -> usize {
        // γ, β plus the running moments (shipped with the model in AMS-style
        // model streaming, so they count toward transfer size).
        4 * self.dim
    }

    fn export_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.gamma.as_slice());
        out.extend_from_slice(self.beta.as_slice());
        out.extend_from_slice(&self.running_mean);
        out.extend_from_slice(&self.running_var);
    }

    fn import_params(&mut self, cursor: &mut ParamCursor<'_>) -> Result<(), TensorError> {
        let (g, b) = (cursor.take(self.dim)?, cursor.take(self.dim)?);
        let (mean, var) = (cursor.take(self.dim)?, cursor.take(self.dim)?);
        self.gamma.as_mut_slice().copy_from_slice(g);
        self.beta.as_mut_slice().copy_from_slice(b);
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
        self.eval_scale.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_util::Rng;

    fn gaussian_batch(rng: &mut Rng, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian_f32(mean, std))
    }

    /// A layer with clip limits other than the defaults. `(1, 0)` pins
    /// `r = 1` and `d = 0`: train mode is then plain batch normalization.
    fn with_limits(dim: usize, r_max: f32, d_max: f32) -> BatchRenorm {
        let mut layer = BatchRenorm::new(dim);
        layer.r_max = r_max;
        layer.d_max = d_max;
        layer
    }

    #[test]
    fn running_stats_converge() {
        let mut rng = Rng::seed_from(1);
        let mut ws = Workspace::new();
        let mut brn = BatchRenorm::new(2);
        for _ in 0..400 {
            let x = gaussian_batch(&mut rng, 64, 2, 3.0, 1.5);
            let out = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(out);
        }
        assert!((brn.running_mean[0] - 3.0).abs() < 0.2);
        assert!((brn.running_var[0] - 2.25).abs() < 0.4);
    }

    #[test]
    fn eval_uses_running_moments() {
        let mut rng = Rng::seed_from(2);
        let mut ws = Workspace::new();
        let mut brn = BatchRenorm::new(1);
        for _ in 0..300 {
            let x = gaussian_batch(&mut rng, 64, 1, 10.0, 1.0);
            let out = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(out);
        }
        // A single far-off sample in eval mode should be normalized with the
        // learned moments, not its own (degenerate) batch statistics.
        let x = Matrix::from_rows(&[&[10.0]]).expect("valid");
        let y = brn.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        assert!(y.get(0, 0).abs() < 0.3, "got {}", y.get(0, 0));
    }

    #[test]
    fn batchrenorm_without_corrections_is_the_batch_norm_formula() {
        // At r_max = 1, d_max = 0 the corrections are r = 1, d = 0, so a
        // train-mode forward must be `(x − μ_B) / sqrt(σ²_B + ε)` exactly,
        // whatever the running moments, and standardize every column.
        let mut rng = Rng::seed_from(3);
        let mut ws = Workspace::new();
        let mut brn = with_limits(4, 1.0, 0.0);
        for step in 0..3 {
            let x = gaussian_batch(&mut rng, 256, 4, 5.0 * step as f32, 2.0);
            let y = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            let n = x.rows() as f32;
            for c in 0..4 {
                let mut mean = 0.0;
                for r in 0..x.rows() {
                    mean += x.get(r, c);
                }
                mean /= n;
                let mut var = 0.0;
                for r in 0..x.rows() {
                    let d = x.get(r, c) - mean;
                    var += d * d;
                }
                var /= n;
                let inv_sigma = 1.0 / (var + EPS).sqrt();
                let (mut out_mean, mut out_var) = (0.0, 0.0);
                for r in 0..x.rows() {
                    assert_eq!(y.get(r, c), (x.get(r, c) - mean) * inv_sigma, "step {step}");
                    out_mean += y.get(r, c);
                    out_var += y.get(r, c) * y.get(r, c);
                }
                assert!((out_mean / n).abs() < 1e-4, "column mean not ~0");
                assert!((out_var / n - 1.0).abs() < 1e-2, "column var not ~1");
            }
            ws.give(y);
        }
    }

    #[test]
    fn batchrenorm_clips_corrections_under_shift() {
        // Feed a drastically shifted batch: the d correction must be clipped
        // at the default d_max = 5, keeping outputs bounded instead of
        // exploding.
        let mut rng = Rng::seed_from(4);
        let mut ws = Workspace::new();
        let mut brn = BatchRenorm::new(1);
        for _ in 0..100 {
            let x = gaussian_batch(&mut rng, 64, 1, 0.0, 1.0);
            let out = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(out);
        }
        let shifted = gaussian_batch(&mut rng, 64, 1, 50.0, 1.0);
        let y = brn.forward(&shifted, Mode::Train, &mut ws).expect("shapes");
        // Without clipping, the shift term would be ~50; with d_max = 5 the
        // output stays near the standardized batch plus at most 5.
        let max = y.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(max < 10.0, "BRN output exploded: {max}");
    }

    #[test]
    fn batchrenorm_gradient_check() {
        // r_max = 1, d_max = 0 pin r = 1 and d = 0, whose stop-gradient
        // then costs nothing, so finite differences of the train-mode
        // forward must match the analytic backward.
        let mut rng = Rng::seed_from(5);
        let mut ws = Workspace::new();
        let mut brn = with_limits(3, 1.0, 0.0);
        let x = gaussian_batch(&mut rng, 8, 3, 1.0, 2.0);
        let y = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let grad_out = y.clone(); // L = sum(y^2)/2
        let grad_in = brn.backward(&grad_out, &mut ws).expect("cached");

        let eps = 1e-2f32;
        let mut loss = |m: &Matrix, brn: &mut BatchRenorm| {
            // Use a fresh clone so running stats are not perturbed between
            // probes; forward in Train mode to use batch statistics.
            let y = brn.forward(m, Mode::Train, &mut ws).expect("shapes");
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for probe in [(0usize, 0usize), (4, 1), (7, 2)] {
            let mut brn_probe = brn.clone();
            let mut xp = x.clone();
            xp.set(probe.0, probe.1, x.get(probe.0, probe.1) + eps);
            let lp = loss(&xp, &mut brn_probe);
            let mut brn_probe = brn.clone();
            let mut xm = x.clone();
            xm.set(probe.0, probe.1, x.get(probe.0, probe.1) - eps);
            let lm = loss(&xm, &mut brn_probe);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.get(probe.0, probe.1);
            assert!(
                (numeric - analytic).abs() < 5e-2 * (1.0 + analytic.abs()),
                "probe {probe:?}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn norm_export_import_round_trip() {
        let mut rng = Rng::seed_from(6);
        let mut ws = Workspace::new();
        let mut brn = BatchRenorm::new(3);
        for _ in 0..10 {
            let x = gaussian_batch(&mut rng, 32, 3, 2.0, 1.0);
            let out = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            ws.give(out);
        }
        let mut buf = Vec::new();
        brn.export_params(&mut buf);
        assert_eq!(buf.len(), brn.param_count());
        let mut copy = BatchRenorm::new(3);
        let mut cursor = ParamCursor::new(&buf);
        copy.import_params(&mut cursor).expect("params fit");
        assert_eq!(copy.running_mean, brn.running_mean);
        assert_eq!(copy.running_var, brn.running_var);
    }

    #[test]
    fn norm_import_writes_into_its_own_buffers() {
        let mut rng = Rng::seed_from(7);
        let mut ws = Workspace::new();
        let mut exporter = BatchRenorm::new(3);
        let x = gaussian_batch(&mut rng, 16, 3, 2.0, 1.0);
        let out = exporter.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let g = gaussian_batch(&mut rng, 16, 3, 0.0, 1.0);
        let grad_in = exporter.backward(&g, &mut ws).expect("cached");
        exporter.apply_update(&SgdConfig::new(0.1));
        ws.give(out);
        ws.give(grad_in);
        let mut buf = Vec::new();
        exporter.export_params(&mut buf);
        let mut copy = BatchRenorm::new(3);
        let eval = gaussian_batch(&mut rng, 4, 3, 2.0, 1.0);
        // Warm the eval scale, which an import must invalidate.
        let stale = copy.forward(&eval, Mode::Eval, &mut ws).expect("shapes");
        ws.give(stale);
        let buffers = |l: &BatchRenorm| {
            [
                l.gamma.as_slice().as_ptr(),
                l.beta.as_slice().as_ptr(),
                l.running_mean.as_ptr(),
                l.running_var.as_ptr(),
            ]
        };
        let before = buffers(&copy);
        copy.import_params(&mut ParamCursor::new(&buf))
            .expect("params fit");
        assert_eq!(buffers(&copy), before, "an import reallocated a parameter");
        let a = exporter
            .forward(&eval, Mode::Eval, &mut ws)
            .expect("shapes");
        let b = copy.forward(&eval, Mode::Eval, &mut ws).expect("shapes");
        assert_eq!(a, b);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut brn = BatchRenorm::new(2);
        let mut ws = Workspace::new();
        assert!(matches!(
            brn.backward(&Matrix::zeros(1, 2), &mut ws),
            Err(TensorError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn steady_state_norm_training_does_not_allocate() {
        let mut rng = Rng::seed_from(8);
        let mut ws = Workspace::new();
        let mut brn = BatchRenorm::new(4);
        let x = gaussian_batch(&mut rng, 16, 4, 0.0, 1.0);
        // Warm up caches and workspace.
        for _ in 0..3 {
            let y = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            let g = brn.backward(&y, &mut ws).expect("cached");
            ws.give(y);
            ws.give(g);
        }
        let baseline = ws.allocations();
        for _ in 0..10 {
            let y = brn.forward(&x, Mode::Train, &mut ws).expect("shapes");
            let g = brn.backward(&y, &mut ws).expect("cached");
            ws.give(y);
            ws.give(g);
        }
        assert_eq!(ws.allocations(), baseline, "norm hot loop allocated");
    }

    /// The column-by-column formulation the row-major passes replaced,
    /// kept as the reference they must match bit for bit.
    impl BatchRenorm {
        fn reference_forward(&mut self, input: &Matrix, mode: Mode) -> Matrix {
            match mode {
                Mode::Train | Mode::Stats => {
                    self.batch_moments(input);
                    self.load_train_stats();
                    let out = self.reference_normalize(input, mode == Mode::Train);
                    self.update_running();
                    out
                }
                Mode::Eval => {
                    self.stat_mean.clear();
                    self.stat_mean.extend_from_slice(&self.running_mean);
                    self.stat_scale.clear();
                    self.stat_scale
                        .extend(self.running_var.iter().map(|&v| 1.0 / (v + EPS).sqrt()));
                    self.stat_shift.clear();
                    self.stat_shift.resize(self.dim, 0.0);
                    self.reference_normalize(input, false)
                }
            }
        }

        fn reference_normalize(&mut self, input: &Matrix, cache: bool) -> Matrix {
            let rows = input.rows();
            let dim = self.dim;
            let mut out = Matrix::zeros(rows, dim);
            if cache {
                let record = self.cache.record();
                record.centered.resize_zeroed(rows, dim);
                record.xhat.resize_zeroed(rows, dim);
                record.scale.clear();
                record.scale.extend_from_slice(&self.stat_scale);
            } else {
                self.cache.invalidate();
            }
            for r in 0..rows {
                for c in 0..dim {
                    let cen = input.get(r, c) - self.stat_mean[c];
                    let xh = cen * self.stat_scale[c] + self.stat_shift[c];
                    out.set(r, c, self.gamma.get(0, c) * xh + self.beta.get(0, c));
                    if cache {
                        let record = self.cache.record();
                        record.centered.set(r, c, cen);
                        record.xhat.set(r, c, xh);
                    }
                }
            }
            out
        }

        fn reference_backward(&mut self, grad_output: &Matrix) -> Matrix {
            let cache = self
                .cache
                .consume("reference")
                .expect("reference backward needs a forward");
            let rows = cache.xhat.rows();
            let n = rows as f32;
            for c in 0..self.dim {
                let mut gg = 0.0;
                let mut gb = 0.0;
                for r in 0..rows {
                    gg += grad_output.get(r, c) * cache.xhat.get(r, c);
                    gb += grad_output.get(r, c);
                }
                self.grad_gamma.set(0, c, gg);
                self.grad_beta.set(0, c, gb);
            }
            let mut sigma = vec![0.0f32; self.dim];
            for (c, s) in sigma.iter_mut().enumerate() {
                let mut v = 0.0;
                for r in 0..rows {
                    let d = cache.centered.get(r, c);
                    v += d * d;
                }
                *s = (v / n + EPS).sqrt();
            }
            let mut grad_in = Matrix::zeros(rows, self.dim);
            for (c, &sigma) in sigma.iter().enumerate() {
                let gamma = self.gamma.get(0, c);
                let mut mean_g = 0.0;
                let mut mean_gx = 0.0;
                for r in 0..rows {
                    let ghat = gamma * grad_output.get(r, c);
                    let xc = cache.centered.get(r, c) / sigma;
                    mean_g += ghat;
                    mean_gx += ghat * xc;
                }
                mean_g /= n;
                mean_gx /= n;
                for r in 0..rows {
                    let ghat = gamma * grad_output.get(r, c);
                    let xc = cache.centered.get(r, c) / sigma;
                    grad_in.set(r, c, cache.scale[c] * (ghat - mean_g - xc * mean_gx));
                }
            }
            grad_in
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Everything the two formulations produce or update, as bit patterns.
    fn state_bits(layer: &BatchRenorm) -> [Vec<u32>; 6] {
        [
            bits(layer.grad_gamma.as_slice()),
            bits(layer.grad_beta.as_slice()),
            bits(&layer.running_mean),
            bits(&layer.running_var),
            bits(layer.gamma.as_slice()),
            bits(layer.beta.as_slice()),
        ]
    }

    /// Runs train steps (forward, backward, update) and eval forwards
    /// through the live layer and a clone on the reference path, asserting
    /// bit equality of every output, input gradient, parameter gradient,
    /// parameter and running moment.
    fn assert_matches_reference(mut live: BatchRenorm, label: &str) {
        let mut reference = live.clone();
        let mut rng = Rng::seed_from(11);
        let mut ws = Workspace::new();
        let sgd = SgdConfig::new(0.1).with_momentum(0.9);
        let dim = live.dim;
        for rows in [1, 3, 64, 128] {
            for step in 0..3 {
                let context = format!("{label}, batch {rows}, step {step}");
                // Shifted, scaled inputs keep the r/d clips in play.
                let shift = step as f32 * 2.0 - 1.0;
                let x = gaussian_batch(&mut rng, rows, dim, shift, 1.5);
                let g = gaussian_batch(&mut rng, rows, dim, 0.0, 1.0);

                let y = live.forward(&x, Mode::Train, &mut ws).expect("shapes");
                let y_ref = reference.reference_forward(&x, Mode::Train);
                assert_eq!(
                    bits(y.as_slice()),
                    bits(y_ref.as_slice()),
                    "{context}: train output"
                );
                let gi = live.backward(&g, &mut ws).expect("cached");
                let gi_ref = reference.reference_backward(&g);
                assert_eq!(
                    bits(gi.as_slice()),
                    bits(gi_ref.as_slice()),
                    "{context}: grad_in"
                );
                live.apply_update(&sgd);
                reference.apply_update(&sgd);
                assert_eq!(
                    state_bits(&live),
                    state_bits(&reference),
                    "{context}: state"
                );
                ws.give(y);
                ws.give(gi);

                let y = live.forward(&x, Mode::Eval, &mut ws).expect("shapes");
                let y_ref = reference.reference_forward(&x, Mode::Eval);
                assert_eq!(
                    bits(y.as_slice()),
                    bits(y_ref.as_slice()),
                    "{context}: eval output"
                );
                ws.give(y);
            }
        }
    }

    #[test]
    fn row_major_batchrenorm_matches_the_column_reference() {
        for dim in [24, 5] {
            // No corrections (plain batch norm), the defaults, and tighter
            // limits than the defaults.
            for (r_max, d_max) in [(1.0, 0.0), (R_MAX, D_MAX), (1.5, 0.5)] {
                assert_matches_reference(
                    with_limits(dim, r_max, d_max),
                    &format!("BRN {dim}, r_max {r_max}, d_max {d_max}"),
                );
            }
        }
    }
}
