//! The layer abstraction and the parameterized / activation layers.
//!
//! A [`Layer`] maps a mini-batch matrix to a mini-batch matrix, caches what
//! it needs during `forward`, and propagates gradients in `backward`.
//! Parameter updates are decoupled from backpropagation so the owning
//! network can update only the layers that train: the paper's frozen front
//! layers are simply not updated ([`crate::Mlp::train_step`]).
//!
//! Layers draw their output matrices from a caller-provided
//! [`Workspace`] and keep persistent caches that are overwritten in place
//! ([`Matrix::copy_from`]), so a steady-state train step allocates nothing
//! once the caches have grown to the working batch size. Only a
//! [`Mode::Train`] forward records a cache (`ForwardCache`); a clone
//! carries none.

use crate::workspace::Workspace;
use crate::{kernels, Matrix, SgdConfig, TensorError};

/// Whether a forward pass is part of training or evaluation.
///
/// Normalization layers use batch statistics and update running moments in
/// [`Mode::Train`] and [`Mode::Stats`]; they use running moments in
/// [`Mode::Eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training pass: caches are recorded, batch statistics are used.
    Train,
    /// Training pass with no backward to follow (a frozen front): the
    /// output and the running moments are exactly those of [`Mode::Train`],
    /// but no cache is recorded and any earlier one is invalidated, so a
    /// backward after it fails with [`TensorError::MissingForwardCache`].
    Stats,
    /// Inference pass: no caches, running statistics are used.
    Eval,
}

/// What a [`Mode::Train`] forward records for the backward that reads it.
///
/// The storage persists and is overwritten in place, so steady-state
/// training allocates nothing, but the record is valid only from a
/// train-mode forward to the backward that consumes it: a [`Mode::Stats`]
/// forward invalidates it, and a clone starts empty, so a copied layer
/// carries no batch-sized buffers and rejects a backward before its own
/// train-mode forward.
#[derive(Debug, Default)]
pub(crate) struct ForwardCache<T> {
    record: T,
    valid: bool,
}

impl<T: Default> Clone for ForwardCache<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> ForwardCache<T> {
    /// The storage a train-mode forward overwrites, marked valid.
    pub(crate) fn record(&mut self) -> &mut T {
        self.valid = true;
        &mut self.record
    }

    /// Marks the record stale; the storage stays for the next record.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// The record for the backward of `layer`, which consumes it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MissingForwardCache`] if no train-mode
    /// forward recorded it since the last backward.
    pub(crate) fn consume(&mut self, layer: &'static str) -> Result<&mut T, TensorError> {
        if !self.valid {
            return Err(TensorError::MissingForwardCache { layer });
        }
        self.valid = false;
        Ok(&mut self.record)
    }
}

/// A cursor over a flat parameter buffer used by weight import.
///
/// Obtained from a `&[f32]` and consumed front-to-back by each layer's
/// [`Layer::import_params`].
#[derive(Debug)]
pub struct ParamCursor<'a> {
    data: &'a [f32],
    offset: usize,
}

impl<'a> ParamCursor<'a> {
    /// Wraps a parameter buffer.
    pub fn new(data: &'a [f32]) -> Self {
        Self { data, offset: 0 }
    }

    /// Takes the next `n` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ParamCount`] if fewer than `n` parameters
    /// remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [f32], TensorError> {
        if self.offset + n > self.data.len() {
            return Err(TensorError::ParamCount {
                expected: self.offset + n,
                actual: self.data.len(),
            });
        }
        let slice = &self.data[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    /// Number of parameters consumed so far.
    pub fn consumed(&self) -> usize {
        self.offset
    }

    /// Number of parameters remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.offset
    }
}

/// A differentiable network layer.
///
/// Implementations cache whatever `forward` state `backward` needs; calling
/// `backward` without a preceding [`Mode::Train`] `forward` is an error,
/// also after a [`Mode::Stats`] forward and on a fresh clone. Output
/// matrices come from the supplied [`Workspace`]; the owning network hands
/// consumed intermediates back to it.
pub trait Layer: std::fmt::Debug + Send {
    /// Short human-readable layer name (for diagnostics).
    fn name(&self) -> &'static str;

    /// Computes the layer output for a batch (one example per row). The
    /// output matrix is taken from `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the input width does not
    /// match the layer.
    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError>;

    /// The [`Mode::Eval`] forward written over its own input: `x` becomes
    /// the layer output, with exactly the arithmetic of
    /// [`forward`](Layer::forward) in eval mode. Returns whether the layer
    /// did so; the default does nothing and returns `false`, and a layer
    /// also returns `false` for an input of the wrong width, so that the
    /// caller's [`forward`](Layer::forward) reports the error. The owning
    /// network uses it for every eval-mode layer after the first.
    fn forward_eval_in_place(&mut self, x: &mut Matrix) -> bool {
        let _ = x;
        false
    }

    /// Propagates `grad_output` (∂loss/∂output) to ∂loss/∂input, recording
    /// parameter gradients internally. The returned gradient matrix is
    /// taken from `ws`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::MissingForwardCache`] if no train-mode forward
    /// pass preceded this call, or [`TensorError::ShapeMismatch`] if the
    /// gradient shape is wrong.
    fn backward(&mut self, grad_output: &Matrix, ws: &mut Workspace)
        -> Result<Matrix, TensorError>;

    /// [`backward`](Layer::backward) for the terminal layer of a backward
    /// pass: records parameter gradients without producing ∂loss/∂input,
    /// which the caller was going to discard. The default delegates to
    /// `backward` and recycles the result; layers with a separable
    /// input-gradient kernel (e.g. [`Dense`]) override it to skip that
    /// matmul entirely.
    ///
    /// # Errors
    ///
    /// Same contract as [`backward`](Layer::backward).
    fn backward_params_only(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        let grad_in = self.backward(grad_output, ws)?;
        ws.give(grad_in);
        Ok(())
    }

    /// Applies accumulated gradients with `cfg`; a learning rate of zero
    /// leaves the layer untouched. A frozen layer is one its network does
    /// not update.
    fn apply_update(&mut self, cfg: &SgdConfig);

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Appends all parameters to `out` in a stable order.
    fn export_params(&self, out: &mut Vec<f32>) {
        let _ = out;
    }

    /// Reads parameters back in the order written by
    /// [`export_params`](Layer::export_params).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ParamCount`] if the cursor runs out of data.
    fn import_params(&mut self, cursor: &mut ParamCursor<'_>) -> Result<(), TensorError> {
        let _ = cursor;
        Ok(())
    }

    /// Deep-copies the layer behind a fresh `Box` (enables cloning whole
    /// networks, e.g. AMS's cloud-side shadow student): parameters,
    /// gradients, momentum and running statistics, but no forward cache.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A fully-connected layer: `y = x · W + b`.
///
/// Weights are initialized with He-style scaling, appropriate for the ReLU
/// networks the detector uses. The forward pass is the bias-fused
/// [`Matrix::addmm_into`]; the backward pass uses the transpose-free
/// kernels ([`Matrix::matmul_transa_into`], [`Matrix::matmul_transb_into`])
/// writing into gradient matrices that persist across steps.
///
/// # Examples
///
/// ```
/// use shoggoth_tensor::{Dense, Layer, Matrix, Mode, Workspace};
/// use shoggoth_util::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut ws = Workspace::new();
/// let mut layer = Dense::new(4, 2, &mut rng);
/// let x = Matrix::zeros(3, 4);
/// let y = layer.forward(&x, Mode::Eval, &mut ws)?;
/// assert_eq!((y.rows(), y.cols()), (3, 2));
/// # Ok::<(), shoggoth_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    grad_weights: Matrix,
    grad_bias: Matrix,
    vel_weights: Matrix,
    vel_bias: Matrix,
    /// The forward input, for the weight gradient.
    cache: ForwardCache<Matrix>,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a layer with He-initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut shoggoth_util::Rng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "Dense dimensions must be positive"
        );
        let scale = (2.0 / in_dim as f64).sqrt();
        let weights = Matrix::from_fn(in_dim, out_dim, |_, _| rng.next_gaussian(0.0, scale) as f32);
        Self {
            grad_weights: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            vel_weights: Matrix::zeros(in_dim, out_dim),
            vel_bias: Matrix::zeros(1, out_dim),
            bias: Matrix::zeros(1, out_dim),
            cache: ForwardCache::default(),
            weights,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Read access to the weight matrix (for tests and diagnostics).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }
}

impl Layer for Dense {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if input.cols() != self.in_dim {
            return Err(TensorError::ShapeMismatch {
                context: "Dense::forward",
                expected: (input.rows(), self.in_dim),
                actual: (input.rows(), input.cols()),
            });
        }
        match mode {
            Mode::Train => self.cache.record().copy_from(input),
            Mode::Stats => self.cache.invalidate(),
            Mode::Eval => {}
        }
        let mut out = ws.take(input.rows(), self.out_dim);
        input.addmm_into(&self.weights, &self.bias, &mut out, ws)?;
        Ok(out)
    }

    fn backward(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        let input = self.cache.consume("dense")?;
        if grad_output.cols() != self.out_dim || grad_output.rows() != input.rows() {
            return Err(TensorError::ShapeMismatch {
                context: "Dense::backward",
                expected: (input.rows(), self.out_dim),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        input.matmul_transa_into(grad_output, &mut self.grad_weights, ws)?;
        grad_output.col_sum_into(&mut self.grad_bias);
        let mut grad_in = ws.take(grad_output.rows(), self.in_dim);
        grad_output.matmul_transb_into(&self.weights, &mut grad_in, ws)?;
        Ok(grad_in)
    }

    fn backward_params_only(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<(), TensorError> {
        let input = self.cache.consume("dense")?;
        if grad_output.cols() != self.out_dim || grad_output.rows() != input.rows() {
            return Err(TensorError::ShapeMismatch {
                context: "Dense::backward_params_only",
                expected: (input.rows(), self.out_dim),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        // Identical parameter gradients to `backward`, minus the
        // `grad · Wᵀ` matmul that a terminal layer's caller discards.
        input.matmul_transa_into(grad_output, &mut self.grad_weights, ws)?;
        grad_output.col_sum_into(&mut self.grad_bias);
        Ok(())
    }

    fn apply_update(&mut self, cfg: &SgdConfig) {
        let lr = cfg.learning_rate;
        if shoggoth_util::float::is_exact_zero(lr) {
            return;
        }
        kernels::sgd_momentum_step(
            self.weights.as_mut_slice(),
            self.grad_weights.as_slice(),
            self.vel_weights.as_mut_slice(),
            lr,
            cfg.momentum,
            cfg.weight_decay,
        );
        kernels::sgd_momentum_step(
            self.bias.as_mut_slice(),
            self.grad_bias.as_slice(),
            self.vel_bias.as_mut_slice(),
            lr,
            cfg.momentum,
            0.0, // bias is conventionally exempt from weight decay
        );
    }

    fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn export_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weights.as_slice());
        out.extend_from_slice(self.bias.as_slice());
    }

    fn import_params(&mut self, cursor: &mut ParamCursor<'_>) -> Result<(), TensorError> {
        let w = cursor.take(self.in_dim * self.out_dim)?;
        let b = cursor.take(self.out_dim)?;
        self.weights.as_mut_slice().copy_from_slice(w);
        self.bias.as_mut_slice().copy_from_slice(b);
        Ok(())
    }
}

/// Rectified linear activation, `max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// The forward input, for the gradient mask.
    cache: ForwardCache<Matrix>,
}

impl Relu {
    /// Creates the activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    /// Train mode records the input for `backward`; eval and statistics
    /// modes are a copy of the input rectified in place
    /// ([`forward_eval_in_place`](Layer::forward_eval_in_place)).
    fn forward(
        &mut self,
        input: &Matrix,
        mode: Mode,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        if mode != Mode::Train {
            if mode == Mode::Stats {
                self.cache.invalidate();
            }
            let mut out = ws.take_copy(input.rows(), input.cols(), input.as_slice());
            self.forward_eval_in_place(&mut out);
            return Ok(out);
        }
        self.cache.record().copy_from(input);
        let mut out = ws.take(input.rows(), input.cols());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *o = v.max(0.0);
        }
        Ok(out)
    }

    fn forward_eval_in_place(&mut self, x: &mut Matrix) -> bool {
        for v in x.as_mut_slice() {
            *v = v.max(0.0);
        }
        true
    }

    fn backward(
        &mut self,
        grad_output: &Matrix,
        ws: &mut Workspace,
    ) -> Result<Matrix, TensorError> {
        let input = self.cache.consume("relu")?;
        if grad_output.rows() != input.rows() || grad_output.cols() != input.cols() {
            return Err(TensorError::ShapeMismatch {
                context: "Relu::backward",
                expected: (input.rows(), input.cols()),
                actual: (grad_output.rows(), grad_output.cols()),
            });
        }
        let mut grad_in = ws.take(grad_output.rows(), grad_output.cols());
        for ((o, &g), &x) in grad_in
            .as_mut_slice()
            .iter_mut()
            .zip(grad_output.as_slice())
            .zip(input.as_slice())
        {
            // `g * mask`, not a select: a negative `g` at a masked input
            // must give `-0.0`, which a select would turn into `0.0`.
            *o = g * if x > 0.0 { 1.0 } else { 0.0 };
        }
        Ok(grad_in)
    }

    fn apply_update(&mut self, _cfg: &SgdConfig) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use shoggoth_util::Rng;

    #[test]
    fn dense_forward_hand_checked() {
        let mut rng = Rng::seed_from(0);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(2, 2, &mut rng);
        let mut cursor_data = vec![1.0, 2.0, 3.0, 4.0, 0.5, -0.5];
        let mut cursor = ParamCursor::new(&cursor_data);
        layer.import_params(&mut cursor).expect("params fit");
        cursor_data.clear();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]).expect("valid");
        let y = layer.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        // [1,1]·[[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.row(0), &[4.5, 5.5]);
    }

    #[test]
    fn dense_rejects_wrong_input_width() {
        let mut rng = Rng::seed_from(0);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::zeros(1, 4);
        assert!(layer.forward(&x, Mode::Eval, &mut ws).is_err());
    }

    #[test]
    fn dense_backward_without_forward_errors() {
        let mut rng = Rng::seed_from(0);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(2, 2, &mut rng);
        let g = Matrix::zeros(1, 2);
        assert!(matches!(
            layer.backward(&g, &mut ws),
            Err(TensorError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn dense_export_import_round_trip() {
        let mut rng = Rng::seed_from(1);
        let layer = Dense::new(3, 4, &mut rng);
        let mut buf = Vec::new();
        layer.export_params(&mut buf);
        assert_eq!(buf.len(), layer.param_count());
        let mut copy = Dense::new(3, 4, &mut rng);
        let mut cursor = ParamCursor::new(&buf);
        copy.import_params(&mut cursor).expect("params fit");
        assert_eq!(copy.weights(), layer.weights());
    }

    #[test]
    fn dense_import_writes_into_its_own_buffers() {
        let mut rng = Rng::seed_from(2);
        let mut ws = Workspace::new();
        let mut exporter = Dense::new(3, 4, &mut rng);
        let mut buf = Vec::new();
        exporter.export_params(&mut buf);
        let mut copy = Dense::new(3, 4, &mut rng);
        let buffers = |l: &Dense| [l.weights.as_slice().as_ptr(), l.bias.as_slice().as_ptr()];
        let before = buffers(&copy);
        copy.import_params(&mut ParamCursor::new(&buf))
            .expect("params fit");
        assert_eq!(buffers(&copy), before, "an import reallocated a parameter");
        let x = Matrix::from_fn(5, 3, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let a = exporter.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        let b = copy.forward(&x, Mode::Eval, &mut ws).expect("shapes");
        assert_eq!(a, b);
    }

    #[test]
    fn relu_clamps_and_masks_gradient() {
        let mut relu = Relu::new();
        let mut ws = Workspace::new();
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]).expect("valid");
        let y = relu.forward(&x, Mode::Train, &mut ws).expect("shapes");
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let g = Matrix::from_rows(&[&[5.0, 5.0]]).expect("valid");
        let gi = relu.backward(&g, &mut ws).expect("cached");
        assert_eq!(gi.row(0), &[0.0, 5.0]);
    }

    #[test]
    fn param_cursor_over_read_errors() {
        let data = [1.0, 2.0];
        let mut cursor = ParamCursor::new(&data);
        assert!(cursor.take(2).is_ok());
        assert!(cursor.take(1).is_err());
        assert_eq!(cursor.consumed(), 2);
        assert_eq!(cursor.remaining(), 0);
    }

    /// Finite-difference gradient check for the dense layer through a
    /// scalar loss `L = sum(output^2) / 2`.
    #[test]
    fn dense_gradient_check() {
        let mut rng = Rng::seed_from(7);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_fn(4, 3, |_, _| rng.next_gaussian_f32(0.0, 1.0));

        // Analytic gradients.
        let y = layer.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let grad_out = y.clone(); // dL/dy for L = sum(y^2)/2
        let grad_in = layer.backward(&grad_out, &mut ws).expect("cached");

        // Numeric gradient w.r.t. one input element.
        let eps = 1e-3f32;
        for probe in [(0usize, 0usize), (2, 1), (3, 2)] {
            let mut xp = x.clone();
            xp.set(probe.0, probe.1, x.get(probe.0, probe.1) + eps);
            let mut xm = x.clone();
            xm.set(probe.0, probe.1, x.get(probe.0, probe.1) - eps);
            let mut loss = |m: &Matrix, layer: &mut Dense| {
                let y = layer.forward(m, Mode::Eval, &mut ws).expect("shapes");
                y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
            };
            let numeric = (loss(&xp, &mut layer) - loss(&xm, &mut layer)) / (2.0 * eps);
            let analytic = grad_in.get(probe.0, probe.1);
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + analytic.abs()),
                "probe {probe:?}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn dense_backward_matches_transposing_path() {
        // The transpose-free kernels must reproduce the textbook
        // expressions bit-for-bit.
        let mut rng = Rng::seed_from(11);
        let mut ws = Workspace::new();
        let mut layer = Dense::new(5, 3, &mut rng);
        let x = Matrix::from_fn(7, 5, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let y = layer.forward(&x, Mode::Train, &mut ws).expect("shapes");
        let g = Matrix::from_fn(7, 3, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let grad_in = layer.backward(&g, &mut ws).expect("cached");

        let ref_out = x
            .matmul(layer.weights())
            .and_then(|m| {
                // Rebuild the bias the layer used.
                let mut params = Vec::new();
                layer.export_params(&mut params);
                let bias = Matrix::from_vec(1, 3, params[15..].to_vec())?;
                m.add_row_broadcast(&bias)
            })
            .expect("shapes");
        assert_eq!(y, ref_out);
        let ref_grad_in = g.matmul(&layer.weights().transpose()).expect("shapes");
        assert_eq!(grad_in, ref_grad_in);
    }
}
