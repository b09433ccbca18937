//! Sequential networks with latent-replay support.
//!
//! [`Mlp`] chains layers and exposes the partial-execution hooks the paper's
//! adaptive training needs:
//!
//! * [`Mlp::forward_range`] — run only the front layers to produce the
//!   activation volume stored in replay memory, or inject a
//!   (fresh ⊕ replay) activation batch at the replay layer and run the
//!   remaining layers;
//! * [`Mlp::train_step`] — one SGD step of the layers from a given index
//!   on: backpropagation stops there and the layers before it are not
//!   updated (the paper's frozen front);
//! * [`Mlp::backward_range`] — continue through the front for fresh rows
//!   when the front does train.

use crate::layer::{Layer, Mode, ParamCursor};
use crate::workspace::Workspace;
use crate::{losses, Matrix, SgdConfig, TensorError};

/// A sequential feed-forward network.
///
/// # Examples
///
/// ```
/// use shoggoth_tensor::{Dense, Matrix, Mlp, Mode, Relu};
/// use shoggoth_util::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let mut net = Mlp::new(vec![
///     Box::new(Dense::new(4, 8, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(8, 3, &mut rng)),
/// ]);
/// let x = Matrix::zeros(2, 4);
/// let logits = net.forward(&x, Mode::Eval)?;
/// assert_eq!((logits.rows(), logits.cols()), (2, 3));
/// # Ok::<(), shoggoth_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Box<dyn Layer>>,
    /// Scratch-buffer pool all layer outputs are drawn from. Matrices the
    /// public API returns carry pool buffers; looping callers hand them
    /// back via [`Mlp::recycle`] so the steady state is allocation-free.
    ws: Workspace,
}

impl Clone for Mlp {
    /// Copies every layer's parameters, gradients, momentum and running
    /// statistics, but no forward cache: a clone must run its own
    /// [`Mode::Train`] forward before a backward.
    fn clone(&self) -> Self {
        Self {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            // A fresh (empty) workspace: clones are typically shipped
            // across threads or kept as shadow models, and buffers refill
            // on first use anyway.
            ws: Workspace::new(),
        }
    }
}

impl Mlp {
    /// Assembles a network from layers (executed front to back).
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self {
            layers,
            ws: Workspace::new(),
        }
    }

    /// Returns a matrix previously produced by this network (forward or
    /// backward output) to the internal workspace for reuse. Optional —
    /// dropping the matrix is safe — but looping callers that recycle keep
    /// steady-state training allocation-free.
    pub fn recycle(&mut self, m: Matrix) {
        self.ws.give(m);
    }

    /// A `rows × cols` batch holding a copy of the row-major `data`, in a
    /// workspace buffer: one copy, and no allocation once the workspace
    /// has a large enough free buffer. Hand it back with
    /// [`Mlp::recycle`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` is not
    /// `rows * cols`.
    pub fn batch_from(
        &mut self,
        rows: usize,
        cols: usize,
        data: &[f32],
    ) -> Result<Matrix, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                context: "Mlp::batch_from",
                expected: (rows, cols),
                actual: (data.len(), 1),
            });
        }
        Ok(self.ws.take_copy(rows, cols, data))
    }

    /// Fresh heap allocations the internal workspace has performed. Flat
    /// across training iterations ⇔ the hot loop is allocation-free (what
    /// the workspace-reuse tests assert).
    pub fn workspace_allocations(&self) -> usize {
        self.ws.allocations()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates any layer shape error.
    pub fn forward(&mut self, input: &Matrix, mode: Mode) -> Result<Matrix, TensorError> {
        self.forward_range(0..self.layers.len(), input, mode)
    }

    /// Forward pass through layers `range` only.
    ///
    /// # Errors
    ///
    /// Propagates any layer shape error.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the layer count.
    pub fn forward_range(
        &mut self,
        range: std::ops::Range<usize>,
        input: &Matrix,
        mode: Mode,
    ) -> Result<Matrix, TensorError> {
        assert!(range.end <= self.layers.len(), "layer range out of bounds");
        let Self { layers, ws } = self;
        let slice = &mut layers[range];
        // An empty range is an identity map; the copy still comes from the
        // workspace so the caller can recycle it uniformly.
        if slice.is_empty() {
            let mut out = ws.take(input.rows(), input.cols());
            out.copy_from(input);
            return Ok(out);
        }
        let mut current = slice[0].forward(input, mode, ws)?;
        #[cfg(feature = "finite-check")]
        current.ensure_finite(slice[0].name())?;
        for layer in &mut slice[1..] {
            // The intermediate is the network's own: an eval-mode layer
            // that can overwrite it does, and takes no buffer.
            if mode == Mode::Eval && layer.forward_eval_in_place(&mut current) {
                #[cfg(feature = "finite-check")]
                current.ensure_finite(layer.name())?;
                continue;
            }
            let next = layer.forward(&current, mode, ws)?;
            #[cfg(feature = "finite-check")]
            next.ensure_finite(layer.name())?;
            // The intermediate has been consumed; its buffer goes straight
            // back to the pool.
            ws.give(std::mem::replace(&mut current, next));
        }
        Ok(current)
    }

    /// Full backward pass; returns the gradient w.r.t. the network input.
    ///
    /// # Errors
    ///
    /// Propagates layer cache/shape errors.
    pub fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, TensorError> {
        self.backward_range(0..self.layers.len(), grad_output)
    }

    /// Full backward pass for callers that only want parameter gradients:
    /// the bottom layer skips computing ∂loss/∂input (for [`crate::Dense`],
    /// one whole `grad · Wᵀ` matmul), which a training loop discards
    /// anyway. Parameter gradients are bit-identical to [`Mlp::backward`].
    ///
    /// # Errors
    ///
    /// Propagates layer cache/shape errors.
    pub fn backward_discard(&mut self, grad_output: &Matrix) -> Result<(), TensorError> {
        self.backward_range_discard(0..self.layers.len(), grad_output)
    }

    /// [`Mlp::backward_range`] without the returned input gradient: the
    /// layer at `range.start` records its parameter gradients via
    /// [`Layer::backward_params_only`] and the pass stops there.
    ///
    /// # Errors
    ///
    /// Propagates layer cache/shape errors.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the layer count.
    pub fn backward_range_discard(
        &mut self,
        range: std::ops::Range<usize>,
        grad_output: &Matrix,
    ) -> Result<(), TensorError> {
        assert!(range.end <= self.layers.len(), "layer range out of bounds");
        let Self { layers, ws } = self;
        let Some((bottom, above)) = layers[range].split_first_mut() else {
            return Ok(());
        };
        let grad = backward_layers(above, ws, grad_output)?;
        bottom.backward_params_only(grad.as_ref().unwrap_or(grad_output), ws)?;
        if let Some(grad) = grad {
            ws.give(grad);
        }
        Ok(())
    }

    /// Backward pass through layers `range` (processed back to front);
    /// returns the gradient w.r.t. the input of layer `range.start`.
    ///
    /// # Errors
    ///
    /// Propagates layer cache/shape errors.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the layer count.
    pub fn backward_range(
        &mut self,
        range: std::ops::Range<usize>,
        grad_output: &Matrix,
    ) -> Result<Matrix, TensorError> {
        assert!(range.end <= self.layers.len(), "layer range out of bounds");
        let Self { layers, ws } = self;
        let grad = backward_layers(&mut layers[range], ws, grad_output)?;
        // An empty range is an identity map; the copy still comes from the
        // workspace so the caller can recycle it uniformly.
        Ok(grad.unwrap_or_else(|| {
            ws.take_copy(
                grad_output.rows(),
                grad_output.cols(),
                grad_output.as_slice(),
            )
        }))
    }

    /// One SGD step of layers `from..`, on `x`, the activations at the
    /// input of layer `from`: a [`Mode::Train`] forward to the logits,
    /// softmax cross-entropy against `labels` (its logit gradient is
    /// written to `grad`), a backward pass that stops at layer `from`
    /// without computing that layer's input gradient, and an update of
    /// those layers. The layers before `from` are not updated: that is
    /// how the paper's frozen front is kept. Returns the mini-batch loss.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors and [`losses`] label errors; with the
    /// `finite-check` feature, also [`TensorError::NonFinite`] from any
    /// pass or from the updated parameters.
    ///
    /// # Panics
    ///
    /// Panics if `from` exceeds the layer count.
    pub fn train_step(
        &mut self,
        from: usize,
        x: &Matrix,
        labels: &[usize],
        cfg: &SgdConfig,
        grad: &mut Matrix,
    ) -> Result<f32, TensorError> {
        let range = from..self.layers.len();
        let logits = self.forward_range(range.clone(), x, Mode::Train)?;
        let loss = losses::softmax_cross_entropy_into(&logits, labels, grad);
        self.recycle(logits);
        let loss = loss?;
        self.backward_range_discard(range, grad)?;
        self.update_from(from, cfg)?;
        Ok(loss)
    }

    /// Applies accumulated gradients to every layer with a uniform learning
    /// rate.
    ///
    /// # Errors
    ///
    /// With the `finite-check` feature enabled, returns
    /// [`TensorError::NonFinite`] if any parameter went non-finite during
    /// the update (e.g. a NaN gradient poisoned the weights); infallible
    /// otherwise.
    pub fn step(&mut self, cfg: &SgdConfig) -> Result<(), TensorError> {
        self.update_from(0, cfg)
    }

    /// Applies accumulated gradients to layers `from..`; see [`Mlp::step`].
    fn update_from(&mut self, from: usize, cfg: &SgdConfig) -> Result<(), TensorError> {
        for layer in &mut self.layers[from..] {
            layer.apply_update(cfg);
        }
        self.ensure_params_finite()
    }

    /// Post-step parameter validation for the `finite-check` sanitizer.
    /// Compiled to a no-op without the feature.
    #[cfg(feature = "finite-check")]
    fn ensure_params_finite(&self) -> Result<(), TensorError> {
        let mut buf = Vec::new();
        for layer in &self.layers {
            buf.clear();
            layer.export_params(&mut buf);
            if let Some(i) = buf.iter().position(|v| !v.is_finite()) {
                // Parameters are a flat buffer, so the flat index goes in
                // `col` with `row` pinned to zero.
                return Err(TensorError::NonFinite {
                    op: layer.name(),
                    row: 0,
                    col: i,
                    value: buf[i],
                });
            }
        }
        Ok(())
    }

    #[cfg(not(feature = "finite-check"))]
    #[allow(clippy::unnecessary_wraps)]
    fn ensure_params_finite(&self) -> Result<(), TensorError> {
        Ok(())
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Serialized model size in bytes (4 bytes per `f32` parameter) — the
    /// quantity AMS ships over the downlink on every update.
    pub fn byte_size(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Exports all parameters as a flat buffer (stable layer order).
    pub fn export_weights(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.export_weights_into(&mut out);
        out
    }

    /// [`export_weights`](Mlp::export_weights) into `out`, replacing what
    /// it held: once `out` has held this network's weights, exporting into
    /// it again allocates nothing.
    pub fn export_weights_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve_exact(self.param_count());
        for layer in &self.layers {
            layer.export_params(out);
        }
    }

    /// Imports parameters previously produced by
    /// [`export_weights`](Mlp::export_weights).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ParamCount`] if the buffer length does not
    /// exactly match the network.
    pub fn import_weights(&mut self, weights: &[f32]) -> Result<(), TensorError> {
        if weights.len() != self.param_count() {
            return Err(TensorError::ParamCount {
                expected: self.param_count(),
                actual: weights.len(),
            });
        }
        let mut cursor = ParamCursor::new(weights);
        for layer in &mut self.layers {
            layer.import_params(&mut cursor)?;
        }
        Ok(())
    }
}

/// Runs `layers` back to front through [`Layer::backward`], the shared loop
/// of [`Mlp::backward_range`] and [`Mlp::backward_range_discard`]; returns
/// the gradient w.r.t. the input of the first layer, or `None` for no
/// layers (the gradient is then `grad_output` itself).
fn backward_layers(
    layers: &mut [Box<dyn Layer>],
    ws: &mut Workspace,
    grad_output: &Matrix,
) -> Result<Option<Matrix>, TensorError> {
    let mut current: Option<Matrix> = None;
    for layer in layers.iter_mut().rev() {
        let next = layer.backward(current.as_ref().unwrap_or(grad_output), ws)?;
        #[cfg(feature = "finite-check")]
        next.ensure_finite(layer.name())?;
        // The consumed intermediate goes straight back to the pool.
        if let Some(done) = current.replace(next) {
            ws.give(done);
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};
    use crate::losses;
    use crate::norm::BatchRenorm;
    use shoggoth_util::Rng;

    fn small_net(rng: &mut Rng) -> Mlp {
        Mlp::new(vec![
            Box::new(Dense::new(4, 16, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 8, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, rng)),
        ])
    }

    #[test]
    fn forward_shapes_flow_through() {
        let mut rng = Rng::seed_from(0);
        let mut net = small_net(&mut rng);
        let x = Matrix::zeros(5, 4);
        let y = net.forward(&x, Mode::Eval).expect("shapes");
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn forward_range_matches_split_execution() {
        let mut rng = Rng::seed_from(1);
        let mut net = small_net(&mut rng);
        let x = Matrix::from_fn(3, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let full = net.forward(&x, Mode::Eval).expect("shapes");
        let mid = net.forward_range(0..2, &x, Mode::Eval).expect("shapes");
        let resumed = net
            .forward_range(2..net.len(), &mid, Mode::Eval)
            .expect("shapes");
        assert_eq!(full, resumed, "split execution diverged");
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = Rng::seed_from(2);
        let mut net = small_net(&mut rng);
        let x = Matrix::from_fn(32, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let labels: Vec<usize> = (0..32).map(|i| i % 3).collect();
        let sgd = SgdConfig::new(0.05).with_momentum(0.9);
        let initial = {
            let logits = net.forward(&x, Mode::Train).expect("shapes");
            let (loss, grad) = losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
            net.backward(&grad).expect("cached");
            net.step(&sgd).expect("finite params");
            loss
        };
        let mut last = initial;
        for _ in 0..100 {
            let logits = net.forward(&x, Mode::Train).expect("shapes");
            let (loss, grad) = losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
            net.backward(&grad).expect("cached");
            net.step(&sgd).expect("finite params");
            last = loss;
        }
        assert!(
            last < initial * 0.5,
            "loss did not drop: {initial} -> {last}"
        );
    }

    #[test]
    fn backward_discard_updates_params_bit_identically() {
        let mut rng = Rng::seed_from(11);
        let mut full = small_net(&mut rng);
        let mut discard = full.clone();
        let x = Matrix::from_fn(6, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let sgd = SgdConfig::new(0.05)
            .with_momentum(0.9)
            .with_weight_decay(1e-4);
        for _ in 0..3 {
            let logits = full.forward(&x, Mode::Train).expect("shapes");
            let (_, grad) = losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
            full.backward(&grad).expect("cached");
            full.step(&sgd).expect("finite params");

            let logits = discard.forward(&x, Mode::Train).expect("shapes");
            let (_, grad) = losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
            discard.backward_discard(&grad).expect("cached");
            discard.step(&sgd).expect("finite params");
        }
        assert_eq!(full.export_weights(), discard.export_weights());
    }

    #[test]
    fn backward_discard_requires_forward_cache() {
        let mut rng = Rng::seed_from(12);
        let mut net = small_net(&mut rng);
        let grad = Matrix::zeros(2, 3);
        assert!(net.backward_discard(&grad).is_err());
    }

    #[test]
    fn frozen_layers_do_not_move() {
        let mut rng = Rng::seed_from(3);
        let mut net = small_net(&mut rng);
        let x = Matrix::from_fn(8, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let labels = vec![0usize; 8];
        let sgd = SgdConfig::new(0.1).with_momentum(0.9);
        // A full step first, so the front Dense holds gradients and
        // momentum that an update would apply.
        let mut grad = Matrix::zeros(0, 0);
        net.train_step(0, &x, &labels, &sgd, &mut grad)
            .expect("finite params");
        let before = net.export_weights();
        // Train from layer 2 on: the front Dense (4·16 + 16 parameters)
        // must be bit-identical afterwards, the rest must have moved.
        let front = net.forward_range(0..2, &x, Mode::Train).expect("shapes");
        net.train_step(2, &front, &labels, &sgd, &mut grad)
            .expect("finite params");
        let after = net.export_weights();
        assert_eq!(after[..80], before[..80]);
        assert_ne!(after[80..], before[80..]);
    }

    /// Every layer's full state (parameters, gradients, momentum buffers,
    /// caches and running moments): derived `Debug` prints each `f32` in
    /// its shortest round-tripping form, so equal strings are equal bits.
    fn layer_states(net: &Mlp) -> Vec<String> {
        net.layers.iter().map(|l| format!("{l:?}")).collect()
    }

    #[test]
    fn train_step_matches_the_hand_written_step() {
        let mut rng = Rng::seed_from(13);
        let mut net = Mlp::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(BatchRenorm::new(16)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 3, &mut rng)),
        ]);
        let mut reference = net.clone();
        let sgd = SgdConfig::new(0.05)
            .with_momentum(0.9)
            .with_weight_decay(1e-4);
        let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
        for k in [3, 3, 0, 5] {
            let front_before: Vec<Vec<f32>> = net.layers[..k]
                .iter()
                .map(|l| {
                    let mut params = Vec::new();
                    l.export_params(&mut params);
                    params
                })
                .collect();
            let x = Matrix::from_fn(6, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));

            let front = net.forward_range(0..k, &x, Mode::Train).expect("shapes");
            let mut grad = Matrix::zeros(0, 0);
            let loss = net
                .train_step(k, &front, &labels, &sgd, &mut grad)
                .expect("finite params");

            let logits = reference.forward(&x, Mode::Train).expect("shapes");
            let (ref_loss, ref_grad) =
                losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
            let len = reference.len();
            reference
                .backward_range_discard(k..len, &ref_grad)
                .expect("cached");
            for layer in &mut reference.layers[k..] {
                layer.apply_update(&sgd);
            }

            assert_eq!(loss.to_bits(), ref_loss.to_bits(), "from {k}");
            assert_eq!(grad, ref_grad, "from {k}");
            assert_eq!(layer_states(&net), layer_states(&reference), "from {k}");
            for (layer, before) in net.layers[..k].iter().zip(&front_before) {
                let mut params = Vec::new();
                layer.export_params(&mut params);
                // BatchRenorm's running moments follow the train-mode
                // forward; its γ and β (the first half) must not move.
                let trained = if layer.name() == "dense" {
                    params.len()
                } else {
                    params.len() / 2
                };
                assert_eq!(params[..trained], before[..trained], "from {k}");
            }
        }
    }

    #[test]
    fn export_import_round_trip_preserves_outputs() {
        let mut rng = Rng::seed_from(5);
        let mut net = small_net(&mut rng);
        let weights = net.export_weights();
        assert_eq!(weights.len(), net.param_count());
        let mut rng2 = Rng::seed_from(99);
        let mut other = small_net(&mut rng2);
        other.import_weights(&weights).expect("sizes match");
        let x = Matrix::from_fn(4, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let a = net.forward(&x, Mode::Eval).expect("shapes");
        let b = other.forward(&x, Mode::Eval).expect("shapes");
        assert_eq!(a, b);
    }

    #[test]
    fn export_into_reuses_the_buffer_and_matches_export() {
        let mut rng = Rng::seed_from(8);
        let mut net = small_net(&mut rng);
        let mut out = vec![7.0; 3];
        net.export_weights_into(&mut out);
        assert_eq!(out, net.export_weights());
        let (ptr, capacity) = (out.as_ptr(), out.capacity());
        let x = Matrix::from_fn(8, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let logits = net.forward(&x, Mode::Train).expect("shapes");
        let (_, grad) = losses::softmax_cross_entropy(&logits, &[1; 8]).expect("shapes");
        net.backward(&grad).expect("cached");
        net.step(&SgdConfig::new(0.5)).expect("finite params");
        net.export_weights_into(&mut out);
        assert_eq!(out, net.export_weights());
        assert_eq!((out.as_ptr(), out.capacity()), (ptr, capacity));
    }

    #[test]
    fn import_rejects_wrong_length() {
        let mut rng = Rng::seed_from(6);
        let mut net = small_net(&mut rng);
        let weights = vec![0.0; net.param_count() + 1];
        assert!(matches!(
            net.import_weights(&weights),
            Err(TensorError::ParamCount { .. })
        ));
    }

    #[test]
    fn clone_is_deep() {
        let mut rng = Rng::seed_from(7);
        let mut net = small_net(&mut rng);
        let mut copy = net.clone();
        let x = Matrix::from_fn(8, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let labels = vec![1usize; 8];
        let sgd = SgdConfig::new(0.5);
        let logits = net.forward(&x, Mode::Train).expect("shapes");
        let (_, grad) = losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
        net.backward(&grad).expect("cached");
        net.step(&sgd).expect("finite params");
        // The clone must be unaffected by training the original.
        assert_ne!(net.export_weights(), copy.export_weights());
        let _ = copy.forward(&x, Mode::Eval).expect("clone still works");
    }

    #[test]
    fn steady_state_training_is_allocation_free() {
        // The acceptance test for the workspace design: after warm-up, a
        // full forward/loss/backward/step cycle must perform zero fresh
        // heap allocations on the tensor path.
        let mut rng = Rng::seed_from(10);
        let mut net = Mlp::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(BatchRenorm::new(16)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, &mut rng)),
        ]);
        let x = Matrix::from_fn(8, 4, |_, _| rng.next_gaussian_f32(0.0, 1.0));
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let sgd = SgdConfig::new(0.05).with_momentum(0.9);
        let mut grad = Matrix::zeros(0, 0);
        let train_step = |net: &mut Mlp, grad: &mut Matrix| {
            let logits = net.forward(&x, Mode::Train).expect("shapes");
            losses::softmax_cross_entropy_into(&logits, &labels, grad).expect("shapes");
            net.recycle(logits);
            let grad_in = net.backward(grad).expect("cached");
            net.recycle(grad_in);
            net.step(&sgd).expect("finite params");
        };
        for _ in 0..3 {
            train_step(&mut net, &mut grad);
        }
        let baseline = net.workspace_allocations();
        for _ in 0..20 {
            train_step(&mut net, &mut grad);
        }
        assert_eq!(
            net.workspace_allocations(),
            baseline,
            "training hot loop allocated fresh tensor buffers"
        );
    }

    #[test]
    fn recycled_buffers_are_reused_across_calls() {
        let mut rng = Rng::seed_from(11);
        let mut net = small_net(&mut rng);
        let x = Matrix::zeros(6, 4);
        let y = net.forward(&x, Mode::Eval).expect("shapes");
        net.recycle(y);
        let before = net.workspace_allocations();
        let y = net.forward(&x, Mode::Eval).expect("shapes");
        net.recycle(y);
        assert_eq!(net.workspace_allocations(), before);
    }

    #[test]
    fn byte_size_is_four_bytes_per_param() {
        let mut rng = Rng::seed_from(8);
        let net = small_net(&mut rng);
        assert_eq!(net.byte_size(), net.param_count() * 4);
    }

    #[test]
    fn brn_network_trains_with_small_batches() {
        // The paper's motivation for BRN: training with fine-grained batches
        // should still converge.
        let mut rng = Rng::seed_from(9);
        let mut net = Mlp::new(vec![
            Box::new(Dense::new(4, 16, &mut rng)),
            Box::new(BatchRenorm::new(16)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 2, &mut rng)),
        ]);
        let sgd = SgdConfig::new(0.02).with_momentum(0.9);
        let mut final_acc = 0.0;
        for step in 0..400 {
            let x = Matrix::from_fn(8, 4, |r, _| {
                let class = r % 2;
                rng.next_gaussian_f32(if class == 0 { -1.0 } else { 1.0 }, 0.5)
            });
            let labels: Vec<usize> = (0..8).map(|r| r % 2).collect();
            let logits = net.forward(&x, Mode::Train).expect("shapes");
            let (_, grad) = losses::softmax_cross_entropy(&logits, &labels).expect("shapes");
            net.backward(&grad).expect("cached");
            net.step(&sgd).expect("finite params");
            if step >= 350 {
                let eval = net.forward(&x, Mode::Eval).expect("shapes");
                final_acc += losses::accuracy(&eval, &labels);
            }
        }
        final_acc /= 50.0;
        assert!(
            final_acc > 0.9,
            "BRN small-batch training accuracy {final_acc}"
        );
    }
}
