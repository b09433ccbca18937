//! Loss functions returning `(loss, gradient)` pairs.
//!
//! The detector's classification head trains with softmax cross-entropy over
//! object classes plus a background class (pseudo-labels per the paper's
//! Eq. 1 map positive detector outputs to their class and negative samples
//! to background). The scene-change score φ (§III-C) reuses the same loss
//! notion between consecutive teacher outputs.

use crate::{Matrix, TensorError};
use shoggoth_util::fmath;

/// Numerically-stable row-wise softmax.
///
/// # Examples
///
/// ```
/// use shoggoth_tensor::{losses, Matrix};
///
/// let logits = Matrix::from_rows(&[&[0.0, 0.0]])?;
/// let p = losses::softmax(&logits);
/// assert!((p.get(0, 0) - 0.5).abs() < 1e-6);
/// # Ok::<(), shoggoth_tensor::TensorError>(())
/// ```
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`] written over the logits: each row becomes its
/// distribution, with the same arithmetic (`exp(v − max)` with the row
/// max, summed in column order, then one multiply by the sum's
/// reciprocal). `exp` is [`fmath::exp`] rounded to `f32`, applied to the
/// whole matrix in one loop so that it vectorizes at any row width.
pub fn softmax_in_place(logits: &mut Matrix) {
    let cols = logits.cols();
    if cols == 0 {
        return;
    }
    let values = logits.as_mut_slice();
    for row in values.chunks_exact_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v -= max;
        }
    }
    for v in values.iter_mut() {
        *v = fmath::exp(f64::from(*v)) as f32;
    }
    for row in values.chunks_exact_mut(cols) {
        let sum = row.iter().fold(0.0, |sum, &e| sum + e);
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Mean softmax cross-entropy over a batch, with gradient w.r.t. logits.
///
/// `labels[i]` is the target class index of row `i`. The returned gradient
/// is `(softmax(logits) − one_hot(labels)) / batch`, ready to feed into
/// [`crate::Mlp::backward`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `labels.len()` differs from the
/// number of rows or any label is out of range.
pub fn softmax_cross_entropy(
    logits: &Matrix,
    labels: &[usize],
) -> Result<(f32, Matrix), TensorError> {
    let mut grad = Matrix::zeros(0, 0);
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad)?;
    Ok((loss, grad))
}

/// [`softmax_cross_entropy`] writing the gradient into `grad` (resized,
/// storage reused) — the allocation-free form for training loops that keep
/// a persistent gradient matrix. Loss and gradient values are bit-identical
/// to the allocating form.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `labels.len()` differs from the
/// number of rows or any label is out of range.
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    grad: &mut Matrix,
) -> Result<f32, TensorError> {
    if labels.len() != logits.rows() {
        return Err(TensorError::ShapeMismatch {
            context: "losses::softmax_cross_entropy",
            expected: (logits.rows(), 1),
            actual: (labels.len(), 1),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= logits.cols()) {
        return Err(TensorError::ShapeMismatch {
            context: "losses::softmax_cross_entropy (label out of range)",
            expected: (1, logits.cols()),
            actual: (1, bad + 1),
        });
    }
    // The softmax of the logits in `grad`, turned into the gradient in
    // place.
    grad.copy_from(logits);
    softmax_in_place(grad);
    let n = logits.rows() as f32;
    let mut loss = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        let p = grad.get(r, label).max(1e-12);
        loss -= fmath::ln(f64::from(p)) as f32;
        grad.set(r, label, grad.get(r, label) - 1.0);
    }
    let loss = loss / n;
    let inv_n = 1.0 / n;
    for v in grad.as_mut_slice() {
        *v *= inv_n;
    }
    #[cfg(feature = "finite-check")]
    {
        if !loss.is_finite() {
            return Err(TensorError::NonFinite {
                op: "losses::softmax_cross_entropy",
                row: 0,
                col: 0,
                value: loss,
            });
        }
        grad.ensure_finite("losses::softmax_cross_entropy")?;
    }
    Ok(loss)
}

/// Classification accuracy of logits against labels.
///
/// Returns `0.0` for an empty batch.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of rows.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), logits.rows(), "label count must match batch");
    if labels.is_empty() {
        return 0.0;
    }
    let pred = logits.row_argmax();
    let correct = pred.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]).expect("valid");
        let p = softmax(&logits);
        for r in 0..2 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Matrix::from_rows(&[&[1000.0, 1001.0]]).expect("valid");
        let p = softmax(&a);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        assert!((p.get(0, 1) - 1.0 / (1.0 + (-1.0f32).exp())).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[&[20.0, 0.0]]).expect("valid");
        let (loss, _) = softmax_cross_entropy(&logits, &[0]).expect("shapes");
        assert!(loss < 1e-6);
    }

    #[test]
    fn cross_entropy_of_uniform_is_ln_classes() {
        let logits = Matrix::zeros(1, 4);
        let (loss, _) = softmax_cross_entropy(&logits, &[2]).expect("shapes");
        assert!((loss - 4.0f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[2.0, 0.1, -1.0]]).expect("valid");
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).expect("shapes");
        let eps = 1e-3f32;
        for probe in [(0usize, 0usize), (0, 2), (1, 1)] {
            let mut lp = logits.clone();
            lp.set(probe.0, probe.1, logits.get(probe.0, probe.1) + eps);
            let mut lm = logits.clone();
            lm.set(probe.0, probe.1, logits.get(probe.0, probe.1) - eps);
            let (loss_p, _) = softmax_cross_entropy(&lp, &labels).expect("shapes");
            let (loss_m, _) = softmax_cross_entropy(&lm, &labels).expect("shapes");
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            let analytic = grad.get(probe.0, probe.1);
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "probe {probe:?}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let logits = Matrix::zeros(2, 3);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 3]).is_err());
    }

    #[test]
    fn cross_entropy_into_matches_allocating_form() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[2.0, 0.1, -1.0]]).expect("valid");
        let labels = [2usize, 0];
        let (loss_a, grad_a) = softmax_cross_entropy(&logits, &labels).expect("shapes");
        let mut grad_b = Matrix::zeros(5, 1); // wrong shape on purpose: must be resized
        let loss_b = softmax_cross_entropy_into(&logits, &labels, &mut grad_b).expect("shapes");
        assert_eq!(loss_a, loss_b);
        assert_eq!(grad_a, grad_b);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.6, 0.4]]).expect("valid");
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }
}
