//! Cross-entropy loss for multi-class classification.
//!
//! The paper uses the standard softmax cross-entropy loss (Eq. (1)–(2)). This
//! module provides its two batched heads: [`softmax_cross_entropy_batch`]
//! (loss plus the gradient with respect to the logits, which every backward
//! pass starts from) and [`eval_logits_batch`] (loss plus argmax hits, for
//! evaluation). The per-sample form lives beside the per-sample reference
//! trainer in `tests/reference/`.

/// Batched softmax cross-entropy: transform a `rows × classes` row-major
/// logits matrix **in place** into the scaled loss gradient
/// `delta = scale · (softmax(z) − onehot(label))` and return the summed
/// (unscaled) per-sample loss.
///
/// This is the head of every batched backward pass: the returned buffer
/// feeds straight into the `∇W = δᵀ · X` GEMM, with the `1/B` batch
/// normalisation folded into `scale` so no separate rescaling pass is
/// needed.
pub(crate) fn softmax_cross_entropy_batch(
    logits: &mut [f64],
    labels: &[usize],
    classes: usize,
    scale: f64,
) -> f64 {
    let rows = labels.len();
    assert_eq!(
        logits.len(),
        rows * classes,
        "softmax_cross_entropy_batch dimension mismatch"
    );
    let mut loss_sum = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label out of range");
        let row = &mut logits[r * classes..(r + 1) * classes];
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv_sum = 1.0 / sum;
        loss_sum -= (row[label] * inv_sum).max(1e-15).ln();
        for v in row.iter_mut() {
            *v *= inv_sum * scale;
        }
        row[label] -= scale;
    }
    loss_sum
}

/// Batched evaluation of a `rows × classes` logits matrix: adds each row's
/// cross-entropy loss to `loss_sum`, in row order, and returns that sum and
/// the number of rows whose argmax matches the label. A running sum carried
/// across calls adds in the order one call over all of their rows would. One
/// pass, no scratch memory — this is the evaluation-path counterpart of
/// [`softmax_cross_entropy_batch`].
pub(crate) fn eval_logits_batch(
    logits: &[f64],
    labels: &[usize],
    classes: usize,
    mut loss_sum: f64,
) -> (f64, usize) {
    let rows = labels.len();
    assert_eq!(
        logits.len(),
        rows * classes,
        "eval_logits_batch dimension mismatch"
    );
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label out of range");
        let row = &logits[r * classes..(r + 1) * classes];
        let mut max = f64::NEG_INFINITY;
        let mut argmax = 0usize;
        for (i, &v) in row.iter().enumerate() {
            if v > max {
                max = v;
                argmax = i;
            }
        }
        // Stable log-sum-exp form of -ln softmax(z)[label].
        let sum_exp: f64 = row.iter().map(|&v| (v - max).exp()).sum();
        loss_sum += sum_exp.ln() + max - row[label];
        if argmax == label {
            correct += 1;
        }
    }
    (loss_sum, correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Summed loss of the evaluation head over a batch.
    fn loss(logits: &[f64], labels: &[usize], classes: usize) -> f64 {
        eval_logits_batch(logits, labels, classes, 0.0).0
    }

    /// `(softmax(z) − onehot(label))` and the summed loss, from the training
    /// head at scale 1.
    fn loss_and_grad(logits: &[f64], labels: &[usize], classes: usize) -> (f64, Vec<f64>) {
        let mut delta = logits.to_vec();
        let loss = softmax_cross_entropy_batch(&mut delta, labels, classes, 1.0);
        (loss, delta)
    }

    #[test]
    fn loss_is_ln_k_for_uniform_logits() {
        let logits = [0.0; 10];
        assert!((loss(&logits, &[3], 10) - (10.0f64).ln()).abs() < 1e-12);
        assert!((loss_and_grad(&logits, &[3], 10).0 - (10.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn loss_decreases_when_correct_logit_grows() {
        let mut logits = [0.0; 5];
        let l0 = loss(&logits, &[2], 5);
        logits[2] = 3.0;
        let l1 = loss(&logits, &[2], 5);
        assert!(l1 < l0);
    }

    #[test]
    fn gradient_sums_to_zero() {
        let logits = [0.3, -1.2, 2.0, 0.0];
        let (_, g) = loss_and_grad(&logits, &[1], 4);
        let sum: f64 = g.iter().sum();
        assert!(sum.abs() < 1e-12);
    }

    /// The training head's gradient against central differences of the
    /// evaluation head's loss: two formulas, two passes over two rows.
    #[test]
    fn gradient_matches_finite_difference() {
        let logits = vec![0.5, -0.2, 1.3, /* row 2 */ -1.0, 0.0, 2.5];
        let labels = [2usize, 0];
        let (_, g) = loss_and_grad(&logits, &labels, 3);
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus[i] += eps;
            let mut minus = logits.clone();
            minus[i] -= eps;
            let fd = (loss(&plus, &labels, 3) - loss(&minus, &labels, 3)) / (2.0 * eps);
            assert!(
                (fd - g[i]).abs() < 1e-6,
                "finite difference {fd} != analytic {g:?}[{i}]"
            );
        }
    }

    /// The head that also produces the gradient (`−ln max(p, 1e-15)`) and the
    /// evaluation-only head (log-sum-exp) report the same loss.
    #[test]
    fn combined_matches_separate_calls() {
        let logits = [1.0, 2.0, -0.5, /* row 2 */ 3.0, 1.0, -1.0];
        let labels = [0usize, 2];
        let (combined, _) = loss_and_grad(&logits, &labels, 3);
        assert!((combined - loss(&logits, &labels, 3)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_label() {
        let _ = loss(&[0.0, 0.0], &[2], 2);
    }

    /// Hand-rolled per-sample softmax, `scale` folded into the delta.
    #[test]
    fn batched_head_matches_per_sample() {
        let logits = vec![0.5, -0.2, 1.3, /* row 2 */ -1.0, 0.0, 2.5];
        let labels = [2usize, 0];
        let scale = 0.5;
        let mut batch = logits.clone();
        let loss_sum = softmax_cross_entropy_batch(&mut batch, &labels, 3, scale);
        let mut expect_loss = 0.0;
        for (r, &label) in labels.iter().enumerate() {
            let row = &logits[r * 3..(r + 1) * 3];
            let sum: f64 = row.iter().map(|v| v.exp()).sum();
            expect_loss -= (row[label].exp() / sum).ln();
            for (c, v) in row.iter().enumerate() {
                let onehot = if c == label { 1.0 } else { 0.0 };
                assert!(
                    (batch[r * 3 + c] - (v.exp() / sum - onehot) * scale).abs() < 1e-12,
                    "delta mismatch at ({r},{c})"
                );
            }
        }
        assert!((loss_sum - expect_loss).abs() < 1e-12);
    }

    #[test]
    fn eval_batch_matches_per_sample_loss_and_argmax() {
        let logits = vec![3.0, 1.0, -1.0, /* row 2 */ 0.0, 0.1, 0.0];
        let labels = [0usize, 2];
        let (loss_sum, correct) = eval_logits_batch(&logits, &labels, 3, 0.0);
        let expect: f64 = labels
            .iter()
            .enumerate()
            .map(|(r, &l)| {
                let row = &logits[r * 3..(r + 1) * 3];
                -(row[l].exp() / row.iter().map(|v| v.exp()).sum::<f64>()).ln()
            })
            .sum();
        assert!((loss_sum - expect).abs() < 1e-12);
        assert_eq!(correct, 1); // row 0 correct, row 1 predicts class 1
    }

    #[test]
    fn eval_batch_is_stable_for_huge_logits() {
        let logits = vec![1000.0, 999.0];
        let (loss, correct) = eval_logits_batch(&logits, &[0], 2, 0.0);
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(correct, 1);
    }
}
