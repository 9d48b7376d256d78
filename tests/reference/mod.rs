//! Reference implementations kept out of the library crates, as oracles for
//! `tests/properties.rs`: the per-sample trainer, the whole-vector
//! over-the-air and exact aggregations and Eq. (10) ([`air_aggregate`],
//! [`exact_aggregate`], [`group_update`]) and Lemma 1's recursion and
//! closed-form envelope ([`lemma1_recursion`], [`lemma1_envelope`]).
//!
//! ## The per-sample reference trainer
//!
//! This is the algorithm the first version of `fedml` shipped: walk the
//! mini-batch one sample at a time, computing a matvec per layer on the way
//! forward and a rank-one update per layer on the way back, allocating fresh
//! vectors for logits, softmax outputs, ReLU masks and activations at every
//! step. It exists as a **correctness oracle**: the property tests assert
//! that the batched GEMM engine reproduces these gradients to 1e-10 on random
//! models and batches, that a whole multi-epoch local update
//! ([`mlp_local_update_reference`]) lands on the same parameters, and that an
//! evaluation ([`mlp_evaluate`]) reports the same loss and accuracy.
//!
//! It intentionally mirrors the mathematical definition rather than sharing
//! code with the batched implementation.

use fedml::dataset::Dataset;
use fedml::linalg::{norm_sq, Matrix, MatrixView};
use fedml::model::Mlp;
use fedml::optimizer::SgdConfig;
use fedml::params::FlatParams;
use fedml::rng::Rng64;
use wireless::aircomp::AirAggregationInput;

/// `y = m x`, the matrix–vector product (`x.len() == m.cols()`).
fn matvec(m: MatrixView<'_>, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), m.cols(), "matvec dimension mismatch");
    let mut y = vec![0.0; m.rows()];
    for (yv, row) in y.iter_mut().zip(m.as_slice().chunks_exact(m.cols())) {
        let mut acc = 0.0;
        for (a, b) in row.iter().zip(x.iter()) {
            acc += a * b;
        }
        *yv = acc;
    }
    y
}

/// `y = mᵀ x`, the transposed matrix–vector product (`x.len() == m.rows()`).
fn matvec_transposed(m: MatrixView<'_>, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), m.rows(), "matvec_transposed dimension mismatch");
    let mut y = vec![0.0; m.cols()];
    for (row, &xr) in m.as_slice().chunks_exact(m.cols()).zip(x.iter()) {
        if xr == 0.0 {
            continue;
        }
        for (yc, a) in y.iter_mut().zip(row.iter()) {
            *yc += a * xr;
        }
    }
    y
}

/// Rank-one update `m += alpha * u * vᵀ` (`u.len() == m.rows()`,
/// `v.len() == m.cols()`): the shape of every per-sample gradient
/// contribution of a dense layer.
fn rank_one_update(m: &mut Matrix, alpha: f64, u: &[f64], v: &[f64]) {
    assert_eq!(u.len(), m.rows(), "rank_one_update row mismatch");
    assert_eq!(v.len(), m.cols(), "rank_one_update col mismatch");
    let cols = m.cols();
    for (row, &uv) in m.as_mut_slice().chunks_exact_mut(cols).zip(u.iter()) {
        let ur = alpha * uv;
        if ur == 0.0 {
            continue;
        }
        for (mv, vv) in row.iter_mut().zip(v.iter()) {
            *mv += ur * vv;
        }
    }
}

/// Element-wise ReLU applied in place; returns a mask of which entries were
/// positive (needed by the backward pass).
fn relu_in_place(x: &mut [f64]) -> Vec<bool> {
    let mut mask = Vec::with_capacity(x.len());
    for v in x.iter_mut() {
        if *v > 0.0 {
            mask.push(true);
        } else {
            *v = 0.0;
            mask.push(false);
        }
    }
    mask
}

/// Numerically stable softmax over a slice of logits.
fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Softmax cross-entropy loss of a single sample, `-log p_label(x)` (clamped
/// away from infinity), and its gradient with respect to the logits,
/// `softmax(logits) - onehot(label)`.
fn cross_entropy_with_grad(logits: &[f64], label: usize) -> (f64, Vec<f64>) {
    assert!(label < logits.len(), "label out of range");
    let mut p = softmax(logits);
    let loss = -(p[label].max(1e-15)).ln();
    p[label] -= 1.0;
    (loss, p)
}

/// Forward pass of one sample through an [`Mlp`], returning every layer
/// input, the ReLU masks and the final logits.
fn mlp_forward_trace(model: &Mlp, x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<bool>>, Vec<f64>) {
    let depth = model.depth();
    let mut activations: Vec<Vec<f64>> = vec![x.to_vec()];
    let mut masks: Vec<Vec<bool>> = Vec::with_capacity(depth.saturating_sub(1));
    let mut current = x.to_vec();
    for l in 0..depth {
        let mut z = matvec(model.layer_weights(l), &current);
        for (zi, b) in z.iter_mut().zip(model.layer_bias(l).iter()) {
            *zi += b;
        }
        if l + 1 < depth {
            let mask = relu_in_place(&mut z);
            masks.push(mask);
            activations.push(z.clone());
            current = z;
        } else {
            return (activations, masks, z);
        }
    }
    unreachable!("an Mlp always has at least one layer");
}

/// The regularisation term of the loss, `½ · l2 · Σ_l ‖W_l‖²` (weight
/// matrices only, not biases).
fn l2_penalty(model: &Mlp) -> f64 {
    let norm_sq: f64 = (0..model.depth())
        .map(|l| norm_sq(model.layer_weights(l).as_slice()))
        .sum();
    0.5 * model.l2() * norm_sq
}

/// Per-sample loss and averaged gradient of an [`Mlp`] — the reference
/// implementation of `Mlp::loss_and_gradient` (per-sample backprop with
/// rank-one weight updates, then the L2 term `l2 · W` on every weight
/// matrix).
pub fn mlp_loss_and_gradient(model: &Mlp, data: &Dataset, indices: &[usize]) -> (f64, FlatParams) {
    assert!(!indices.is_empty(), "gradient over an empty batch");
    let depth = model.depth();
    let inv_n = 1.0 / indices.len() as f64;
    let mut grads: Vec<(Matrix, Vec<f64>)> = (0..depth)
        .map(|l| {
            let w = model.layer_weights(l);
            (
                Matrix::zeros(w.rows(), w.cols()),
                vec![0.0; model.layer_bias(l).len()],
            )
        })
        .collect();
    let mut total_loss = 0.0;
    for &i in indices {
        let x = data.sample(i);
        let (activations, masks, logits) = mlp_forward_trace(model, x);
        let (loss, mut delta) = cross_entropy_with_grad(&logits, data.label(i));
        total_loss += loss;
        for l in (0..depth).rev() {
            let input = &activations[l];
            let (gw, gb) = &mut grads[l];
            rank_one_update(gw, inv_n, &delta, input);
            for (b, dv) in gb.iter_mut().zip(delta.iter()) {
                *b += inv_n * dv;
            }
            if l > 0 {
                let mut prev = matvec_transposed(model.layer_weights(l), &delta);
                for (p, &m) in prev.iter_mut().zip(masks[l - 1].iter()) {
                    if !m {
                        *p = 0.0;
                    }
                }
                delta = prev;
            }
        }
    }
    let mut flat = Vec::with_capacity(model.num_params());
    for (l, (gw, gb)) in grads.iter_mut().enumerate() {
        let weights = model.layer_weights(l).as_slice();
        for (g, w) in gw.as_mut_slice().iter_mut().zip(weights) {
            *g += model.l2() * w;
        }
        flat.extend_from_slice(gw.as_slice());
        flat.extend_from_slice(gb);
    }
    (total_loss * inv_n + l2_penalty(model), FlatParams(flat))
}

/// Per-sample mean loss and accuracy of an [`Mlp`] over a whole dataset —
/// the reference implementation of `Mlp::evaluate_ws` (one forward trace
/// per sample; the first of several maximal logits is the prediction).
pub fn mlp_evaluate(model: &Mlp, data: &Dataset) -> (f64, f64) {
    let mut total_loss = 0.0;
    let mut correct = 0usize;
    for i in 0..data.len() {
        let (_, _, logits) = mlp_forward_trace(model, data.sample(i));
        total_loss += cross_entropy_with_grad(&logits, data.label(i)).0;
        let mut best = 0;
        for (c, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = c;
            }
        }
        if best == data.label(i) {
            correct += 1;
        }
    }
    let n = data.len() as f64;
    (total_loss / n + l2_penalty(model), correct as f64 / n)
}

/// The seed's per-sample local SGD step: per mini-batch it runs
/// [`mlp_loss_and_gradient`] and applies the update as a plain axpy on the
/// flat parameters.
pub fn mlp_local_update_reference(
    model: &mut Mlp,
    shard: &Dataset,
    cfg: &SgdConfig,
    rng: &mut Rng64,
) -> f64 {
    cfg.validate();
    assert!(!shard.is_empty(), "cannot train on an empty shard");
    let batch = cfg.batch_size.min(shard.len());
    let mut order: Vec<usize> = (0..shard.len()).collect();
    let mut loss_sum = 0.0;
    let mut batches = 0usize;
    for _ in 0..cfg.local_epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(batch) {
            let (loss, grad) = mlp_loss_and_gradient(model, shard, chunk);
            model.params_mut().axpy(-cfg.learning_rate, &grad);
            loss_sum += loss;
            batches += 1;
        }
    }
    loss_sum / batches as f64
}

/// Result of one allocating over-the-air aggregation ([`air_aggregate`]).
#[derive(Debug, Clone)]
pub struct AirAggregationResult {
    /// The denoised group estimate `w̃_j^t = y_t / (D_j √η_t)`.
    pub group_estimate: FlatParams,
    /// The ideal (error-free) group model `Σ (d_i/D_j) w_i^t` of Eq. (15).
    pub ideal_group_model: FlatParams,
    /// Squared L2 norm of the aggregation error `ε_j^t` (Eq. (17)).
    pub error_norm_sq: f64,
    /// Energy `E_i^t` spent by each participating worker (Eq. (7)).
    pub per_worker_energy: Vec<f64>,
    /// Total data size `D_{j_t}` of the participants.
    pub group_data_size: f64,
}

impl AirAggregationResult {
    /// Mean squared error per model coordinate.
    pub fn mse(&self) -> f64 {
        self.error_norm_sq / self.group_estimate.dim() as f64
    }

    /// Total energy spent by the group in this aggregation.
    pub fn total_energy(&self) -> f64 {
        self.per_worker_energy.iter().sum()
    }
}

/// One over-the-air aggregation (Eq. (9) + the denoising of Eq. (10)) over
/// the whole parameter vector at once, into freshly allocated buffers: the
/// oracle the library's blocked fold is checked against, bit for bit. It
/// calls nothing in `wireless`: fill `y` with zeros, add `(d_i σ) · w_i` per
/// member in input order, add the AWGN over the whole vector (one
/// `add_gaussian_noise` call), multiply by `1 / (D_j √η)`; then the ideal
/// model `Σ (d_i / D_j) w_i`, the error norm and each member's energy
/// `p_i² ‖w_i‖²` with `p_i = d_i σ / h_i` (Eqs. (6)–(7)).
pub fn air_aggregate(
    inputs: &[AirAggregationInput<'_>],
    sigma: f64,
    eta: f64,
    noise_variance: f64,
    rng: &mut Rng64,
) -> AirAggregationResult {
    assert!(
        !inputs.is_empty(),
        "over-the-air aggregation with no workers"
    );
    let dim = inputs[0].params.dim();
    let group_data_size: f64 = inputs.iter().map(|c| c.data_size).sum();
    let mut y = vec![0.0; dim];
    for c in inputs {
        assert_eq!(c.params.dim(), dim, "parameter dimension mismatch");
        let coefficient = c.data_size * sigma;
        for (y, w) in y.iter_mut().zip(c.params.as_slice()) {
            *y += coefficient * w;
        }
    }
    if noise_variance > 0.0 {
        rng.add_gaussian_noise(&mut y, noise_variance.sqrt());
    }
    let denoise = 1.0 / (group_data_size * eta.sqrt());
    for y in &mut y {
        *y *= denoise;
    }
    let mut ideal = vec![0.0; dim];
    for c in inputs {
        let weight = c.data_size / group_data_size;
        for (x, w) in ideal.iter_mut().zip(c.params.as_slice()) {
            *x += weight * w;
        }
    }
    let error_norm_sq = y.iter().zip(&ideal).map(|(a, b)| (a - b) * (a - b)).sum();
    let per_worker_energy = inputs
        .iter()
        .map(|c| {
            let power = c.data_size * sigma / c.channel_gain;
            let norm_sq: f64 = c.params.as_slice().iter().map(|v| v * v).sum();
            power * power * norm_sq
        })
        .collect();
    AirAggregationResult {
        group_estimate: FlatParams(y),
        ideal_group_model: FlatParams(ideal),
        error_norm_sq,
        per_worker_energy,
        group_data_size,
    }
}

/// The exact (OMA) group model `Σ (d_i / D_j) w_i` over the whole vector,
/// members in input order: the oracle of the engine's exact fold.
pub fn exact_aggregate(members: &[(f64, &FlatParams)]) -> FlatParams {
    let group_data_size: f64 = members.iter().map(|&(d, _)| d).sum();
    let mut y = vec![0.0; members[0].1.dim()];
    for &(d, w) in members {
        let weight = d / group_data_size;
        for (y, w) in y.iter_mut().zip(w.as_slice()) {
            *y += weight * w;
        }
    }
    FlatParams(y)
}

/// Eq. (10) over the whole vector: `w ← (1 − β) w`, then `w ← w + β w̃`,
/// with `β = D_j / D`.
pub fn group_update(global: &mut FlatParams, estimate: &FlatParams, group_data: f64, total: f64) {
    let beta = group_data / total;
    for w in global.0.iter_mut() {
        *w *= 1.0 - beta;
    }
    for (w, e) in global.0.iter_mut().zip(estimate.as_slice()) {
        *w += beta * e;
    }
}

/// The Lemma-1 recursion: given `Q(t) ≤ x·Q(t−1) + y·Q(l_t) + z` with
/// `x + y < 1` and `l_t ≥ t − τ_max − 1`, the lemma asserts
/// `Q(t) ≤ ρ^t Q(0) + δ` with `ρ = (x+y)^{1/(1+τ_max)}` and `δ = z/(1−x−y)`.
/// This helper iterates the recursion numerically (worst case `l_t = t−τ−1`)
/// so tests can confirm the closed form dominates it.
pub fn lemma1_recursion(
    x: f64,
    y: f64,
    z: f64,
    q0: f64,
    tau_max: usize,
    rounds: usize,
) -> Vec<f64> {
    assert!(
        x >= 0.0 && y >= 0.0 && z >= 0.0 && q0 >= 0.0,
        "nonnegative inputs"
    );
    assert!(x + y < 1.0, "Lemma 1 requires x + y < 1");
    let mut q = vec![q0];
    for t in 1..=rounds {
        let prev = q[t - 1];
        let lt = t.saturating_sub(tau_max + 1);
        let stale = q[lt];
        q.push(x * prev + y * stale + z);
    }
    q
}

/// Closed-form Lemma-1 envelope `ρ^t Q(0) + δ`.
pub fn lemma1_envelope(x: f64, y: f64, z: f64, q0: f64, tau_max: usize, t: usize) -> f64 {
    let rho = (x + y).powf(1.0 / (1.0 + tau_max as f64));
    let delta = z / (1.0 - x - y);
    rho.powi(t as i32) * q0 + delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedml::dataset::SyntheticSpec;

    #[test]
    fn matvec_identity() {
        let eye = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(matvec(MatrixView::new(3, 3, &eye), &x), x);
    }

    #[test]
    fn matvec_known_values() {
        let m = MatrixView::new(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = matvec(m, &[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_dims() {
        let m = MatrixView::new(2, 3, &[0.0; 6]);
        let _ = matvec(m, &[1.0, 2.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 999.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| v.is_finite() && v >= 0.0));
        assert!(p[0] > p[2]);
    }

    #[test]
    fn softmax_uniform_for_equal_logits() {
        let p = softmax(&[0.5; 4]);
        for v in p {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_transposed_matches_manual() {
        let m = MatrixView::new(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = matvec_transposed(m, &[2.0, -1.0]);
        assert_eq!(y, vec![2.0 - 4.0, 4.0 - 5.0, 6.0 - 6.0]);
    }

    #[test]
    fn rank_one_update_matches_outer_product() {
        let mut m = Matrix::zeros(2, 2);
        rank_one_update(&mut m, 2.0, &[1.0, 3.0], &[4.0, 5.0]);
        assert_eq!(m.as_slice(), &[8.0, 10.0, 24.0, 30.0]);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut x = vec![-1.0, 0.0, 2.0];
        let mask = relu_in_place(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 2.0]);
        assert_eq!(mask, vec![false, false, true]);
    }

    #[test]
    fn mse_is_error_over_dimension() {
        let w = FlatParams(vec![1.0; 10]);
        let inputs = vec![AirAggregationInput {
            data_size: 1.0,
            channel_gain: 1.0,
            params: &w,
        }];
        let mut rng = Rng64::seed_from(5);
        let res = air_aggregate(&inputs, 1.0, 1.0, 0.5, &mut rng);
        assert!((res.mse() - res.error_norm_sq / 10.0).abs() < 1e-15);
        // p = d*sigma/h = 1 ; E = ||p w||^2 = 10.
        assert!((res.total_energy() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn reference_gradients_match_batched_engine() {
        let mut rng = Rng64::seed_from(5);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(6)
            .generate(&mut rng);
        let indices: Vec<usize> = (0..24).collect();

        let (features, classes) = (data.num_features(), data.num_classes());
        let lr = Mlp::logistic_regression(features, classes).with_l2(0.01);
        let mlp = Mlp::new(features, &[9, 5], classes, &mut rng);
        let ridge = mlp.clone().with_l2(0.01);
        for model in [lr, mlp, ridge] {
            let (l_ref, g_ref) = mlp_loss_and_gradient(&model, &data, &indices);
            let (l_new, g_new) = model.loss_and_gradient(&data, &indices);
            assert!((l_ref - l_new).abs() < 1e-12);
            for (a, b) in g_ref.0.iter().zip(g_new.0.iter()) {
                assert!((a - b).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn reference_local_step_trains() {
        let mut rng = Rng64::seed_from(6);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(8)
            .generate(&mut rng);
        let mut m = Mlp::new(data.num_features(), &[16], data.num_classes(), &mut rng);
        let before = mlp_evaluate(&m, &data).0;
        let cfg = SgdConfig {
            learning_rate: 0.2,
            batch_size: 16,
            local_epochs: 3,
        };
        mlp_local_update_reference(&mut m, &data, &cfg, &mut rng);
        assert!(mlp_evaluate(&m, &data).0 < before);
    }

    #[test]
    fn lemma1_envelope_dominates_recursion() {
        let (x, y, z, q0, tau) = (0.55, 0.35, 0.02, 3.0, 4);
        let seq = lemma1_recursion(x, y, z, q0, tau, 200);
        for (t, q) in seq.iter().enumerate() {
            let env = lemma1_envelope(x, y, z, q0, tau, t);
            assert!(
                *q <= env + 1e-9,
                "recursion {q} exceeds envelope {env} at t={t}"
            );
        }
    }
}
