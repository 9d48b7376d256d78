//! Over-the-air aggregation over a noisy fading MAC.
//!
//! When the workers of group `V_{j_t}` transmit simultaneously, each applies
//! the channel-inverting power rule of Eq. (6) (`p_i^t = d_i σ_t / h_i^t`), so
//! the signal received by the parameter server is the superposition of
//! Eq. (9):
//!
//! ```text
//! y_t = Σ_{v_i ∈ V_{j_t}} d_i σ_t w_i^t + z_t,      z_t ~ N(0, σ₀² I)
//! ```
//!
//! The parameter server forms the denoised group estimate
//! `w̃_j^t = y_t / (D_{j_t} √η_t)` which plugs into the asynchronous global
//! update of Eq. (10) / Eq. (16). This module performs that computation and
//! reports the per-round aggregation error `ε_j^t` (Eq. (17)) and the energy
//! spent by each worker (Eq. (7)).

use crate::energy::transmit_energy_from_norm_sq;
use crate::power::transmit_power;
use fedml::params::FlatParams;
use fedml::rng::Rng64;

/// One worker's contribution to an over-the-air aggregation.
#[derive(Debug, Clone)]
pub struct AirAggregationInput<'a> {
    /// Worker data size `d_i` (the aggregation weight numerator).
    pub data_size: f64,
    /// Channel gain `h_i^t` for this round.
    pub channel_gain: f64,
    /// The worker's local model `w_i^t`.
    pub params: &'a FlatParams,
}

/// Reusable scratch for [`air_aggregate_into`]: the ideal-model buffer and
/// the per-worker energy vector, which would otherwise be created fresh each
/// call (buffers grow to the group/model size once and stay there).
#[derive(Debug, Default)]
pub struct AirAggregationScratch {
    /// The ideal (error-free) group model `Σ (d_i/D_j) w_i^t` of Eq. (15),
    /// as of the most recent [`air_aggregate_into`] call.
    pub ideal: FlatParams,
    /// Energy `E_i^t` spent by each participating worker (Eq. (7)), in input
    /// order, as of the most recent call.
    pub per_worker_energy: Vec<f64>,
}

impl AirAggregationScratch {
    /// Create empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The scalar outputs of one in-place over-the-air aggregation (the vector
/// outputs land in the caller's estimate buffer and
/// [`AirAggregationScratch`]).
#[derive(Debug, Clone, Copy)]
pub struct AirAggregationStats {
    /// Squared L2 norm of the aggregation error `ε_j^t` (Eq. (17)).
    pub error_norm_sq: f64,
    /// Total data size `D_{j_t}` of the participants.
    pub group_data_size: f64,
}

/// Perform one over-the-air aggregation (Eq. (9) + the denoising of Eq. (10))
/// over a slice of contributions: writes the denoised group estimate into
/// `group_estimate` (resized to the model dimension) and the secondary
/// outputs into `scratch`, so a caller looping over rounds performs **zero**
/// heap allocations once the buffers have grown to size.
///
/// * `sigma` / `eta` — the power-scaling and denoising factors chosen by
///   Algorithm 2 for this round.
/// * `noise_variance` — AWGN variance σ₀² at the server (0 disables noise).
///
/// Panics if the inputs are empty or have mismatched dimensions.
pub fn air_aggregate_into(
    inputs: &[AirAggregationInput<'_>],
    sigma: f64,
    eta: f64,
    noise_variance: f64,
    rng: &mut Rng64,
    group_estimate: &mut FlatParams,
    scratch: &mut AirAggregationScratch,
) -> AirAggregationStats {
    air_aggregate_indexed_into(
        inputs.len(),
        |k| inputs[k].clone(),
        sigma,
        eta,
        noise_variance,
        rng,
        group_estimate,
        scratch,
    )
}

/// Gather variant of [`air_aggregate_into`]: the `count` contributions are
/// produced on demand by `input(k)` instead of being read from a
/// pre-collected slice, so a caller holding `(data_size, gain)` pairs and
/// local models in separate round-persistent buffers needs no per-round
/// `Vec<AirAggregationInput>`. Bit-identical to the slice path: same
/// accumulation order (`k = 0, 1, …`), same RNG draw order.
///
/// The engine loops call the core, [`air_superpose_into`], directly; this
/// function adds the ideal model and error norm on top of it.
#[expect(
    clippy::too_many_arguments,
    reason = "the scalars of Eqs. (9)–(10) plus caller-owned output buffers"
)]
pub fn air_aggregate_indexed_into<'p>(
    count: usize,
    input: impl Fn(usize) -> AirAggregationInput<'p>,
    sigma: f64,
    eta: f64,
    noise_variance: f64,
    rng: &mut Rng64,
    group_estimate: &mut FlatParams,
    scratch: &mut AirAggregationScratch,
) -> AirAggregationStats {
    // Ideal group model sum_i (d_i / D_j) w_i and the error against it, on
    // top of the shared core (which validates the inputs).
    let group_data_size = air_superpose_into(
        count,
        &input,
        |k| input(k).params.norm_sq(),
        sigma,
        eta,
        noise_variance,
        rng,
        group_estimate,
        &mut scratch.per_worker_energy,
    );
    scratch.ideal.0.resize(group_estimate.dim(), 0.0);
    scratch.ideal.as_mut_slice().fill(0.0);
    for k in 0..count {
        let c = input(k);
        scratch.ideal.axpy(c.data_size / group_data_size, c.params);
    }
    AirAggregationStats {
        error_norm_sq: group_estimate.dist_sq(&scratch.ideal),
        group_data_size,
    }
}

/// The core of an over-the-air aggregation, and the whole of it for the
/// engine loops: superposition (Eq. (9)), AWGN, denoising (Eq. (10)) and the
/// per-worker energy (Eq. (7), pushed onto the cleared `per_worker_energy` in
/// input order) from a caller-supplied `‖w_i‖²` — `norm_sq(k)` must equal
/// `input(k).params.norm_sq()`, which the engines cache per local update.
/// Returns the group data size `D_j`.
///
/// [`air_aggregate_indexed_into`] is this plus the ideal model and the error
/// norm of Eq. (15)/(17), which no engine reads; estimate, energies and RNG
/// draws are bit-identical between the two.
#[expect(
    clippy::too_many_arguments,
    reason = "the scalars of Eqs. (9)–(10) plus caller-owned output buffers"
)]
pub fn air_superpose_into<'p>(
    count: usize,
    input: impl Fn(usize) -> AirAggregationInput<'p>,
    norm_sq: impl Fn(usize) -> f64,
    sigma: f64,
    eta: f64,
    noise_variance: f64,
    rng: &mut Rng64,
    group_estimate: &mut FlatParams,
    per_worker_energy: &mut Vec<f64>,
) -> f64 {
    assert!(count > 0, "over-the-air aggregation with no workers");
    assert!(sigma > 0.0, "sigma must be positive");
    assert!(eta > 0.0, "eta must be positive");
    assert!(noise_variance >= 0.0, "noise variance must be non-negative");
    let dim = input(0).params.dim();
    let group_data_size: f64 = (0..count).map(|k| input(k).data_size).sum();
    assert!(group_data_size > 0.0, "group data size must be positive");

    // Received superposed signal y_t = sum_i d_i sigma w_i + z_t, accumulated
    // directly in the caller's estimate buffer.
    group_estimate.0.resize(dim, 0.0);
    group_estimate.as_mut_slice().fill(0.0);
    per_worker_energy.clear();
    for k in 0..count {
        let c = input(k);
        assert_eq!(c.params.dim(), dim, "parameter dimension mismatch");
        assert!(c.data_size > 0.0, "worker data size must be positive");
        group_estimate.axpy(c.data_size * sigma, c.params);
        let p = transmit_power(c.data_size, sigma, c.channel_gain);
        per_worker_energy.push(transmit_energy_from_norm_sq(p, norm_sq(k)));
    }
    if noise_variance > 0.0 {
        let std = noise_variance.sqrt();
        rng.add_gaussian_noise(group_estimate.as_mut_slice(), std);
    }

    // Denoised group estimate w~ = y / (D_j sqrt(eta)).
    group_estimate.scale(1.0 / (group_data_size * eta.sqrt()));
    group_data_size
}

/// Apply the asynchronous global update of Eq. (10)/(16) to `global` in
/// place: `w_t = (1 − β_j) w_{t−1} + β_j w̃_j^t` where `β_j = D_j / D`.
pub fn apply_group_update_in_place(
    global: &mut FlatParams,
    group_estimate: &FlatParams,
    group_data_size: f64,
    total_data_size: f64,
) {
    assert!(total_data_size > 0.0, "total data size must be positive");
    assert!(
        group_data_size > 0.0 && group_data_size <= total_data_size + 1e-9,
        "group data size must lie in (0, D]"
    );
    let beta = group_data_size / total_data_size;
    global.scale(1.0 - beta);
    global.axpy(beta, group_estimate);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(v: Vec<f64>) -> FlatParams {
        FlatParams(v)
    }

    /// One aggregation into fresh buffers.
    struct Fresh {
        group_estimate: FlatParams,
        ideal_group_model: FlatParams,
        error_norm_sq: f64,
        per_worker_energy: Vec<f64>,
        group_data_size: f64,
    }

    fn air_aggregate(
        inputs: &[AirAggregationInput<'_>],
        sigma: f64,
        eta: f64,
        noise_variance: f64,
        rng: &mut Rng64,
    ) -> Fresh {
        let mut group_estimate = FlatParams::zeros(0);
        let mut scratch = AirAggregationScratch::new();
        let stats = air_aggregate_into(
            inputs,
            sigma,
            eta,
            noise_variance,
            rng,
            &mut group_estimate,
            &mut scratch,
        );
        Fresh {
            group_estimate,
            ideal_group_model: scratch.ideal,
            error_norm_sq: stats.error_norm_sq,
            per_worker_energy: scratch.per_worker_energy,
            group_data_size: stats.group_data_size,
        }
    }

    #[test]
    fn noiseless_matched_factors_recover_ideal_average() {
        // With z = 0 and sigma = sqrt(eta), w~ = sum d_i w_i / D exactly.
        let a = params(vec![1.0, 0.0, 2.0]);
        let b = params(vec![3.0, 4.0, -2.0]);
        let inputs = vec![
            AirAggregationInput {
                data_size: 10.0,
                channel_gain: 1.0,
                params: &a,
            },
            AirAggregationInput {
                data_size: 30.0,
                channel_gain: 0.5,
                params: &b,
            },
        ];
        let mut rng = Rng64::seed_from(1);
        let res = air_aggregate(&inputs, 2.0, 4.0, 0.0, &mut rng);
        assert!(res.error_norm_sq < 1e-24, "error {}", res.error_norm_sq);
        let expected = FlatParams::weighted_sum(&[(0.25, &a), (0.75, &b)]);
        assert!(res.group_estimate.dist_sq(&expected) < 1e-24);
        assert_eq!(res.group_data_size, 40.0);
    }

    #[test]
    fn mismatched_factors_introduce_bias() {
        let a = params(vec![1.0; 8]);
        let inputs = vec![AirAggregationInput {
            data_size: 5.0,
            channel_gain: 1.0,
            params: &a,
        }];
        let mut rng = Rng64::seed_from(2);
        // sigma / sqrt(eta) = 0.5 -> estimate is half the ideal model.
        let res = air_aggregate(&inputs, 1.0, 4.0, 0.0, &mut rng);
        assert!(res.error_norm_sq > 0.0);
        assert!((res.group_estimate.0[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn noise_error_scales_inversely_with_group_size() {
        // Same per-worker models; the larger group's denominator D_j is
        // larger, so the noise-induced error shrinks.
        let w = params(vec![0.5; 64]);
        let mk = |n: usize| -> Vec<AirAggregationInput<'_>> {
            (0..n)
                .map(|_| AirAggregationInput {
                    data_size: 100.0,
                    channel_gain: 1.0,
                    params: &w,
                })
                .collect()
        };
        let small_inputs = mk(2);
        let large_inputs = mk(20);
        let mut err_small = 0.0;
        let mut err_large = 0.0;
        for seed in 0..20 {
            let mut rng = Rng64::seed_from(seed);
            err_small += air_aggregate(&small_inputs, 1.0, 1.0, 1.0, &mut rng).error_norm_sq;
            let mut rng = Rng64::seed_from(seed + 1000);
            err_large += air_aggregate(&large_inputs, 1.0, 1.0, 1.0, &mut rng).error_norm_sq;
        }
        assert!(
            err_large < err_small,
            "large-group error {err_large} should be below small-group error {err_small}"
        );
    }

    #[test]
    fn energy_accounting_matches_eq7() {
        let w = params(vec![2.0, 0.0]);
        let inputs = vec![AirAggregationInput {
            data_size: 4.0,
            channel_gain: 2.0,
            params: &w,
        }];
        let mut rng = Rng64::seed_from(3);
        let res = air_aggregate(&inputs, 1.0, 1.0, 0.0, &mut rng);
        // p = d*sigma/h = 2 ; E = ||p w||^2 = 4 * 4 = 16.
        assert_eq!(res.per_worker_energy.len(), 1);
        assert!((res.per_worker_energy[0] - 16.0).abs() < 1e-12);
    }

    #[test]
    fn apply_group_update_is_convex_combination() {
        let global = params(vec![0.0, 0.0]);
        let estimate = params(vec![1.0, 2.0]);
        let mut updated = global.clone();
        apply_group_update_in_place(&mut updated, &estimate, 25.0, 100.0);
        assert_eq!(updated.0, vec![0.25, 0.5]);
        // Full participation replaces the global model entirely.
        let mut replaced = global.clone();
        apply_group_update_in_place(&mut replaced, &estimate, 100.0, 100.0);
        assert_eq!(replaced.0, estimate.0);
    }

    #[test]
    #[should_panic(expected = "no workers")]
    fn rejects_empty_group() {
        let mut rng = Rng64::seed_from(4);
        let _ = air_aggregate(&[], 1.0, 1.0, 0.0, &mut rng);
    }

    #[test]
    fn into_variant_is_bit_identical_and_reuses_buffers() {
        let a = params(vec![1.0, -0.5, 2.0, 0.25]);
        let b = params(vec![3.0, 4.0, -2.0, 1.5]);
        let inputs = vec![
            AirAggregationInput {
                data_size: 10.0,
                channel_gain: 0.8,
                params: &a,
            },
            AirAggregationInput {
                data_size: 30.0,
                channel_gain: 0.5,
                params: &b,
            },
        ];
        let mut estimate = FlatParams::zeros(0);
        let mut scratch = AirAggregationScratch::new();
        for round in 0..3 {
            // Same rng seed each round: the in-place path must consume the
            // exact same draw sequence as the allocating one.
            let mut rng_a = Rng64::seed_from(100 + round);
            let mut rng_b = Rng64::seed_from(100 + round);
            let res = air_aggregate(&inputs, 1.3, 1.7, 0.2, &mut rng_a);
            let stats = air_aggregate_into(
                &inputs,
                1.3,
                1.7,
                0.2,
                &mut rng_b,
                &mut estimate,
                &mut scratch,
            );
            assert_eq!(stats.group_data_size, res.group_data_size);
            assert_eq!(stats.error_norm_sq.to_bits(), res.error_norm_sq.to_bits());
            for (x, y) in estimate.0.iter().zip(res.group_estimate.0.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in scratch.ideal.0.iter().zip(res.ideal_group_model.0.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(scratch.per_worker_energy, res.per_worker_energy);
        }
        // Steady state: buffers settled at the model dimension, no regrowth.
        assert_eq!(estimate.dim(), 4);
        assert_eq!(scratch.ideal.dim(), 4);
        assert!(scratch.per_worker_energy.capacity() >= 2);
    }

    #[test]
    fn indexed_gather_is_bit_identical_to_the_slice_and_allocating_paths() {
        // The engines gather inputs on demand from separate (data_size, gain,
        // params) buffers; that path must consume the same RNG stream and
        // produce the same bits as both existing entry points.
        let a = params(vec![0.7, -1.5, 2.25, 0.125]);
        let b = params(vec![3.5, 4.0, -2.0, 1.75]);
        let c = params(vec![-0.25, 0.5, 1.0, -1.125]);
        let models = [&a, &b, &c];
        let data_sizes = [10.0, 30.0, 25.0];
        let gains = [0.8, 0.5, 1.2];
        let inputs: Vec<AirAggregationInput<'_>> = (0..3)
            .map(|k| AirAggregationInput {
                data_size: data_sizes[k],
                channel_gain: gains[k],
                params: models[k],
            })
            .collect();
        for round in 0..3u64 {
            let mut rng_a = Rng64::seed_from(500 + round);
            let mut rng_b = Rng64::seed_from(500 + round);
            let res = air_aggregate(&inputs, 1.1, 1.9, 0.3, &mut rng_a);
            let mut estimate = FlatParams::zeros(0);
            let mut scratch = AirAggregationScratch::new();
            let stats = air_aggregate_indexed_into(
                3,
                |k| AirAggregationInput {
                    data_size: data_sizes[k],
                    channel_gain: gains[k],
                    params: models[k],
                },
                1.1,
                1.9,
                0.3,
                &mut rng_b,
                &mut estimate,
                &mut scratch,
            );
            assert_eq!(stats.group_data_size, res.group_data_size);
            assert_eq!(stats.error_norm_sq.to_bits(), res.error_norm_sq.to_bits());
            for (x, y) in estimate.0.iter().zip(res.group_estimate.0.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in scratch.ideal.0.iter().zip(res.ideal_group_model.0.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            assert_eq!(scratch.per_worker_energy, res.per_worker_energy);
        }
    }
}
