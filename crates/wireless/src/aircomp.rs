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
//!
//! Every aggregation is one [`fold_group`]: it forms the estimate one block
//! of the parameter vector at a time and hands each block to a sink, so the
//! engine loops fold a group straight into the global model
//! ([`global_update`]) and hold no estimate buffer. [`air_fold`] is the
//! AirComp fold; [`air_aggregate_indexed_into`] sinks the same fold into the
//! caller's estimate and adds the ideal model and the error norm.

use crate::energy::transmit_energy_from_norm_sq;
use crate::power::transmit_power;
use fedml::params::FlatParams;
use fedml::rng::Rng64;

/// Length of one block of a [`fold_group`]. A block's sum, AWGN and
/// denoising stay in a stack buffer of this many `f64`s (4 KiB). It is even,
/// so [`Rng64::add_gaussian_noise`] pairs its draws over every block as it
/// does over the whole vector; only the last block can be odd, and it ends
/// where the vector does.
const FOLD_BLOCK: usize = 512;

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
/// It is [`air_fold`] sunk into `group_estimate`, plus the ideal model and
/// the error norm of Eq. (15)/(17), which no engine reads; the engine loops
/// sink the same fold into the global model instead.
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
    // The blocks arrive in order from coordinate 0, so the estimate is
    // rebuilt by appending them (no reallocation once it has grown).
    group_estimate.0.clear();
    let group_data_size = air_fold(
        count,
        &input,
        |k| input(k).params.norm_sq(),
        sigma,
        eta,
        noise_variance,
        rng,
        &mut scratch.per_worker_energy,
        |_, block| group_estimate.0.extend_from_slice(block),
    );
    // Ideal group model sum_i (d_i / D_j) w_i and the error against it.
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

/// Over-the-air aggregation of one group, folded into `sink`: the
/// superposition of Eq. (9) with each member's `d_i σ`, the AWGN at
/// `noise_variance` (0 draws nothing), and the denoising `1 / (D_j √η)` of
/// Eq. (10), one block at a time ([`fold_group`]). It also pushes each
/// member's transmit energy (Eq. (7), from a caller-supplied `‖w_i‖²` —
/// `norm_sq(k)` must equal `input(k).params.norm_sq()`, which the engines
/// cache per local update) onto the cleared `per_worker_energy`, in input
/// order, and returns the group data size `D_j`.
///
/// Panics if there are no inputs, a factor or data size is not positive, or
/// the dimensions differ.
#[expect(
    clippy::too_many_arguments,
    reason = "the scalars of Eqs. (9)–(10) plus caller-owned output buffers"
)]
pub fn air_fold<'p>(
    count: usize,
    input: impl Fn(usize) -> AirAggregationInput<'p>,
    norm_sq: impl Fn(usize) -> f64,
    sigma: f64,
    eta: f64,
    noise_variance: f64,
    rng: &mut Rng64,
    per_worker_energy: &mut Vec<f64>,
    sink: impl FnMut(usize, &[f64]),
) -> f64 {
    assert!(count > 0, "over-the-air aggregation with no workers");
    assert!(sigma > 0.0, "sigma must be positive");
    assert!(eta > 0.0, "eta must be positive");
    assert!(noise_variance >= 0.0, "noise variance must be non-negative");
    let group_data_size: f64 = (0..count).map(|k| input(k).data_size).sum();
    assert!(group_data_size > 0.0, "group data size must be positive");
    per_worker_energy.clear();
    for k in 0..count {
        let c = input(k);
        assert!(c.data_size > 0.0, "worker data size must be positive");
        let p = transmit_power(c.data_size, sigma, c.channel_gain);
        per_worker_energy.push(transmit_energy_from_norm_sq(p, norm_sq(k)));
    }
    let noise = (noise_variance > 0.0).then(|| (noise_variance.sqrt(), rng));
    fold_group(
        count,
        |k| {
            let c = input(k);
            (c.data_size * sigma, c.params)
        },
        noise,
        1.0 / (group_data_size * eta.sqrt()),
        sink,
    );
    group_data_size
}

/// Fold a group's models into one estimate, one block of the parameter
/// vector at a time. For each block, in order from coordinate 0: sum the
/// members' blocks `y += c_k · w_k` in member order (`member(k)` is `(c_k,
/// w_k)`), add AWGN of standard deviation `std` from `rng` when `noise` is
/// `Some((std, rng))`, multiply by `scale`, and call `sink(start, y)` with
/// the block that begins at coordinate `start`.
///
/// Every coordinate goes through the same roundings in the same order as a
/// whole-vector fill, axpy per member, noise and scale would put it through.
/// A block is 512 coordinates, an even length, so the noise's pairs of draws
/// never straddle two blocks and fall as they do over the whole vector: the
/// blocks are bit-identical to that vector, and `rng` is left in the same
/// state. An exact (OMA) fold passes weights `D_i / D_j`, no noise and a
/// `scale` of 1, which changes no bit.
///
/// Panics if there are no members or their dimensions differ.
pub fn fold_group<'p>(
    count: usize,
    member: impl Fn(usize) -> (f64, &'p FlatParams),
    mut noise: Option<(f64, &mut Rng64)>,
    scale: f64,
    mut sink: impl FnMut(usize, &[f64]),
) {
    assert!(count > 0, "over-the-air aggregation with no workers");
    let dim = member(0).1.dim();
    for k in 1..count {
        assert_eq!(member(k).1.dim(), dim, "parameter dimension mismatch");
    }
    let mut buffer = [0.0_f64; FOLD_BLOCK];
    for start in (0..dim).step_by(FOLD_BLOCK) {
        let end = (start + FOLD_BLOCK).min(dim);
        let y = &mut buffer[..end - start];
        y.fill(0.0);
        for k in 0..count {
            let (c, w) = member(k);
            for (y, &w) in y.iter_mut().zip(&w.as_slice()[start..end]) {
                *y += c * w;
            }
        }
        if let Some((std, rng)) = noise.as_mut() {
            rng.add_gaussian_noise(y, *std);
        }
        for y in y.iter_mut() {
            *y *= scale;
        }
        sink(start, y);
    }
}

/// The sink of a [`fold_group`] that applies the asynchronous global update
/// of Eq. (10)/(16) to `global` in place, block by block: `w_t = (1 − β_j)
/// w_{t−1} + β_j w̃_j^t` where `β_j = D_j / D` — per coordinate `w *= 1 − β`,
/// then `w += β · w̃`.
pub fn global_update(
    global: &mut FlatParams,
    group_data_size: f64,
    total_data_size: f64,
) -> impl FnMut(usize, &[f64]) + '_ {
    assert!(total_data_size > 0.0, "total data size must be positive");
    assert!(
        group_data_size > 0.0 && group_data_size <= total_data_size + 1e-9,
        "group data size must lie in (0, D]"
    );
    let beta = group_data_size / total_data_size;
    let keep = 1.0 - beta;
    move |start, estimate| {
        let block = &mut global.as_mut_slice()[start..start + estimate.len()];
        for (w, &e) in block.iter_mut().zip(estimate) {
            *w *= keep;
            *w += beta * e;
        }
    }
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
        global_update(&mut updated, 25.0, 100.0)(0, estimate.as_slice());
        assert_eq!(updated.0, vec![0.25, 0.5]);
        // Full participation replaces the global model entirely.
        let mut replaced = global.clone();
        global_update(&mut replaced, 100.0, 100.0)(0, estimate.as_slice());
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
