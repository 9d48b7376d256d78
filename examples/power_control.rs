//! Power control (Algorithm 2): how the power-scaling factor σ_t and the
//! denoising factor η_t react to energy budgets and channel quality, and what
//! that does to the aggregation-error term C_t of Eq. (30).
//!
//! ```bash
//! cargo run --release --example power_control
//! ```

use air_fedga::fedml::params::FlatParams;
use air_fedga::fedml::rng::Rng64;
use air_fedga::wireless::aircomp::{
    air_aggregate_into, AirAggregationInput, AirAggregationScratch,
};
use air_fedga::wireless::power::{optimize_power, transmit_power, PowerControlConfig};

fn main() {
    let model_norm_bound = 12.0;
    let data_sizes = vec![120.0, 90.0, 150.0, 110.0];
    let channel_gains = vec![0.9, 0.45, 1.3, 0.7];

    println!("Algorithm 2 under different per-round energy budgets:");
    println!("  budget(J)   sigma*       eta*        C_t       iterations");
    for budget in [0.1, 1.0, 10.0, 100.0, 1e6] {
        let mut cfg = PowerControlConfig::for_group(model_norm_bound, &data_sizes, &channel_gains);
        cfg.energy_budgets = vec![budget; data_sizes.len()];
        let sol = optimize_power(&cfg);
        println!(
            "  {budget:>9.1}   {:.3e}   {:.3e}   {:.3e}   {}",
            sol.sigma, sol.eta, sol.cost, sol.iterations
        );
    }
    println!(
        "\nTighter energy budgets force a smaller sigma, which the denoising factor can only\n\
         partially compensate, so the aggregation error C_t grows — exactly the trade-off\n\
         constraint (36c) encodes.\n"
    );

    // Show the end-to-end effect on one over-the-air aggregation.
    let mut rng = Rng64::seed_from(1);
    let params: Vec<FlatParams> = (0..4)
        .map(|i| FlatParams(vec![0.05 * (i as f64 + 1.0); 2_000]))
        .collect();
    println!("Effect on one aggregation of a 2000-dimensional model:");
    let mut estimate = FlatParams::zeros(0);
    let mut scratch = AirAggregationScratch::new();
    for budget in [0.5, 10.0, 1e4] {
        let mut cfg = PowerControlConfig::for_group(
            params.iter().map(|p| p.norm()).fold(0.0, f64::max),
            &data_sizes,
            &channel_gains,
        );
        cfg.noise_variance = 1e-3;
        cfg.energy_budgets = vec![budget; data_sizes.len()];
        let sol = optimize_power(&cfg);
        let inputs: Vec<AirAggregationInput<'_>> = params
            .iter()
            .zip(data_sizes.iter().zip(channel_gains.iter()))
            .map(|(p, (&d, &h))| AirAggregationInput {
                data_size: d,
                channel_gain: h,
                params: p,
            })
            .collect();
        let stats = air_aggregate_into(
            &inputs,
            sol.sigma,
            sol.eta,
            cfg.noise_variance,
            &mut rng,
            &mut estimate,
            &mut scratch,
        );
        let max_power = data_sizes
            .iter()
            .zip(channel_gains.iter())
            .map(|(&d, &h)| transmit_power(d, sol.sigma, h))
            .fold(0.0_f64, f64::max);
        println!(
            "  budget {budget:>7.1} J | aggregation MSE {:.3e} | total energy {:8.2} J | max p_i {:.3}",
            stats.error_norm_sq / estimate.dim() as f64,
            scratch.per_worker_energy.iter().sum::<f64>(),
            max_power
        );
    }
}
