//! Power control — Algorithm 2 of the paper.
//!
//! Within one round `t` only the aggregation-error term
//!
//! ```text
//! C_t = (σ_t/√η_t − 1)² W_t² + σ₀² / (D_{j_t}² η_t)        (Eq. 30)
//! ```
//!
//! depends on the power-scaling factor `σ_t` (applied by workers, Eq. (6)) and
//! the denoising factor `η_t` (applied by the parameter server, Eq. (10)).
//! Problem (P3) minimises `C_t` subject to each worker's per-round energy
//! budget `E_i^t = ‖p_i^t w_i^t‖² ≤ Ê_i`. Algorithm 2 alternates between the
//! closed-form optima
//!
//! * `η_t = ((σ_t² W_t² + σ₀²/D_{j_t}²) / (σ_t W_t²))²` (Eq. (44)) and
//! * `σ_t = min{ √η_t } ∪ { h_i^t √Ê_i / (d_i W_t) : ∀v_i }` (Eq. (47))
//!
//! until both factors converge.

use serde::{Deserialize, Serialize};

/// Per-round inputs of the power-control problem (P3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerControlConfig {
    /// Upper bound `W_t` on the model norm `‖w_i^t‖` (Assumption 4).
    pub(crate) model_norm_bound: f64,
    /// Noise variance `σ₀²` of the AWGN at the parameter server.
    pub noise_variance: f64,
    /// Total data size `D_{j_t}` of the participating group.
    pub(crate) group_data_size: f64,
    /// Per-worker data sizes `d_i` of the participating workers.
    pub(crate) data_sizes: Vec<f64>,
    /// Per-worker channel gains `h_i^t` for this round.
    pub(crate) channel_gains: Vec<f64>,
    /// Per-worker energy budgets `Ê_i` (Joules per round).
    pub energy_budgets: Vec<f64>,
    /// Relative convergence threshold `θ` of Algorithm 2.
    pub(crate) tolerance: f64,
    /// Safety cap on alternating-optimisation iterations.
    pub(crate) max_iterations: usize,
}

impl PowerControlConfig {
    /// Construct the configuration for a participating group using the
    /// paper's default constants (σ₀² = 1 W, Ê_i = 10 J, θ = 1e-6).
    ///
    /// Takes the per-worker vectors by slice (they are copied into the
    /// config); the round loop of the mechanism engines keeps one config
    /// alive and refreshes it with [`PowerControlConfig::set_group`] instead,
    /// so no per-round vectors are allocated.
    pub fn for_group(model_norm_bound: f64, data_sizes: &[f64], channel_gains: &[f64]) -> Self {
        let n = data_sizes.len();
        let group_data_size = data_sizes.iter().sum();
        Self {
            model_norm_bound,
            noise_variance: 1.0,
            group_data_size,
            data_sizes: data_sizes.to_vec(),
            channel_gains: channel_gains.to_vec(),
            energy_budgets: vec![10.0; n],
            tolerance: 1e-6,
            max_iterations: 200,
        }
    }

    /// Refresh an existing configuration for a new round's participating
    /// group, reusing the config's internal buffers. `energy_budget` is
    /// applied uniformly to all members (the engines use the system-wide
    /// per-round budget Ê). Steady-state calls allocate nothing once the
    /// buffers have grown to the largest group size.
    pub fn set_group(
        &mut self,
        model_norm_bound: f64,
        data_sizes: &[f64],
        channel_gains: &[f64],
        energy_budget: f64,
    ) {
        assert_eq!(
            data_sizes.len(),
            channel_gains.len(),
            "channel gains length mismatch"
        );
        self.model_norm_bound = model_norm_bound;
        self.group_data_size = data_sizes.iter().sum();
        self.data_sizes.clear();
        self.data_sizes.extend_from_slice(data_sizes);
        self.channel_gains.clear();
        self.channel_gains.extend_from_slice(channel_gains);
        self.energy_budgets.clear();
        self.energy_budgets.resize(data_sizes.len(), energy_budget);
    }

    /// Panic with a descriptive message if the configuration is inconsistent.
    pub(crate) fn validate(&self) {
        assert!(
            self.model_norm_bound > 0.0 && self.model_norm_bound.is_finite(),
            "model norm bound must be positive"
        );
        assert!(self.noise_variance >= 0.0, "noise variance must be >= 0");
        assert!(
            self.group_data_size > 0.0,
            "group data size must be positive"
        );
        let n = self.data_sizes.len();
        assert!(n > 0, "power control needs at least one worker");
        assert_eq!(self.channel_gains.len(), n, "channel gains length mismatch");
        assert_eq!(
            self.energy_budgets.len(),
            n,
            "energy budgets length mismatch"
        );
        assert!(
            self.data_sizes.iter().all(|&d| d > 0.0),
            "data sizes must be positive"
        );
        assert!(
            self.channel_gains.iter().all(|&h| h > 0.0),
            "channel gains must be positive"
        );
        assert!(
            self.energy_budgets.iter().all(|&e| e > 0.0),
            "energy budgets must be positive"
        );
        assert!(self.tolerance > 0.0, "tolerance must be positive");
        assert!(self.max_iterations > 0, "max_iterations must be positive");
    }

    /// The tightest energy-imposed upper bound on σ_t (the second member of
    /// the min in Eq. (47)).
    pub(crate) fn sigma_energy_cap(&self) -> f64 {
        self.data_sizes
            .iter()
            .zip(self.channel_gains.iter())
            .zip(self.energy_budgets.iter())
            .map(|((&d, &h), &e)| h * e.sqrt() / (d * self.model_norm_bound))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Output of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSolution {
    /// Converged power-scaling factor `σ_t*`.
    pub sigma: f64,
    /// Converged denoising factor `η_t*`.
    pub eta: f64,
    /// Value of the aggregation-error term `C_t` at the solution.
    pub cost: f64,
    /// Number of alternating-optimisation iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before `max_iterations`.
    pub(crate) converged: bool,
}

/// The aggregation-error term `C_t` of Eq. (30).
pub(crate) fn aggregation_error_term(
    sigma: f64,
    eta: f64,
    model_norm_bound: f64,
    noise_variance: f64,
    group_data_size: f64,
) -> f64 {
    assert!(eta > 0.0, "eta must be positive");
    let misalignment = sigma / eta.sqrt() - 1.0;
    misalignment * misalignment * model_norm_bound * model_norm_bound
        + noise_variance / (group_data_size * group_data_size * eta)
}

/// Closed-form optimal denoising factor for a fixed σ (Eq. (44)).
pub(crate) fn optimal_eta_for_sigma(
    sigma: f64,
    model_norm_bound: f64,
    noise_variance: f64,
    group_data_size: f64,
) -> f64 {
    let w2 = model_norm_bound * model_norm_bound;
    let noise_term = noise_variance / (group_data_size * group_data_size);
    let numerator = sigma * sigma * w2 + noise_term;
    let denominator = sigma * w2;
    (numerator / denominator).powi(2)
}

/// Closed-form optimal power-scaling factor for a fixed η (Eq. (47)).
pub(crate) fn optimal_sigma_for_eta(eta: f64, cfg: &PowerControlConfig) -> f64 {
    eta.sqrt().min(cfg.sigma_energy_cap())
}

/// Run Algorithm 2: alternating optimisation of `(σ_t, η_t)`.
///
/// The initial σ is the energy cap (the most power every worker can afford),
/// which is always feasible; the iteration then walks both factors to a
/// stationary point of (P3).
pub fn optimize_power(cfg: &PowerControlConfig) -> PowerSolution {
    cfg.validate();
    let mut sigma = cfg.sigma_energy_cap();
    let mut eta = optimal_eta_for_sigma(
        sigma,
        cfg.model_norm_bound,
        cfg.noise_variance,
        cfg.group_data_size,
    );
    let mut iterations = 0;
    let mut converged = false;
    while iterations < cfg.max_iterations {
        iterations += 1;
        let prev_sigma = sigma;
        let prev_eta = eta;
        eta = optimal_eta_for_sigma(
            sigma,
            cfg.model_norm_bound,
            cfg.noise_variance,
            cfg.group_data_size,
        );
        sigma = optimal_sigma_for_eta(eta, cfg);
        let sigma_rel = (sigma - prev_sigma).abs() / prev_sigma.max(f64::MIN_POSITIVE);
        let eta_rel = (eta - prev_eta).abs() / prev_eta.max(f64::MIN_POSITIVE);
        if sigma_rel <= cfg.tolerance && eta_rel <= cfg.tolerance {
            converged = true;
            break;
        }
    }
    let cost = aggregation_error_term(
        sigma,
        eta,
        cfg.model_norm_bound,
        cfg.noise_variance,
        cfg.group_data_size,
    );
    PowerSolution {
        sigma,
        eta,
        cost,
        iterations,
        converged,
    }
}

/// Per-worker transmit power `p_i^t = d_i σ_t / h_i^t` (Eq. (6)).
pub fn transmit_power(data_size: f64, sigma: f64, channel_gain: f64) -> f64 {
    assert!(channel_gain > 0.0, "channel gain must be positive");
    data_size * sigma / channel_gain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> PowerControlConfig {
        PowerControlConfig::for_group(1.5, &[100.0, 80.0, 120.0], &[0.9, 1.2, 0.6])
    }

    #[test]
    fn algorithm_converges() {
        let sol = optimize_power(&small_cfg());
        assert!(sol.converged, "power control did not converge: {sol:?}");
        assert!(sol.sigma > 0.0 && sol.eta > 0.0);
        assert!(sol.cost.is_finite() && sol.cost >= 0.0);
    }

    #[test]
    fn solution_respects_energy_budgets() {
        let cfg = small_cfg();
        let sol = optimize_power(&cfg);
        for ((&d, &h), &e) in cfg
            .data_sizes
            .iter()
            .zip(cfg.channel_gains.iter())
            .zip(cfg.energy_budgets.iter())
        {
            let p = transmit_power(d, sol.sigma, h);
            // E_i = ||p w||^2 <= p^2 * W^2 must be within budget.
            let energy = p * p * cfg.model_norm_bound * cfg.model_norm_bound;
            assert!(
                energy <= e * (1.0 + 1e-9),
                "energy {energy} exceeds budget {e}"
            );
        }
    }

    #[test]
    fn eta_formula_is_stationary_point() {
        // At the closed-form eta, the partial derivative of C_t w.r.t.
        // 1/sqrt(eta) must vanish (Eq. 43).
        let cfg = small_cfg();
        let sigma = 0.7;
        let eta = optimal_eta_for_sigma(
            sigma,
            cfg.model_norm_bound,
            cfg.noise_variance,
            cfg.group_data_size,
        );
        let f = |e: f64| {
            aggregation_error_term(
                sigma,
                e,
                cfg.model_norm_bound,
                cfg.noise_variance,
                cfg.group_data_size,
            )
        };
        let eps = eta * 1e-4;
        let derivative = (f(eta + eps) - f(eta - eps)) / (2.0 * eps);
        assert!(
            derivative.abs() < 1e-6,
            "dC/deta = {derivative} at the closed-form optimum"
        );
    }

    #[test]
    fn unconstrained_solution_achieves_low_misalignment() {
        // With huge energy budgets the energy cap is inactive, so sigma =
        // sqrt(eta) and the misalignment term of C_t vanishes; the residual
        // cost is exactly the noise term sigma0^2/(D^2 eta).
        let mut cfg = small_cfg();
        cfg.energy_budgets = vec![1e12; 3];
        let sol = optimize_power(&cfg);
        let misalignment = (sol.sigma / sol.eta.sqrt() - 1.0).abs();
        assert!(misalignment < 1e-6, "misalignment {misalignment}");
        let expected_cost =
            cfg.noise_variance / (cfg.group_data_size * cfg.group_data_size * sol.eta);
        assert!((sol.cost - expected_cost).abs() < 1e-12);
    }

    #[test]
    fn tighter_energy_budget_increases_cost() {
        let loose = optimize_power(&small_cfg());
        let mut tight_cfg = small_cfg();
        tight_cfg.energy_budgets = vec![0.01; 3];
        let tight = optimize_power(&tight_cfg);
        assert!(
            tight.cost >= loose.cost,
            "tight {0} < loose {1}",
            tight.cost,
            loose.cost
        );
    }

    #[test]
    fn larger_group_reduces_noise_contribution() {
        // Doubling the group data size D_j reduces the noise term of C_t.
        let base = small_cfg();
        let mut big = base.clone();
        big.group_data_size *= 10.0;
        big.data_sizes = base.data_sizes.clone(); // same workers, larger D
        let sol_base = optimize_power(&base);
        let sol_big = optimize_power(&big);
        assert!(sol_big.cost <= sol_base.cost);
    }

    #[test]
    fn transmit_power_follows_inverse_channel() {
        let p_strong = transmit_power(100.0, 0.5, 2.0);
        let p_weak = transmit_power(100.0, 0.5, 0.5);
        assert!(p_weak > p_strong);
        assert!((p_strong - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "channel gains length mismatch")]
    fn validate_catches_mismatched_inputs() {
        let mut cfg = small_cfg();
        cfg.channel_gains.pop();
        cfg.validate();
    }

    #[test]
    fn zero_noise_allows_near_zero_cost_with_loose_budget() {
        let mut cfg = small_cfg();
        cfg.noise_variance = 0.0;
        cfg.energy_budgets = vec![1e9; 3];
        let sol = optimize_power(&cfg);
        assert!(sol.cost < 1e-9, "cost {}", sol.cost);
    }
}
