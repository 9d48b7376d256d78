//! The training-time objective of problems (P2)/(P4).
//!
//! Section V converts the training-time minimisation (P1) into
//!
//! ```text
//! minimise  L(x) · (1 + τ̂_max) · log_B A                  (Eq. 40a)
//! subject to the ξ-constraint of Eq. (36d)
//! ```
//!
//! where, for a grouping `x`:
//!
//! * `L_j = max_{v_i∈V_j} l_i + L_u`  — group completion time (Eq. 34),
//! * `L = 1 / Σ_j (1/L_j)`            — average single-round time (Eq. 35),
//! * `ψ_j = (1/L_j) / Σ_{j'} (1/L_{j'})` — relative participation frequency,
//! * `τ̂_max = L_max · Σ_j (1/L_j)`    — estimated maximum staleness (Eq. 39),
//! * `B = 1 − (2µγ − µ/L_s) Σ_j ψ_j β_j`,
//! * `δ = Σ_j ψ_j β_j (γ L_s Λ_j² G² + L_s² C_max) / ((2µγL_s − µ) Σ_j ψ_j β_j)`,
//! * `A = (ε − δ) / (F(w_0) − F(w*))`,
//!
//! with `L_s` the smoothness constant, `µ` the strong-convexity constant, `γ`
//! the learning rate, `G²` the gradient bound, `C_max` the worst-case
//! aggregation error (Eq. 30) and `ε` the target optimality gap. When a
//! grouping makes the bound infeasible (δ ≥ ε, or the contraction factor
//! leaves `(0,1)`) the objective returns `+∞` so the greedy algorithm avoids
//! it.

use crate::worker_info::{
    slice_data_size, slice_label_distribution, slice_max_latency, Grouping, WorkerInfo,
};
use fedml::partition::LabelDistribution;
use serde::{Deserialize, Serialize};

/// Convergence-related constants of Theorem 1 used inside the objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveConstants {
    /// Strong-convexity constant `µ` (Assumption 2).
    pub(crate) mu: f64,
    /// Smoothness constant `L` (Assumption 1). Named `smoothness` to avoid
    /// clashing with the latency symbol `L`.
    pub(crate) smoothness: f64,
    /// Learning rate `γ`; Theorem 1 requires `1/(2L) < γ < 1/L`.
    pub(crate) gamma: f64,
    /// Gradient bound `G²` (Assumption 3).
    pub(crate) gradient_bound_sq: f64,
    /// Worst-case aggregation error `max_t C_t` (Eq. 30) after power control.
    pub(crate) aggregation_error: f64,
    /// Target optimality gap `ε` of constraint (36b).
    pub(crate) epsilon: f64,
    /// Initial optimality gap `F(w_0) − F(w*)`.
    pub(crate) initial_gap: f64,
}

impl Default for ObjectiveConstants {
    /// Defaults of a well-conditioned logistic-regression task (`µ = 0.4`,
    /// `L = 1`, `γ = 0.75 ∈ (1/(2L), 1/L)`, `G² = 0.1`, `C = 0.01`,
    /// `ε = 1.272`). A group of EMD `Λ` then contributes
    /// `δ = (0.075 Λ² + 0.01) / 0.2`, so the bound is feasible (`δ < ε`)
    /// only for `Λ ≤ 1.805`, not across the whole range `[0, 2]`. A
    /// single-class worker of `K` classes has `Λ = 2(1 − 1/K)`: at `K = 10`
    /// (`Λ = 1.8`) its singleton clears `ε` by 0.5 %, and at `K = 100`
    /// (`Λ = 1.98`, `δ ≈ 1.52`) no single-class group is feasible, which is
    /// why Algorithm 3 ranks infeasible placements by `δ` (see
    /// [`greedy_grouping`](crate::greedy::greedy_grouping)).
    fn default() -> Self {
        Self {
            mu: 0.4,
            smoothness: 1.0,
            gamma: 0.75,
            gradient_bound_sq: 0.1,
            aggregation_error: 0.01,
            epsilon: 1.272,
            initial_gap: 2.3,
        }
    }
}

impl ObjectiveConstants {
    /// Check Theorem 1's preconditions (`1/(2L) < γ < 1/L`, `µ > 0`, …).
    pub(crate) fn validate(&self) {
        assert!(self.mu > 0.0, "mu must be positive");
        assert!(self.smoothness > 0.0, "smoothness must be positive");
        assert!(
            self.gamma > 0.5 / self.smoothness && self.gamma < 1.0 / self.smoothness,
            "Theorem 1 requires 1/(2L) < gamma < 1/L, got gamma = {}",
            self.gamma
        );
        assert!(self.gradient_bound_sq >= 0.0, "G^2 must be non-negative");
        assert!(
            self.aggregation_error >= 0.0,
            "aggregation error must be non-negative"
        );
        assert!(self.epsilon > 0.0, "epsilon must be positive");
        assert!(self.initial_gap > 0.0, "initial gap must be positive");
    }
}

/// Evaluator for the grouping objective and the ξ-constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupingObjective {
    /// AirComp aggregation latency `L_u` (Eq. 33), in seconds.
    pub(crate) aggregation_time: f64,
    /// The ξ parameter of constraint (36d) (0 = fully asynchronous,
    /// 1 = a single group is always feasible latency-wise).
    pub(crate) xi: f64,
    /// Convergence constants.
    pub(crate) constants: ObjectiveConstants,
}

/// Breakdown of the objective evaluation, useful for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct ObjectiveBreakdown {
    /// Average single-round latency `L` (Eq. 35).
    pub(crate) average_round_time: f64,
    /// Estimated maximum staleness `τ̂_max` (Eq. 39).
    pub(crate) estimated_staleness: f64,
    /// Estimated number of rounds `T = (1 + τ̂_max) log_B A` (Eq. 38).
    pub(crate) estimated_rounds: f64,
    /// The contraction base `B`.
    pub(crate) contraction: f64,
    /// The residual error `δ` of Theorem 1 under this grouping.
    pub(crate) residual: f64,
    /// The full objective `L · T` (estimated total training time, seconds).
    pub(crate) total_time: f64,
}

impl GroupingObjective {
    /// Create an objective evaluator.
    pub fn new(aggregation_time: f64, xi: f64, constants: ObjectiveConstants) -> Self {
        assert!(aggregation_time >= 0.0, "aggregation time must be >= 0");
        assert!((0.0..=1.0).contains(&xi), "xi must lie in [0, 1]");
        constants.validate();
        Self {
            aggregation_time,
            xi,
            constants,
        }
    }

    /// ξ-constraint check for a single candidate group given as a slice of
    /// worker indices (used by the greedy algorithm on partial assignments):
    /// `L_j − L_u − l_i ≤ ξ·Δl` for every member — equivalently the latency
    /// gap between the slowest member and any member is at most `ξ·Δl`,
    /// where `Δl` is the latency spread of the *whole* population.
    pub(crate) fn slice_satisfies_xi(&self, group: &[usize], workers: &[WorkerInfo]) -> bool {
        let spread = WorkerInfo::latency_spread(workers);
        let max_latency = slice_max_latency(group, workers);
        group
            .iter()
            .all(|&w| max_latency - workers[w].local_training_time <= self.xi * spread + 1e-12)
    }

    /// Does group `j` of `grouping` satisfy the ξ-constraint of Eq. (36d)?
    pub(crate) fn group_satisfies_xi(
        &self,
        grouping: &Grouping,
        group: usize,
        workers: &[WorkerInfo],
    ) -> bool {
        self.slice_satisfies_xi(grouping.group(group), workers)
    }

    /// Does every group satisfy the ξ-constraint?
    pub fn satisfies_xi(&self, grouping: &Grouping, workers: &[WorkerInfo]) -> bool {
        (0..grouping.num_groups()).all(|j| self.group_satisfies_xi(grouping, j, workers))
    }

    /// Evaluate the full objective. Returns `+∞` for groupings under which
    /// the convergence bound cannot reach the target gap `ε`.
    pub fn evaluate(&self, grouping: &Grouping, workers: &[WorkerInfo]) -> f64 {
        self.breakdown(grouping, workers)
            .map(|b| b.total_time)
            .unwrap_or(f64::INFINITY)
    }

    /// Algorithm 3's score of an arbitrary (possibly partial) list of
    /// groups, compared as a pair, lower first: a feasible list scores
    /// `(false, objective)`, and one that makes the bound infeasible scores
    /// `(true, δ)`, its residual computed without the feasibility cut
    /// (`+∞` when no data is assigned). The greedy calls this on
    /// incrementally-built assignments.
    pub(crate) fn placement_score(
        &self,
        groups: &[Vec<usize>],
        workers: &[WorkerInfo],
    ) -> (bool, f64) {
        match self.estimate(groups, workers) {
            Ok(b) => (false, b.total_time),
            Err(residual) => (true, residual),
        }
    }

    /// Evaluate the objective together with its intermediate quantities.
    /// Returns `None` when the grouping makes the bound infeasible.
    pub(crate) fn breakdown(
        &self,
        grouping: &Grouping,
        workers: &[WorkerInfo],
    ) -> Option<ObjectiveBreakdown> {
        self.breakdown_groups(grouping.groups(), workers)
    }

    /// [`GroupingObjective::breakdown`] over an arbitrary (possibly partial)
    /// list of groups.
    ///
    /// The latency spread `Δl` and the reference (global) label distribution
    /// are always computed over the *entire* worker population — they are
    /// properties of the problem, not of the assignment. The data fractions
    /// `β_j`, however, are normalised by the data assigned *so far*: during
    /// Algorithm 3's incremental construction this keeps `Σ_j ψ_j β_j` at a
    /// stable magnitude, so early placement decisions weigh the Non-IID
    /// residual (Corollary 1) and the round-frequency term on the same scale
    /// as they will be weighed in the final, complete grouping. For a
    /// complete grouping the two normalisations coincide.
    pub(crate) fn breakdown_groups(
        &self,
        groups: &[Vec<usize>],
        workers: &[WorkerInfo],
    ) -> Option<ObjectiveBreakdown> {
        self.estimate(groups, workers).ok()
    }

    /// [`GroupingObjective::breakdown_groups`], or, when the bound is
    /// infeasible, the residual `δ` the list of groups reaches (`+∞` when
    /// it is undefined: an empty group, or no data assigned).
    fn estimate(
        &self,
        groups: &[Vec<usize>],
        workers: &[WorkerInfo],
    ) -> Result<ObjectiveBreakdown, f64> {
        if groups.is_empty() || groups.iter().any(|g| g.is_empty()) {
            return Err(f64::INFINITY);
        }
        let c = &self.constants;
        let completion: Vec<f64> = groups
            .iter()
            .map(|g| slice_max_latency(g, workers) + self.aggregation_time)
            .collect();
        debug_assert!(completion.iter().all(|&l| l > 0.0));
        let inv_sum: f64 = completion.iter().map(|l| 1.0 / l).sum();
        let average_round_time = 1.0 / inv_sum;
        let l_max = completion.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Eq. (39) estimates the maximum staleness as the number of global
        // updates that happen during the slowest group's round. We subtract
        // one so that a single group yields τ̂_max = 0, consistent with
        // Corollary 2 (M = 1 ⇒ τ_max = 0).
        let estimated_staleness = (l_max * inv_sum - 1.0).max(0.0);

        // Participation frequencies and data fractions (β_j normalised by
        // the data assigned so far; see the method docs).
        let assigned_data: usize = groups.iter().map(|g| slice_data_size(g, workers)).sum();
        let total_data = assigned_data as f64;
        let global = LabelDistribution::from_counts(&WorkerInfo::global_label_counts(workers));
        let mut psi_beta_sum = 0.0;
        let mut weighted_residual_numerator = 0.0;
        for (j, g) in groups.iter().enumerate() {
            let psi = (1.0 / completion[j]) / inv_sum;
            let beta = slice_data_size(g, workers) as f64 / total_data;
            let lambda = slice_label_distribution(g, workers).l1_distance(&global);
            psi_beta_sum += psi * beta;
            weighted_residual_numerator += psi
                * beta
                * (c.gamma * c.smoothness * lambda * lambda * c.gradient_bound_sq
                    + c.smoothness * c.smoothness * c.aggregation_error);
        }
        if psi_beta_sum <= 0.0 {
            return Err(f64::INFINITY);
        }

        // Residual delta of Theorem 1.
        let residual = weighted_residual_numerator
            / ((2.0 * c.mu * c.gamma * c.smoothness - c.mu) * psi_beta_sum);
        // Contraction base B = 1 - (2 mu gamma - mu / L_s) * sum psi_j beta_j.
        let contraction = 1.0 - (2.0 * c.mu * c.gamma - c.mu / c.smoothness) * psi_beta_sum;
        if contraction <= 0.0 || contraction >= 1.0 || residual >= c.epsilon {
            return Err(residual);
        }
        let a = (c.epsilon - residual) / c.initial_gap;
        if a <= 0.0 || a >= 1.0 {
            return Err(residual);
        }
        // T >= (1 + tau_max) log_B A  (Eq. 38); both logs are negative.
        let estimated_rounds = (1.0 + estimated_staleness) * (a.ln() / contraction.ln());
        let total_time = average_round_time * estimated_rounds;
        Ok(ObjectiveBreakdown {
            average_round_time,
            estimated_staleness,
            estimated_rounds,
            contraction,
            residual,
            total_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten single-label workers with a 1..10 latency ladder.
    fn workers() -> Vec<WorkerInfo> {
        (0..10)
            .map(|i| {
                let mut counts = vec![0usize; 10];
                counts[i] = 50;
                WorkerInfo::new(i, 10.0 + 5.0 * i as f64, 50, counts)
            })
            .collect()
    }

    fn objective(xi: f64) -> GroupingObjective {
        GroupingObjective::new(0.5, xi, ObjectiveConstants::default())
    }

    #[test]
    fn constants_validation_enforces_gamma_window() {
        let mut c = ObjectiveConstants::default();
        c.validate();
        c.gamma = 1.5;
        let result = std::panic::catch_unwind(|| c.validate());
        assert!(result.is_err());
    }

    #[test]
    fn single_group_has_zero_staleness() {
        let ws = workers();
        let g = Grouping::single_group(10);
        let b = objective(1.0).breakdown(&g, &ws).expect("feasible");
        assert!(b.estimated_staleness.abs() < 1e-9);
        // One group => round time equals the slowest worker + L_u.
        assert!((b.average_round_time - 55.5).abs() < 1e-9);
    }

    #[test]
    fn more_groups_mean_shorter_rounds_but_more_staleness() {
        let ws = workers();
        let single = objective(1.0)
            .breakdown(&Grouping::single_group(10), &ws)
            .unwrap();
        let pairs = Grouping::new((0..5).map(|i| vec![2 * i, 2 * i + 1]).collect(), 10);
        let paired = objective(1.0).breakdown(&pairs, &ws).unwrap();
        assert!(paired.average_round_time < single.average_round_time);
        assert!(paired.estimated_staleness > single.estimated_staleness);
    }

    #[test]
    fn xi_constraint_detects_mixed_latency_groups() {
        let ws = workers();
        // Workers 0 (10s) and 9 (55s) in one group: gap 45 = full spread.
        let bad = Grouping::new(vec![vec![0, 9], (1..9).collect()], 10);
        assert!(!objective(0.3).satisfies_xi(&bad, &ws));
        assert!(objective(1.0).satisfies_xi(&bad, &ws));
        // Adjacent-latency pairs have gap 5 <= 0.3 * 45.
        let good = Grouping::new((0..5).map(|i| vec![2 * i, 2 * i + 1]).collect(), 10);
        assert!(objective(0.3).satisfies_xi(&good, &ws));
    }

    #[test]
    fn singletons_satisfy_xi_zero() {
        let ws = workers();
        assert!(objective(0.0).satisfies_xi(&Grouping::singletons(10), &ws));
        assert!(!objective(0.0).satisfies_xi(&Grouping::single_group(10), &ws));
    }

    #[test]
    fn iid_groups_beat_skewed_groups_in_residual() {
        let ws = workers();
        // Skewed: adjacent single-label workers (each group sees 2 labels).
        let skewed = Grouping::new((0..5).map(|i| vec![2 * i, 2 * i + 1]).collect(), 10);
        // Less skewed: pair fast+slow halves so the latency is bad but the
        // labels are spread the same; to isolate the EMD effect compare
        // against the single group (EMD 0).
        let single = Grouping::single_group(10);
        let obj = objective(1.0);
        let b_skewed = obj.breakdown(&skewed, &ws).unwrap();
        let b_single = obj.breakdown(&single, &ws).unwrap();
        assert!(b_single.residual < b_skewed.residual);
    }

    #[test]
    fn infeasible_when_epsilon_too_small() {
        let ws = workers();
        let c = ObjectiveConstants {
            // Residual error can never be below this target.
            epsilon: 1e-9,
            ..ObjectiveConstants::default()
        };
        let obj = GroupingObjective::new(0.5, 1.0, c);
        let skewed = Grouping::new((0..5).map(|i| vec![2 * i, 2 * i + 1]).collect(), 10);
        assert!(obj.evaluate(&skewed, &ws).is_infinite());
    }

    #[test]
    fn objective_is_finite_and_positive_for_reasonable_groupings() {
        let ws = workers();
        let obj = objective(1.0);
        for grouping in [
            Grouping::single_group(10),
            Grouping::singletons(10),
            Grouping::new((0..5).map(|i| vec![2 * i, 2 * i + 1]).collect(), 10),
        ] {
            let v = obj.evaluate(&grouping, &ws);
            assert!(v.is_finite() && v > 0.0, "objective {v} for {grouping:?}");
        }
    }
}
