//! The training-time objective of problems (P2)/(P4), and Theorem 1's bound.
//!
//! Theorem 1: after `T` asynchronous over-the-air aggregations,
//!
//! ```text
//! E[F(w_T)] − F(w*) ≤ ρ^T (F(w_0) − F(w*)) + δ,    ρ = B^{1/(1+τ_max)}
//! ```
//!
//! [`theorem1_bound`] is the one evaluator of the theorem: from per-group
//! terms `(ψ_j, β_j, Λ_j)` and the [`ObjectiveConstants`] it returns the
//! contraction base `B` and the residual `δ` defined below, and
//! [`ObjectiveConstants::rounds_to_epsilon`] turns them into Eq. (38)'s
//! round count. Algorithm 3's objective is built on both.
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

/// Theorem 1's constants: the ones Algorithm 3 groups with and the bound is
/// evaluated at. The staleness bound `τ_max` is not among them; it is an
/// argument where it enters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveConstants {
    /// Strong-convexity constant `µ` (Assumption 2).
    pub mu: f64,
    /// Smoothness constant `L` (Assumption 1). Named `smoothness` to avoid
    /// clashing with the latency symbol `L`.
    pub smoothness: f64,
    /// Learning rate `γ`; Theorem 1 requires `1/(2L) < γ < 1/L`.
    pub gamma: f64,
    /// Gradient bound `G²` (Assumption 3).
    pub gradient_bound_sq: f64,
    /// Worst-case aggregation error `max_t C_t` (Eq. 30) after power control.
    pub aggregation_error: f64,
    /// Target optimality gap `ε` of constraint (36b).
    pub epsilon: f64,
    /// Initial optimality gap `F(w_0) − F(w*)`.
    pub initial_gap: f64,
}

impl Default for ObjectiveConstants {
    /// Defaults of a well-conditioned logistic-regression task (`µ = 0.4`,
    /// `L = 1`, `γ = 0.75 ∈ (1/(2L), 1/L)`, `G² = 0.1`, `C = 0.01`,
    /// `ε = 1.272`, `F(w_0) − F(w*) = 2.3`). A group of EMD `Λ` then
    /// contributes `δ = (0.075 Λ² + 0.01) / 0.2`, so the bound is feasible
    /// (`δ < ε`) only for `Λ ≤ 1.805`, not across the whole range `[0, 2]`.
    /// A single-class worker of `K` classes has `Λ = 2(1 − 1/K)`: at
    /// `K = 10` (`Λ = 1.8`) its singleton clears `ε` by 0.5 %, and at
    /// `K = 100` (`Λ = 1.98`, `δ ≈ 1.52`) no single-class group is feasible,
    /// which is why Algorithm 3 ranks infeasible placements by `δ` (see
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
    pub fn validate(&self) {
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

    /// Eq. (38): the rounds `T = (1 + τ)·log_B A`, with
    /// `A = (ε − δ) / (F(w_0) − F(w*))`, after which Theorem 1's bound
    /// reaches `ε`, for a contraction base `B` and residual `δ` from
    /// [`theorem1_bound`] and a staleness `τ`. `None` when the bound cannot
    /// be used: `B ∉ (0, 1)`, `δ ≥ ε`, or `A ∉ (0, 1)`.
    pub fn rounds_to_epsilon(
        &self,
        contraction: f64,
        residual: f64,
        staleness: f64,
    ) -> Option<f64> {
        if contraction <= 0.0 || contraction >= 1.0 || residual >= self.epsilon {
            return None;
        }
        let a = (self.epsilon - residual) / self.initial_gap;
        if a <= 0.0 || a >= 1.0 {
            return None;
        }
        // Both logs are negative.
        Some((1.0 + staleness) * (a.ln() / contraction.ln()))
    }
}

/// Theorem 1's contraction base and residual,
///
/// ```text
/// B = 1 − (2µγ − µ/L) Σ_j ψ_j β_j
/// δ = Σ_j ψ_j β_j (γ L Λ_j² G² + L² C) / ((2µγL − µ) Σ_j ψ_j β_j)
/// ```
///
/// from per-group terms `(ψ_j, β_j, Λ_j)` — relative participation
/// frequency, data fraction and EMD to the global label distribution —
/// summed in the order given. Returns `(B, δ)`, or `None` when
/// `Σ_j ψ_j β_j ≤ 0`. Whether `B ∈ (0, 1)` and `δ < ε` hold is
/// [`ObjectiveConstants::rounds_to_epsilon`]'s question, not this one's.
///
/// # Panics
///
/// If the `ψ_j` do not sum to 1, a `ψ_j` or `β_j` is negative, or a `Λ_j`
/// leaves `[0, 2]`. The constants are checked by
/// [`ObjectiveConstants::validate`], which [`GroupingObjective::new`] calls.
pub fn theorem1_bound(
    c: &ObjectiveConstants,
    terms: impl IntoIterator<Item = (f64, f64, f64)>,
) -> Option<(f64, f64)> {
    let (mut psi_sum, mut psi_beta_sum, mut numerator) = (0.0, 0.0, 0.0);
    for (psi, beta, lambda) in terms {
        assert!(psi >= 0.0 && beta >= 0.0, "psi/beta must be non-negative");
        assert!(
            (0.0..=2.0 + 1e-9).contains(&lambda),
            "EMD must lie in [0, 2], got {lambda}"
        );
        psi_sum += psi;
        psi_beta_sum += psi * beta;
        numerator += psi
            * beta
            * (c.gamma * c.smoothness * lambda * lambda * c.gradient_bound_sq
                + c.smoothness * c.smoothness * c.aggregation_error);
    }
    assert!(
        (psi_sum - 1.0).abs() < 1e-6,
        "participation frequencies must sum to 1 (got {psi_sum})"
    );
    if psi_beta_sum <= 0.0 {
        return None;
    }
    let contraction = 1.0 - (2.0 * c.mu * c.gamma - c.mu / c.smoothness) * psi_beta_sum;
    let residual = numerator / ((2.0 * c.mu * c.gamma * c.smoothness - c.mu) * psi_beta_sum);
    Some((contraction, residual))
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

/// A worker population with what every score reads of it as a whole,
/// computed once: the latency spread `Δl` of constraint (36d) and the
/// global label distribution the EMDs are measured against. Algorithm 3
/// scores `O(N²)` candidates against one population.
pub(crate) struct Population<'a> {
    pub(crate) workers: &'a [WorkerInfo],
    spread: f64,
    global: LabelDistribution,
}

impl<'a> Population<'a> {
    pub(crate) fn new(workers: &'a [WorkerInfo]) -> Self {
        Self {
            workers,
            spread: WorkerInfo::latency_spread(workers),
            global: LabelDistribution::from_counts(&WorkerInfo::global_label_counts(workers)),
        }
    }
}

/// The objective's intermediate quantities for a list of groups, before the
/// feasibility cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ObjectiveBreakdown {
    /// Average single-round latency `L` (Eq. 35).
    pub(crate) average_round_time: f64,
    /// Estimated maximum staleness `τ̂_max` (Eq. 39).
    pub(crate) estimated_staleness: f64,
    /// The contraction base `B`.
    pub(crate) contraction: f64,
    /// The residual error `δ` of Theorem 1 under this grouping.
    pub(crate) residual: f64,
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
    pub(crate) fn slice_satisfies_xi(&self, group: &[usize], population: &Population) -> bool {
        let workers = population.workers;
        let max_latency = slice_max_latency(group, workers);
        group.iter().all(|&w| {
            max_latency - workers[w].local_training_time <= self.xi * population.spread + 1e-12
        })
    }

    /// Does every group satisfy the ξ-constraint of Eq. (36d)?
    pub fn satisfies_xi(&self, grouping: &Grouping, workers: &[WorkerInfo]) -> bool {
        let population = Population::new(workers);
        grouping
            .groups()
            .iter()
            .all(|g| self.slice_satisfies_xi(g, &population))
    }

    /// Evaluate the full objective. Returns `+∞` for groupings under which
    /// the convergence bound cannot reach the target gap `ε`.
    pub fn evaluate(&self, grouping: &Grouping, workers: &[WorkerInfo]) -> f64 {
        match self.placement_score(grouping.groups(), &Population::new(workers)) {
            (false, total_time) => total_time,
            (true, _) => f64::INFINITY,
        }
    }

    /// Theorem 1's `(B, δ)` under a grouping, its terms derived as the
    /// objective derives them (see [`theorem1_bound`]), without the
    /// feasibility cut.
    pub fn bound(&self, grouping: &Grouping, workers: &[WorkerInfo]) -> Option<(f64, f64)> {
        self.breakdown(grouping.groups(), &Population::new(workers))
            .map(|b| (b.contraction, b.residual))
    }

    /// Algorithm 3's score of an arbitrary (possibly partial) list of
    /// groups, compared as a pair, lower first: a feasible list scores
    /// `(false, objective)`, and one that makes the bound infeasible scores
    /// `(true, δ)`, its residual computed without the feasibility cut
    /// (`+∞` when it is undefined). The greedy calls this on
    /// incrementally-built assignments.
    pub(crate) fn placement_score(
        &self,
        groups: &[Vec<usize>],
        population: &Population,
    ) -> (bool, f64) {
        let Some(b) = self.breakdown(groups, population) else {
            return (true, f64::INFINITY);
        };
        match self
            .constants
            .rounds_to_epsilon(b.contraction, b.residual, b.estimated_staleness)
        {
            Some(rounds) => (false, b.average_round_time * rounds),
            None => (true, b.residual),
        }
    }

    /// The objective's intermediate quantities for an arbitrary (possibly
    /// partial) list of groups, before the feasibility cut; `None` when
    /// they are undefined (no group, an empty group, or `Σ_j ψ_j β_j ≤ 0`).
    ///
    /// The latency spread `Δl` and the reference (global) label distribution
    /// are always the *entire* worker population's ([`Population`]) — they
    /// are properties of the problem, not of the assignment. The data fractions
    /// `β_j`, however, are normalised by the data assigned *so far*: during
    /// Algorithm 3's incremental construction this keeps `Σ_j ψ_j β_j` at a
    /// stable magnitude, so early placement decisions weigh the Non-IID
    /// residual (Corollary 1) and the round-frequency term on the same scale
    /// as they will be weighed in the final, complete grouping. For a
    /// complete grouping the two normalisations coincide.
    pub(crate) fn breakdown(
        &self,
        groups: &[Vec<usize>],
        population: &Population,
    ) -> Option<ObjectiveBreakdown> {
        let workers = population.workers;
        if groups.is_empty() || groups.iter().any(|g| g.is_empty()) {
            return None;
        }
        let completion: Vec<f64> = groups
            .iter()
            .map(|g| slice_max_latency(g, workers) + self.aggregation_time)
            .collect();
        debug_assert!(completion.iter().all(|&l| l > 0.0));
        let inv_sum: f64 = completion.iter().map(|l| 1.0 / l).sum();
        let l_max = completion.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Eq. (39) estimates the maximum staleness as the number of global
        // updates that happen during the slowest group's round. We subtract
        // one so that a single group yields τ̂_max = 0, consistent with
        // Corollary 2 (M = 1 ⇒ τ_max = 0).
        let estimated_staleness = (l_max * inv_sum - 1.0).max(0.0);

        // Participation frequencies, data fractions (β_j normalised by the
        // data assigned so far; see the method docs) and EMDs.
        let assigned_data: usize = groups.iter().map(|g| slice_data_size(g, workers)).sum();
        let total_data = assigned_data as f64;
        let terms = groups.iter().zip(&completion).map(|(g, l)| {
            (
                (1.0 / l) / inv_sum,
                slice_data_size(g, workers) as f64 / total_data,
                slice_label_distribution(g, workers).l1_distance(&population.global),
            )
        });
        let (contraction, residual) = theorem1_bound(&self.constants, terms)?;
        Some(ObjectiveBreakdown {
            average_round_time: 1.0 / inv_sum,
            estimated_staleness,
            contraction,
            residual,
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
        let b = objective(1.0)
            .breakdown(g.groups(), &Population::new(&ws))
            .expect("defined");
        assert!(b.estimated_staleness.abs() < 1e-9);
        // One group => round time equals the slowest worker + L_u.
        assert!((b.average_round_time - 55.5).abs() < 1e-9);
    }

    #[test]
    fn more_groups_mean_shorter_rounds_but_more_staleness() {
        let ws = workers();
        let single = objective(1.0)
            .breakdown(Grouping::single_group(10).groups(), &Population::new(&ws))
            .unwrap();
        let pairs = Grouping::new((0..5).map(|i| vec![2 * i, 2 * i + 1]).collect(), 10);
        let paired = objective(1.0)
            .breakdown(pairs.groups(), &Population::new(&ws))
            .unwrap();
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
        let b_skewed = obj
            .breakdown(skewed.groups(), &Population::new(&ws))
            .unwrap();
        let b_single = obj
            .breakdown(single.groups(), &Population::new(&ws))
            .unwrap();
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

    /// The constants the Theorem 1 tests evaluate at.
    fn bound_constants() -> ObjectiveConstants {
        ObjectiveConstants {
            mu: 0.2,
            smoothness: 1.0,
            gamma: 0.75,
            gradient_bound_sq: 0.05,
            aggregation_error: 0.01,
            epsilon: 1.0,
            initial_gap: 2.3,
        }
    }

    /// `m` groups with `ψ_j = β_j = 1/m` and one EMD.
    fn uniform_groups(m: usize, emd: f64) -> Vec<(f64, f64, f64)> {
        vec![(1.0 / m as f64, 1.0 / m as f64, emd); m]
    }

    /// Theorem 1's per-round factor `ρ = B^{1/(1+τ)}`.
    fn rho(contraction: f64, tau: usize) -> f64 {
        contraction.powf(1.0 / (1.0 + tau as f64))
    }

    /// The bound `ρ^T · (F(w_0) − F(w*)) + δ` after `T` rounds.
    fn after(rho: f64, delta: f64, rounds: usize, initial_gap: f64) -> f64 {
        rho.powi(rounds as i32) * initial_gap + delta
    }

    #[test]
    fn rho_lies_in_unit_interval_and_bound_decreases() {
        let (b, delta) = theorem1_bound(&bound_constants(), uniform_groups(5, 0.5)).unwrap();
        let r = rho(b, 3);
        assert!(r > 0.0 && r < 1.0);
        assert!(delta >= 0.0);
        let after_10 = after(r, delta, 10, 2.3);
        let after_100 = after(r, delta, 100, 2.3);
        assert!(after_100 < after_10);
        assert!(after_100 >= delta);
    }

    #[test]
    fn corollary1_more_noniid_means_larger_residual() {
        let c = bound_constants();
        let (_, iid) = theorem1_bound(&c, uniform_groups(5, 0.0)).unwrap();
        let (_, skewed) = theorem1_bound(&c, uniform_groups(5, 1.8)).unwrap();
        assert!(skewed > iid);
        // With IID groups and no aggregation error the residual vanishes.
        let clean = ObjectiveConstants {
            aggregation_error: 0.0,
            ..c
        };
        let (_, zero) = theorem1_bound(&clean, uniform_groups(5, 0.0)).unwrap();
        assert!(zero.abs() < 1e-15);
    }

    #[test]
    fn corollary2_smaller_staleness_means_smaller_rho() {
        let (b, _) = theorem1_bound(&bound_constants(), uniform_groups(4, 0.5)).unwrap();
        let (fast, slow) = (rho(b, 0), rho(b, 5));
        assert!(fast < slow, "{fast} !< {slow}");
    }

    #[test]
    fn rounds_to_reach_is_consistent_with_after() {
        let c = bound_constants();
        let tau = 2;
        let (b, delta) = theorem1_bound(&c, uniform_groups(3, 0.4)).unwrap();
        let target = ObjectiveConstants {
            epsilon: delta + 0.05,
            ..c
        };
        let t = target
            .rounds_to_epsilon(b, delta, tau as f64)
            .expect("reachable")
            .ceil() as usize;
        let r = rho(b, tau);
        assert!(after(r, delta, t, 2.3) <= target.epsilon + 1e-12);
        if t > 0 {
            assert!(after(r, delta, t - 1, 2.3) > target.epsilon);
        }
        // A target below the residual floor is unreachable.
        let floor = ObjectiveConstants {
            epsilon: delta * 0.5,
            ..c
        };
        assert!(floor.rounds_to_epsilon(b, delta, tau as f64).is_none());
    }

    #[test]
    fn single_group_full_participation_gives_fastest_contraction() {
        // M=1, psi=beta=1, tau=0: rho = 1 - (2 mu gamma - mu/L).
        let (b, _) = theorem1_bound(&bound_constants(), [(1.0, 1.0, 0.0)]).unwrap();
        let expected = 1.0 - (2.0 * 0.2 * 0.75 - 0.2);
        assert!((rho(b, 0) - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_invalid_participation_frequencies() {
        let mut groups = uniform_groups(3, 0.1);
        groups[0].0 = 0.9;
        let _ = theorem1_bound(&bound_constants(), groups);
    }

    /// Constants with `L ≠ 1`, so that `µ/L ≠ µ·L` and `L² ≠ 1`:
    /// `2µγ − µ/L = 0.09` and `2µγL − µ = 0.18`.
    fn oracle_constants() -> ObjectiveConstants {
        ObjectiveConstants {
            mu: 0.3,
            smoothness: 2.0,
            gamma: 0.4,
            gradient_bound_sq: 0.5,
            aggregation_error: 0.05,
            epsilon: 1.0,
            initial_gap: 2.3,
        }
    }

    #[test]
    fn theorem1_bound_of_uniform_groups_matches_closed_form() {
        // m groups with psi = beta = 1/m (sum psi beta = 1/m) and one EMD:
        // delta = (gamma L Lambda^2 G^2 + L^2 C) / (2 mu gamma L - mu)
        //       = (0.4·2·0.36·0.5 + 4·0.05) / 0.18 = 0.344 / 0.18,
        // B = 1 - (2 mu gamma - mu/L) / m = 1 - 0.09 / 4 = 0.9775.
        let (b, delta) = theorem1_bound(&oracle_constants(), uniform_groups(4, 0.6)).unwrap();
        assert!((delta - 0.344 / 0.18).abs() < 1e-12, "delta {delta}");
        assert!((b - 0.9775).abs() < 1e-12, "B {b}");
    }

    #[test]
    fn theorem1_bound_of_two_unequal_groups_matches_hand_computation() {
        // psi = (0.7, 0.3), beta = (0.25, 0.75), Lambda = (0.2, 1.5):
        // psi beta = (0.175, 0.225), sum 0.4;
        // group 1: 0.175 · (0.4·2·0.04·0.5 + 4·0.05) = 0.175 · 0.216 = 0.0378;
        // group 2: 0.225 · (0.4·2·2.25·0.5 + 4·0.05) = 0.225 · 1.1 = 0.2475;
        // delta = (0.0378 + 0.2475) / (0.18 · 0.4) = 0.2853 / 0.072 = 3.9625;
        // B = 1 - 0.09 · 0.4 = 0.964.
        let terms = [(0.7, 0.25, 0.2), (0.3, 0.75, 1.5)];
        let (b, delta) = theorem1_bound(&oracle_constants(), terms).unwrap();
        assert!((delta - 3.9625).abs() < 1e-12, "delta {delta}");
        assert!((b - 0.964).abs() < 1e-12, "B {b}");
    }
}
