//! Algorithm 3 — the greedy worker-grouping heuristic.
//!
//! Problem (P4) asks for the grouping `x` minimising the estimated total
//! training time `L(x)·(1 + τ̂_max)·log_B A` subject to the ξ-constraint.
//! Exhaustive search is `O(M^N)`; Algorithm 3 instead processes workers in
//! descending order of data size and places each one into the existing group
//! (or a fresh group) that minimises the current objective while keeping the
//! constraint satisfied. The worst-case complexity is `O(N²)` objective
//! evaluations, negligible next to training time.
//!
//! **Infeasible placements (lines 14–18).** The paper assumes some
//! placement keeps the convergence bound feasible (`δ < ε`). This reading
//! ranks the candidates that satisfy the ξ-constraint feasibility first, in
//! one pass: a feasible placement by the objective, an infeasible one by the
//! residual `δ` it reaches without the feasibility cut, and any feasible one
//! beats every infeasible one. Opening a singleton whenever nothing is
//! feasible instead leaves 100-class single-label workers (no single-class
//! group of 100 classes is feasible) as `N` singletons at every ξ; ranking by
//! `δ` builds the many-class groups that do turn feasible.

use crate::objective::GroupingObjective;
use crate::worker_info::{Grouping, WorkerInfo};
use serde::{Deserialize, Serialize};

/// Configuration of the greedy grouping run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GreedyGroupingConfig {
    /// The objective/constraint evaluator (carries `L_u`, ξ and the
    /// convergence constants).
    pub(crate) objective: GroupingObjective,
    /// If true (the paper's choice), workers are processed in descending
    /// order of data size; if false, in index order (useful for ablation).
    pub(crate) sort_by_data_size: bool,
}

impl GreedyGroupingConfig {
    /// Standard configuration used by the experiments.
    pub fn new(objective: GroupingObjective) -> Self {
        Self {
            objective,
            sort_by_data_size: true,
        }
    }
}

/// Run Algorithm 3 over the given worker population and return the resulting
/// grouping (a validated partition of all workers).
pub fn greedy_grouping(workers: &[WorkerInfo], cfg: &GreedyGroupingConfig) -> Grouping {
    assert!(!workers.is_empty(), "cannot group an empty worker set");
    // Line 3: sort workers in descending order of data size. The paper
    // leaves the order of equal-sized workers unspecified; we break ties by
    // round-robining across the workers' dominant classes (rank within the
    // class first, then class id, then worker id). Under the label-skew
    // partition every worker has the same data size, and a class-blocked tie
    // order would force the first classes to be spread before the greedy has
    // any chance to balance labels — the round-robin order lets every
    // placement decision see the full label spectrum.
    let mut seen_per_label: Vec<usize> = vec![0; workers[0].num_classes()];
    let mut rank_within_label: Vec<usize> = vec![0; workers.len()];
    let mut dominant_label: Vec<usize> = vec![0; workers.len()];
    for (i, w) in workers.iter().enumerate() {
        let label = w
            .label_counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(k, _)| k)
            .unwrap_or(0);
        dominant_label[i] = label;
        rank_within_label[i] = seen_per_label[label];
        seen_per_label[label] += 1;
    }
    let mut order: Vec<usize> = (0..workers.len()).collect();
    if cfg.sort_by_data_size {
        order.sort_by(|&a, &b| {
            workers[b]
                .data_size
                .cmp(&workers[a].data_size)
                .then(rank_within_label[a].cmp(&rank_within_label[b]))
                .then(dominant_label[a].cmp(&dominant_label[b]))
                .then(a.cmp(&b))
        });
    }

    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &wi in &order {
        // Lines 5-13: try every existing group plus a fresh singleton group,
        // ranked feasibility first (see the module docs).
        let mut best_score = (true, f64::INFINITY);
        let mut best_group: Option<usize> = None;
        for j in 0..=groups.len() {
            let mut candidate = groups.clone();
            if j == groups.len() {
                candidate.push(vec![wi]);
            } else {
                candidate[j].push(wi);
            }
            // Constraint (36d) must hold for the group that received the
            // worker (the other groups are unchanged).
            if !cfg.objective.slice_satisfies_xi(&candidate[j], workers) {
                continue;
            }
            let score = cfg.objective.placement_score(&candidate, workers);
            if score < best_score {
                best_score = score;
                best_group = Some(j);
            }
        }
        // Lines 14-18: commit the best placement. Only a worker without data
        // has no score at all; it opens a fresh singleton group, which
        // always satisfies (36d).
        match best_group {
            Some(j) if j < groups.len() => groups[j].push(wi),
            _ => groups.push(vec![wi]),
        }
    }
    Grouping::new(groups, workers.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd::average_group_emd;
    use crate::objective::ObjectiveConstants;

    /// The paper's setup in miniature: `n` workers, `k` classes, worker `i`
    /// holds only label `i·k/n`, latencies drawn from a ladder so similar
    /// latencies sit next to each other *across* label blocks.
    fn heterogeneous_single_label_workers(n: usize, k: usize) -> Vec<WorkerInfo> {
        (0..n)
            .map(|i| {
                let mut counts = vec![0usize; k];
                counts[i * k / n] = 40;
                // Latency pattern decoupled from the label: workers with the
                // same (i mod k) residue have similar latency.
                let latency = 8.0 + 6.0 * ((i % k) as f64) + 0.3 * (i / k) as f64;
                WorkerInfo::new(i, latency, 40, counts)
            })
            .collect()
    }

    fn config(xi: f64) -> GreedyGroupingConfig {
        GreedyGroupingConfig::new(GroupingObjective::new(
            0.5,
            xi,
            ObjectiveConstants::default(),
        ))
    }

    #[test]
    fn produces_a_valid_partition() {
        let ws = heterogeneous_single_label_workers(30, 10);
        let g = greedy_grouping(&ws, &config(0.3));
        assert_eq!(g.num_workers(), 30);
        let covered: usize = g.groups().iter().map(|x| x.len()).sum();
        assert_eq!(covered, 30);
    }

    #[test]
    fn respects_the_xi_constraint() {
        let ws = heterogeneous_single_label_workers(40, 10);
        for xi in [0.1, 0.3, 0.6, 1.0] {
            let cfg = config(xi);
            let g = greedy_grouping(&ws, &cfg);
            assert!(
                cfg.objective.satisfies_xi(&g, &ws),
                "xi = {xi} constraint violated"
            );
        }
    }

    #[test]
    fn xi_zero_degenerates_towards_singletons() {
        let ws = heterogeneous_single_label_workers(20, 10);
        let g = greedy_grouping(&ws, &config(0.0));
        // With xi = 0 only workers with identical latency may share a group;
        // our latency ladder has all-distinct latencies, so every group is a
        // singleton (fully asynchronous FL, as discussed for Fig. 8).
        assert_eq!(g.num_groups(), 20);
    }

    #[test]
    fn single_class_workers_of_100_classes_still_form_groups() {
        // No single-class group of 100 classes keeps the bound feasible, so
        // every early placement is infeasible; ranking those by δ must still
        // build mixed groups instead of 100 singletons.
        let ws = heterogeneous_single_label_workers(100, 100);
        for xi in [0.3, 0.7, 1.0] {
            let cfg = config(xi);
            let g = greedy_grouping(&ws, &cfg);
            assert!(g.num_groups() < 20, "xi = {xi}: {} groups", g.num_groups());
            assert!(cfg.objective.satisfies_xi(&g, &ws));
        }
    }

    #[test]
    fn grouping_reduces_average_emd_well_below_original() {
        let ws = heterogeneous_single_label_workers(100, 10);
        let g = greedy_grouping(&ws, &config(0.3));
        let original = average_group_emd(&Grouping::singletons(100), &ws);
        let grouped = average_group_emd(&g, &ws);
        assert!((original - 1.8).abs() < 1e-9);
        assert!(
            grouped < 0.6 * original,
            "greedy grouping EMD {grouped} not much below original {original}"
        );
    }

    #[test]
    fn grouping_beats_singletons_on_the_objective() {
        let ws = heterogeneous_single_label_workers(50, 10);
        let cfg = config(0.3);
        let g = greedy_grouping(&ws, &cfg);
        let greedy_value = cfg.objective.evaluate(&g, &ws);
        let singleton_value = cfg.objective.evaluate(&Grouping::singletons(50), &ws);
        assert!(
            greedy_value <= singleton_value,
            "greedy {greedy_value} worse than singletons {singleton_value}"
        );
    }

    #[test]
    fn groups_cluster_similar_latencies() {
        // Fig. 7: workers within a group should have comparable latency.
        let ws = heterogeneous_single_label_workers(60, 10);
        let cfg = config(0.3);
        let g = greedy_grouping(&ws, &cfg);
        let spread = WorkerInfo::latency_spread(&ws);
        for j in 0..g.num_groups() {
            let members = g.group(j);
            let max = members
                .iter()
                .map(|&w| ws[w].local_training_time)
                .fold(f64::NEG_INFINITY, f64::max);
            let min = members
                .iter()
                .map(|&w| ws[w].local_training_time)
                .fold(f64::INFINITY, f64::min);
            assert!(max - min <= 0.3 * spread + 1e-9);
        }
    }

    #[test]
    fn deterministic_given_identical_input() {
        let ws = heterogeneous_single_label_workers(40, 10);
        let cfg = config(0.3);
        let a = greedy_grouping(&ws, &cfg);
        let b = greedy_grouping(&ws, &cfg);
        assert_eq!(a, b);
    }
}
