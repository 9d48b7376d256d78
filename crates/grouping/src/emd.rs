//! Earth mover distance between label distributions.
//!
//! Eq. (11) of the paper measures how far a group's data distribution is from
//! the global one: `Λ_j = EMD(D, D_j) = Σ_{c_k∈C} |λ^k − β_j^k|`. Over a
//! categorical label space with unit ground distance this is exactly the L1
//! distance between the two probability vectors, so `Λ_j ∈ [0, 2]`.
//! Corollary 1 ties the convergence residual δ to these distances, and
//! Table III compares the average EMD achieved by different grouping methods
//! (Original 1.8 → TiFL 0.69 → Air-FedGA 0.21).

use crate::worker_info::{slice_label_distribution, Grouping, WorkerInfo};
use fedml::partition::LabelDistribution;

/// The EMD `Λ_j` between one group's label distribution and the global one.
pub fn group_emd(grouping: &Grouping, group: usize, workers: &[WorkerInfo]) -> f64 {
    let global = LabelDistribution::from_counts(&WorkerInfo::global_label_counts(workers));
    slice_label_distribution(grouping.group(group), workers).l1_distance(&global)
}

/// The unweighted average EMD `Λ̄ = (1/M) Σ_j Λ_j` over all groups — the
/// quantity reported in Table III.
pub fn average_group_emd(grouping: &Grouping, workers: &[WorkerInfo]) -> f64 {
    let global = LabelDistribution::from_counts(&WorkerInfo::global_label_counts(workers));
    let m = grouping.num_groups();
    (0..m)
        .map(|j| slice_label_distribution(grouping.group(j), workers).l1_distance(&global))
        .sum::<f64>()
        / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten workers, each holding a single distinct label (the paper's MNIST
    /// label-skew setup scaled down).
    fn single_label_workers() -> Vec<WorkerInfo> {
        (0..10)
            .map(|i| {
                let mut counts = vec![0usize; 10];
                counts[i] = 100;
                WorkerInfo::new(i, 10.0, 100, counts)
            })
            .collect()
    }

    #[test]
    fn singleton_grouping_reproduces_original_emd_of_1_8() {
        let ws = single_label_workers();
        let g = Grouping::singletons(10);
        let avg = average_group_emd(&g, &ws);
        // |1 - 1/10| + 9 * |0 - 1/10| = 1.8 exactly (paper §VI.B.3).
        assert!((avg - 1.8).abs() < 1e-12, "average EMD {avg}");
    }

    #[test]
    fn single_group_has_zero_emd() {
        let ws = single_label_workers();
        let g = Grouping::single_group(10);
        assert!(average_group_emd(&g, &ws) < 1e-12);
    }

    #[test]
    fn balanced_pairs_halve_the_emd() {
        // Pairing label-k with label-(k+5) workers gives each group two of
        // ten classes: EMD = 2*|1/2 - 1/10| + 8*|0 - 1/10| = 1.6.
        let ws = single_label_workers();
        let groups: Vec<Vec<usize>> = (0..5).map(|i| vec![i, i + 5]).collect();
        let g = Grouping::new(groups, 10);
        let avg = average_group_emd(&g, &ws);
        assert!((avg - 1.6).abs() < 1e-12, "average EMD {avg}");
    }

    #[test]
    fn group_emd_is_bounded() {
        let ws = single_label_workers();
        let g = Grouping::new(vec![vec![0, 1, 2], vec![3, 4, 5, 6], vec![7, 8, 9]], 10);
        for j in 0..g.num_groups() {
            let e = group_emd(&g, j, &ws);
            assert!((0.0..=2.0).contains(&e), "EMD {e} out of [0,2]");
        }
    }
}
