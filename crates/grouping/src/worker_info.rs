//! Worker summaries and validated groupings.
//!
//! The grouping algorithms of §V never look at raw samples; they only need
//! each worker's estimated local-training latency `l_i`, data size `d_i` and
//! per-class data sizes `d_i^k`. [`WorkerInfo`] carries exactly that, and
//! [`Grouping`] is a partition of worker indices into groups. Each group
//! statistic the objective needs — data size `D_j`, label distribution
//! `β_j^k`, slowest latency — is one `slice_*` function over a list of
//! worker indices, so complete and partial groupings share it.

use fedml::partition::LabelDistribution;
use serde::{Deserialize, Serialize};

/// What the grouping algorithms know about one worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerInfo {
    /// Worker index.
    pub(crate) id: usize,
    /// Estimated local training time `l_i` (seconds), assumed known from
    /// historical measurements (§V.A).
    pub local_training_time: f64,
    /// Local data size `d_i`.
    pub data_size: usize,
    /// Per-class sample counts `d_i^k`.
    pub(crate) label_counts: Vec<usize>,
}

impl WorkerInfo {
    /// Build a worker summary. Panics if `label_counts` does not sum to
    /// `data_size` or the latency is not positive.
    pub fn new(
        id: usize,
        local_training_time: f64,
        data_size: usize,
        label_counts: Vec<usize>,
    ) -> Self {
        assert!(
            local_training_time > 0.0 && local_training_time.is_finite(),
            "local training time must be positive"
        );
        assert!(data_size > 0, "data size must be positive");
        assert_eq!(
            label_counts.iter().sum::<usize>(),
            data_size,
            "label counts must sum to the data size"
        );
        Self {
            id,
            local_training_time,
            data_size,
            label_counts,
        }
    }

    /// Number of classes.
    pub(crate) fn num_classes(&self) -> usize {
        self.label_counts.len()
    }

    /// Spread `Δl = max_i l_i − min_i l_i` across a worker population
    /// (Eq. (36d) is expressed relative to this quantity).
    pub fn latency_spread(workers: &[WorkerInfo]) -> f64 {
        assert!(!workers.is_empty(), "no workers");
        let max = workers
            .iter()
            .map(|w| w.local_training_time)
            .fold(f64::NEG_INFINITY, f64::max);
        let min = workers
            .iter()
            .map(|w| w.local_training_time)
            .fold(f64::INFINITY, f64::min);
        max - min
    }

    /// Global label counts `Σ_i d_i^k` of a worker population.
    pub(crate) fn global_label_counts(workers: &[WorkerInfo]) -> Vec<usize> {
        assert!(!workers.is_empty(), "no workers");
        let k = workers[0].num_classes();
        let mut counts = vec![0usize; k];
        for w in workers {
            assert_eq!(w.num_classes(), k, "class-count mismatch across workers");
            for (c, &n) in counts.iter_mut().zip(w.label_counts.iter()) {
                *c += n;
            }
        }
        counts
    }
}

/// Total data size of an arbitrary set of worker indices.
pub(crate) fn slice_data_size(group: &[usize], workers: &[WorkerInfo]) -> usize {
    group.iter().map(|&w| workers[w].data_size).sum()
}

/// Label distribution of the union of an arbitrary set of worker indices.
pub(crate) fn slice_label_distribution(
    group: &[usize],
    workers: &[WorkerInfo],
) -> LabelDistribution {
    assert!(!group.is_empty(), "empty worker set");
    let k = workers[group[0]].num_classes();
    let mut counts = vec![0usize; k];
    for &w in group {
        for (c, &n) in counts.iter_mut().zip(workers[w].label_counts.iter()) {
            *c += n;
        }
    }
    LabelDistribution::from_counts(&counts)
}

/// Slowest local-training time within an arbitrary set of worker indices.
pub(crate) fn slice_max_latency(group: &[usize], workers: &[WorkerInfo]) -> f64 {
    assert!(!group.is_empty(), "empty worker set");
    group
        .iter()
        .map(|&w| workers[w].local_training_time)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// A partition of workers into groups (the paper's `V = {V_1, …, V_M}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grouping {
    groups: Vec<Vec<usize>>,
    num_workers: usize,
}

impl Grouping {
    /// Build a grouping from explicit member lists, validating that the
    /// groups form a partition of `0..num_workers` with no empty group.
    pub fn new(groups: Vec<Vec<usize>>, num_workers: usize) -> Self {
        assert!(!groups.is_empty(), "a grouping needs at least one group");
        let mut seen = vec![false; num_workers];
        for (gi, g) in groups.iter().enumerate() {
            assert!(!g.is_empty(), "group {gi} is empty");
            for &w in g {
                assert!(w < num_workers, "worker {w} out of range");
                assert!(!seen[w], "worker {w} appears in two groups");
                seen[w] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "grouping does not cover every worker"
        );
        Self {
            groups,
            num_workers,
        }
    }

    /// The trivial grouping with every worker in one group (synchronous FL).
    pub fn single_group(num_workers: usize) -> Self {
        Self::new(vec![(0..num_workers).collect()], num_workers)
    }

    /// The fully-asynchronous grouping: every worker is its own group.
    pub fn singletons(num_workers: usize) -> Self {
        Self::new((0..num_workers).map(|w| vec![w]).collect(), num_workers)
    }

    /// Number of groups `M`.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of workers `N`.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Member worker indices of group `j`.
    pub fn group(&self, j: usize) -> &[usize] {
        &self.groups[j]
    }

    /// All groups.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The slowest local-training time inside group `j` (`max_{v_i∈V_j} l_i`).
    pub fn group_max_latency(&self, j: usize, workers: &[WorkerInfo]) -> f64 {
        slice_max_latency(&self.groups[j], workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workers() -> Vec<WorkerInfo> {
        vec![
            WorkerInfo::new(0, 10.0, 20, vec![20, 0]),
            WorkerInfo::new(1, 20.0, 30, vec![0, 30]),
            WorkerInfo::new(2, 30.0, 50, vec![25, 25]),
        ]
    }

    #[test]
    fn worker_info_invariants() {
        let w = WorkerInfo::new(0, 5.0, 10, vec![4, 6]);
        assert_eq!(w.num_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "label counts must sum")]
    fn worker_info_rejects_inconsistent_counts() {
        let _ = WorkerInfo::new(0, 5.0, 10, vec![4, 4]);
    }

    #[test]
    fn population_helpers() {
        let ws = workers();
        assert_eq!(slice_data_size(&[0, 1, 2], &ws), 100);
        assert_eq!(WorkerInfo::latency_spread(&ws), 20.0);
        assert_eq!(WorkerInfo::global_label_counts(&ws), vec![45, 55]);
    }

    #[test]
    fn grouping_accessors() {
        let ws = workers();
        let g = Grouping::new(vec![vec![0, 1], vec![2]], 3);
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.group(1), &[2]);
        assert_eq!(slice_data_size(g.group(0), &ws), 50);
        assert_eq!(g.group_max_latency(0, &ws), 20.0);
        assert_eq!(g.group_max_latency(1, &ws), 30.0);
        let dist = slice_label_distribution(g.group(0), &ws);
        assert_eq!(dist.proportions, vec![0.4, 0.6]);
    }

    #[test]
    fn single_group_and_singletons() {
        let all = Grouping::single_group(4);
        assert_eq!(all.num_groups(), 1);
        assert_eq!(all.group(0).len(), 4);
        let each = Grouping::singletons(4);
        assert_eq!(each.num_groups(), 4);
    }

    #[test]
    #[should_panic(expected = "appears in two groups")]
    fn grouping_rejects_overlap() {
        let _ = Grouping::new(vec![vec![0, 1], vec![1]], 2);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn grouping_rejects_missing_workers() {
        let _ = Grouping::new(vec![vec![0]], 2);
    }
}
