//! TiFL-style latency-tier grouping (baseline).
//!
//! TiFL (Chai et al., HPDC 2020 — reference \[26\] of the paper) organises
//! workers into tiers by their observed response latency and lets tiers
//! participate in training asynchronously. Unlike Air-FedGA's Algorithm 3 it
//! ignores the data distribution entirely, which is why Table III shows its
//! inter-group EMD (0.69) sitting between the original 1.8 and Air-FedGA's
//! 0.21, and why it handles Non-IID data worse in Figs. 3–6.

use crate::worker_info::{Grouping, WorkerInfo};

/// Group workers into `num_tiers` latency tiers of (near-)equal size: the
/// fastest `N/num_tiers` workers form tier 0, the next block tier 1, etc.
pub fn tifl_grouping(workers: &[WorkerInfo], num_tiers: usize) -> Grouping {
    assert!(!workers.is_empty(), "cannot tier an empty worker set");
    assert!(num_tiers > 0, "need at least one tier");
    let tiers = num_tiers.min(workers.len());
    let mut order: Vec<usize> = (0..workers.len()).collect();
    // `total_cmp`, not `partial_cmp(..).unwrap()`: a NaN latency (e.g. an
    // uninitialised or failed timing probe) must not panic the grouping.
    // NaN compares greater than every finite latency under the IEEE total
    // order, so such workers deterministically land in the slowest tier.
    order.sort_by(|&a, &b| {
        workers[a]
            .local_training_time
            .total_cmp(&workers[b].local_training_time)
            .then(a.cmp(&b))
    });
    // Deal contiguous latency blocks into tiers; remainders go to the first
    // tiers so sizes differ by at most one.
    let base = workers.len() / tiers;
    let extra = workers.len() % tiers;
    let mut groups = Vec::with_capacity(tiers);
    let mut start = 0;
    for t in 0..tiers {
        let size = base + usize::from(t < extra);
        let members: Vec<usize> = order[start..start + size].to_vec();
        start += size;
        groups.push(members);
    }
    Grouping::new(groups, workers.len())
}

/// Pick the TiFL tier count the way the baseline implementation does: about
/// one tier per latency decile, bounded to `[2, 10]` and by the population.
pub fn default_tier_count(num_workers: usize) -> usize {
    (num_workers / 10).clamp(2, 10).min(num_workers.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emd::average_group_emd;

    fn workers(n: usize) -> Vec<WorkerInfo> {
        (0..n)
            .map(|i| {
                let mut counts = vec![0usize; 10];
                counts[i * 10 / n] = 30;
                // Latency correlates with the worker index modulo nothing in
                // particular — use a shuffled-looking but deterministic value.
                let latency = 5.0 + ((i * 37) % 100) as f64 * 0.5;
                WorkerInfo::new(i, latency, 30, counts)
            })
            .collect()
    }

    #[test]
    fn produces_equal_sized_tiers() {
        let ws = workers(100);
        let g = tifl_grouping(&ws, 5);
        assert_eq!(g.num_groups(), 5);
        for j in 0..5 {
            assert_eq!(g.group(j).len(), 20);
        }
    }

    #[test]
    fn tiers_are_latency_ordered() {
        let ws = workers(50);
        let g = tifl_grouping(&ws, 5);
        let tier_max: Vec<f64> = (0..5).map(|j| g.group_max_latency(j, &ws)).collect();
        for pair in tier_max.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "tiers not latency ordered: {tier_max:?}"
            );
        }
        // No member of tier j+1 is faster than the slowest member of tier j.
        for (j, &cur_max) in tier_max.iter().take(4).enumerate() {
            let next_min = g
                .group(j + 1)
                .iter()
                .map(|&w| ws[w].local_training_time)
                .fold(f64::INFINITY, f64::min);
            assert!(next_min >= cur_max - 1e-9);
        }
    }

    #[test]
    fn handles_more_tiers_than_workers() {
        let ws = workers(3);
        let g = tifl_grouping(&ws, 10);
        assert_eq!(g.num_groups(), 3);
    }

    #[test]
    fn uneven_population_distributes_remainder() {
        let ws = workers(23);
        let g = tifl_grouping(&ws, 5);
        let sizes: Vec<usize> = g.groups().iter().map(|x| x.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 23);
        assert!(sizes.iter().all(|&s| s == 4 || s == 5));
    }

    #[test]
    fn tifl_emd_sits_between_original_and_zero() {
        // Table III shape: 0 < TiFL EMD < original (1.8 for single-label).
        let ws: Vec<WorkerInfo> = (0..100)
            .map(|i| {
                let mut counts = vec![0usize; 10];
                counts[i / 10] = 30;
                let latency = 8.0 + ((i * 13) % 54) as f64;
                WorkerInfo::new(i, latency, 30, counts)
            })
            .collect();
        let tifl = tifl_grouping(&ws, 7);
        let emd = average_group_emd(&tifl, &ws);
        assert!(emd > 0.05 && emd < 1.8, "TiFL EMD {emd}");
    }

    #[test]
    fn nan_latency_does_not_panic_and_lands_in_the_slowest_tier() {
        // Regression: the sort used partial_cmp(..).unwrap(), which panicked
        // as soon as one worker reported a NaN training time.
        let mut ws = workers(12);
        ws[3].local_training_time = f64::NAN;
        let g = tifl_grouping(&ws, 3);
        assert_eq!(g.num_groups(), 3);
        let sizes: Vec<usize> = g.groups().iter().map(|x| x.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 12);
        // NaN is the maximum of the IEEE total order, so worker 3 sits in the
        // last (slowest) tier; everyone is placed exactly once.
        assert!(g.group(2).contains(&3), "NaN worker not in slowest tier");
        let mut all: Vec<usize> = g.groups().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn default_tier_count_is_clamped() {
        assert_eq!(default_tier_count(100), 10);
        assert_eq!(default_tier_count(30), 3);
        assert_eq!(default_tier_count(5), 2);
    }
}
