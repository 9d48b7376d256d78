//! Non-IID data partitioning across workers.
//!
//! §VI.A.1 of the paper partitions MNIST by *label skew*: samples labelled `0`
//! go to workers `v₁..v₁₀`, label `1` to `v₁₁..v₂₀`, and so on — i.e. with
//! `N = 100` workers and `K = 10` classes every worker holds a single label.
//! [`Partitioner::LabelSkew`] generalises this scheme to arbitrary `N` and `K`.
//! [`Partitioner::Dirichlet`] and [`Partitioner::Iid`] are provided for
//! ablations (Corollary 1 predicts the residual error shrinks as the
//! inter-group distribution approaches IID).

use crate::dataset::Dataset;
use crate::rng::Rng64;
use serde::{Deserialize, Serialize};

/// Per-class sample proportions of a dataset shard (the `α_i^k` / `β_j^k` /
/// `λ^k` quantities of Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelDistribution {
    /// Proportion of samples per class; sums to 1 for a non-empty shard.
    pub proportions: Vec<f64>,
    /// Total number of samples in the shard.
    pub total: usize,
}

impl LabelDistribution {
    /// Compute the label distribution from raw per-class counts.
    pub fn from_counts(counts: &[usize]) -> Self {
        let total: usize = counts.iter().sum();
        let proportions = if total == 0 {
            vec![0.0; counts.len()]
        } else {
            counts.iter().map(|&c| c as f64 / total as f64).collect()
        };
        Self { proportions, total }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.proportions.len()
    }

    /// Merge several shards into the distribution of their union, weighting
    /// by shard size (used to compute the group distribution `β_j^k`).
    pub fn merge(shards: &[&LabelDistribution]) -> LabelDistribution {
        assert!(!shards.is_empty(), "cannot merge zero shards");
        let k = shards[0].num_classes();
        let mut counts = vec![0.0f64; k];
        let mut total = 0usize;
        for s in shards {
            assert_eq!(s.num_classes(), k, "class-count mismatch in merge");
            for (c, p) in counts.iter_mut().zip(s.proportions.iter()) {
                *c += p * s.total as f64;
            }
            total += s.total;
        }
        let proportions = if total == 0 {
            vec![0.0; k]
        } else {
            counts.iter().map(|c| c / total as f64).collect()
        };
        LabelDistribution { proportions, total }
    }

    /// L1 distance to another distribution — the earth mover distance of
    /// Eq. (11) for categorical label spaces.
    pub fn l1_distance(&self, other: &LabelDistribution) -> f64 {
        assert_eq!(
            self.num_classes(),
            other.num_classes(),
            "class-count mismatch"
        );
        self.proportions
            .iter()
            .zip(other.proportions.iter())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

/// Strategies for splitting a global dataset across `N` workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Partitioner {
    /// The paper's label-skew scheme: class `k`'s samples are divided evenly
    /// among the workers assigned to class `k` (workers are assigned to
    /// classes round-robin by contiguous blocks, exactly as in §VI.A.1).
    LabelSkew,
    /// Each worker draws its class proportions from a symmetric Dirichlet
    /// distribution with the given concentration `alpha`; smaller `alpha`
    /// means more skew.
    Dirichlet {
        /// Dirichlet concentration parameter.
        alpha: f64,
    },
    /// Independent and identically distributed: samples are shuffled and
    /// dealt to workers evenly.
    Iid,
}

impl Partitioner {
    /// Split `data` into `num_workers` shards, returning for each worker the
    /// list of global sample indices it owns.
    ///
    /// Invariants (checked by tests / proptests): the shards are disjoint,
    /// their union covers every sample, and no shard is empty as long as
    /// `num_workers <= data.len()`.
    pub fn partition(
        &self,
        data: &Dataset,
        num_workers: usize,
        rng: &mut Rng64,
    ) -> Vec<Vec<usize>> {
        assert!(num_workers > 0, "need at least one worker");
        assert!(
            num_workers <= data.len(),
            "more workers ({num_workers}) than samples ({})",
            data.len()
        );
        let shards = match self {
            Partitioner::LabelSkew => Self::label_skew(data, num_workers, rng),
            Partitioner::Dirichlet { alpha } => Self::dirichlet(data, num_workers, *alpha, rng),
            Partitioner::Iid => Self::iid(data, num_workers, rng),
        };
        Self::repair_empty_shards(shards, data.len())
    }

    /// Label-skew partition per §VI.A.1: workers are grouped into `K`
    /// contiguous blocks, block `k` receives only class-`k` samples.
    fn label_skew(data: &Dataset, num_workers: usize, rng: &mut Rng64) -> Vec<Vec<usize>> {
        let k = data.num_classes();
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_workers];
        // Assign workers to classes by contiguous blocks (paper: v1-v10 -> label 0, ...).
        // When N is not a multiple of K the first (N mod K) classes get one extra worker.
        let mut owners_per_class: Vec<Vec<usize>> = vec![Vec::new(); k];
        for w in 0..num_workers {
            let class = w * k / num_workers;
            owners_per_class[class].push(w);
        }
        for (class, owners) in owners_per_class.iter().enumerate() {
            let mut idx = data.indices_of_class(class);
            rng.shuffle(&mut idx);
            if owners.is_empty() {
                // More classes than workers: spill onto a worker chosen by class index.
                let w = class % num_workers;
                shards[w].extend(idx);
                continue;
            }
            for (pos, sample) in idx.into_iter().enumerate() {
                let w = owners[pos % owners.len()];
                shards[w].push(sample);
            }
        }
        shards
    }

    /// Dirichlet-skew partition: draw a class mixture per worker and sample
    /// without replacement from each class pool proportionally.
    fn dirichlet(
        data: &Dataset,
        num_workers: usize,
        alpha: f64,
        rng: &mut Rng64,
    ) -> Vec<Vec<usize>> {
        assert!(alpha > 0.0, "Dirichlet alpha must be positive");
        let k = data.num_classes();
        let mut pools: Vec<Vec<usize>> = (0..k)
            .map(|c| {
                let mut v = data.indices_of_class(c);
                rng.shuffle(&mut v);
                v
            })
            .collect();
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_workers];
        for shard in shards.iter_mut() {
            // A Dirichlet draw is a normalised vector of Gamma(alpha, 1) draws;
            // we approximate Gamma via the Marsaglia–Tsang method for alpha>=1
            // and boosting for alpha<1.
            let weights: Vec<f64> = (0..k).map(|_| gamma_sample(alpha, rng)).collect();
            let sum: f64 = weights.iter().sum();
            let target_total = data.len() / num_workers;
            for (c, w) in weights.iter().enumerate() {
                let want = ((w / sum) * target_total as f64).round() as usize;
                let take = want.min(pools[c].len());
                for _ in 0..take {
                    shard.push(pools[c].pop().expect("pool checked non-empty"));
                }
            }
        }
        // Distribute leftovers round-robin so the union covers the dataset.
        let mut leftovers: Vec<usize> = pools.into_iter().flatten().collect();
        rng.shuffle(&mut leftovers);
        for (i, s) in leftovers.into_iter().enumerate() {
            shards[i % num_workers].push(s);
        }
        shards
    }

    /// IID partition: shuffle and deal.
    fn iid(data: &Dataset, num_workers: usize, rng: &mut Rng64) -> Vec<Vec<usize>> {
        let mut idx: Vec<usize> = (0..data.len()).collect();
        rng.shuffle(&mut idx);
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_workers];
        for (i, s) in idx.into_iter().enumerate() {
            shards[i % num_workers].push(s);
        }
        shards
    }

    /// Ensure no shard is empty by stealing one sample from the largest shard.
    fn repair_empty_shards(mut shards: Vec<Vec<usize>>, total: usize) -> Vec<Vec<usize>> {
        while let Some(empty) = shards.iter().position(|s| s.is_empty()) {
            let donor = shards
                .iter()
                .enumerate()
                .max_by_key(|(_, s)| s.len())
                .map(|(i, _)| i)
                .expect("non-empty shard list");
            if shards[donor].len() <= 1 {
                break; // cannot repair further
            }
            let sample = shards[donor].pop().expect("donor checked non-empty");
            shards[empty].push(sample);
        }
        debug_assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), total);
        shards
    }
}

/// Sample from a Gamma(shape, 1) distribution (Marsaglia–Tsang squeeze method).
fn gamma_sample(shape: f64, rng: &mut Rng64) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a+1) * U^{1/a}
        let u = rng.uniform().max(f64::MIN_POSITIVE);
        return gamma_sample(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.gaussian();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.uniform();
        if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticSpec;

    fn toy(samples_per_class: usize) -> Dataset {
        let mut rng = Rng64::seed_from(123);
        SyntheticSpec::mnist_like()
            .with_samples_per_class(samples_per_class)
            .generate(&mut rng)
    }

    /// The label distribution of the samples of `data` a shard lists.
    fn shard_distribution(data: &Dataset, shard: &[usize]) -> LabelDistribution {
        LabelDistribution::from_counts(&data.subset(shard).label_counts())
    }

    fn assert_is_partition(shards: &[Vec<usize>], total: usize) {
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all.len(), total, "shards do not cover all samples");
        all.dedup();
        assert_eq!(all.len(), total, "shards overlap");
    }

    #[test]
    fn label_skew_gives_single_label_per_worker_when_n_is_10k() {
        let data = toy(20);
        let mut rng = Rng64::seed_from(1);
        let shards = Partitioner::LabelSkew.partition(&data, 100, &mut rng);
        assert_eq!(shards.len(), 100);
        assert_is_partition(&shards, data.len());
        for shard in &shards {
            let dist = shard_distribution(&data, shard);
            let nonzero = dist.proportions.iter().filter(|&&p| p > 0.0).count();
            assert_eq!(nonzero, 1, "label-skew shard should hold a single class");
        }
    }

    #[test]
    fn label_skew_original_emd_matches_paper_value() {
        // Paper §VI.B.3: with one label per worker the average EMD to the
        // global (uniform) distribution is |1 - 1/10| + 9 * |0 - 1/10| = 1.8.
        let data = toy(20);
        let mut rng = Rng64::seed_from(2);
        let shards = Partitioner::LabelSkew.partition(&data, 100, &mut rng);
        let global = LabelDistribution::from_counts(&data.label_counts());
        let avg: f64 = shards
            .iter()
            .map(|s| shard_distribution(&data, s).l1_distance(&global))
            .sum::<f64>()
            / shards.len() as f64;
        assert!((avg - 1.8).abs() < 1e-9, "average EMD {avg} != 1.8");
    }

    #[test]
    fn iid_partition_is_balanced() {
        let data = toy(10);
        let mut rng = Rng64::seed_from(3);
        let shards = Partitioner::Iid.partition(&data, 20, &mut rng);
        assert_is_partition(&shards, data.len());
        let min = shards.iter().map(|s| s.len()).min().unwrap();
        let max = shards.iter().map(|s| s.len()).max().unwrap();
        assert!(max - min <= 1, "IID shards should be balanced");
    }

    #[test]
    fn dirichlet_partition_covers_dataset() {
        let data = toy(10);
        let mut rng = Rng64::seed_from(4);
        let shards = Partitioner::Dirichlet { alpha: 0.5 }.partition(&data, 10, &mut rng);
        assert_is_partition(&shards, data.len());
        assert!(shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn dirichlet_low_alpha_is_more_skewed_than_iid() {
        let data = toy(30);
        let mut rng = Rng64::seed_from(5);
        let global = LabelDistribution::from_counts(&data.label_counts());
        let emd = |shards: &[Vec<usize>]| -> f64 {
            shards
                .iter()
                .map(|s| shard_distribution(&data, s).l1_distance(&global))
                .sum::<f64>()
                / shards.len() as f64
        };
        let skewed = Partitioner::Dirichlet { alpha: 0.1 }.partition(&data, 10, &mut rng);
        let iid = Partitioner::Iid.partition(&data, 10, &mut rng);
        assert!(emd(&skewed) > emd(&iid));
    }

    #[test]
    fn label_skew_handles_non_multiple_worker_counts() {
        let data = toy(20);
        let mut rng = Rng64::seed_from(6);
        for n in [7usize, 23, 60] {
            let shards = Partitioner::LabelSkew.partition(&data, n, &mut rng);
            assert_eq!(shards.len(), n);
            assert_is_partition(&shards, data.len());
            assert!(shards.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn merge_recovers_global_distribution() {
        let data = toy(10);
        let mut rng = Rng64::seed_from(7);
        let shards = Partitioner::LabelSkew.partition(&data, 10, &mut rng);
        let dists: Vec<LabelDistribution> = shards
            .iter()
            .map(|s| shard_distribution(&data, s))
            .collect();
        let refs: Vec<&LabelDistribution> = dists.iter().collect();
        let merged = LabelDistribution::merge(&refs);
        let global = LabelDistribution::from_counts(&data.label_counts());
        assert!(merged.l1_distance(&global) < 1e-9);
    }

    #[test]
    fn label_distribution_from_counts_normalises() {
        let d = LabelDistribution::from_counts(&[2, 2, 4]);
        assert_eq!(d.total, 8);
        assert_eq!(d.proportions, vec![0.25, 0.25, 0.5]);
    }
}
