//! Datasets.
//!
//! The paper evaluates on MNIST, CIFAR-10 and an ImageNet-100 subset. Those
//! datasets are not redistributable inside this repository and the Rust deep
//! learning stack cannot train the paper's CNN/VGG models end-to-end, so we
//! substitute **synthetic Gaussian-mixture classification datasets** with the
//! same class counts (10 / 10 / 100) and controllable difficulty. What the
//! evaluation actually measures — the relative time-to-accuracy of different
//! aggregation mechanisms under Non-IID label-skew partitions — depends on the
//! *label structure* and the *training dynamics*, both of which these
//! surrogates preserve (see DESIGN.md §5).

use crate::linalg::Matrix;
use crate::rng::Rng64;
use serde::{Deserialize, Serialize};

/// A labelled classification dataset: a dense feature matrix plus one integer
/// label per row.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
    /// Human-readable name, e.g. `"mnist-like"`.
    name: String,
}

impl Dataset {
    /// Build a dataset from parts. Panics if the number of feature rows and
    /// labels differ or a label is out of range.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize, name: &str) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature rows and label count differ"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Self {
            features,
            labels,
            num_classes,
            name: name.to_string(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes `K`.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature row of sample `i`.
    pub fn sample(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// The full `len × num_features` feature matrix. The batched evaluation
    /// path feeds contiguous row ranges of this matrix straight into GEMM,
    /// avoiding any per-sample gather.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-class sample counts `d_i^k`.
    pub fn label_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Build a new dataset containing only the given sample indices (a
    /// worker's local shard).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let cols = self.num_features();
        let mut feats = Matrix::zeros(indices.len(), cols);
        let mut labels = Vec::with_capacity(indices.len());
        for (row, &i) in indices.iter().enumerate() {
            assert!(i < self.len(), "subset index {i} out of bounds");
            feats.row_mut(row).copy_from_slice(self.features.row(i));
            labels.push(self.labels[i]);
        }
        Dataset::new(feats, labels, self.num_classes, &self.name)
    }

    /// Indices of all samples carrying the given label.
    pub fn indices_of_class(&self, class: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == class).then_some(i))
            .collect()
    }
}

/// Specification of a synthetic Gaussian-mixture classification task.
///
/// Each class `k` gets a mean vector `µ_k ~ N(0, class_separation² I)`;
/// samples of class `k` are `µ_k + N(0, cluster_spread² I)`. Larger
/// `cluster_spread / class_separation` makes the task harder (lower accuracy
/// plateau), which is how we mimic the MNIST → CIFAR-10 → ImageNet-100
/// difficulty progression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Number of classes `K`.
    pub num_classes: usize,
    /// Feature dimensionality.
    pub num_features: usize,
    /// Training samples generated per class.
    pub samples_per_class: usize,
    /// Standard deviation of the class means.
    pub class_separation: f64,
    /// Standard deviation of samples around their class mean.
    pub cluster_spread: f64,
    /// Dataset name recorded in the generated [`Dataset`].
    pub name: String,
}

impl SyntheticSpec {
    /// MNIST-like surrogate: 10 well-separated classes, easy task
    /// (>90% accuracy reachable by logistic regression).
    pub fn mnist_like() -> Self {
        Self {
            num_classes: 10,
            num_features: 64,
            samples_per_class: 120,
            class_separation: 1.0,
            cluster_spread: 0.9,
            name: "mnist-like".to_string(),
        }
    }

    /// CIFAR-10-like surrogate: 10 classes with heavy overlap, so accuracy
    /// plateaus well below 100% — mirroring the ≈50–60% CNN accuracy in
    /// Fig. 5 of the paper.
    pub fn cifar10_like() -> Self {
        Self {
            num_classes: 10,
            num_features: 96,
            samples_per_class: 120,
            class_separation: 0.55,
            cluster_spread: 1.0,
            name: "cifar10-like".to_string(),
        }
    }

    /// ImageNet-100-like surrogate: 100 classes, hardest task, largest model.
    pub fn imagenet100_like() -> Self {
        Self {
            num_classes: 100,
            num_features: 128,
            samples_per_class: 30,
            class_separation: 0.8,
            cluster_spread: 1.0,
            name: "imagenet100-like".to_string(),
        }
    }

    /// Override the number of samples generated per class (builder-style).
    pub fn with_samples_per_class(mut self, n: usize) -> Self {
        self.samples_per_class = n;
        self
    }

    /// Generate a dataset from this specification.
    pub fn generate(&self, rng: &mut Rng64) -> Dataset {
        self.generate_with_counts(&vec![self.samples_per_class; self.num_classes], rng)
    }

    /// Generate a train/test pair that share the same class means (so the
    /// test set measures generalisation on the same task).
    pub fn generate_split(&self, test_per_class: usize, rng: &mut Rng64) -> (Dataset, Dataset) {
        let means = self.class_means(rng);
        let train =
            self.generate_from_means(&means, &vec![self.samples_per_class; self.num_classes], rng);
        let test = self.generate_from_means(&means, &vec![test_per_class; self.num_classes], rng);
        (train, test)
    }

    /// Generate a dataset with an explicit per-class sample count.
    pub fn generate_with_counts(&self, counts: &[usize], rng: &mut Rng64) -> Dataset {
        assert_eq!(counts.len(), self.num_classes, "counts length mismatch");
        let means = self.class_means(rng);
        self.generate_from_means(&means, counts, rng)
    }

    fn class_means(&self, rng: &mut Rng64) -> Vec<Vec<f64>> {
        (0..self.num_classes)
            .map(|_| {
                (0..self.num_features)
                    .map(|_| rng.gaussian_with(0.0, self.class_separation))
                    .collect()
            })
            .collect()
    }

    fn generate_from_means(
        &self,
        means: &[Vec<f64>],
        counts: &[usize],
        rng: &mut Rng64,
    ) -> Dataset {
        let total: usize = counts.iter().sum();
        let mut feats = Matrix::zeros(total, self.num_features);
        let mut labels = Vec::with_capacity(total);
        let mut row = 0;
        for (class, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                let dst = feats.row_mut(row);
                for (j, m) in means[class].iter().enumerate() {
                    dst[j] = m + rng.gaussian_with(0.0, self.cluster_spread);
                }
                labels.push(class);
                row += 1;
            }
        }
        Dataset::new(feats, labels, self.num_classes, &self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_respects_spec() {
        let mut rng = Rng64::seed_from(1);
        let spec = SyntheticSpec::mnist_like().with_samples_per_class(5);
        let d = spec.generate(&mut rng);
        assert_eq!(d.len(), 50);
        assert_eq!(d.num_classes(), 10);
        assert_eq!(d.num_features(), 64);
        assert_eq!(d.label_counts(), vec![5; 10]);
        assert_eq!(d.name(), "mnist-like");
    }

    #[test]
    fn subset_extracts_requested_rows() {
        let mut rng = Rng64::seed_from(2);
        let spec = SyntheticSpec::mnist_like().with_samples_per_class(3);
        let d = spec.generate(&mut rng);
        let sub = d.subset(&[0, 10, 29]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.label(0), d.label(0));
        assert_eq!(sub.label(1), d.label(10));
        assert_eq!(sub.sample(2), d.sample(29));
    }

    #[test]
    fn indices_of_class_partition_the_dataset() {
        let mut rng = Rng64::seed_from(3);
        let spec = SyntheticSpec::cifar10_like().with_samples_per_class(4);
        let d = spec.generate(&mut rng);
        let total: usize = (0..d.num_classes())
            .map(|c| d.indices_of_class(c).len())
            .sum();
        assert_eq!(total, d.len());
        for c in 0..d.num_classes() {
            assert!(d.indices_of_class(c).iter().all(|&i| d.label(i) == c));
        }
    }

    #[test]
    fn split_shares_task_structure() {
        let mut rng = Rng64::seed_from(4);
        let spec = SyntheticSpec::mnist_like().with_samples_per_class(10);
        let (train, test) = spec.generate_split(5, &mut rng);
        assert_eq!(train.len(), 100);
        assert_eq!(test.len(), 50);
        assert_eq!(train.num_features(), test.num_features());
        assert_eq!(train.num_classes(), test.num_classes());
    }

    #[test]
    fn generate_with_counts_skews_labels() {
        let mut rng = Rng64::seed_from(5);
        let spec = SyntheticSpec::mnist_like();
        let counts = vec![10, 0, 0, 0, 0, 0, 0, 0, 0, 5];
        let d = spec.generate_with_counts(&counts, &mut rng);
        assert_eq!(d.label_counts(), counts);
    }

    #[test]
    fn imagenet_spec_has_100_classes() {
        assert_eq!(SyntheticSpec::imagenet100_like().num_classes, 100);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn new_rejects_bad_labels() {
        let feats = Matrix::zeros(1, 2);
        let _ = Dataset::new(feats, vec![5], 3, "bad");
    }
}
