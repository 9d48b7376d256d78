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
//! surrogates preserve (the channel-noise calibration that goes with the
//! smaller surrogate models is stated on `FlSystemConfig::mnist_lr`).

use crate::linalg::Matrix;
use crate::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A labelled classification dataset: a window of samples over a dense
/// feature matrix and one integer label per row.
///
/// The matrix and the labels live in shared storage, in generation order.
/// [`Dataset::new`] makes the identity window over all of its rows;
/// [`Dataset::into_shards`] cuts the workers' windows out of it without
/// moving or copying a row: the windows share one row map, a `u32` storage
/// row per sample, and shard `w`'s sample `r` is the storage row the map
/// holds at the shard's offset plus `r`. So a federated system holds every
/// sample once however many systems are cut from the same storage. A window
/// reads only its own samples ([`Dataset::sample`] panics past its end),
/// and `Clone` is shallow: it shares the storage and the map.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Arc<Matrix>,
    labels: Arc<Vec<usize>>,
    /// The storage row of every sample of the windows one
    /// [`Dataset::into_shards`] call cut, in shard order; `None` for an
    /// identity window, whose sample `i` is storage row `start + i`.
    rows: Option<Arc<Vec<u32>>>,
    /// The window's first entry: a storage row, or a position in `rows`.
    start: usize,
    /// Number of samples in the window.
    len: usize,
    num_classes: usize,
    /// Human-readable name, e.g. `"mnist-like"`.
    name: Arc<str>,
}

impl Dataset {
    /// Build a dataset from parts, taking ownership of the matrix (its rows
    /// are not copied). Panics if the number of feature rows and labels
    /// differ or a label is out of range.
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
            len: labels.len(),
            start: 0,
            rows: None,
            features: Arc::new(features),
            labels: Arc::new(labels),
            num_classes,
            name: name.into(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// The storage row of sample `i`. Panics if `i >= len()`.
    fn row(&self, i: usize) -> usize {
        assert!(i < self.len, "sample {i} out of bounds ({})", self.len);
        match &self.rows {
            Some(rows) => rows[self.start + i] as usize,
            None => self.start + i,
        }
    }

    /// Feature row of sample `i`. Panics if `i >= len()`.
    pub fn sample(&self, i: usize) -> &[f64] {
        self.features.row(self.row(i))
    }

    /// The window's `len × num_features` feature rows, row-major. The
    /// batched evaluation path feeds contiguous row ranges of them straight
    /// into GEMM, avoiding any per-sample gather. Only an identity window
    /// (a whole dataset, such as a test set) is contiguous; panics on a
    /// shard.
    pub(crate) fn features(&self) -> &[f64] {
        assert!(self.rows.is_none(), "a shard's rows are not contiguous");
        let d = self.num_features();
        &self.features.as_slice()[self.start * d..(self.start + self.len) * d]
    }

    /// Label of sample `i`. Panics if `i >= len()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[self.row(i)]
    }

    /// The window's labels, contiguous like [`Dataset::features`] (and
    /// likewise only for an identity window).
    pub(crate) fn labels(&self) -> &[usize] {
        assert!(self.rows.is_none(), "a shard's labels are not contiguous");
        &self.labels[self.start..self.start + self.len]
    }

    /// Per-class sample counts `d_i^k`.
    pub fn label_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for i in 0..self.len {
            counts[self.label(i)] += 1;
        }
        counts
    }

    /// A new dataset holding copies of the given samples, in order (tests only).
    #[cfg(test)]
    pub(crate) fn subset(&self, indices: &[usize]) -> Dataset {
        let cols = self.num_features();
        let mut feats = Matrix::zeros(indices.len(), cols);
        let mut labels = Vec::with_capacity(indices.len());
        for (row, &i) in indices.iter().enumerate() {
            feats.row_mut(row).copy_from_slice(self.sample(i));
            labels.push(self.label(i));
        }
        Dataset::new(feats, labels, self.num_classes, &self.name)
    }

    /// Cut this dataset into one window per shard without moving or
    /// copying a sample.
    ///
    /// `shards` must partition `0..len()` (every index in exactly one
    /// shard; panics otherwise). Shard `w` becomes a window whose sample `r`
    /// is this dataset's sample `shards[w][r]`, read through one row map
    /// the windows share (`u32` per sample). Returns this dataset, unchanged
    /// and still in its own order, and the windows; all of them share one
    /// storage.
    pub fn into_shards(self, shards: &[Vec<usize>]) -> (Dataset, Vec<Dataset>) {
        let n = self.len;
        let mut owned = vec![false; n];
        let mut rows = Vec::with_capacity(n);
        for &i in shards.iter().flatten() {
            assert!(i < n, "shard index {i} out of range ({n} samples)");
            assert!(!owned[i], "sample {i} is in two shards");
            owned[i] = true;
            rows.push(u32::try_from(self.row(i)).expect("storage rows fit in u32"));
        }
        assert_eq!(rows.len(), n, "some sample is in no shard");
        let rows = Arc::new(rows);
        let mut start = 0;
        let windows = shards
            .iter()
            .map(|s| {
                let window = Dataset {
                    rows: Some(Arc::clone(&rows)),
                    start,
                    len: s.len(),
                    ..self.clone()
                };
                start += s.len();
                window
            })
            .collect();
        (self, windows)
    }

    /// Indices of all samples carrying the given label.
    pub(crate) fn indices_of_class(&self, class: usize) -> Vec<usize> {
        (0..self.len).filter(|&i| self.label(i) == class).collect()
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

    /// Thirty samples of three classes, cut into three uneven shards.
    fn sharded() -> (Dataset, Dataset, Vec<Vec<usize>>, Vec<Dataset>) {
        let mut rng = Rng64::seed_from(6);
        let spec = SyntheticSpec::mnist_like().with_samples_per_class(3);
        let d = spec.generate(&mut rng);
        let shards = vec![vec![29, 0, 14], (1..14).rev().collect(), (15..29).collect()];
        let (whole, windows) = d.clone().into_shards(&shards);
        (d, whole, shards, windows)
    }

    #[test]
    fn shards_are_windows_holding_the_listed_samples_in_order() {
        let (d, whole, shards, windows) = sharded();
        assert_eq!(whole.len(), d.len());
        for (shard, window) in shards.iter().zip(&windows) {
            assert_eq!(window.len(), shard.len());
            for (r, &i) in shard.iter().enumerate() {
                assert_eq!(window.sample(r), d.sample(i));
                assert_eq!(window.label(r), d.label(i));
                // One storage: the window's row is the whole's row, not a copy.
                assert!(std::ptr::eq(window.sample(r), whole.sample(i)));
            }
            let counts = d.subset(shard).label_counts();
            assert_eq!(window.label_counts(), counts);
        }
        // Nothing moved: `d` and the whole are one storage in generation order.
        for i in 0..d.len() {
            assert!(std::ptr::eq(d.sample(i), whole.sample(i)));
            assert_eq!(d.label(i), whole.label(i));
        }
    }

    #[test]
    fn a_window_evaluates_only_its_own_rows() {
        let (_, _, shards, windows) = sharded();
        let w = &windows[1];
        let per_class = (0..w.num_classes()).map(|c| w.indices_of_class(c).len());
        assert_eq!(per_class.sum::<usize>(), w.len());
        assert_eq!(w.label_counts().iter().sum::<usize>(), shards[1].len());
        assert_eq!(w.indices_of_class(0), vec![11, 12]);
    }

    #[test]
    #[should_panic(expected = "a shard's rows are not contiguous")]
    fn a_shard_has_no_contiguous_feature_matrix() {
        let (_, _, _, windows) = sharded();
        let _ = windows[0].features();
    }

    #[test]
    #[should_panic(expected = "sample 3 out of bounds")]
    fn a_window_cannot_read_its_neighbours_rows() {
        let (_, _, _, windows) = sharded();
        let _ = windows[0].sample(3);
    }

    #[test]
    #[should_panic(expected = "sample 1 is in two shards")]
    fn into_shards_rejects_a_duplicate_index() {
        let d = SyntheticSpec::mnist_like()
            .with_samples_per_class(1)
            .generate(&mut Rng64::seed_from(7));
        let _ = d.into_shards(&[vec![0, 1], vec![1, 2, 3, 4, 5, 6, 7, 8, 9]]);
    }

    #[test]
    #[should_panic(expected = "some sample is in no shard")]
    fn into_shards_rejects_a_missing_index() {
        let d = SyntheticSpec::mnist_like()
            .with_samples_per_class(1)
            .generate(&mut Rng64::seed_from(7));
        let _ = d.into_shards(&[vec![0, 1], vec![2, 3, 4, 5, 6, 7, 8]]);
    }

    #[test]
    #[should_panic(expected = "shard index 10 out of range")]
    fn into_shards_rejects_an_out_of_range_index() {
        let d = SyntheticSpec::mnist_like()
            .with_samples_per_class(1)
            .generate(&mut Rng64::seed_from(7));
        let _ = d.into_shards(&[vec![0, 1, 10], vec![2, 3, 4, 5, 6, 7, 8, 9]]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn new_rejects_bad_labels() {
        let feats = Matrix::zeros(1, 2);
        let _ = Dataset::new(feats, vec![5], 3, "bad");
    }
}
