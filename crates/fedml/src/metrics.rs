//! Evaluation metrics.
//!
//! §VI.A.3 of the paper evaluates mechanisms by loss, accuracy and training
//! time. Loss and accuracy are computed here; time comes from the discrete
//! event simulator (`simcore`).

use crate::dataset::Dataset;
use crate::model::Model;

/// Classification accuracy of `model` on `data` (fraction of correctly
/// classified samples). Returns 0 for an empty dataset.
pub fn accuracy(model: &dyn Model, data: &Dataset) -> f64 {
    model.accuracy(data)
}

/// Average cross-entropy loss of `model` on `data`.
pub fn loss(model: &dyn Model, data: &Dataset) -> f64 {
    model.loss(data)
}

/// Confusion matrix: `confusion[true_label][predicted_label]` counts.
pub fn confusion_matrix(model: &dyn Model, data: &Dataset) -> Vec<Vec<usize>> {
    let k = data.num_classes();
    let mut m = vec![vec![0usize; k]; k];
    for i in 0..data.len() {
        let pred = model.predict(data.sample(i));
        m[data.label(i)][pred] += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticSpec;
    use crate::model::{LogisticRegression, Model};
    use crate::rng::Rng64;

    #[test]
    fn metrics_are_consistent_on_trained_model() {
        let mut rng = Rng64::seed_from(8);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(10)
            .generate(&mut rng);
        let mut m = LogisticRegression::new(data.num_features(), data.num_classes());
        let indices: Vec<usize> = (0..data.len()).collect();
        for _ in 0..50 {
            let g = m.gradient(&data, &indices);
            let mut p = m.params();
            p.axpy(-0.5, &g);
            m.set_params(&p);
        }
        let acc = accuracy(&m, &data);
        assert!(acc > 0.5);
        assert!(loss(&m, &data) < (data.num_classes() as f64).ln());

        // Confusion matrix row sums equal per-class counts.
        let cm = confusion_matrix(&m, &data);
        let counts = data.label_counts();
        for (c, row) in cm.iter().enumerate() {
            assert_eq!(row.iter().sum::<usize>(), counts[c]);
        }
        // Diagonal sum / total equals accuracy.
        let diag: usize = (0..cm.len()).map(|c| cm[c][c]).sum();
        assert!((diag as f64 / data.len() as f64 - acc).abs() < 1e-12);
    }

    #[test]
    fn untrained_model_near_chance() {
        let mut rng = Rng64::seed_from(9);
        let data = SyntheticSpec::mnist_like()
            .with_samples_per_class(20)
            .generate(&mut rng);
        let m = LogisticRegression::new(data.num_features(), data.num_classes());
        // Zero-initialised model predicts class 0 for every sample.
        assert!((accuracy(&m, &data) - 0.1).abs() < 1e-9);
    }
}
