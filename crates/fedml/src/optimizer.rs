//! Local training (the worker-side update of Eq. (4)).
//!
//! In the paper every participating worker performs one local update
//! `w_t^i = w_{t-1} − γ ∇f_i(w_{t-1})` per round; in practice (and in the
//! authors' PyTorch simulation) the local update is implemented as one or more
//! epochs of mini-batch SGD over the worker's shard. [`local_update_ws`]
//! provides that general form; the literal Eq. (4) is its special case of one
//! epoch at a batch size no smaller than the shard.

use crate::dataset::Dataset;
use crate::model::Mlp;
use crate::rng::Rng64;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// Configuration of the worker-local SGD update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate `γ` of Eq. (4).
    pub learning_rate: f64,
    /// Mini-batch size; batches larger than the shard are clamped to the
    /// shard size (i.e. full-batch gradient descent).
    pub batch_size: usize,
    /// Number of passes over the local shard per round.
    pub local_epochs: usize,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            batch_size: 32,
            local_epochs: 1,
        }
    }
}

impl SgdConfig {
    /// Validate the configuration, panicking with a descriptive message on
    /// nonsensical values. Called by the mechanism runners at start-up.
    pub fn validate(&self) {
        assert!(
            self.learning_rate > 0.0 && self.learning_rate.is_finite(),
            "learning rate must be a positive finite number"
        );
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.local_epochs > 0, "local epochs must be positive");
    }
}

/// The local update of Eq. (4) generalised to `local_epochs` epochs of
/// mini-batch SGD, mutating `model` in place: the zero-steady-state-allocation
/// hot loop of every mechanism simulation. Returns the average training loss
/// observed over the processed batches.
///
/// Per mini-batch this performs one fused forward/backward/update pass
/// ([`Mlp::sgd_batch_ws`], all scratch from `ws`); the shuffle order and
/// batch scratch are drawn from — and returned to — the pool, so after the
/// first batch the loop touches the allocator not at all.
pub fn local_update_ws(
    model: &mut Mlp,
    shard: &Dataset,
    cfg: &SgdConfig,
    rng: &mut Rng64,
    ws: &mut Workspace,
) -> f64 {
    cfg.validate();
    assert!(!shard.is_empty(), "cannot train on an empty shard");
    let batch = cfg.batch_size.min(shard.len());
    let mut order = ws.take_indices(shard.len());
    order.extend(0..shard.len());
    let mut loss_sum = 0.0;
    let mut batches = 0usize;
    for _ in 0..cfg.local_epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(batch) {
            loss_sum += model.sgd_batch_ws(shard, chunk, cfg.learning_rate, ws);
            batches += 1;
        }
    }
    ws.give_indices(order);
    loss_sum / batches as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticSpec;
    use crate::params::FlatParams;

    fn toy() -> Dataset {
        let mut rng = Rng64::seed_from(77);
        SyntheticSpec::mnist_like()
            .with_samples_per_class(10)
            .generate(&mut rng)
    }

    fn logreg(data: &Dataset) -> Mlp {
        Mlp::logistic_regression(data.num_features(), data.num_classes())
    }

    #[test]
    fn local_update_reduces_loss() {
        let data = toy();
        let mut rng = Rng64::seed_from(1);
        let mut ws = Workspace::new();
        let mut m = logreg(&data);
        let before = m.evaluate_ws(&data, &mut ws).loss;
        let cfg = SgdConfig {
            learning_rate: 0.3,
            batch_size: 16,
            local_epochs: 3,
        };
        local_update_ws(&mut m, &data, &cfg, &mut rng, &mut ws);
        assert!(m.evaluate_ws(&data, &mut ws).loss < before);
    }

    #[test]
    fn local_update_from_does_not_corrupt_global() {
        let data = toy();
        let mut rng = Rng64::seed_from(2);
        let mut m = logreg(&data);
        let global = FlatParams::zeros(m.num_params());
        let cfg = SgdConfig::default();
        m.set_params(&global);
        local_update_ws(&mut m, &data, &cfg, &mut rng, &mut Workspace::new());
        assert_eq!(global, FlatParams::zeros(m.num_params()));
        assert!(
            m.params().norm_sq() > 0.0,
            "local update should move parameters"
        );
    }

    /// Eq. (4) to the letter: a batch size beyond the shard is one
    /// full-batch step `w ← w − γ ∇f_i(w)` per epoch, and the reported loss
    /// is the loss before it.
    #[test]
    fn batch_size_larger_than_shard_is_clamped() {
        let data = toy();
        let mut rng = Rng64::seed_from(3);
        let mut m = logreg(&data);
        let cfg = SgdConfig {
            learning_rate: 0.1,
            batch_size: 10_000,
            local_epochs: 1,
        };
        let all: Vec<usize> = (0..data.len()).collect();
        let (loss_before, g) = m.loss_and_gradient(&data, &all);
        let mut expected = m.params().clone();
        expected.axpy(-0.1, &g);
        let loss = local_update_ws(&mut m, &data, &cfg, &mut rng, &mut Workspace::new());
        assert!((loss - loss_before).abs() < 1e-12);
        assert!(m.params().dist_sq(&expected) < 1e-20);
    }

    #[test]
    #[should_panic(expected = "learning rate must be a positive finite number")]
    fn validate_rejects_bad_learning_rate() {
        SgdConfig {
            learning_rate: -1.0,
            batch_size: 1,
            local_epochs: 1,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn local_update_rejects_empty_shard() {
        let data = toy();
        let empty = data.subset(&[]);
        let mut rng = Rng64::seed_from(4);
        let mut m = logreg(&data);
        let cfg = SgdConfig::default();
        local_update_ws(&mut m, &empty, &cfg, &mut rng, &mut Workspace::new());
    }
}
