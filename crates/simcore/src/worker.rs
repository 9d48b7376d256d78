//! Worker latencies and the edge-heterogeneity model.
//!
//! §VI.A.2 of the paper: the virtual workers' raw local-training times are
//! roughly equal (they share one workstation), so heterogeneity is *injected*
//! by a scaling factor `κ_i` drawn uniformly from `[1, 10]`; worker `v_i`'s
//! local training time becomes `l_i = κ_i · l̂_i`. We reproduce exactly that
//! protocol: a base training time derived from the computational cost of the
//! local update, multiplied by the same uniformly-drawn factor.

use fedml::rng::Rng64;
use serde::{Deserialize, Serialize};

/// How heterogeneity factors `κ_i` are assigned to workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HeterogeneityModel {
    /// The paper's model: `κ_i ~ U[lo, hi]` (defaults to `[1, 10]`).
    Uniform {
        /// Lower bound of the scaling factor.
        lo: f64,
        /// Upper bound of the scaling factor.
        hi: f64,
    },
    /// Every worker identical (used to isolate Non-IID effects).
    Homogeneous,
}

impl Default for HeterogeneityModel {
    fn default() -> Self {
        HeterogeneityModel::Uniform { lo: 1.0, hi: 10.0 }
    }
}

impl HeterogeneityModel {
    /// Draw the next worker's factor `κ_i`.
    pub(crate) fn factor(&self, rng: &mut Rng64) -> f64 {
        match self {
            HeterogeneityModel::Uniform { lo, hi } => {
                assert!(hi >= lo && *lo > 0.0, "invalid uniform bounds");
                rng.uniform_range(*lo, *hi)
            }
            HeterogeneityModel::Homogeneous => 1.0,
        }
    }
}

/// The simulated local-training latency `l_i = κ_i · l̂_i` (seconds) of
/// every worker, drawing `κ_i` in worker order.
///
/// * `data_sizes` — per-worker shard sizes `d_i` (from the partitioner).
/// * `base_time_per_sample` — seconds of local compute per training sample
///   per round; the base time `l̂_i` is proportional to the shard size,
///   which reflects that a worker with more data does more work per local
///   epoch.
pub fn local_training_times(
    data_sizes: &[usize],
    base_time_per_sample: f64,
    heterogeneity: &HeterogeneityModel,
    rng: &mut Rng64,
) -> Vec<f64> {
    assert!(
        base_time_per_sample > 0.0,
        "base time per sample must be positive"
    );
    data_sizes
        .iter()
        .enumerate()
        .map(|(id, &d)| {
            assert!(d > 0, "worker {id} has an empty shard");
            (base_time_per_sample * d as f64) * heterogeneity.factor(rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_factors_lie_in_range() {
        let model = HeterogeneityModel::default();
        let mut rng = Rng64::seed_from(1);
        for _ in 0..1000 {
            let k = model.factor(&mut rng);
            assert!((1.0..10.0).contains(&k));
        }
    }

    #[test]
    fn homogeneous_factors_are_one() {
        let mut rng = Rng64::seed_from(2);
        assert_eq!(HeterogeneityModel::Homogeneous.factor(&mut rng), 1.0);
    }

    #[test]
    fn generate_builds_consistent_profiles() {
        let mut rng = Rng64::seed_from(4);
        let sizes = vec![10, 20, 30];
        let times = local_training_times(&sizes, 0.5, &HeterogeneityModel::Homogeneous, &mut rng);
        assert_eq!(times, [5.0, 10.0, 15.0]);
    }

    #[test]
    fn paper_heterogeneity_creates_wide_spread() {
        // With kappa ~ U[1,10] the slowest worker should be several times
        // slower than the fastest — the straggler gap Fig. 7 visualises.
        let mut rng = Rng64::seed_from(6);
        let times = local_training_times(&[12; 100], 1.0, &HeterogeneityModel::default(), &mut rng);
        let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 3.0, "max/min ratio {}", max / min);
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn generate_rejects_empty_shards() {
        let mut rng = Rng64::seed_from(7);
        let _ = local_training_times(&[5, 0], 1.0, &HeterogeneityModel::Homogeneous, &mut rng);
    }
}
