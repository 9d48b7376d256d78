//! Worker profiles and the edge-heterogeneity model.
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
    /// Explicit per-worker factors (for regression tests and figures).
    Explicit {
        /// One factor per worker.
        factors: Vec<f64>,
    },
}

impl Default for HeterogeneityModel {
    fn default() -> Self {
        HeterogeneityModel::Uniform { lo: 1.0, hi: 10.0 }
    }
}

impl HeterogeneityModel {
    /// Draw the factor `κ_i` for worker `i`.
    pub(crate) fn factor(&self, worker: usize, rng: &mut Rng64) -> f64 {
        match self {
            HeterogeneityModel::Uniform { lo, hi } => {
                assert!(hi >= lo && *lo > 0.0, "invalid uniform bounds");
                rng.uniform_range(*lo, *hi)
            }
            HeterogeneityModel::Homogeneous => 1.0,
            HeterogeneityModel::Explicit { factors } => {
                assert!(
                    worker < factors.len(),
                    "no explicit heterogeneity factor for worker {worker}"
                );
                factors[worker]
            }
        }
    }
}

/// Static per-worker description used by every mechanism simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerProfile {
    /// Worker index (`v_{id+1}` in the paper's 1-based notation).
    pub id: usize,
    /// Local data size `d_i` (number of samples).
    pub(crate) data_size: usize,
    /// Un-scaled local training time `l̂_i` (seconds).
    pub(crate) base_training_time: f64,
    /// Heterogeneity factor `κ_i`.
    pub(crate) heterogeneity: f64,
    /// Average channel power gain (feeds the fading model).
    pub(crate) mean_channel_gain: f64,
}

impl WorkerProfile {
    /// The simulated local-training latency `l_i = κ_i · l̂_i` (seconds).
    pub fn local_training_time(&self) -> f64 {
        self.base_training_time * self.heterogeneity
    }

    /// Generate profiles for `n` workers.
    ///
    /// * `data_sizes` — per-worker shard sizes (from the partitioner).
    /// * `base_time_per_sample` — seconds of local compute per training
    ///   sample per round; the base time is proportional to the shard size,
    ///   which reflects that a worker with more data does more work per
    ///   local epoch.
    pub fn generate(
        data_sizes: &[usize],
        base_time_per_sample: f64,
        heterogeneity: &HeterogeneityModel,
        rng: &mut Rng64,
    ) -> Vec<WorkerProfile> {
        assert!(
            base_time_per_sample > 0.0,
            "base time per sample must be positive"
        );
        data_sizes
            .iter()
            .enumerate()
            .map(|(id, &d)| {
                assert!(d > 0, "worker {id} has an empty shard");
                WorkerProfile {
                    id,
                    data_size: d,
                    base_training_time: base_time_per_sample * d as f64,
                    heterogeneity: heterogeneity.factor(id, rng),
                    mean_channel_gain: 1.0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_factors_lie_in_range() {
        let model = HeterogeneityModel::default();
        let mut rng = Rng64::seed_from(1);
        for i in 0..1000 {
            let k = model.factor(i, &mut rng);
            assert!((1.0..10.0).contains(&k));
        }
    }

    #[test]
    fn homogeneous_factors_are_one() {
        let mut rng = Rng64::seed_from(2);
        assert_eq!(HeterogeneityModel::Homogeneous.factor(3, &mut rng), 1.0);
    }

    #[test]
    fn explicit_factors_are_returned_verbatim() {
        let model = HeterogeneityModel::Explicit {
            factors: vec![2.0, 5.0],
        };
        let mut rng = Rng64::seed_from(3);
        assert_eq!(model.factor(0, &mut rng), 2.0);
        assert_eq!(model.factor(1, &mut rng), 5.0);
    }

    #[test]
    fn generate_builds_consistent_profiles() {
        let mut rng = Rng64::seed_from(4);
        let sizes = vec![10, 20, 30];
        let profiles =
            WorkerProfile::generate(&sizes, 0.5, &HeterogeneityModel::Homogeneous, &mut rng);
        assert_eq!(profiles.len(), 3);
        assert_eq!(profiles[1].base_training_time, 10.0);
        assert_eq!(profiles[2].local_training_time(), 15.0);
    }

    #[test]
    fn paper_heterogeneity_creates_wide_spread() {
        // With kappa ~ U[1,10] the slowest worker should be several times
        // slower than the fastest — the straggler gap Fig. 7 visualises.
        let mut rng = Rng64::seed_from(6);
        let profiles = WorkerProfile::generate(
            &vec![12; 100],
            1.0,
            &HeterogeneityModel::default(),
            &mut rng,
        );
        let times: Vec<f64> = profiles.iter().map(|p| p.local_training_time()).collect();
        let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 3.0, "max/min ratio {}", max / min);
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn generate_rejects_empty_shards() {
        let mut rng = Rng64::seed_from(7);
        let _ = WorkerProfile::generate(&[5, 0], 1.0, &HeterogeneityModel::Homogeneous, &mut rng);
    }
}
