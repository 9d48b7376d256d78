//! The wireless channel gain model.
//!
//! The paper assumes the channel gain `h_i^t` between worker `v_i` and the
//! parameter server stays constant within a communication round (block
//! fading) and is known at both ends (needed for the power-scaling rule of
//! Eq. (6)). We model Rayleigh block fading — `|h|` is Rayleigh distributed,
//! equivalently `|h|²` is exponential.

use fedml::rng::Rng64;
use serde::{Deserialize, Serialize};

/// Rayleigh block fading of a population of workers: per round,
/// `h_i^t = sqrt(Exp(1)) * sqrt(mean_gain_i)` where `mean_gain_i` captures the
/// (distance-dependent) average path gain of worker `i`. A floor keeps gains
/// bounded away from zero so the inverse-channel power rule of Eq. (6) stays
/// finite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelModel {
    /// Average power gain per worker (same value reused for all workers if
    /// the vector is shorter than the worker count).
    pub mean_gains: Vec<f64>,
    /// Lower bound on the realised gain (deep-fade clipping).
    pub floor: f64,
}

impl ChannelModel {
    /// Unit average gain for every one of `n` workers, the configuration
    /// used by the paper's experiments.
    ///
    /// The floor of 0.3 implements truncated channel inversion: the
    /// channel-inverting power rule of Eq. (6) caps the power-scaling factor
    /// by the *worst* gain in the group, so un-truncated deep fades would
    /// force the whole group's received SNR to zero. Truncation is the
    /// standard remedy in the AirComp literature the paper builds on.
    pub fn default_rayleigh(n: usize) -> Self {
        ChannelModel {
            mean_gains: vec![1.0; n],
            floor: 0.3,
        }
    }

    /// Draw the gain `h_i^t` of a single worker for one round.
    pub fn draw_worker(&self, worker: usize, rng: &mut Rng64) -> f64 {
        // |h|^2 ~ Exp(1) scaled by the mean power gain.
        let g = self.mean_gains[worker % self.mean_gains.len()];
        (rng.exponential(1.0) * g).sqrt().max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rayleigh_gains_are_positive_and_respect_floor() {
        let m = ChannelModel {
            mean_gains: vec![1.0; 50],
            floor: 0.1,
        };
        let mut rng = Rng64::seed_from(2);
        for _ in 0..20 {
            assert!((0..50).all(|w| m.draw_worker(w, &mut rng) >= 0.1));
        }
    }

    #[test]
    fn rayleigh_mean_power_tracks_mean_gain() {
        let m = ChannelModel {
            mean_gains: vec![4.0],
            floor: 1e-6,
        };
        let mut rng = Rng64::seed_from(3);
        let n = 20_000;
        let mean_power: f64 = (0..n)
            .map(|_| {
                let h = m.draw_worker(0, &mut rng);
                h * h
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_power - 4.0).abs() < 0.15,
            "mean |h|^2 = {mean_power}, expected 4"
        );
    }

    #[test]
    fn default_rayleigh_covers_all_workers() {
        let m = ChannelModel::default_rayleigh(7);
        assert_eq!(m.mean_gains, vec![1.0; 7]);
    }
}
