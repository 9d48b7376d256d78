//! Transmit-energy accounting.
//!
//! Eq. (7) of the paper models the per-round transmission energy of worker
//! `v_i` as `E_i^t = ‖p_i^t w_i^t‖²` — the squared norm of the power-scaled
//! analog waveform. Fig. 9 of the evaluation compares the cumulative
//! aggregation energy of the AirComp-based mechanisms; this module provides
//! the primitive plus a small accumulator used by the simulators.

use fedml::params::FlatParams;
use serde::{Deserialize, Serialize};

/// Per-round transmit energy `E_i^t = ‖p_i^t · w_i^t‖²` (Eq. (7)).
pub fn transmit_energy(transmit_power: f64, params: &FlatParams) -> f64 {
    transmit_energy_from_norm_sq(transmit_power, params.norm_sq())
}

/// [`transmit_energy`] for a caller that already holds `‖w_i^t‖²` (the
/// engines compute it once per local update and reuse it for the power-control
/// norm bound). Same expression, so the same bits.
pub fn transmit_energy_from_norm_sq(transmit_power: f64, norm_sq: f64) -> f64 {
    assert!(transmit_power >= 0.0, "transmit power must be non-negative");
    transmit_power * transmit_power * norm_sq
}

/// Cumulative energy bookkeeping across a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EnergyLedger {
    per_worker: Vec<f64>,
    total: f64,
    rounds_recorded: usize,
}

impl EnergyLedger {
    /// Create a ledger for `num_workers` workers.
    pub fn new(num_workers: usize) -> Self {
        Self {
            per_worker: vec![0.0; num_workers],
            total: 0.0,
            rounds_recorded: 0,
        }
    }

    /// Record the energy spent by one worker in one aggregation.
    pub fn record(&mut self, worker: usize, energy: f64) {
        assert!(worker < self.per_worker.len(), "worker index out of range");
        assert!(
            energy >= 0.0 && energy.is_finite(),
            "energy must be a finite non-negative number"
        );
        self.per_worker[worker] += energy;
        self.total += energy;
    }

    /// Record that one aggregation round completed (for averaging).
    pub fn finish_round(&mut self) {
        self.rounds_recorded += 1;
    }

    /// Total energy spent by all workers so far (Joules).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of aggregation rounds recorded.
    pub fn rounds(&self) -> usize {
        self.rounds_recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_matches_closed_form() {
        let w = FlatParams(vec![3.0, 4.0]); // norm^2 = 25
        assert_eq!(transmit_energy(2.0, &w), 100.0);
        assert_eq!(transmit_energy(0.0, &w), 0.0);
    }

    #[test]
    fn ledger_accumulates_and_averages() {
        let mut ledger = EnergyLedger::new(3);
        ledger.record(0, 5.0);
        ledger.record(2, 7.0);
        ledger.finish_round();
        ledger.record(0, 1.0);
        ledger.finish_round();
        assert_eq!(ledger.total(), 13.0);
        assert_eq!(ledger.rounds(), 2);
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn ledger_rejects_bad_worker() {
        let mut ledger = EnergyLedger::new(1);
        ledger.record(5, 1.0);
    }
}
