//! Transmit-energy accounting.
//!
//! Eq. (7) of the paper models the per-round transmission energy of worker
//! `v_i` as `E_i^t = ‖p_i^t w_i^t‖²` — the squared norm of the power-scaled
//! analog waveform. Fig. 9 of the evaluation compares the cumulative
//! aggregation energy of the AirComp-based mechanisms; this module provides
//! the primitive plus a small accumulator used by the simulators.

use serde::{Deserialize, Serialize};

/// Per-round transmit energy `E_i^t = ‖p_i^t · w_i^t‖²` (Eq. (7)), from the
/// `‖w_i^t‖²` the caller already holds (the engines compute it once per local
/// update and reuse it for the power-control norm bound).
pub(crate) fn transmit_energy_from_norm_sq(transmit_power: f64, norm_sq: f64) -> f64 {
    assert!(transmit_power >= 0.0, "transmit power must be non-negative");
    transmit_power * transmit_power * norm_sq
}

/// Cumulative transmit energy of a training run: one running total, and the
/// check that nothing but finite non-negative energies ever enters it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EnergyLedger {
    total: f64,
}

impl EnergyLedger {
    /// Record the energy spent by one worker in one aggregation.
    pub fn record(&mut self, energy: f64) {
        assert!(
            energy >= 0.0 && energy.is_finite(),
            "energy must be a finite non-negative number"
        );
        self.total += energy;
    }

    /// Total energy spent by all workers so far (Joules).
    pub fn total(&self) -> f64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedml::params::FlatParams;

    #[test]
    fn energy_matches_closed_form() {
        let w = FlatParams(vec![3.0, 4.0]); // norm^2 = 25
        assert_eq!(transmit_energy_from_norm_sq(2.0, w.norm_sq()), 100.0);
        assert_eq!(transmit_energy_from_norm_sq(0.0, w.norm_sq()), 0.0);
    }

    #[test]
    fn ledger_accumulates() {
        let mut ledger = EnergyLedger::default();
        ledger.record(5.0);
        ledger.record(7.0);
        ledger.record(1.0);
        assert_eq!(ledger.total(), 13.0);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn ledger_rejects_a_diverged_energy() {
        EnergyLedger::default().record(f64::INFINITY);
    }
}
