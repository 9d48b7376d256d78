//! # baselines — the mechanism table of the Air-FedGA evaluation
//!
//! The paper defines Air-FedGA by two choices — how the workers are grouped
//! (Algorithm 3) and how a group's models are combined (AirComp under
//! Algorithm 2) — with groups updating the server asynchronously, and the
//! comparators of §VI.A.3 are the other values of the same two coordinates.
//! [`MechanismChoice`] is that table, and the only definition of a mechanism
//! in the workspace:
//!
//! | Mechanism | Grouping rule | Aggregation | Reads ξ | About |
//! |-----------|---------------|-------------|---------|-------|
//! | **FedAvg** (McMahan et al.) | one group (synchronous) | OMA digital uploads | no | [`fedavg`] |
//! | **TiFL** (Chai et al.)      | latency tiers, `default_tier_count(N)` of them | OMA digital uploads | no | [`tifl`] |
//! | **Air-FedAvg** (Cao et al.) | one group (synchronous) | AirComp + power control | no | [`air_fedavg`] |
//! | **Air-FedGA** (the paper)   | Algorithm 3 at ξ | AirComp + power control | yes | `airfedga::mechanism` |
//! | **Dynamic** (Sun et al.)    | per-round worker subset | AirComp + power control | no | [`dynamic`] |
//!
//! The first four are one call of the group-asynchronous engine,
//! `airfedga::mechanism::run_group_async`, on the row's grouping and back-end
//! (a synchronous mechanism is simply the single-group special case). Dynamic
//! has its own loop because its per-round worker-subset selection does not
//! fit the group abstraction; it shares the parameter server's round steps
//! and the round budget with the engine. A sixth mechanism is one more row.

#![warn(missing_docs)]

pub mod air_fedavg;
pub mod dynamic;
pub mod fedavg;
pub mod tifl;

use airfedga::mechanism::{
    run_group_async, AggregationMode, AirFedGa, AirFedGaConfig, EngineOptions,
};
use airfedga::system::FlSystem;
use fedml::rng::Rng64;
use grouping::tifl::{default_tier_count, tifl_grouping};
use grouping::worker_info::Grouping;
use simcore::trace::TrainingTrace;

/// A row of the mechanism table (see the crate docs). Rows order by
/// declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismChoice {
    /// The paper's contribution.
    AirFedGa,
    /// AirComp synchronous baseline.
    AirFedAvg,
    /// AirComp synchronous with per-round worker scheduling.
    Dynamic,
    /// OMA synchronous baseline.
    FedAvg,
    /// OMA tier-asynchronous baseline.
    TiFl,
}

// By hand rather than derived: the derived `PartialOrd` calls the banned
// `partial_cmp` (clippy.toml), and an `expect` does not reach into a derive.
impl Ord for MechanismChoice {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for MechanismChoice {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl MechanismChoice {
    /// All five mechanisms, in the order the paper lists them.
    pub fn all() -> Vec<MechanismChoice> {
        vec![
            MechanismChoice::FedAvg,
            MechanismChoice::TiFl,
            MechanismChoice::Dynamic,
            MechanismChoice::AirFedAvg,
            MechanismChoice::AirFedGa,
        ]
    }

    /// The three AirComp-based mechanisms compared in Figs. 3–6 and Fig. 9.
    pub fn aircomp_trio() -> Vec<MechanismChoice> {
        vec![
            MechanismChoice::Dynamic,
            MechanismChoice::AirFedAvg,
            MechanismChoice::AirFedGa,
        ]
    }

    /// The mechanism's name in the paper's legends, and in every trace,
    /// table and store key.
    pub fn label(self) -> &'static str {
        match self {
            MechanismChoice::AirFedGa => AirFedGa::NAME,
            MechanismChoice::AirFedAvg => "Air-FedAvg",
            MechanismChoice::Dynamic => "Dynamic",
            MechanismChoice::FedAvg => "FedAvg",
            MechanismChoice::TiFl => "TiFL",
        }
    }

    /// True when the mechanism's run depends on ξ: only Air-FedGA has one
    /// (the grouping trade-off of Algorithm 3). Two runs of any other
    /// mechanism that differ only in ξ are the same computation.
    pub fn reads_xi(self) -> bool {
        self == MechanismChoice::AirFedGa
    }

    /// The mechanism at a given round budget, with the default ξ.
    pub fn build(
        self,
        total_rounds: usize,
        eval_every: usize,
        max_virtual_time: Option<f64>,
    ) -> Mechanism {
        Mechanism {
            choice: self,
            xi: None,
            options: EngineOptions {
                total_rounds,
                eval_every,
                max_virtual_time,
            },
        }
    }
}

/// A mechanism ready to run: a row of the table and the round budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Mechanism {
    /// Which row.
    pub choice: MechanismChoice,
    /// Algorithm 3's ξ, for the row that [reads](MechanismChoice::reads_xi)
    /// it; `None` is the paper's default (`AirFedGaConfig::default().xi`).
    pub xi: Option<f64>,
    /// The round budget.
    pub options: EngineOptions,
}

impl Mechanism {
    /// Simulate one full training run over `system` and return its trace.
    /// The system is not mutated, and all run-specific randomness comes from
    /// `rng`, so runs are reproducible.
    pub fn run(&self, system: &FlSystem, rng: &mut Rng64) -> TrainingTrace {
        let n = system.num_workers();
        let name = self.choice.label();
        let one_group = || Grouping::single_group(n);
        let (grouping, aggregation) = match self.choice {
            MechanismChoice::Dynamic => return dynamic::run(system, &self.options, name, rng),
            MechanismChoice::FedAvg => (one_group(), AggregationMode::OmaIdeal),
            MechanismChoice::TiFl => {
                let tiers = tifl_grouping(&system.worker_infos, default_tier_count(n));
                (tiers, AggregationMode::OmaIdeal)
            }
            MechanismChoice::AirFedAvg => (one_group(), AggregationMode::AirComp),
            MechanismChoice::AirFedGa => {
                let defaults = AirFedGaConfig::default();
                let xi = self.xi.unwrap_or(defaults.xi);
                let algorithm3 = AirFedGa::new(AirFedGaConfig { xi, ..defaults });
                (algorithm3.grouping_for(system), AggregationMode::AirComp)
            }
        };
        run_group_async(system, &grouping, aggregation, &self.options, name, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfedga::system::FlSystemConfig;

    /// The table's Air-FedGA row is the `airfedga` crate's own mechanism, bit
    /// for bit, at the default ξ and at an explicit one.
    #[test]
    fn the_air_fedga_row_is_the_airfedga_crates_mechanism() {
        let system = FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(1));
        for xi in [None, Some(0.8)] {
            let row = Mechanism {
                xi,
                ..MechanismChoice::AirFedGa.build(6, 2, None)
            };
            let own = AirFedGa::new(AirFedGaConfig {
                total_rounds: 6,
                eval_every: 2,
                xi: xi.unwrap_or(AirFedGaConfig::default().xi),
                ..AirFedGaConfig::default()
            });
            let a = row.run(&system, &mut Rng64::seed_from(2));
            let b = own.run(&system, &mut Rng64::seed_from(2));
            assert_eq!(a.mechanism, b.mechanism);
            assert_eq!(a.points(), b.points());
        }
    }

    /// The hand-written order is the one `derive(Ord)` gave: declaration
    /// order, which cell identities and shared-replicate keys sort by.
    #[test]
    fn rows_order_by_declaration() {
        let mut rows = MechanismChoice::all();
        rows.sort();
        use MechanismChoice::*;
        assert_eq!(rows, [AirFedGa, AirFedAvg, Dynamic, FedAvg, TiFl]);
        assert!(AirFedGa < TiFl && TiFl > FedAvg);
    }
}
