//! Air-FedAvg — synchronous federated averaging via AirComp.
//!
//! The strongest AirComp baseline in the paper (Cao et al., reference [18]):
//! FedAvg's synchronous round structure, but the uploads are aggregated
//! over-the-air with the optimal power control of Algorithm 2, so the upload
//! latency is independent of `N`. It still suffers the straggler problem —
//! every round waits for the slowest of all `N` workers — which is exactly
//! the gap Air-FedGA's grouping closes (Figs. 3–6).

use crate::BaselineOptions;
use airfedga::mechanism::{run_group_async, AggregationMode, EngineOptions};
use airfedga::system::{FlMechanism, FlSystem};
use fedml::rng::Rng64;
use grouping::worker_info::Grouping;
use simcore::trace::TrainingTrace;

/// The Air-FedAvg baseline.
#[derive(Debug, Clone)]
pub struct AirFedAvg {
    options: BaselineOptions,
}

impl AirFedAvg {
    /// Create an Air-FedAvg run with the given round budget.
    pub fn new(options: BaselineOptions) -> Self {
        options.validate();
        Self { options }
    }
}

impl FlMechanism for AirFedAvg {
    fn name(&self) -> &'static str {
        "Air-FedAvg"
    }

    fn run(&self, system: &FlSystem, rng: &mut Rng64) -> TrainingTrace {
        let grouping = Grouping::single_group(system.num_workers());
        let opts = EngineOptions {
            total_rounds: self.options.total_rounds,
            eval_every: self.options.eval_every,
            max_virtual_time: self.options.max_virtual_time,
            // Algorithm-2 power control over the real, noisy channel.
            aggregation: AggregationMode::AirComp {
                power_control: true,
                noise: true,
            },
            parallel: self.options.parallel,
        };
        run_group_async(system, &grouping, &opts, self.name(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airfedga::system::FlSystemConfig;

    fn quick_system(seed: u64) -> FlSystem {
        FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(seed))
    }

    #[test]
    fn air_fedavg_converges() {
        let system = quick_system(1);
        let mech = AirFedAvg::new(BaselineOptions {
            total_rounds: 25,
            eval_every: 5,
            max_virtual_time: None,
            parallel: true,
        });
        let trace = mech.run(&system, &mut Rng64::seed_from(2));
        assert!(
            trace.final_accuracy() > 0.8,
            "acc {}",
            trace.final_accuracy()
        );
        assert!(trace.total_energy() > 0.0);
    }

    #[test]
    fn per_round_latency_beats_fedavg() {
        // Same synchronous structure, but AirComp aggregation latency does
        // not scale with N, so the average round is shorter than FedAvg's.
        let system = quick_system(3);
        let opts = BaselineOptions {
            total_rounds: 5,
            eval_every: 1,
            max_virtual_time: None,
            parallel: true,
        };
        let air = AirFedAvg::new(opts).run(&system, &mut Rng64::seed_from(4));
        let fed = crate::fedavg::FedAvg::new(opts).run(&system, &mut Rng64::seed_from(4));
        assert!(air.average_round_time() < fed.average_round_time());
    }

    #[test]
    fn energy_respects_per_round_budget() {
        let system = quick_system(5);
        let mech = AirFedAvg::new(BaselineOptions {
            total_rounds: 10,
            eval_every: 1,
            max_virtual_time: None,
            parallel: true,
        });
        let trace = mech.run(&system, &mut Rng64::seed_from(6));
        // N workers, at most E_hat = 10 J each, per round.
        let bound = system.num_workers() as f64
            * system.config.wireless.energy_budget
            * trace.total_rounds() as f64;
        assert!(trace.total_energy() <= bound + 1e-6);
    }
}
