//! FedAvg — synchronous federated averaging over orthogonal channels.
//!
//! The classic baseline of McMahan et al. (reference [11] of the paper):
//! every round, every worker trains locally and uploads its model digitally
//! over an OMA channel; the parameter server averages all of them. Two costs
//! make it the slowest mechanism in the paper's evaluation: the round length
//! is set by the slowest of *all* workers (straggler problem), and the upload
//! latency grows linearly with `N` (Fig. 10 left).

use crate::BaselineOptions;
use airfedga::mechanism::{run_group_async, AggregationMode, EngineOptions};
use airfedga::system::{FlMechanism, FlSystem};
use fedml::rng::Rng64;
use grouping::worker_info::Grouping;
use simcore::trace::TrainingTrace;
use wireless::timing::OmaScheme;

/// The FedAvg baseline.
#[derive(Debug, Clone)]
pub struct FedAvg {
    options: BaselineOptions,
}

impl FedAvg {
    /// Create a FedAvg run with the given round budget.
    pub fn new(options: BaselineOptions) -> Self {
        options.validate();
        Self { options }
    }
}

impl FlMechanism for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn run(&self, system: &FlSystem, rng: &mut Rng64) -> TrainingTrace {
        let grouping = Grouping::single_group(system.num_workers());
        let opts = EngineOptions {
            total_rounds: self.options.total_rounds,
            eval_every: self.options.eval_every,
            max_virtual_time: self.options.max_virtual_time,
            aggregation: AggregationMode::OmaIdeal {
                scheme: OmaScheme::Tdma,
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
    fn fedavg_converges_on_quick_system() {
        let system = quick_system(1);
        let mech = FedAvg::new(BaselineOptions {
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
        assert_eq!(trace.mechanism, "FedAvg");
    }

    #[test]
    fn round_time_includes_all_uploads_and_slowest_worker() {
        let system = quick_system(3);
        let mech = FedAvg::new(BaselineOptions {
            total_rounds: 4,
            eval_every: 1,
            max_virtual_time: None,
            parallel: true,
        });
        let trace = mech.run(&system, &mut Rng64::seed_from(4));
        let slowest = (0..system.num_workers())
            .map(|i| system.local_training_time(i))
            .fold(f64::NEG_INFINITY, f64::max);
        let upload = system.config.wireless.oma_round_upload_time(
            OmaScheme::Tdma,
            system.model_dim(),
            system.num_workers(),
        );
        assert!(trace.average_round_time() >= slowest + upload - 1e-9);
    }

    #[test]
    fn fedavg_spends_no_aircomp_energy() {
        let system = quick_system(5);
        let mech = FedAvg::new(BaselineOptions {
            total_rounds: 5,
            eval_every: 1,
            max_virtual_time: None,
            parallel: true,
        });
        let trace = mech.run(&system, &mut Rng64::seed_from(6));
        assert_eq!(trace.total_energy(), 0.0);
    }
}
