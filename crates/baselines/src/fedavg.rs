//! FedAvg — synchronous federated averaging over orthogonal channels.
//!
//! The classic baseline of McMahan et al. (reference \[11\] of the paper):
//! every round, every worker trains locally and uploads its model digitally
//! over an OMA channel; the parameter server averages all of them. Two costs
//! make it the slowest mechanism in the paper's evaluation: the round length
//! is set by the slowest of *all* workers (straggler problem), and the upload
//! latency grows linearly with `N` (Fig. 10 left).
//!
//! In the mechanism table: one group × OMA.

#[cfg(test)]
mod tests {
    use crate::MechanismChoice::FedAvg;
    use airfedga::system::{FlSystem, FlSystemConfig};
    use fedml::rng::Rng64;

    fn quick_system(seed: u64) -> FlSystem {
        FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(seed))
    }

    #[test]
    fn fedavg_converges_on_quick_system() {
        let system = quick_system(1);
        let mech = FedAvg.build(25, 5, None);
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
        let mech = FedAvg.build(4, 1, None);
        let trace = mech.run(&system, &mut Rng64::seed_from(4));
        let slowest = (0..system.num_workers())
            .map(|i| system.local_training_time(i))
            .fold(f64::NEG_INFINITY, f64::max);
        let wireless = &system.config.wireless;
        let upload = wireless.oma_round_upload_time(system.model_dim(), system.num_workers());
        assert!(trace.average_round_time() >= slowest + upload - 1e-9);
    }

    #[test]
    fn fedavg_spends_no_aircomp_energy() {
        let system = quick_system(5);
        let mech = FedAvg.build(5, 1, None);
        let trace = mech.run(&system, &mut Rng64::seed_from(6));
        assert_eq!(trace.total_energy(), 0.0);
    }
}
