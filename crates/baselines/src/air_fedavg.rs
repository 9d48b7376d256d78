//! Air-FedAvg — synchronous federated averaging via AirComp.
//!
//! The strongest AirComp baseline in the paper (Cao et al., reference \[18\]):
//! FedAvg's synchronous round structure, but the uploads are aggregated
//! over-the-air with the optimal power control of Algorithm 2, so the upload
//! latency is independent of `N`. It still suffers the straggler problem —
//! every round waits for the slowest of all `N` workers — which is exactly
//! the gap Air-FedGA's grouping closes (Figs. 3–6).
//!
//! In the mechanism table: one group × AirComp.

#[cfg(test)]
mod tests {
    use crate::MechanismChoice::{AirFedAvg, FedAvg};
    use airfedga::system::{FlSystem, FlSystemConfig};
    use fedml::rng::Rng64;

    fn quick_system(seed: u64) -> FlSystem {
        FlSystemConfig::mnist_lr_quick().build(&mut Rng64::seed_from(seed))
    }

    #[test]
    fn air_fedavg_converges() {
        let system = quick_system(1);
        let mech = AirFedAvg.build(25, 5, None);
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
        let air = AirFedAvg
            .build(5, 1, None)
            .run(&system, &mut Rng64::seed_from(4));
        let fed = FedAvg
            .build(5, 1, None)
            .run(&system, &mut Rng64::seed_from(4));
        assert!(air.average_round_time() < fed.average_round_time());
    }

    #[test]
    fn energy_respects_per_round_budget() {
        let system = quick_system(5);
        let mech = AirFedAvg.build(10, 1, None);
        let trace = mech.run(&system, &mut Rng64::seed_from(6));
        // N workers, at most E_hat = 10 J each, per round.
        let bound = system.num_workers() as f64
            * system.config.wireless.energy_budget
            * trace.total_rounds() as f64;
        assert!(trace.total_energy() <= bound + 1e-6);
    }
}
