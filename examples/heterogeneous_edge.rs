//! Heterogeneous edge scenario: compare Air-FedGA against synchronous
//! over-the-air FedAvg when worker speeds differ by up to 10x (the paper's
//! `κ_i ~ U[1, 10]` model) — the straggler problem the grouping is designed
//! to sidestep.
//!
//! ```bash
//! cargo run --release --example heterogeneous_edge
//! ```

use air_fedga::airfedga::system::FlSystemConfig;
use air_fedga::baselines::MechanismChoice;
use air_fedga::fedml::rng::Rng64;
use air_fedga::simcore::worker::HeterogeneityModel;

fn main() {
    let rounds = 150;
    for (label, heterogeneity) in [
        (
            "homogeneous workers (kappa = 1)",
            HeterogeneityModel::Homogeneous,
        ),
        (
            "heterogeneous workers (kappa ~ U[1,10])",
            HeterogeneityModel::Uniform { lo: 1.0, hi: 10.0 },
        ),
    ] {
        let mut config = FlSystemConfig::mnist_lr();
        config.num_workers = 30;
        config.dataset.samples_per_class = 120;
        config.test_per_class = 30;
        config.heterogeneity = heterogeneity;
        let system = config.build(&mut Rng64::seed_from(11));

        println!("== {label} ==");
        for choice in [MechanismChoice::AirFedGa, MechanismChoice::AirFedAvg] {
            let mechanism = choice.build(rounds, 10, None);
            let trace = mechanism.run(&system, &mut Rng64::seed_from(5));
            println!(
                "  {:<11} avg round {:7.1}s | final accuracy {:.3} | time to 80%: {}",
                choice.label(),
                trace.average_round_time(),
                trace.final_accuracy(),
                trace
                    .time_to_accuracy(0.8)
                    .map(|t| format!("{t:.0}s"))
                    .unwrap_or_else(|| "n/a".into())
            );
        }
        println!();
    }
    println!(
        "Under heterogeneity the synchronous mechanism's round time is set by the slowest\n\
         worker, while Air-FedGA's groups keep updating — that gap is the paper's headline."
    );
}
