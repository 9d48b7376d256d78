//! Quickstart: build a small federated edge system, run Air-FedGA on it and
//! inspect the result.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use air_fedga::airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use air_fedga::airfedga::system::FlSystemConfig;
use air_fedga::fedml::rng::Rng64;

fn main() {
    // 1. Describe the system: the paper's "LR on MNIST" workload, shrunk to
    //    20 workers so the example finishes in seconds.
    let mut config = FlSystemConfig::mnist_lr();
    config.num_workers = 20;
    config.dataset.samples_per_class = 100;
    config.test_per_class = 30;

    // 2. Materialise it (synthetic data, label-skew partition, heterogeneity
    //    factors, channel model). Everything is deterministic given the seed.
    let system = config.build(&mut Rng64::seed_from(7));
    println!(
        "system: {} workers, {} training samples, model with {} parameters",
        system.num_workers(),
        system.total_data(),
        system.model_dim()
    );

    // 3. Configure Air-FedGA: Algorithm 3 grouping at xi = 0.3, Algorithm 2
    //    power control, 120 asynchronous aggregation rounds.
    let mechanism = AirFedGa::new(AirFedGaConfig {
        total_rounds: 120,
        eval_every: 10,
        xi: 0.3,
        ..AirFedGaConfig::default()
    });
    let grouping = mechanism.grouping_for(&system);
    println!(
        "Algorithm 3 grouped the workers into {} groups",
        grouping.num_groups()
    );

    // 4. Run and inspect the trace.
    let trace = mechanism.run(&system, &mut Rng64::seed_from(99));
    println!("\n   time(s)  round   loss    accuracy   energy(J)");
    for p in trace.points() {
        println!(
            "  {:8.1}  {:5}  {:6.3}     {:5.3}    {:8.0}",
            p.time, p.round, p.loss, p.accuracy, p.energy
        );
    }
    println!(
        "\nreached a stable 80% accuracy after {}",
        trace
            .time_to_accuracy(0.8)
            .map(|t| format!("{t:.0} virtual seconds"))
            .unwrap_or_else(|| "— not reached in this short run".to_string())
    );
}
