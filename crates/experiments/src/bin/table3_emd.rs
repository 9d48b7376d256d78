//! Table III — average inter-group earth-mover distance (EMD) under three
//! grouping methods: Original (every worker its own group), TiFL latency
//! tiers, and Air-FedGA's Algorithm 3.
//!
//! Paper values (100 workers, one label per worker): 1.8 → 0.69 → 0.21.
//! The reproduced ordering and rough magnitudes are the shape to check.

use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use airfedga::system::FlSystemConfig;
use experiments::report::{try_write_csv, Table};
use experiments::scale::Scale;
use fedml::rng::Rng64;
use grouping::emd::average_group_emd;
use grouping::tifl::{default_tier_count, tifl_grouping};
use grouping::worker_info::Grouping;

fn main() {
    let scale = Scale::from_env_or_exit("table3_emd");
    let cfg = scale.apply(FlSystemConfig::mnist_cnn());
    let system = cfg.build(&mut Rng64::seed_from(42));
    let workers = &system.worker_infos;

    let original = Grouping::singletons(system.num_workers());
    let tifl = tifl_grouping(workers, default_tier_count(system.num_workers()));
    let mech = AirFedGa::new(AirFedGaConfig {
        xi: 0.3,
        ..AirFedGaConfig::default()
    });
    let airfedga = mech.grouping_for(&system);

    let rows = [
        ("Original (per-worker)", &original),
        ("TiFL", &tifl),
        ("Air-FedGA", &airfedga),
    ];
    let mut table = Table::new(
        "Table III: average inter-group EMD by grouping method",
        &["method", "groups", "average EMD"],
    );
    let mut csv = String::from("method,groups,emd\n");
    for (name, grouping) in rows {
        let emd = average_group_emd(grouping, workers);
        table.add_row(vec![
            name.to_string(),
            grouping.num_groups().to_string(),
            format!("{emd:.3}"),
        ]);
        csv.push_str(&format!("{name},{},{emd:.4}\n", grouping.num_groups()));
    }
    println!(
        "Table III ({} workers, label-skew partition)\n",
        system.num_workers()
    );
    println!("{}", table.render());
    println!("Paper reference values: Original 1.8, TiFL 0.69, Air-FedGA 0.21");
    try_write_csv("table3_emd.csv", &csv);
}
