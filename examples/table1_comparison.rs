//! Table I — qualitative comparison of FL mechanism families, backed by
//! measured proxies from the simulator:
//!
//! * *Communication consumption* — per-round upload air-time of an average
//!   round (seconds of channel use).
//! * *Handling edge heterogeneity* — fraction of the average round spent by
//!   the median worker idle-waiting for stragglers (lower is better).
//! * *Handling Non-IID* — average inter-group EMD of the units that
//!   participate in one global update (lower is better).
//! * *Scalability* — ratio of the average round time at the larger vs the
//!   smaller population, N = 60 vs N = 20 (N = 20 vs N = 10 at quick scale;
//!   greater than 1 means rounds get slower as the system grows).
//!
//! ```bash
//! AIRFEDGA_SCALE=quick cargo run --release --example table1_comparison
//! ```

use air_fedga::airfedga::mechanism::{AirFedGa, AirFedGaConfig, EngineOptions};
use air_fedga::airfedga::system::FlSystemConfig;
use air_fedga::experiments::harness::{
    run_mechanism_cells, scalability_cells, MechanismChoice, NoCache, RunPolicy, SeedPlan,
};
use air_fedga::experiments::report::Table;
use air_fedga::experiments::scale::Scale;
use air_fedga::fedml::rng::Rng64;
use air_fedga::grouping::emd::average_group_emd;
use air_fedga::grouping::tifl::{default_tier_count, tifl_grouping};
use air_fedga::grouping::worker_info::{Grouping, WorkerInfo};

fn main() {
    let scale = Scale::from_env_or_exit("table1_comparison");
    let (n_small, n_large, rounds) = match scale {
        Scale::Full => (20, 60, 120),
        Scale::Quick => (10, 20, 30),
    };
    let mechanisms = MechanismChoice::all();

    // Round-time measurements at two population sizes for the scalability
    // column: one cell per (population, mechanism) at a constant per-worker
    // shard size, through the replicate runner, single seed.
    let (configs, cells) = scalability_cells(
        &scale.apply(FlSystemConfig::mnist_cnn()),
        &[n_small, n_large],
        30,
        &mechanisms,
    );
    let outcome = run_mechanism_cells(
        &configs,
        cells,
        &EngineOptions {
            total_rounds: rounds,
            eval_every: scale.eval_every(),
            max_virtual_time: None,
        },
        &SeedPlan::fixed_system(42, vec![4242]),
        &RunPolicy::default(),
        &NoCache,
    );
    if !outcome.is_complete() {
        eprint!("{}", outcome.failure_report());
        std::process::exit(1);
    }
    // Flat, population-major: the small population's mechanisms first.
    let avg_round: Vec<f64> = outcome
        .cells
        .iter()
        .flatten()
        .map(|c| c.first().average_round_time)
        .collect();

    // EMD of the participating unit per mechanism family, measured on the
    // larger system.
    let mut cfg = scale.apply(FlSystemConfig::mnist_cnn());
    cfg.num_workers = n_large;
    let system = cfg.build(&mut Rng64::seed_from(42));
    let workers = &system.worker_infos;
    let emd_all_workers = average_group_emd(&Grouping::single_group(n_large), workers); // = 0
    let emd_single_worker = average_group_emd(&Grouping::singletons(n_large), workers);
    let tifl_tiers = tifl_grouping(workers, default_tier_count(n_large));
    let emd_tifl = average_group_emd(&tifl_tiers, workers);
    let airfedga_grouping = AirFedGa::new(AirFedGaConfig::default()).grouping_for(&system);
    let emd_airfedga = average_group_emd(&airfedga_grouping, workers);

    // Upload air-time per round (communication consumption proxy).
    let dim = system.model_dim();
    let w = &system.config.wireless;
    let oma_full = w.oma_round_upload_time(dim, n_large);
    let oma_tier = w.oma_round_upload_time(dim, n_large / default_tier_count(n_large).max(1));
    let aircomp = w.aircomp_aggregation_time(dim);

    // Straggler idle time: median worker latency vs group max latency, one
    // definition for every row. The Dynamic row still shows the whole
    // population's wait, not that of the subset it schedules (a ROADMAP item).
    let idle_sync = median_idle_fraction(&Grouping::single_group(n_large), workers);
    let idle_tifl = median_idle_fraction(&tifl_tiers, workers);
    let idle_airfedga = median_idle_fraction(&airfedga_grouping, workers);

    let ratio_header = format!("round-time ratio N={n_large}/N={n_small}");
    let mut table = Table::new(
        "Table I: mechanism-family comparison (measured proxies)",
        &[
            "FL mechanism",
            "upload air-time/round (s)",
            "median idle fraction",
            "participating-unit EMD",
            &ratio_header,
        ],
    );
    let families: Vec<(&str, f64, f64, f64, usize)> = vec![
        (
            "Synchronous (FedAvg)",
            oma_full,
            idle_sync,
            emd_all_workers,
            0,
        ),
        (
            "Asynchronous tiers (TiFL)",
            oma_tier,
            idle_tifl,
            emd_tifl,
            1,
        ),
        (
            "AirComp+Sync subset (Dynamic)",
            aircomp,
            idle_sync,
            emd_single_worker,
            2,
        ),
        (
            "AirComp+Synchronous (Air-FedAvg)",
            aircomp,
            idle_sync,
            emd_all_workers,
            3,
        ),
        (
            "AirComp+Asynchronous (Air-FedGA)",
            aircomp,
            idle_airfedga,
            emd_airfedga,
            4,
        ),
    ];
    for (name, air_time, idle, emd, row) in families {
        let ratio = avg_round[mechanisms.len() + row] / avg_round[row];
        table.add_row(vec![
            name.to_string(),
            format!("{air_time:.2}"),
            format!("{idle:.2}"),
            format!("{emd:.2}"),
            format!("{ratio:.2}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Reading guide: low air-time = low communication consumption; low idle fraction = \
         handles heterogeneity; low EMD = handles Non-IID; ratio <= 1 = scalable."
    );
}

/// The median worker's idle fraction inside its group of `grouping`: the
/// share of a group round, `1 − l_i / max_{k ∈ group} l_k`, it spends waiting
/// for the group's straggler.
fn median_idle_fraction(grouping: &Grouping, workers: &[WorkerInfo]) -> f64 {
    let mut fractions: Vec<f64> = (0..grouping.num_groups())
        .flat_map(|j| {
            let gmax = grouping.group_max_latency(j, workers);
            grouping
                .group(j)
                .iter()
                .map(move |&wk| 1.0 - workers[wk].local_training_time / gmax)
        })
        .collect();
    fractions.sort_by(|a, b| a.total_cmp(b));
    fractions[fractions.len() / 2]
}
