//! Theorem 1 / Corollaries 1–2 — numerical evaluation of the convergence
//! bound on the grouping that Algorithm 3 actually produces.
//!
//! Prints ρ, δ and the predicted number of rounds to reach a target gap for
//! (a) the Air-FedGA grouping, (b) TiFL tiers and (c) per-worker singleton
//! groups, and sweeps the staleness bound to illustrate Corollary 2.

use airfedga::convergence::{theorem1_bound, BoundInputs, GroupTerm};
use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use airfedga::system::FlSystemConfig;
use experiments::report::Table;
use experiments::scale::Scale;
use fedml::rng::Rng64;
use grouping::emd::group_emd;
use grouping::tifl::{default_tier_count, tifl_grouping};
use grouping::worker_info::Grouping;

fn terms_for(grouping: &Grouping, system: &airfedga::system::FlSystem) -> Vec<GroupTerm> {
    let workers = &system.worker_infos;
    let lu = system.aircomp_aggregation_time();
    let completion = grouping.group_completion_times(workers, lu);
    let inv_sum: f64 = completion.iter().map(|l| 1.0 / l).sum();
    (0..grouping.num_groups())
        .map(|j| GroupTerm {
            psi: (1.0 / completion[j]) / inv_sum,
            beta: grouping.group_data_fraction(j, workers),
            emd: group_emd(grouping, j, workers),
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env_or_exit("theorem1_bound");
    let cfg = scale.apply(FlSystemConfig::mnist_lr());
    let system = cfg.build(&mut Rng64::seed_from(42));
    let airfedga_grouping = AirFedGa::new(AirFedGaConfig::default()).grouping_for(&system);
    let tifl = tifl_grouping(
        &system.worker_infos,
        default_tier_count(system.num_workers()),
    );
    let singles = Grouping::singletons(system.num_workers());

    let inputs = |tau: usize| BoundInputs {
        mu: 0.2,
        smoothness: 1.0,
        gamma: 0.75,
        gradient_bound_sq: 0.02,
        aggregation_error: 0.01,
        max_staleness: tau,
        initial_gap: 2.3,
    };

    let mut table = Table::new(
        "Theorem 1: convergence bound per grouping (epsilon = 1.0)",
        &[
            "grouping",
            "groups",
            "tau_max",
            "rho",
            "delta",
            "rounds to eps",
        ],
    );
    for (name, grouping) in [
        ("Air-FedGA (Alg. 3)", &airfedga_grouping),
        ("TiFL tiers", &tifl),
        ("Per-worker singletons", &singles),
    ] {
        let tau = grouping.num_groups().saturating_sub(1);
        let bound = theorem1_bound(&inputs(tau), &terms_for(grouping, &system));
        let rounds = bound
            .rounds_to_reach(1.0, 2.3)
            .map(|r| r.to_string())
            .unwrap_or_else(|| "unreachable".to_string());
        table.add_row(vec![
            name.to_string(),
            grouping.num_groups().to_string(),
            tau.to_string(),
            format!("{:.4}", bound.rho),
            format!("{:.3}", bound.delta),
            rounds,
        ]);
    }
    println!("{}", table.render());

    // Corollary 2: rho increases with the staleness bound.
    let terms = terms_for(&airfedga_grouping, &system);
    let mut corollary = Table::new(
        "Corollary 2: contraction factor rho vs staleness bound tau_max",
        &["tau_max", "rho"],
    );
    for tau in [0usize, 1, 2, 4, 8, 16] {
        let bound = theorem1_bound(&inputs(tau), &terms);
        corollary.add_row(vec![tau.to_string(), format!("{:.4}", bound.rho)]);
    }
    println!("{}", corollary.render());
}
