//! Theorem 1 in practice: evaluate the convergence bound for different
//! groupings and staleness levels, illustrating Corollaries 1 and 2, then
//! on the groupings Algorithm 3, TiFL and per-worker singletons actually
//! produce for the paper's 100-worker `mnist_lr` system (seed 42). Every
//! bound is evaluated at `ObjectiveConstants::default()`, the constants
//! Algorithm 3 groups with.
//!
//! ```bash
//! cargo run --release --example convergence_bound
//! ```

use air_fedga::airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use air_fedga::airfedga::system::FlSystemConfig;
use air_fedga::experiments::report::Table;
use air_fedga::fedml::rng::Rng64;
use air_fedga::grouping::objective::{theorem1_bound, GroupingObjective, ObjectiveConstants};
use air_fedga::grouping::tifl::{default_tier_count, tifl_grouping};
use air_fedga::grouping::worker_info::Grouping;

/// `m` groups with `ψ_j = β_j = 1/m` and one EMD.
fn uniform_groups(m: usize, emd: f64) -> Vec<(f64, f64, f64)> {
    vec![(1.0 / m as f64, 1.0 / m as f64, emd); m]
}

/// Theorem 1's per-round contraction factor `ρ = B^{1/(1+τ_max)}`.
fn rho(contraction: f64, max_staleness: usize) -> f64 {
    contraction.powf(1.0 / (1.0 + max_staleness as f64))
}

/// Eq. (38) rounded up: the first round after which the bound is at most
/// `ε`, or "unreachable".
fn rounds_to_epsilon(
    c: &ObjectiveConstants,
    (contraction, residual): (f64, f64),
    max_staleness: usize,
) -> String {
    c.rounds_to_epsilon(contraction, residual, max_staleness as f64)
        .map(|t| (t.ceil() as usize).to_string())
        .unwrap_or_else(|| "unreachable".to_string())
}

/// Theorem 1 and Corollary 2 on the paper's 100-worker system.
fn print_paper_system_bounds(c: &ObjectiveConstants) {
    // The preset is the paper's setup: 100 workers, one label each.
    let system = FlSystemConfig::mnist_lr().build(&mut Rng64::seed_from(42));
    let config = AirFedGaConfig::default();
    let airfedga_grouping = AirFedGa::new(config.clone()).grouping_for(&system);
    // Algorithm 3's own objective: its ψ_j, β_j and Λ_j are the bound's.
    let objective = GroupingObjective::new(system.aircomp_aggregation_time(), config.xi, *c);
    let workers = &system.worker_infos;
    let tifl = tifl_grouping(workers, default_tier_count(system.num_workers()));
    let singles = Grouping::singletons(system.num_workers());

    let mut table = Table::new(
        &format!(
            "Theorem 1: convergence bound per grouping (epsilon = {})",
            c.epsilon
        ),
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
        let bound = objective.bound(grouping, workers).expect("defined");
        table.add_row(vec![
            name.to_string(),
            grouping.num_groups().to_string(),
            tau.to_string(),
            format!("{:.4}", rho(bound.0, tau)),
            format!("{:.3}", bound.1),
            rounds_to_epsilon(c, bound, tau),
        ]);
    }
    println!("{}", table.render());

    // Corollary 2 on Algorithm 3's grouping: rho increases with tau_max.
    let (contraction, _) = objective
        .bound(&airfedga_grouping, workers)
        .expect("defined");
    let mut corollary = Table::new(
        "Corollary 2: contraction factor rho vs staleness bound tau_max",
        &["tau_max", "rho"],
    );
    for tau in [0usize, 1, 2, 4, 8, 16] {
        corollary.add_row(vec![
            tau.to_string(),
            format!("{:.4}", rho(contraction, tau)),
        ]);
    }
    println!("{}", corollary.render());
}

fn main() {
    let c = ObjectiveConstants::default();
    println!("Corollary 1 — residual error grows with inter-group Non-IID (EMD):");
    println!("  EMD    delta      rounds to gap {}", c.epsilon);
    for emd in [0.0, 0.4, 0.8, 1.2, 1.6, 1.8] {
        let bound = theorem1_bound(&c, uniform_groups(8, emd)).expect("defined");
        println!(
            "  {emd:.1}   {:.4}    {}",
            bound.1,
            rounds_to_epsilon(&c, bound, 4)
        );
    }

    println!("\nCorollary 2 — contraction factor rho grows with the staleness bound:");
    println!("  tau_max   rho       bound after 200 rounds");
    let (contraction, residual) = theorem1_bound(&c, uniform_groups(8, 0.4)).expect("defined");
    for tau in [0usize, 1, 2, 4, 8, 16, 32] {
        let r = rho(contraction, tau);
        println!(
            "  {tau:>7}   {r:.4}    {:.4}",
            r.powi(200) * c.initial_gap + residual
        );
    }

    println!(
        "\nThe grouping objective of Algorithm 3 trades these two effects against the\n\
         per-round latency: fewer groups mean less staleness but longer rounds; more\n\
         groups mean faster rounds but a larger tau_max and (if the grouping ignores\n\
         labels) a larger residual.\n"
    );
    print_paper_system_bounds(&c);
}
