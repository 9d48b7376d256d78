//! Theorem 1 in practice: evaluate the convergence bound for different
//! groupings and staleness levels, illustrating Corollaries 1 and 2, then
//! on the groupings Algorithm 3, TiFL and per-worker singletons actually
//! produce for the paper's 100-worker `mnist_lr` system (seed 42).
//!
//! ```bash
//! cargo run --release --example convergence_bound
//! ```

use air_fedga::airfedga::convergence::{theorem1_bound, BoundInputs, GroupTerm};
use air_fedga::airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use air_fedga::airfedga::system::{FlSystem, FlSystemConfig};
use air_fedga::experiments::report::Table;
use air_fedga::fedml::rng::Rng64;
use air_fedga::grouping::emd::group_emd;
use air_fedga::grouping::tifl::{default_tier_count, tifl_grouping};
use air_fedga::grouping::worker_info::Grouping;

fn inputs(max_staleness: usize) -> BoundInputs {
    BoundInputs {
        mu: 0.2,
        smoothness: 1.0,
        gamma: 0.75,
        gradient_bound_sq: 0.02,
        aggregation_error: 0.01,
        max_staleness,
        initial_gap: 2.3,
    }
}

fn uniform_groups(m: usize, emd: f64) -> Vec<GroupTerm> {
    (0..m)
        .map(|_| GroupTerm {
            psi: 1.0 / m as f64,
            beta: 1.0 / m as f64,
            emd,
        })
        .collect()
}

/// The Theorem-1 group terms of a real grouping: `psi` from the groups'
/// completion rates, `beta` their data fractions, `emd` their label skew.
fn terms_for(grouping: &Grouping, system: &FlSystem) -> Vec<GroupTerm> {
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

/// Theorem 1 and Corollary 2 on the paper's 100-worker system.
fn print_paper_system_bounds() {
    // The preset is the paper's setup: 100 workers, one label each.
    let system = FlSystemConfig::mnist_lr().build(&mut Rng64::seed_from(42));
    let airfedga_grouping = AirFedGa::new(AirFedGaConfig::default()).grouping_for(&system);
    let tifl = tifl_grouping(
        &system.worker_infos,
        default_tier_count(system.num_workers()),
    );
    let singles = Grouping::singletons(system.num_workers());

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

    // Corollary 2 on Algorithm 3's grouping: rho increases with tau_max.
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

fn main() {
    println!("Corollary 1 — residual error grows with inter-group Non-IID (EMD):");
    println!("  EMD    delta      rounds to gap 1.0");
    for emd in [0.0, 0.4, 0.8, 1.2, 1.6, 1.8] {
        let bound = theorem1_bound(&inputs(4), &uniform_groups(8, emd));
        println!(
            "  {emd:.1}   {:.4}    {}",
            bound.delta,
            bound
                .rounds_to_reach(1.0, 2.3)
                .map(|r| r.to_string())
                .unwrap_or_else(|| "unreachable".into())
        );
    }

    println!("\nCorollary 2 — contraction factor rho grows with the staleness bound:");
    println!("  tau_max   rho       bound after 200 rounds");
    for tau in [0usize, 1, 2, 4, 8, 16, 32] {
        let bound = theorem1_bound(&inputs(tau), &uniform_groups(8, 0.4));
        println!(
            "  {tau:>7}   {:.4}    {:.4}",
            bound.rho,
            bound.after(200, 2.3)
        );
    }

    println!(
        "\nThe grouping objective of Algorithm 3 trades these two effects against the\n\
         per-round latency: fewer groups mean less staleness but longer rounds; more\n\
         groups mean faster rounds but a larger tau_max and (if the grouping ignores\n\
         labels) a larger residual.\n"
    );
    print_paper_system_bounds();
}
