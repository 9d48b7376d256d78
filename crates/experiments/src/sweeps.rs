//! Shared drivers for the parameter-sweep figures: the Fig. 8 ξ-sweep and
//! the Fig. 10 scalability sweep.
//!
//! Each driver lists its cells and system configs, hands them to
//! `harness::run_mechanism_cells` with the caller's [`RunPolicy`] and
//! [`ReplicateCache`], renders the surviving cells and returns the runner's
//! outcome — the same shape as the time-accuracy and grid drivers, so
//! `--seeds N`, `--system-seeds`, `[limits]`, `--resume` / `--fresh` and
//! panic isolation work uniformly across every scenario kind. Output for the
//! default parameters is byte-identical to the historical `fig8_xi_sweep` /
//! `fig10_scalability` binaries.

use crate::figures::FigureParams;
use crate::harness::{
    run_grid, run_mechanism_cells, MechanismCell, MechanismChoice, ReplicateCache,
    ReplicatedOutcome, RunPolicy,
};
use crate::report::{fmt_opt_secs, fmt_secs, try_write_csv, Table};
use crate::scale::Scale;
use crate::stats::CellStats;
use airfedga::mechanism::{AirFedGa, AirFedGaConfig};
use airfedga::system::{FlMechanism, FlSystemConfig};
use fedml::rng::Rng64;

/// Description of one ξ-sweep figure (the Fig. 8 shape): sweep the
/// grouping-similarity parameter of Air-FedGA and report the training time
/// to reach each accuracy target.
#[derive(Debug, Clone)]
pub struct XiSweepFigure {
    /// Title prefix; the driver appends ` ({N} workers, {scale:?} scale)`.
    pub title: String,
    /// Workload preset (model + dataset), pre-scale.
    pub workload: FlSystemConfig,
    /// The ξ values to sweep. `None` selects the historical scale-dependent
    /// grid: 0.0..=1.0 in steps of 0.1 at full scale, `[0, 0.3, 0.7, 1.0]`
    /// at quick scale.
    pub xis: Option<Vec<f64>>,
    /// Accuracy targets whose time-to-reach is reported.
    pub targets: Vec<f64>,
    /// Output CSV file name (e.g. `fig8_xi_sweep.csv`).
    pub csv_name: String,
    /// Round budget as a multiple of the scale's default (the historical
    /// sweep runs 2× so slow ξ extremes still reach the targets). An
    /// explicit `params.total_rounds` wins over this.
    pub rounds_factor: usize,
}

/// Format a ξ value for tables and CSVs: one decimal when that is exact
/// (the historical grids are 0.1-spaced, so `0.3` / `1.0` keep their
/// byte-identical rendering), full precision otherwise — scenario files may
/// sweep values like `0.25` and `0.21`, which must not collapse into
/// indistinguishable `0.2` rows.
pub fn fmt_xi(xi: f64) -> String {
    let one = format!("{xi:.1}");
    if one.parse::<f64>() == Ok(xi) {
        one
    } else {
        format!("{xi}")
    }
}

impl XiSweepFigure {
    /// The historical scale-dependent ξ grid.
    pub fn default_xis(scale: Scale) -> Vec<f64> {
        match scale {
            Scale::Full => (0..=10).map(|i| i as f64 / 10.0).collect(),
            Scale::Quick => vec![0.0, 0.3, 0.7, 1.0],
        }
    }
}

/// Run a ξ-sweep figure: one Air-FedGA cell per ξ value, all on one system,
/// printing the time-to-target table and writing the sweep CSV. A ξ whose
/// replicates all died has no row; its failures are in the returned outcome.
pub fn run_xi_sweep(
    fig: &XiSweepFigure,
    params: &FigureParams,
    policy: &RunPolicy,
    cache: &dyn ReplicateCache,
) -> ReplicatedOutcome {
    let scale = params.scale;
    let plan = params.plan();
    let seeds = &plan.run_seeds;
    let cfg = params.apply(fig.workload.clone());
    let xis = fig
        .xis
        .clone()
        .unwrap_or_else(|| XiSweepFigure::default_xis(scale));
    let total_rounds = params
        .total_rounds
        .unwrap_or_else(|| scale.total_rounds() * fig.rounds_factor);

    // Group counts are seed-independent (Algorithm 3 is deterministic given
    // the system), so they are computed once per ξ outside the replication,
    // on the replicate-0 system.
    let groups: Vec<usize> = {
        let system = cfg.build(&mut Rng64::seed_from(plan.system_seed));
        println!(
            "{} ({} workers, {:?} scale)\n",
            fig.title,
            system.num_workers(),
            scale
        );
        run_grid(xis.clone(), |xi| {
            AirFedGa::new(AirFedGaConfig {
                xi,
                ..AirFedGaConfig::default()
            })
            .grouping_for(&system)
            .num_groups()
        })
    };
    let outcome = run_mechanism_cells(
        std::slice::from_ref(&cfg),
        xis.iter()
            .map(|&xi| MechanismCell {
                config: 0,
                mechanism: MechanismChoice::AirFedGa,
                xi: Some(xi),
                label: format!("xi={}", fmt_xi(xi)),
            })
            .collect(),
        total_rounds,
        params.eval(),
        params.max_virtual_time,
        &plan,
        policy,
        cache,
    );
    let sweep = &outcome.cells;

    let mut header: Vec<String> = vec!["xi".to_string(), "groups".to_string()];
    for t in &fig.targets {
        header.push(format!("t@{:.0}%", t * 100.0));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    if seeds.len() == 1 {
        let mut table = Table::new(
            "Training time (s) to reach target accuracy vs xi",
            &header_refs,
        );
        let mut csv = String::from("xi,groups");
        for t in &fig.targets {
            csv.push_str(&format!(",t{:.0}", t * 100.0));
        }
        csv.push('\n');
        for ((xi, num_groups), cell) in xis.iter().zip(&groups).zip(sweep) {
            let Some(cell) = cell else { continue };
            let times: Vec<Option<f64>> = fig
                .targets
                .iter()
                .map(|&t| cell.first().time_to_accuracy(t))
                .collect();
            let mut row = vec![fmt_xi(*xi), format!("{num_groups}")];
            row.extend(times.iter().map(|&t| fmt_opt_secs(t)));
            table.add_row(row);
            csv.push_str(&format!("{},{num_groups}", fmt_xi(*xi)));
            for t in &times {
                csv.push(',');
                csv.push_str(&t.map(|t| format!("{t:.1}")).unwrap_or_default());
            }
            csv.push('\n');
        }
        println!("{}", table.render());
        try_write_csv(&fig.csv_name, &csv);
    } else {
        println!(
            "  replicated over {} seeds ({}..{}); cells are mean±std [reached/total]\n",
            seeds.len(),
            seeds[0],
            seeds[seeds.len() - 1]
        );
        if plan.vary_system {
            println!(
                "  system re-sampled per replicate (system seeds {}..{})\n",
                plan.system_seed,
                plan.system_seed + (seeds.len() as u64 - 1)
            );
        }
        let mut table = Table::new(
            "Training time (s) to reach target accuracy vs xi",
            &header_refs,
        );
        let mut csv = String::from("xi,groups");
        for t in &fig.targets {
            let pct = t * 100.0;
            csv.push_str(&format!(",t{pct:.0}_mean,t{pct:.0}_std,t{pct:.0}_n"));
        }
        csv.push('\n');
        for ((xi, num_groups), cell) in xis.iter().zip(&groups).zip(sweep) {
            let Some(cell) = cell else { continue };
            let stats: Vec<_> = fig
                .targets
                .iter()
                .map(|&t| cell.time_to_accuracy_stats(t))
                .collect();
            let mut row = vec![fmt_xi(*xi), format!("{num_groups}")];
            row.extend(stats.iter().map(|s| s.fmt_with_count(0, seeds.len())));
            table.add_row(row);
            csv.push_str(&format!("{},{num_groups}", fmt_xi(*xi)));
            for s in &stats {
                csv.push(',');
                csv.push_str(&s.csv_fields(1));
            }
            csv.push('\n');
        }
        println!("{}", table.render());
        try_write_csv(&fig.csv_name, &csv);
    }
    outcome
}

/// Description of one scalability figure (the Fig. 10 shape): sweep the
/// worker count and report single-round and total time per mechanism.
#[derive(Debug, Clone)]
pub struct ScalabilityFigure {
    /// Title prefix; the driver renders `"{title} (left): …"` and
    /// `"{title} (right): …"` table headings from it.
    pub title: String,
    /// Workload preset (model + dataset), pre-scale.
    pub workload: FlSystemConfig,
    /// The worker counts to sweep. `None` selects the historical
    /// scale-dependent grid (20..=100 step 20 full, `[10, 20]` quick).
    pub worker_counts: Option<Vec<usize>>,
    /// Samples added per worker (the sweep keeps per-worker shard size
    /// constant, so adding workers adds data).
    pub per_worker_samples: usize,
    /// The accuracy target of the total-time panel.
    pub target: f64,
    /// Mechanisms compared (table columns, in this order).
    pub mechanisms: Vec<MechanismChoice>,
    /// Output CSV file name (e.g. `fig10_scalability.csv`).
    pub csv_name: String,
}

impl ScalabilityFigure {
    /// The historical scale-dependent worker-count grid.
    pub fn default_worker_counts(scale: Scale) -> Vec<usize> {
        match scale {
            Scale::Full => vec![20, 40, 60, 80, 100],
            Scale::Quick => vec![10, 20],
        }
    }
}

/// The cells of a worker-count sweep: one system config per entry of
/// `worker_counts` (the already-scaled `base` with that many workers) and one
/// cell per (worker count, mechanism), worker count outermost. The sweep
/// keeps the per-worker shard size constant at `per_worker_samples`, as in a
/// scalability experiment where adding workers adds data: this isolates how
/// the *mechanisms* scale with N rather than how shrinking shards speed up
/// local training.
pub fn scalability_cells(
    base: &FlSystemConfig,
    worker_counts: &[usize],
    per_worker_samples: usize,
    mechanisms: &[MechanismChoice],
) -> (Vec<FlSystemConfig>, Vec<MechanismCell>) {
    let configs = worker_counts
        .iter()
        .map(|&n| {
            let mut cfg = base.clone();
            cfg.num_workers = n;
            cfg.dataset.samples_per_class = per_worker_samples * n / cfg.dataset.num_classes.max(1);
            cfg
        })
        .collect();
    let cells = worker_counts
        .iter()
        .enumerate()
        .flat_map(|(config, &n)| {
            mechanisms.iter().map(move |&mechanism| MechanismCell {
                config,
                mechanism,
                xi: None,
                label: format!("N={n} {}", mechanism.label()),
            })
        })
        .collect();
    (configs, cells)
}

/// Run a scalability figure: one cell per (worker count, mechanism), one
/// system per worker count, printing the per-`N` round-time and total-time
/// tables and writing the sweep CSV. A cell whose replicates all died shows
/// as `n/a` and has no CSV row; its failures are in the returned outcome.
pub fn run_scalability(
    fig: &ScalabilityFigure,
    params: &FigureParams,
    policy: &RunPolicy,
    cache: &dyn ReplicateCache,
) -> ReplicatedOutcome {
    let scale = params.scale;
    let plan = params.plan();
    let seeds = &plan.run_seeds;
    let worker_counts = fig
        .worker_counts
        .clone()
        .unwrap_or_else(|| ScalabilityFigure::default_worker_counts(scale));
    let target = fig.target;
    let replicated = seeds.len() > 1;

    let (configs, cells) = scalability_cells(
        &scale.apply(fig.workload.clone()),
        &worker_counts,
        fig.per_worker_samples,
        &fig.mechanisms,
    );
    let outcome = run_mechanism_cells(
        &configs,
        cells,
        params.rounds(),
        params.eval(),
        params.max_virtual_time,
        &plan,
        policy,
        cache,
    );

    let mut header: Vec<&str> = vec!["N"];
    header.extend(fig.mechanisms.iter().map(|m| m.label()));
    let mut round_table = Table::new(
        &format!(
            "{} (left): average single-round time (s) vs number of workers",
            fig.title
        ),
        &header,
    );
    let mut total_table = Table::new(
        &format!(
            "{} (right): total time (s) to stable {:.0}% accuracy vs number of workers",
            fig.title,
            target * 100.0
        ),
        &header,
    );
    let mut csv = if replicated {
        format!(
            "n,mechanism,seeds,avg_round_s_mean,avg_round_s_std,\
             time_to_{0:.0}_s_mean,time_to_{0:.0}_s_std,time_to_{0:.0}_n\n",
            target * 100.0
        )
    } else {
        format!("n,mechanism,avg_round_s,time_to_{:.0}_s\n", target * 100.0)
    };
    let per_n = outcome.cells.chunks(fig.mechanisms.len());
    for (n, cells) in worker_counts.iter().zip(per_n) {
        let column = |f: &dyn Fn(&CellStats) -> String| {
            cells
                .iter()
                .map(|c| c.as_ref().map_or_else(|| "n/a".to_string(), f))
                .collect::<Vec<String>>()
        };
        let mut round_row = vec![n.to_string()];
        let mut total_row = vec![n.to_string()];
        if replicated {
            round_row.extend(column(&|c| c.average_round_time_stats().fmt_mean_std(1)));
            total_row.extend(column(&|c| {
                c.time_to_accuracy_stats(target)
                    .fmt_with_count(0, seeds.len())
            }));
        } else {
            round_row.extend(column(&|c| fmt_secs(c.first().average_round_time)));
            total_row.extend(column(&|c| {
                fmt_opt_secs(c.first().time_to_accuracy(target))
            }));
        }
        round_table.add_row(round_row);
        total_table.add_row(total_row);
        for c in cells.iter().flatten() {
            if replicated {
                let round = c.average_round_time_stats();
                let tta = c.time_to_accuracy_stats(target);
                csv.push_str(&format!(
                    "{n},{},{},{:.2},{:.2},{}\n",
                    c.mechanism,
                    seeds.len(),
                    round.mean,
                    round.std,
                    tta.csv_fields(1),
                ));
            } else {
                let s = c.first();
                csv.push_str(&format!(
                    "{n},{},{:.2},{}\n",
                    s.mechanism,
                    s.average_round_time,
                    s.time_to_accuracy(target)
                        .map(|t| format!("{t:.1}"))
                        .unwrap_or_default()
                ));
            }
        }
        println!("finished N = {n}");
    }
    println!();
    println!("{}", round_table.render());
    println!("{}", total_table.render());
    try_write_csv(&fig.csv_name, &csv);
    outcome
}

/// The ξ a sweep cell's mechanism is built with — the one place that knows
/// which mechanisms read ξ. Only Air-FedGA has one (the grouping trade-off
/// of Algorithm 3); for every other mechanism an override is dropped, so
/// cells that differ only in it are the same computation.
/// [`build_sweep_mechanism`] applies the override exactly when this returns
/// it, and `harness::run_mechanism_cells` keys the replicates it may share on
/// the same value.
pub fn effective_xi(choice: MechanismChoice, xi: Option<f64>) -> Option<f64> {
    match choice {
        MechanismChoice::AirFedGa => xi,
        MechanismChoice::AirFedAvg
        | MechanismChoice::Dynamic
        | MechanismChoice::FedAvg
        | MechanismChoice::TiFl => None,
    }
}

/// A general mechanism constructor for sweep cells: the named mechanism at
/// the given round budget, with the ξ override [`effective_xi`] lets through
/// (Air-FedGA's; the other mechanisms have no ξ and ignore it).
pub fn build_sweep_mechanism(
    choice: MechanismChoice,
    xi: Option<f64>,
    total_rounds: usize,
    eval_every: usize,
    max_virtual_time: Option<f64>,
) -> Box<dyn FlMechanism> {
    match effective_xi(choice, xi) {
        Some(xi) => Box::new(AirFedGa::new(AirFedGaConfig {
            xi,
            total_rounds,
            eval_every,
            max_virtual_time,
            ..AirFedGaConfig::default()
        })),
        None => choice.build(total_rounds, eval_every, max_virtual_time),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grids_match_the_historical_binaries() {
        assert_eq!(
            XiSweepFigure::default_xis(Scale::Quick),
            vec![0.0, 0.3, 0.7, 1.0]
        );
        assert_eq!(XiSweepFigure::default_xis(Scale::Full).len(), 11);
        assert_eq!(
            ScalabilityFigure::default_worker_counts(Scale::Full),
            vec![20, 40, 60, 80, 100]
        );
        assert_eq!(
            ScalabilityFigure::default_worker_counts(Scale::Quick),
            vec![10, 20]
        );
    }

    #[test]
    fn xi_formatting_is_historical_for_coarse_grids_and_lossless_for_fine() {
        // The historical 0.1-spaced grids keep their byte-identical one
        // decimal rendering…
        assert_eq!(fmt_xi(0.3), "0.3");
        assert_eq!(fmt_xi(1.0), "1.0");
        assert_eq!(fmt_xi(0.0), "0.0");
        // …while scenario-supplied finer values stay distinguishable.
        assert_eq!(fmt_xi(0.25), "0.25");
        assert_eq!(fmt_xi(0.21), "0.21");
        assert_ne!(fmt_xi(0.25), fmt_xi(0.21));
    }

    #[test]
    fn sweep_mechanism_builder_applies_xi_to_airfedga_only() {
        let ga = build_sweep_mechanism(MechanismChoice::AirFedGa, Some(0.7), 10, 2, None);
        assert_eq!(ga.name(), "Air-FedGA");
        let avg = build_sweep_mechanism(MechanismChoice::FedAvg, Some(0.7), 10, 2, None);
        assert_eq!(avg.name(), "FedAvg");
        let plain = build_sweep_mechanism(MechanismChoice::AirFedGa, None, 10, 2, None);
        assert_eq!(plain.name(), "Air-FedGA");
        for choice in MechanismChoice::all() {
            let reads_xi = choice == MechanismChoice::AirFedGa;
            assert_eq!(effective_xi(choice, Some(0.7)), reads_xi.then_some(0.7));
            assert_eq!(effective_xi(choice, None), None);
        }
    }

    #[test]
    fn xi_sweep_runs_at_test_scale() {
        let outcome = run_xi_sweep(
            &XiSweepFigure {
                title: "test xi sweep".to_string(),
                workload: FlSystemConfig::mnist_lr_quick(),
                xis: Some(vec![0.3, 1.0]),
                targets: vec![0.5],
                csv_name: "test_xi_sweep.csv".to_string(),
                rounds_factor: 1,
            },
            &FigureParams {
                scale: Scale::Quick,
                total_rounds: Some(6),
                eval_every: Some(2),
                ..FigureParams::default()
            },
            &RunPolicy::default(),
            &crate::harness::NoCache,
        );
        assert!(outcome.failures.is_empty());
    }
}
