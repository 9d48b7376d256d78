//! Shared driver for the loss/accuracy-vs-time figures (Figs. 3–6) and the
//! energy figure (Fig. 9): list one cell per mechanism on one system, run
//! them through `harness::run_mechanism_cells`, print the paper-style
//! summary rows and dump one CSV per mechanism.
//!
//! With `num_seeds > 1` the driver replicates every mechanism over the seed
//! stream `4242, 4243, …` (see `stats::replication_seeds`), prints
//! mean±std summary rows and writes per-mechanism error-bar CSVs (plus a
//! shaded-band gnuplot script) next to the canonical first-seed traces.
//! `num_seeds == 1` is byte-identical to the historical single-seed driver.
//! The [`FigureParams`] bundle also carries the `--system-seeds` axis
//! (re-sample the system per replicate) and the run-shape overrides a
//! scenario file may set (explicit worker count, round budget, cadence,
//! virtual-time cap).

use crate::harness::{
    run_mechanism_cells, MechanismCell, MechanismChoice, ReplicateCache, ReplicatedOutcome,
    RunPolicy, SeedPlan,
};
use crate::report::{error_bar_csv, fmt_opt_secs, fmt_secs, gnuplot_script, try_write_csv, Table};
use crate::scale::Scale;
use crate::stats::{replication_seeds, CellStats};
use airfedga::system::FlSystemConfig;

/// The run-RNG seed every figure historically used; replicate `r`
/// runs with `FIGURE_RUN_SEED + r`.
pub const FIGURE_RUN_SEED: u64 = 4242;

/// The system-construction seed shared by the figures.
pub const FIGURE_SYSTEM_SEED: u64 = 42;

/// Everything a figure driver needs beyond the workload itself: scale,
/// replication, seeds and the run-shape overrides a scenario file may set.
/// The `Default` value is the historical single-seed full-scale run.
#[derive(Debug, Clone)]
pub struct FigureParams {
    /// Experiment scale (worker counts, round budgets, shard sizes).
    pub scale: Scale,
    /// Replication count; 1 reproduces the historical single-seed output
    /// byte for byte.
    pub num_seeds: usize,
    /// Re-sample the system per replicate (the `--system-seeds` axis).
    pub vary_system: bool,
    /// Base run seed (replicate `r` runs with `run_seed + r`).
    pub run_seed: u64,
    /// Base system-construction seed.
    pub system_seed: u64,
    /// Override the scaled worker count (a scenario file's explicit
    /// `num_workers` wins over the scale preset).
    pub num_workers: Option<usize>,
    /// Override the scale's round budget.
    pub total_rounds: Option<usize>,
    /// Override the scale's evaluation cadence.
    pub eval_every: Option<usize>,
    /// Optional virtual-time budget (seconds).
    pub max_virtual_time: Option<f64>,
}

impl Default for FigureParams {
    fn default() -> Self {
        Self {
            scale: Scale::Full,
            num_seeds: 1,
            vary_system: false,
            run_seed: FIGURE_RUN_SEED,
            system_seed: FIGURE_SYSTEM_SEED,
            num_workers: None,
            total_rounds: None,
            eval_every: None,
            max_virtual_time: None,
        }
    }
}

impl FigureParams {
    /// The seed plan these parameters describe.
    pub fn plan(&self) -> SeedPlan {
        SeedPlan {
            system_seed: self.system_seed,
            run_seeds: replication_seeds(self.run_seed, self.num_seeds.max(1)),
            vary_system: self.vary_system,
        }
    }

    /// Effective round budget (explicit override or the scale default).
    pub fn rounds(&self) -> usize {
        self.total_rounds
            .unwrap_or_else(|| self.scale.total_rounds())
    }

    /// Effective evaluation cadence.
    pub fn eval(&self) -> usize {
        self.eval_every.unwrap_or_else(|| self.scale.eval_every())
    }

    /// Scale a workload preset, then apply the explicit worker-count
    /// override, if any.
    pub fn apply(&self, workload: FlSystemConfig) -> FlSystemConfig {
        let mut cfg = self.scale.apply(workload);
        if let Some(n) = self.num_workers {
            cfg.num_workers = n;
        }
        cfg
    }
}

/// Run one loss/accuracy-vs-time comparison (the shape of Figs. 3–6 and 9):
/// one cell per mechanism, all on the same system, through
/// [`run_mechanism_cells`] under the given [`RunPolicy`] and
/// [`ReplicateCache`].
///
/// * `workload` — the system preset (model + dataset), pre-scale.
/// * `accuracy_targets` — the accuracies whose time-to-reach is reported
///   (e.g. the paper quotes time to a stable 80 % for Fig. 3).
/// * `csv_prefix` — base name for the per-mechanism CSV traces.
/// * `params` — scale, replication and run-shape overrides. `num_seeds == 1`
///   reproduces the historical single-seed output byte for byte; `> 1` adds
///   mean±std rows, `*_errorbars.csv` files and a shaded-band gnuplot script.
///
/// Returns the runner's outcome: per-mechanism statistics in request order
/// plus the replicate failures. A mechanism that lost every replicate (a
/// `None` cell) is dropped from the table and CSVs instead of aborting the
/// figure.
#[allow(clippy::too_many_arguments)]
pub fn run_time_accuracy_figure(
    title: &str,
    workload: FlSystemConfig,
    mechanisms: &[MechanismChoice],
    accuracy_targets: &[f64],
    csv_prefix: &str,
    params: &FigureParams,
    policy: &RunPolicy,
    cache: &dyn ReplicateCache,
) -> ReplicatedOutcome {
    let scale = params.scale;
    let cfg = params.apply(workload);
    println!(
        "{title}\n  workload: {} | {} workers | {} rounds (scale: {scale:?})",
        cfg.dataset.name,
        cfg.num_workers,
        params.rounds()
    );
    let plan = params.plan();
    let seeds = plan.run_seeds.clone();
    let outcome = run_mechanism_cells(
        std::slice::from_ref(&cfg),
        mechanisms
            .iter()
            .map(|&mechanism| MechanismCell {
                config: 0,
                mechanism,
                xi: None,
                label: mechanism.label().to_string(),
            })
            .collect(),
        params.rounds(),
        params.eval(),
        params.max_virtual_time,
        &plan,
        policy,
        cache,
    );
    let cells = &outcome.cells;
    // Robustness columns appear only for faulty workloads, so fault-free
    // figures keep their historical byte-frozen table layout.
    let faulty = !cfg.faults.is_none();
    let mut header = vec![
        "mechanism".to_string(),
        "final acc".to_string(),
        "final loss".to_string(),
        "avg round (s)".to_string(),
        "total time (s)".to_string(),
        "energy (J)".to_string(),
    ];
    for t in accuracy_targets {
        header.push(format!("t@{:.0}% (s)", t * 100.0));
    }
    if faulty {
        header.push("participation".to_string());
        header.push("rounds survived".to_string());
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    if seeds.len() == 1 {
        for s in cells.iter().flatten().map(|c| c.first()) {
            let mut row = vec![
                s.mechanism.clone(),
                format!("{:.3}", s.final_accuracy),
                format!("{:.3}", s.final_loss),
                fmt_secs(s.average_round_time),
                fmt_secs(s.total_time),
                format!("{:.0}", s.total_energy),
            ];
            for t in accuracy_targets {
                row.push(fmt_opt_secs(s.time_to_accuracy(*t)));
            }
            if faulty {
                row.push(format!("{:.3}", s.participation_rate));
                row.push(format!("{}", s.rounds_survived));
            }
            table.add_row(row);
        }
    } else {
        println!(
            "  replicated over {} seeds ({}..{}); cells are mean±std",
            seeds.len(),
            seeds[0],
            seeds[seeds.len() - 1]
        );
        if plan.vary_system {
            println!(
                "  system re-sampled per replicate (system seeds {}..{})",
                plan.system_seed,
                plan.system_seed + (seeds.len() as u64 - 1)
            );
        }
        for c in cells.iter().flatten() {
            let acc = c.final_accuracy_stats();
            let loss = c.final_loss_stats();
            let round = c.average_round_time_stats();
            // The last eval point may cover only the seeds whose traces ran
            // that long (a seed can hit `max_virtual_time` earlier); make the
            // partial coverage visible instead of presenting a subset mean as
            // if it spanned every replicate.
            let last = c.points.last().expect("replicated trace is non-empty");
            let fmt_last = |s: &crate::stats::SummaryStats, precision: usize| {
                if s.n == seeds.len() as u64 {
                    s.fmt_mean_std(precision)
                } else {
                    s.fmt_with_count(precision, seeds.len())
                }
            };
            let mut row = vec![
                c.mechanism.clone(),
                acc.fmt_mean_std(3),
                loss.fmt_mean_std(3),
                round.fmt_mean_std(1),
                fmt_last(&last.time, 0),
                fmt_last(&last.energy, 0),
            ];
            for t in accuracy_targets {
                row.push(c.time_to_accuracy_stats(*t).fmt_with_count(0, seeds.len()));
            }
            if faulty {
                row.push(c.participation_rate_stats().fmt_mean_std(3));
                row.push(c.rounds_survived_stats().fmt_mean_std(1));
            }
            table.add_row(row);
        }
    }
    println!("{}", table.render());

    for c in cells.iter().flatten() {
        let stem = c.mechanism.to_lowercase().replace(['-', ' '], "_");
        // The canonical first-seed trace keeps its historical name (and
        // bytes), so existing plotting scripts keep working at any seed
        // count; replicated runs add the error-bar series next to it.
        try_write_csv(
            &format!("{csv_prefix}_{stem}.csv"),
            &c.first().trace.to_csv(),
        );
        if seeds.len() > 1 {
            try_write_csv(
                &format!("{csv_prefix}_{stem}_errorbars.csv"),
                &error_bar_csv(&c.points),
            );
        }
    }
    if seeds.len() > 1 {
        // One shaded-band script over every mechanism's error-bar CSV.
        let series: Vec<(String, String)> = cells
            .iter()
            .flatten()
            .map(|c| {
                let stem = c.mechanism.to_lowercase().replace(['-', ' '], "_");
                (
                    c.mechanism.clone(),
                    format!("{csv_prefix}_{stem}_errorbars.csv"),
                )
            })
            .collect();
        try_write_csv(
            &format!("{csv_prefix}_errorbars.gp"),
            &gnuplot_script(title, &format!("{csv_prefix}_errorbars.png"), &series),
        );
    }
    outcome
}

/// Print the paper's headline speed-up claim for a figure's surviving
/// cells: how much faster Air-FedGA's canonical (first-seed) run reaches
/// `target` accuracy than each other mechanism's.
pub fn print_speedups(cells: &[Option<CellStats>], target: f64) {
    let summaries = || cells.iter().flatten().map(CellStats::first);
    let Some(ga) = summaries()
        .find(|s| s.mechanism == "Air-FedGA")
        .and_then(|s| s.time_to_accuracy(target))
    else {
        println!(
            "Air-FedGA did not reach a stable {:.0}% accuracy in this run",
            target * 100.0
        );
        return;
    };
    for s in summaries() {
        if s.mechanism == "Air-FedGA" {
            continue;
        }
        match s.time_to_accuracy(target) {
            Some(t) => println!(
                "  Air-FedGA reaches {:.0}% accuracy {:.1}% faster than {} ({:.0}s vs {:.0}s)",
                target * 100.0,
                (1.0 - ga / t) * 100.0,
                s.mechanism,
                ga,
                t
            ),
            None => println!(
                "  {} never stably reached {:.0}% accuracy (Air-FedGA: {:.0}s)",
                s.mechanism,
                target * 100.0,
                ga
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::NoCache;

    fn quick_figure(
        title: &str,
        mechanisms: &[MechanismChoice],
        csv_prefix: &str,
        num_seeds: usize,
    ) -> Vec<CellStats> {
        let run = run_time_accuracy_figure(
            title,
            FlSystemConfig::mnist_lr_quick(),
            mechanisms,
            &[0.5],
            csv_prefix,
            &FigureParams {
                scale: Scale::Quick,
                num_seeds,
                ..FigureParams::default()
            },
            &RunPolicy::default(),
            &NoCache,
        );
        assert!(run.is_complete());
        print_speedups(&run.cells, 0.5);
        run.cells.into_iter().flatten().collect()
    }

    #[test]
    fn figure_driver_runs_at_quick_scale() {
        let cells = quick_figure(
            "test figure",
            &[MechanismChoice::AirFedAvg, MechanismChoice::AirFedGa],
            "test_fig",
            1,
        );
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].first().mechanism, "Air-FedGA");
    }

    #[test]
    fn figure_params_resolve_overrides() {
        let p = FigureParams {
            scale: Scale::Quick,
            num_workers: Some(7),
            total_rounds: Some(11),
            ..FigureParams::default()
        };
        assert_eq!(p.rounds(), 11);
        assert_eq!(p.eval(), Scale::Quick.eval_every());
        assert_eq!(p.apply(FlSystemConfig::mnist_lr()).num_workers, 7);
        let plan = p.plan();
        assert_eq!(plan.run_seeds, vec![FIGURE_RUN_SEED]);
        assert_eq!(plan.system_seed, FIGURE_SYSTEM_SEED);
        assert!(!plan.vary_system);
    }

    #[test]
    fn replicated_figure_keeps_the_first_seed_canonical() {
        let single = quick_figure("single", &[MechanismChoice::AirFedGa], "test_fig_s1", 1);
        let triple = quick_figure("triple", &[MechanismChoice::AirFedGa], "test_fig_s3", 3);
        // Replicate 0 of the multi-seed run IS the single-seed run.
        let a = &single[0].first().trace;
        let b = &triple[0].first().trace;
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.loss.to_bits(), pb.loss.to_bits());
            assert_eq!(pa.time.to_bits(), pb.time.to_bits());
        }
        // Error-bar statistics cover all three replicates.
        let cell = &triple[0];
        assert_eq!(cell.seeds, vec![4242, 4243, 4244]);
        assert!(cell.points.iter().all(|p| p.loss.n == 3));
    }
}
