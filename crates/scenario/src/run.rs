//! Executing a validated [`ScenarioSpec`].
//!
//! A scenario kind is three small pieces, each a closed `match` on
//! [`ScenarioKind`]: `list` says *which cells* — the headline text, the
//! system configs, one `MechanismCell` per table cell and the round budget —
//! `lay_out` says *which columns* — each row's key cells plus the
//! `stats::Metric`s shown, with their table headers and CSV stems — and
//! `render` says *in which order* the renderer prints them: the banner
//! legend, one table or a pivot per metric, and a figure's traces, speed-up
//! lines and energy table. The one per-kind switch inside the renderer is
//! the layout's `grid_counts` flag.
//! [`execute`] does the rest the same way for all four: it makes the one
//! `harness::run_mechanism_cells` call, with the spec's `[limits]` policy and
//! the run store as its cache, and hands the folded cells to the one
//! renderer (`experiments::render::Renderer`), which alone knows how a metric
//! prints with one seed and with many. So panic isolation, retries, the
//! watchdog and `--resume` / `--fresh` work for every kind; replicate
//! failures come back in the [`ExecutionReport`] for the binary to print to
//! stderr and fold into its exit code. Cells that are the same computation —
//! a `grid`'s mechanisms without a ξ, repeated per ξ value — train once per
//! seed and share the result; the report counts them.
//!
//! CLI precedence: the `--seeds N` and `--system-seeds` flags override the
//! spec's `run.seeds` / `run.system_seeds` keys, `--resume` / `--fresh`
//! select the [`StoreMode`] (a content-addressed store under `runstore/` —
//! see the `runstore` crate — keyed by the resolved spec, so completed
//! replicates of an interrupted grid are loaded instead of re-run), and
//! `AIRFEDGA_SCALE` selects the scale.
//!
//! Telemetry: `--telemetry <dir>` (or the spec's `[telemetry] dir` key)
//! enables the `telemetry` crate for the run and flushes `spans.jsonl`,
//! `metrics.json` and `profile.json` into `<dir>` afterwards; `--progress`
//! (or `[telemetry] progress`) forces the stderr progress reporter on even
//! without a TTY. Neither changes a byte of stdout, CSVs or the run store —
//! the sidecar files and stderr are the only outputs, and the `[telemetry]`
//! table is excluded from the canonical spec form so toggling it never
//! re-keys the store.

use crate::spec::{expand_grid, ScenarioKind, ScenarioSpec};
use crate::ScenarioError;
use airfedga::mechanism::{AirFedGa, AirFedGaConfig, EngineOptions};
use airfedga::system::FlSystemConfig;
use experiments::harness::{
    self, run_grid, run_mechanism_cells, scalability_cells, CellFailure, MechanismCell,
    MechanismChoice, NoCache, ReplicateCache, RunPolicy,
};
use experiments::render::{resampled_note, Column, Layout, Renderer};
use experiments::report::fmt_xi;
use experiments::scale::{FigureParams, Scale};
use experiments::stats::{CellStats, Metric};
use fedml::rng::Rng64;
use runstore::{CacheStats, RunStore, StoreCache};
use std::path::{Path, PathBuf};

/// Root directory of the on-disk run store, relative to the working
/// directory. Deliberately *outside* `results/`, so a comparison of
/// `results/` (`cli_contract`'s replays compare it file by file with the
/// pins) never sees it, and `rm -rf results` between runs leaves completed
/// replicates intact.
pub const STORE_ROOT: &str = "runstore";

/// Exit code of a clean run: every replicate finished (recovered retries
/// included).
pub const EXIT_CLEAN: i32 = 0;
/// Exit code when the grid finished but lost replicates for good
/// (unrecovered failures in the [`ExecutionReport`]).
pub const EXIT_FAILURES: i32 = 1;
/// Exit code for usage and spec errors: bad flags, an unreadable file, a
/// parse/validation failure — nothing ran.
pub const EXIT_USAGE: i32 = 2;

/// How `--resume` / `--fresh` map onto the run store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreMode {
    /// No store: no disk reads or writes, byte-identical to historical runs.
    #[default]
    Disabled,
    /// `--resume`: load completed replicates from the store, persist fresh
    /// ones as they finish.
    Resume,
    /// `--fresh`: discard any stored replicates for this spec first, then
    /// persist as `--resume` does.
    Fresh,
}

/// The command-line overrides a driver binary may apply on top of a spec.
#[derive(Debug, Clone, Default)]
pub struct CliOverrides {
    /// `--seeds N`, overriding the spec's `run.seeds`.
    pub seeds: Option<usize>,
    /// `--system-seeds`, OR-ed with the spec's `run.system_seeds`.
    pub system_seeds: bool,
    /// `--resume` / `--fresh`, selecting the run-store mode.
    pub store: StoreMode,
    /// `--telemetry <dir>`, overriding the spec's `[telemetry] dir` key:
    /// enable telemetry and flush the sidecar files there after the run.
    pub telemetry: Option<String>,
    /// `--progress`, forcing the stderr progress reporter on even when
    /// stderr is not a TTY (equivalent to `[telemetry] progress = "force"`).
    pub progress_force: bool,
    /// `--store-root <dir>`, relocating the run store away from the default
    /// [`STORE_ROOT`]. The job server points every job at one shared root so
    /// identical replicates dedup across jobs.
    pub store_root: Option<PathBuf>,
    /// `--results-dir <dir>`, relocating CSV output away from the default
    /// cwd-relative `results/`. The job server gives each job its own
    /// results store.
    pub results_dir: Option<PathBuf>,
}

impl CliOverrides {
    /// Parse a driver command line (program name excluded) into the scenario
    /// path and the overrides — the one place the command line is read.
    /// Value flags take `--flag VALUE` or `--flag=VALUE`. `Err` is a usage
    /// problem the binary reports before exiting with [`EXIT_USAGE`]: an
    /// unknown flag or extra operand (a typo'd `--system-seed` must fail
    /// loudly, not silently run a different experiment), a missing or
    /// malformed value, conflicting store flags, or no scenario file.
    pub fn parse(args: &[String]) -> Result<(PathBuf, Self), String> {
        let mut cli = Self::default();
        let mut path: Option<&String> = None;
        let (mut resume, mut fresh) = (false, false);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let (flag, attached) = match arg.split_once('=') {
                Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
                _ => (arg.as_str(), None),
            };
            // The flag's value: attached, or the next argument unless that
            // is another flag.
            let mut value = |what: &str| {
                let value = match attached {
                    Some(v) => Some(v.to_string()),
                    None => it.next().filter(|v| !v.starts_with('-')).cloned(),
                };
                value
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{flag} requires {what}"))
            };
            let mut dir = || value(&format!("a directory (e.g. {flag} out/)"));
            match (flag, attached) {
                ("--seeds", _) => {
                    let v = value("a value (e.g. --seeds 3)")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("invalid --seeds value: {v:?}"))?;
                    cli.seeds = Some(n.max(1));
                }
                ("--telemetry", _) => cli.telemetry = Some(dir()?),
                ("--store-root", _) => cli.store_root = Some(PathBuf::from(dir()?)),
                ("--results-dir", _) => cli.results_dir = Some(PathBuf::from(dir()?)),
                ("--system-seeds", None) => cli.system_seeds = true,
                ("--progress", None) => cli.progress_force = true,
                ("--resume", None) => resume = true,
                ("--fresh", None) => fresh = true,
                _ if arg.starts_with('-') => return Err(format!("unknown flag `{arg}`")),
                _ => match path {
                    Some(first) => {
                        return Err(format!(
                            "unexpected extra argument `{arg}` \
                             (scenario file already given: {first})"
                        ));
                    }
                    None => path = Some(arg),
                },
            }
        }
        cli.store = match (resume, fresh) {
            (true, true) => return Err("--resume and --fresh are mutually exclusive".to_string()),
            (true, false) => StoreMode::Resume,
            (false, true) => StoreMode::Fresh,
            (false, false) => StoreMode::Disabled,
        };
        let path = path.ok_or_else(|| "missing scenario file".to_string())?;
        Ok((PathBuf::from(path), cli))
    }
}

/// What a scenario execution produced beyond its stdout/CSV output: the
/// replicate failures, for the binary to report on stderr and turn into its
/// exit code, plus run-store cache statistics and the telemetry profile when
/// either was active.
#[derive(Debug, Default)]
pub struct ExecutionReport {
    /// Replicate failures across the run, recovered ones included.
    pub failures: Vec<CellFailure>,
    /// Size of the run's (cell × seed) replicate product.
    pub replicates: usize,
    /// Replicates that took the result of an identical replicate computed in
    /// this run instead of running (`ReplicatedOutcome::shared`): the store's
    /// "recomputed" count minus this and [`Self::copied_replicates`] is the
    /// number of trainings run.
    pub shared_replicates: usize,
    /// Store misses that took a clone of an identical stored replicate
    /// instead of running (`ReplicatedOutcome::copied`).
    pub copied_replicates: usize,
    /// Run-store cache statistics (hits / recomputes / corrupt degrades)
    /// when the run used `--resume` / `--fresh`; `None` with the store
    /// disabled. Collected even with telemetry off.
    pub cache: Option<CacheStats>,
    /// The rendered telemetry profile table when the run had a telemetry
    /// directory; the binary appends it to the stderr report path.
    pub profile: Option<String>,
}

impl ExecutionReport {
    /// True when no replicate was lost for good (recovered retries are
    /// still clean — their statistics are intact).
    pub fn is_clean(&self) -> bool {
        self.failures.iter().all(|f| f.recovered)
    }

    /// Multi-line failure report (empty string when nothing failed); see
    /// [`harness::failure_report`].
    pub fn failure_report(&self) -> String {
        harness::failure_report(&self.failures)
    }

    /// One stderr line saying how many replicates were served by a shared
    /// training, or `None` when every replicate that ran, ran for itself.
    pub fn sharing_summary(&self) -> Option<String> {
        (self.shared_replicates > 0).then(|| {
            format!(
                "harness: {} of {} replicate(s) reused an identical replicate computed in this run",
                self.shared_replicates, self.replicates
            )
        })
    }

    /// The `harness:` stderr lines: [`Self::sharing_summary`], then how many
    /// replicates were copied from a stored twin; each only when non-zero.
    pub fn harness_summary(&self) -> impl Iterator<Item = String> {
        let copied = (self.copied_replicates > 0).then(|| {
            format!(
                "harness: {} of {} replicate(s) copied from an identical stored replicate",
                self.copied_replicates, self.replicates
            )
        });
        self.sharing_summary().into_iter().chain(copied)
    }
}

/// Resolve the spec + scale + CLI overrides into the shared driver bundle.
fn figure_params(spec: &ScenarioSpec, scale: Scale, cli: &CliOverrides) -> FigureParams {
    FigureParams {
        scale,
        num_seeds: cli.seeds.unwrap_or(spec.num_seeds),
        vary_system: cli.system_seeds || spec.vary_system,
        run_seed: spec.run_seed,
        system_seed: spec.system_seed,
        num_workers: spec.num_workers,
        total_rounds: spec.rounds,
        eval_every: spec.eval_every,
        max_virtual_time: spec.max_virtual_time,
    }
}

/// The canonical form of a resolved scenario that keys its run-store slot:
/// a versioned dump of the fully-resolved spec plus everything outside the
/// spec text that changes results (scale, effective replication). Any
/// difference — an edited key, a different `--seeds`, another scale —
/// hashes to a different slot, so stale replicates can never be loaded.
fn canonical_spec_form(spec: &ScenarioSpec, scale: Scale, params: &FigureParams) -> String {
    // The `[telemetry]` table never changes results, so it must not re-key
    // the store: a `--resume` run with `--telemetry out/` has to find the
    // replicates a plain `--resume` run persisted. Blank the field before
    // formatting so both hash to the same slot.
    let mut spec = spec.clone();
    spec.telemetry = Default::default();
    format!(
        "airfedga-scenario-v1\n{spec:?}\nscale={scale:?}\nnum_seeds={}\nvary_system={}\n",
        params.num_seeds, params.vary_system
    )
}

/// The per-cell retry/timeout policy: the spec's `[limits]` keys over the
/// harness defaults (one retry, no backoff, no timeout).
fn run_policy(spec: &ScenarioSpec) -> RunPolicy {
    let defaults = RunPolicy::default();
    match &spec.limits {
        None => defaults,
        Some(l) => RunPolicy {
            max_retries: l.max_retries.unwrap_or(defaults.max_retries),
            retry_backoff: l.retry_backoff.unwrap_or(defaults.retry_backoff),
            cell_timeout: l.cell_timeout_secs,
        },
    }
}

/// Open (or reset) the run store for this resolved scenario under `root`
/// (`None` root = the default [`STORE_ROOT`]), or `None` when the store is
/// disabled.
fn open_store(
    spec: &ScenarioSpec,
    scale: Scale,
    params: &FigureParams,
    mode: StoreMode,
    root: Option<&Path>,
) -> Result<Option<RunStore>, ScenarioError> {
    let canonical = canonical_spec_form(spec, scale, params);
    let root = root.unwrap_or(Path::new(STORE_ROOT));
    let opened = match mode {
        StoreMode::Disabled => return Ok(None),
        StoreMode::Resume => RunStore::open(root, &canonical),
        StoreMode::Fresh => RunStore::fresh(root, &canonical),
    };
    opened.map(Some).map_err(|e| {
        ScenarioError::new(format!(
            "[{}] cannot open the run store under `{}/`: {e}",
            spec.name,
            root.display()
        ))
    })
}

/// RAII scope of the process-global telemetry switch: a clean slate and
/// recording on for one [`execute`], off again on every way out of it — the
/// error paths and a panic the job server catches included — so one run's
/// counts and spans never reach the next run's artifacts.
struct TelemetryGuard;

impl TelemetryGuard {
    fn install() -> Self {
        telemetry::metrics::reset();
        drop(telemetry::spans::take_sorted());
        telemetry::enable();
        Self
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        telemetry::disable();
    }
}

/// Execute a validated scenario at the given scale with the given CLI
/// overrides. Prints only the kind's headline, tables and `-> wrote` lines
/// (no extra banners — output stays byte-comparable across runs and with the
/// pinned outputs); replicate failures come back in the [`ExecutionReport`]
/// for the binary to print to stderr and turn into its exit code.
pub fn execute(
    spec: &ScenarioSpec,
    scale: Scale,
    cli: &CliOverrides,
) -> Result<ExecutionReport, ScenarioError> {
    let params = figure_params(spec, scale, cli);
    let policy = run_policy(spec);
    let store = open_store(spec, scale, &params, cli.store, cli.store_root.as_deref())?;
    let store_cache = store.as_ref().map(StoreCache::new);
    let results_dir = cli.results_dir.as_deref().unwrap_or(Path::new("results"));
    let cache: &dyn ReplicateCache = match &store_cache {
        Some(c) => c,
        None => &NoCache,
    };

    // Telemetry: the CLI flag wins over the spec's `[telemetry]` table.
    // Everything below only touches stderr and the sidecar directory, so
    // stdout/CSV/runstore bytes are identical whether or not a dir is set.
    let telemetry_dir: Option<PathBuf> = cli
        .telemetry
        .clone()
        .or_else(|| spec.telemetry.dir.clone())
        .map(PathBuf::from);
    let progress_mode = if cli.progress_force {
        telemetry::progress::ProgressMode::Force
    } else {
        match spec.telemetry.progress.as_deref() {
            Some("force") => telemetry::progress::ProgressMode::Force,
            Some("off") => telemetry::progress::ProgressMode::Off,
            _ => telemetry::progress::ProgressMode::Auto,
        }
    };
    telemetry::progress::set_mode(progress_mode);
    let _telemetry = telemetry_dir.as_ref().map(|_| TelemetryGuard::install());

    let grid_span = telemetry::span!("grid");
    let listing = list(spec, &params);
    print!("{}", listing.preamble);
    let layout = lay_out(spec, &params, &listing);
    let plan = params.plan();
    let outcome = run_mechanism_cells(
        &listing.configs,
        listing.cells,
        &EngineOptions {
            total_rounds: listing.rounds,
            eval_every: params.eval(),
            max_virtual_time: params.max_virtual_time,
        },
        &plan,
        &policy,
        cache,
    );
    let renderer = Renderer::new(&plan, results_dir);
    render(spec, &renderer, &layout, &outcome.cells);
    drop(grid_span);

    // Cache statistics are collected even with telemetry off (the atomics
    // live on the `StoreCache` itself), so `--resume` can always summarise.
    let mut report = ExecutionReport {
        replicates: outcome.cells.len() * params.num_seeds.max(1),
        failures: outcome.failures,
        shared_replicates: outcome.shared,
        copied_replicates: outcome.copied,
        cache: store_cache.as_ref().map(StoreCache::stats),
        profile: None,
    };

    if let Some(dir) = &telemetry_dir {
        let profile = telemetry::flush_to_dir(dir).map_err(|e| {
            ScenarioError::new(format!(
                "[{}] cannot write telemetry artifacts to `{}`: {e}",
                spec.name,
                dir.display()
            ))
        })?;
        report.profile = Some(profile);
    }
    Ok(report)
}

/// What a kind runs: everything the one `run_mechanism_cells` call needs,
/// plus the text printed before it.
struct Listing {
    /// The headline, printed before anything runs (empty: no headline).
    preamble: String,
    /// The system variants the cells run on.
    configs: Vec<FlSystemConfig>,
    /// One cell per table cell, in table order.
    cells: Vec<MechanismCell>,
    /// Round budget of every cell.
    rounds: usize,
}

/// The historical scale-dependent ξ grid of an `xi_sweep` without a
/// `[sweep] xi` key.
fn default_xis(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Full => (0..=10).map(|i| i as f64 / 10.0).collect(),
        Scale::Quick => vec![0.0, 0.3, 0.7, 1.0],
    }
}

/// The historical scale-dependent worker counts of a `scalability` sweep
/// without a `[sweep] num_workers` key.
fn default_worker_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![20, 40, 60, 80, 100],
        Scale::Quick => vec![10, 20],
    }
}

/// Which cells a scenario runs.
fn list(spec: &ScenarioSpec, params: &FigureParams) -> Listing {
    let scale = params.scale;
    let base = params.apply(spec.base_config.clone());
    let cell = |config, mechanism: MechanismChoice, xi, label| MechanismCell {
        config,
        mechanism,
        xi,
        label,
    };
    match spec.kind {
        // One cell per mechanism, all on one system (Figs. 3–6 and 9).
        ScenarioKind::TimeAccuracy => Listing {
            preamble: format!(
                "{}\n  workload: {} | {} workers | {} rounds (scale: {scale:?})\n",
                spec.title,
                base.dataset.name,
                base.num_workers,
                params.rounds()
            ),
            cells: spec
                .mechanisms
                .iter()
                .map(|&m| cell(0, m, None, m.label().to_string()))
                .collect(),
            configs: vec![base],
            rounds: params.rounds(),
        },
        // One Air-FedGA cell per ξ, all on one system (Fig. 8). The budget is
        // twice the scale's so slow ξ extremes still reach the targets.
        ScenarioKind::XiSweep => Listing {
            preamble: format!(
                "{} ({} workers, {scale:?} scale)\n\n",
                spec.title, base.num_workers
            ),
            cells: spec
                .sweep_xi
                .clone()
                .unwrap_or_else(|| default_xis(scale))
                .into_iter()
                .map(|xi| {
                    let label = format!("xi={}", fmt_xi(xi));
                    cell(0, MechanismChoice::AirFedGa, Some(xi), label)
                })
                .collect(),
            configs: vec![base],
            rounds: params
                .total_rounds
                .unwrap_or_else(|| scale.total_rounds() * 2),
        },
        // One system per worker count, one cell per (N, mechanism) (Fig. 10).
        ScenarioKind::Scalability => {
            let worker_counts = spec
                .sweep_num_workers
                .clone()
                .unwrap_or_else(|| default_worker_counts(scale));
            let (configs, cells) = scalability_cells(
                &base,
                &worker_counts,
                spec.per_worker_samples,
                &spec.mechanisms,
            );
            Listing {
                preamble: String::new(),
                configs,
                cells,
                rounds: params.rounds(),
            }
        }
        // The generic cross product. Only the worker-count axis affects the
        // system build (ξ and the mechanism act at run time), so there is one
        // system variant per distinct worker count. Mechanisms without a ξ
        // repeat per ξ value in the table but train once per `(N, seed)`: the
        // runner shares that one result among the repeats.
        ScenarioKind::Grid => {
            let grid = expand_grid(spec);
            let mut distinct_ns: Vec<Option<usize>> = Vec::new();
            for cell in &grid {
                if !distinct_ns.contains(&cell.num_workers) {
                    distinct_ns.push(cell.num_workers);
                }
            }
            let mut preamble = format!(
                "{}\n  workload: {} | {} cells | {} rounds | {} seed(s) (scale: {scale:?})\n",
                spec.title,
                base.dataset.name,
                grid.len(),
                params.rounds(),
                params.num_seeds.max(1)
            );
            if params.vary_system {
                preamble.push_str(&resampled_note(&params.plan()));
                preamble.push('\n');
            }
            Listing {
                preamble,
                cells: grid
                    .iter()
                    .map(|g| {
                        // `"N=10 xi=0.3 Air-FedGA"`, minus the axes not swept.
                        let n = g.num_workers.map(|n| format!("N={n} "));
                        let xi = g.xi.map(|xi| format!("xi={} ", fmt_xi(xi)));
                        let label = [n, xi].into_iter().flatten().collect::<String>();
                        let config = distinct_ns.iter().position(|&n| n == g.num_workers);
                        cell(
                            config.expect("every worker count is in distinct_ns"),
                            g.mechanism,
                            g.xi,
                            label + g.mechanism.label(),
                        )
                    })
                    .collect(),
                configs: distinct_ns
                    .iter()
                    .map(|&n| FlSystemConfig {
                        num_workers: n.unwrap_or(base.num_workers),
                        ..base.clone()
                    })
                    .collect(),
                rounds: params.rounds(),
            }
        }
    }
}

/// One time-to-target column per accuracy target: `t@80%` plus `unit`.
fn target_columns<'a>(targets: &'a [f64], unit: &'a str) -> impl Iterator<Item = Column> + 'a {
    targets.iter().map(move |&t| {
        let pct = t * 100.0;
        Column::new(
            Metric::TimeTo(t),
            format!("t@{pct:.0}%{unit}"),
            format!("t{pct:.0}"),
        )
    })
}

/// The columns a `time_accuracy` figure and a `grid` share: the four summary
/// metrics (and, `with_energy`, the energy spent), the time to each target
/// and — only on a faulty workload, so fault-free scenarios keep their
/// historical layout — the two robustness metrics.
fn summary_columns(spec: &ScenarioSpec, with_energy: bool) -> Vec<Column> {
    let mut columns = vec![
        Column::new(Metric::FinalAccuracy, "final acc", "final_acc"),
        Column::new(Metric::FinalLoss, "final loss", "final_loss"),
        Column::new(Metric::AverageRound, "avg round (s)", "avg_round_s"),
        Column::new(Metric::TotalTime, "total time (s)", "total_time_s"),
    ];
    if with_energy {
        columns.push(Column::new(Metric::Energy, "energy (J)", "energy_j"));
    }
    columns.extend(target_columns(&spec.accuracy_targets, " (s)"));
    if !spec.base_config.faults.is_none() {
        columns.push(Column::new(
            Metric::Participation,
            "participation",
            "participation",
        ));
        columns.push(Column::new(
            Metric::RoundsSurvived,
            "rounds survived",
            "rounds_survived",
        ));
    }
    columns
}

/// Which rows and columns a scenario's table shows: one row of key cells per
/// listed cell, and the kind's metrics.
fn lay_out(spec: &ScenarioSpec, params: &FigureParams, listing: &Listing) -> Layout {
    let cells = || listing.cells.iter();
    let workers = |cell: &MechanismCell| listing.configs[cell.config].num_workers.to_string();
    let mechanism = |cell: &MechanismCell| cell.mechanism.label().to_string();
    let xi = |cell: &MechanismCell| cell.xi.expect("a swept xi is on every cell");
    match spec.kind {
        ScenarioKind::TimeAccuracy => Layout {
            title: spec.title.clone(),
            keys: vec![("mechanism", "mechanism")],
            rows: cells().map(|c| vec![mechanism(c)]).collect(),
            columns: summary_columns(spec, true),
            ..Layout::default()
        },
        ScenarioKind::XiSweep => {
            // Group counts are seed-independent (Algorithm 3 is deterministic
            // given the system), so they are computed once per ξ outside the
            // replication, on the replicate-0 system.
            let system = listing.configs[0].build(&mut Rng64::seed_from(params.system_seed));
            let groups = |xi| {
                let mechanism = AirFedGa::new(AirFedGaConfig {
                    xi,
                    ..AirFedGaConfig::default()
                });
                mechanism.grouping_for(&system).num_groups()
            };
            Layout {
                title: "Training time (s) to reach target accuracy vs xi".to_string(),
                keys: vec![("xi", "xi"), ("groups", "groups")],
                rows: run_grid(cells().map(xi).collect(), |xi| {
                    vec![fmt_xi(xi), groups(xi).to_string()]
                }),
                columns: target_columns(&spec.accuracy_targets, "").collect(),
                csv_name: Some(format!("{}_xi_sweep.csv", spec.csv_prefix)),
                ..Layout::default()
            }
        }
        ScenarioKind::Scalability => {
            let title = &spec.title;
            let target = spec.accuracy_targets[0];
            let pct = target * 100.0;
            let round = Column::new(
                Metric::AverageRound,
                format!("{title} (left): average single-round time (s) vs number of workers"),
                "avg_round_s",
            );
            let total = Column::new(
                Metric::TimeTo(target),
                format!(
                    "{title} (right): total time (s) to stable {pct:.0}% accuracy \
                     vs number of workers"
                ),
                format!("time_to_{pct:.0}_s"),
            )
            .counted_as(format!("time_to_{pct:.0}"));
            Layout {
                keys: vec![("N", "n"), ("mechanism", "mechanism")],
                rows: cells().map(|c| vec![workers(c), mechanism(c)]).collect(),
                columns: vec![round, total],
                csv_name: Some(format!("{}_scalability.csv", spec.csv_prefix)),
                seeds_column: true,
                ..Layout::default()
            }
        }
        ScenarioKind::Grid => {
            // The swept axes are key columns; the others are not shown.
            let has_n = spec.sweep_num_workers.is_some();
            let has_xi = spec.sweep_xi.is_some();
            let keys = [
                has_n.then_some(("N", "n")),
                has_xi.then_some(("xi", "xi")),
                Some(("mechanism", "mechanism")),
            ];
            let row = |c: &MechanismCell| {
                let row = [
                    has_n.then(|| workers(c)),
                    has_xi.then(|| fmt_xi(xi(c))),
                    Some(mechanism(c)),
                ];
                row.into_iter().flatten().collect()
            };
            Layout {
                title: spec.title.clone(),
                keys: keys.into_iter().flatten().collect(),
                rows: cells().map(row).collect(),
                columns: summary_columns(spec, false),
                csv_name: Some(format!("{}_grid.csv", spec.csv_prefix)),
                seeds_column: true,
                grid_counts: true,
            }
        }
    }
}

/// Hand the folded cells to the renderer, in the order the kind prints.
fn render(spec: &ScenarioSpec, renderer: &Renderer, layout: &Layout, cells: &[Option<CellStats>]) {
    match spec.kind {
        ScenarioKind::TimeAccuracy => {
            renderer.banner("cells are mean±std", "\n");
            renderer.table(layout, cells);
            renderer.traces(&spec.title, &spec.csv_prefix, cells);
            if let Some(target) = spec.speedup_target {
                print_speedups(cells, target);
            }
            if !spec.energy_targets.is_empty() {
                renderer.table(&energy_layout(spec, layout), cells);
            }
        }
        ScenarioKind::XiSweep => {
            renderer.banner("cells are mean±std [reached/total]", "\n\n");
            renderer.table(layout, cells);
        }
        ScenarioKind::Scalability => {
            let heads: Vec<&str> = spec.mechanisms.iter().map(|m| m.label()).collect();
            renderer.pivot(layout, &heads, cells);
        }
        ScenarioKind::Grid => renderer.table(layout, cells),
    }
}

/// The Fig. 9 energy table under a `time_accuracy` figure: aggregation
/// energy (J) each mechanism spent to reach the spec's `run.energy_targets`,
/// on the figure's rows.
fn energy_layout(spec: &ScenarioSpec, figure: &Layout) -> Layout {
    let title = "Aggregation energy (J) to reach target accuracy";
    Layout {
        title: match &spec.energy_label {
            Some(label) => format!("{title} — {label}"),
            None => title.to_string(),
        },
        keys: figure.keys.clone(),
        rows: figure.rows.clone(),
        columns: (spec.energy_targets.iter().zip(1..))
            .map(|(&t, i)| Column::table_only(Metric::EnergyTo(t), format!("E@t{i}")))
            .collect(),
        ..Layout::default()
    }
}

/// Print the paper's headline speed-up claim for a figure's surviving
/// cells: how much faster Air-FedGA's canonical (first-seed) run reaches
/// `target` accuracy than each other mechanism's.
fn print_speedups(cells: &[Option<CellStats>], target: f64) {
    let ours = MechanismChoice::AirFedGa.label();
    let summaries = || cells.iter().flatten().map(CellStats::first);
    let Some(ga) = summaries()
        .find(|s| s.mechanism == ours)
        .and_then(|s| s.time_to_accuracy(target))
    else {
        println!(
            "{ours} did not reach a stable {:.0}% accuracy in this run",
            target * 100.0
        );
        return;
    };
    for s in summaries() {
        if s.mechanism == ours {
            continue;
        }
        match s.time_to_accuracy(target) {
            Some(t) => println!(
                "  {ours} reaches {:.0}% accuracy {:.1}% faster than {} ({:.0}s vs {:.0}s)",
                target * 100.0,
                (1.0 - ga / t) * 100.0,
                s.mechanism,
                ga,
                t
            ),
            None => println!(
                "  {} never stably reached {:.0}% accuracy ({ours}: {:.0}s)",
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

    /// Overrides whose run store and results directory live under a temp
    /// dir of the test's own, so no test shares a store slot or a CSV, or
    /// leaves one in the source tree.
    fn hermetic(tag: &str) -> CliOverrides {
        let root = std::env::temp_dir().join(format!("scenario_run_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        CliOverrides {
            results_dir: Some(root.join("results")),
            store_root: Some(root),
            ..CliOverrides::default()
        }
    }

    /// End-to-end smoke: a tiny grid scenario runs green from the spec text
    /// alone, exercising parse → validate → expand → replicated run → report.
    #[test]
    fn tiny_grid_scenario_runs_end_to_end() {
        let src = r#"
[scenario]
name = "test_scenario_grid"
kind = "grid"
title = "test grid scenario"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let cli = hermetic("tiny_grid");
        let report = execute(&spec, Scale::Quick, &cli).unwrap();
        assert!(report.is_clean());
        assert!(report.failure_report().is_empty());
        // Air-FedAvg has no xi: its xi=1.0 cell reuses the xi=0.3 training.
        assert_eq!((report.replicates, report.shared_replicates), (4, 1));
        assert!(report
            .sharing_summary()
            .is_some_and(|line| line.starts_with("harness: 1 of 4 replicate(s) reused")));
        // And replicated, with system re-sampling.
        let report = execute(
            &spec,
            Scale::Quick,
            &CliOverrides {
                seeds: Some(2),
                system_seeds: true,
                ..cli
            },
        )
        .unwrap();
        assert!(report.is_clean());
    }

    /// A grid scenario with a `[faults]` table runs end-to-end: churn plus a
    /// straggler deadline, replicated, with the robustness columns appended.
    #[test]
    fn faulty_grid_scenario_runs_end_to_end() {
        let src = r#"
[scenario]
name = "test_scenario_churn"
kind = "grid"
title = "test churn grid scenario"

[system]
workload = "mnist_lr_quick"

[faults]
preset = "churn:0.002"
straggler_fraction = 0.3
straggler_slowdown = 3.0
deadline = 400

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        assert!(!spec.base_config.faults.is_none());
        assert!(execute(&spec, Scale::Quick, &hermetic("faulty_grid"))
            .unwrap()
            .is_clean());
    }

    #[test]
    fn default_grids_match_the_historical_binaries() {
        assert_eq!(default_xis(Scale::Quick), vec![0.0, 0.3, 0.7, 1.0]);
        assert_eq!(default_xis(Scale::Full).len(), 11);
        assert_eq!(default_worker_counts(Scale::Full), [20, 40, 60, 80, 100]);
        assert_eq!(default_worker_counts(Scale::Quick), [10, 20]);
    }

    /// Replicate 0 of a multi-seed figure IS the single-seed figure: the
    /// per-mechanism trace CSV keeps its name and bytes at any seed count,
    /// and the error-bar series beside it covers every seed.
    #[test]
    fn replicated_figure_keeps_the_first_seed_canonical() {
        let src = r#"
[scenario]
name = "test_scenario_canonical"
kind = "time_accuracy"
title = "test canonical first seed"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 6
eval_every = 2
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let hermetic = hermetic("canonical");
        let results = hermetic.results_dir.clone().unwrap();
        let trace = results.join("test_scenario_canonical_air_fedga.csv");
        let bars = results.join("test_scenario_canonical_air_fedga_errorbars.csv");
        let run = |seeds| {
            let cli = CliOverrides {
                seeds: Some(seeds),
                ..hermetic.clone()
            };
            assert!(execute(&spec, Scale::Quick, &cli).unwrap().is_clean());
            std::fs::read_to_string(&trace).unwrap()
        };
        let single = run(1);
        assert!(!bars.exists(), "one seed has no error bars");
        assert_eq!(run(3), single);
        let bars = std::fs::read_to_string(bars).unwrap();
        assert_eq!(bars.lines().count(), single.lines().count());
        assert!(bars
            .lines()
            .skip(1)
            .all(|l| l.split(',').nth(1) == Some("3")));
    }

    /// A time_accuracy scenario with registry components no figure binary
    /// exposes (Dirichlet partition + OMA baselines on quick LR).
    #[test]
    fn novel_time_accuracy_combination_runs() {
        let src = r#"
[scenario]
name = "test_scenario_dirichlet"
kind = "time_accuracy"
title = "test dirichlet scenario"

[system]
workload = "mnist_lr_quick"
partitioner = "dirichlet:0.5"

[run]
mechanisms = ["fedavg", "tifl"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
speedup_target = 0.5
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let report = execute(&spec, Scale::Quick, &hermetic("novel")).unwrap();
        assert!(report.is_clean());
        // Two mechanisms, two computations: nothing to share, nothing said.
        assert_eq!(report.sharing_summary(), None);
    }

    /// An injected panic in one cell leaves the grid's survivors intact and
    /// comes back as an unrecovered failure in the report (retries are
    /// disabled so the panic cannot heal) — the driver turns this into a
    /// nonzero exit.
    #[test]
    fn injected_panic_surfaces_in_the_execution_report() {
        let src = r#"
[scenario]
name = "test_scenario_panic"
kind = "grid"
title = "test injected-panic grid"

[system]
workload = "mnist_lr_quick"

[faults]
inject_panic_round = 2

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [1.0]

[limits]
max_retries = 0
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let report = execute(&spec, Scale::Quick, &hermetic("panic")).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.failures.len(), 1);
        assert!(!report.failures[0].recovered);
        assert!(report.failures[0].message.contains("injected fault"));
        let text = report.failure_report();
        assert!(text.contains("replicate(s) panicked"));
        assert!(text.contains("FAILED (no retry)"));
    }

    /// The crash-safe round trip: a `--fresh` run populates the store, and
    /// a `--resume` rerun replays every replicate from disk — same clean
    /// report, byte-identical CSV, and no new journal entries (nothing was
    /// recomputed).
    #[test]
    fn fresh_then_resume_replays_identical_csv_bytes() {
        let src = r#"
[scenario]
name = "test_scenario_resume"
kind = "grid"
title = "test resume round trip"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let fresh = CliOverrides {
            store: StoreMode::Fresh,
            ..hermetic("resume")
        };
        let populate = execute(&spec, Scale::Quick, &fresh).unwrap();
        assert!(populate.is_clean());
        // A fresh store has nothing to hit: every replicate recomputes.
        let stats = populate.cache.expect("store was active");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 4);
        let csv = fresh.results_dir.clone().unwrap();
        let csv = csv.join("test_scenario_resume_grid.csv");
        let first = std::fs::read(&csv).unwrap();
        std::fs::remove_file(&csv).unwrap();

        // 2 cells × 2 seeds, all persisted by the fresh run.
        let params = figure_params(&spec, Scale::Quick, &fresh);
        let root = fresh.store_root.as_deref();
        let store = open_store(&spec, Scale::Quick, &params, StoreMode::Resume, root)
            .unwrap()
            .unwrap();
        assert_eq!(store.completed(), 4);
        assert_eq!(store.journal_len(), 4);

        let resume = CliOverrides {
            store: StoreMode::Resume,
            ..fresh.clone()
        };
        let replay = execute(&spec, Scale::Quick, &resume).unwrap();
        assert!(replay.is_clean());
        assert_eq!(std::fs::read(csv).unwrap(), first);
        // Every replicate was a cache hit — nothing was re-stored.
        assert_eq!(store.journal_len(), 4);
        // And the report carries the cache statistics (telemetry off).
        let stats = replay.cache.expect("store was active");
        assert_eq!(
            stats,
            CacheStats {
                hits: 4,
                misses: 0,
                corrupt_degraded: 0
            }
        );
        assert!(stats.summary().contains("4 hit(s)"));
        std::fs::remove_dir_all(root.unwrap()).unwrap();
    }

    /// A `[telemetry]` table must not re-key the run store: a resumed run
    /// with `--telemetry out/` has to find the replicates a plain run
    /// persisted, so the canonical spec form excludes the table entirely.
    #[test]
    fn telemetry_table_does_not_rekey_the_store() {
        let base = r#"
[scenario]
name = "test_scenario_rekey"
kind = "grid"
title = "test telemetry rekey"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [1.0]
"#;
        let with_telemetry =
            format!("{base}\n[telemetry]\ndir = \"out/tel\"\nprogress = \"force\"\n");
        let plain = ScenarioSpec::parse(base).unwrap();
        let telem = ScenarioSpec::parse(&with_telemetry).unwrap();
        assert_ne!(plain.telemetry, telem.telemetry);
        let cli = hermetic("rekey");
        let params = figure_params(&plain, Scale::Quick, &cli);
        assert_eq!(
            canonical_spec_form(&plain, Scale::Quick, &params),
            canonical_spec_form(&telem, Scale::Quick, &params)
        );
    }

    /// The run-store slot of every committed spec, at both scales with no
    /// CLI overrides, pinned by name. The canonical form is the spec's
    /// `Debug` text, so renaming any field or variant inside
    /// [`ScenarioSpec`] re-keys every slot and orphans every stored
    /// replicate: that must be a decision, not an accident of a refactor.
    #[test]
    fn committed_specs_keep_their_store_slot_names() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "toml"))
            .collect();
        paths.sort();
        let cli = hermetic("slot_names");
        let root = cli.store_root.as_deref();
        let mut slots = String::new();
        for path in &paths {
            let spec = ScenarioSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            for scale in [Scale::Quick, Scale::Full] {
                let params = figure_params(&spec, scale, &cli);
                let store = open_store(&spec, scale, &params, StoreMode::Resume, root)
                    .unwrap()
                    .unwrap();
                let slot = store.spec_dir().file_name().unwrap().to_string_lossy();
                slots.push_str(&format!("{} {scale:?} {slot}\n", spec.name));
            }
        }
        std::fs::remove_dir_all(root.unwrap()).unwrap();
        assert_eq!(slots, include_str!("../tests/golden/slot_names.txt"));
    }

    /// The hard telemetry invariant, in-process: running the same grid with
    /// telemetry off and then on produces byte-identical CSV output, while
    /// the on-run additionally writes the three sidecar artifacts and hands
    /// the rendered profile back in the report.
    #[test]
    fn telemetry_on_and_off_produce_identical_csv_bytes() {
        let src = r#"
[scenario]
name = "test_scenario_telemetry"
kind = "grid"
title = "test telemetry byte identity"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let hermetic = hermetic("telemetry");
        let csv = hermetic.results_dir.clone().unwrap();
        let csv = csv.join("test_scenario_telemetry_grid.csv");

        let off = execute(&spec, Scale::Quick, &hermetic).unwrap();
        assert!(off.is_clean());
        assert!(off.profile.is_none());
        let off_bytes = std::fs::read(&csv).unwrap();
        std::fs::remove_file(&csv).unwrap();

        let dir = std::env::temp_dir().join("scenario_telemetry_on_off_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cli = CliOverrides {
            telemetry: Some(dir.display().to_string()),
            ..hermetic
        };
        let on = execute(&spec, Scale::Quick, &cli).unwrap();
        assert!(on.is_clean());
        let on_bytes = std::fs::read(csv).unwrap();
        assert_eq!(off_bytes, on_bytes, "telemetry changed CSV bytes");

        for artifact in ["spans.jsonl", "metrics.json", "profile.json"] {
            assert!(dir.join(artifact).exists(), "missing {artifact}");
        }
        let spans = std::fs::read_to_string(dir.join("spans.jsonl")).unwrap();
        assert!(spans.contains("\"span\": \"grid\""));
        assert!(spans.contains("\"span\": \"replicate\""));
        assert!(spans.contains("\"span\": \"round\""));
        let profile = on.profile.expect("telemetry run renders a profile");
        assert!(profile.contains("run profile"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Child half of the matrix test below: inert in a normal test run,
    /// but when spawned with `TELEMETRY_MATRIX_CHILD=<dir>` (and pinned
    /// `PARALLEL_THREADS`/`PARALLEL_CHUNKS`, which are read once per
    /// process — hence the subprocess) it runs a small grid with telemetry
    /// on and leaves `metrics.json` in `<dir>`.
    #[test]
    fn matrix_child_writes_logical_fingerprint() {
        let Ok(dir) = std::env::var("TELEMETRY_MATRIX_CHILD") else {
            return;
        };
        let src = r#"
[scenario]
name = "test_scenario_matrix"
kind = "grid"
title = "test telemetry matrix"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let cli = CliOverrides {
            telemetry: Some(dir),
            ..hermetic("matrix")
        };
        assert!(execute(&spec, Scale::Quick, &cli).unwrap().is_clean());
    }

    /// The logical-plane determinism invariant: `metrics.json` (logical
    /// counters only) is byte-identical between a sequential 1×1 schedule
    /// and a 4-thread × 16-chunk schedule of the same grid. Spawns the test
    /// binary twice because the `parallel` crate reads its env pins once per
    /// process.
    #[test]
    fn logical_metrics_identical_across_thread_chunk_matrix() {
        let exe = std::env::current_exe().unwrap();
        let root = std::env::temp_dir().join("scenario_telemetry_matrix_test");
        let _ = std::fs::remove_dir_all(&root);
        let spawn = |threads: &str, chunks: &str, sub: &str| {
            let dir = root.join(sub);
            let out = std::process::Command::new(&exe)
                .args([
                    "run::tests::matrix_child_writes_logical_fingerprint",
                    "--exact",
                ])
                .env("TELEMETRY_MATRIX_CHILD", &dir)
                .env("PARALLEL_THREADS", threads)
                .env("PARALLEL_CHUNKS", chunks)
                .output()
                .expect("spawn matrix child");
            assert!(
                out.status.success(),
                "matrix child {threads}x{chunks} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            std::fs::read(dir.join("metrics.json")).expect("child wrote metrics.json")
        };
        let seq = spawn("1", "1", "seq");
        let par = spawn("4", "16", "par");
        assert!(!seq.is_empty());
        assert_eq!(
            seq,
            par,
            "logical metrics differ across schedules:\n{}",
            String::from_utf8_lossy(&seq)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Tiny sweep-kind specs; `NAME` is replaced per test so concurrent tests
    /// never share a CSV file or a store slot.
    const TINY_XI_SWEEP: &str = r#"
[scenario]
name = "NAME"
kind = "xi_sweep"
title = "test xi sweep"

[system]
workload = "mnist_lr_quick"

[run]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
xi = [0.3, 1.0]
"#;

    const TINY_SCALABILITY: &str = r#"
[scenario]
name = "NAME"
kind = "scalability"
title = "test scalability"

[run]
mechanisms = ["air-fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2
seeds = 2

[sweep]
num_workers = [5, 8]

[system]
workload = "mnist_lr_quick"
"#;

    /// The sweep kinds go through the same runner as the other two, so the
    /// run store works for them: `--fresh` computes and persists every
    /// replicate, `--resume` replays all of them to identical CSV bytes.
    #[test]
    fn sweep_kinds_resume_to_identical_csv_bytes() {
        let hermetic = hermetic("sweep_store");
        for (src, csv, replicates) in [
            (TINY_XI_SWEEP, "test_scenario_store_xi_sweep.csv", 4),
            (TINY_SCALABILITY, "test_scenario_store_scalability.csv", 8),
        ] {
            let spec = ScenarioSpec::parse(&src.replace("NAME", "test_scenario_store")).unwrap();
            let run = |store: StoreMode| {
                let cli = CliOverrides {
                    store,
                    ..hermetic.clone()
                };
                let report = execute(&spec, Scale::Quick, &cli).unwrap();
                assert!(report.is_clean());
                let csv = cli.results_dir.unwrap().join(csv);
                let bytes = std::fs::read(&csv).unwrap();
                std::fs::remove_file(&csv).unwrap();
                (report.cache.expect("store was active"), bytes)
            };
            let (fresh_stats, fresh_bytes) = run(StoreMode::Fresh);
            assert_eq!(fresh_stats.hits, 0);
            assert_eq!(fresh_stats.misses, replicates);
            let (resume_stats, resume_bytes) = run(StoreMode::Resume);
            assert!(resume_stats.all_hits(), "{}", resume_stats.summary());
            assert_eq!(resume_stats.hits, replicates);
            assert_eq!(fresh_bytes, resume_bytes, "{csv} changed on resume");
        }
        std::fs::remove_dir_all(hermetic.store_root.unwrap()).unwrap();
    }

    /// `[limits]` and panic isolation apply to the sweep kinds too: an
    /// injected panic is a labelled, unrecovered failure per replicate (the
    /// binary's `EXIT_FAILURES`), not an abort.
    #[test]
    fn injected_panic_in_a_sweep_kind_is_a_labelled_failure() {
        let broken = "\n[faults]\ninject_panic_round = 2\n\n[limits]\nmax_retries = 0\n";
        for (src, first_label) in [
            (TINY_XI_SWEEP, "xi=0.3 seed 4242"),
            (TINY_SCALABILITY, "N=5 Air-FedAvg seed 4242"),
        ] {
            let src = format!("{src}{broken}").replace("NAME", "test_scenario_sweep_panic");
            let spec = ScenarioSpec::parse(&src).unwrap();
            let report = execute(&spec, Scale::Quick, &hermetic("sweep_panic")).unwrap();
            assert!(!report.is_clean());
            let first = &report.failures[0];
            assert_eq!((first.index, first.label.as_str()), (0, first_label));
            assert!(
                first.message.contains("injected fault"),
                "{}",
                first.message
            );
            assert!(report
                .failures
                .iter()
                .all(|f| !f.recovered && f.attempts == 1));
            assert!(report.failure_report().contains("FAILED (no retry)"));
        }
    }
}
