//! The typed scenario spec: validation, defaulting and sweep expansion.
//!
//! [`ScenarioSpec::parse`] turns a scenario document into a fully-resolved,
//! validated spec: every component name is resolved through the
//! [`registry`], every key is type-checked with line-numbered errors, and
//! **unknown keys are rejected** (a typo'd key fails loudly instead of
//! silently running the default). `run` then maps the spec onto what the
//! replicate runner takes — `FlSystemConfig`s, an `experiments::FigureParams`
//! and one cell per table cell (the flat [`GridCell`] list for the generic
//! `grid`).
//!
//! ## Sweep expansion order
//!
//! [`expand_grid`] expands the sweep cross-product **deterministically and
//! independently of key order in the file**: `num_workers` is the outermost
//! axis, then `xi`, then `mechanisms` (innermost), each in the order its
//! values are written. So `num_workers = [10, 20]`, `xi = [0.1, 0.3]`,
//! `mechanisms = ["fedavg", "air-fedga"]` yields cells
//! `(10, 0.1, fedavg), (10, 0.1, air-fedga), (10, 0.3, fedavg), …,
//! (20, 0.3, air-fedga)` — the row order of the printed table and CSV, and
//! the cell order handed to the deterministic parallel grid.

use crate::registry;
use crate::toml::{self, Node, TomlTable, Value};
use crate::ScenarioError;
use airfedga::system::FlSystemConfig;
use experiments::harness::MechanismChoice;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Which driver shape a scenario executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Loss/accuracy-vs-time comparison of mechanisms on one system (the
    /// Figs. 3–6 / Fig. 9 shape).
    TimeAccuracy,
    /// Air-FedGA ξ-sweep (the Fig. 8 shape).
    XiSweep,
    /// Worker-count sweep over mechanisms (the Fig. 10 shape).
    Scalability,
    /// Generic cross-product sweep (`num_workers × xi × mechanisms`) with a
    /// summary table/CSV — combinations no figure binary exposes.
    Grid,
}

impl ScenarioKind {
    fn from_key(key: &str, line: usize) -> Result<Self, ScenarioError> {
        match key {
            "time_accuracy" => Ok(ScenarioKind::TimeAccuracy),
            "xi_sweep" => Ok(ScenarioKind::XiSweep),
            "scalability" => Ok(ScenarioKind::Scalability),
            "grid" => Ok(ScenarioKind::Grid),
            _ => Err(ScenarioError::at(
                line,
                format!(
                    "unknown scenario kind {key:?}; available: time_accuracy, xi_sweep, \
                     scalability, grid"
                ),
            )),
        }
    }
}

/// A fully-resolved, validated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (`[scenario] name`).
    pub name: String,
    /// Driver shape (`[scenario] kind`).
    pub kind: ScenarioKind,
    /// Title printed by the driver (`[scenario] title`).
    pub title: String,
    /// Base name of the CSV outputs (`[scenario] csv_prefix`, default the
    /// scenario name).
    pub csv_prefix: String,
    /// The resolved workload, pre-scale (`[system]`).
    pub base_config: FlSystemConfig,
    /// Explicit worker-count override; wins over the scale preset.
    pub num_workers: Option<usize>,
    /// System-construction seed (`[system] seed`, default 42).
    pub system_seed: u64,
    /// Mechanisms compared (`[run] mechanisms`; empty only for `xi_sweep`,
    /// which is Air-FedGA by definition).
    pub mechanisms: Vec<MechanismChoice>,
    /// Accuracy targets reported (`[run] accuracy_targets`).
    pub accuracy_targets: Vec<f64>,
    /// Print the Air-FedGA speed-up lines at this target
    /// (`[run] speedup_target`; `time_accuracy` only).
    pub speedup_target: Option<f64>,
    /// Print the aggregation-energy table at these accuracy targets
    /// (`[run] energy_targets`; `time_accuracy` only — the Fig. 9 shape).
    pub energy_targets: Vec<f64>,
    /// Workload label in the energy table's title (`[run] energy_label`;
    /// requires `energy_targets`).
    pub energy_label: Option<String>,
    /// Explicit round budget (`[run] rounds`; default scale-dependent).
    pub rounds: Option<usize>,
    /// Explicit evaluation cadence (`[run] eval_every`).
    pub eval_every: Option<usize>,
    /// Virtual-time budget in seconds (`[run] max_virtual_time`).
    pub max_virtual_time: Option<f64>,
    /// Base run seed (`[run] seed`, default 4242; replicate `r` adds `r`).
    pub run_seed: u64,
    /// Replication count (`[run] seeds`, default 1; the `--seeds` CLI flag
    /// overrides it).
    pub num_seeds: usize,
    /// Re-sample the system per replicate (`[run] system_seeds`, default
    /// false; the `--system-seeds` CLI flag turns it on too).
    pub vary_system: bool,
    /// ξ sweep axis (`[sweep] xi`; `xi_sweep` default is the historical
    /// scale-dependent grid).
    pub sweep_xi: Option<Vec<f64>>,
    /// Worker-count sweep axis (`[sweep] num_workers`).
    pub sweep_num_workers: Option<Vec<usize>>,
    /// Per-worker shard size of the scalability sweep
    /// (`[sweep] per_worker_samples`, default 30).
    pub per_worker_samples: usize,
    /// Per-cell execution limits (`[limits]`). `None` — no table — keeps the
    /// historical behaviour.
    pub limits: Option<RunLimits>,
    /// Observability settings (`[telemetry]`). A pure side-channel: the
    /// default-reset copy is what the canonical spec form hashes, so these
    /// settings never re-key the runstore or change results.
    pub telemetry: TelemetrySettings,
}

/// The `[limits]` table: per-cell retry/timeout policy for the replicate
/// runner. Absent keys fall back to the harness defaults (one retry, no
/// backoff, no timeout).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunLimits {
    /// Wall-clock watchdog per cell attempt, seconds
    /// (`limits.cell_timeout_secs`).
    pub cell_timeout_secs: Option<f64>,
    /// Bounded retries after a failed attempt (`limits.max_retries`;
    /// 0 = fail fast).
    pub max_retries: Option<usize>,
    /// Base backoff in seconds between retries — retry `k` sleeps
    /// `k * retry_backoff` first (`limits.retry_backoff`).
    pub retry_backoff: Option<f64>,
}

/// The `[telemetry]` table: where (and whether) to write observability
/// artifacts. Purely additive — stdout, CSVs and runstore bytes are
/// identical with or without it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySettings {
    /// Sink directory for `spans.jsonl` / `metrics.json` / `profile.json`
    /// (`telemetry.dir`; the `--telemetry <dir>` CLI flag overrides it).
    pub dir: Option<String>,
    /// Progress-reporter policy (`telemetry.progress`: `"auto"` renders on a
    /// TTY only, `"force"` always, `"off"` never; the `--progress` CLI flag
    /// forces it on).
    pub progress: Option<String>,
}

/// One expanded cell of a `grid` scenario. Axis fields are `None` when the
/// spec does not sweep that axis (the base config's value applies).
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Worker count, when `[sweep] num_workers` is present.
    pub num_workers: Option<usize>,
    /// Air-FedGA ξ, when `[sweep] xi` is present (ignored by mechanisms
    /// without a ξ parameter).
    pub xi: Option<f64>,
    /// The mechanism this cell runs.
    pub mechanism: MechanismChoice,
}

/// Expand a `grid` scenario's sweep axes into the flat, deterministically
/// ordered cell list (see the module docs for the order contract).
pub fn expand_grid(spec: &ScenarioSpec) -> Vec<GridCell> {
    let workers: Vec<Option<usize>> = match &spec.sweep_num_workers {
        Some(ns) => ns.iter().map(|&n| Some(n)).collect(),
        None => vec![None],
    };
    let xis: Vec<Option<f64>> = match &spec.sweep_xi {
        Some(xs) => xs.iter().map(|&x| Some(x)).collect(),
        None => vec![None],
    };
    let mut cells = Vec::with_capacity(workers.len() * xis.len() * spec.mechanisms.len());
    for &n in &workers {
        for &xi in &xis {
            for &mechanism in &spec.mechanisms {
                cells.push(GridCell {
                    num_workers: n,
                    xi,
                    mechanism,
                });
            }
        }
    }
    cells
}

/// Typed, typo-rejecting view over one parsed table: every accessor records
/// the key it consumed, and [`SpecReader::finish`] fails on leftovers.
struct SpecReader<'a> {
    table: &'a TomlTable,
    path: &'static str,
    used: RefCell<BTreeSet<String>>,
}

impl<'a> SpecReader<'a> {
    fn new(table: &'a TomlTable, path: &'static str) -> Self {
        Self {
            table,
            path,
            used: RefCell::new(BTreeSet::new()),
        }
    }

    fn ctx(&self, key: &str) -> String {
        if self.path.is_empty() {
            format!("`{key}`")
        } else {
            format!("`{}.{key}`", self.path)
        }
    }

    fn entry(&self, key: &str) -> Result<Option<(&'a Value, usize)>, ScenarioError> {
        self.used.borrow_mut().insert(key.to_string());
        match self.table.get(key) {
            None => Ok(None),
            Some(Node::Value(e)) => Ok(Some((&e.value, e.line))),
            Some(Node::Table(t)) => Err(ScenarioError::at(
                t.line,
                format!("{} must be a value, not a table", self.ctx(key)),
            )),
        }
    }

    fn mismatch(&self, key: &str, expected: &str, v: &Value, line: usize) -> ScenarioError {
        ScenarioError::at(
            line,
            format!(
                "{}: expected {expected}, found {}",
                self.ctx(key),
                v.type_name()
            ),
        )
    }

    fn str_opt(&self, key: &str) -> Result<Option<(String, usize)>, ScenarioError> {
        match self.entry(key)? {
            None => Ok(None),
            Some((Value::Str(s), line)) => Ok(Some((s.clone(), line))),
            Some((v, line)) => Err(self.mismatch(key, "a string", v, line)),
        }
    }

    fn required_str(&self, key: &str) -> Result<(String, usize), ScenarioError> {
        self.str_opt(key)?.ok_or_else(|| {
            ScenarioError::at(
                self.table.line.max(1),
                format!("missing required key {}", self.ctx(key)),
            )
        })
    }

    /// A `usize` key that must be at least 1 when present — run shapes like
    /// round budgets, where 0 would only fail later inside an engine assert
    /// without file/line context.
    fn positive_usize_opt(&self, key: &str) -> Result<Option<usize>, ScenarioError> {
        match self.entry(key)? {
            None => Ok(None),
            Some((Value::Int(i), line)) => {
                if *i >= 1 {
                    Ok(Some(*i as usize))
                } else {
                    Err(ScenarioError::at(
                        line,
                        format!("{} must be at least 1, got {i}", self.ctx(key)),
                    ))
                }
            }
            Some((v, line)) => Err(self.mismatch(key, "an integer", v, line)),
        }
    }

    fn u64_opt(&self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.entry(key)? {
            None => Ok(None),
            Some((Value::Int(i), line)) => u64::try_from(*i).map(Some).map_err(|_| {
                ScenarioError::at(
                    line,
                    format!("{} must be non-negative, got {i}", self.ctx(key)),
                )
            }),
            Some((v, line)) => Err(self.mismatch(key, "an integer", v, line)),
        }
    }

    /// An `f64` key that must be finite and satisfy `check` when present;
    /// `expect` describes the requirement in the error message.
    fn f64_checked_opt(
        &self,
        key: &str,
        expect: &str,
        check: impl Fn(f64) -> bool,
    ) -> Result<Option<f64>, ScenarioError> {
        match self.entry(key)? {
            None => Ok(None),
            Some((v, line)) => {
                let x = match v {
                    Value::Float(f) => *f,
                    Value::Int(i) => *i as f64,
                    other => return Err(self.mismatch(key, "a number", other, line)),
                };
                if x.is_finite() && check(x) {
                    Ok(Some(x))
                } else {
                    Err(ScenarioError::at(
                        line,
                        format!("{} must be {expect}, got {x}", self.ctx(key)),
                    ))
                }
            }
        }
    }

    fn bool_opt(&self, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.entry(key)? {
            None => Ok(None),
            Some((Value::Bool(b), _)) => Ok(Some(*b)),
            Some((v, line)) => Err(self.mismatch(key, "a boolean", v, line)),
        }
    }

    /// An array key whose every item `item` accepts; `what` names the
    /// expected type in the error message.
    fn array_opt<T>(
        &self,
        key: &str,
        what: &str,
        item: impl Fn(&Value) -> Option<T>,
    ) -> Result<Option<(Vec<T>, usize)>, ScenarioError> {
        match self.entry(key)? {
            None => Ok(None),
            Some((Value::Array(items), line)) => items
                .iter()
                .map(|v| item(v).ok_or_else(|| self.mismatch(key, what, v, line)))
                .collect::<Result<_, _>>()
                .map(|out| Some((out, line))),
            Some((v, line)) => Err(self.mismatch(key, what, v, line)),
        }
    }

    /// An array of numbers that each pass `check`; the first that fails is
    /// reported as "`name` <x> must lie in `range`".
    fn numbers_opt(
        &self,
        key: &str,
        name: &str,
        range: &str,
        check: impl Fn(f64) -> bool,
    ) -> Result<Option<(Vec<f64>, usize)>, ScenarioError> {
        let Some((xs, line)) = self.array_opt(key, "an array of numbers", |v| match v {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        })?
        else {
            return Ok(None);
        };
        match xs.iter().find(|&&x| !check(x)) {
            Some(x) => Err(ScenarioError::at(
                line,
                format!("{name} {x} must lie in {range}"),
            )),
            None => Ok(Some((xs, line))),
        }
    }

    /// Fail when `key` is present although only scenarios of kind `only`
    /// read it — the driver for `kind` would silently ignore it.
    fn only_for_kind(&self, key: &str, kind: &str, only: &str) -> Result<(), ScenarioError> {
        match self.table.get(key) {
            Some(Node::Value(e)) if kind != only => Err(ScenarioError::at(
                e.line,
                format!("{} applies only to {only} scenarios", self.ctx(key)),
            )),
            _ => Ok(()),
        }
    }

    /// Fail on any key no accessor consumed — typos never silently default.
    fn finish(&self) -> Result<(), ScenarioError> {
        let used = self.used.borrow();
        let unknown: Vec<(String, usize)> = self
            .table
            .keys()
            .filter(|(k, _)| !used.contains(*k))
            .map(|(k, line)| (self.ctx(k), line))
            .collect();
        match unknown.first() {
            None => Ok(()),
            Some((_, line)) => {
                let names: Vec<&str> = unknown.iter().map(|(k, _)| k.as_str()).collect();
                Err(ScenarioError::at(
                    *line,
                    format!("unrecognised key(s): {}", names.join(", ")),
                ))
            }
        }
    }
}

/// Attach a registry/validation error to the line a key was written on.
fn at_line<T>(r: Result<T, ScenarioError>, line: usize) -> Result<T, ScenarioError> {
    r.map_err(|e| ScenarioError {
        line: e.line.or(Some(line)),
        ..e
    })
}

impl ScenarioSpec {
    /// Parse and validate a scenario document against the [`registry`].
    pub fn parse(src: &str) -> Result<Self, ScenarioError> {
        let doc = toml::parse(src)?;
        let root = SpecReader::new(&doc, "");

        // [scenario] — identity and driver shape.
        let scenario_tbl = root.table_req("scenario")?;
        let scenario = SpecReader::new(scenario_tbl, "scenario");
        let (name, name_line) = scenario.required_str("name")?;
        let (kind_key, kind_line) = scenario.required_str("kind")?;
        let kind = ScenarioKind::from_key(&kind_key, kind_line)?;
        let (title, _) = scenario.required_str("title")?;
        let (csv_prefix, prefix_line) = scenario
            .str_opt("csv_prefix")?
            .unwrap_or_else(|| (name.clone(), name_line));
        // The prefix names files inside the results directory, so it must be
        // a plain stem: `Path::join` with `/x` or `..` would leave it.
        if matches!(csv_prefix.as_str(), "" | "." | "..") || csv_prefix.contains(['/', '\\']) {
            return Err(ScenarioError::at(
                prefix_line,
                format!(
                    "the CSV prefix {csv_prefix:?} (`scenario.csv_prefix`, default \
                     `scenario.name`) must be a plain file-name stem: not empty, `.` \
                     or `..`, and without `/` or `\\`"
                ),
            ));
        }
        scenario.finish()?;

        // [system] — the workload, resolved through the registry.
        let empty = TomlTable::default();
        let system_tbl = root.table_opt("system")?.unwrap_or(&empty);
        let system = SpecReader::new(system_tbl, "system");
        let mut base_config = match system.str_opt("workload")? {
            Some((key, line)) => at_line(registry::workload(&key), line)?,
            None => FlSystemConfig::mnist_lr(),
        };
        if let Some((key, line)) = system.str_opt("dataset")? {
            base_config.dataset = at_line(registry::dataset(&key), line)?;
        }
        if let Some(n) = system.positive_usize_opt("samples_per_class")? {
            base_config.dataset.samples_per_class = n;
        }
        if let Some(n) = system.positive_usize_opt("test_per_class")? {
            base_config.test_per_class = n;
        }
        if let Some((key, line)) = system.str_opt("model")? {
            base_config.model = at_line(registry::model(&key), line)?;
        }
        if let Some((key, line)) = system.str_opt("partitioner")? {
            base_config.partitioner = at_line(registry::partitioner(&key), line)?;
        }
        if let Some((key, line)) = system.str_opt("heterogeneity")? {
            base_config.heterogeneity = at_line(registry::heterogeneity(&key), line)?;
        }
        if let Some((key, line)) = system.str_opt("channel")? {
            base_config.wireless = at_line(registry::channel(&key), line)?;
        }
        // Range-checked here, with a line number: `FlSystemConfig::build`
        // asserts the same conditions, but only inside every replicate.
        if let Some(v) = system.f64_checked_opt("noise_variance", "non-negative", |x| x >= 0.0)? {
            base_config.wireless.noise_variance = v;
        }
        if let Some(v) = system.f64_checked_opt("base_time_per_sample", "positive", |x| x > 0.0)? {
            base_config.base_time_per_sample = v;
        }
        if let Some(v) = system.f64_checked_opt("learning_rate", "positive", |x| x > 0.0)? {
            base_config.sgd.learning_rate = v;
        }
        if let Some(n) = system.positive_usize_opt("batch_size")? {
            base_config.sgd.batch_size = n;
        }
        if let Some(n) = system.positive_usize_opt("local_epochs")? {
            base_config.sgd.local_epochs = n;
        }
        let num_workers = system.positive_usize_opt("num_workers")?;
        let system_seed = system.u64_opt("seed")?.unwrap_or(42);
        system.finish()?;
        if kind == ScenarioKind::Scalability {
            // The scalability driver sets the worker count per sweep cell and
            // recomputes shard sizes from `per_worker_samples`; accepting
            // these keys would silently discard them.
            for key in ["num_workers", "samples_per_class"] {
                if let Some(Node::Value(e)) = system_tbl.get(key) {
                    return Err(ScenarioError::at(
                        e.line,
                        format!(
                            "`system.{key}` does not apply to scalability scenarios \
                             (the sweep sets worker counts; use [sweep] num_workers / \
                             per_worker_samples)"
                        ),
                    ));
                }
            }
        }

        // [faults] — injected fault statistics (default: no faults, which
        // leaves the run byte-identical to a pre-faults build). A `preset`
        // resolves through the registry first; explicit keys then override
        // individual fields on top of it.
        let faults_tbl = root.table_opt("faults")?.unwrap_or(&empty);
        let faults = SpecReader::new(faults_tbl, "faults");
        if let Some((key, line)) = faults.str_opt("preset")? {
            base_config.faults = at_line(registry::fault_preset(&key), line)?;
        }
        if let Some(v) =
            faults.f64_checked_opt("dropout_rate", "a non-negative rate", |x| x >= 0.0)?
        {
            base_config.faults.dropout_rate = v;
        }
        if let Some(v) = faults.f64_checked_opt("mean_downtime", "positive", |x| x > 0.0)? {
            base_config.faults.mean_downtime = v;
        }
        if let Some(v) = faults.f64_checked_opt("straggler_fraction", "in [0, 1]", |x| {
            (0.0..=1.0).contains(&x)
        })? {
            base_config.faults.straggler_fraction = v;
        }
        if let Some(v) = faults.f64_checked_opt("straggler_slowdown", "at least 1", |x| x >= 1.0)? {
            base_config.faults.straggler_slowdown = v;
        }
        if let Some(v) =
            faults.f64_checked_opt("outage_rate", "a non-negative rate", |x| x >= 0.0)?
        {
            base_config.faults.outage_rate = v;
        }
        if let Some(v) = faults.f64_checked_opt("outage_duration", "positive", |x| x > 0.0)? {
            base_config.faults.outage_duration = v;
        }
        if let Some(v) = faults.f64_checked_opt("deadline", "positive", |x| x > 0.0)? {
            base_config.faults.deadline = Some(v);
        }
        if let Some(v) = faults.f64_checked_opt("horizon", "positive", |x| x > 0.0)? {
            base_config.faults.horizon = v;
        }
        // Injected test faults (1-based rounds) for watchdog / retry smoke
        // scenarios; see `FaultSpec::injected_fault`.
        if let Some(r) = faults.positive_usize_opt("inject_panic_round")? {
            base_config.faults.inject_panic_round = Some(r);
        }
        if let Some(r) = faults.positive_usize_opt("inject_hang_round")? {
            base_config.faults.inject_hang_round = Some(r);
        }
        faults.finish()?;
        // Cross-field constraints the engine would otherwise only catch as a
        // panic deep inside `FlSystemConfig::build`.
        if base_config.faults.dropout_rate > 0.0 && base_config.faults.mean_downtime <= 0.0 {
            return Err(ScenarioError::at(
                faults_tbl.line.max(1),
                "`faults.mean_downtime` must be set (positive) when \
                 `faults.dropout_rate` is"
                    .into(),
            ));
        }
        if base_config.faults.outage_rate > 0.0 && base_config.faults.outage_duration <= 0.0 {
            return Err(ScenarioError::at(
                faults_tbl.line.max(1),
                "`faults.outage_duration` must be set (positive) when \
                 `faults.outage_rate` is"
                    .into(),
            ));
        }

        // [run] — mechanisms, targets, seeds and budgets.
        let run_tbl = root.table_opt("run")?.unwrap_or(&empty);
        let run = SpecReader::new(run_tbl, "run");
        let (keys, line) = run
            .array_opt("mechanisms", "an array of strings", |v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })?
            .unwrap_or_default();
        let mechanisms = keys
            .iter()
            .map(|key| at_line(registry::mechanism(key), line))
            .collect::<Result<_, _>>()?;
        let fraction = |t: f64| t > 0.0 && t <= 1.0;
        let accuracy_targets = run
            .numbers_opt("accuracy_targets", "accuracy target", "(0, 1]", fraction)?
            .map_or(Vec::new(), |(targets, _)| targets);
        let speedup_target =
            run.f64_checked_opt("speedup_target", "in (0, 1]", |x| x > 0.0 && x <= 1.0)?;
        run.only_for_kind("speedup_target", &kind_key, "time_accuracy")?;
        let energy_targets =
            match run.numbers_opt("energy_targets", "energy target", "(0, 1]", fraction)? {
                Some((targets, line)) if targets.is_empty() => {
                    return Err(ScenarioError::at(
                        line,
                        "run.energy_targets must not be empty".into(),
                    ))
                }
                Some((targets, _)) => targets,
                None => Vec::new(),
            };
        let energy_label = run.str_opt("energy_label")?.map(|(s, _)| s);
        let rounds = run.positive_usize_opt("rounds")?;
        let eval_every = run.positive_usize_opt("eval_every")?;
        let max_virtual_time = run.f64_checked_opt("max_virtual_time", "positive", |x| x > 0.0)?;
        let run_seed = run.u64_opt("seed")?.unwrap_or(4242);
        let num_seeds = run.positive_usize_opt("seeds")?.unwrap_or(1);
        let vary_system = run.bool_opt("system_seeds")?.unwrap_or(false);
        run.finish()?;

        // [sweep] — the cross-product axes.
        let sweep_tbl = root.table_opt("sweep")?.unwrap_or(&empty);
        let sweep = SpecReader::new(sweep_tbl, "sweep");
        let sweep_xi = match sweep.numbers_opt("xi", "sweep xi value", "[0, 1]", |xi| {
            (0.0..=1.0).contains(&xi)
        })? {
            Some((xis, line)) if xis.is_empty() => {
                return Err(ScenarioError::at(line, "sweep.xi must not be empty".into()))
            }
            xis => xis.map(|(xis, _)| xis),
        };
        let sweep_num_workers = match sweep.array_opt(
            "num_workers",
            "an array of non-negative integers",
            |v| match v {
                Value::Int(i) if *i >= 0 => Some(*i as usize),
                _ => None,
            },
        )? {
            Some((ns, line)) => {
                if ns.is_empty() || ns.contains(&0) {
                    return Err(ScenarioError::at(
                        line,
                        "sweep.num_workers must be a non-empty list of positive counts".into(),
                    ));
                }
                Some(ns)
            }
            None => None,
        };
        let per_worker_samples = sweep
            .positive_usize_opt("per_worker_samples")?
            .unwrap_or(30);
        sweep.only_for_kind("per_worker_samples", &kind_key, "scalability")?;
        sweep.finish()?;

        // [limits] — per-cell retry/timeout policy. Optional: `None` keeps
        // the historical run-to-completion behaviour byte-for-byte.
        let limits = match root.table_opt("limits")? {
            None => None,
            Some(limits_tbl) => {
                let lim = SpecReader::new(limits_tbl, "limits");
                let cell_timeout_secs =
                    lim.f64_checked_opt("cell_timeout_secs", "positive", |x| x > 0.0)?;
                let max_retries = lim.u64_opt("max_retries")?.map(|n| n as usize);
                let retry_backoff =
                    lim.f64_checked_opt("retry_backoff", "non-negative", |x| x >= 0.0)?;
                lim.finish()?;
                Some(RunLimits {
                    cell_timeout_secs,
                    max_retries,
                    retry_backoff,
                })
            }
        };

        // [telemetry] — observability sinks. Never affects results, CSV
        // bytes or runstore keys (see `canonical_spec_form`).
        let telemetry = match root.table_opt("telemetry")? {
            None => TelemetrySettings::default(),
            Some(tel_tbl) => {
                let tel = SpecReader::new(tel_tbl, "telemetry");
                let dir = tel.str_opt("dir")?.map(|(s, _)| s);
                let progress = match tel.str_opt("progress")? {
                    None => None,
                    Some((s, line)) => {
                        if matches!(s.as_str(), "auto" | "force" | "off") {
                            Some(s)
                        } else {
                            return Err(ScenarioError::at(
                                line,
                                format!(
                                    "telemetry.progress must be \"auto\", \"force\" or \
                                     \"off\", got \"{s}\""
                                ),
                            ));
                        }
                    }
                };
                tel.finish()?;
                TelemetrySettings { dir, progress }
            }
        };
        root.finish()?;

        let spec = Self {
            name,
            kind,
            title,
            csv_prefix,
            base_config,
            num_workers,
            system_seed,
            mechanisms,
            accuracy_targets,
            speedup_target,
            energy_targets,
            energy_label,
            rounds,
            eval_every,
            max_virtual_time,
            run_seed,
            num_seeds,
            vary_system,
            sweep_xi,
            sweep_num_workers,
            per_worker_samples,
            limits,
            telemetry,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-key validation per scenario kind.
    fn validate(&self) -> Result<(), ScenarioError> {
        let need = |ok: bool, msg: &str| {
            if ok {
                Ok(())
            } else {
                Err(ScenarioError::new(format!("[{}] {msg}", self.name)))
            }
        };
        if self.num_seeds == 0 {
            return Err(ScenarioError::new(
                "run.seeds must be at least 1".to_string(),
            ));
        }
        if !self.energy_targets.is_empty() && self.kind != ScenarioKind::TimeAccuracy {
            return Err(ScenarioError::new(format!(
                "[{}] run.energy_targets applies only to time_accuracy scenarios",
                self.name
            )));
        }
        if self.energy_label.is_some() && self.energy_targets.is_empty() {
            return Err(ScenarioError::new(format!(
                "[{}] run.energy_label requires run.energy_targets",
                self.name
            )));
        }
        match self.kind {
            ScenarioKind::TimeAccuracy => {
                need(
                    !self.mechanisms.is_empty(),
                    "time_accuracy scenarios need run.mechanisms",
                )?;
                need(
                    !self.accuracy_targets.is_empty(),
                    "time_accuracy scenarios need run.accuracy_targets",
                )?;
                need(
                    self.sweep_xi.is_none() && self.sweep_num_workers.is_none(),
                    "time_accuracy scenarios take no [sweep] axes (use kind = \"grid\")",
                )?;
            }
            ScenarioKind::XiSweep => {
                need(
                    self.mechanisms.is_empty(),
                    "xi_sweep scenarios sweep Air-FedGA's xi; run.mechanisms does not apply",
                )?;
                need(
                    !self.accuracy_targets.is_empty(),
                    "xi_sweep scenarios need run.accuracy_targets",
                )?;
                need(
                    self.sweep_num_workers.is_none(),
                    "xi_sweep scenarios take no num_workers axis (use kind = \"grid\")",
                )?;
            }
            ScenarioKind::Scalability => {
                need(
                    !self.mechanisms.is_empty(),
                    "scalability scenarios need run.mechanisms",
                )?;
                need(
                    self.accuracy_targets.len() == 1,
                    "scalability scenarios need exactly one accuracy target \
                     (the total-time panel)",
                )?;
                need(
                    self.sweep_xi.is_none(),
                    "scalability scenarios take no xi axis (use kind = \"grid\")",
                )?;
            }
            ScenarioKind::Grid => {
                need(
                    !self.mechanisms.is_empty(),
                    "grid scenarios need run.mechanisms",
                )?;
                need(
                    !self.accuracy_targets.is_empty(),
                    "grid scenarios need run.accuracy_targets",
                )?;
                need(
                    self.sweep_xi.is_some() || self.sweep_num_workers.is_some(),
                    "grid scenarios need at least one [sweep] axis",
                )?;
            }
        }
        Ok(())
    }
}

impl<'a> SpecReader<'a> {
    fn table_opt(&self, key: &str) -> Result<Option<&'a TomlTable>, ScenarioError> {
        self.used.borrow_mut().insert(key.to_string());
        match self.table.get(key) {
            None => Ok(None),
            Some(Node::Table(t)) => Ok(Some(t)),
            Some(Node::Value(e)) => Err(ScenarioError::at(
                e.line,
                format!("{} must be a table (`[{key}]` header)", self.ctx(key)),
            )),
        }
    }

    fn table_req(&self, key: &str) -> Result<&'a TomlTable, ScenarioError> {
        self.table_opt(key)?
            .ok_or_else(|| ScenarioError::new(format!("missing required table `[{key}]`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL_GRID: &str = r#"
[scenario]
name = "tiny"
kind = "grid"
title = "Tiny grid"

[system]
workload = "mnist_lr_quick"

[run]
mechanisms = ["fedavg", "air-fedga"]
accuracy_targets = [0.5]
rounds = 4
eval_every = 2

[sweep]
xi = [0.1, 0.3]
num_workers = [5, 8]
"#;

    #[test]
    fn minimal_grid_spec_parses_and_expands_in_documented_order() {
        let spec = ScenarioSpec::parse(MINIMAL_GRID).unwrap();
        assert_eq!(spec.kind, ScenarioKind::Grid);
        assert_eq!(spec.csv_prefix, "tiny");
        assert_eq!(spec.num_seeds, 1);
        assert_eq!(spec.run_seed, 4242);
        assert_eq!(spec.system_seed, 42);
        let cells = expand_grid(&spec);
        assert_eq!(cells.len(), 8);
        // num_workers outermost, xi next, mechanisms innermost.
        assert_eq!(
            cells[0],
            GridCell {
                num_workers: Some(5),
                xi: Some(0.1),
                mechanism: MechanismChoice::FedAvg
            }
        );
        assert_eq!(cells[1].mechanism, MechanismChoice::AirFedGa);
        assert_eq!(cells[2].xi, Some(0.3));
        assert_eq!(cells[4].num_workers, Some(8));
        assert_eq!(
            cells[7],
            GridCell {
                num_workers: Some(8),
                xi: Some(0.3),
                mechanism: MechanismChoice::AirFedGa
            }
        );
    }

    #[test]
    fn absent_axes_expand_to_a_single_none_cell() {
        let spec = ScenarioSpec::parse(
            r#"
[scenario]
name = "one-axis"
kind = "grid"
title = "t"
[run]
mechanisms = ["air-fedga"]
accuracy_targets = [0.5]
[sweep]
xi = [0.2, 0.4]
"#,
        )
        .unwrap();
        let cells = expand_grid(&spec);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.num_workers.is_none()));
        assert_eq!(cells[0].xi, Some(0.2));
    }

    #[test]
    fn unknown_keys_fail_with_their_line() {
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\ntitle = \"t\"\ntypo_key = 1\n",
        )
        .unwrap_err();
        assert_eq!(err.line, Some(5));
        assert!(err.msg.contains("unrecognised"), "{}", err.msg);
        assert!(err.msg.contains("scenario.typo_key"), "{}", err.msg);
    }

    #[test]
    fn a_csv_prefix_that_leaves_the_results_directory_is_rejected() {
        let spec = |keys: &str| {
            format!(
                "[scenario]\n{keys}kind = \"grid\"\ntitle = \"t\"\n\
                 [run]\nmechanisms = [\"fedavg\"]\naccuracy_targets = [0.5]\n\
                 [sweep]\nxi = [1.0]\n"
            )
        };
        for bad in ["", ".", "..", "/tmp/x", "../../x", "a/b", "a\\\\b"] {
            // Set explicitly: the error points at the `csv_prefix` line.
            let src = spec(&format!("name = \"ok\"\ncsv_prefix = \"{bad}\"\n"));
            let err = ScenarioSpec::parse(&src).unwrap_err();
            assert_eq!(err.line, Some(3), "{bad:?}");
            assert!(err.msg.contains("plain file-name stem"), "{}", err.msg);
            // Defaulted from the name: the error points at the `name` line.
            let err = ScenarioSpec::parse(&spec(&format!("name = \"{bad}\"\n"))).unwrap_err();
            assert_eq!(err.line, Some(2), "{bad:?}");
            assert!(err.msg.contains("plain file-name stem"), "{}", err.msg);
        }
        // A name with a path in it is fine once the prefix is a stem.
        let src = spec("name = \"a/b\"\ncsv_prefix = \"a_b\"\n");
        assert_eq!(ScenarioSpec::parse(&src).unwrap().csv_prefix, "a_b");
    }

    #[test]
    fn type_mismatches_carry_context_and_line() {
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\ntitle = \"t\"\n[run]\nseeds = \"three\"\n",
        )
        .unwrap_err();
        assert_eq!(err.line, Some(6));
        assert!(err.msg.contains("`run.seeds`"), "{}", err.msg);
        assert!(
            err.msg.contains("expected an integer, found string"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn registry_errors_point_at_the_offending_line() {
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"time_accuracy\"\ntitle = \"t\"\n\
             [system]\nworkload = \"bogus\"\n",
        )
        .unwrap_err();
        assert_eq!(err.line, Some(6));
        assert!(
            err.msg.contains("unknown workload \"bogus\""),
            "{}",
            err.msg
        );
    }

    #[test]
    fn unknown_registry_component_is_rejected() {
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\ntitle = \"t\"\n\
             [run]\nmechanisms = [\"warp-drive\"]\naccuracy_targets = [0.5]\n\
             [sweep]\nxi = [1.0]\n",
        )
        .unwrap_err();
        assert_eq!(err.line, Some(6));
        assert!(
            err.msg.contains("unknown mechanism \"warp-drive\""),
            "{}",
            err.msg
        );
    }

    #[test]
    fn kind_specific_validation_fires() {
        // time_accuracy with a sweep axis.
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"time_accuracy\"\ntitle = \"t\"\n\
             [run]\nmechanisms = [\"fedavg\"]\naccuracy_targets = [0.5]\n\
             [sweep]\nxi = [0.1]\n",
        )
        .unwrap_err();
        assert!(err.msg.contains("no [sweep] axes"), "{}", err.msg);
        // xi_sweep with mechanisms.
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"xi_sweep\"\ntitle = \"t\"\n\
             [run]\nmechanisms = [\"fedavg\"]\naccuracy_targets = [0.5]\n",
        )
        .unwrap_err();
        assert!(err.msg.contains("does not apply"), "{}", err.msg);
        // grid without axes.
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\ntitle = \"t\"\n\
             [run]\nmechanisms = [\"fedavg\"]\naccuracy_targets = [0.5]\n",
        )
        .unwrap_err();
        assert!(err.msg.contains("at least one [sweep] axis"), "{}", err.msg);
        // out-of-range values.
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"grid\"\ntitle = \"t\"\n\
             [run]\nmechanisms = [\"air-fedga\"]\naccuracy_targets = [1.5]\n\
             [sweep]\nxi = [0.1]\n",
        )
        .unwrap_err();
        assert!(err.msg.contains("(0, 1]"), "{}", err.msg);
    }

    #[test]
    fn zero_run_shapes_fail_at_parse_time_with_a_line() {
        for (key, line) in [("rounds = 0", 6), ("eval_every = 0", 6), ("seeds = 0", 6)] {
            let err = ScenarioSpec::parse(&format!(
                "[scenario]\nname = \"x\"\nkind = \"time_accuracy\"\ntitle = \"t\"\n\
                 [run]\n{key}\nmechanisms = [\"fedavg\"]\naccuracy_targets = [0.5]\n"
            ))
            .unwrap_err();
            assert_eq!(err.line, Some(line), "{key}: {}", err.msg);
            assert!(err.msg.contains("at least 1"), "{key}: {}", err.msg);
        }
        let err = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"time_accuracy\"\ntitle = \"t\"\n\
             [system]\nnum_workers = 0\n\
             [run]\nmechanisms = [\"fedavg\"]\naccuracy_targets = [0.5]\n",
        )
        .unwrap_err();
        assert_eq!(err.line, Some(6));
    }

    #[test]
    fn scalability_rejects_system_keys_the_sweep_controls() {
        for key in ["num_workers = 50", "samples_per_class = 100"] {
            let err = ScenarioSpec::parse(&format!(
                "[scenario]\nname = \"x\"\nkind = \"scalability\"\ntitle = \"t\"\n\
                 [system]\n{key}\n\
                 [run]\nmechanisms = [\"fedavg\"]\naccuracy_targets = [0.8]\n"
            ))
            .unwrap_err();
            assert_eq!(err.line, Some(6), "{key}: {}", err.msg);
            assert!(
                err.msg.contains("does not apply to scalability"),
                "{key}: {}",
                err.msg
            );
        }
    }

    #[test]
    fn speedup_target_is_range_checked_and_time_accuracy_only() {
        let with_run = |kind: &str, run: &str, sweep: &str| {
            ScenarioSpec::parse(&format!(
                "[scenario]\nname = \"x\"\nkind = \"{kind}\"\ntitle = \"t\"\n\
                 [run]\naccuracy_targets = [0.8]\n{run}\n{sweep}"
            ))
        };
        let mechanisms = "mechanisms = [\"fedavg\"]";
        for bad in ["0", "-0.5", "1.5", "nan"] {
            let run = format!("speedup_target = {bad}\n{mechanisms}");
            let err = with_run("time_accuracy", &run, "").unwrap_err();
            assert_eq!(err.line, Some(7), "{bad}: {}", err.msg);
            assert!(err.msg.contains("must be in (0, 1]"), "{bad}: {}", err.msg);
        }
        let run = format!("speedup_target = 1.0\n{mechanisms}");
        let spec = with_run("time_accuracy", &run, "").unwrap();
        assert_eq!(spec.speedup_target, Some(1.0));
        for (kind, run, sweep) in [
            ("xi_sweep", "speedup_target = 0.8".to_string(), ""),
            (
                "scalability",
                format!("speedup_target = 0.8\n{mechanisms}"),
                "",
            ),
            (
                "grid",
                format!("speedup_target = 0.8\n{mechanisms}"),
                "[sweep]\nxi = [0.1]\n",
            ),
        ] {
            let err = with_run(kind, &run, sweep).unwrap_err();
            assert_eq!(err.line, Some(7), "{kind}: {}", err.msg);
            assert!(
                err.msg
                    .contains("`run.speedup_target` applies only to time_accuracy scenarios"),
                "{kind}: {}",
                err.msg
            );
        }
    }

    #[test]
    fn per_worker_samples_is_scalability_only() {
        let err =
            ScenarioSpec::parse(&format!("{MINIMAL_GRID}per_worker_samples = 40\n")).unwrap_err();
        assert_eq!(err.line, Some(19), "{}", err.msg);
        assert!(
            err.msg
                .contains("`sweep.per_worker_samples` applies only to scalability scenarios"),
            "{}",
            err.msg
        );
        let spec = ScenarioSpec::parse(
            "[scenario]\nname = \"x\"\nkind = \"scalability\"\ntitle = \"t\"\n\
             [run]\nmechanisms = [\"fedavg\"]\naccuracy_targets = [0.8]\n\
             [sweep]\nper_worker_samples = 40\n",
        )
        .unwrap();
        assert_eq!(spec.per_worker_samples, 40);
    }

    #[test]
    fn max_virtual_time_must_be_finite_and_positive() {
        for bad in ["0", "0.0", "-5", "inf", "nan"] {
            let err = ScenarioSpec::parse(&MINIMAL_GRID.replace(
                "rounds = 4",
                &format!("rounds = 4\nmax_virtual_time = {bad}"),
            ))
            .unwrap_err();
            assert_eq!(err.line, Some(14), "{bad}: {}", err.msg);
            assert!(
                err.msg.contains("`run.max_virtual_time` must be positive"),
                "{bad}: {}",
                err.msg
            );
        }
        let spec = ScenarioSpec::parse(
            &MINIMAL_GRID.replace("rounds = 4", "rounds = 4\nmax_virtual_time = 2500"),
        )
        .unwrap();
        assert_eq!(spec.max_virtual_time, Some(2500.0));
    }

    /// `[system]` numbers the system build would reject are rejected where
    /// they are read, not by a panic in every replicate.
    #[test]
    fn system_physics_keys_are_range_checked() {
        let cases = [
            (
                "noise_variance",
                "non-negative",
                &["-1.0", "inf", "nan"][..],
            ),
            ("base_time_per_sample", "positive", &["0.0", "-0.35", "nan"]),
            ("learning_rate", "positive", &["0", "-0.5", "nan", "inf"]),
        ];
        for (key, expect, bads) in cases {
            for bad in bads {
                let with_key = format!("workload = \"mnist_lr_quick\"\n{key} = {bad}");
                let err = ScenarioSpec::parse(
                    &MINIMAL_GRID.replace("workload = \"mnist_lr_quick\"", &with_key),
                )
                .unwrap_err();
                assert_eq!(err.line, Some(9), "{key} = {bad}: {}", err.msg);
                let wanted = format!("`system.{key}` must be {expect}");
                assert!(err.msg.contains(&wanted), "{key} = {bad}: {}", err.msg);
            }
        }
        let noiseless = "workload = \"mnist_lr_quick\"\nnoise_variance = 0";
        let spec =
            ScenarioSpec::parse(&MINIMAL_GRID.replace("workload = \"mnist_lr_quick\"", noiseless))
                .unwrap();
        assert_eq!(spec.base_config.wireless.noise_variance, 0.0);
    }

    #[test]
    fn system_overrides_reach_the_config() {
        let spec = ScenarioSpec::parse(
            r#"
[scenario]
name = "override"
kind = "time_accuracy"
title = "t"

[system]
workload = "cifar_cnn"
partitioner = "dirichlet:0.3"
heterogeneity = "uniform:2:4"
channel = "noisy"
num_workers = 17
learning_rate = 0.05
batch_size = 8
seed = 7

[run]
mechanisms = ["fedavg", "tifl", "dynamic", "air-fedavg", "air-fedga"]
accuracy_targets = [0.5, 0.7]
seed = 999
seeds = 2
system_seeds = true
"#,
        )
        .unwrap();
        assert_eq!(spec.base_config.model, fedml::model::ModelKind::CnnCifar);
        assert_eq!(
            spec.base_config.partitioner,
            fedml::partition::Partitioner::Dirichlet { alpha: 0.3 }
        );
        assert_eq!(spec.base_config.wireless.noise_variance, 1.0e-3);
        assert_eq!(spec.base_config.sgd.learning_rate, 0.05);
        assert_eq!(spec.base_config.sgd.batch_size, 8);
        assert_eq!(spec.num_workers, Some(17));
        assert_eq!(spec.system_seed, 7);
        assert_eq!(spec.run_seed, 999);
        assert_eq!(spec.num_seeds, 2);
        assert!(spec.vary_system);
        assert_eq!(spec.mechanisms.len(), 5);
    }

    const FAULTS_HEADER: &str =
        "[scenario]\nname = \"f\"\nkind = \"time_accuracy\"\ntitle = \"t\"\n\
         [run]\nmechanisms = [\"air-fedga\"]\naccuracy_targets = [0.5]\n";

    #[test]
    fn faults_table_reaches_the_config_with_preset_and_overrides() {
        // No [faults] table: the zero-fault spec, so runs stay byte-identical.
        let spec = ScenarioSpec::parse(FAULTS_HEADER).unwrap();
        assert!(spec.base_config.faults.is_none());

        // Preset plus explicit overrides on top of it.
        let spec = ScenarioSpec::parse(&format!(
            "{FAULTS_HEADER}[faults]\npreset = \"churn:0.002\"\nmean_downtime = 45\n\
             straggler_fraction = 0.3\nstraggler_slowdown = 3.0\ndeadline = 400\n"
        ))
        .unwrap();
        let f = &spec.base_config.faults;
        assert_eq!(f.dropout_rate, 0.002);
        assert_eq!(f.mean_downtime, 45.0);
        assert_eq!(f.straggler_fraction, 0.3);
        assert_eq!(f.straggler_slowdown, 3.0);
        assert_eq!(f.deadline, Some(400.0));
        f.validate();
    }

    #[test]
    fn faults_table_rejects_typos_and_bad_values_with_lines() {
        // A typo'd key fails like every other table.
        let err =
            ScenarioSpec::parse(&format!("{FAULTS_HEADER}[faults]\ndropout = 0.1\n")).unwrap_err();
        assert!(err.msg.contains("faults.dropout"), "{}", err.msg);

        // Out-of-range values carry the key's line.
        let err = ScenarioSpec::parse(&format!(
            "{FAULTS_HEADER}[faults]\nstraggler_fraction = 1.5\n"
        ))
        .unwrap_err();
        assert_eq!(err.line, Some(9));
        assert!(err.msg.contains("in [0, 1]"), "{}", err.msg);
        let err = ScenarioSpec::parse(&format!("{FAULTS_HEADER}[faults]\npreset = \"blackout\"\n"))
            .unwrap_err();
        assert_eq!(err.line, Some(9));
        assert!(err.msg.contains("unknown fault preset"), "{}", err.msg);

        // Cross-field constraints fail at parse time, not as engine panics.
        let err = ScenarioSpec::parse(&format!("{FAULTS_HEADER}[faults]\ndropout_rate = 0.01\n"))
            .unwrap_err();
        assert!(err.msg.contains("mean_downtime"), "{}", err.msg);
        let err = ScenarioSpec::parse(&format!("{FAULTS_HEADER}[faults]\noutage_rate = 0.01\n"))
            .unwrap_err();
        assert!(err.msg.contains("outage_duration"), "{}", err.msg);
    }

    #[test]
    fn limits_table_parses_with_partial_keys_and_defaults_to_none() {
        // No [limits] table at all → None, the historical behaviour.
        assert_eq!(ScenarioSpec::parse(MINIMAL_GRID).unwrap().limits, None);

        let spec = ScenarioSpec::parse(&format!(
            "{MINIMAL_GRID}\n[limits]\ncell_timeout_secs = 30\nmax_retries = 2\n\
             retry_backoff = 0.5\n"
        ))
        .unwrap();
        assert_eq!(
            spec.limits,
            Some(RunLimits {
                cell_timeout_secs: Some(30.0),
                max_retries: Some(2),
                retry_backoff: Some(0.5),
            })
        );

        // Partial tables leave the unset keys to the harness defaults.
        let spec =
            ScenarioSpec::parse(&format!("{MINIMAL_GRID}\n[limits]\nmax_retries = 0\n")).unwrap();
        assert_eq!(
            spec.limits,
            Some(RunLimits {
                cell_timeout_secs: None,
                max_retries: Some(0),
                retry_backoff: None,
            })
        );
    }

    #[test]
    fn limits_table_rejects_bad_values_and_typos() {
        let err = ScenarioSpec::parse(&format!(
            "{MINIMAL_GRID}\n[limits]\ncell_timeout_secs = 0\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("positive"), "{}", err.msg);
        let err = ScenarioSpec::parse(&format!("{MINIMAL_GRID}\n[limits]\nretry_backoff = -1\n"))
            .unwrap_err();
        assert!(err.msg.contains("non-negative"), "{}", err.msg);
        let err =
            ScenarioSpec::parse(&format!("{MINIMAL_GRID}\n[limits]\ntimeout = 5\n")).unwrap_err();
        assert!(err.msg.contains("limits.timeout"), "{}", err.msg);
    }

    #[test]
    fn injected_fault_rounds_parse_and_reject_zero() {
        let spec = ScenarioSpec::parse(&format!(
            "{FAULTS_HEADER}[faults]\ninject_panic_round = 3\ninject_hang_round = 5\n"
        ))
        .unwrap();
        assert_eq!(spec.base_config.faults.inject_panic_round, Some(3));
        assert_eq!(spec.base_config.faults.inject_hang_round, Some(5));

        let err = ScenarioSpec::parse(&format!(
            "{FAULTS_HEADER}[faults]\ninject_panic_round = 0\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("at least 1"), "{}", err.msg);
    }

    /// Every array key keeps its messages, each at the key's line: an item of
    /// the wrong type, an item out of range, an empty list.
    #[test]
    fn array_keys_report_bad_items_at_their_line() {
        let mechanisms = "[\"fedavg\", \"air-fedga\"]";
        let accuracy = "accuracy_targets = [0.5]";
        for (from, to, line, msg) in [
            (mechanisms, "[\"fedavg\", 3]", 11, "`run.mechanisms`: expected an array of strings, found integer"),
            (mechanisms, "[\"fedprox\"]", 11, "unknown mechanism \"fedprox\"; available: air-fedga, air-fedavg, dynamic, fedavg, tifl"),
            (accuracy, "accuracy_targets = [0.5, 1.5]", 12, "accuracy target 1.5 must lie in (0, 1]"),
            (accuracy, "accuracy_targets = 0.5", 12, "`run.accuracy_targets`: expected an array of numbers, found float"),
            (accuracy, "energy_targets = [0, 1]", 12, "energy target 0 must lie in (0, 1]"),
            (accuracy, "energy_targets = []", 12, "run.energy_targets must not be empty"),
            ("xi = [0.1, 0.3]", "xi = [0.1, -1]", 17, "sweep xi value -1 must lie in [0, 1]"),
            ("xi = [0.1, 0.3]", "xi = [\"a\"]", 17, "`sweep.xi`: expected an array of numbers, found string"),
            ("xi = [0.1, 0.3]", "xi = []", 17, "sweep.xi must not be empty"),
            ("num_workers = [5, 8]", "num_workers = [5, -8]", 18, "`sweep.num_workers`: expected an array of non-negative integers, found integer"),
            ("num_workers = [5, 8]", "num_workers = [5, 0]", 18, "sweep.num_workers must be a non-empty list of positive counts"),
        ] {
            let err = ScenarioSpec::parse(&MINIMAL_GRID.replacen(from, to, 1)).unwrap_err();
            assert_eq!((err.line, err.msg.as_str()), (Some(line), msg), "{to}");
        }
    }
}
